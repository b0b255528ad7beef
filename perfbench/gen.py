"""Seeded input generator for the merge benchmark.

Each workload is a set of adapter or delta container files plus a merge
config, all made from one integer seed: the same seed gives byte-identical
files.  The files are written with this module's own container writer (the
safetensors-compatible float32 layout the README documents), so the program
under test sees only finished files.

Run on its own to write one workload's inputs and print their size:

    python3 perfbench/gen.py --workload ties-adapters --seed 1 --out .perfbench_work/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

ATTN = tuple(f"layers.0.attn.{p}_proj" for p in "qkvo")
LABELS = ("en", "de", "fr", "es", "it")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input geometry and the merge to run on it."""

    name: str
    kind: str  # "adapter" or "delta"
    models: int
    layers: tuple[tuple[str, int, int], ...]  # (name, d_out, d_in)
    pipeline: tuple[str, ...]
    density: float
    rank: int = 0
    drop_rate: float | None = None
    refactor_rank: int | None = None
    why: str = ""

    @property
    def entries(self) -> int:
        """Input delta entries one merge consumes: M * sum(d_out * d_in)."""
        return self.models * sum(d_out * d_in for _, d_out, d_in in self.layers)

    def config(self, seed: int) -> dict:
        doc = {"pipeline": list(self.pipeline), "density": self.density, "seed": seed}
        if self.drop_rate is not None:
            doc["drop_rate"] = self.drop_rate
        return doc

    def merge_args(self, config_path: str, out_path: str, inputs: list[str]) -> list[str]:
        args = ["merge", "--config", config_path, "--out", out_path]
        if self.refactor_rank is not None:
            args += ["--refactor-rank", str(self.refactor_rank)]
        return args + inputs


def _adapter_workload(name: str, pipeline: tuple[str, ...], layers: int, why: str, **kw) -> Workload:
    shapes = tuple((layer, 1024, 1024) for layer in ATTN[:layers])
    return Workload(name, "adapter", 5, shapes, pipeline, 0.5, rank=16, why=why, **kw)


WORKLOADS = {
    w.name: w
    for w in (
        _adapter_workload(
            "ties-adapters",
            ("TIES",),
            4,
            "TIES@0.5 on 5 rank-16 adapters x 4 layers of 1024^2; the trim sort "
            "dominates, KnOTS/DARE/rng do no work",
        ),
        _adapter_workload(
            "knots-adapters",
            ("KNOTS", "TIES"),
            # two layers, not four: a merge takes half as long, so a run holds
            # twice the samples and its median is steadier
            2,
            "KNOTS+TIES@0.5 with --refactor-rank 16 on 5 rank-16 adapters x 2 layers "
            "of 1024^2; dense SVDs dominate, DARE/rng do no work",
            refactor_rank=16,
        ),
        Workload(
            "dare-deltas",
            "delta",
            3,
            tuple((layer, 1024, 1024) for layer in ATTN)
            + (("layers.0.mlp.up_proj", 4096, 1024), ("layers.0.mlp.down_proj", 1024, 4096)),
            ("DARE", "TIES"),
            1.0,
            drop_rate=0.5,
            why="DARE+TIES (p=0.5, no trim) on 3 delta files of 6 layers, ~145 MB; "
            "large reads, 36M draws, zero-heavy sign election",
        ),
    )
}


def write_container(path: str, tensors: dict[str, np.ndarray], metadata: dict[str, str]) -> int:
    """Write float32 tensors in the documented container layout; returns bytes written."""
    header: dict = {"__metadata__": metadata}
    offset = 0
    names = sorted(tensors)
    for name in names:
        nbytes = tensors[name].size * 4
        header[name] = {
            "dtype": "F32",
            "shape": list(tensors[name].shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    blob = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f4").tobytes())
    return 8 + len(blob) + offset


def read_container(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a container file written by any conforming writer."""
    with open(path, "rb") as fh:
        data = fh.read()
    (header_len,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    payload = memoryview(data)[8 + header_len :]
    metadata = header.pop("__metadata__", {})
    tensors = {}
    for name, entry in header.items():
        begin, end = entry["data_offsets"]
        if entry["dtype"] != "F32" or end - begin != 4 * int(np.prod(entry["shape"])):
            raise ValueError(f"{path}: bad entry for {name!r}")
        tensors[name] = np.frombuffer(payload[begin:end], dtype="<f4").reshape(entry["shape"])
    return tensors, metadata


@dataclass
class Inputs:
    """Generated inputs of one workload, in memory and on disk."""

    paths: list[str]
    config_path: str
    labels: list[str]
    # per model: {layer: (A, B)} for adapters, {layer: delta} for deltas
    models: list[dict]
    bytes: int


def generate(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Write the workload's input files and merge config under ``out_dir``."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    paths, models, total = [], [], 0
    labels = [LABELS[m] for m in range(workload.models)]
    for label in labels:
        path = os.path.join(out_dir, f"{label}.tnsr")
        if workload.kind == "adapter":
            model = {}
            tensors = {}
            for layer, d_out, d_in in workload.layers:
                a = rng.standard_normal((workload.rank, d_in), dtype=np.float32)
                a *= np.float32(d_in**-0.5)
                b = rng.standard_normal((d_out, workload.rank), dtype=np.float32)
                b *= np.float32(0.02)
                model[layer] = (a, b)
                tensors[layer + ".lora_A"] = a
                tensors[layer + ".lora_B"] = b
            meta = {"rank": str(workload.rank), "alpha": repr(float(workload.rank)), "label": label}
        else:
            model = {}
            for layer, d_out, d_in in workload.layers:
                d = rng.standard_normal((d_out, d_in), dtype=np.float32)
                d *= np.float32(0.01)
                model[layer] = d
            tensors = {layer + ".delta": d for layer, d in model.items()}
            meta = {"label": label}
        total += write_container(path, tensors, meta)
        paths.append(path)
        models.append(model)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(seed), fh)
    return Inputs(paths, config_path, labels, models, total)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated files")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = generate(workload, args.seed, args.out)
    print(json.dumps({"workload": workload.name, "files": inputs.paths,
                      "input_bytes": inputs.bytes, "input_entries": workload.entries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
