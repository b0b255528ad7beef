"""The benchmark's traced mode (``perfbench/trace_child.py``) on tiny merges.

The traced child replaces module attributes of ``loramerge`` by timing
wrappers before it runs the CLI, so renaming or dropping one of them breaks
``perfbench/run.py --trace 1``.  These tests run the child as the benchmark
does and compare its output with an untraced run.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loramerge import DeltaMap, save_adapter, save_delta
from conftest import random_adapter

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def _inputs(tmp_path, kind):
    rng = np.random.default_rng(91)
    paths = []
    for label in ("en", "de", "fr"):
        path = str(tmp_path / f"{label}.tnsr")
        if kind == "adapter":
            save_adapter(random_adapter(rng, rank=2, label=label, dims=[(12, 10), (8, 6)]), path)
        else:
            layers = {f"l{i}": rng.standard_normal((10, 12)).astype(np.float32) for i in range(2)}
            save_delta(DeltaMap.from_arrays(layers, label=label), path)
        paths.append(path)
    return paths


HALF = {"density": 0.5}


@pytest.mark.parametrize(
    "pipeline, knobs, kind, steps",
    [
        (["TIES"], HALF, "adapter", {"merging.trim", "merging.elect", "merging.disjoint"}),
        (["DARE", "KNOTS", "TIES"], HALF, "delta", {"rng.draw", "merging.trim", "merging.elect"}),
        # untrimmed: each chunk is read, pruned and merged without forming a layer
        (
            ["DARE", "TIES"],
            {"density": 1.0, "drop_rate": 0.5},
            "delta",
            {"rng.draw", "merging.elect", "merging.disjoint"},
        ),
    ],
    ids=["ties-adapters", "dare-knots-ties-deltas", "streamed-dare-ties-deltas"],
)
def test_traced_merge_equals_untraced(tmp_path, pipeline, knobs, kind, steps):
    paths = _inputs(tmp_path, kind)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pipeline": pipeline, **knobs, "seed": 4}))
    outs = {name: str(tmp_path / f"{name}.tnsr") for name in ("plain", "traced")}

    def argv(out):
        return ["merge", "--config", str(config), "--out", out, *paths]

    plain = subprocess.run(
        [sys.executable, "-m", "loramerge", *argv(outs["plain"])], capture_output=True, text=True
    )
    assert plain.returncode == 0, plain.stderr
    job = {"run_id": "test", "argv": argv(outs["traced"]), "trace": str(tmp_path / "trace.json")}
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    traced = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(job_path)], capture_output=True, text=True
    )
    assert traced.returncode == 0, traced.stderr

    with open(outs["plain"], "rb") as want, open(outs["traced"], "rb") as got:
        assert got.read() == want.read()
    with open(job["trace"], encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert spans
    assert {"run", "adapters.load", "container.write", *steps} <= {s["name"] for s in spans}
