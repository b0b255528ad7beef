"""Smoke test of the benchmark itself, at tiny shapes.

    python3 perfbench/smoke.py

Checks, in a few seconds:

* every workload runs with ``--trace 0`` and ``--trace 1``; the last line is
  the JSON result, and its metric names and units are exactly those
  ``BENCHMARK.json`` declares;
* a child's ``ru_maxrss`` is its own: ``python3 -c pass`` spawned while the
  runner holds a large array reports about a bare interpreter's peak;
* for TIES and DARE, the public ``dare_prune -> trim -> elect_sign ->
  disjoint_merge`` composition is bitwise equal to the CLI output;
* a corrupted input file is counted as a failed merge, not a crash;
* the factored KnOTS reference equals a dense float64 SVD reference;
* without the program (only ``BENCHMARK.json`` and this directory) the
  benchmark exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (first: it forks its spawner before numpy is loaded)

import numpy as np  # noqa: E402

import reference  # noqa: E402
from gen import WORKLOADS, generate, read_container  # noqa: E402

BARE_RSS_LIMIT_MB = 64
BALLAST_MB = 256

TINY = {
    name: dataclasses.replace(
        w,
        layers=tuple((layer, d_out // 64, d_in // 64) for layer, d_out, d_in in w.layers),
        rank=2 if w.rank else 0,
        refactor_rank=2 if w.refactor_rank else None,
    )
    for name, w in WORKLOADS.items()
}


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_metric_names() -> None:
    spec = _spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in TINY:
        for trace in (0, 1):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(
                    ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
                    workloads=TINY,
                )
            assert code == 0, (name, trace, code)
            result = json.loads(stdout.getvalue().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace, sorted(set(got) ^ set(expected[trace])))
            print(f"ok  {name} --trace {trace}: {result['attempted']} merges, {len(got)} metrics")


def check_child_rss_is_its_own() -> None:
    work = os.path.join(run.WORK, f"smoke-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        ballast = np.ones(int(BALLAST_MB * run.MB) // 8)  # touched, so resident
        child = run.spawn(["-c", "pass"], os.path.join(work, "bare.log"))
        del ballast
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mb = child.max_rss / run.MB
    assert child.exit_code == 0 and mb < BARE_RSS_LIMIT_MB, (child.exit_code, mb)
    print(f"ok  python3 -c pass peaks at {mb:.1f} MB while the runner holds {BALLAST_MB} MB")


def check_composed_pipeline_equals_cli() -> None:
    sys.path.insert(0, run.SRC)
    from loramerge import adapters, merging

    for name in ("ties-adapters", "dare-deltas"):
        workload = TINY[name]
        work = os.path.join(run.WORK, f"smoke-{os.getpid()}")
        try:
            inputs = generate(workload, 6, os.path.join(work, "in"))
            merge = run.merge_once(workload, inputs, work, lambda path: ("", None))
            assert merge.error is None, merge.error
            tensors, _ = read_container(os.path.join(work, "out.tnsr"))
            config = merging.MergeConfig.from_json_dict(workload.config(6))
            deltas = [adapters.load_as_delta(path) for path in inputs.paths]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if "DARE" in config.pipeline:
            deltas = [merging.dare_prune(d, config.effective_drop_rate, config.seed) for d in deltas]
        trimmed = [merging.trim(d, config.density) for d in deltas]
        signs = merging.elect_sign(trimmed, config.weights)
        composed = merging.disjoint_merge(trimmed, signs, config.weights)
        assert sorted(tensors) == sorted(layer + ".delta" for layer in composed.layers)
        for layer, block in composed.layers.items():
            got = tensors[layer + ".delta"]
            assert got.dtype == block.values.dtype and got.tobytes() == block.values.tobytes(), layer
    print("ok  composed dare_prune/trim/elect_sign/disjoint_merge equals the CLI output bitwise")


def check_corrupt_input_counts_as_failed() -> None:
    workload = TINY["ties-adapters"]
    work = os.path.join(run.WORK, f"smoke-{os.getpid()}")
    try:
        inputs = generate(workload, 4, os.path.join(work, "in"))
        ref = reference.build(workload, inputs, 4)
        with open(inputs.paths[1], "r+b") as fh:
            fh.write(b"\xff" * 8)  # header length far past the end of the file
        merges = run.timed_merges(workload, inputs, work, run.Checker(workload, ref), 0.0)
        assert len(merges) == 1 and merges[0].error is not None, merges
        metrics, lines = run.end_to_end(workload, merges, [0.1])
        assert "failed_ratio 1.0000 (1 of 1 merges)" in lines, lines
        print(f"ok  corrupted input counted as failed: {merges[0].error[:60]!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_knots_reference_is_dense_svd() -> None:
    workload = TINY["knots-adapters"]
    work = os.path.join(run.WORK, f"smoke-{os.getpid()}")
    try:
        inputs = generate(workload, 5, os.path.join(work, "in"))
        ref = reference.build(workload, inputs, 5)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    weights = np.ones(workload.models)
    for layer, d_out, d_in in workload.layers:
        deltas = [b.astype(np.float64) @ a.astype(np.float64) for a, b in (m[layer] for m in inputs.models)]
        u, s, vt = np.linalg.svd(np.hstack(deltas), full_matrices=False)
        parts = np.hsplit(s[:, None] * vt, workload.models)
        keep = reference.keep_count(workload.density, parts[0].size)
        dense = u @ reference.ties_ref([reference.trim_ref(p, keep) for p in parts], weights)
        expected = ref.lowrank[layer][0]
        error = np.linalg.norm(dense - expected) / np.linalg.norm(dense)
        assert error < 1e-9, (layer, error)
    print("ok  factored KnOTS reference matches the dense float64 SVD")


def check_fails_without_program() -> None:
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ties-adapters", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
        print(f"ok  without the program: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_child_rss_is_its_own()
    check_metric_names()
    check_composed_pipeline_equals_cli()
    check_corrupt_input_counts_as_failed()
    check_knots_reference_is_dense_svd()
    check_fails_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
