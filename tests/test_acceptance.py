"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import os
import struct
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from loramerge import (
    DeltaMap,
    MergeConfig,
    compute_delta,
    hallucination_rate,
    initial_setup,
    load_adapter,
    load_delta,
    macro_prf,
    merge,
    render_table,
    rouge_l,
    rouge_n,
    save_adapter,
    save_delta,
    scenario_from_json_dict,
    similarity_matrix,
    update_language,
)
from loramerge import LoramergeError, read_tensors
from loramerge.merging import knots_transform
from conftest import (
    adapters_equal,
    deltas_bitwise_equal,
    random_adapter,
    random_delta,
    ties_reference,
    write_raw_container,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {title}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {number} {title}: PASS", flush=True)


SMALL_ROLLOUT = {
    "per_language_hours": {"en": 2.2, "de": 2.2, "fr": 2.2, "ja": 2.2, "zh": 2.2},
    "combined_hours": 3.4,
    "parallel_slots": 5,
    "update": {"label": "en", "retrain_hours": 1.0, "combined_retrain_hours": 3.8},
    "measured": {
        "initial_combined_cost": 113.4,
        "initial_merged_cost": 107.1,
        "update_combined_cost": 119.7,
        "update_merged_cost": 31.5,
    },
}

CASE_STUDY = {
    "per_language_hours": {"en": 22.5, "es": 22.5, "de": 22.5, "fr": 22.5, "ja": 22.5},
    "combined_hours": 45.0,
    "parallel_slots": 5,
    "update": {"label": "ja", "retrain_hours": 20.5, "combined_retrain_hours": 54.5},
    "measured": {
        "initial_combined_cost": 1416.0,
        "initial_merged_cost": 1400.0,
        "update_combined_cost": 1717.0,
        "update_merged_cost": 645.0,
    },
}


def test_c1_cost_table_reproduction():
    with criterion(1, "cost-table reproduction"):
        scenario2 = scenario_from_json_dict(SMALL_ROLLOUT)
        initial2, update2 = initial_setup(scenario2), update_language(scenario2)
        assert (initial2.combined_time_hours, initial2.merged_time_hours) == (3.4, 2.2)
        assert (update2.combined_time_hours, update2.merged_time_hours) == (3.8, 1.0)
        assert f"{initial2.time_reduction_pct:.1f}" == "35.3"
        assert f"{initial2.cost_reduction_pct:.1f}" == "5.6"
        assert f"{update2.time_reduction_pct:.1f}" == "73.7"
        assert f"{update2.cost_reduction_pct:.1f}" == "73.7"

        scenario5 = scenario_from_json_dict(CASE_STUDY)
        initial5, update5 = initial_setup(scenario5), update_language(scenario5)
        assert (initial5.combined_time_hours, initial5.merged_time_hours) == (45.0, 22.5)
        assert f"{initial5.time_reduction_pct:.1f}" == "50.0"
        assert f"{initial5.cost_reduction_pct:.1f}" == "1.1"
        assert f"{update5.time_reduction_pct:.1f}" == "62.4"
        assert f"{update5.cost_reduction_pct:.1f}" == "62.4"

        rendered = render_table(initial2, update2)
        for token in ("35.3", "5.6", "73.7"):
            assert token in rendered


def test_c2_dare_ties_degeneracy():
    with criterion(2, "DARE-TIES at drop 0 is bitwise TIES"):
        rng = np.random.default_rng(200)
        for case in range(100):
            count = int(rng.integers(2, 6))
            layer_count = int(rng.integers(1, 3))
            dims = [
                (int(rng.integers(1, 65)), int(rng.integers(1, 65)))
                for _ in range(layer_count)
            ]
            adapters = [
                random_adapter(rng, rank=4, label=f"m{m}", dims=dims)
                for m in range(count)
            ]
            deltas = [compute_delta(adapter) for adapter in adapters]
            density = float(rng.choice([1.0, 0.5, 0.25]))
            ties = merge(deltas, MergeConfig(("TIES",), density=density))
            dare = merge(
                deltas,
                MergeConfig(
                    ("DARE", "TIES"), density=density, drop_rate=0.0, seed=int(case)
                ),
            )
            assert deltas_bitwise_equal(ties, dare)


def test_c3_ties_brute_force_oracle():
    with criterion(3, "TIES matches entrywise brute force"):
        rng = np.random.default_rng(300)
        for _ in range(1000):
            count = int(rng.integers(2, 5))
            n = int(rng.integers(1, 17))
            rows = [rng.standard_normal(n).astype(np.float32) for _ in range(count)]
            weights = tuple(float(w) for w in rng.uniform(0.25, 4.0, count))
            density = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            deltas = [
                DeltaMap.from_arrays({"l": row[None, :]}, label=f"m{i}")
                for i, row in enumerate(rows)
            ]
            out = merge(
                deltas, MergeConfig(("TIES",), density=density, weights=weights)
            )
            expected = ties_reference([r.tolist() for r in rows], list(weights), density)
            assert np.abs(out.layers["l"].values[0] - np.asarray(expected)).max() <= 1e-6


def test_c4_dare_unbiasedness():
    with criterion(4, "DARE rescale is unbiased"):
        from loramerge import dare_prune

        delta = DeltaMap.from_arrays({"w": np.array([[1.0]], dtype=np.float32)}, label="s")
        seeds = 10_000
        for p in (0.1, 0.5, 0.9):
            total = 0.0
            for seed in range(seeds):
                total += float(dare_prune(delta, p, seed=seed).layers["w"].values[0, 0])
            mean = total / seeds
            stderr = math.sqrt(p / (1.0 - p) / seeds)
            assert abs(mean - 1.0) <= 3 * stderr, (p, mean, stderr)
            if p == 0.5:
                assert abs(mean - 1.0) <= 0.02


def test_c5_knots_reconstruction():
    with criterion(5, "KnOTS reconstruction and identity"):
        rng = np.random.default_rng(500)
        for count in (2, 3, 5):
            shapes = [(64, 48)] + [
                (int(rng.integers(2, 65)), int(rng.integers(2, 49))) for _ in range(4)
            ]
            for d_out, d_in in shapes:
                deltas = [
                    DeltaMap.from_arrays(
                        {"l": rng.standard_normal((d_out, d_in)).astype(np.float32)},
                        label=f"m{m}",
                    )
                    for m in range(count)
                ]
                basis, _, parts = knots_transform(deltas)["l"]
                concat = np.hstack(
                    [d.layers["l"].values.astype(np.float64) for d in deltas]
                )
                recon = basis.astype(np.float64) @ np.hstack(parts, dtype=np.float64)
                assert np.abs(recon - concat).max() <= 1e-5
                u = basis.astype(np.float64)
                assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-5

                base = deltas[0]
                out = merge(
                    [base] * count, MergeConfig(("KNOTS", "TIES"), density=1.0)
                )
                err = np.abs(out.layers["l"].values - base.layers["l"].values).max()
                assert err <= 1e-4


def test_c6_metric_fixtures():
    with criterion(6, "metric fixtures"):
        precision, recall, f1 = macro_prf(
            [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b")]
        )
        assert abs(precision - 0.8333) <= 1e-4
        assert abs(recall - 0.75) <= 1e-4
        assert abs(f1 - 0.7333) <= 1e-4
        assert rouge_n("the cat sat", "the cat", 1).f1 == 0.8
        assert rouge_l("a b c d", "a c d b").f1 == 0.75
        assert hallucination_rate([("The cat sat", ["cat sat", "dog ran"])]) == 0.5


def test_c7_container_round_trip_and_rejections(tmp_path):
    with criterion(7, "container round-trip and corruption rejection"):
        rng = np.random.default_rng(700)
        for i in range(100):
            adapter = random_adapter(rng, layers=int(rng.integers(1, 4)), label=f"a{i}")
            path = str(tmp_path / "adapter.tnsr")
            second = str(tmp_path / "adapter2.tnsr")
            save_adapter(adapter, path)
            loaded = load_adapter(path)
            assert adapters_equal(adapter, loaded)
            save_adapter(loaded, second)
            assert Path(path).read_bytes() == Path(second).read_bytes()

            delta = random_delta(rng, label=f"d{i}")
            path = str(tmp_path / "delta.tnsr")
            second = str(tmp_path / "delta2.tnsr")
            save_delta(delta, path)
            loaded = load_delta(path)
            assert deltas_bitwise_equal(delta, loaded)
            save_delta(loaded, second)
            assert Path(path).read_bytes() == Path(second).read_bytes()

        codes = set()

        bad_header = str(tmp_path / "badheader.tnsr")
        with open(bad_header, "wb") as fh:
            fh.write(struct.pack("<Q", 1 << 32))
            fh.write(b"{}")
        with pytest.raises(LoramergeError) as info:
            read_tensors(bad_header)
        codes.add(info.value.code)

        overlap = str(tmp_path / "overlap.tnsr")
        write_raw_container(
            overlap,
            {
                "a.delta": {"dtype": "F32", "shape": [1, 2], "data_offsets": [0, 8]},
                "b.delta": {"dtype": "F32", "shape": [1, 2], "data_offsets": [4, 12]},
            },
            np.zeros(3, dtype="<f4").tobytes(),
        )
        with pytest.raises(LoramergeError) as info:
            read_tensors(overlap)
        codes.add(info.value.code)

        nan_payload = str(tmp_path / "nan.tnsr")
        write_raw_container(
            nan_payload,
            {"a.delta": {"dtype": "F32", "shape": [1, 2], "data_offsets": [0, 8]}},
            np.array([1.0, np.nan], dtype="<f4").tobytes(),
        )
        with pytest.raises(LoramergeError) as info:
            read_tensors(nan_payload)
        codes.add(info.value.code)

        assert codes == {"format", "overlap", "data"}


def test_c8_similarity_properties():
    with criterion(8, "similarity symmetry, diagonal, scale invariance"):
        rng = np.random.default_rng(800)
        for _ in range(20):
            count = int(rng.integers(2, 6))
            shapes = {
                f"layer{i}": (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                for i in range(2)
            }
            deltas = [
                DeltaMap.from_arrays(
                    {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()},
                    label=f"m{m}",
                )
                for m in range(count)
            ]
            matrix = similarity_matrix(deltas)
            assert np.abs(matrix.values - matrix.values.T).max() <= 1e-6
            assert np.abs(np.diag(matrix.values) - 1.0).max() <= 1e-6

            index = int(rng.integers(0, count))
            scale = float(rng.uniform(0.1, 20.0))
            rescaled = list(deltas)
            rescaled[index] = DeltaMap.from_arrays(
                {
                    k: b.values * np.float32(scale)
                    for k, b in deltas[index].layers.items()
                },
                deltas[index].label,
            )
            again = similarity_matrix(rescaled)
            assert np.abs(matrix.values - again.values).max() <= 1e-6


def test_c9_cli_determinism_across_thread_counts(tmp_path):
    with criterion(9, "CLI merge byte-identical across thread counts"):
        rng = np.random.default_rng(900)
        dims = [(48, 32), (24, 40)]
        paths = []
        for label in ("en", "de", "fr"):
            adapter = random_adapter(rng, rank=4, label=label, dims=dims)
            path = str(tmp_path / f"{label}.tnsr")
            save_adapter(adapter, path)
            paths.append(path)
        config_path = str(tmp_path / "cfg.json")
        with open(config_path, "w") as fh:
            json.dump(
                {"pipeline": ["DARE", "KNOTS", "TIES"], "density": 0.5, "seed": 42}, fh
            )

        outputs = []
        for threads in ("1", "2", "8"):
            out = str(tmp_path / f"merged_t{threads}.tnsr")
            env = dict(os.environ)
            env.update(
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "loramerge",
                    "merge",
                    "--config",
                    config_path,
                    "--out",
                    out,
                    *paths,
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

        # and a repeated run at one thread count is byte-identical too
        repeat = str(tmp_path / "merged_repeat.tnsr")
        env = dict(os.environ)
        env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "loramerge",
                "merge",
                "--config",
                config_path,
                "--out",
                repeat,
                *paths,
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert Path(repeat).read_bytes() == outputs[1]
