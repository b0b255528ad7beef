import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from loramerge import (
    AlignmentError,
    DataError,
    DeltaMap,
    LoraAdapter,
    LowRankBlock,
    ParameterError,
    SimilarityUndefinedError,
    TensorBlock,
    compute_delta,
    cosine,
    flatten,
    save_adapter,
    save_delta,
    similarity_matrix,
)
from loramerge.cli import run
from conftest import random_delta_set

GOLDEN = Path(__file__).parent / "golden" / "similarity"


def _delta(arrays, label="x"):
    return DeltaMap.from_arrays(
        {name: np.asarray(a, dtype=np.float32) for name, a in arrays.items()}, label
    )


class TestFlatten:
    def test_row_major_single_layer(self):
        delta = _delta({"l": [[1, 2], [3, 4]]})
        assert flatten(delta).tolist() == [1, 2, 3, 4]

    def test_lexicographic_layer_order(self):
        delta = _delta({"b": [[5.0]], "a": [[1.0]]})
        assert flatten(delta).tolist() == [1.0, 5.0]

    def test_length_is_total_size(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            deltas = random_delta_set(rng, 1, layers=3)
            total = sum(b.size for b in deltas[0].layers.values())
            assert flatten(deltas[0]).size == total


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        value = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(0.70710678, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(SimilarityUndefinedError):
            cosine(np.zeros(3), np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            cosine(np.ones(3), np.ones(4))

    def test_zero_vector_against_one_past_float64_range_rejected(self):
        # the other vector's squared norm overflows, so both are rescaled first
        with pytest.raises(SimilarityUndefinedError, match="all-zero vector"):
            cosine([0.0, 0.0], [1e200, 1e200])
        with pytest.raises(SimilarityUndefinedError, match="all-zero vector"):
            cosine([1e200, 1e200], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("which", ["u", "v"])
    def test_non_finite_entries_rejected(self, bad, which):
        # rejected before any arithmetic: RuntimeWarnings are errors here too
        u, v = np.array([1.0, bad]), np.array([1.0, 1.0])
        if which == "v":
            u, v = v, u
        with pytest.raises(DataError, match="non-finite"):
            cosine(u, v)

    @pytest.mark.parametrize(
        "u, v, expected",
        [
            ([1e200, 1e200], [1e200, 1e200], 1.0),  # the squared norms overflow
            ([1e200, 0.0], [1e200, 1e200], 0.5**0.5),
            ([1e-200, 1e-200], [1e-200, 3e-200], 2 / 5**0.5),  # they underflow to 0
            ([1e-160, 1e-160], [1e-160, 3e-160], 2 / 5**0.5),  # they are subnormal
            ([1e-320, 0.0], [0.0, 5e-324], 0.0),  # subnormal entries
            ([1e200, 1.0], [1e-200, 1e-200], 0.5**0.5),  # one each way
        ],
        ids=["overflow", "overflow-one", "underflow", "subnormal-norms", "subnormal", "both-ways"],
    )
    def test_sums_past_float64_range_are_rescaled(self, u, v, expected):
        # RuntimeWarnings are errors here: the overflow is neither warned nor returned
        assert cosine(u, v) == pytest.approx(expected, abs=1e-15)
        assert cosine(v, u) == pytest.approx(expected, abs=1e-15)

    def test_rescaling_by_a_power_of_two_keeps_the_bits(self):
        rng = np.random.default_rng(62)
        u, v = rng.standard_normal(50), rng.standard_normal(50)
        base = cosine(u, v)
        for exponent in (-1000, -600, 600, 1000):  # entries stay normal
            assert cosine(np.ldexp(u, exponent), np.ldexp(v, exponent)) == base

    def test_scale_invariance_and_sign_flip(self):
        rng = np.random.default_rng(61)
        u = rng.standard_normal(50)
        v = rng.standard_normal(50)
        base = cosine(u, v)
        assert cosine(3.7 * u, v) == pytest.approx(base, abs=1e-6)
        assert cosine(-u, v) == pytest.approx(-base, abs=1e-6)


class TestSimilarityMatrix:
    def test_identical_deltas_all_ones(self):
        rng = np.random.default_rng(62)
        (delta,) = random_delta_set(rng, 1)
        twin = DeltaMap(dict(delta.layers), label="twin")
        matrix = similarity_matrix([delta, twin])
        np.testing.assert_allclose(matrix.values, np.ones((2, 2)), atol=1e-6)
        assert matrix.labels == (delta.label, "twin")

    def test_one_hot_layers_are_orthogonal(self):
        a = _delta({"l": [[1.0, 0.0]]}, label="a")
        b = _delta({"l": [[0.0, 1.0]]}, label="b")
        matrix = similarity_matrix([a, b])
        assert matrix.values[0, 1] == 0.0
        assert matrix.values[1, 0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(63)
        deltas = random_delta_set(rng, 3, layers=2)
        matrix = similarity_matrix(deltas)
        vectors = [flatten(d).astype(np.float64) for d in deltas]
        for i in range(3):
            for j in range(3):
                expected = float(
                    np.dot(vectors[i], vectors[j])
                    / (np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[j]))
                )
                assert matrix.values[i, j] == pytest.approx(expected, abs=1e-9)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(64)
        deltas = random_delta_set(rng, 4)
        matrix = similarity_matrix(deltas)
        np.testing.assert_allclose(matrix.values, matrix.values.T, atol=1e-6)
        np.testing.assert_allclose(np.diag(matrix.values), 1.0, atol=1e-6)
        assert (np.abs(matrix.values) <= 1.0).all()

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(65)
        deltas = random_delta_set(rng, 3)
        base = similarity_matrix(deltas)
        scaled_first = DeltaMap.from_arrays(
            {k: b.values * np.float32(7.5) for k, b in deltas[0].layers.items()},
            deltas[0].label,
        )
        rescaled = similarity_matrix([scaled_first, deltas[1], deltas[2]])
        np.testing.assert_allclose(base.values, rescaled.values, atol=1e-6)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(66)
        deltas = random_delta_set(rng, 3, labels=["en", "de", "fr"])
        base = similarity_matrix(deltas)
        perm = [2, 0, 1]
        shuffled = similarity_matrix([deltas[i] for i in perm])
        assert shuffled.labels == ("fr", "en", "de")
        for i, pi in enumerate(perm):
            for j, pj in enumerate(perm):
                assert shuffled.values[i, j] == pytest.approx(base.values[pi, pj], abs=1e-12)

    def test_needs_two_inputs(self):
        rng = np.random.default_rng(67)
        with pytest.raises(ParameterError):
            similarity_matrix(random_delta_set(rng, 1))

    def test_geometry_mismatch_rejected(self):
        a = _delta({"l": [[1.0, 2.0]]}, "a")
        b = _delta({"l": [[1.0], [2.0]]}, "b")
        with pytest.raises(AlignmentError):
            similarity_matrix([a, b])

    def test_per_layer_variant(self):
        a = _delta({"x": [[1.0, 0.0]], "y": [[1.0, 1.0]]}, "a")
        b = _delta({"x": [[0.0, 1.0]], "y": [[1.0, 1.0]]}, "b")
        flat = similarity_matrix([a, b]).values[0, 1]
        layered = similarity_matrix([a, b], per_layer=True).values[0, 1]
        assert layered == pytest.approx(0.5, abs=1e-9)  # mean of 0 and 1
        assert flat != pytest.approx(layered, abs=1e-3)

    def test_per_layer_densifies_each_layer_once(self, monkeypatch):
        rng = np.random.default_rng(140)

        def lowrank(name):
            return LowRankBlock(name, rng.standard_normal((6, 2)), rng.standard_normal((2, 5)))

        deltas = [DeltaMap({k: lowrank(k) for k in ("x", "y")}, f"m{m}") for m in range(4)]
        dense = [DeltaMap.from_arrays({k: b.values for k, b in d.layers.items()}) for d in deltas]
        expected = similarity_matrix(dense, per_layer=True)
        reads = []
        dense = LowRankBlock.values

        def counted(block):
            reads.append(block.name)
            return dense.fget(block)

        monkeypatch.setattr(LowRankBlock, "values", property(counted))
        matrix = similarity_matrix(deltas, per_layer=True)
        assert sorted(reads) == ["x"] * 4 + ["y"] * 4
        assert matrix.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("lowrank", [False, True], ids=["dense", "low-rank"])
    def test_per_layer_values_are_the_mean_of_layer_cosines(self, lowrank):
        rng = np.random.default_rng(141)
        shapes = {"x": (7, 5), "y": (3, 9), "z": (6, 6)}

        def block(name, shape):
            if lowrank:
                return LowRankBlock(
                    name, rng.standard_normal((shape[0], 2)), rng.standard_normal((2, shape[1]))
                )
            return TensorBlock(name, rng.standard_normal(shape))

        deltas = [
            DeltaMap({k: block(k, shape) for k, shape in shapes.items()}, f"m{m}")
            for m in range(4)
        ]

        def mean_cosine(a, b):
            return np.mean([cosine(a.layers[k].values, b.layers[k].values) for k in sorted(shapes)])

        expected = np.array([[mean_cosine(a, b) for b in deltas] for a in deltas])
        matrix = similarity_matrix(deltas, per_layer=True)
        assert matrix.values.tobytes() == expected.tobytes()

    def test_csv_format(self):
        a = _delta({"l": [[1.0, 0.0]]}, label="en")
        b = _delta({"l": [[1.0, 1.0]]}, label="de")
        csv = similarity_matrix([a, b]).to_csv()
        lines = csv.splitlines()
        assert lines[0] == ",en,de"
        assert lines[1] == "en,1.000000,0.707107"
        assert lines[2] == "de,0.707107,1.000000"
        assert csv.endswith("\n")


_GOLDEN_SHAPES = {"attn.q_proj": (24, 16), "attn.v_proj": (8, 40), "mlp.down_proj": (33, 7)}


def _golden_inputs(directory, kind):
    """Files ``en``, ``de`` and ``ja`` in ``directory`` over the same three
    layers of different shapes: delta files (``deltas``), adapter files
    (``adapters``) or both (``mixed``: ``de`` is an adapter).  Each model's
    factors share a component, so the scores are far from 0 and 1."""
    rng = np.random.default_rng(150)
    shared = {
        name: (rng.standard_normal((3, d_in)), rng.standard_normal((d_out, 3)))
        for name, (d_out, d_in) in _GOLDEN_SHAPES.items()
    }
    paths = []
    for m, label in enumerate(("en", "de", "ja")):
        mix = 0.3 * m
        layers = {}
        for name, (d_out, d_in) in _GOLDEN_SHAPES.items():
            a = (1 - mix) * shared[name][0] + mix * rng.standard_normal((3, d_in))
            b = (1 - mix) * shared[name][1] + mix * rng.standard_normal((d_out, 3))
            layers[name] = (TensorBlock(f"{name}.lora_A", a), TensorBlock(f"{name}.lora_B", b))
        adapter = LoraAdapter(layers, 3, 6.0, label)
        path = str(directory / f"{label}.tnsr")
        if kind == "adapters" or (kind == "mixed" and label == "de"):
            save_adapter(adapter, path)
        else:
            layers = {
                k: b.values + 0.1 * rng.standard_normal(b.shape)
                for k, b in compute_delta(adapter).layers.items()
            }
            save_delta(DeltaMap.from_arrays(layers, label), path)
        paths.append(path)
    return paths


class TestGoldenBytes:
    """Exact CSV bytes of ``loramerge similarity``, with and without
    ``--per-layer``.  The files under ``tests/golden/similarity`` are
    ``<kind>.csv`` and ``<kind>-per-layer.csv``; they change only with a
    deliberate change to the scores or their format."""

    @pytest.mark.parametrize("flag", [[], ["--per-layer"]], ids=["flat", "per-layer"])
    @pytest.mark.parametrize("kind", ["deltas", "adapters", "mixed"])
    def test_csv_bytes(self, tmp_path, capsys, kind, flag):
        paths = _golden_inputs(tmp_path, kind)
        out = tmp_path / "sim.csv"
        assert run(["similarity", "--csv", str(out), *flag, *paths]) == 0
        assert capsys.readouterr().err == ""
        stem = kind + ("-per-layer" if flag else "")
        assert out.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()


def test_scores_do_not_follow_the_blas_thread_count():
    """Above OpenBLAS's threading threshold a dot product's sum is split,
    and rounded, by the thread count; every product runs on one thread, so
    ``cosine`` and both matrices give the same bits at 1 and 2 threads."""
    code = textwrap.dedent(
        """
        import json
        import numpy as np
        from loramerge import DeltaMap, cosine, similarity_matrix
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 1 << 20)).astype(np.float32)
        deltas = [
            DeltaMap.from_arrays({"w": x.reshape(1024, 1024)}, label)
            for x, label in zip((a, b), "ab")
        ]
        scores = [cosine(a, b)]
        for per_layer in (False, True):
            scores += similarity_matrix(deltas, per_layer=per_layer).values.ravel().tolist()
        print(json.dumps([float(x).hex() for x in scores]))
        """
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
