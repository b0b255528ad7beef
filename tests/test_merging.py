import collections
import hashlib
import math
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from loramerge import (
    AlignmentError,
    DataError,
    DeltaMap,
    MergeConfig,
    ParameterError,
    compute_delta,
    dare_prune,
    disjoint_merge,
    elect_sign,
    knots_merge,
    merge,
    load_delta,
    refactor_to_adapter,
    save_adapter,
    save_delta,
    trim,
)
from loramerge import container, merging
from loramerge.adapters import LowRankBlock, PendingBlock
from loramerge.merging import _disjoint, _elect, _trim_count, _trim_values
from loramerge.rng import uniform_stream
from conftest import (
    deltas_bitwise_equal,
    failing_on_call,
    random_adapter,
    random_delta,
    random_delta_set,
    threads_started,
    ties_reference,
)


def _single(values, label="x"):
    return DeltaMap.from_arrays({"l": np.array(values, dtype=np.float32)}, label=label)


def _column_deltas(rows, labels=None):
    """One DeltaMap per model, each holding a 1x1 layer per value in rows."""
    count = len(rows)
    labels = labels or [f"m{i}" for i in range(count)]
    return [
        DeltaMap.from_arrays({"l": np.array([[v]], dtype=np.float32)}, label=labels[i])
        for i, v in enumerate(rows)
    ]


def _plain_elect(values, weights):
    """The sign election with a multiply by every weight, kept as the byte
    reference for the kernel that skips the multiply at weight 1.0."""
    total = np.zeros(values[0].shape, dtype=np.float64)
    term = np.empty_like(total)
    for w, v in zip(weights, values):
        term[...] = v
        term *= w
        total += term
    return np.subtract(total > 0, total < 0, dtype=np.int8)


def _plain_disjoint(values, signs, weights):
    """The disjoint mean with a multiply by every weight and by the match,
    kept as the byte reference for the kernel that zeroes the bits of the
    entries that do not carry the sign and skips the multiply at weight 1.0."""
    numer = np.zeros(signs.shape, dtype=np.float64)
    denom = np.zeros(signs.shape, dtype=np.float64)
    term = np.empty(signs.shape, dtype=np.float64)
    unit = signs.astype(np.float32)
    carried = np.empty(signs.shape, dtype=np.float32)
    match = np.empty(signs.shape, dtype=bool)
    for w, v in zip(weights, values):
        np.multiply(v, unit, out=carried)
        np.greater(carried, 0.0, out=match)
        term[...] = v
        term *= w
        term *= match
        numer += term
        np.multiply(match, w, out=term)
        denom += term
    denom += denom == 0
    return np.divide(numer, denom, out=term).astype(np.float32)


class TestMergeConfig:
    @pytest.mark.parametrize(
        "pipeline",
        [("TIES",), ("KNOTS", "TIES"), ("DARE", "TIES"), ("DARE", "KNOTS", "TIES")],
    )
    def test_valid_pipelines(self, pipeline):
        assert MergeConfig(pipeline).pipeline == pipeline

    @pytest.mark.parametrize(
        "pipeline",
        [(), ("KNOTS",), ("DARE",), ("TIES", "DARE"), ("KNOTS", "DARE", "TIES"), ("LINEAR",)],
    )
    def test_invalid_pipelines(self, pipeline):
        with pytest.raises(ParameterError):
            MergeConfig(pipeline)

    def test_pipeline_names_normalized(self):
        assert MergeConfig(("dare", "Ties")).pipeline == ("DARE", "TIES")

    @pytest.mark.parametrize("density", [0.0, -0.1, 1.5])
    def test_density_range(self, density):
        with pytest.raises(ParameterError):
            MergeConfig(("TIES",), density=density)

    @pytest.mark.parametrize("drop_rate", [-0.1, 1.0])
    def test_drop_rate_range(self, drop_rate):
        with pytest.raises(ParameterError):
            MergeConfig(("DARE", "TIES"), drop_rate=drop_rate)

    def test_drop_rate_defaults_to_one_minus_density(self):
        assert MergeConfig(("DARE", "TIES"), density=0.5).effective_drop_rate == 0.5
        assert MergeConfig(("DARE", "TIES"), density=1.0).effective_drop_rate == 0.0
        assert MergeConfig(("DARE", "TIES"), density=0.5, drop_rate=0.2).effective_drop_rate == 0.2

    def test_weights_must_be_positive(self):
        with pytest.raises(ParameterError):
            MergeConfig(("TIES",), weights=(1.0, 0.0))

    @pytest.mark.parametrize(
        "weight", [10**400, float("nan"), float("inf")], ids=["huge-int", "nan", "inf"]
    )
    def test_weights_must_convert_to_finite_floats(self, weight):
        with pytest.raises(ParameterError, match="weights must be positive finite numbers"):
            MergeConfig(("TIES",), weights=(weight, 1))

    def test_weights_must_keep_weighted_sums_finite(self):
        # sum(weights) * float32 max must be finite in float64
        limit = np.finfo(np.float64).max / float(np.finfo(np.float32).max)
        MergeConfig(("TIES",), weights=(limit / 4, limit / 4))
        for weights in [(1e300, 1.0), (limit, limit), (1e308, 1e308)]:
            with pytest.raises(ParameterError, match="weights must sum"):
                MergeConfig(("TIES",), weights=weights)

    def test_weights_must_be_numeric(self):
        with pytest.raises(ParameterError):
            MergeConfig(("TIES",), weights=("heavy", 1.0))
        with pytest.raises(ParameterError, match="^weights must be numbers, got 5$"):
            MergeConfig(("TIES",), weights=5)

    def test_weight_vector_count_check(self):
        config = MergeConfig(("TIES",), weights=(1.0, 2.0))
        with pytest.raises(ParameterError):
            config.weight_vector(3)

    def test_json_round_trip(self):
        doc = {
            "pipeline": ["DARE", "TIES"],
            "density": 0.5,
            "drop_rate": 0.5,
            "weights": [1, 1, 1, 1, 1],
            "seed": 42,
        }
        config = MergeConfig.from_json_dict(doc)
        assert config.to_json_dict() == {
            "pipeline": ["DARE", "TIES"],
            "density": 0.5,
            "drop_rate": 0.5,
            "weights": [1.0, 1.0, 1.0, 1.0, 1.0],
            "seed": 42,
        }

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ParameterError):
            MergeConfig.from_json_dict({"pipeline": ["TIES"], "dencity": 0.5})
        message = "unknown merge config keys: ['dencity', 'rng']"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            MergeConfig.from_json_dict({"rng": 1, "pipeline": ["TIES"], "dencity": 0.5})


class TestTrim:
    def test_magnitude_example(self):
        out = trim(_single([[3, -1, 0.5, 2]]), 0.5)
        assert out.layers["l"].values.tolist() == [[3.0, 0.0, 0.0, 2.0]]

    def test_density_one_is_identity(self):
        delta = _single([[0.1, -0.2, 0.3]])
        out = trim(delta, 1.0)
        assert deltas_bitwise_equal(out, delta)

    def test_tie_break_keeps_lower_flat_index(self):
        out = trim(_single([[1, -1, 1, -1]]), 0.5)
        assert out.layers["l"].values.tolist() == [[1.0, -1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("density", [0.0, -0.5, 1.2])
    def test_density_out_of_range(self, density):
        with pytest.raises(ParameterError):
            trim(_single([[1.0]]), density)

    def test_numpy_scalar_knobs_accepted(self):
        # trim and dare_prune take their range checks from MergeConfig, which
        # accepts any real number, numpy scalars included
        delta = _single([[3, -1, 0.5, 2]])
        assert deltas_bitwise_equal(trim(delta, np.float32(0.5)), trim(delta, 0.5))
        pruned = dare_prune(delta, np.float32(0.5), seed=1)
        assert deltas_bitwise_equal(pruned, dare_prune(delta, 0.5, seed=1))

    def test_count_uses_decimal_value_of_density(self):
        assert _trim_count(0.8, 5) == 4
        assert _trim_count(0.1, 30) == 3
        assert _trim_count(0.2, 15) == 3
        assert _trim_count(0.34, 50) == 17
        assert _trim_count(0.5, 5) == 3

    def test_cardinality_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            density = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            delta = _single([rng.standard_normal(n).tolist()])
            out = trim(delta, density).layers["l"].values
            keep = _trim_count(density, n)
            assert np.count_nonzero(out) <= keep
            # gaussian input has no exact zeros, so equality holds
            assert np.count_nonzero(out) == keep

    def test_cardinality_inequality_with_sparse_input(self):
        # only one nonzero but k = 3: bound holds without equality
        out = trim(_single([[0.0, 0.0, 5.0, 0.0]]), 0.75).layers["l"].values
        assert np.count_nonzero(out) == 1
        assert out[0, 2] == 5.0

    def test_kept_entries_unchanged(self):
        rng = np.random.default_rng(22)
        values = rng.standard_normal((4, 5)).astype(np.float32)
        out = trim(DeltaMap.from_arrays({"l": values}), 0.5).layers["l"].values
        mask = out != 0
        np.testing.assert_array_equal(out[mask], values[mask])

    def test_matches_stable_sort_reference_at_layer_shape(self):
        """The partition-based trim keeps exactly the entries a stable sort on
        -|v| keeps, bit for bit, including the sign of dropped and kept zeros."""
        rng = np.random.default_rng(24)
        shape = (1024, 1024)
        signed_zeros = rng.standard_normal(shape).astype(np.float32)
        signed_zeros[rng.random(shape) < 0.3] = -0.0
        signed_zeros[rng.random(shape) < 0.1] = 0.0
        inputs = {
            "gaussian": rng.standard_normal(shape).astype(np.float32),
            "low_rank": rng.standard_normal((1024, 16)).astype(np.float32)
            @ rng.standard_normal((16, 1024)).astype(np.float32),
            "integer_ties": rng.integers(-3, 4, size=shape).astype(np.float32),
            "signed_zeros": signed_zeros,
        }
        for kind, values in inputs.items():
            flat = values.ravel()
            order = np.argsort(-np.abs(flat), kind="stable")
            for density in (0.1, 0.5, 0.8, 0.999999, 1.0):
                mask = np.zeros(flat.size, dtype=bool)
                mask[order[: _trim_count(density, flat.size)]] = True
                expected = np.where(mask, flat, np.float32(0.0)).reshape(shape)
                out = _trim_values(values.copy(), _trim_count(density, flat.size))
                assert out.tobytes() == expected.tobytes(), (kind, density)
                assert out.shape == shape, (kind, density)

    @staticmethod
    def _where_trim(values, keep):
        """The trim as it was written with ``np.where``, kept as the reference
        for the bit-pattern zeroing."""
        flat = values.ravel()
        mag = np.abs(flat)
        kth = flat.size - keep
        threshold = np.partition(mag, kth)[kth]
        mask = mag > threshold
        ties = np.flatnonzero(mag == threshold)
        mask[ties[: keep - np.count_nonzero(mask)]] = True
        return np.where(mask, flat, np.float32(0.0)).reshape(values.shape), mask

    def test_bit_zeroing_equals_where_form(self):
        rng = np.random.default_rng(25)
        integers = rng.integers(-4, 5, size=(515, 300)).astype(np.float32)
        integers[::7] = -0.0
        inputs = {
            "rank16_1024": rng.standard_normal((1024, 16)).astype(np.float32)
            @ rng.standard_normal((16, 1024)).astype(np.float32),
            "integer_515x300": integers,
        }
        for kind, values in inputs.items():
            for density in (0.1, 0.5, 0.9):
                keep = _trim_count(density, values.size)
                expected, kept = self._where_trim(values, keep)
                arg = values.copy()
                out = _trim_values(arg, keep)
                assert out is arg, (kind, density)
                assert out.tobytes() == expected.tobytes(), (kind, density)
                dropped = out.ravel()[~kept]
                assert (dropped == 0).all(), (kind, density)
                assert not np.signbit(dropped).any(), (kind, density)
                # entries with the sign bit set (negatives, or -0.0) were dropped
                assert np.signbit(values.ravel()[~kept]).any(), (kind, density)

    @staticmethod
    def _trim_bases():
        """A whole adapter layer as the merge forms it, and a KnOTS task part
        from ``_concat_svd``."""
        rng = np.random.default_rng(26)
        deltas = [
            compute_delta(random_adapter(rng, rank=4, dims=[(48, 40)], label=label))
            for label in ("en", "de", "fr")
        ]
        blocks = [delta.layers["layer0"] for delta in deltas]
        whole = merging._whole(blocks[0], "en", "layer0", 0.0, 0)
        _, _, parts = merging._concat_svd("layer0", blocks)
        return {"whole_layer": whole, "knots_part": parts[1]}

    @staticmethod
    def _hard(base, kind):
        rng = np.random.default_rng(27)
        values = base.copy()
        flat = values.ravel()
        if kind == "signed_zeros":
            flat[rng.random(flat.size) < 0.3] = -0.0
            flat[rng.random(flat.size) < 0.1] = 0.0
        elif kind == "subnormals":
            tiny = np.finfo(np.float32).smallest_subnormal
            picked = rng.random(flat.size) < 0.6
            steps = rng.integers(-40, 41, size=int(picked.sum())).astype(np.float32)
            flat[picked] = steps * tiny
            assert (np.abs(flat[picked & (flat != 0)]) < np.finfo(np.float32).tiny).all()
        elif kind == "opposite_sign_ties":
            # a fifth of the entries take the median magnitude with either
            # sign, so the middle threshold falls inside that run of ties
            middle = np.float32(np.median(np.abs(flat)))
            picked = rng.random(flat.size) < 0.2
            flat[picked] = np.where(rng.random(int(picked.sum())) < 0.5, middle, -middle)
        else:  # one_magnitude
            flat[...] = np.where(rng.random(flat.size) < 0.5, 0.375, -0.375)
        return values

    @pytest.mark.parametrize("base", ["whole_layer", "knots_part"])
    @pytest.mark.parametrize(
        "kind", ["signed_zeros", "subnormals", "opposite_sign_ties", "one_magnitude"]
    )
    def test_magnitude_bits_key_matches_stable_sort_on_hard_inputs(self, base, kind):
        """The trim orders magnitudes by their bit patterns; it keeps the
        entries a stable sort on -|v| keeps, bit for bit."""
        values = self._hard(self._trim_bases()[base], kind)
        assert values.dtype == np.float32 and values.flags.c_contiguous
        flat = values.ravel()
        order = np.argsort(-np.abs(flat), kind="stable")
        for keep in (1, flat.size // 2, flat.size - 1):
            mask = np.zeros(flat.size, dtype=bool)
            mask[order[:keep]] = True
            expected = np.where(mask, flat, np.float32(0.0)).reshape(values.shape)
            out = _trim_values(values.copy(), keep)
            assert out.tobytes() == expected.tobytes(), (base, kind, keep)


class TestUnitWeights:
    """The election and disjoint mean skip the weight multiply at weight 1.0
    and zero the unmatched entries through their bits; the bytes are those of
    the plain kernels."""

    @staticmethod
    def _values():
        rng = np.random.default_rng(29)
        values = [rng.standard_normal(3000).astype(np.float32) for _ in range(3)]
        for m, v in enumerate(values):
            v[rng.random(v.size) < 0.3] = -0.0
            v[rng.random(v.size) < 0.1] = 0.0
            # entries 0 and 1 are zeros of either sign, which carry no sign;
            # entry 2 is negative or -0.0 in every model
            v[0] = (0.0, -0.0, 0.0)[m]
            v[1] = -0.0
            v[2] = (-1.0, -2.0, -0.0)[m]
        return values

    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 2.5, 1.0)], ids=["unit", "mixed"])
    def test_bytes_equal_plain_kernels(self, weights):
        values = self._values()
        w = np.array(weights)
        signs = _elect(values, w)
        assert signs.tobytes() == _plain_elect(values, w).tobytes()
        assert signs[2] == -1
        # a given sign map may elect a sign no model carries: +1 at entry 2
        forced = np.random.default_rng(30).integers(-1, 2, size=signs.size).astype(np.int8)
        forced[:3] = (1, -1, 1)
        for sign_map, unmatched in ((signs, [0, 1]), (forced, [0, 1, 2])):
            out = _disjoint(values, sign_map, w)
            assert out.tobytes() == _plain_disjoint(values, sign_map, w).tobytes()
            # an entry no model matches comes out +0.0, its sign bit clear
            assert (out[unmatched] == 0).all()
            assert not np.signbit(out[unmatched]).any()
            assert np.count_nonzero(out) > out.size // 4


class TestWholeOwnsLowRankLayer:
    @staticmethod
    def _block():
        rng = np.random.default_rng(41)
        return compute_delta(random_adapter(rng, rank=3, dims=[(20, 16)])).layers["layer0"]

    def test_whole_is_a_fresh_writable_copy_of_values(self):
        block = self._block()
        assert isinstance(block, LowRankBlock)
        first = merging._whole(block, "x", "layer0", 0.0, 0)
        second = merging._whole(block, "x", "layer0", 0.0, 0)
        assert first.dtype == np.float32 and first.shape == block.shape
        assert first.flags.writeable and first.flags.c_contiguous
        assert first.tobytes() == block.values.tobytes()
        assert not np.shares_memory(first, second)
        assert not block.values.flags.writeable
        before = block.values.tobytes()
        _trim_values(first, 5)
        assert np.count_nonzero(first) == 5
        assert block.values.tobytes() == before

    def test_ties_densifies_each_layer_once(self, monkeypatch):
        rng = np.random.default_rng(42)
        deltas = [
            compute_delta(random_adapter(rng, rank=2, dims=[(12, 10), (9, 14)], label=label))
            for label in ("en", "de", "fr")
        ]
        blocks = [b for d in deltas for b in d.layers.values()]
        assert all(isinstance(b, LowRankBlock) for b in blocks)
        calls = collections.Counter()
        dense = LowRankBlock._dense

        def spy(self):
            calls[id(self)] += 1
            return dense(self)

        monkeypatch.setattr(LowRankBlock, "_dense", spy)
        merge(deltas, MergeConfig(("TIES",), density=0.5))
        assert calls == {id(b): 1 for b in blocks}


class TestDare:
    def test_zero_drop_rate_is_bitwise_identity(self):
        rng = np.random.default_rng(23)
        delta = _single(rng.standard_normal((3, 4)).tolist())
        out = dare_prune(delta, 0.0, seed=99)
        assert deltas_bitwise_equal(out, delta)

    def test_same_seed_same_output(self):
        delta = _single([[1.0, 2.0, 3.0, 4.0]])
        a = dare_prune(delta, 0.5, seed=7)
        b = dare_prune(delta, 0.5, seed=7)
        assert deltas_bitwise_equal(a, b)

    def test_different_seeds_differ(self):
        delta = _single([np.arange(1, 257, dtype=np.float32).tolist()])
        a = dare_prune(delta, 0.5, seed=1)
        b = dare_prune(delta, 0.5, seed=2)
        assert not deltas_bitwise_equal(a, b)

    def test_streams_keyed_by_label(self):
        values = [np.arange(1, 257, dtype=np.float32).tolist()]
        a = dare_prune(_single(values, label="en"), 0.5, seed=1)
        b = dare_prune(_single(values, label="de"), 0.5, seed=1)
        assert not deltas_bitwise_equal(a, b)

    def test_survivors_rescaled(self):
        delta = _single([[1.0] * 64])
        out = dare_prune(delta, 0.75, seed=3).layers["l"].values
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 4.0, rtol=1e-6)

    def test_drop_fraction_matches_rate(self):
        delta = _single([[1.0] * 20000])
        out = dare_prune(delta, 0.3, seed=5).layers["l"].values
        dropped = 1.0 - np.count_nonzero(out) / out.size
        assert abs(dropped - 0.3) < 0.02

    def test_scalar_mean_is_unbiased(self):
        delta = _single([[1.0]])
        for p in (0.25, 0.5):
            samples = [
                float(dare_prune(delta, p, seed=s).layers["l"].values[0, 0])
                for s in range(2000)
            ]
            stderr = math.sqrt(p / (1 - p) / len(samples))
            assert abs(np.mean(samples) - 1.0) < 3 * stderr

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    @pytest.mark.parametrize("seed", ["x", -1, True], ids=["string", "negative", "bool"])
    def test_seed_checked_at_every_rate(self, rate, seed):
        message = f"^seed must be an unsigned 64-bit integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ParameterError, match=message):
            dare_prune(_single([[1.0]]), rate, seed=seed)

    @pytest.mark.parametrize("rate", [-0.01, 1.0, 1.5])
    def test_rate_out_of_range(self, rate):
        with pytest.raises(ParameterError):
            dare_prune(_single([[1.0]]), rate)


class TestElectSign:
    def test_majority_magnitude_wins(self):
        signs = elect_sign(_column_deltas([2.0, -1.0, -0.5]))
        assert signs["l"].tolist() == [[1]]

    def test_exact_cancellation_elects_zero(self):
        signs = elect_sign(_column_deltas([1.0, -1.0]))
        assert signs["l"].tolist() == [[0]]

    def test_weights_shift_the_vote(self):
        signs = elect_sign(_column_deltas([1.0, -3.0]), weights=(4.0, 1.0))
        assert signs["l"].tolist() == [[1]]

    def test_shape_mismatch_is_alignment_error(self):
        a = DeltaMap.from_arrays({"l": np.ones((1, 2), np.float32)})
        b = DeltaMap.from_arrays({"l": np.ones((2, 1), np.float32)})
        with pytest.raises(AlignmentError):
            elect_sign([a, b])

    def test_layer_names_mismatch_is_alignment_error(self):
        a = DeltaMap.from_arrays({"l": np.ones((1, 2), np.float32)})
        b = DeltaMap.from_arrays({"m": np.ones((1, 2), np.float32)})
        with pytest.raises(AlignmentError):
            elect_sign([a, b])

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (1.0,), (1.0, 1.0, 1.0)])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ParameterError):
            elect_sign(_column_deltas([1.0, 2.0]), weights=weights)


class TestDisjointMerge:
    def test_only_matching_signs_average(self):
        deltas = _column_deltas([2.0, -1.0, -0.5])
        out = disjoint_merge(deltas, elect_sign(deltas))
        assert out.layers["l"].values.tolist() == [[2.0]]

    def test_same_sign_mean(self):
        deltas = _column_deltas([2.0, 4.0])
        out = disjoint_merge(deltas, elect_sign(deltas))
        assert out.layers["l"].values.tolist() == [[3.0]]

    def test_all_zero_inputs_give_zero(self):
        deltas = _column_deltas([0.0, 0.0])
        out = disjoint_merge(deltas, elect_sign(deltas))
        assert out.layers["l"].values.tolist() == [[0.0]]

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (1.0,), (1.0, 1.0, 1.0)])
    def test_bad_weights_rejected(self, weights):
        deltas = _column_deltas([1.0, 2.0])
        with pytest.raises(ParameterError):
            disjoint_merge(deltas, elect_sign(deltas), weights=weights)

    @pytest.mark.parametrize("shape", [(2, 1), (1,), (1, 1, 1)])
    def test_sign_map_of_the_wrong_shape_rejected(self, shape):
        deltas = _column_deltas([1.0, 2.0])
        with pytest.raises(AlignmentError, match=r"layer 'l' shapes differ: sign map"):
            disjoint_merge(deltas, {"l": np.ones(shape, np.int8)})

    @pytest.mark.parametrize(
        "signs", [{"m": np.ones((1, 1), np.int8)}, {}], ids=["other-layer", "no-layer"]
    )
    def test_sign_map_for_other_layers_rejected(self, signs):
        deltas = _column_deltas([1.0, 2.0])
        with pytest.raises(AlignmentError, match="^sign map layers do not match the inputs$"):
            disjoint_merge(deltas, signs)

    def test_unmatched_entries_are_positive_zero(self):
        # every value has the opposite sign to, or is a zero of either sign
        # under, the elected sign; negative values times "no match" give -0.0
        values = [
            np.array([-2.0, 0.0, -0.0, 3.0, 2.0], np.float32),
            np.array([-1.0, -0.0, -5.0, 1.0, -2.0], np.float32),
        ]
        signs = np.array([1, -1, 1, -1, 0], dtype=np.int8)
        out = _disjoint(values, signs, np.array([1.5, 0.5]))
        assert out.tobytes() == np.zeros(5, np.float32).tobytes()

    def test_list_sign_map_is_converted(self):
        deltas = [
            DeltaMap.from_arrays({"w": np.array([[2.0, -1.0]], np.float32)}, label="a"),
            DeltaMap.from_arrays({"w": np.array([[-3.0, -2.0]], np.float32)}, label="b"),
        ]
        out = disjoint_merge(deltas, {"w": [[1, -1]]})
        expected = disjoint_merge(deltas, {"w": np.array([[1, -1]], np.int8)})
        assert out.layers["w"].values.tobytes() == expected.layers["w"].values.tobytes()
        assert out.layers["w"].values.tolist() == [[2.0, -1.5]]

    @pytest.mark.parametrize(
        "sign_map",
        [[[1, 0.5]], [[1, -7]], [[1, float("nan")]], [["1", "-1"]], [[1], [1, -1]]],
        ids=["half", "minus-seven", "nan", "strings", "ragged"],
    )
    def test_sign_map_entries_outside_minus_one_zero_one_rejected(self, sign_map):
        deltas = [
            DeltaMap.from_arrays({"w": np.array([[2.0, -1.0]], np.float32)}, label=label)
            for label in ("a", "b")
        ]
        with pytest.raises(ParameterError, match="sign map of layer 'w'"):
            disjoint_merge(deltas, {"w": sign_map})

    def test_elected_int8_map_gives_the_plain_kernel_bytes(self):
        rng = np.random.default_rng(39)
        deltas = random_delta_set(rng, 3)
        weights = (1.0, 2.5, 0.7)
        signs = elect_sign(deltas, weights)
        out = disjoint_merge(deltas, signs, weights)
        as_lists = disjoint_merge(deltas, {k: v.tolist() for k, v in signs.items()}, weights)
        for layer, sign in signs.items():
            assert sign.dtype == np.int8
            values = [d.layers[layer].values for d in deltas]
            expected = _plain_disjoint(values, sign, np.array(weights))
            assert out.layers[layer].values.tobytes() == expected.tobytes()
            assert as_lists.layers[layer].values.tobytes() == expected.tobytes()

    def test_sign_consistency_property(self):
        rng = np.random.default_rng(31)
        deltas = random_delta_set(rng, 4)
        signs = elect_sign(deltas)
        out = disjoint_merge(deltas, signs)
        for layer, block in out.layers.items():
            nonzero = block.values != 0
            assert np.array_equal(
                np.sign(block.values[nonzero]), signs[layer][nonzero].astype(np.float32)
            )

    def test_output_within_contributing_range(self):
        rng = np.random.default_rng(32)
        deltas = random_delta_set(rng, 3)
        signs = elect_sign(deltas)
        out = disjoint_merge(deltas, signs)
        stacked = np.stack([d.layers["layer0"].values for d in deltas])
        merged = out.layers["layer0"].values
        sign = signs["layer0"]
        matching = (np.sign(stacked) == sign) & (sign != 0)
        lo = np.where(matching, stacked, np.inf).min(axis=0)
        hi = np.where(matching, stacked, -np.inf).max(axis=0)
        picked = matching.any(axis=0)
        assert (merged[picked] >= lo[picked] - 1e-6).all()
        assert (merged[picked] <= hi[picked] + 1e-6).all()


def _float_disjoint(values, signs, weights):
    """The disjoint mean with a float64 denominator summed from the weights
    for every weight vector: the route of weights other than all 1."""
    numer = np.zeros(signs.shape, dtype=np.float64)
    denom = np.zeros(signs.shape, dtype=np.float64)
    unit = signs.astype(np.float32)
    for w, v in zip(weights, values):
        match = v * unit > 0
        carried = np.where(match, v, np.float32(0.0))
        numer += carried.astype(np.float64) * w
        denom += match * w
    denom[denom == 0] = 1.0
    return (numer / denom).astype(np.float32)


class TestDisjointCount:
    """With every weight 1, ``_disjoint`` divides by the count of matching
    models, kept in an integer array; it gives the float route's bytes."""

    @staticmethod
    def _values(rng, models, size=3000):
        values = rng.standard_normal((models, size)).astype(np.float32)
        values[:, ::7] = 0.0
        values[:, 3::11] = -0.0
        values[:, 5::13] = np.abs(values[:, 5::13]) + 0.5  # every model carries +
        return list(values)

    @pytest.mark.parametrize("models", [1, 3, 300])
    def test_count_route_equals_the_float_route(self, models):
        rng = np.random.default_rng(models)
        values = self._values(rng, models)
        weights = np.ones(models)
        signs = _elect(values, weights)
        got = _disjoint(values, signs, weights)
        assert got.tobytes() == _float_disjoint(values, signs, weights).tobytes()
        # every model matches there, so the count reaches ``models``: one
        # kept in a uint8 would wrap at 256
        total = np.zeros(got[5::13].shape)
        for v in values:
            total += v[5::13]
        assert got[5::13].tobytes() == (total / models).astype(np.float32).tobytes()

    def test_negative_zeros_and_unmatched_entries_give_positive_zero(self):
        values = [
            np.array([-0.0, -0.0, 2.0, -3.0], np.float32),
            np.array([-0.0, 1.0, 4.0, -1.0], np.float32),
        ]
        signs = np.array([1, -1, -1, 1], np.int8)  # no model matches any entry
        got = _disjoint(values, signs, np.ones(2))
        assert got.view(np.uint32).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("weights", [(1.0, 0.5, 2.0), (1.0, 1.0, 3.0), (0.25, 1.0, 1.0)])
    def test_weights_mixing_one_and_others_take_the_float_route(self, weights):
        rng = np.random.default_rng(17)
        values = self._values(rng, 3)
        weights = np.asarray(weights)
        signs = _elect(values, weights)
        got = _disjoint(values, signs, weights)
        assert got.tobytes() == _float_disjoint(values, signs, weights).tobytes()


class TestTiesMerge:
    def test_single_input_density_one_identity(self):
        rng = np.random.default_rng(33)
        (delta,) = random_delta_set(rng, 1)
        out = merge([delta], MergeConfig(("TIES",), density=1.0))
        assert deltas_bitwise_equal(out, delta)

    def test_duplicate_inputs_identity(self):
        rng = np.random.default_rng(34)
        (delta,) = random_delta_set(rng, 1)
        out = merge([delta, delta], MergeConfig(("TIES",), density=1.0))
        assert deltas_bitwise_equal(out, delta)

    def test_matches_reference_on_three_vectors(self):
        rng = np.random.default_rng(35)
        rows = [rng.standard_normal(4).astype(np.float32) for _ in range(3)]
        deltas = [DeltaMap.from_arrays({"l": r[None, :]}, label=f"m{i}") for i, r in enumerate(rows)]
        out = merge(deltas, MergeConfig(("TIES",), density=0.5))
        expected = ties_reference([r.tolist() for r in rows], [1.0, 1.0, 1.0], 0.5)
        np.testing.assert_allclose(out.layers["l"].values[0], expected, atol=1e-6)

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            count = int(rng.integers(2, 5))
            n = int(rng.integers(1, 17))
            rows = [rng.standard_normal(n).astype(np.float32) for _ in range(count)]
            weights = tuple(float(w) for w in rng.uniform(0.2, 3.0, count))
            density = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            deltas = [
                DeltaMap.from_arrays({"l": r[None, :]}, label=f"m{i}")
                for i, r in enumerate(rows)
            ]
            config = MergeConfig(("TIES",), density=density, weights=weights)
            out = merge(deltas, config).layers["l"].values[0]
            expected = ties_reference([r.tolist() for r in rows], list(weights), density)
            np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_homogeneity_power_of_two_is_bitwise(self):
        rng = np.random.default_rng(37)
        deltas = random_delta_set(rng, 3)
        config = MergeConfig(("TIES",), density=0.5)
        base = merge(deltas, config)
        for scale in (0.5, 2.0, 8.0):
            scaled_inputs = [
                DeltaMap.from_arrays(
                    {k: b.values * np.float32(scale) for k, b in d.layers.items()}, d.label
                )
                for d in deltas
            ]
            out = merge(scaled_inputs, config)
            for layer in base.layers:
                expected = base.layers[layer].values * np.float32(scale)
                assert out.layers[layer].values.tobytes() == expected.tobytes()

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(38)
        deltas = random_delta_set(rng, 3)
        a = merge(deltas, MergeConfig(("TIES",), density=0.5, weights=(1.0, 2.0, 3.0)))
        b = merge(deltas, MergeConfig(("TIES",), density=0.5, weights=(2.5, 5.0, 7.5)))
        for layer in a.layers:
            np.testing.assert_allclose(
                a.layers[layer].values, b.layers[layer].values, atol=1e-6
            )

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            merge([], MergeConfig(("TIES",)))


class TestMergeDispatch:
    def test_dare_ties_at_zero_drop_equals_ties_bitwise(self):
        rng = np.random.default_rng(39)
        for density in (1.0, 0.5):
            deltas = random_delta_set(rng, 3)
            ties = merge(deltas, MergeConfig(("TIES",), density=density))
            dare = merge(
                deltas, MergeConfig(("DARE", "TIES"), density=density, drop_rate=0.0, seed=5)
            )
            assert deltas_bitwise_equal(ties, dare)

    def test_output_label_is_config_summary(self):
        rng = np.random.default_rng(40)
        deltas = random_delta_set(rng, 2)
        config = MergeConfig(("DARE", "TIES"), density=0.5, seed=42)
        out = merge(deltas, config)
        assert out.label == config.summary()
        assert out.label == "DARE-TIES(density=0.5, drop_rate=0.5, seed=42)"

    def test_permuting_inputs_and_weights_is_stable(self):
        rng = np.random.default_rng(41)
        weights = (0.7, 1.3, 2.1)
        permutation = (2, 0, 1)
        for pipeline in (
            ("TIES",),
            ("DARE", "TIES"),
            ("KNOTS", "TIES"),
            ("DARE", "KNOTS", "TIES"),
        ):
            deltas = random_delta_set(rng, 3)
            config = MergeConfig(pipeline, density=0.5, weights=weights, seed=11)
            base = merge(deltas, config)
            shuffled = merge(
                [deltas[i] for i in permutation],
                MergeConfig(
                    pipeline,
                    density=0.5,
                    weights=tuple(weights[i] for i in permutation),
                    seed=11,
                ),
            )
            for layer in base.layers:
                np.testing.assert_allclose(
                    base.layers[layer].values,
                    shuffled.layers[layer].values,
                    atol=1e-6,
                )

    def test_knots_single_input_rejected(self):
        rng = np.random.default_rng(42)
        deltas = random_delta_set(rng, 1)
        with pytest.raises(ParameterError):
            merge(deltas, MergeConfig(("KNOTS", "TIES")))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ParameterError):
            merge([], MergeConfig(("TIES",)))

    def test_weight_count_mismatch_rejected(self):
        rng = np.random.default_rng(43)
        deltas = random_delta_set(rng, 3)
        with pytest.raises(ParameterError):
            merge(deltas, MergeConfig(("TIES",), weights=(1.0, 2.0)))

    def test_determinism_repeated_runs(self):
        rng = np.random.default_rng(44)
        deltas = random_delta_set(rng, 4)
        config = MergeConfig(("DARE", "KNOTS", "TIES"), density=0.5, seed=123)
        a = merge(deltas, config)
        b = merge(deltas, config)
        assert deltas_bitwise_equal(a, b)


class TestOnePath:
    """``merge``, ``lazy_merge`` and ``knots_merge`` run one per-layer
    pipeline, so they give the same bytes."""

    PIPELINES = [("TIES",), ("KNOTS", "TIES"), ("DARE", "TIES"), ("DARE", "KNOTS", "TIES")]

    @staticmethod
    def _input_sets():
        """Dense deltas, and adapter deltas that KnOTS factors without
        densifying (summed rank 6, below every layer's dimensions)."""
        rng = np.random.default_rng(48)
        labels = ("en", "de", "fr")
        shapes = {"layer0": (12, 10), "layer1": (9, 14)}
        dense = [random_delta(rng, shapes, label) for label in labels]
        dims = [(d_in, d_out) for d_out, d_in in shapes.values()]
        low_rank = [compute_delta(random_adapter(rng, dims=dims, label=label)) for label in labels]
        return {"dense": dense, "low-rank": low_rank}

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: "-".join(p).lower())
    def test_lazy_merge_writes_the_bytes_of_merge(self, tmp_path, pipeline):
        config = MergeConfig(pipeline, density=0.5, seed=7)
        for kind, deltas in self._input_sets().items():
            written = {}
            for name, merger in (("whole", merge), ("lazy", merging.lazy_merge)):
                delta_path = str(tmp_path / f"{kind}-{name}.delta")
                adapter_path = str(tmp_path / f"{kind}-{name}.adapter")
                save_delta(merger(deltas, config), delta_path)
                save_adapter(refactor_to_adapter(merger(deltas, config), 2), adapter_path)
                with open(delta_path, "rb") as fh, open(adapter_path, "rb") as gh:
                    written[name] = (fh.read(), gh.read())
            assert written["lazy"] == written["whole"], kind

    @pytest.mark.parametrize(
        "merger, pipeline", [(knots_merge, ("KNOTS", "TIES"))], ids=["knots_merge"]
    )
    def test_map_merges_are_merge_with_a_fixed_pipeline(self, merger, pipeline):
        for deltas in self._input_sets().values():
            # DARE in the config is not run: the map-level merge fixes the pipeline
            out = merger(deltas, MergeConfig(("DARE", *pipeline), density=0.5, seed=7))
            expected = merge(deltas, MergeConfig(pipeline, density=0.5, seed=7))
            assert out.label == "en+de+fr"
            assert deltas_bitwise_equal(out, expected)
            assert all(type(out.layers[k]) is type(expected.layers[k]) for k in out.layers)


class TestGoldenDigests:
    """Pins the output bytes of the TIES kernel on a seeded 3-model set."""

    TIES_SHA256 = "1d4a6855260d90115253511a449c0f35de29ad22ae1fdd40cf11a14c8cc09ccd"
    DARE_TIES_SHA256 = "77a5128a6bc1189abf551e34b1e5627e785ce603b075756d47368c9252c088f6"

    @staticmethod
    def _deltas():
        rng = np.random.default_rng(20240601)
        arrays = [rng.standard_normal((256, 256)).astype(np.float32) for _ in range(3)]
        # row 0: exact cancellation next to a -0.0; row 1: -0.0 in every model
        arrays[0][0, :16] = 2.0
        arrays[1][0, :16] = -2.0
        arrays[2][0, :16] = -0.0
        for a in arrays:
            a[1, :16] = -0.0
            a[2, ::7] = -0.0
        return [
            DeltaMap.from_arrays({"layers.0.q_proj": a}, label=label)
            for a, label in zip(arrays, ("en", "de", "fr"))
        ]

    @staticmethod
    def _check(out, digest):
        values = out.layers["layers.0.q_proj"].values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest
        # entries no model matches come out as +0.0, never -0.0
        assert values[1, :16].tobytes() == np.zeros(16, np.float32).tobytes()
        assert not np.signbit(values[values == 0]).any()

    def test_ties(self):
        out = merge(self._deltas(), MergeConfig(("TIES",), density=0.5))
        assert out.layers["layers.0.q_proj"].values[0, :16].tobytes() == bytes(64)
        self._check(out, self.TIES_SHA256)

    def test_dare_ties(self):
        config = MergeConfig(("DARE", "TIES"), density=1.0, drop_rate=0.5, seed=7)
        self._check(merge(self._deltas(), config), self.DARE_TIES_SHA256)


class TestFiniteAtTheExtremes:
    """A merged range is not checked for non-finite values: a weighted mean
    of finite float32 values is finite float32 while ``sum(weights) *
    FLT_MAX`` is finite, which MergeConfig enforces.  Every triple of extreme
    values, under extreme accepted weights, merges finite, with the same
    bytes by ``part`` and whole."""

    @pytest.mark.parametrize(
        "weights", [(5e-324, 1.0, 1e269), (2.6e269, 2.6e269, 1e-320)], ids=["spread", "near-limit"]
    )
    def test_every_triple_of_extremes(self, tmp_path, weights):
        top = np.finfo(np.float32).max
        pool = [top, np.nextafter(top, np.float32(0)), np.float32(1e-45)]
        pool = np.array([*pool, *(-v for v in pool), 0.0], dtype=np.float32)
        triples = np.array(np.meshgrid(pool, pool, pool, indexing="ij")).reshape(3, 7, 49)
        paths = []
        for label, values in zip(("en", "de", "fr"), triples):
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_delta(DeltaMap.from_arrays({"w": values}, label=label), paths[-1])
        config = MergeConfig(("TIES",), density=1.0, weights=weights)
        block = merging.lazy_merge([load_delta(path) for path in paths], config).layers["w"]
        by_part = np.concatenate([block.part(start, start + 49) for start in range(0, 343, 49)])
        assert np.isfinite(by_part).all() and np.abs(by_part).max() == top
        assert by_part.tobytes() == block.values.tobytes()


class TestChunkBoundaries:
    """DARE's drops and TIES's election and disjoint mean run over fixed-size
    chunks; a layer spanning several chunks with a ragged tail must give the
    bytes of the whole-array expressions, whether its inputs are held in
    memory or read a chunk at a time from delta files."""

    SHAPE = (515, 300)  # three chunks: one thread takes them all
    WIDE = (515, 800)  # seven chunks: helper threads start

    @classmethod
    def _deltas(cls, shape=SHAPE):
        rng = np.random.default_rng(515300)
        arrays = [rng.standard_normal(shape).astype(np.float32) for _ in range(3)]
        # integer-valued band: equal magnitudes for the trim, exact
        # cancellations for the election (2 - 2 + 0), and -0.0 inputs
        band = slice(200, 260)
        for a in arrays:
            a[band] = rng.integers(-2, 3, size=a[band].shape)
            a[::13] = -0.0
        arrays[0][-1, :40], arrays[1][-1, :40], arrays[2][-1, :40] = 2.0, -2.0, -0.0
        return [
            DeltaMap.from_arrays({"w": a}, label=label)
            for a, label in zip(arrays, ("en", "de", "fr"))
        ]

    @staticmethod
    def _reference(deltas, config):
        weights = config.weight_vector(len(deltas))
        values = [d.layers["w"].values for d in deltas]
        if "DARE" in config.pipeline:
            p = config.effective_drop_rate
            values = [
                np.where(
                    uniform_stream(config.seed, d.label, "w", v.size).reshape(v.shape) >= p,
                    v.astype(np.float64) * (1.0 / (1.0 - p)),
                    0.0,
                ).astype(np.float32)
                for d, v in zip(deltas, values)
            ]
        trimmed = [_trim_values(v.copy(), _trim_count(config.density, v.size)) for v in values]
        total = np.zeros(trimmed[0].shape)
        for w, v in zip(weights, trimmed):
            total += v.astype(np.float64) * w
        signs = np.sign(total).astype(np.int8)
        numer = np.zeros(signs.shape)
        denom = np.zeros(signs.shape)
        for w, v in zip(weights, trimmed):
            match = (np.sign(v) == signs) & (signs != 0)
            numer += v.astype(np.float64) * w * match
            denom += match * w
        out = np.zeros(signs.shape)
        np.divide(numer, denom, out=out, where=denom > 0)
        return out.astype(np.float32)

    def test_layer_spans_several_chunks_with_a_tail(self):
        size = math.prod(self.SHAPE)
        assert size > 2 * merging._CHUNK and size % merging._CHUNK
        wide = math.prod(self.WIDE)
        assert wide > 6 * merging._CHUNK and wide % merging._CHUNK

    @pytest.mark.parametrize("source", ["memory", "file"])
    @pytest.mark.parametrize(
        "pipeline, density, drop_rate, weights",
        [
            (("DARE", "TIES"), 1.0, 0.5, None),
            (("DARE", "TIES"), 0.5, None, None),
            (("TIES",), 0.5, None, None),
            (("TIES",), 0.5, None, (1.0, 2.5, 0.75)),
            (("DARE", "TIES"), 1.0, 0.3, (0.5, 3.0, 1.25)),
        ],
    )
    def test_bytes_equal_whole_array_reference(
        self, tmp_path, source, pipeline, density, drop_rate, weights
    ):
        config = MergeConfig(pipeline, density=density, drop_rate=drop_rate, weights=weights, seed=11)
        deltas = self._deltas()
        inputs = deltas
        if source == "file":
            # at density 1 each chunk is a ranged read of every file
            paths = [str(tmp_path / f"{d.label}.tnsr") for d in deltas]
            for delta, path in zip(deltas, paths):
                save_delta(delta, path)
            inputs = [load_delta(path) for path in paths]
        out = merge(inputs, config).layers["w"].values
        expected = self._reference(deltas, config)
        assert out.shape == self.SHAPE
        assert out.tobytes() == expected.tobytes()

    def test_dare_prune_bytes_equal_whole_array_reference(self):
        for delta in self._deltas():
            v = delta.layers["w"].values
            u = uniform_stream(3, delta.label, "w", v.size).reshape(v.shape)
            expected = np.where(u >= 0.5, v.astype(np.float64) * 2.0, 0.0).astype(np.float32)
            out = dare_prune(delta, 0.5, seed=3).layers["w"].values
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 1000, 65536, 65537, 131072, 154496])
    def test_stream_chunk_equals_slice_of_full_stream(self, start):
        full = uniform_stream(5, "en", "w", 154500)
        count = min(70000, full.size - start)
        part = uniform_stream(5, "en", "w", count, start)
        assert part.tobytes() == full[start : start + count].tobytes()

    @pytest.mark.parametrize("seed, start", [(True, 0), (5, False)], ids=["seed", "start"])
    def test_stream_rejects_boolean_seed_and_start(self, seed, start):
        with pytest.raises(ParameterError):
            uniform_stream(seed, "en", "w", 8, start)

    def test_stream_rejects_negative_start(self):
        with pytest.raises(ParameterError):
            uniform_stream(5, "en", "w", 8, -4)

    @pytest.mark.parametrize("count", [-3, 2.0, True], ids=["negative", "float", "bool"])
    def test_stream_rejects_count_that_is_not_a_non_negative_integer(self, count):
        message = f"^stream count must be a non-negative integer, got {re.escape(repr(count))}$"
        with pytest.raises(ParameterError, match=message):
            uniform_stream(5, "en", "w", count)


@pytest.mark.parametrize(
    "pipeline",
    [("TIES",), ("DARE", "TIES"), ("DARE", "KNOTS", "TIES")],
    ids=["ties", "dare-ties", "dare-knots-ties"],
)
def test_pruned_file_layer_is_filled_from_ranged_reads(tmp_path, monkeypatch, pipeline):
    """Where the trim or KnOTS takes a model's whole layer, DARE-pruned or
    not, a delta file's layer is still filled from ranged reads, never read
    whole first, and gives the bytes of the in-memory merge."""
    deltas = TestChunkBoundaries._deltas()
    config = MergeConfig(pipeline, density=0.5, seed=11)
    expected = merge(deltas, config)
    paths = [str(tmp_path / f"{d.label}.tnsr") for d in deltas]
    for delta, path in zip(deltas, paths):
        save_delta(delta, path)

    def whole_read(self, name):
        raise AssertionError(f"whole read of {name!r}")

    monkeypatch.setattr(container.TensorFile, "read", whole_read)
    out = merge([load_delta(path) for path in paths], config)
    assert deltas_bitwise_equal(out, expected)


@pytest.mark.parametrize("source", ["arrays", "pending"])
@pytest.mark.parametrize(
    "pipeline",
    [("TIES",), ("DARE", "TIES"), ("KNOTS", "TIES")],
    ids=["ties", "dare-ties", "knots-ties"],
)
def test_merge_never_writes_its_inputs(source, pipeline):
    """The trim zeroes in place only the layers the merge formed itself: the
    models' own arrays, held by a TensorBlock or returned writable by a
    pending block's ``make``, keep their bytes."""
    rng = np.random.default_rng(4411)
    arrays = [rng.standard_normal(TestChunkBoundaries.SHAPE).astype(np.float32) for _ in range(3)]
    before = [a.tobytes() for a in arrays]
    labels = ("en", "de", "fr")
    if source == "arrays":
        deltas = [DeltaMap.from_arrays({"w": a}, label=l) for a, l in zip(arrays, labels)]
    else:
        deltas = [
            DeltaMap({"w": PendingBlock("w", a.shape, lambda a=a: a)}, label=l)
            for a, l in zip(arrays, labels)
        ]
        assert all(a.flags.writeable for a in arrays)
    merge(deltas, MergeConfig(pipeline, density=0.5, seed=11))
    assert [a.tobytes() for a in arrays] == before


class TestWorkerCounts:
    """The chunked steps run on every allowed core; the bytes must not depend
    on how many threads take the chunks, nor on which thread takes which."""

    WORKERS = (1, 2, 3, 8)

    @staticmethod
    def _deltas():
        assert 129 * 4096 > 8 * merging._CHUNK
        rng = np.random.default_rng(1294096)
        deltas = []
        wide = TestChunkBoundaries._deltas(TestChunkBoundaries.WIDE)
        for delta, wide_delta in zip(TestChunkBoundaries._deltas(), wide):
            # 129 x 4096: eight full chunks and a tail, also as KnOTS
            # components (k = 129 on the dense route)
            big = rng.standard_normal((129, 4096)).astype(np.float32)
            big[::5, ::3] = -0.0
            arrays = {
                "w": delta.layers["w"].values,
                "wide": wide_delta.layers["w"].values,
                "big": big,
            }
            deltas.append(DeltaMap.from_arrays(arrays, label=delta.label))
        return deltas

    @pytest.mark.parametrize(
        "pipeline, density",
        [
            (("TIES",), 0.5),
            (("DARE", "TIES"), 1.0),
            (("DARE", "TIES"), 0.5),
            (("KNOTS", "TIES"), 0.5),
            (("DARE", "KNOTS", "TIES"), 0.5),
        ],
        ids=["ties", "dare-ties", "dare-ties-trim", "knots-ties", "dare-knots-ties"],
    )
    def test_merge_bytes(self, monkeypatch, fast_switching, pipeline, density):
        deltas = self._deltas()
        config = MergeConfig(pipeline, density=density, seed=13)
        outputs = []
        for workers in self.WORKERS:
            monkeypatch.setattr(container, "_WORKERS", workers)
            started = threads_started(monkeypatch)
            out = merge(deltas, config)
            outputs.append({name: b.values.tobytes() for name, b in out.layers.items()})
            assert bool(started) == (workers > 1)
        assert all(out == outputs[0] for out in outputs)

    def test_dare_prune_bytes(self, monkeypatch, fast_switching):
        for delta in self._deltas():
            outputs = []
            for workers in self.WORKERS:
                monkeypatch.setattr(container, "_WORKERS", workers)
                started = threads_started(monkeypatch)
                out = dare_prune(delta, 0.3, seed=17)
                outputs.append({name: b.values.tobytes() for name, b in out.layers.items()})
                assert bool(started) == (workers > 1)
            assert all(out == outputs[0] for out in outputs)

    def test_every_chunk_runs_once_over_several_threads(self, monkeypatch, fast_switching):
        monkeypatch.setattr(container, "_WORKERS", 8)
        size = 40 * merging._CHUNK + 3
        before = threading.active_count()
        starts, threads = [], set()

        def step(start):
            time.sleep(0.001)
            starts.append(start)
            threads.add(threading.get_ident())

        merging._for_chunks(step, size)
        assert sorted(starts) == list(range(0, size, merging._CHUNK))
        assert len(threads) > 1
        assert threading.active_count() == before

    def test_overflow_on_a_helper_thread_is_a_data_error(self, monkeypatch, fast_switching):
        # numpy's error state does not carry over to new threads: a step must
        # silence the overflowing cast itself, on whichever thread it runs
        monkeypatch.setattr(container, "_WORKERS", 3)
        big = DeltaMap.from_arrays({"w": np.full((8, merging._CHUNK), 3e38, np.float32)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite"):
                dare_prune(big, 0.9, seed=1)

    def test_helper_that_cannot_start_is_done_without(self, monkeypatch):
        # under a process or thread limit Thread.start raises RuntimeError;
        # the threads already running take the remaining chunks
        deltas = self._deltas()
        config = MergeConfig(("DARE", "TIES"), density=0.5, seed=13)
        monkeypatch.setattr(container, "_WORKERS", 1)
        expected = {n: b.values.tobytes() for n, b in merge(deltas, config).layers.items()}
        monkeypatch.setattr(container, "_WORKERS", 3)
        before = threading.active_count()
        started = threads_started(monkeypatch)
        error = RuntimeError("can't start new thread")
        monkeypatch.setattr(
            threading.Thread, "start", failing_on_call(threading.Thread.start, 2, error)
        )
        out = merge(deltas, config)
        assert {n: b.values.tobytes() for n, b in out.layers.items()} == expected
        assert threading.active_count() == before
        # the second start of all fails, and the others start helpers
        assert started

    @pytest.mark.parametrize("chunks, helpers", [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (7, 2)])
    def test_a_thread_for_every_two_chunks(self, monkeypatch, chunks, helpers):
        monkeypatch.setattr(container, "_WORKERS", 8)
        started = threads_started(monkeypatch)
        merging._for_chunks(lambda start: None, (chunks - 1) * merging._CHUNK + 1)
        assert len(started) == helpers

    def test_one_chunk_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(container, "_WORKERS", 8)
        threads = []
        merging._for_chunks(lambda start: threads.append(threading.get_ident()), merging._CHUNK)
        assert threads == [threading.get_ident()]


class _Injected(Exception):
    pass


class TestStepErrors:
    """An exception in a chunk step, on any thread, reaches the caller of
    ``merge``; every helper thread is joined and nothing is printed."""

    @staticmethod
    def _merge_fails(monkeypatch, capfd, target, shape):
        """Merge layers of ``shape`` on up to three threads with the second
        call of ``target`` failing; the threads that were started."""
        monkeypatch.setattr(container, "_WORKERS", 3)
        # the second call is one chunk past the first
        failing = failing_on_call(getattr(merging, target), 2, _Injected(target))
        monkeypatch.setattr(merging, target, failing)
        before = threading.active_count()
        started = threads_started(monkeypatch)
        config = MergeConfig(("DARE", "TIES"), density=0.5, seed=5)
        with pytest.raises(_Injected, match=target):
            merge(TestChunkBoundaries._deltas(shape), config)
        assert threading.active_count() == before
        assert capfd.readouterr() == ("", "")
        return started

    @pytest.mark.parametrize("target", ["_disjoint", "uniform_stream"])
    def test_merge_reraises_the_step_error(self, monkeypatch, capfd, target):
        self._merge_fails(monkeypatch, capfd, target, TestChunkBoundaries.SHAPE)

    @pytest.mark.parametrize("target", ["_disjoint", "uniform_stream"])
    def test_merge_reraises_the_step_error_with_helpers_running(self, monkeypatch, capfd, target):
        assert self._merge_fails(monkeypatch, capfd, target, TestChunkBoundaries.WIDE)

    def test_first_error_stops_the_other_workers(self, monkeypatch):
        monkeypatch.setattr(container, "_WORKERS", 3)
        size = 200 * merging._CHUNK
        before = threading.active_count()
        ran = []

        def step(start):
            if start == merging._CHUNK:
                raise _Injected(start)
            time.sleep(0.001)
            ran.append(start)

        with pytest.raises(_Injected):
            merging._for_chunks(step, size)
        assert len(ran) < size // merging._CHUNK // 2
        assert threading.active_count() == before

    def test_error_of_the_lowest_failing_chunk_is_raised(self, monkeypatch):
        """The chunk at ``2 * _CHUNK`` fails at once, the one at ``_CHUNK``
        after a sleep, on another thread: every chunk below a failing one
        has run when the error is raised, so it is the ``_CHUNK`` error on
        every run."""
        monkeypatch.setattr(container, "_WORKERS", 2)

        def step(start):
            if start == merging._CHUNK:
                time.sleep(0.02)
                raise _Injected(start)
            if start == 2 * merging._CHUNK:
                raise _Injected(start)

        for _ in range(20):
            with pytest.raises(_Injected) as info:
                merging._for_chunks(step, 4 * merging._CHUNK)
            assert info.value.args == (merging._CHUNK,)


def test_ties_peak_memory_trims_one_dense_layer_at_a_time():
    """A TIES merge of low-rank layers densifies and trims one model at a
    time, so it holds the trimmed copies, one dense layer and the trim's
    temporaries, not every model's dense layer besides."""
    rng = np.random.default_rng(98)
    shapes = {"a": (1024, 768), "b": (768, 1024), "c": (512, 768)}
    deltas = [
        DeltaMap(
            {
                name: LowRankBlock(
                    name,
                    rng.standard_normal((shape[0], 8)).astype(np.float32),
                    rng.standard_normal((8, shape[1])).astype(np.float32),
                    0.5,
                )
                for name, shape in shapes.items()
            },
            label,
        )
        for label in ("en", "de", "fr", "es", "it")
    ]
    layer_bytes = [4 * math.prod(shape) for shape in shapes.values()]
    # M trimmed copies, one dense layer, and the trim's magnitude key and
    # partition copies (or the densify's float64 product), plus the output
    bound = (len(deltas) + 3) * max(layer_bytes) + sum(layer_bytes)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        merged = merge(deltas, MergeConfig(("TIES",), density=0.5))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sorted(merged.layers) == sorted(shapes)
    assert peak < bound, (peak, bound)


def test_dare_ties_peak_memory_is_about_one_layer_per_model():
    """Besides its inputs, a DARE+TIES merge at density 1 holds the output
    and chunk-sized temporaries: each chunk step prunes its chunk of every
    model, so no pruned layer is held.  The bound also allows the one pruned
    layer per model that a trimmed merge holds."""
    rng = np.random.default_rng(99)
    shapes = {"a": (1024, 768), "b": (768, 1024), "c": (512, 768), "d": (1024, 640)}
    deltas = [
        DeltaMap.from_arrays(
            {name: rng.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()},
            label=label,
        )
        for label in ("en", "de", "fr")
    ]
    layer_bytes = [4 * math.prod(shape) for shape in shapes.values()]
    bound = (len(deltas) + 2) * max(layer_bytes) + sum(layer_bytes)
    config = MergeConfig(("DARE", "TIES"), density=1.0, drop_rate=0.5, seed=4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        merged = merge(deltas, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sorted(merged.layers) == sorted(shapes)
    assert peak < bound, (peak, bound)
