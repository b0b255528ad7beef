import math
import tracemalloc

import numpy as np
import pytest

from loramerge import (
    DeltaMap,
    LowRankBlock,
    MergeConfig,
    ParameterError,
    TensorBlock,
    compute_delta,
    knots_merge,
    knots_transform,
    refactor_to_adapter,
)
from loramerge.adapters import concat_svd
from loramerge.merging import _disjoint, _elect, _trim_count, _trim_values, lazy_merge
from conftest import random_adapter, random_delta_set


def _concat(deltas, layer):
    return np.hstack([d.layers[layer].values.astype(np.float64) for d in deltas])


class TestTransform:
    def test_needs_two_inputs(self):
        rng = np.random.default_rng(50)
        with pytest.raises(ParameterError):
            knots_transform(random_delta_set(rng, 1))

    def test_reconstruction(self):
        rng = np.random.default_rng(51)
        deltas = random_delta_set(rng, 3, layers=1, max_dim=6)
        shapes = {k: b.shape for k, b in deltas[0].layers.items()}
        factors = knots_transform(deltas)
        for layer, (d_out, d_in) in shapes.items():
            u, _, parts = factors[layer]
            k = min(d_out, 3 * d_in)
            assert u.shape == (d_out, k)
            assert len(parts) == 3
            assert all(p.shape == (k, d_in) for p in parts)
            recon = u.astype(np.float64) @ np.hstack(parts, dtype=np.float64)
            assert np.abs(recon - _concat(deltas, layer)).max() < 1e-5

    def test_left_basis_orthonormal(self):
        rng = np.random.default_rng(52)
        deltas = random_delta_set(rng, 2, layers=2, max_dim=8)
        for u, _, _ in knots_transform(deltas).values():
            u = u.astype(np.float64)
            gram = u.T @ u
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-5

    def test_singular_values_descending(self):
        rng = np.random.default_rng(53)
        deltas = random_delta_set(rng, 3, layers=1, max_dim=8)
        for _, s, _ in knots_transform(deltas).values():
            assert (np.diff(s) <= 1e-12).all()

    def test_identical_inputs_share_components(self):
        rng = np.random.default_rng(54)
        (delta,) = random_delta_set(rng, 1, layers=1, max_dim=6)
        factors = knots_transform([delta, delta])
        for _, _, (a, b) in factors.values():
            assert np.abs(a - b).max() < 1e-5


class TestKnotsMerge:
    def test_identical_inputs_full_density_returns_input(self):
        rng = np.random.default_rng(55)
        (delta,) = random_delta_set(rng, 1, layers=2, max_dim=8)
        config = MergeConfig(("KNOTS", "TIES"), density=1.0)
        for count in (2, 3, 5):
            out = knots_merge([delta] * count, config)
            for layer in delta.layers:
                err = np.abs(out.layers[layer].values - delta.layers[layer].values).max()
                assert err < 1e-4

    def test_output_shape_matches_input_layers(self):
        rng = np.random.default_rng(56)
        deltas = random_delta_set(rng, 3, layers=3, max_dim=7)
        out = knots_merge(deltas, MergeConfig(("KNOTS", "TIES"), density=0.5))
        for layer, block in deltas[0].layers.items():
            assert out.layers[layer].shape == block.shape

    def test_matches_step_by_step_composition(self):
        rng = np.random.default_rng(57)
        deltas = random_delta_set(rng, 3, layers=1, max_dim=4, labels=["a", "b", "c"])
        shapes = {k: b.shape for k, b in deltas[0].layers.items()}
        weights = (1.0, 2.0, 0.5)
        config = MergeConfig(("KNOTS", "TIES"), density=0.5, weights=weights)
        out = knots_merge(deltas, config)
        factors = knots_transform(deltas)
        w = np.asarray(weights, dtype=np.float64)
        for layer in shapes:
            u, _, parts = factors[layer]
            trimmed = [_trim_values(p.copy(), _trim_count(0.5, p.size)) for p in parts]
            signs = _elect(trimmed, w)
            merged = _disjoint(trimmed, signs, w)
            expected = (u.astype(np.float64) @ merged.astype(np.float64)).astype(np.float32)
            np.testing.assert_array_equal(out.layers[layer].values, expected)

    def test_requires_knots_pipeline(self):
        rng = np.random.default_rng(58)
        deltas = random_delta_set(rng, 2)
        with pytest.raises(ParameterError):
            knots_merge(deltas, MergeConfig(("TIES",)))

    def test_4x3_layers_against_composition(self):
        rng = np.random.default_rng(59)
        arrays = [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(3)]
        deltas = [DeltaMap.from_arrays({"l": a}, label=f"m{i}") for i, a in enumerate(arrays)]
        config = MergeConfig(("KNOTS", "TIES"), density=0.5)
        out = knots_merge(deltas, config).layers["l"].values

        concat = np.hstack([a.astype(np.float64) for a in arrays])
        u, s, vt = np.linalg.svd(concat, full_matrices=False)
        parts = [p.astype(np.float32) for p in np.hsplit(s[:, None] * vt, 3)]
        trimmed = [_trim_values(p.copy(), _trim_count(0.5, p.size)) for p in parts]
        signs = _elect(trimmed, np.ones(3))
        merged = _disjoint(trimmed, signs, np.ones(3))
        expected = (u.astype(np.float32).astype(np.float64) @ merged.astype(np.float64)).astype(
            np.float32
        )
        np.testing.assert_allclose(out, expected, atol=1e-6)


@pytest.fixture(scope="module")
def factored_set():
    """5 rank-16 adapters with one 512 x 512 layer, lazy and densified."""
    rng = np.random.default_rng(60)
    adapters = [random_adapter(rng, rank=16, label=f"m{m}", dims=[(512, 512)]) for m in range(5)]
    lazy = [compute_delta(a) for a in adapters]
    dense = [DeltaMap.from_arrays({"layer0": d.layers["layer0"].values}, d.label) for d in lazy]
    return adapters, lazy, dense


def _relative(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestFactoredRoute:
    def test_lazy_values_match_the_dense_product_bytes(self, factored_set):
        adapters, lazy, _ = factored_set
        for adapter, delta in zip(adapters, lazy):
            a, b = adapter.layers["layer0"]
            block = delta.layers["layer0"]
            assert isinstance(block, LowRankBlock) and block.rank == 16
            scale = adapter.alpha / adapter.rank
            product = b.values.astype(np.float64) @ a.values.astype(np.float64)
            expected = (scale * product).astype(np.float32)
            assert block.values.tobytes() == expected.tobytes()
            assert not block.values.flags.writeable

    def test_basis_is_orthonormal_with_summed_rank_and_reconstructs(self, factored_set):
        _, lazy, _ = factored_set
        u, _, parts = knots_transform(lazy)["layer0"]
        assert u.shape == (512, 5 * 16)
        assert all(p.shape == (5 * 16, 512) for p in parts)
        u = u.astype(np.float64)
        assert np.abs(u.T @ u - np.eye(80)).max() < 1e-5
        recon = u @ np.hstack(parts, dtype=np.float64)
        assert _relative(recon, _concat(lazy, "layer0")) < 1e-6

    @pytest.mark.parametrize("density", [1.0, 0.5, 0.05, 0.01])
    def test_matches_the_dense_route(self, factored_set, density):
        _, lazy, dense = factored_set
        config = MergeConfig(("KNOTS", "TIES"), density=density)
        factored = knots_merge(lazy, config).layers["layer0"]
        assert isinstance(factored, LowRankBlock) and factored.rank == 80
        reference = knots_merge(dense, config).layers["layer0"]
        assert isinstance(reference, TensorBlock)
        assert _relative(factored.values, reference.values) <= 1e-6

    def test_low_density_trims_the_factored_components(self, factored_set):
        _, lazy, _ = factored_set
        # density 0.05 of the dense 512 x 512 components keeps fewer entries
        # than the 80 x 512 factored ones hold
        keep = math.ceil(0.05 * 512 * 512)
        assert keep < 80 * 512
        _, _, parts = knots_transform(lazy)["layer0"]
        trimmed = _trim_values(parts[0].copy(), keep)
        assert np.count_nonzero(trimmed) == keep

    def test_refactor_reaches_the_eckart_young_optimum(self, factored_set):
        _, lazy, _ = factored_set
        merged = knots_merge(lazy, MergeConfig(("KNOTS", "TIES"), density=0.5))
        block = merged.layers["layer0"]
        exact = block.left.astype(np.float64) @ block.right.astype(np.float64)
        sigma = np.linalg.svd(exact, compute_uv=False)
        for rank in (1, 16, 40):
            adapter = refactor_to_adapter(merged, rank)
            a, b = adapter.layers["layer0"]
            rebuilt = b.values.astype(np.float64) @ a.values.astype(np.float64)
            error = np.linalg.norm(rebuilt - exact)
            assert error <= np.sqrt(np.sum(sigma[rank:] ** 2)) * (1 + 1e-6)

    def test_svd_lets_each_operand_go_once_used(self):
        """At 5 rank-16 1024 x 1024 blocks the traced peak of the factored
        SVD stays below 2.35 times its Sum(r) x M*d_in float64 operand
        (2.23 on numpy 2.4).  Holding any one of the stacked left factors,
        the block-diagonal right factor or the SVD's operand to the end puts
        it at 2.43 times or more, and holding all three near 3.4 times."""
        rng = np.random.default_rng(64)
        count, rank, size = 5, 16, 1024
        blocks = [
            LowRankBlock("l", rng.standard_normal((size, rank)), rng.standard_normal((rank, size)))
            for _ in range(count)
        ]
        concat_svd("l", blocks)  # warms up numpy and LAPACK
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            concat_svd("l", blocks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        operand = (count * rank) * (count * size) * 8
        assert peak < 2.35 * operand, peak / operand


class TestFactoredRoutesFormNoLayer:
    """``LowRankBlock._dense`` is where a low-rank layer is formed; count its
    calls while every factor of a refactored adapter is read."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        dense = LowRankBlock._dense

        def spy(self):
            calls.append(self.name)
            return dense(self)

        monkeypatch.setattr(LowRankBlock, "_dense", spy)
        return calls

    @staticmethod
    def _read_factors(adapter):
        for a, b in adapter.layers.values():
            a.values, b.values

    @staticmethod
    def _deltas():
        rng = np.random.default_rng(91)
        return [
            compute_delta(random_adapter(rng, rank=2, dims=[(16, 20), (24, 18)], label=label))
            for label in ("en", "de", "fr")
        ]

    def test_knots_merge_then_refactor(self, monkeypatch):
        deltas = self._deltas()
        calls = self._spy(monkeypatch)
        merged = lazy_merge(deltas, MergeConfig(("KNOTS", "TIES"), density=0.5))
        self._read_factors(refactor_to_adapter(merged, 4))
        assert calls == []
        # the refactor took the merged layers factored, not formed
        assert all(isinstance(b.make(), LowRankBlock) for b in merged.layers.values())

    @pytest.mark.parametrize("rank", [1, 2])
    def test_refactor_at_or_below_the_adapter_rank(self, monkeypatch, rank):
        delta = self._deltas()[0]
        calls = self._spy(monkeypatch)
        self._read_factors(refactor_to_adapter(delta, rank))
        assert calls == []

    def test_refactor_above_the_adapter_rank_forms_each_layer_once(self, monkeypatch):
        delta = self._deltas()[0]
        calls = self._spy(monkeypatch)
        self._read_factors(refactor_to_adapter(delta, 3))
        assert sorted(calls) == ["layer0", "layer1"]


class TestDenseRoute:
    def test_bytes_match_the_concatenate_then_svd_composition(self):
        rng = np.random.default_rng(61)
        arrays = [rng.standard_normal((96, 40)).astype(np.float32) for _ in range(3)]
        deltas = [DeltaMap.from_arrays({"l": x}, f"m{i}") for i, x in enumerate(arrays)]
        weights = (1.0, 2.0, 0.5)
        for density in (1.0, 0.3):
            config = MergeConfig(("KNOTS", "TIES"), density=density, weights=weights)
            out = knots_merge(deltas, config).layers["l"]
            assert isinstance(out, TensorBlock)

            concat = np.hstack([x.astype(np.float64) for x in arrays])
            u, s, vt = np.linalg.svd(concat, full_matrices=False)
            parts = [p.astype(np.float32) for p in np.hsplit(s[:, None] * vt, 3)]
            w = np.asarray(weights)
            trimmed = [_trim_values(p.copy(), _trim_count(density, p.size)) for p in parts]
            merged = _disjoint(trimmed, _elect(trimmed, w), w)
            expected = (
                u.astype(np.float32).astype(np.float64) @ merged.astype(np.float64)
            ).astype(np.float32)
            assert out.values.tobytes() == expected.tobytes()

    def test_mixed_inputs_take_the_dense_route(self, factored_set):
        _, lazy, dense = factored_set
        u, _, _ = knots_transform([lazy[0], dense[1]])["layer0"]
        assert u.shape == (512, 512)
