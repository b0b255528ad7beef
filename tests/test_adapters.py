import re
from pathlib import Path

import numpy as np
import pytest

from loramerge import (
    DataError,
    DeltaMap,
    FormatError,
    LoraAdapter,
    LowRankBlock,
    NumericalError,
    PairingError,
    ParameterError,
    TensorBlock,
    ValidationError,
    compute_delta,
    load_adapter,
    load_as_delta,
    load_delta,
    refactor_to_adapter,
    save_adapter,
    save_delta,
    write_tensors,
)
from loramerge import container, merging
from conftest import adapters_equal, deltas_bitwise_equal, random_adapter, random_delta


def _adapter_1layer(a, b, rank, alpha, label="en"):
    return LoraAdapter(
        {"layer0": (TensorBlock("layer0.lora_A", a), TensorBlock("layer0.lora_B", b))},
        rank,
        alpha,
        label,
    )


class TestTensorBlock:
    def test_coerces_to_float32_c_order(self):
        block = TensorBlock("t", np.arange(4, dtype=np.float64).reshape(2, 2).T)
        assert block.values.dtype == np.float32
        assert block.values.flags.c_contiguous
        assert not block.values.flags.writeable

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            TensorBlock("t", np.array([1.0, np.nan]))

    def test_takes_a_float32_c_order_array_as_is_and_freezes_it(self):
        # no copy, so a map of caller arrays holds no second copy of them
        a = np.ones((3, 4), dtype=np.float32)
        delta = DeltaMap.from_arrays({"w": a})
        assert delta.layers["w"].values is a
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            a[0, 0] = 2.0

    def test_any_other_array_is_copied_and_left_writable(self):
        for a in (np.ones((3, 4)), np.ones((4, 3), dtype=np.float32).T):
            block = TensorBlock("w", a)
            assert block.values is not a and a.flags.writeable

    def test_rejects_scalar_and_zero_dims(self):
        with pytest.raises(ValidationError):
            TensorBlock("t", np.float32(1.0))
        with pytest.raises(ValidationError):
            TensorBlock("t", np.zeros((0, 2), dtype=np.float32))

    def test_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            TensorBlock("", np.zeros((1,), dtype=np.float32))


class TestLowRankBlock:
    def test_shape_without_forming_the_product(self):
        block = LowRankBlock("l", np.ones((5, 2)), np.ones((2, 3)), 0.5)
        assert (block.shape, block.size, block.rank) == ((5, 3), 15, 2)
        assert not block.left.flags.writeable and block.right.dtype == np.float32
        assert block.values.tolist() == [[1.0] * 3] * 5
        assert block.values is not block.values
        assert not block.values.flags.writeable

    def test_takes_float32_c_order_factors_as_is_and_freezes_them(self):
        left, right = np.ones((5, 2), dtype=np.float32), np.ones((2, 3), dtype=np.float32)
        block = LowRankBlock("l", left, right)
        assert block.left is left and block.right is right
        assert not left.flags.writeable and not right.flags.writeable

    def test_rejects_factors_that_do_not_chain(self):
        with pytest.raises(ValidationError):
            LowRankBlock("l", np.ones((5, 2)), np.ones((3, 3)))
        with pytest.raises(ValidationError):
            LowRankBlock("l", np.ones((5, 2, 1)), np.ones((2, 3)))
        with pytest.raises(ValidationError):
            LowRankBlock("", np.ones((5, 2)), np.ones((2, 3)))

    def test_overflowing_product_rejected_at_construction(self):
        with pytest.raises(DataError, match="tensor 'l'"):
            LowRankBlock("l", np.full((3, 1), 2e19), np.full((1, 3), 1e19), 2.0)

    @pytest.mark.parametrize(
        "scale", ["2", True, float("nan"), float("inf"), -float("inf")],
        ids=["string", "bool", "nan", "inf", "-inf"],
    )
    def test_scale_that_is_not_a_finite_number_rejected(self, scale):
        message = f"^tensor 'l': scale must be finite, got {re.escape(repr(scale))}$"
        with pytest.raises(ValidationError, match=message):
            LowRankBlock("l", np.ones((3, 1)), np.ones((1, 3)), scale)

    def test_large_factors_with_a_finite_product_accepted(self):
        # the norm bound (2e40) exceeds float32 max, but the entries cancel
        block = LowRankBlock("l", np.full((2, 2), 1e20), np.array([[1e20], [-1e20]]))
        assert block.values.tolist() == [[0.0], [0.0]]


def _split_factors(u, s, vt, rank):
    """``(A, B)`` from a thin SVD, as the refactor splits it: sqrt(s) each side."""
    root = np.sqrt(s[:rank])
    return (root[:, None] * vt[:rank]).astype(np.float32), (u[:, :rank] * root).astype(np.float32)


class TestRefactorRoutes:
    """Each SVD route of ``refactor_to_adapter`` against the numpy
    composition it stands for, byte for byte.  The layers are smaller than
    OpenBLAS's threading threshold, so the reference does not depend on the
    BLAS thread count."""

    RANK, ALPHA = 5, 7.0  # alpha != rank: the factors carry a scale

    @staticmethod
    def _refactored(delta, rank):
        a, b = refactor_to_adapter(delta, rank).layers["layer0"]
        return a.values, b.values

    def _low_rank(self):
        rng = np.random.default_rng(83)
        a = rng.standard_normal((self.RANK, 40)).astype(np.float32)
        b = rng.standard_normal((48, self.RANK)).astype(np.float32)
        return a, b, compute_delta(_adapter_1layer(a, b, self.RANK, self.ALPHA))

    @pytest.mark.parametrize("rank", [2, RANK], ids=["below", "equal"])
    def test_factored_route_is_qr_then_small_svd(self, rank):
        a, b, delta = self._low_rank()
        scale = self.ALPHA / self.RANK
        q, r = np.linalg.qr(b.astype(np.float64))
        u, s, vt = np.linalg.svd(r @ (scale * a.astype(np.float64)), full_matrices=False)
        expected = _split_factors(q @ u, s, vt, rank)
        got = self._refactored(delta, rank)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]

    @pytest.mark.parametrize("rank", [RANK + 1, 11], ids=["above", "far-above"])
    def test_rank_above_the_layer_takes_the_dense_route(self, rank):
        _, _, delta = self._low_rank()
        layer = delta.layers["layer0"].values
        u, s, vt = np.linalg.svd(layer.astype(np.float64), full_matrices=False)
        expected = _split_factors(u, s, vt, rank)
        got = self._refactored(delta, rank)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]

    @pytest.mark.parametrize("rank", [1, 6, 30])
    def test_delta_file_layer_takes_the_dense_route(self, tmp_path, rank):
        rng = np.random.default_rng(84)
        layer = rng.standard_normal((48, 30)).astype(np.float32)
        save_delta(DeltaMap.from_arrays({"layer0": layer}, "de"), str(tmp_path / "d.tnsr"))
        u, s, vt = np.linalg.svd(layer.astype(np.float64), full_matrices=False)
        expected = _split_factors(u, s, vt, rank)
        got = self._refactored(load_delta(str(tmp_path / "d.tnsr")), rank)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]


class TestAdapterValidation:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            _adapter_1layer(np.zeros((2, 3)), np.zeros((4, 3)), rank=2, alpha=2.0)

    def test_mixed_rank_across_layers_rejected(self):
        layers = {
            "a": (TensorBlock("x", np.zeros((2, 3))), TensorBlock("y", np.zeros((4, 2)))),
            "b": (TensorBlock("x", np.zeros((3, 3))), TensorBlock("y", np.zeros((4, 3)))),
        }
        with pytest.raises(ValidationError):
            LoraAdapter(layers, 2, 2.0)

    def test_empty_layers_rejected(self):
        with pytest.raises(ValidationError):
            LoraAdapter({}, 2, 2.0)
        with pytest.raises(ValidationError, match="^delta map has no layers$"):
            DeltaMap({})

    def test_factor_that_is_not_2d_rejected(self):
        with pytest.raises(ValidationError, match="^layer 'layer0': A and B must be 2-D$"):
            _adapter_1layer(np.zeros(3), np.zeros((4, 1)), rank=1, alpha=1.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError):
            _adapter_1layer(np.zeros((2, 3)), np.zeros((4, 2)), rank=2, alpha=0.0)

    @pytest.mark.parametrize(
        "alpha", [10**400, float("inf"), float("nan")], ids=["huge-int", "inf", "nan"]
    )
    def test_alpha_past_float_range_rejected(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be positive and finite"):
            _adapter_1layer(np.zeros((1, 3)), np.zeros((4, 1)), rank=1, alpha=alpha)

    @pytest.mark.parametrize(
        "rank, alpha",
        [(True, 1.0), (1, True), (1, "2")],
        ids=["bool-rank", "bool-alpha", "string-alpha"],
    )
    def test_non_number_rank_or_alpha_rejected(self, rank, alpha):
        with pytest.raises(ValidationError, match="must be (a )?positive"):
            _adapter_1layer(np.zeros((1, 3)), np.zeros((4, 1)), rank=rank, alpha=alpha)

    def test_layers_are_read_only(self):
        adapter = _adapter_1layer(np.zeros((2, 3)), np.zeros((4, 2)), rank=2, alpha=2.0)
        delta = compute_delta(adapter)
        with pytest.raises(TypeError):
            adapter.layers["layer1"] = adapter.layers["layer0"]
        with pytest.raises(TypeError):
            delta.layers["layer1"] = delta.layers["layer0"]
        assert list(adapter.layers) == list(delta.layers) == ["layer0"]

    def test_edits_to_the_callers_dict_do_not_reach_the_map(self):
        a = TensorBlock("w.lora_A", np.ones((2, 3)))
        b = TensorBlock("w.lora_B", np.ones((4, 2)))
        pairs, blocks = {"w": (a, b)}, {"w": a}
        adapter, delta = LoraAdapter(pairs, 2, 2.0), DeltaMap(blocks)
        pairs["w"] = pairs["v"] = (b, a)
        blocks["w"] = blocks["v"] = b
        assert dict(adapter.layers) == {"w": (a, b)}
        assert dict(delta.layers) == {"w": a}

    def test_pair_given_as_a_list_is_stored_as_a_tuple(self):
        a = TensorBlock("w.lora_A", np.ones((2, 3)))
        b = TensorBlock("w.lora_B", np.ones((4, 2)))
        assert LoraAdapter({"w": [a, b]}, 2, 2.0).layers["w"] == (a, b)

    @pytest.mark.parametrize("layer", ["array", "array-factor", "one-factor", "bare-factor"])
    def test_layer_that_is_not_blocks_rejected(self, layer):
        a = TensorBlock("w.lora_A", np.ones((2, 3)))
        b = TensorBlock("w.lora_B", np.ones((4, 2)))
        make = {
            "array": lambda: DeltaMap({"w": np.ones((2, 3))}),
            "array-factor": lambda: LoraAdapter({"w": (np.ones((2, 3)), b)}, 2, 2.0),
            "one-factor": lambda: LoraAdapter({"w": (a,)}, 2, 2.0),
            "bare-factor": lambda: LoraAdapter({"w": a}, 2, 2.0),
        }[layer]
        with pytest.raises(ValidationError, match="^layer 'w': "):
            make()

    @pytest.mark.parametrize("name", [5, "", None], ids=["int", "empty", "none"])
    def test_layer_name_that_is_not_a_non_empty_string_rejected(self, name):
        """A layer name is the prefix of its tensors' names: an int one could
        not be written (a bare TypeError at save), and an empty one would be
        written as ``.delta`` or ``.lora_A``, which no load takes back."""
        a = TensorBlock("w.lora_A", np.ones((2, 3)))
        b = TensorBlock("w.lora_B", np.ones((4, 2)))
        message = f"^layer {re.escape(repr(name))}: name must be a non-empty string$"
        with pytest.raises(ValidationError, match=message):
            DeltaMap({name: TensorBlock("w", np.ones((2, 2)))})
        with pytest.raises(ValidationError, match=message):
            LoraAdapter({name: (a, b)}, 2, 2.0)

    def test_alpha_stored_as_float(self):
        adapter = _adapter_1layer(np.ones((2, 3)), np.ones((4, 2)), rank=2, alpha=np.float32(2))
        assert type(adapter.alpha) is float and adapter.alpha == 2.0

    @pytest.mark.parametrize("label", [5, None, b"en"], ids=["int", "none", "bytes"])
    def test_non_string_label_rejected(self, label):
        with pytest.raises(ValidationError, match="label must be a string"):
            _adapter_1layer(np.zeros((1, 3)), np.zeros((4, 1)), rank=1, alpha=1.0, label=label)
        with pytest.raises(ValidationError, match="label must be a string"):
            DeltaMap.from_arrays({"w": np.ones((2, 2), np.float32)}, label=label)


class TestComputeDelta:
    def test_hand_matrix_product(self):
        adapter = _adapter_1layer(
            np.array([[3.0, 4.0]]), np.array([[1.0], [2.0]]), rank=1, alpha=1.0
        )
        delta = compute_delta(adapter)
        np.testing.assert_array_equal(
            delta.layers["layer0"].values, np.array([[3, 4], [6, 8]], dtype=np.float32)
        )
        assert delta.label == "en"

    def test_zero_a_gives_zero_delta(self):
        adapter = _adapter_1layer(np.zeros((2, 3)), np.ones((4, 2)), rank=2, alpha=2.0)
        assert not compute_delta(adapter).layers["layer0"].values.any()

    def test_alpha_twice_rank_scales_by_two(self):
        adapter = _adapter_1layer(np.array([[1.0]]), np.array([[1.0]]), rank=1, alpha=2.0)
        np.testing.assert_array_equal(
            compute_delta(adapter).layers["layer0"].values,
            np.array([[2.0]], dtype=np.float32),
        )

    def test_shape_law(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            adapter = random_adapter(rng, layers=2, rank=3)
            delta = compute_delta(adapter)
            for layer, (a, b) in adapter.layers.items():
                assert delta.layers[layer].shape == (b.shape[0], a.shape[1])

    def test_linear_in_b(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b1 = rng.standard_normal((5, 3)).astype(np.float32)
        b2 = rng.standard_normal((5, 3)).astype(np.float32)
        d_sum = compute_delta(_adapter_1layer(a, b1 + b2, 3, 3.0)).layers["layer0"].values
        d1 = compute_delta(_adapter_1layer(a, b1, 3, 3.0)).layers["layer0"].values
        d2 = compute_delta(_adapter_1layer(a, b2, 3, 3.0)).layers["layer0"].values
        np.testing.assert_allclose(d_sum, d1 + d2, atol=1e-6)

    def test_alpha_scaling_is_proportional(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        base = compute_delta(_adapter_1layer(a, b, 3, 1.5)).layers["layer0"].values
        scaled = compute_delta(_adapter_1layer(a, b, 3, 4.5)).layers["layer0"].values
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-6)


class TestAdapterIO:
    def test_minimal_file_round_trip(self, tmp_path):
        path = str(tmp_path / "one.tnsr")
        adapter = _adapter_1layer(
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.arange(8, dtype=np.float32).reshape(4, 2),
            rank=2,
            alpha=2.0,
        )
        save_adapter(adapter, path)
        loaded = load_adapter(path)
        assert adapters_equal(adapter, loaded)
        a, b = loaded.layers["layer0"]
        assert a.shape == (2, 3) and b.shape == (4, 2)

    def test_missing_b_is_pairing_error(self, tmp_path):
        path = str(tmp_path / "nob.tnsr")
        write_tensors(
            path,
            {"layer0.lora_A": np.zeros((2, 3), dtype=np.float32)},
            {"rank": "2", "alpha": "2.0", "label": "en"},
        )
        with pytest.raises(PairingError):
            load_adapter(path)

    def test_missing_metadata_is_format_error(self, tmp_path):
        path = str(tmp_path / "nometa.tnsr")
        write_tensors(
            path,
            {
                "layer0.lora_A": np.zeros((2, 3), dtype=np.float32),
                "layer0.lora_B": np.zeros((4, 2), dtype=np.float32),
            },
            {"label": "en"},
        )
        with pytest.raises(FormatError):
            load_adapter(path)

    def test_shape_against_rank_is_validation_error(self, tmp_path):
        path = str(tmp_path / "badr.tnsr")
        write_tensors(
            path,
            {
                "layer0.lora_A": np.zeros((2, 3), dtype=np.float32),
                "layer0.lora_B": np.zeros((4, 2), dtype=np.float32),
            },
            {"rank": "3", "alpha": "3.0", "label": "en"},
        )
        with pytest.raises(ValidationError):
            load_adapter(path)

    def test_invalid_adapter_cannot_be_formed(self, tmp_path):
        path = str(tmp_path / "built.tnsr")
        adapter = _adapter_1layer(np.zeros((2, 3)), np.zeros((4, 2)), rank=2, alpha=2.0)
        # the rank invariant cannot be broken behind the constructor's back
        with pytest.raises(TypeError):
            adapter.layers["layer1"] = (
                TensorBlock("layer1.lora_A", np.zeros((3, 3))),
                TensorBlock("layer1.lora_B", np.zeros((4, 3))),
            )
        save_adapter(adapter, path)
        loaded = load_adapter(path)
        assert list(loaded.layers) == ["layer0"]
        assert adapters_equal(adapter, loaded)

    def test_non_integral_alpha_round_trips_exactly(self, tmp_path):
        path = str(tmp_path / "alpha.tnsr")
        adapter = _adapter_1layer(np.ones((2, 3)), np.ones((4, 2)), rank=2, alpha=0.1)
        save_adapter(adapter, path)
        assert load_adapter(path).alpha == 0.1

    def test_random_round_trips_bitwise(self, tmp_path):
        rng = np.random.default_rng(14)
        for i in range(25):
            adapter = random_adapter(rng, layers=int(rng.integers(1, 4)), label=f"l{i}")
            first = str(tmp_path / f"a{i}.tnsr")
            second = str(tmp_path / f"b{i}.tnsr")
            save_adapter(adapter, first)
            loaded = load_adapter(first)
            assert adapters_equal(adapter, loaded)
            save_adapter(loaded, second)
            assert Path(first).read_bytes() == Path(second).read_bytes()


class TestDeltaIO:
    def test_round_trip_two_layers(self, tmp_path):
        path = str(tmp_path / "d.tnsr")
        delta = DeltaMap.from_arrays(
            {"a": np.ones((2, 2), dtype=np.float32), "b": np.full((1, 3), 2.0, np.float32)},
            label="fr",
        )
        save_delta(delta, path)
        loaded = load_delta(path)
        assert loaded.label == "fr"
        assert deltas_bitwise_equal(delta, loaded)

    def test_adapter_file_as_delta_is_format_error(self, tmp_path):
        path = str(tmp_path / "ad.tnsr")
        save_adapter(
            _adapter_1layer(np.zeros((2, 3)), np.zeros((4, 2)), rank=2, alpha=2.0), path
        )
        with pytest.raises(FormatError):
            load_delta(path)

    def test_delta_file_as_adapter_is_format_error(self, tmp_path):
        path = str(tmp_path / "dd.tnsr")
        save_delta(DeltaMap.from_arrays({"a": np.ones((1, 1), np.float32)}, "x"), path)
        with pytest.raises(FormatError, match="tensor 'a.delta' does not follow the <layer>.lora_A"):
            load_adapter(path)

    def test_random_round_trips_bitwise(self, tmp_path):
        rng = np.random.default_rng(15)
        for i in range(25):
            delta = random_delta(rng, label=f"d{i}")
            first = str(tmp_path / f"a{i}.tnsr")
            second = str(tmp_path / f"b{i}.tnsr")
            save_delta(delta, first)
            loaded = load_delta(first)
            assert loaded.label == delta.label
            assert deltas_bitwise_equal(delta, loaded)
            save_delta(loaded, second)
            assert Path(first).read_bytes() == Path(second).read_bytes()


    def test_layer_read_and_written_in_slabs_round_trips_bytes(self, tmp_path, monkeypatch):
        """A delta file's layer has a ``part``, so re-saving a loaded delta
        reads and writes it a slab at a time: two slabs and a ragged tail."""
        monkeypatch.setattr(container, "_SLAB", 2 * merging._CHUNK)
        rng = np.random.default_rng(16)
        first, second = str(tmp_path / "a.tnsr"), str(tmp_path / "b.tnsr")
        save_delta(
            DeltaMap.from_arrays(
                {
                    "big": rng.standard_normal((515, 600)).astype(np.float32),
                    "small": rng.standard_normal((3, 4)).astype(np.float32),
                },
                label="de",
            ),
            first,
        )
        save_delta(load_delta(first), second)
        assert Path(first).read_bytes() == Path(second).read_bytes()


class TestLoadAsDelta:
    def test_adapter_input_computes_delta(self, tmp_path):
        path = str(tmp_path / "a.tnsr")
        adapter = _adapter_1layer(
            np.array([[3.0, 4.0]]), np.array([[1.0], [2.0]]), rank=1, alpha=1.0
        )
        save_adapter(adapter, path)
        assert deltas_bitwise_equal(load_as_delta(path), compute_delta(adapter))

    def test_delta_input_loads_directly(self, tmp_path):
        path = str(tmp_path / "d.tnsr")
        delta = DeltaMap.from_arrays({"a": np.ones((2, 2), np.float32)}, "ja")
        save_delta(delta, path)
        assert deltas_bitwise_equal(load_as_delta(path), delta)

    def test_mixed_names_rejected(self, tmp_path):
        path = str(tmp_path / "mix.tnsr")
        write_tensors(
            path,
            {
                "layer0.lora_A": np.zeros((1, 1), dtype=np.float32),
                "layer0.delta": np.zeros((1, 1), dtype=np.float32),
            },
            {"label": "x"},
        )
        with pytest.raises(FormatError):
            load_as_delta(path)


class TestRefactor:
    def test_low_rank_delta_refactors_exactly(self):
        rng = np.random.default_rng(16)
        rank = 2
        b = rng.standard_normal((6, rank)).astype(np.float32)
        a = rng.standard_normal((rank, 5)).astype(np.float32)
        delta = DeltaMap.from_arrays(
            {"l": (b.astype(np.float64) @ a.astype(np.float64)).astype(np.float32)}, "zh"
        )
        adapter = refactor_to_adapter(delta, rank)
        assert adapter.rank == rank and adapter.alpha == float(rank)
        rebuilt = compute_delta(adapter)
        np.testing.assert_allclose(
            rebuilt.layers["l"].values, delta.layers["l"].values, atol=1e-5
        )

    def test_low_rank_layer_matches_the_dense_route(self):
        rng = np.random.default_rng(17)
        lazy = compute_delta(random_adapter(rng, layers=1, rank=3, dims=[(8, 9)]))
        dense = DeltaMap.from_arrays({k: b.values for k, b in lazy.layers.items()}, lazy.label)
        for rank in (1, 3, 5):  # 5 exceeds the layer's rank: dense route
            got = compute_delta(refactor_to_adapter(lazy, rank)).layers["layer0"].values
            want = compute_delta(refactor_to_adapter(dense, rank)).layers["layer0"].values
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_rank_too_large_rejected(self):
        delta = DeltaMap.from_arrays({"l": np.ones((3, 2), np.float32)}, "x")
        with pytest.raises(ParameterError):
            refactor_to_adapter(delta, 3)

    def test_svd_not_converging_is_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        delta = DeltaMap.from_arrays({"l": np.ones((3, 2), np.float32)}, "x")
        adapter = refactor_to_adapter(delta, 1)  # the SVD runs when a factor is read
        with pytest.raises(NumericalError, match="^SVD did not converge on layer 'l'$"):
            adapter.layers["l"][0].values

    def test_boolean_rank_rejected(self):
        delta = DeltaMap.from_arrays({"l": np.ones((3, 2), np.float32)}, "x")
        with pytest.raises(ParameterError, match="refactor rank must be a positive integer"):
            refactor_to_adapter(delta, True)
