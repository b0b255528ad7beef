import errno
import math
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from loramerge import (
    DataError,
    FormatError,
    OverlapError,
    StorageError,
    read_header,
    read_tensors,
    write_tensors,
)
from loramerge import container, merging
from loramerge.adapters import PendingBlock
from loramerge.container import TensorFile
from loramerge.errors import ParameterError
from conftest import write_raw_container


def _payload(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)


def test_writer_holds_one_tensor_at_a_time(tmp_path):
    """Each block's values are formed, written and let go before the next
    block's are formed."""
    shape = (512, 512)  # 1 MB of float32
    tensors = {
        f"t{i}": PendingBlock(f"t{i}", shape, lambda i=i: np.full(shape, i, np.float32))
        for i in range(4)
    }
    path = str(tmp_path / "t.tnsr")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_tensors(path, tensors)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 4 * math.prod(shape), peak
    loaded, _ = read_tensors(path)
    for i in range(4):
        assert loaded[f"t{i}"].tobytes() == np.full(shape, i, np.float32).tobytes()


def test_round_trip_values_and_metadata(tmp_path):
    path = str(tmp_path / "t.tnsr")
    tensors = {
        "w.delta": np.arange(6, dtype=np.float32).reshape(2, 3),
        "v.delta": np.array([[1.5]], dtype=np.float32),
    }
    write_tensors(path, tensors, {"label": "en"})
    loaded, metadata = read_tensors(path)
    assert metadata == {"label": "en"}
    assert sorted(loaded) == ["v.delta", "w.delta"]
    for name in tensors:
        assert loaded[name].dtype == np.float32
        assert loaded[name].tobytes() == tensors[name].tobytes()
        assert not loaded[name].flags.writeable


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    first = str(tmp_path / "a.tnsr")
    second = str(tmp_path / "b.tnsr")
    tensors = {f"t{i}": rng.standard_normal((i + 1, 3)).astype(np.float32) for i in range(4)}
    write_tensors(first, tensors, {"label": "x"})
    loaded, metadata = read_tensors(first)
    write_tensors(second, loaded, metadata)
    assert Path(first).read_bytes() == Path(second).read_bytes()


def test_header_length_beyond_file(tmp_path):
    path = str(tmp_path / "bad.tnsr")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", 10_000))
        fh.write(b"{}")
    with pytest.raises(FormatError):
        read_tensors(path)


def test_file_shorter_than_length_field(tmp_path):
    path = str(tmp_path / "tiny.tnsr")
    with open(path, "wb") as fh:
        fh.write(b"\x01\x02")
    with pytest.raises(FormatError):
        read_tensors(path)


def test_header_not_json(tmp_path):
    path = str(tmp_path / "nj.tnsr")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", 4))
        fh.write(b"oops")
    with pytest.raises(FormatError):
        read_tensors(path)


def test_overlapping_offsets_rejected(tmp_path):
    path = str(tmp_path / "ov.tnsr")
    header = {
        "a.delta": {"dtype": "F32", "shape": [1, 2], "data_offsets": [0, 8]},
        "b.delta": {"dtype": "F32", "shape": [1, 2], "data_offsets": [4, 12]},
    }
    write_raw_container(path, header, _payload(np.zeros((1, 3))))
    with pytest.raises(OverlapError):
        read_tensors(path)


def test_gap_between_buffers_rejected(tmp_path):
    path = str(tmp_path / "gap.tnsr")
    header = {
        "a.delta": {"dtype": "F32", "shape": [1, 1], "data_offsets": [0, 4]},
        "b.delta": {"dtype": "F32", "shape": [1, 1], "data_offsets": [8, 12]},
    }
    write_raw_container(path, header, _payload(np.zeros((1, 3))))
    with pytest.raises(FormatError):
        read_tensors(path)


def test_trailing_payload_rejected(tmp_path):
    path = str(tmp_path / "trail.tnsr")
    header = {"a.delta": {"dtype": "F32", "shape": [1, 1], "data_offsets": [0, 4]}}
    write_raw_container(path, header, _payload(np.zeros((1, 2))))
    with pytest.raises(FormatError):
        read_tensors(path)


def test_nan_payload_rejected(tmp_path):
    path = str(tmp_path / "nan.tnsr")
    header = {"a.delta": {"dtype": "F32", "shape": [1, 2], "data_offsets": [0, 8]}}
    write_raw_container(path, header, _payload(np.array([[1.0, np.nan]])))
    with pytest.raises(DataError):
        read_tensors(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = str(tmp_path / "dt.tnsr")
    header = {"a.delta": {"dtype": "F16", "shape": [1, 1], "data_offsets": [0, 4]}}
    write_raw_container(path, header, b"\x00" * 4)
    with pytest.raises(FormatError):
        read_tensors(path)


def test_shape_buffer_mismatch_rejected(tmp_path):
    path = str(tmp_path / "shp.tnsr")
    header = {"a.delta": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 8]}}
    write_raw_container(path, header, b"\x00" * 8)
    with pytest.raises(FormatError):
        read_tensors(path)


def test_zero_dimension_rejected(tmp_path):
    path = str(tmp_path / "zd.tnsr")
    header = {"a.delta": {"dtype": "F32", "shape": [0, 2], "data_offsets": [0, 0]}}
    write_raw_container(path, header, b"")
    with pytest.raises(FormatError):
        read_tensors(path)


def test_non_string_metadata_rejected(tmp_path):
    path = str(tmp_path / "md.tnsr")
    header = {
        "__metadata__": {"rank": 64},
        "a.delta": {"dtype": "F32", "shape": [1, 1], "data_offsets": [0, 4]},
    }
    write_raw_container(path, header, b"\x00" * 4)
    with pytest.raises(FormatError):
        read_tensors(path)


def test_empty_container_rejected_both_ways(tmp_path):
    path = str(tmp_path / "empty.tnsr")
    with pytest.raises(FormatError):
        write_tensors(path, {}, None)
    write_raw_container(path, {"__metadata__": {"label": "x"}}, b"")
    with pytest.raises(FormatError):
        read_tensors(path)


@pytest.mark.parametrize(
    "tensors, metadata, message",
    [
        ({"": np.ones((2, 2))}, None, "tensor names must be non-empty"),
        ({"a": np.ones((2, 2))}, {"rank": 64}, "metadata keys and values must be strings"),
        ({"a": np.ones((0, 2))}, None, "tensor 'a' must have >=1 dimension, all sizes >=1"),
    ],
    ids=["empty-name", "non-string-metadata", "zero-size-dimension"],
)
def test_write_rejects_a_malformed_layout(tmp_path, tensors, metadata, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        write_tensors(str(tmp_path / "out.tnsr"), tensors, metadata)
    assert os.listdir(tmp_path) == []


def test_write_rejects_non_finite():
    with pytest.raises(DataError):
        write_tensors("/tmp/never-written.tnsr", {"a": np.array([[np.inf]])}, None)


class _Frame:
    """An array-like with a ``shape`` and ``values``, as a data frame has."""

    def __init__(self, values):
        self.values = values
        self.shape = values.shape

    def __array__(self, dtype=None, copy=None):
        return self.values if dtype is None else self.values.astype(dtype)


def test_write_checks_array_likes_that_are_not_blocks(tmp_path):
    path = str(tmp_path / "frame.tnsr")
    with pytest.raises(DataError):
        write_tensors(path, {"a": _Frame(np.array([[1.0, np.nan]]))}, None)
    assert os.listdir(tmp_path) == []
    write_tensors(path, {"a": _Frame(np.array([[1.0, 2.0]]))}, None)
    assert read_tensors(path)[0]["a"].tolist() == [[1.0, 2.0]]


def test_slab_is_a_whole_number_of_merge_chunks():
    # a slab of a merged layer starts on a chunk, so on a Philox boundary
    assert container._SLAB % merging._CHUNK == 0


class TestSlabs:
    """Every tensor is written ``_SLAB`` entries at a time, each slab at its
    offset, in order; a block with a ``part`` forms each slab in turn."""

    SHAPE = (5, 7)  # 35 entries: slabs of 8 and a ragged tail of 3

    @pytest.fixture(autouse=True)
    def small_slab(self, monkeypatch):
        monkeypatch.setattr(container, "_SLAB", 8)

    def _block(self, part):
        values = np.arange(math.prod(self.SHAPE), dtype=np.float32)
        return PendingBlock("w", self.SHAPE, lambda: values.reshape(self.SHAPE), part(values))

    def test_slabs_give_the_whole_write_bytes(self, tmp_path):
        asked = []

        def part(values):
            return lambda start, stop: asked.append((start, stop)) or values[start:stop]

        block = self._block(part)
        write_tensors(str(tmp_path / "slabs.tnsr"), {"w": block, "a": np.ones((2, 2))})
        write_tensors(str(tmp_path / "whole.tnsr"), {"w": block.values, "a": np.ones((2, 2))})
        assert asked == [(0, 8), (8, 16), (16, 24), (24, 32), (32, 35)]
        assert (tmp_path / "slabs.tnsr").read_bytes() == (tmp_path / "whole.tnsr").read_bytes()
        # a plain array is sliced into slabs too: the bytes of the layout in one piece
        header = {
            "a": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]},
            "w": {"dtype": "F32", "shape": [5, 7], "data_offsets": [16, 156]},
        }
        layout = tmp_path / "layout.tnsr"
        write_raw_container(str(layout), header, _payload(np.ones((2, 2)), block.values))
        assert (tmp_path / "whole.tnsr").read_bytes() == layout.read_bytes()

    @pytest.mark.parametrize("cut", [1, -1], ids=["short", "long"])
    def test_slab_of_the_wrong_length_is_format_error(self, tmp_path, cut):
        def part(values):
            padded = np.concatenate([values, values])
            return lambda start, stop: padded[start : stop - cut if stop == 35 else stop]

        path = str(tmp_path / "w.tnsr")
        with pytest.raises(FormatError) as info:
            write_tensors(path, {"w": self._block(part)})
        shape = (35 - cut - 32,)
        assert str(info.value) == (
            f"tensor 'w' gives {shape} for entries [32, 35), its block says (5, 7)"
        )
        assert os.listdir(tmp_path) == []


def test_missing_file_is_storage_error(tmp_path):
    with pytest.raises(StorageError):
        read_tensors(str(tmp_path / "absent.tnsr"))


def test_read_header_returns_raw_object(tmp_path):
    path = str(tmp_path / "h.tnsr")
    write_tensors(path, {"a.delta": np.ones((2, 2), dtype=np.float32)}, {"label": "de"})
    header = read_header(path)
    assert header["__metadata__"] == {"label": "de"}
    assert header["a.delta"]["shape"] == [2, 2]
    assert header["a.delta"]["dtype"] == "F32"


def test_error_codes_are_distinct():
    assert FormatError.code != OverlapError.code != DataError.code
    assert len({FormatError.code, OverlapError.code, DataError.code}) == 3


def test_unaligned_header_round_trips_read_only(tmp_path):
    path = str(tmp_path / "odd.tnsr")
    tensors = {
        "a.delta": np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5,
        "b.delta": np.array([[-0.0, 1e-40, 3.25]], dtype=np.float32),
    }
    residues = set()
    for label in ("", "a", "ab", "abc"):  # one header byte more each time
        write_tensors(path, tensors, {"label": label})
        with open(path, "rb") as fh:
            residues.add(struct.unpack("<Q", fh.read(8))[0] % 4)
        loaded, metadata = read_tensors(path)
        assert metadata == {"label": label}
        for name, arr in tensors.items():
            assert loaded[name].tobytes() == arr.tobytes()
            assert loaded[name].dtype == np.float32 and loaded[name].flags.aligned
            assert not loaded[name].flags.writeable
            with pytest.raises(ValueError):
                loaded[name].setflags(write=True)
    assert residues == {0, 1, 2, 3}


def test_truncated_payload_is_format_error_but_header_reads(tmp_path):
    path = str(tmp_path / "cut.tnsr")
    write_tensors(path, {"a.delta": np.ones((4, 4), dtype=np.float32)}, {"label": "x"})
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 3)
    with pytest.raises(FormatError):
        read_tensors(path)
    # inspecting reads the header alone, so a cut payload does not stop it
    assert read_header(path)["a.delta"]["shape"] == [4, 4]


def test_failed_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    path = str(tmp_path / "out.tnsr")
    write_tensors(path, {"a.delta": np.ones((2, 2), dtype=np.float32)}, {"label": "old"})
    with open(path, "rb") as fh:
        before = fh.read()

    def fail(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(StorageError) as info:
        write_tensors(path, {"a.delta": np.zeros((2, 2), dtype=np.float32)}, {"label": "new"})
    assert str(info.value) == f"cannot write {path}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {path!r}"
    assert os.listdir(tmp_path) == ["out.tnsr"]
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_header_with_a_lone_surrogate_is_format_error(tmp_path):
    """``\\ud800`` parses to a string no UTF-8 writer can write back, so the
    header is rejected where it is read."""
    path = str(tmp_path / "s.tnsr")
    entry = {"dtype": "F32", "shape": [1, 2], "data_offsets": [0, 8]}
    write_raw_container(path, {"__metadata__": {"label": "en\ud800"}, "a": entry}, _payload([1, 2]))
    message = f"{path}: header text is not valid Unicode (surrogates not allowed)"
    for read in (read_header, read_tensors, TensorFile):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read(path)


def test_write_to_missing_directory_names_the_target(tmp_path):
    path = str(tmp_path / "absent" / "out.tnsr")
    with pytest.raises(StorageError) as info:
        write_tensors(path, {"a.delta": np.ones((1, 1), dtype=np.float32)}, None)
    assert str(info.value) == (
        f"cannot write {path}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {path!r}"
    )


class TestReadRange:
    """``TensorFile.read_range`` reads flat entries ``[start, stop)`` of one
    tensor at their offset and checks that range alone for non-finite
    values."""

    SHAPE = (515, 300)  # 154500 entries: two 65536-entry chunks and a tail

    @classmethod
    def _write(cls, path, values):
        """A container whose second tensor ``b.delta`` holds ``values``."""
        first = np.arange(6, dtype=np.float32).reshape(2, 3)
        header = {
            "__metadata__": {"label": "en"},
            "a.delta": {"dtype": "F32", "shape": [2, 3], "data_offsets": [0, 24]},
            "b.delta": {
                "dtype": "F32",
                "shape": list(cls.SHAPE),
                "data_offsets": [24, 24 + 4 * math.prod(cls.SHAPE)],
            },
        }
        write_raw_container(path, header, _payload(first, values))

    @classmethod
    def _values(cls, seed=5):
        return np.random.default_rng(seed).standard_normal(cls.SHAPE).astype(np.float32)

    def test_range_to_the_ragged_tail_equals_the_slice_of_the_whole_read(self, tmp_path):
        path = str(tmp_path / "t.tnsr")
        self._write(path, self._values())
        source = TensorFile(path)
        try:
            whole = source.read("b.delta").ravel()
            for start, stop in [(131072, whole.size), (0, 65536), (70, 71), (5, 5)]:
                part = source.read_range("b.delta", start, stop)
                assert part.dtype == np.float32 and not part.flags.writeable
                assert part.tobytes() == whole[start:stop].tobytes()
        finally:
            source.close()

    def test_non_finite_entry_outside_the_range_is_not_reported(self, tmp_path):
        path = str(tmp_path / "t.tnsr")
        values = self._values()
        values.flat[70000] = np.inf
        self._write(path, values)
        source = TensorFile(path)
        try:
            part = source.read_range("b.delta", 0, 65536)
            assert part.tobytes() == values.ravel()[:65536].tobytes()
        finally:
            source.close()

    def test_non_finite_entry_inside_the_range_has_the_whole_read_message(self, tmp_path):
        path = str(tmp_path / "t.tnsr")
        values = self._values()
        values.flat[70000] = np.nan
        self._write(path, values)
        source = TensorFile(path)
        try:
            with pytest.raises(DataError) as whole:
                source.read("b.delta")
            with pytest.raises(DataError) as part:
                source.read_range("b.delta", 65536, 131072)
        finally:
            source.close()
        assert str(part.value) == str(whole.value)
        assert str(part.value) == f"{path}: tensor 'b.delta' contains non-finite values"

    def test_range_read_sees_the_checked_file_after_its_path_is_replaced(self, tmp_path):
        path = str(tmp_path / "t.tnsr")
        values = self._values()
        self._write(path, values)
        source = TensorFile(path)
        try:
            other = str(tmp_path / "other.tnsr")
            self._write(other, self._values(seed=6))
            os.replace(other, path)
            part = source.read_range("b.delta", 100000, 100100)
        finally:
            source.close()
        assert part.tobytes() == values.ravel()[100000:100100].tobytes()

    @pytest.mark.parametrize("start, stop", [(-1, 4), (5, 4), (0, 154501)])
    def test_range_outside_the_tensor_rejected(self, tmp_path, start, stop):
        path = str(tmp_path / "t.tnsr")
        self._write(path, self._values())
        source = TensorFile(path)
        try:
            with pytest.raises(ParameterError):
                source.read_range("b.delta", start, stop)
        finally:
            source.close()
