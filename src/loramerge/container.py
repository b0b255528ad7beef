"""Bit-exact tensor container I/O.

File layout:

* bytes 0..7    unsigned 64-bit little-endian header length ``N``
* bytes 8..8+N  UTF-8 JSON object mapping tensor name to
  ``{"dtype": "F32", "shape": [...], "data_offsets": [begin, end]}``,
  plus an optional ``"__metadata__"`` object with string keys and values
* remaining     concatenated raw little-endian float32 buffers, addressed by
  ``data_offsets`` relative to the end of the header

Offsets must tile the payload exactly: non-overlapping, gap-free, starting
at 0.  Writers emit tensors in sorted-name order with a canonical compact
JSON header, so identical inputs produce identical bytes.  Only float32 is
supported; non-finite payload values are rejected when a tensor is read.

Every output file of the package, container or text report, is written
through :func:`replacing`: to a temporary file beside the target, renamed
over it only when complete, so a failed write leaves no partial file and an
existing target as it was.  The header follows from the tensors' shapes, so
each tensor is written at its offset in turn, a slab at a time, and let go
before the next one is formed.  A block with a ``part`` forms each slab in
turn, so no tensor of it is held whole; any other value is formed (a block)
or converted (an array) and checked whole, then sliced.  A read opens the
file, checks the header (its text must encode back to UTF-8) and layout,
and reads each tensor at its offset when it is asked for (:class:`TensorFile`).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading
from typing import BinaryIO, Callable, Iterator, Mapping

import numpy as np

from .errors import (
    DataError,
    FormatError,
    OverlapError,
    ParameterError,
    StorageError,
    is_integer,
)

_LEN_FMT = "<Q"
_LEN_BYTES = 8
_F32 = np.dtype("<f4")

# Entries per write of a block that gives ranges: 4 MiB.  A multiple of
# merging._CHUNK, so a slab of a merged layer starts on a chunk boundary
# and every DARE draw on a Philox counter boundary.  Smaller slabs cost page
# faults: once no buffer this large is freed, glibc's dynamic mmap and trim
# thresholds stay low and the chunk scratch is returned to the system and
# faulted back in.  A warm in-process ``dare-deltas`` merge (2-core x86_64
# host) took ≈17 minor faults at this size, ≈30K at 1 << 19 and ≈141K at
# 1 << 18 or 1 << 16, which also doubled its time.
_SLAB = 1 << 20


def _canonical_header_bytes(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":"), sort_keys=True, ensure_ascii=False).encode(
        "utf-8"
    )


class CheckedBlock:
    """Base of the layer types whose ``values`` are checked when the block is
    built or the values formed: a ``shape``, and a ``values`` array of that
    shape, float32, C-order and finite, which may be formed only when read.
    ``part`` is None, or a ``part(start, stop)`` that gives the flat entries
    ``[start, stop)`` of ``values`` with the same contract without forming
    the rest.  :func:`write_tensors` writes a block without checking it again."""

    __slots__ = ()
    part: Callable[[int, int], np.ndarray] | None = None


def _slices(values: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """A ``part`` that slices the flat entries of ``values``, held whole."""
    flat = values.ravel()
    return lambda start, stop: flat[start:stop]


def write_tensors(path: str, tensors: Mapping, metadata: dict[str, str] | None = None) -> None:
    """Write named float32 tensors (and optional string metadata) to ``path``.

    Each value is a :class:`CheckedBlock` or anything else that converts to
    a float32 array.  The header takes the shapes from ``np.shape``; then,
    in the mapping's order, each value is written at its offset in the
    sorted-name layout ``_SLAB`` entries at a time.  A block's ``part``
    forms each slab in turn, let go before the next is formed; any other
    value is formed whole (a block's ``values``) or converted and checked
    for non-finite entries, sliced, and let go before the next is formed.
    """
    if not tensors:
        raise FormatError("refusing to write a container with no tensors")
    shapes: dict[str, tuple[int, ...]] = {}
    for name, value in tensors.items():
        if not name:
            raise FormatError("tensor names must be non-empty")
        shape = shapes[name] = tuple(np.shape(value))
        if not shape or any(d < 1 for d in shape):
            raise FormatError(f"tensor {name!r} must have >=1 dimension, all sizes >=1")

    header: dict = {}
    if metadata is not None:
        for key, value in metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise FormatError("metadata keys and values must be strings")
        header["__metadata__"] = dict(metadata)
    offset = 0
    for name in sorted(shapes):
        nbytes = 4 * math.prod(shapes[name])
        header[name] = {
            "dtype": "F32",
            "shape": list(shapes[name]),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes

    blob = _canonical_header_bytes(header)
    base = _LEN_BYTES + len(blob)
    with replacing(path) as fh:
        fh.write(struct.pack(_LEN_FMT, len(blob)))
        fh.write(blob)
        for name, value in tensors.items():
            block = isinstance(value, CheckedBlock)
            part = value.part if block else None
            if part is None:
                arr = np.ascontiguousarray(value.values if block else value, dtype=_F32)
                if arr.shape != shapes[name]:
                    raise FormatError(
                        f"tensor {name!r} is {arr.shape}, its block says {shapes[name]}"
                    )
                if not block and not np.isfinite(arr).all():
                    raise DataError(f"tensor {name!r} contains non-finite values")
                part = _slices(arr)
            fh.seek(base + header[name]["data_offsets"][0])
            size = math.prod(shapes[name])
            for start in range(0, size, _SLAB):
                stop = min(start + _SLAB, size)
                arr = np.ascontiguousarray(part(start, stop), dtype=_F32)
                if arr.shape != (stop - start,):
                    raise FormatError(
                        f"tensor {name!r} gives {arr.shape} for entries "
                        f"[{start}, {stop}), its block says {shapes[name]}"
                    )
                fh.write(memoryview(arr).cast("B"))
                del arr  # before the next slab is formed


@contextlib.contextmanager
def replacing(path: str) -> Iterator[BinaryIO]:
    """A new binary file that takes the place of ``path`` when the block
    completes: a temporary file beside it, renamed over it then and removed
    on failure, so an existing target is left as it was.  An OSError is a
    StorageError naming ``path``."""
    directory, filename = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{filename}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(temp, "xb")
        try:
            with fh:
                yield fh
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise
    except OSError as exc:
        if exc.errno is not None and exc.filename is not None:
            # name the target, not the temporary file, as a direct write would
            exc = OSError(exc.errno, exc.strerror, path)
        raise StorageError(f"cannot write {path}: {exc}") from exc


def _parse_header(raw: bytes | bytearray, path: str) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: header is not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be a JSON object")
    try:  # an escaped lone surrogate parses, but no UTF-8 writer can write it back
        _canonical_header_bytes(header)
    except UnicodeEncodeError as exc:
        raise FormatError(f"{path}: header text is not valid Unicode ({exc.reason})") from exc
    return header


def _read_at(fh, buffer: memoryview, offset: int, path: str) -> None:
    """Fill ``buffer`` from ``offset`` of the open file."""
    fh.seek(offset)
    done = 0
    while done < len(buffer):
        got = fh.readinto(buffer[done:])
        if not got:
            raise FormatError(f"{path}: file ended {len(buffer) - done} bytes early")
        done += got


def _read_header(fh, path: str) -> tuple[dict, int, int]:
    """The parsed header, the payload's start in the file and its size."""
    size = os.fstat(fh.fileno()).st_size
    if size < _LEN_BYTES:
        raise FormatError(f"{path}: file too short for a header length field")
    field = bytearray(_LEN_BYTES)
    _read_at(fh, memoryview(field), 0, path)
    (header_len,) = struct.unpack(_LEN_FMT, field)
    if header_len > size - _LEN_BYTES:
        raise FormatError(f"{path}: header length {header_len} exceeds file size {size}")
    raw = bytearray(header_len)
    _read_at(fh, memoryview(raw), _LEN_BYTES, path)
    return _parse_header(raw, path), _LEN_BYTES + header_len, size - _LEN_BYTES - header_len


def read_header(path: str) -> dict:
    """Parse and return the raw JSON header of a container file; the payload
    is not read."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return _read_header(fh, path)[0]
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc


def _layout(
    header: dict, payload_size: int, path: str
) -> tuple[dict[str, str], dict[str, tuple[int, ...]], dict[str, int]]:
    """Check a header against the payload size: metadata, then every tensor's
    dtype, shape and offsets, which must tile the payload.  Returns the
    metadata, the shapes and the begin offsets, in header order."""
    metadata: dict[str, str] = {}
    meta_obj = header.pop("__metadata__", None)
    if meta_obj is not None:
        if not isinstance(meta_obj, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in meta_obj.items()
        ):
            raise FormatError(f"{path}: __metadata__ must map strings to strings")
        metadata = dict(meta_obj)

    if not header:
        raise FormatError(f"{path}: container holds no tensors")

    shapes: dict[str, tuple[int, ...]] = {}
    begins: dict[str, int] = {}
    spans: list[tuple[int, int, str]] = []
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entry for {name!r} must be an object")
        if entry.get("dtype") != "F32":
            raise FormatError(f"{path}: tensor {name!r} has unsupported dtype {entry.get('dtype')!r}")
        shape = entry.get("shape")
        if (
            not isinstance(shape, list)
            or not shape
            or not all(is_integer(d) and d >= 1 for d in shape)
        ):
            raise FormatError(f"{path}: tensor {name!r} has invalid shape {shape!r}")
        offsets = entry.get("data_offsets")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(is_integer(o) and o >= 0 for o in offsets)
        ):
            raise FormatError(f"{path}: tensor {name!r} has invalid data_offsets {offsets!r}")
        begin, end = offsets
        nbytes = 4 * math.prod(shape)
        if end - begin != nbytes:
            raise FormatError(
                f"{path}: tensor {name!r} spans {end - begin} bytes, shape needs {nbytes}"
            )
        if end > payload_size:
            raise FormatError(f"{path}: tensor {name!r} offsets exceed the payload")
        spans.append((begin, end, name))
        shapes[name] = tuple(shape)
        begins[name] = begin

    spans.sort()
    cursor = 0
    for begin, end, name in spans:
        if begin < cursor:
            raise OverlapError(f"{path}: tensor {name!r} overlaps the previous buffer")
        if begin > cursor:
            raise FormatError(f"{path}: gap before tensor {name!r} at offset {begin}")
        cursor = end
    if cursor != payload_size:
        raise FormatError(f"{path}: {payload_size - cursor} trailing payload bytes")
    return metadata, shapes, begins


class TensorFile:
    """A container file open for reading.

    Opening reads the header alone and checks the layout (dtypes, shapes,
    offsets tiling the payload), so ``metadata`` and ``shapes`` (header
    order) are known before any payload is read.  :meth:`read` reads one
    tensor, and :meth:`read_range` a range of its entries, at its offset
    into a fresh buffer and checks it for non-finite values there.  Reads
    go through the descriptor opened here, so they see the file that was
    checked even after its path is replaced; it stays open until
    :meth:`close` or until the object is collected.
    """

    _fh = None

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()  # a read is a seek, then reads
        try:
            self._fh = open(path, "rb", buffering=0)
            header, self._base, payload_size = _read_header(self._fh, path)
            self.metadata, self.shapes, self._begins = _layout(header, payload_size, path)
        except OSError as exc:
            self.close()
            raise StorageError(f"cannot read {path}: {exc}") from exc
        except BaseException:
            self.close()
            raise

    def read(self, name: str) -> np.ndarray:
        """Tensor ``name``: a float32 C-order view of a fresh buffer, which is
        read-only, so the view cannot be made writable."""
        shape = self.shapes[name]
        return self.read_range(name, 0, math.prod(shape)).reshape(shape)

    def read_range(self, name: str, start: int, stop: int) -> np.ndarray:
        """Flat entries ``[start, stop)`` of tensor ``name``, read at their
        offset and checked for non-finite values, as :meth:`read` is."""
        if not 0 <= start <= stop <= math.prod(self.shapes[name]):
            raise ParameterError(f"range [{start}, {stop}) is outside tensor {name!r}")
        payload = np.empty(4 * (stop - start), dtype=np.uint8)
        offset = self._base + self._begins[name] + 4 * start
        try:
            with self._lock:
                _read_at(self._fh, memoryview(payload), offset, self.path)
        except OSError as exc:
            raise StorageError(f"cannot read {self.path}: {exc}") from exc
        payload.setflags(write=False)
        arr = payload.view(_F32)
        if not np.isfinite(arr).all():
            raise DataError(f"{self.path}: tensor {name!r} contains non-finite values")
        return arr

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    __del__ = close


def read_tensors(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Load all tensors and metadata from ``path``, validating the layout.

    Returns ``(tensors, metadata)`` where arrays are float32, C-order and
    read-only, each read at its offset.  Raises FormatError /
    OverlapError / DataError on malformed files and StorageError when the
    file cannot be read.
    """
    source = TensorFile(path)
    try:
        return {name: source.read(name) for name in source.shapes}, dict(source.metadata)
    finally:
        source.close()
