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
through :func:`replacing`: to a temporary file beside the target, synced
to disk and renamed over it only when complete, so a failed write leaves no
partial file and an existing target as it was.  The header follows from the
tensors' shapes, so each tensor is written at its offset in turn, a range
at a time by the chunk workers (:func:`_for_chunks`), each range at its own
offset, and let go before the next one is formed.  A block with a ``part``
forms each range on the worker that writes it, so no tensor of it is held
whole; any other value is formed (a block) or converted (an array) and
checked whole, then sliced.  A read opens the file, checks the header (its
text must encode back to UTF-8) and layout, and reads each tensor at its
offset when it is asked for (:class:`TensorFile`).  Reads and writes are
made by position (``preadv``/``pwrite``), so threads share a descriptor
without a lock or a seek.
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

# Entries per step of DARE's drops and TIES's sign election and disjoint
# mean: their float64 temporaries stay cache-sized whatever the layer size.
_CHUNK = 1 << 16

# Threads that run the chunks: one per CPU this process may run on, at most
# _MAX_WORKERS, and at most one per two chunks of a job (see _for_chunks).
# The numpy kernels release the interpreter lock, so the chunks run in
# parallel.  Each running step holds about 2.4 MiB of scratch (three models,
# DARE+TIES; a step holds each model's chunk and its float64 sums), so
# peak memory grows with the count; merge time and peak memory have been
# measured at two workers only.
_MAX_WORKERS = 2
_WORKERS = min(
    _MAX_WORKERS,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)

# Entries per range the writer forms and writes, on the chunk workers: one
# chunk, so a streamed layer's writer holds one merged chunk per worker.
# With no larger buffer freed, glibc's dynamic mmap and trim thresholds stay
# low and return each chunk's scratch to the system, to be faulted back in;
# ``cli.main`` fixes both thresholds (see ``cli._steady_heap``).
_SLAB = _CHUNK

_steps = threading.local()  # ``running``: this thread is inside a chunk step


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
    the rest, for integer bounds in ``[0, size]`` with ``start <= stop``; any
    other range is a ParameterError naming the tensor before anything is
    read (:func:`_checked_range`).  :func:`write_tensors` writes a block unchecked."""

    __slots__ = ()
    part: Callable[[int, int], np.ndarray] | None = None


def _checked_range(start, stop, size: int, name: str) -> tuple[int, int]:
    """``part``'s bounds as ints, for tensor ``name`` of ``size`` entries."""
    if not (is_integer(start) and is_integer(stop) and 0 <= int(start) <= int(stop) <= size):
        raise ParameterError(f"range [{start}, {stop}) is outside tensor {name!r}")
    return int(start), int(stop)


def _slices(values: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """A ``part`` that slices the flat entries of ``values``, held whole."""
    flat = values.ravel()
    return lambda start, stop: flat[start:stop]


def _for_chunks(step: Callable[[int], None], size: int, stride: int = _CHUNK) -> None:
    """Run ``step(start)`` for every start, ``stride`` entries apart, of a
    ``size``-entry job.

    The calling thread and up to ``_WORKERS - 1`` helper threads take starts
    from one shared iterator, with a thread for every two chunks and no more
    threads than starts: a job of fewer than four chunks, such as TIES on
    KnOTS task parts, stays on the calling thread, as a helper's start and
    the malloc arena that then keeps its scratch for the rest of the process
    would cost more than it saves.  A job started inside a step (the merge
    of a range the writer writes) runs on the thread of that step, so no
    more than ``_WORKERS`` threads ever run steps.  A helper that cannot be
    started is done without.  Each step writes only its own output slice
    and keeps its scratch to itself, so the bytes do not depend on which
    thread runs which start.  Once a step raises, no thread takes another
    start, and after every helper has finished the error of the lowest
    failing start is re-raised here.  Starts are taken in order and a thread
    ends the step it holds before it stops, so every step below that start
    has run: the error raised does not depend on the thread schedule.
    """
    starts = iter(range(0, size, stride))
    lock = threading.Lock()
    errors: list[tuple[int, BaseException]] = []

    def drain() -> None:
        nested = getattr(_steps, "running", False)
        _steps.running = True
        try:
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                try:
                    step(start)
                except BaseException as exc:  # re-raised by the calling thread
                    errors.append((start, exc))
        finally:
            _steps.running = nested

    threads = 1
    if not getattr(_steps, "running", False):
        threads = min(_WORKERS, -(-size // _CHUNK) // 2, -(-size // stride))
    helpers: list[threading.Thread] = []
    try:
        for _ in range(threads - 1):
            thread = threading.Thread(target=drain)
            try:
                thread.start()
            except RuntimeError:  # no thread to spare: the running ones drain the rest
                break
            helpers.append(thread)
        drain()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def write_tensors(path: str, tensors: Mapping, metadata: dict[str, str] | None = None) -> None:
    """Write named float32 tensors (and optional string metadata) to ``path``.

    Each value is a :class:`CheckedBlock` or anything else that converts to
    a float32 array.  The header takes the shapes from ``np.shape``; then,
    in the mapping's order, each value is written at its offset in the
    sorted-name layout ``_SLAB`` entries at a time, each range formed and
    written at its offset by a chunk worker (:func:`_for_chunks`).  A
    block's ``part`` forms each range on its worker, let go once written;
    any other value is formed whole (a block's ``values``) or converted and
    checked for non-finite entries, sliced, and let go before the next is
    formed.
    """
    if not tensors:
        raise FormatError("refusing to write a container with no tensors")
    shapes: dict[str, tuple[int, ...]] = {}
    for name, value in tensors.items():
        if not isinstance(name, str):
            raise FormatError(f"tensor names must be strings, got {name!r}")
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

    try:  # a lone surrogate in a name or metadata string: no reader could take it back
        blob = _canonical_header_bytes(header)
    except UnicodeEncodeError as exc:
        raise FormatError(f"header text is not valid Unicode ({exc.reason})") from exc
    base = _LEN_BYTES + len(blob)
    with replacing(path) as fh:
        fh.write(struct.pack(_LEN_FMT, len(blob)))
        fh.write(blob)
        fh.flush()  # the ranges are written past it, by position
        fd = fh.fileno()
        for name, value in tensors.items():
            offset = base + header[name]["data_offsets"][0]
            _write_tensor(fd, offset, name, value, shapes[name])


def _write_tensor(fd: int, offset: int, name: str, value, shape: tuple[int, ...]) -> None:
    """Write tensor ``name`` (see :func:`write_tensors`) at ``offset`` of the
    file open as ``fd``; what it formed is let go on return."""
    block = isinstance(value, CheckedBlock)
    part = value.part if block else None
    if part is None:
        arr = np.ascontiguousarray(value.values if block else value, dtype=_F32)
        if arr.shape != shape:
            raise FormatError(f"tensor {name!r} is {arr.shape}, its block says {shape}")
        if not block and not np.isfinite(arr).all():
            raise DataError(f"tensor {name!r} contains non-finite values")
        part = _slices(arr)
    size = math.prod(shape)
    slab = _SLAB

    def write(start: int) -> None:
        stop = min(start + slab, size)
        arr = np.ascontiguousarray(part(start, stop), dtype=_F32)
        if arr.shape != (stop - start,):
            raise FormatError(
                f"tensor {name!r} gives {arr.shape} for entries "
                f"[{start}, {stop}), its block says {shape}"
            )
        _write_at(fd, memoryview(arr).cast("B"), offset + 4 * start)

    _for_chunks(write, size, slab)


@contextlib.contextmanager
def replacing(path: str) -> Iterator[BinaryIO]:
    """A new binary file that takes the place of ``path`` when the block
    completes: a temporary file beside it, synced to disk, renamed over it
    then and removed on failure, so an existing target is left as it was.
    An OSError is a StorageError naming ``path``.  The directory is then
    synced too, so the rename survives a crash, where the platform and file
    system allow it; the output is in place either way."""
    directory, filename = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{filename}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(temp, "xb")
        try:
            with fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
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
    with contextlib.suppress(OSError):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


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


def _read_at(fd: int, buffer: memoryview, offset: int, path: str) -> None:
    """Fill ``buffer`` from ``offset`` of the file open as ``fd``."""
    done = 0
    while done < len(buffer):
        got = os.preadv(fd, [buffer[done:]], offset + done)
        if not got:
            raise FormatError(f"{path}: file ended {len(buffer) - done} bytes early")
        done += got


def _write_at(fd: int, buffer: memoryview, offset: int) -> None:
    """Write all of ``buffer`` at ``offset`` of the file open as ``fd``."""
    done = 0
    while done < len(buffer):
        done += os.pwrite(fd, buffer[done:], offset + done)


def _read_header(fh, path: str) -> tuple[dict, int, int]:
    """The parsed header, the payload's start in the file and its size."""
    size = os.fstat(fh.fileno()).st_size
    if size < _LEN_BYTES:
        raise FormatError(f"{path}: file too short for a header length field")
    field = bytearray(_LEN_BYTES)
    _read_at(fh.fileno(), memoryview(field), 0, path)
    (header_len,) = struct.unpack(_LEN_FMT, field)
    if header_len > size - _LEN_BYTES:
        raise FormatError(f"{path}: header length {header_len} exceeds file size {size}")
    raw = bytearray(header_len)
    _read_at(fh.fileno(), memoryview(raw), _LEN_BYTES, path)
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
    go by position through the descriptor opened here, so threads may read
    at once, and they see the file that was checked even after its path is
    replaced; it stays open until :meth:`close` or until the object is
    collected.
    """

    _fh = None

    def __init__(self, path: str) -> None:
        self.path = path
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
        offset and checked for non-finite values, as :meth:`read` is (the
        range as :class:`CheckedBlock` says for ``part``)."""
        start, stop = _checked_range(start, stop, math.prod(self.shapes[name]), name)
        payload = np.empty(4 * (stop - start), dtype=np.uint8)
        offset = self._base + self._begins[name] + 4 * start
        try:
            _read_at(self._fh.fileno(), memoryview(payload), offset, self.path)
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
