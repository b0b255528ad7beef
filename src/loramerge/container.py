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
supported; non-finite payload values are rejected at load time.

A write goes to a temporary file beside the target and is renamed over it
only when complete, so a failed write leaves no partial file.  A read copies
the payload once into a fresh buffer and hands out read-only views of it.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DataError, FormatError, OverlapError, StorageError

_LEN_FMT = "<Q"
_LEN_BYTES = 8
_F32 = np.dtype("<f4")


def _canonical_header_bytes(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":"), sort_keys=True, ensure_ascii=False).encode(
        "utf-8"
    )


def write_tensors(path: str, tensors: dict[str, np.ndarray], metadata: dict[str, str] | None = None) -> None:
    """Write named float32 arrays (and optional string metadata) to ``path``."""
    if not tensors:
        raise FormatError("refusing to write a container with no tensors")
    arrays: dict[str, np.ndarray] = {}
    for name in sorted(tensors):
        if not name:
            raise FormatError("tensor names must be non-empty")
        arr = np.ascontiguousarray(tensors[name], dtype=_F32)
        if arr.ndim < 1 or any(d < 1 for d in arr.shape):
            raise FormatError(f"tensor {name!r} must have >=1 dimension, all sizes >=1")
        if not np.isfinite(arr).all():
            raise DataError(f"tensor {name!r} contains non-finite values")
        arrays[name] = arr

    header: dict = {}
    if metadata is not None:
        for key, value in metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise FormatError("metadata keys and values must be strings")
        header["__metadata__"] = dict(metadata)

    offset = 0
    for name, arr in arrays.items():
        nbytes = arr.size * 4
        header[name] = {
            "dtype": "F32",
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes

    blob = _canonical_header_bytes(header)
    directory, base = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{base}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(temp, "xb")
    except OSError as exc:
        raise _write_error(path, exc) from exc
    try:
        with fh:
            fh.write(struct.pack(_LEN_FMT, len(blob)))
            fh.write(blob)
            for arr in arrays.values():
                fh.write(memoryview(arr).cast("B"))
        os.replace(temp, path)
    except BaseException as exc:
        try:
            os.unlink(temp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise _write_error(path, exc) from exc
        raise


def _write_error(path: str, exc: OSError) -> StorageError:
    if exc.errno is not None and exc.filename is not None:
        # name the target, not the temporary file, as a direct write would
        exc = OSError(exc.errno, exc.strerror, path)
    return StorageError(f"cannot write {path}: {exc}")


def _parse_header(raw: bytes | bytearray, path: str) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: header is not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be a JSON object")
    return header


def _read_exact(fh, buffer: memoryview, path: str) -> None:
    done = 0
    while done < len(buffer):
        got = fh.readinto(buffer[done:])
        if not got:
            raise FormatError(f"{path}: file ended {len(buffer) - done} bytes early")
        done += got


def _read_raw(path: str, with_payload: bool = True) -> tuple[dict, np.ndarray | None]:
    """Read the header and, if asked, the payload into one fresh read-only
    buffer."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _LEN_BYTES:
                raise FormatError(f"{path}: file too short for a header length field")
            field = bytearray(_LEN_BYTES)
            _read_exact(fh, memoryview(field), path)
            (header_len,) = struct.unpack(_LEN_FMT, field)
            if header_len > size - _LEN_BYTES:
                raise FormatError(
                    f"{path}: header length {header_len} exceeds file size {size}"
                )
            raw = bytearray(header_len)
            _read_exact(fh, memoryview(raw), path)
            header = _parse_header(raw, path)
            if not with_payload:
                return header, None
            payload = np.empty(size - _LEN_BYTES - header_len, dtype=np.uint8)
            _read_exact(fh, memoryview(payload), path)
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    payload.setflags(write=False)
    return header, payload


def read_header(path: str) -> dict:
    """Parse and return the raw JSON header of a container file; the payload
    is not read."""
    header, _ = _read_raw(path, with_payload=False)
    return header


def read_tensors(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Load all tensors and metadata from ``path``, validating the layout.

    Returns ``(tensors, metadata)`` where arrays are float32, C-order, and
    read-only views of one buffer holding the file's payload, read with a
    single copy.  Raises FormatError / OverlapError / DataError on malformed
    files and StorageError when the file cannot be read.
    """
    header, payload = _read_raw(path)

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

    spans: list[tuple[int, int, str]] = []
    tensors: dict[str, np.ndarray] = {}
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entry for {name!r} must be an object")
        if entry.get("dtype") != "F32":
            raise FormatError(f"{path}: tensor {name!r} has unsupported dtype {entry.get('dtype')!r}")
        shape = entry.get("shape")
        if (
            not isinstance(shape, list)
            or not shape
            or not all(isinstance(d, int) and d >= 1 for d in shape)
        ):
            raise FormatError(f"{path}: tensor {name!r} has invalid shape {shape!r}")
        offsets = entry.get("data_offsets")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and o >= 0 for o in offsets)
        ):
            raise FormatError(f"{path}: tensor {name!r} has invalid data_offsets {offsets!r}")
        begin, end = offsets
        nbytes = 4 * math.prod(shape)
        if end - begin != nbytes:
            raise FormatError(
                f"{path}: tensor {name!r} spans {end - begin} bytes, shape needs {nbytes}"
            )
        if end > len(payload):
            raise FormatError(f"{path}: tensor {name!r} offsets exceed the payload")
        spans.append((begin, end, name))

    spans.sort()
    cursor = 0
    for begin, end, name in spans:
        if begin < cursor:
            raise OverlapError(f"{path}: tensor {name!r} overlaps the previous buffer")
        if begin > cursor:
            raise FormatError(f"{path}: gap before tensor {name!r} at offset {begin}")
        cursor = end
    if cursor != len(payload):
        raise FormatError(f"{path}: {len(payload) - cursor} trailing payload bytes")

    # views of the read-only payload, which starts its own buffer: every
    # offset is a multiple of 4, so each view is aligned whatever the header
    # length
    for name, entry in header.items():
        begin, end = entry["data_offsets"]
        arr = payload[begin:end].view(_F32).reshape(entry["shape"])
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {name!r} contains non-finite values")
        tensors[name] = arr
    return tensors, metadata
