"""Counter-based uniform streams for reproducible random dropping.

Each (seed, model label, tensor name) triple keys an independent Philox
stream, so the value at flat index ``i`` is a pure function of the triple
and ``i``.  Results do not depend on evaluation order or thread count, and
permuting the input models leaves each model's stream attached to it.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParameterError, is_integer


def checked_seed(seed) -> int:
    """``seed`` as an ``int``; ParameterError unless it is an integer in [0, 2**64)."""
    if not (is_integer(seed) and 0 <= int(seed) < 2**64):
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def stream_key(seed: int, label: str, name: str) -> int:
    """Derive a 128-bit Philox key from the (seed, label, name) triple."""
    seed = checked_seed(seed)
    import hashlib  # here, not at the top: a merge without DARE never loads OpenSSL

    digest = hashlib.blake2b(digest_size=16)
    digest.update(struct.pack("<Q", seed))
    for part in (label, name):
        data = part.encode("utf-8")
        # length-prefix each field so (label, name) pairs cannot collide
        digest.update(struct.pack("<Q", len(data)))
        digest.update(data)
    return int.from_bytes(digest.digest(), "little")


def uniform_stream(
    seed: int, label: str, name: str, count: int, start: int = 0
) -> np.ndarray:
    """Return ``count`` float64 uniforms in [0, 1) from the keyed stream,
    beginning at flat index ``start``: ``[start:start + count]`` of the
    stream drawn from 0, for any non-negative integer ``start``.

    Each Philox counter step yields four 64-bit words and each uniform takes
    one, so the draw begins at counter ``start // 4`` and the ``start % 4``
    uniforms before ``start`` are drawn and dropped.
    """
    if not (is_integer(start) and int(start) >= 0):
        raise ParameterError(f"stream start must be a non-negative integer, got {start!r}")
    if not (is_integer(count) and int(count) >= 0):
        raise ParameterError(f"stream count must be a non-negative integer, got {count!r}")
    start = int(start)
    count = int(count)
    skip = start % 4
    bitgen = np.random.Philox(key=stream_key(seed, label, name), counter=start // 4)
    return np.random.Generator(bitgen).random(count + skip)[skip:]
