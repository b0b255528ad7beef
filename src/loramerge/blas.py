"""Single-threaded LAPACK sections.

OpenBLAS splits a large QR or SVD over its threads, and the split changes
the rounding: the same SVD can give different bytes at
``OPENBLAS_NUM_THREADS=1`` and ``2``.  numpy's wheels bundle scipy-openblas,
which exports calls that read and set its thread count; :func:`one_thread`
sets it to 1 around a LAPACK call and restores it afterwards.  With a BLAS
that lacks those calls it does nothing.

The count is process-wide: a BLAS call made on another thread inside the
section runs single-threaded too.  Sections may nest and may overlap on
several threads; the count is saved when the first one starts and restored
when the last one ends.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

_lock = threading.Lock()
_depth = 0  # sections open now, on any thread
_saved = 0  # the count before the first of them


@functools.cache
def _thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The bundled OpenBLAS's get/set thread-count calls, or None.

    The library is the one numpy has already loaded (``numpy.libs``, beside
    the package), so opening it again returns the same instance.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def one_thread() -> Iterator[None]:
    """Run the body with the bundled OpenBLAS on one thread, so a LAPACK call
    in it gives the same bytes whatever the thread count outside."""
    global _depth, _saved
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
