"""Cosine similarity analysis between per-model delta maps.

Each model's deltas form one long vector (layers in lexicographic name
order, row-major within a layer) and pairwise cosines populate a
symmetric matrix with unit diagonal.  Low off-diagonal values indicate the
models occupy nearly orthogonal directions, i.e. little interference when
merged.  The vectors are never concatenated: one pass over the layers
takes each pair's float64 dot product per layer, one layer per model held.
Every dot product runs with OpenBLAS on one thread (:func:`blas.one_thread`),
as its sum is split, and rounded, by the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import DeltaMap
from .blas import one_thread
from .errors import AlignmentError, DataError, ParameterError, SimilarityUndefinedError
from .merging import _aligned_layers


_TINY = np.finfo(np.float64).tiny  # the smallest normal float64


def flatten(delta: DeltaMap) -> np.ndarray:
    """One float32 vector: layers in lexicographic order, row-major within."""
    return np.concatenate([delta.layers[k].values.ravel() for k in sorted(delta.layers)])


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two finite vectors, in [-1, 1]."""
    a = np.asarray(u, dtype=np.float64).ravel()
    b = np.asarray(v, dtype=np.float64).ravel()
    if a.size != b.size:
        raise AlignmentError(f"vector lengths differ: {a.size} vs {b.size}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("cosine of a vector with non-finite values is undefined")
    with one_thread(), np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dots = np.dot(a, b), np.dot(a, a), np.dot(b, b)
        lost = (dots[1] < _TINY and a.any()) or (dots[2] < _TINY and b.any())
        if lost or not np.isfinite(dots).all():
            # a sum overflowed, or a nonzero squared norm fell below the
            # normal range: scaled by a power of two, each vector's largest
            # magnitude is in [0.5, 1), where neither can happen
            a, b = _scaled(a), _scaled(b)
            dots = np.dot(a, b), np.dot(a, a), np.dot(b, b)
    return _score(*dots)


def _scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that puts its largest magnitude in [0.5, 1)."""
    if not x.any():
        return x
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def _score(dot: float, norm2_a: float, norm2_b: float) -> float:
    """The cosine of two vectors from their dot product and squared norms."""
    if norm2_a == 0.0 or norm2_b == 0.0:
        raise SimilarityUndefinedError("cosine against an all-zero vector is undefined")
    return float(np.clip(dot / (math.sqrt(norm2_a) * math.sqrt(norm2_b)), -1.0, 1.0))


@dataclass(frozen=True)
class SimilarityMatrix:
    labels: tuple[str, ...]
    values: np.ndarray  # square, symmetric, unit diagonal

    def to_csv(self) -> str:
        """Header row of labels, then one label-prefixed row per model.

        Values use fixed 6-decimal formatting with '.' as the separator.
        """
        lines = ["," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.values):
            lines.append(label + "," + ",".join(f"{x:.6f}" for x in row))
        return "\n".join(lines) + "\n"


def similarity_matrix(deltas: Sequence[DeltaMap], per_layer: bool = False) -> SimilarityMatrix:
    """Pairwise cosine similarity between the models' delta vectors.

    With ``per_layer=True`` each pair's score is the unweighted mean of
    per-layer cosines instead of the cosine of the whole vectors.  Either
    way one layer of each model is held at a time, read (or densified) once.
    """
    if len(deltas) < 2:
        raise ParameterError("need at least two delta maps")
    n = len(deltas)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    dots = []  # per layer: the float64 dot product of each pair of models
    for name in _aligned_layers(deltas):
        layer = [d.layers[name].values.ravel() for d in deltas]
        dot = np.empty((n, n))
        with one_thread():
            for i, j in pairs:  # one pair widened at a time
                a, b = layer[i].astype(np.float64), layer[j].astype(np.float64)
                dot[i, j] = dot[j, i] = np.dot(a, b)
        dots.append(dot)
    total = sum(dots)
    values = np.empty((n, n), dtype=np.float64)
    for i, j in pairs:
        if per_layer:
            score = np.mean([_score(dot[i, j], dot[i, i], dot[j, j]) for dot in dots])
        else:
            score = _score(total[i, j], total[i, i], total[j, j])
        values[i, j] = values[j, i] = score
    values.setflags(write=False)
    return SimilarityMatrix(tuple(d.label for d in deltas), values)
