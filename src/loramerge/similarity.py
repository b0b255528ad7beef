"""Cosine similarity analysis between per-model delta maps.

Each model's deltas flatten to one long vector (layers in lexicographic
name order, row-major within a layer) and pairwise cosines populate a
symmetric matrix with unit diagonal.  Low off-diagonal values indicate the
models occupy nearly orthogonal directions, i.e. little interference when
merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import DeltaMap
from .errors import AlignmentError, ParameterError, SimilarityUndefinedError
from .merging import _aligned_layers


def flatten(delta: DeltaMap) -> np.ndarray:
    """One float32 vector: layers in lexicographic order, row-major within."""
    delta.validate()
    return np.concatenate([delta.layers[k].values.ravel() for k in sorted(delta.layers)])


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1]."""
    a = np.asarray(u, dtype=np.float64).ravel()
    b = np.asarray(v, dtype=np.float64).ravel()
    if a.size != b.size:
        raise AlignmentError(f"vector lengths differ: {a.size} vs {b.size}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise SimilarityUndefinedError("cosine against an all-zero vector is undefined")
    return float(np.clip(np.dot(a, b) / (norm_a * norm_b), -1.0, 1.0))


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
    per-layer cosines instead of the cosine of the fully flattened vectors,
    and only one layer of each model is held at a time.
    """
    if len(deltas) < 2:
        raise ParameterError("need at least two delta maps")
    names = _aligned_layers(deltas)
    n = len(deltas)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if per_layer:
        # one layer of every model at a time, each densified once (a low-rank
        # layer forms its values on every read)
        cosines: dict = {pair: [] for pair in pairs}
        for name in names:
            layer = [d.layers[name].values for d in deltas]
            for i, j in pairs:
                cosines[i, j].append(cosine(layer[i], layer[j]))
        scores = [float(np.mean(cosines[pair])) for pair in pairs]
    else:
        vectors = [flatten(d) for d in deltas]
        scores = [cosine(vectors[i], vectors[j]) for i, j in pairs]
    values = np.empty((n, n), dtype=np.float64)
    for (i, j), score in zip(pairs, scores):
        values[i, j] = values[j, i] = score
    values.setflags(write=False)
    return SimilarityMatrix(tuple(d.label for d in deltas), values)
