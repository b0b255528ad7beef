"""Merging engine: TIES, DARE, and KnOTS over delta maps.

TIES merges in three steps: trim each model's deltas to the top-density
fraction by magnitude, elect a per-entry consensus sign from the weighted
sum, then average the sign-consistent values (weighted).  DARE is a
precursor that randomly zeroes entries with probability ``p`` and rescales
survivors by ``1 / (1 - p)`` to preserve the expected value.  KnOTS is a
precursor that concatenates the per-model deltas layer by layer, applies a
thin SVD to obtain a shared left basis and per-model task components, runs
the inner merge on those components, and reconstructs.

Supported pipelines are TIES, KNOTS+TIES, DARE+TIES, and DARE+KNOTS+TIES;
DARE and KnOTS are not standalone merges, so every pipeline ends in TIES.

Note on DARE's rescale: some write-ups quote a factor of ``p / (1 - p)``,
which is biased for every ``p != 0.5``; the expectation-preserving factor
``1 / (1 - p)`` is used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .adapters import DeltaMap, TensorBlock
from .errors import AlignmentError, NumericalError, ParameterError
from .rng import uniform_stream

_PIPELINES = {
    ("TIES",),
    ("KNOTS", "TIES"),
    ("DARE", "TIES"),
    ("DARE", "KNOTS", "TIES"),
}


@dataclass(frozen=True)
class MergeConfig:
    """Method pipeline plus the density / drop-rate / weight / seed knobs.

    ``drop_rate`` defaults to ``1 - density`` when DARE is in the pipeline,
    so one density number drives both knobs; pass it explicitly to decouple
    them.  ``weights`` of None means equal weighting.
    """

    pipeline: tuple[str, ...] = ("TIES",)
    density: float = 1.0
    drop_rate: float | None = None
    weights: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        pipeline = tuple(str(step).upper() for step in self.pipeline)
        object.__setattr__(self, "pipeline", pipeline)
        if pipeline not in _PIPELINES:
            raise ParameterError(
                f"unsupported pipeline {list(pipeline)}; must be one of "
                "[TIES], [KNOTS, TIES], [DARE, TIES], [DARE, KNOTS, TIES]"
            )
        if not (isinstance(self.density, (int, float)) and 0.0 < self.density <= 1.0):
            raise ParameterError(f"density must be in (0, 1], got {self.density!r}")
        object.__setattr__(self, "density", float(self.density))
        if self.drop_rate is not None:
            if not (isinstance(self.drop_rate, (int, float)) and 0.0 <= self.drop_rate < 1.0):
                raise ParameterError(f"drop_rate must be in [0, 1), got {self.drop_rate!r}")
            object.__setattr__(self, "drop_rate", float(self.drop_rate))
        if self.weights is not None:
            try:
                weights = tuple(float(w) for w in self.weights)
            except (TypeError, ValueError):
                raise ParameterError(
                    f"weights must be numbers, got {self.weights!r}"
                ) from None
            if not weights or any(not (w > 0 and math.isfinite(w)) for w in weights):
                raise ParameterError("weights must be positive finite numbers")
            object.__setattr__(self, "weights", weights)
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    @property
    def effective_drop_rate(self) -> float:
        return self.drop_rate if self.drop_rate is not None else 1.0 - self.density

    def weight_vector(self, count: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(count, dtype=np.float64)
        if len(self.weights) != count:
            raise ParameterError(
                f"{len(self.weights)} weights for {count} input models"
            )
        return np.asarray(self.weights, dtype=np.float64)

    def summary(self) -> str:
        parts = [f"density={self.density:g}"]
        if "DARE" in self.pipeline:
            parts.append(f"drop_rate={self.effective_drop_rate:g}")
            parts.append(f"seed={self.seed}")
        if self.weights is not None:
            parts.append("weights=" + ",".join(f"{w:g}" for w in self.weights))
        return "-".join(self.pipeline) + "(" + ", ".join(parts) + ")"

    def to_json_dict(self) -> dict:
        doc: dict = {"pipeline": list(self.pipeline), "density": self.density}
        if self.drop_rate is not None:
            doc["drop_rate"] = self.drop_rate
        if self.weights is not None:
            doc["weights"] = list(self.weights)
        doc["seed"] = self.seed
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MergeConfig":
        if not isinstance(doc, dict):
            raise ParameterError("merge config must be a JSON object")
        known = {"pipeline", "density", "drop_rate", "weights", "seed"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ParameterError(f"unknown merge config keys: {unknown}")
        kwargs: dict = {}
        if "pipeline" in doc:
            if not isinstance(doc["pipeline"], list):
                raise ParameterError("config 'pipeline' must be a list of method names")
            kwargs["pipeline"] = tuple(doc["pipeline"])
        if "density" in doc:
            kwargs["density"] = doc["density"]
        if "drop_rate" in doc:
            kwargs["drop_rate"] = doc["drop_rate"]
        if "weights" in doc:
            if not isinstance(doc["weights"], list):
                raise ParameterError("config 'weights' must be a list of numbers")
            kwargs["weights"] = tuple(doc["weights"])
        if "seed" in doc:
            if not isinstance(doc["seed"], int):
                raise ParameterError("config 'seed' must be an integer")
            kwargs["seed"] = doc["seed"]
        return cls(**kwargs)


def _aligned_layers(deltas: Sequence[DeltaMap]) -> list[str]:
    """Shared layer names (sorted); raises if geometry differs."""
    if not deltas:
        raise ParameterError("need at least one input delta map")
    names = sorted(deltas[0].layers)
    for other in deltas[1:]:
        if sorted(other.layers) != names:
            raise AlignmentError(
                f"layer names differ: {names} vs {sorted(other.layers)}"
            )
        for layer in names:
            a = deltas[0].layers[layer].shape
            b = other.layers[layer].shape
            if a != b:
                raise AlignmentError(f"layer {layer!r} shapes differ: {a} vs {b}")
    return names


def _trim_count(density: float, size: int) -> int:
    # ceil(density * size) over the decimal value of density (its shortest
    # repr), not its binary approximation: the float product can cross an
    # integer boundary either way (0.1 * 30 vs Fraction(0.8) * 5).
    return int(math.ceil(Fraction(repr(float(density))) * size))


def _trim_values(values: np.ndarray, density: float) -> np.ndarray:
    flat = values.ravel()
    keep = _trim_count(density, flat.size)
    if keep >= flat.size:
        return values
    # keep the `keep` largest magnitudes; equal magnitudes keep the lower
    # flat index, as a stable sort on -|v| would
    mag = np.abs(flat)
    kth = flat.size - keep
    threshold = np.partition(mag, kth)[kth]
    mask = mag > threshold
    ties = np.flatnonzero(mag == threshold)
    mask[ties[: keep - np.count_nonzero(mask)]] = True
    return np.where(mask, flat, np.float32(0.0)).reshape(values.shape)


def trim(delta: DeltaMap, density: float) -> DeltaMap:
    """Keep the ceil(density * n) largest-magnitude entries per tensor."""
    if not 0.0 < density <= 1.0:
        raise ParameterError(f"density must be in (0, 1], got {density!r}")
    layers = {
        layer: TensorBlock(block.name, _trim_values(block.values, density))
        for layer, block in delta.layers.items()
    }
    return DeltaMap(layers, delta.label)


def dare_prune(delta: DeltaMap, drop_rate: float, seed: int = 0) -> DeltaMap:
    """Zero entries independently with probability ``drop_rate`` and rescale
    survivors by ``1 / (1 - drop_rate)``.

    Drops come from a counter-based stream keyed by (seed, map label,
    tensor name), so results are reproducible and schedule-independent.
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ParameterError(f"drop_rate must be in [0, 1), got {drop_rate!r}")
    if drop_rate == 0.0:
        return DeltaMap(dict(delta.layers), delta.label)
    scale = 1.0 / (1.0 - drop_rate)
    layers: dict[str, TensorBlock] = {}
    for layer, block in delta.layers.items():
        u = uniform_stream(seed, delta.label, layer, block.size).reshape(block.shape)
        kept = np.where(u >= drop_rate, block.values.astype(np.float64) * scale, 0.0)
        layers[layer] = TensorBlock(block.name, kept.astype(np.float32))
    return DeltaMap(layers, delta.label)


def _elect(values: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    total = np.zeros(values[0].shape, dtype=np.float64)
    term = np.empty_like(total)
    for w, v in zip(weights, values):
        np.multiply(v, w, out=term, dtype=np.float64)
        total += term
    return np.sign(total, out=total).astype(np.int8)


def _disjoint(values: Sequence[np.ndarray], signs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    numer = np.zeros(signs.shape, dtype=np.float64)
    denom = np.zeros(signs.shape, dtype=np.float64)
    term = np.empty(signs.shape, dtype=np.float64)
    elected = signs != 0
    for w, v in zip(weights, values):
        match = (np.sign(v) == signs) & elected
        np.multiply(v, w, out=term, dtype=np.float64)
        term *= match
        numer += term
        np.multiply(match, w, out=term)
        denom += term
    # entries no model matches (denom 0) come out as +0.0
    term.fill(0.0)
    np.divide(numer, denom, out=term, where=denom > 0)
    return term.astype(np.float32)


def _ties_layer(values: Sequence[np.ndarray], density: float, weights: np.ndarray) -> np.ndarray:
    """Trim, elect sign and disjoint-merge one layer across the models."""
    trimmed = [_trim_values(v, density) for v in values]
    return _disjoint(trimmed, _elect(trimmed, weights), weights)


def elect_sign(
    trimmed: Sequence[DeltaMap], weights: Sequence[float] | None = None
) -> dict[str, np.ndarray]:
    """Per-entry consensus sign: the sign of the weighted sum across models.

    Entries are int8 in {-1, 0, +1}; an exact zero sum stays 0.
    """
    names = _aligned_layers(trimmed)
    w = MergeConfig(weights=weights).weight_vector(len(trimmed))
    return {
        layer: _elect([d.layers[layer].values for d in trimmed], w) for layer in names
    }


def disjoint_merge(
    trimmed: Sequence[DeltaMap],
    signs: dict[str, np.ndarray],
    weights: Sequence[float] | None = None,
) -> DeltaMap:
    """Weighted mean over the models whose value carries the elected sign."""
    names = _aligned_layers(trimmed)
    if sorted(signs) != names:
        raise AlignmentError("sign map layers do not match the inputs")
    w = MergeConfig(weights=weights).weight_vector(len(trimmed))
    layers = {
        layer: TensorBlock(
            layer, _disjoint([d.layers[layer].values for d in trimmed], signs[layer], w)
        )
        for layer in names
    }
    return DeltaMap(layers, _joint_label(trimmed))


def _joint_label(deltas: Sequence[DeltaMap]) -> str:
    return "+".join(d.label for d in deltas if d.label)


def ties_merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """Trim, elect sign, and disjoint-merge each layer."""
    names = _aligned_layers(deltas)
    w = config.weight_vector(len(deltas))
    layers = {
        layer: TensorBlock(
            layer, _ties_layer([d.layers[layer].values for d in deltas], config.density, w)
        )
        for layer in names
    }
    return DeltaMap(layers, _joint_label(deltas))


@dataclass(frozen=True)
class KnotsFactors:
    """Thin SVD of the layerwise concatenation ``[d_1 | ... | d_M]``.

    ``u`` is the shared left basis (d_out x k); ``v_parts`` holds the M
    task-specific components, each pre-scaled by the singular values so
    ``u @ v_parts[m]`` reconstructs model m's delta.
    """

    u: TensorBlock
    singular_values: np.ndarray
    v_parts: list[TensorBlock]


def knots_transform(deltas: Sequence[DeltaMap]) -> dict[str, KnotsFactors]:
    """Concatenate the models' layers horizontally and factor with thin SVD."""
    if len(deltas) < 2:
        raise ParameterError("KnOTS needs at least two input models")
    names = _aligned_layers(deltas)
    count = len(deltas)
    out: dict[str, KnotsFactors] = {}
    for layer in names:
        blocks = [d.layers[layer].values.astype(np.float64) for d in deltas]
        concat = np.hstack(blocks)
        try:
            u, s, vt = np.linalg.svd(concat, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge on layer {layer!r}") from exc
        scaled_vt = s[:, None] * vt
        parts = [
            TensorBlock(f"{layer}.task{m}", part.astype(np.float32))
            for m, part in enumerate(np.hsplit(scaled_vt, count))
        ]
        out[layer] = KnotsFactors(
            TensorBlock(f"{layer}.basis", u.astype(np.float32)),
            s,
            parts,
        )
    return out


def knots_merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """TIES-merge the task components in the shared basis, then reconstruct."""
    if "KNOTS" not in config.pipeline:
        raise ParameterError("knots_merge requires a pipeline containing KNOTS")
    factors = knots_transform(deltas)
    w = config.weight_vector(len(deltas))
    layers: dict[str, TensorBlock] = {}
    for layer, fac in factors.items():
        merged = _ties_layer([p.values for p in fac.v_parts], config.density, w)
        reconstructed = fac.u.values.astype(np.float64) @ merged.astype(np.float64)
        layers[layer] = TensorBlock(layer, reconstructed.astype(np.float32))
    return DeltaMap(layers, _joint_label(deltas))


def merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """Run the configured pipeline and label the result with its summary."""
    if not deltas:
        raise ParameterError("need at least one input delta map")
    config.weight_vector(len(deltas))

    inputs = list(deltas)
    if "DARE" in config.pipeline:
        p = config.effective_drop_rate
        inputs = [dare_prune(d, p, config.seed) for d in inputs]
    if "KNOTS" in config.pipeline:
        merged = knots_merge(inputs, config)
    else:
        merged = ties_merge(inputs, config)
    return DeltaMap(merged.layers, config.summary())
