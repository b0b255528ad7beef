"""Merging engine: TIES, DARE, and KnOTS over delta maps.

TIES merges in three steps: trim each model's deltas to the top-density
fraction by magnitude, elect a per-entry consensus sign from the weighted
sum, then average the sign-consistent values (weighted).  DARE is a
precursor that randomly zeroes entries with probability ``p`` and rescales
survivors by ``1 / (1 - p)`` to preserve the expected value.  KnOTS is a
precursor that concatenates the per-model deltas layer by layer, applies a
thin SVD to obtain a shared left basis and per-model task components, runs
the inner merge on those components, and reconstructs.  When every model's
layer is low-rank (adapter inputs), the SVD runs on the factors and the
reconstruction stays low-rank.

Supported pipelines are TIES, KNOTS+TIES, DARE+TIES, and DARE+KNOTS+TIES;
DARE and KnOTS are not standalone merges, so every pipeline ends in TIES.

Note on DARE's rescale: some write-ups quote a factor of ``p / (1 - p)``,
which is biased for every ``p != 0.5``; the expectation-preserving factor
``1 / (1 - p)`` is used here.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .adapters import DeltaMap, LowRankBlock, TensorBlock, factored_svd
from .errors import AlignmentError, NumericalError, ParameterError
from .rng import uniform_stream

_PIPELINES = {
    ("TIES",),
    ("KNOTS", "TIES"),
    ("DARE", "TIES"),
    ("DARE", "KNOTS", "TIES"),
}

# Entries per step of DARE's drops and TIES's sign election and disjoint
# mean: their float64 temporaries stay cache-sized whatever the layer size.
# A multiple of 4, so every chunk starts on a Philox counter boundary.
_CHUNK = 1 << 16

# Threads that run the chunks: one per CPU this process may run on, at most
# _MAX_WORKERS.  The numpy kernels release the interpreter lock, so the
# chunks run in parallel.  Each running step holds about 2.4 MB of float64
# scratch, so peak memory grows with the count; merge time and peak memory
# have been measured at two workers only.
_MAX_WORKERS = 2
_WORKERS = min(
    _MAX_WORKERS,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)


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


def _trim_count(density: float | Fraction, size: int) -> int:
    # ceil(density * size) over the decimal value of density (its shortest
    # repr), not its binary approximation: the float product can cross an
    # integer boundary either way (0.1 * 30 vs Fraction(0.8) * 5).  A
    # Fraction is taken as is, so a caller can ask for an exact count.
    if not isinstance(density, Fraction):
        density = Fraction(repr(float(density)))
    return int(math.ceil(density * size))


def _trim_values(values: np.ndarray, density: float | Fraction) -> np.ndarray:
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


def _for_chunks(step: Callable[[int], None], size: int) -> None:
    """Run ``step(start)`` for every chunk start of a ``size``-entry layer.

    The calling thread and up to ``_WORKERS - 1`` helper threads take starts
    from one shared iterator; a helper that cannot be started is done
    without.  Each step writes only its own output slice and
    keeps its scratch to itself, so the bytes do not depend on which thread
    runs which chunk.  Once a step raises, no thread takes another chunk;
    the first exception is re-raised here after every helper has finished.
    """
    starts = iter(range(0, size, _CHUNK))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain() -> None:
        try:
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                step(start)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for _ in range(min(_WORKERS, -(-size // _CHUNK)) - 1):
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
        raise errors[0]


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
        values = block.values.ravel()
        kept = np.empty(values.size, dtype=np.float32)

        def step(start: int) -> None:
            stop = min(start + _CHUNK, values.size)
            u = uniform_stream(seed, delta.label, layer, stop - start, start)
            part = np.multiply(values[start:stop], scale, dtype=np.float64)
            # an entry past float32 range becomes inf here and TensorBlock
            # rejects it; errstate is per thread, so it is set in the step
            with np.errstate(over="ignore"):
                kept[start:stop] = part
            # a dropped entry's bits are multiplied by 0, which makes it +0.0
            # whatever its sign, with no per-entry branch on the random mask
            bits = kept[start:stop].view(np.uint32)
            bits *= u >= drop_rate

        _for_chunks(step, values.size)
        layers[layer] = TensorBlock(block.name, kept.reshape(block.shape))
    return DeltaMap(layers, delta.label)


def _elect(values: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    total = np.zeros(values[0].shape, dtype=np.float64)
    term = np.empty_like(total)
    for w, v in zip(weights, values):
        term[...] = v
        term *= w
        total += term
    # two compares instead of np.sign, which branches on every entry
    return np.subtract(total > 0, total < 0, dtype=np.int8)


def _disjoint(values: Sequence[np.ndarray], signs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    numer = np.zeros(signs.shape, dtype=np.float64)
    denom = np.zeros(signs.shape, dtype=np.float64)
    term = np.empty(signs.shape, dtype=np.float64)
    unit = signs.astype(np.float32)
    carried = np.empty(signs.shape, dtype=np.float32)
    match = np.empty(signs.shape, dtype=bool)
    for w, v in zip(weights, values):
        # v carries the elected sign iff v * sign > 0; a zero never does
        np.multiply(v, unit, out=carried)
        np.greater(carried, 0.0, out=match)
        term[...] = v
        term *= w
        term *= match
        numer += term
        np.multiply(match, w, out=term)
        denom += term
    # an entry no model matches has numer +0.0 and denom 0; dividing it by 1
    # keeps it +0.0 without a masked divide
    denom += denom == 0
    return np.divide(numer, denom, out=term).astype(np.float32)


def _ties_layer(
    values: Iterable[np.ndarray], density: float | Fraction, weights: np.ndarray
) -> np.ndarray:
    """Trim, elect sign and disjoint-merge one layer across the models.

    The trim needs the whole layer's threshold, so it runs serially, one
    model at a time: a model's untrimmed layer can be freed once its trimmed
    copy exists.  Election and the disjoint mean are entrywise, so they run
    chunk by chunk on every worker.
    """
    trimmed = [_trim_values(v, density) for v in values]
    shape = trimmed[0].shape
    trimmed = [t.ravel() for t in trimmed]
    merged = np.empty(trimmed[0].size, dtype=np.float32)

    def step(start: int) -> None:
        part = [t[start : start + _CHUNK] for t in trimmed]
        merged[start : start + _CHUNK] = _disjoint(part, _elect(part, weights), weights)

    _for_chunks(step, merged.size)
    return merged.reshape(shape)


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
            layer, _ties_layer((d.layers[layer].values for d in deltas), config.density, w)
        )
        for layer in names
    }
    return DeltaMap(layers, _joint_label(deltas))


@dataclass(frozen=True)
class KnotsFactors:
    """Thin SVD of the layerwise concatenation ``[d_1 | ... | d_M]``.

    ``u`` is the shared left basis (d_out x k); ``v_parts`` holds the M
    task-specific components (k x d_in), each pre-scaled by the singular
    values so ``u @ v_parts[m]`` reconstructs model m's delta.  k is
    ``min(d_out, M * d_in)`` on the dense route and the summed rank of the
    models' low-rank layers on the factored one.
    """

    u: TensorBlock
    singular_values: np.ndarray
    v_parts: list[TensorBlock]


def _concat_svd(blocks: Sequence[TensorBlock | LowRankBlock]) -> tuple[np.ndarray, ...]:
    """Thin SVD of ``[d_1 | ... | d_M]``, factored when every block is low-rank
    and their summed rank is below the dense concatenation's rank bound."""
    count = len(blocks)
    d_out, d_in = blocks[0].shape
    if not (
        all(isinstance(b, LowRankBlock) for b in blocks)
        and sum(b.rank for b in blocks) < min(d_out, count * d_in)
    ):
        concat = np.concatenate([b.values for b in blocks], axis=1, dtype=np.float64)
        return np.linalg.svd(concat, full_matrices=False)
    # [s_1 B_1 A_1 | ... | s_M B_M A_M] = [B_1 ... B_M] blockdiag(s_1 A_1, ..., s_M A_M)
    left = np.concatenate([b.left for b in blocks], axis=1, dtype=np.float64)
    right = np.zeros((left.shape[1], count * d_in))
    row = 0
    for m, b in enumerate(blocks):
        tile = right[row : row + b.rank, m * d_in : (m + 1) * d_in]
        tile[...] = b.right
        tile *= b.scale
        row += b.rank
    return factored_svd(left, right)


def knots_transform(deltas: Sequence[DeltaMap]) -> dict[str, KnotsFactors]:
    """Concatenate the models' layers horizontally and factor with thin SVD."""
    if len(deltas) < 2:
        raise ParameterError("KnOTS needs at least two input models")
    names = _aligned_layers(deltas)
    count = len(deltas)
    out: dict[str, KnotsFactors] = {}
    for layer in names:
        try:
            u, s, vt = _concat_svd([d.layers[layer] for d in deltas])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge on layer {layer!r}") from exc
        vt *= s[:, None]
        parts = [
            TensorBlock(f"{layer}.task{m}", part.astype(np.float32))
            for m, part in enumerate(np.hsplit(vt, count))
        ]
        out[layer] = KnotsFactors(
            TensorBlock(f"{layer}.basis", u.astype(np.float32)),
            s,
            parts,
        )
    return out


def knots_merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """TIES-merge the task components in the shared basis, then reconstruct.

    The trim keeps ``ceil(density * min(d_out, M * d_in) * d_in)`` component
    entries, the count of the dense route, also on the factored route: its
    components are the dense ones less those of zero singular values.  A
    reconstruction whose basis is thinner than the layer stays low-rank.
    """
    if "KNOTS" not in config.pipeline:
        raise ParameterError("knots_merge requires a pipeline containing KNOTS")
    factors = knots_transform(deltas)
    count = len(deltas)
    w = config.weight_vector(count)
    layers: dict[str, TensorBlock | LowRankBlock] = {}
    for layer, fac in factors.items():
        (d_out, k), (_, d_in) = fac.u.shape, fac.v_parts[0].shape
        keep = _trim_count(config.density, min(d_out, count * d_in) * d_in)
        density = Fraction(min(keep, k * d_in), k * d_in)
        merged = _ties_layer([p.values for p in fac.v_parts], density, w)
        product = LowRankBlock(layer, fac.u.values, merged)
        layers[layer] = product if k < min(product.shape) else TensorBlock(layer, product.values)
    return DeltaMap(layers, _joint_label(deltas))


def _pruned_layer(
    deltas: Sequence[DeltaMap], layer: str, config: MergeConfig
) -> Iterator[np.ndarray]:
    """One layer of every model, DARE-pruned when the pipeline asks for it,
    formed one model at a time as the caller iterates."""
    if "DARE" not in config.pipeline:
        return (d.layers[layer].values for d in deltas)
    p = config.effective_drop_rate
    return (
        dare_prune(DeltaMap({layer: d.layers[layer]}, d.label), p, config.seed)
        .layers[layer]
        .values
        for d in deltas
    )


def merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """Run the configured pipeline and label the result with its summary.

    TIES and DARE+TIES run one layer at a time: besides the inputs and the
    output, only the current layer's pruned and trimmed copies are held.
    """
    if not deltas:
        raise ParameterError("need at least one input delta map")
    w = config.weight_vector(len(deltas))

    if "KNOTS" in config.pipeline:
        inputs = list(deltas)
        if "DARE" in config.pipeline:
            p = config.effective_drop_rate
            inputs = [dare_prune(d, p, config.seed) for d in inputs]
        return DeltaMap(knots_merge(inputs, config).layers, config.summary())
    layers = {
        layer: TensorBlock(
            layer, _ties_layer(_pruned_layer(deltas, layer, config), config.density, w)
        )
        for layer in _aligned_layers(deltas)
    }
    return DeltaMap(layers, config.summary())
