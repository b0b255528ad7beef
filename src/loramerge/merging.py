"""Merging engine: TIES, DARE, and KnOTS over delta maps.

TIES merges in three steps: trim each model's deltas to the top-density
fraction by magnitude, elect a per-entry consensus sign from the weighted
sum, then average the sign-consistent values (weighted).  DARE is a
precursor that randomly zeroes entries with probability ``p`` and rescales
survivors by ``1 / (1 - p)`` to preserve the expected value.  KnOTS is a
precursor that concatenates the per-model deltas layer by layer, applies a
thin SVD to obtain a shared left basis and per-model task components, runs
the inner merge on those components, and reconstructs.  Its SVD is the
refactor's, :func:`adapters.concat_svd`: on low-rank layers (adapter
inputs) it runs on the factors, and the reconstruction stays low-rank.

Every pipeline runs one layer at a time: each model's layer is read, DARE-
pruned, run through KnOTS and TIES, and the merged layer is done before the
next layer is touched.  A model's layer enters a merge only as a chunk
source (:func:`_source`): a delta file's layer is read a range at a time,
any other is formed once and sliced, and DARE prunes each chunk as it is
read.  Only KnOTS and the TIES trim need a model's whole layer; each forms
it from its source in a fresh buffer (:func:`_whole`) when it takes it, so
one model's layer is formed at a time, and the trim zeroes its input in
place.  An adapter's layer that DARE does not prune is densified straight
into the buffer the trim owns, with no copy.  KnOTS without DARE takes the
models' blocks, so adapter layers keep the factored SVD.  Where neither
does (no KnOTS, and a density that keeps every entry), no model's layer is
formed whole: DARE, the sign election and the disjoint mean are entrywise,
so each chunk step takes its chunk of every model's source and merges it.
:func:`lazy_merge` leaves each merged layer pending until it is read, so
writing the result streams the merge from the input files to the output
file.  Where no model's layer is formed and every model's layer is read by
range (delta files), a range of the merged layer is merged from the same
range of every model, so the writer forms and writes it a slab at a time
and the merged layer is not held whole either.

Supported pipelines are TIES, KNOTS+TIES, DARE+TIES, and DARE+KNOTS+TIES;
DARE and KnOTS are not standalone merges, so every pipeline ends in TIES.

Note on DARE's rescale: some write-ups quote a factor of ``p / (1 - p)``,
which is biased for every ``p != 0.5``; the expectation-preserving factor
``1 / (1 - p)`` is used here.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .adapters import DeltaMap, LowRankBlock, PendingBlock, TensorBlock, concat_svd
from .container import CheckedBlock, _slices
from .errors import AlignmentError, DataError, ParameterError, is_finite, is_integer, is_real
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
        if not (is_real(self.density) and 0.0 < self.density <= 1.0):
            raise ParameterError(f"density must be in (0, 1], got {self.density!r}")
        object.__setattr__(self, "density", float(self.density))
        if self.drop_rate is not None:
            if not (is_real(self.drop_rate) and 0.0 <= self.drop_rate < 1.0):
                raise ParameterError(f"drop_rate must be in [0, 1), got {self.drop_rate!r}")
            object.__setattr__(self, "drop_rate", float(self.drop_rate))
        if self.weights is not None:
            try:
                weights = tuple(self.weights)
            except TypeError:
                weights = None
            if weights is None or not all(map(is_real, weights)):
                raise ParameterError(f"weights must be numbers, got {self.weights!r}")
            if not weights or not all(is_finite(w) and float(w) > 0 for w in weights):
                raise ParameterError("weights must be positive finite numbers")
            weights = tuple(float(w) for w in weights)
            # TIES sums float32 values times the weights in float64; while
            # this product is finite, none of those sums can overflow
            if not math.isfinite(sum(weights) * float(np.finfo(np.float32).max)):
                raise ParameterError(
                    f"weights must sum to below about 5.28e269, got {sum(weights):g}"
                )
            object.__setattr__(self, "weights", weights)
        if not (is_integer(self.seed) and 0 <= self.seed < 2**64):
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
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(self).items()
            if value is not None
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MergeConfig":
        if not isinstance(doc, dict):
            raise ParameterError("merge config must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ParameterError(f"unknown merge config keys: {unknown}")
        kwargs = dict(doc)
        for key, kind in (("pipeline", "a list of method names"), ("weights", "a list of numbers")):
            if key in kwargs:
                if not isinstance(kwargs[key], list):
                    raise ParameterError(f"config {key!r} must be {kind}")
                kwargs[key] = tuple(kwargs[key])
        if "seed" in kwargs and not is_integer(kwargs["seed"]):
            raise ParameterError("config 'seed' must be an integer")
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
    # integer boundary either way (0.1 * 30 vs Fraction(0.8) * 5)
    return int(math.ceil(Fraction(repr(float(density))) * size))


def _trim_values(values: np.ndarray, keep: int) -> np.ndarray:
    """Set all but the ``keep`` largest magnitudes of ``values``, a writable
    C-contiguous array the caller owns, to +0.0 in place; returns ``values``."""
    flat = values.ravel()
    if keep >= flat.size:
        return values
    # keep the `keep` largest magnitudes; equal magnitudes keep the lower
    # flat index, as a stable sort on -|v| would.  The magnitudes are taken
    # as bits: a finite float32 with its sign bit cleared orders as its
    # uint32 pattern does (-0.0 becomes 0), and integers partition faster
    mag = flat.view(np.uint32) & np.uint32(0x7FFFFFFF)
    kth = flat.size - keep
    threshold = np.partition(mag, kth)[kth]
    mask = mag > threshold
    ties = np.flatnonzero(mag == threshold)
    mask[ties[: keep - np.count_nonzero(mask)]] = True
    # a dropped entry's bits are multiplied by 0, which makes it +0.0 whatever
    # its sign, without np.where's per-entry branch on the mask
    bits = flat.view(np.uint32)
    bits *= mask
    return values


def trim(delta: DeltaMap, density: float) -> DeltaMap:
    """Keep the ceil(density * n) largest-magnitude entries per tensor."""
    density = MergeConfig(density=density).density
    layers = {}
    for layer, block in delta.layers.items():
        values = _whole(block, delta.label, layer, 0.0, 0)
        keep = _trim_count(density, values.size)
        layers[layer] = TensorBlock(block.name, _trim_values(values, keep))
    return DeltaMap(layers, delta.label)


def _for_chunks(step: Callable[[int], None], size: int) -> None:
    """Run ``step(start)`` for every chunk start of a ``size``-entry layer.

    The calling thread and up to ``_WORKERS - 1`` helper threads take starts
    from one shared iterator; a helper that cannot be started is done
    without.  Each step writes only its own output slice and
    keeps its scratch to itself, so the bytes do not depend on which thread
    runs which chunk.  Once a step raises, no thread takes another chunk,
    and after every helper has finished the error of the lowest failing
    start is re-raised here.  Starts are taken in order and a thread ends
    the chunk it holds before it stops, so every chunk below that start has
    run: the error raised does not depend on the thread schedule.
    """
    starts = iter(range(0, size, _CHUNK))
    lock = threading.Lock()
    errors: list[tuple[int, BaseException]] = []

    def drain() -> None:
        while not errors:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            try:
                step(start)
            except BaseException as exc:  # re-raised by the calling thread
                errors.append((start, exc))

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
        raise min(errors, key=lambda error: error[0])[1]


def _dare_chunk(
    part: np.ndarray, label: str, name: str, start: int, drop_rate: float, seed: int
) -> np.ndarray:
    """DARE (see :func:`dare_prune`) of the flat entries ``part`` of tensor
    ``name`` from ``start`` on, drawn from the stream keyed by (seed, label,
    name) at that offset; DataError if a survivor leaves float32 range."""
    u = uniform_stream(seed, label, name, part.size, start)
    scaled = np.multiply(part, 1.0 / (1.0 - drop_rate), dtype=np.float64)
    # errstate is per thread, so it is set on the thread that runs the chunk
    with np.errstate(over="ignore"):
        kept = scaled.astype(np.float32)
    # a dropped entry's bits are multiplied by 0, which makes it +0.0
    # whatever its sign, with no per-entry branch on the random mask
    bits = kept.view(np.uint32)
    bits *= u >= drop_rate
    # the input is finite, so only a survivor's overflow can show here
    if not np.isfinite(kept).all():
        raise DataError(f"tensor {name!r} contains non-finite values")
    return kept


_ChunkSource = Callable[[int, int], np.ndarray]  # (start, stop) -> flat float32 entries


def _source(
    block: CheckedBlock, label: str, layer: str, drop_rate: float, seed: int
) -> _ChunkSource:
    """Model ``label``'s layer as a chunk source, DARE-pruned (see
    :func:`_dare_chunk`) chunk by chunk when ``drop_rate`` is above 0.

    A delta file's layer is read a range at a time; any other is formed
    once, now, and sliced.
    """
    read = block.part if block.part is not None else _slices(block.values)
    if drop_rate == 0.0:
        return read
    return lambda start, stop: _dare_chunk(read(start, stop), label, layer, start, drop_rate, seed)


def _gather(source: _ChunkSource, shape: tuple[int, ...], start: int = 0) -> np.ndarray:
    """The float32 array of ``shape`` whose flat entries ``source`` gives
    from ``start`` on, filled chunk by chunk on every worker."""
    out = np.empty(math.prod(shape), dtype=np.float32)

    def step(offset: int) -> None:
        stop = min(offset + _CHUNK, out.size)
        out[offset:stop] = source(start + offset, start + stop)

    _for_chunks(step, out.size)
    return out.reshape(shape)


def _whole(block: CheckedBlock, label: str, layer: str, drop_rate: float, seed: int) -> np.ndarray:
    """The layer :func:`_source` gives, whole, in a fresh writable array the caller owns."""
    if isinstance(block, LowRankBlock) and drop_rate == 0.0:
        # densified into a fresh array already: take it rather than copy it
        return block._dense()
    return _gather(_source(block, label, layer, drop_rate, seed), block.shape)


def dare_prune(delta: DeltaMap, drop_rate: float, seed: int = 0) -> DeltaMap:
    """Zero entries independently with probability ``drop_rate`` and rescale
    survivors by ``1 / (1 - drop_rate)``.

    Drops come from a counter-based stream keyed by (seed, map label,
    tensor name), so results are reproducible and schedule-independent.
    """
    drop_rate = MergeConfig(drop_rate=drop_rate).drop_rate
    if drop_rate == 0.0:
        return DeltaMap(dict(delta.layers), delta.label)
    layers = {
        layer: TensorBlock(b.name, _whole(b, delta.label, layer, drop_rate, seed))
        for layer, b in delta.layers.items()
    }
    return DeltaMap(layers, delta.label)


def _elect(values: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    total = np.zeros(values[0].shape, dtype=np.float64)
    term = np.empty_like(total)
    for w, v in zip(weights, values):
        if w == 1.0:  # float64(v) * 1.0 is float64(v): skip the pass
            total += v
            continue
        np.multiply(v, w, out=term, dtype=np.float64)
        total += term
    # two compares instead of np.sign, which branches on every entry
    return np.subtract(total > 0, total < 0, dtype=np.int8)


def _disjoint(values: Sequence[np.ndarray], signs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    numer = np.zeros(signs.shape, dtype=np.float64)
    denom = np.zeros(signs.shape, dtype=np.float64)
    term = np.empty(signs.shape, dtype=np.float64)
    unit = signs.astype(np.float32)
    carried = np.empty(signs.shape, dtype=np.float32)
    bits = carried.view(np.uint32)
    match = np.empty(signs.shape, dtype=bool)
    for w, v in zip(weights, values):
        # v carries the elected sign iff v * sign > 0; a zero never does
        np.multiply(v, unit, out=carried)
        np.greater(carried, 0.0, out=match)
        # v where it carries the sign, else +0.0: the bits are multiplied by
        # the match, with no per-entry branch on it.  numer starts at +0.0 and
        # is never -0.0, so adding +0.0 leaves it as it was
        carried[...] = v
        bits *= match
        if w == 1.0:  # float64(v) * 1.0 is float64(v): skip the passes
            numer += carried
            denom += match
            continue
        np.multiply(carried, w, out=term, dtype=np.float64)
        numer += term
        np.multiply(match, w, out=term, dtype=np.float64)
        denom += term
    # an entry no model matches has numer +0.0 and denom 0; dividing it by 1
    # keeps it +0.0 without a masked divide
    denom += denom == 0
    return np.divide(numer, denom, out=term).astype(np.float32)


def _ties_layer(
    sources: Sequence[_ChunkSource],
    shape: tuple[int, ...],
    weights: np.ndarray,
    start: int = 0,
) -> np.ndarray:
    """Elect sign and disjoint-merge a layer, or its flat entries of
    ``shape`` from ``start`` on, across the models.

    Election and the disjoint mean are entrywise, so the layer is gathered
    (:func:`_gather`) chunk by chunk; each chunk is taken from every model's
    source in model order.  A source slices a trimmed layer or, where no
    trim or KnOTS needs the whole layer, reads and prunes each chunk when it
    is asked for (:func:`_source`), so that no model's layer is formed for
    the merge.
    """

    def merged(begin: int, stop: int) -> np.ndarray:
        part = [source(begin, stop) for source in sources]
        return _disjoint(part, _elect(part, weights), weights)

    return _gather(merged, shape, start)


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
    """Weighted mean over the models whose value carries the elected sign.

    ``signs`` maps each layer to an array-like of the layer's shape whose
    entries are -1, 0 or 1, as :func:`elect_sign` gives them.
    """
    names = _aligned_layers(trimmed)
    if sorted(signs) != names:
        raise AlignmentError("sign map layers do not match the inputs")
    maps = {}
    for layer in names:
        try:
            sign = np.asarray(signs[layer])
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"sign map of layer {layer!r} is not an array: {exc}") from None
        a, b = sign.shape, trimmed[0].layers[layer].shape
        if a != b:
            raise AlignmentError(f"layer {layer!r} shapes differ: sign map {a} vs inputs {b}")
        if sign.dtype.kind not in "biuf" or not np.isin(sign, (-1, 0, 1)).all():
            raise ParameterError(f"sign map of layer {layer!r} must hold only -1, 0 and 1")
        maps[layer] = sign
    w = MergeConfig(weights=weights).weight_vector(len(trimmed))
    layers = {
        layer: TensorBlock(
            layer, _disjoint([d.layers[layer].values for d in trimmed], maps[layer], w)
        )
        for layer in names
    }
    return DeltaMap(layers, _joint_label(trimmed))


def _joint_label(deltas: Sequence[DeltaMap]) -> str:
    return "+".join(d.label for d in deltas if d.label)


# (basis, singular values, task parts): float32, float64 and float32 arrays
_Svd = tuple[np.ndarray, np.ndarray, list[np.ndarray]]


def _concat_svd(layer: str, blocks: Sequence[CheckedBlock]) -> _Svd:
    """The KnOTS basis and ``s``-scaled task parts of ``[d_1 | ... | d_M]``,
    from its SVD (:func:`adapters.concat_svd`)."""
    u, s, vt = concat_svd(layer, blocks)
    vt *= s[:, None]
    with np.errstate(over="ignore"):
        parts = [part.astype(np.float32, order="C") for part in np.hsplit(vt, len(blocks))]
    # |s_i vt_ij| <= s_0, so a part can leave float32 range only past that bound
    if not s[0] < np.finfo(np.float32).max:
        for m, part in enumerate(parts):
            if not np.isfinite(part).all():
                raise DataError(f"tensor '{layer}.task{m}' contains non-finite values")
    return u.astype(np.float32, order="C"), s, parts


def knots_transform(deltas: Sequence[DeltaMap]) -> dict[str, _Svd]:
    """Each layer's thin SVD of the models' concatenation ``[d_1 | ... | d_M]``
    as ``(u, s, parts)`` (see :func:`_concat_svd`): ``u`` is the shared left
    basis and ``parts[m]``, pre-scaled by ``s``, is model m's task part, so
    ``u @ parts[m]`` reconstructs its delta.  The basis width is
    ``min(d_out, M * d_in)`` on the dense route and the models' summed rank
    on the factored one."""
    if len(deltas) < 2:
        raise ParameterError("KnOTS needs at least two input models")
    return {
        layer: _concat_svd(layer, [d.layers[layer] for d in deltas])
        for layer in _aligned_layers(deltas)
    }


def knots_merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """TIES-merge the task components in the shared basis, then reconstruct.

    The trim keeps ``ceil(density * min(d_out, M * d_in) * d_in)`` component
    entries, the count of the dense route, also on the factored route: its
    components are the dense ones less those of zero singular values.  A
    reconstruction whose basis is thinner than the layer stays low-rank.
    """
    if "KNOTS" not in config.pipeline:
        raise ParameterError("knots_merge requires a pipeline containing KNOTS")
    merged = merge(deltas, dataclasses.replace(config, pipeline=("KNOTS", "TIES")))
    return DeltaMap(merged.layers, _joint_label(deltas))


def merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """Run the configured pipeline and label the result with its summary.

    This is :func:`lazy_merge` with each layer formed once, in name order:
    besides the output, only the current layer's inputs and the buffers the
    merge forms from them are held (inputs read from files are read then).
    """
    merged = lazy_merge(deltas, config)
    return DeltaMap({layer: block.make() for layer, block in merged.layers.items()}, merged.label)


def lazy_merge(deltas: Sequence[DeltaMap], config: MergeConfig) -> DeltaMap:
    """``merge``, with each merged layer left pending until it is read.

    The inputs and config are checked now.  A layer is merged from the
    models' layers each time it is read, with the bytes ``merge`` gives, so
    writing the result (``save_delta``, or ``refactor_to_adapter`` then
    ``save_adapter``) never holds the whole output, and at most one layer
    per model at a time: none, for an untrimmed layer without KnOTS whose
    inputs are delta files, which is read chunk by chunk.  Such a layer's
    block has a ``part``, which merges only the range asked for, so
    ``save_delta`` holds none of the merged layer beyond a slab.  An
    untrimmed layer is that range merge over the whole layer, and every
    trimmed one (TIES or KnOTS) ends in one trim→TIES step.
    """
    names = _aligned_layers(deltas)
    w = config.weight_vector(len(deltas))
    knots = "KNOTS" in config.pipeline
    if knots and len(deltas) < 2:
        raise ParameterError("KnOTS needs at least two input models")
    drop_rate = config.effective_drop_rate if "DARE" in config.pipeline else 0.0

    def streamed(layer: str) -> bool:
        size = math.prod(deltas[0].layers[layer].shape)
        return not knots and _trim_count(config.density, size) >= size

    def merged_part(layer: str, start: int, stop: int) -> np.ndarray:
        # finite with no check: a weighted mean of finite float32 values stays
        # within float32 range, as sum(weights) * FLT_MAX is finite (MergeConfig)
        # and float64 rounds it by far less than float32's half ulp
        sources = [_source(d.layers[layer], d.label, layer, drop_rate, config.seed) for d in deltas]
        return _ties_layer(sources, (stop - start,), w, start)

    def trimmed_ties(values: Iterable[np.ndarray], keep: int) -> np.ndarray:
        # each model's whole layer is trimmed in place as it comes
        trimmed = [_trim_values(v, keep) for v in values]
        return _ties_layer([_slices(v) for v in trimmed], trimmed[0].shape, w)

    def whole(d: DeltaMap, layer: str) -> np.ndarray:
        return _whole(d.layers[layer], d.label, layer, drop_rate, config.seed)

    def merge_layer(layer: str) -> TensorBlock | LowRankBlock:
        shape = deltas[0].layers[layer].shape
        size = math.prod(shape)
        if streamed(layer):
            # nothing needs a whole layer: each chunk step reads and prunes
            # its chunk of every model
            return TensorBlock(layer, merged_part(layer, 0, size).reshape(shape))
        if not knots:
            # the trim needs the whole layer's threshold, so it runs serially, one
            # model at a time: trimming models on parallel workers held a float64
            # product and the trim's scratch per worker (``ties-adapters`` +7.9 MB RSS)
            wholes = (whole(d, layer) for d in deltas)
            return TensorBlock(layer, trimmed_ties(wholes, _trim_count(config.density, size)))
        # TIES on the task parts in the shared basis, as knots_merge describes;
        # the trim counts against the dense parts' size.  With DARE, a model's
        # layer is read, densified and pruned when the SVD takes it
        if drop_rate > 0.0:
            models = [
                PendingBlock(layer, shape, functools.partial(whole, d, layer)) for d in deltas
            ]
        else:
            models = [d.layers[layer] for d in deltas]
        d_out, d_in = shape
        u, _, parts = _concat_svd(layer, models)
        keep = _trim_count(config.density, min(d_out, len(parts) * d_in) * d_in)
        product = LowRankBlock(layer, u, trimmed_ties(parts, keep))
        return product if u.shape[1] < min(product.shape) else TensorBlock(layer, product.values)

    def ranged(layer: str) -> bool:
        return all(d.layers[layer].part is not None for d in deltas)

    layers = {
        layer: PendingBlock(
            layer,
            deltas[0].layers[layer].shape,
            functools.partial(merge_layer, layer),
            # a range of a streamed layer is merged from the same range of
            # every model, when every model's layer can be read by range
            functools.partial(merged_part, layer) if streamed(layer) and ranged(layer) else None,
        )
        for layer in names
    }
    return DeltaMap(layers, config.summary())
