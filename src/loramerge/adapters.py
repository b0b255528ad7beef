"""LoRA adapter and delta (language-vector) data model.

An adapter stores per-layer low-rank factors ``A`` (rank x d_in) and ``B``
(d_out x rank) together with the rank, the alpha scale, and a label naming
the language or task.  Its delta is the full-rank update each layer applies
to the base weights, ``(alpha / rank) * B @ A``; with the common alpha ==
rank configuration the scale factor is exactly 1.  Deltas, not raw factors,
are what the merging engine consumes.  An adapter's delta layers stay
factored (:class:`LowRankBlock`) and are formed one layer at a time, when a
step needs the dense values.  Every other layer whose values are formed
late is a :class:`PendingBlock`, formed each time it is read: a delta
file's layer is read from the file, a DARE-pruned layer is pruned, a
streamed merge's layer is merged and a refactored adapter's factors are
taken from the SVD of their layer, :func:`concat_svd`, which KnOTS shares.

On disk both live in the container format of :mod:`loramerge.container`,
with tensor names ``<layer>.lora_A`` / ``<layer>.lora_B`` for adapters and
``<layer>.delta`` for deltas.  An adapter file is read whole, always by
:func:`load_adapter`; a delta file's layers are read when they are used,
each a :class:`PendingBlock` whose ``part`` reads a range of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import container
from .blas import one_thread
from .errors import (
    DataError,
    FormatError,
    NumericalError,
    PairingError,
    ParameterError,
    ValidationError,
    is_finite,
    positive_integer,
)

_A_SUFFIX = ".lora_A"
_B_SUFFIX = ".lora_B"
_DELTA_SUFFIX = ".delta"
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True, eq=False)
class TensorBlock(container.CheckedBlock):
    """A named float32 array; the unit of all merging arithmetic.  A float32
    C-order array is taken as is, not copied, and frozen (made read-only)."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("tensor name must be a non-empty string")
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim < 1 or any(d < 1 for d in arr.shape):
            raise ValidationError(
                f"tensor {self.name!r} must have >=1 dimension, all sizes >=1"
            )
        arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise DataError(f"tensor {self.name!r} contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class LowRankBlock(container.CheckedBlock):
    """A named layer ``scale * left @ right``, densified when it is read.

    ``left`` is d_out x r and ``right`` r x d_in, both float32.  ``values``
    has the ``TensorBlock`` contract, which construction checks; it forms
    the product in float64, rounds it once to float32 and is not cached, so
    only the layer a step works on is ever held dense.  Like ``TensorBlock``,
    it takes float32 C-order factors as is, not copied, and freezes them.
    """

    name: str
    left: np.ndarray
    right: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("tensor name must be a non-empty string")
        left = np.ascontiguousarray(self.left, dtype=np.float32)
        right = np.ascontiguousarray(self.right, dtype=np.float32)
        if (
            left.ndim != 2
            or right.ndim != 2
            or left.shape[1] != right.shape[0]
            or 0 in left.shape + right.shape
        ):
            raise ValidationError(
                f"tensor {self.name!r}: factors {left.shape} and {right.shape} do not chain"
            )
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if not is_finite(self.scale):
            raise ValidationError(f"tensor {self.name!r}: scale must be finite, got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))
        # finite factors can still overflow float32 in the product; its entries
        # are at most |scale| * max row norm * max column norm (Cauchy-Schwarz),
        # so form it (and raise DataError) only when that bound nears the limit
        bound = (
            abs(self.scale)
            * np.linalg.norm(left.astype(np.float64), axis=1).max()
            * np.linalg.norm(right.astype(np.float64), axis=0).max()
        )
        if not bound < _F32_MAX / 2 and not np.isfinite(self.values).all():
            raise DataError(f"tensor {self.name!r} contains non-finite values")

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[1])

    @property
    def size(self) -> int:
        return self.left.shape[0] * self.right.shape[1]

    @property
    def values(self) -> np.ndarray:
        product = self._dense()
        product.setflags(write=False)
        return product

    def _dense(self) -> np.ndarray:
        """``values`` in a fresh writable array the caller owns."""
        # on one thread: OpenBLAS's idle workers would otherwise spin on the
        # cores the merge's chunk workers need, and its split of a large
        # product changes the float64 rounding with the thread count
        with one_thread():
            product = self.left.astype(np.float64) @ self.right.astype(np.float64)
        if self.scale != 1.0:  # x * 1.0 is x: skip the pass
            product *= self.scale
        # finite: construction proved it, or formed it and rejected an inf
        with np.errstate(over="ignore"):
            return product.astype(np.float32)


def concat_svd(layer: str, blocks: Sequence) -> tuple[np.ndarray, ...]:
    """Thin float64 SVD ``(u, s, vt)`` of the equal-shape layers ``blocks``
    (arrays or blocks) side by side.  Low-rank blocks of summed rank below
    ``min(d_out, M * d_in)`` are not formed: a QR of the stacked left factors
    reduces the SVD to that many rows (Halko, Martinsson & Tropp,
    arXiv:0909.4061).  Every QR, SVD and product runs on one BLAS thread;
    NumericalError names ``layer``."""
    count = len(blocks)
    d_out, d_in = blocks[0].shape
    if all(isinstance(b, LowRankBlock) for b in blocks) and sum(b.rank for b in blocks) < min(
        d_out, count * d_in
    ):
        # [s_1 B_1 A_1 | ... | s_M B_M A_M] = [B_1 ... B_M] blockdiag(s_1 A_1, ..., s_M A_M)
        left = np.concatenate([b.left for b in blocks], axis=1, dtype=np.float64)
        right = np.zeros((left.shape[1], count * d_in))
        row = 0
        for m, b in enumerate(blocks):
            tile = right[row : row + b.rank, m * d_in : (m + 1) * d_in]
            np.multiply(b.right, b.scale, out=tile, dtype=np.float64)
            row += b.rank
        del tile  # a view: it would keep `right` alive through the SVD
    else:
        # dense: one float32 layer is formed at a time, copied in and let go
        left, right = np.empty((d_out, count * d_in)), None
        for m, b in enumerate(blocks):
            left[:, m * d_in : (m + 1) * d_in] = _values(b)
    try:
        with one_thread():
            if right is None:
                return np.linalg.svd(left, full_matrices=False)
            q, r = np.linalg.qr(left)
            # each operand is let go once used, before the next product
            # allocates: the peak is then `core` and the SVD's own arrays
            del left
            core = r @ right
            del right
            u, s, vt = np.linalg.svd(core, full_matrices=False)
            del core
            # here too: a two-thread product leaves OpenBLAS's worker spinning
            return q @ u, s, vt
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on layer {layer!r}") from exc


@dataclass(frozen=True, eq=False)
class PendingBlock(container.CheckedBlock):
    """A named layer of known shape that ``make()`` forms, each time it is
    read: a delta file's layer, a DARE-pruned layer, a streamed merge's or
    a factor of :func:`refactor_to_adapter`.

    ``make`` returns an array with the :class:`container.CheckedBlock`
    contract, or a ``TensorBlock`` or ``LowRankBlock``; ``values`` is that
    array or the block's values.  It is not cached.  ``part``, when given
    (it is None on every other block), returns the flat entries
    ``[start, stop)`` of ``values`` without forming the rest, as
    :class:`container.CheckedBlock` says: a delta file's layer has one, and
    so has a streamed merge's layer whose inputs all have one.
    :func:`container.write_tensors` forms such a block a range at a time.
    """

    name: str
    shape: tuple[int, ...]
    make: Callable[[], "np.ndarray | TensorBlock | LowRankBlock"]
    part: Callable[[int, int], np.ndarray] | None = None

    @property
    def values(self) -> np.ndarray:
        return _values(self.make())


def _values(made: "np.ndarray | TensorBlock | LowRankBlock") -> np.ndarray:
    return made if isinstance(made, np.ndarray) else made.values


def _layers_copy(owner, what: str) -> dict:
    """``owner.layers`` copied; ValidationError if it is empty, the label is
    not a string or a layer name is not a non-empty string."""
    layers = dict(owner.layers or {})
    if not layers:
        raise ValidationError(f"{what} has no layers")
    if not isinstance(owner.label, str):
        raise ValidationError(f"label must be a string, got {owner.label!r}")
    for layer in layers:
        # a name is written as the prefix of its tensors' names
        if not isinstance(layer, str) or not layer:
            raise ValidationError(f"layer {layer!r}: name must be a non-empty string")
    return layers


@dataclass(frozen=True, eq=False)
class LoraAdapter:
    """Per-layer (A, B) factor pairs sharing one rank and alpha; a pair may
    be pending (see :func:`refactor_to_adapter`).  Checked once, when built:
    ``layers`` is then a read-only copy, each pair a tuple of two blocks."""

    layers: Mapping[str, tuple[container.CheckedBlock, container.CheckedBlock]]
    rank: int
    alpha: float
    label: str = ""

    def __post_init__(self) -> None:
        layers = _layers_copy(self, "adapter")
        rank = positive_integer(self.rank, "rank", ValidationError)
        if not (is_finite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha!r}")
        for layer, pair in layers.items():
            layers[layer] = pair = tuple(pair) if isinstance(pair, (tuple, list)) else ()
            if len(pair) != 2 or not all(isinstance(f, container.CheckedBlock) for f in pair):
                raise ValidationError(f"layer {layer!r}: must be two blocks (A, B)")
            a, b = pair
            if len(a.shape) != 2 or len(b.shape) != 2:
                raise ValidationError(f"layer {layer!r}: A and B must be 2-D")
            if a.shape[0] != rank or b.shape[1] != rank:
                raise ValidationError(
                    f"layer {layer!r}: A is {a.shape}, B is {b.shape}, "
                    f"but rank is {rank}"
                )
        object.__setattr__(self, "layers", MappingProxyType(layers))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True, eq=False)
class DeltaMap:
    """Per-layer delta tensors for one labelled model, dense, low-rank or
    pending.  Checked once, when built: ``layers`` is then a read-only copy."""

    layers: Mapping[str, container.CheckedBlock]
    label: str = ""

    def __post_init__(self) -> None:
        layers = _layers_copy(self, "delta map")
        for layer, block in layers.items():
            if not isinstance(block, container.CheckedBlock):
                raise ValidationError(f"layer {layer!r}: delta must be a block")
            if len(block.shape) != 2:
                raise ValidationError(f"layer {layer!r}: delta must be 2-D, got {block.shape}")
        object.__setattr__(self, "layers", MappingProxyType(layers))

    @classmethod
    def from_arrays(cls, layers: Mapping[str, np.ndarray], label: str = "") -> "DeltaMap":
        return cls({name: TensorBlock(name, arr) for name, arr in layers.items()}, label)


def compute_delta(adapter: LoraAdapter) -> DeltaMap:
    """Each layer's delta ``(alpha / rank) * B @ A``, kept as its factors.

    Reading a layer's ``values`` accumulates the product in float64 and
    rounds it once to float32.
    """
    scale = adapter.alpha / adapter.rank
    layers = {
        layer: LowRankBlock(layer, b.values, a.values, scale)
        for layer, (a, b) in adapter.layers.items()
    }
    return DeltaMap(layers, adapter.label)


def save_adapter(adapter: LoraAdapter, path: str) -> None:
    """Write an adapter; pending factors are formed one layer at a time, as
    they are written."""
    tensors = {}
    for layer, (a, b) in adapter.layers.items():
        tensors[layer + _A_SUFFIX] = a
        tensors[layer + _B_SUFFIX] = b
    metadata = {
        "rank": str(adapter.rank),
        "alpha": repr(adapter.alpha),
        "label": adapter.label,
    }
    container.write_tensors(path, tensors, metadata)


def _layer_names(path: str, names: Iterable[str], suffixes: tuple[str, ...]) -> dict:
    """``{suffix: {layer: name}}`` of the tensor names ``<layer><suffix>``,
    in order; FormatError for the first name that follows none."""
    found: dict[str, dict[str, str]] = {suffix: {} for suffix in suffixes}
    for name in names:
        suffix = next((s for s in suffixes if name.endswith(s) and len(name) > len(s)), None)
        if suffix is None:
            rule = "<layer>" + "/".join(suffixes)
            raise FormatError(f"{path}: tensor {name!r} does not follow the {rule} convention")
        found[suffix][name[: -len(suffix)]] = name
    return found


def load_adapter(path: str) -> LoraAdapter:
    """Read an adapter container file; the adapter is checked as it is built."""
    tensors, metadata = container.read_tensors(path)
    a_names, b_names = _layer_names(path, tensors, (_A_SUFFIX, _B_SUFFIX)).values()
    for have, other, factor in ((a_names, b_names, "lora_B"), (b_names, a_names, "lora_A")):
        missing = sorted(set(have) - set(other))
        if missing:
            raise PairingError(f"{path}: missing {factor} for layer {missing[0]!r}")
    for key in ("rank", "alpha", "label"):
        if key not in metadata:
            raise FormatError(f"{path}: adapter metadata is missing {key!r}")
    try:
        rank = int(metadata["rank"])
        alpha = float(metadata["alpha"])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed rank/alpha metadata ({exc})") from exc

    blocks = {name: TensorBlock(name, arr) for name, arr in tensors.items()}
    layers = {layer: (blocks[a_names[layer]], blocks[b_names[layer]]) for layer in sorted(a_names)}
    return LoraAdapter(layers, rank, alpha, metadata["label"])


def save_delta(delta: DeltaMap, path: str) -> None:
    """Write a delta; a layer not held in memory (low-rank or pending) is
    formed when its turn to be written comes."""
    tensors = {layer + _DELTA_SUFFIX: block for layer, block in delta.layers.items()}
    container.write_tensors(path, tensors, {"label": delta.label})


def _delta_from_file(source: container.TensorFile) -> DeltaMap:
    if "label" not in source.metadata:
        raise FormatError(f"{source.path}: delta metadata is missing 'label'")
    names = _layer_names(source.path, source.shapes, (_DELTA_SUFFIX,))[_DELTA_SUFFIX]
    layers = {
        layer: PendingBlock(
            layer,
            source.shapes[name],
            functools.partial(source.read, name),
            functools.partial(source.read_range, name),
        )
        for layer, name in names.items()
    }
    return DeltaMap(layers, source.metadata["label"])


def load_delta(path: str) -> DeltaMap:
    """Open a delta container file: its header and layout are checked now,
    and each layer is read from the file (and checked) when it is used."""
    return _delta_from_file(container.TensorFile(path))


def load_as_delta(path: str) -> DeltaMap:
    """Open a delta file (:func:`load_delta`) or load an adapter file
    (:func:`load_adapter`) as its delta; the tensor names tell which."""
    source = container.TensorFile(path)
    names = list(source.shapes)
    if all(n.endswith(_DELTA_SUFFIX) for n in names):
        return _delta_from_file(source)
    source.close()
    if all(n.endswith((_A_SUFFIX, _B_SUFFIX)) for n in names):
        return compute_delta(load_adapter(path))
    raise FormatError(f"{path}: mixed or unknown tensor naming, cannot infer file kind")


def refactor_to_adapter(delta: DeltaMap, rank: int) -> LoraAdapter:
    """Approximate a delta by a rank-``rank`` adapter via truncated SVD.

    Per layer, ``delta ~= (U sqrt(S)) @ (sqrt(S) Vt)`` keeping the top
    ``rank`` singular triplets.  The result uses alpha == rank so its
    reconstructed delta is plain ``B @ A``.  The SVD is :func:`concat_svd`'s,
    so a low-rank layer whose rank is in ``[rank, min(shape))`` is factored
    without forming its dense values.  Every layer gives pending factors: its SVD
    runs, and raises any NumericalError, when a factor is first read or
    written (:func:`_pending_factors`).
    """
    rank = positive_integer(rank, "refactor rank", ParameterError)
    for layer, block in delta.layers.items():
        if rank > min(block.shape):
            raise ParameterError(
                f"refactor rank {rank} exceeds min dimension of layer {layer!r} {block.shape}"
            )
    layers = {layer: _pending_factors(layer, block, rank) for layer, block in delta.layers.items()}
    return LoraAdapter(layers, rank, float(rank), delta.label)


def _factors(
    layer: str, block: container.CheckedBlock, rank: int
) -> tuple[TensorBlock, TensorBlock]:
    """One layer's rank-``rank`` factors ``(A, B)``; a pending layer is
    formed first."""
    if isinstance(block, PendingBlock):
        block = block.make()
    if isinstance(block, LowRankBlock) and block.rank < rank:
        # the factored SVD gives only block.rank triplets
        block = block.values
    u, s, vt = concat_svd(layer, [block])
    root = np.sqrt(s[:rank])
    b = (u[:, :rank] * root).astype(np.float32)
    a = (root[:, None] * vt[:rank]).astype(np.float32)
    return TensorBlock(layer + _A_SUFFIX, a), TensorBlock(layer + _B_SUFFIX, b)


def _pending_factors(
    layer: str, block: container.CheckedBlock, rank: int
) -> tuple[PendingBlock, PendingBlock]:
    """A layer's pending factors ``(A, B)``: reading either forms both (see
    :func:`_factors`), and the other is held until it is read."""
    held: dict[int, TensorBlock] = {}

    def make(index: int) -> TensorBlock:
        if index not in held:
            held.update(enumerate(_factors(layer, block, rank)))
        return held.pop(index)

    d_out, d_in = block.shape
    return (
        PendingBlock(layer + _A_SUFFIX, (rank, d_in), functools.partial(make, 0)),
        PendingBlock(layer + _B_SUFFIX, (d_out, rank), functools.partial(make, 1)),
    )
