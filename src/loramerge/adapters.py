"""LoRA adapter and delta (language-vector) data model.

An adapter stores per-layer low-rank factors ``A`` (rank x d_in) and ``B``
(d_out x rank) together with the rank, the alpha scale, and a label naming
the language or task.  Its delta is the full-rank update each layer applies
to the base weights, ``(alpha / rank) * B @ A``; with the common alpha ==
rank configuration the scale factor is exactly 1.  Deltas, not raw factors,
are what the merging engine consumes.  An adapter's delta layers stay
factored (:class:`LowRankBlock`) and are formed one layer at a time, when a
step needs the dense values.

On disk both live in the container format of :mod:`loramerge.container`,
with tensor names ``<layer>.lora_A`` / ``<layer>.lora_B`` for adapters and
``<layer>.delta`` for deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import container
from .errors import (
    DataError,
    FormatError,
    NumericalError,
    PairingError,
    ParameterError,
    ValidationError,
)

_A_SUFFIX = ".lora_A"
_B_SUFFIX = ".lora_B"
_DELTA_SUFFIX = ".delta"
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True, eq=False)
class TensorBlock:
    """A named float32 array; the unit of all merging arithmetic."""

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
class LowRankBlock:
    """A named layer ``scale * left @ right``, densified when it is read.

    ``left`` is d_out x r and ``right`` r x d_in, both float32.  ``values``
    has the ``TensorBlock`` contract; it forms the product in float64, rounds
    it once to float32 and is not cached, so only the layer a step works on
    is ever held dense.
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
        object.__setattr__(self, "scale", float(self.scale))
        # finite factors can still overflow float32 in the product; its entries
        # are at most |scale| * max row norm * max column norm (Cauchy-Schwarz),
        # so form it (and raise DataError) only when that bound nears the limit
        bound = (
            abs(self.scale)
            * np.linalg.norm(left.astype(np.float64), axis=1).max()
            * np.linalg.norm(right.astype(np.float64), axis=0).max()
        )
        if not bound < _F32_MAX / 2:
            self.values  # raises DataError if the product is not finite in float32

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
        product = self.left.astype(np.float64) @ self.right.astype(np.float64)
        product *= self.scale
        # an entry past float32 range becomes inf and TensorBlock rejects it
        with np.errstate(over="ignore"):
            product = product.astype(np.float32)
        return TensorBlock(self.name, product).values


def factored_svd(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, ...]:
    """Thin SVD ``(u, s, vt)`` of ``left @ right`` without forming the product.

    ``left`` is d_out x k with k <= d_out, both float64.  A QR of ``left``
    reduces the problem to the k-row matrix ``R @ right`` (Halko, Martinsson
    & Tropp, arXiv:0909.4061), which yields k singular triplets.
    """
    q, r = np.linalg.qr(left)
    u, s, vt = np.linalg.svd(r @ right, full_matrices=False)
    return q @ u, s, vt


@dataclass(frozen=True, eq=False)
class LoraAdapter:
    """Per-layer (A, B) factor pairs sharing one rank and alpha."""

    layers: dict[str, tuple[TensorBlock, TensorBlock]]
    rank: int
    alpha: float
    label: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.layers:
            raise ValidationError("adapter has no layers")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValidationError(f"rank must be a positive integer, got {self.rank!r}")
        if not (float(self.alpha) > 0 and np.isfinite(self.alpha)):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha!r}")
        for layer, (a, b) in self.layers.items():
            if a.values.ndim != 2 or b.values.ndim != 2:
                raise ValidationError(f"layer {layer!r}: A and B must be 2-D")
            if a.shape[0] != self.rank or b.shape[1] != self.rank:
                raise ValidationError(
                    f"layer {layer!r}: A is {a.shape}, B is {b.shape}, "
                    f"but rank is {self.rank}"
                )


@dataclass(frozen=True, eq=False)
class DeltaMap:
    """Per-layer delta tensors for one labelled model, dense or low-rank."""

    layers: dict[str, TensorBlock | LowRankBlock]
    label: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.layers:
            raise ValidationError("delta map has no layers")
        for layer, block in self.layers.items():
            if len(block.shape) != 2:
                raise ValidationError(f"layer {layer!r}: delta must be 2-D, got {block.shape}")

    @classmethod
    def from_arrays(cls, layers: Mapping[str, np.ndarray], label: str = "") -> "DeltaMap":
        return cls({name: TensorBlock(name, arr) for name, arr in layers.items()}, label)


def compute_delta(adapter: LoraAdapter) -> DeltaMap:
    """Each layer's delta ``(alpha / rank) * B @ A``, kept as its factors.

    Reading a layer's ``values`` accumulates the product in float64 and
    rounds it once to float32.
    """
    adapter.validate()
    scale = float(adapter.alpha) / float(adapter.rank)
    layers = {
        layer: LowRankBlock(layer, b.values, a.values, scale)
        for layer, (a, b) in adapter.layers.items()
    }
    return DeltaMap(layers, adapter.label)


def save_adapter(adapter: LoraAdapter, path: str) -> None:
    """Write an adapter; revalidates first so nothing is written on failure."""
    adapter.validate()
    tensors = {}
    for layer, (a, b) in adapter.layers.items():
        tensors[layer + _A_SUFFIX] = a.values
        tensors[layer + _B_SUFFIX] = b.values
    metadata = {
        "rank": str(adapter.rank),
        "alpha": repr(float(adapter.alpha)),
        "label": adapter.label,
    }
    container.write_tensors(path, tensors, metadata)


def _adapter_from_payload(
    tensors: dict[str, np.ndarray], metadata: dict[str, str], path: str
) -> LoraAdapter:
    for key in ("rank", "alpha", "label"):
        if key not in metadata:
            raise FormatError(f"{path}: adapter metadata is missing {key!r}")
    try:
        rank = int(metadata["rank"])
        alpha = float(metadata["alpha"])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed rank/alpha metadata ({exc})") from exc

    a_parts: dict[str, np.ndarray] = {}
    b_parts: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        if name.endswith(_A_SUFFIX) and len(name) > len(_A_SUFFIX):
            a_parts[name[: -len(_A_SUFFIX)]] = arr
        elif name.endswith(_B_SUFFIX) and len(name) > len(_B_SUFFIX):
            b_parts[name[: -len(_B_SUFFIX)]] = arr
        else:
            raise FormatError(
                f"{path}: tensor {name!r} does not follow the <layer>.lora_A/.lora_B convention"
            )
    missing_b = sorted(set(a_parts) - set(b_parts))
    missing_a = sorted(set(b_parts) - set(a_parts))
    if missing_b:
        raise PairingError(f"{path}: missing lora_B for layer {missing_b[0]!r}")
    if missing_a:
        raise PairingError(f"{path}: missing lora_A for layer {missing_a[0]!r}")

    layers = {
        layer: (
            TensorBlock(layer + _A_SUFFIX, a_parts[layer]),
            TensorBlock(layer + _B_SUFFIX, b_parts[layer]),
        )
        for layer in sorted(a_parts)
    }
    return LoraAdapter(layers, rank, alpha, metadata["label"])


def load_adapter(path: str) -> LoraAdapter:
    """Read and validate an adapter container file."""
    tensors, metadata = container.read_tensors(path)
    return _adapter_from_payload(tensors, metadata, path)


def save_delta(delta: DeltaMap, path: str) -> None:
    delta.validate()
    tensors = {layer + _DELTA_SUFFIX: block.values for layer, block in delta.layers.items()}
    container.write_tensors(path, tensors, {"label": delta.label})


def _delta_from_payload(
    tensors: dict[str, np.ndarray], metadata: dict[str, str], path: str
) -> DeltaMap:
    if "label" not in metadata:
        raise FormatError(f"{path}: delta metadata is missing 'label'")
    layers: dict[str, TensorBlock] = {}
    for name, arr in tensors.items():
        if not name.endswith(_DELTA_SUFFIX) or len(name) == len(_DELTA_SUFFIX):
            raise FormatError(
                f"{path}: tensor {name!r} does not follow the <layer>.delta convention"
            )
        layers[name[: -len(_DELTA_SUFFIX)]] = TensorBlock(name[: -len(_DELTA_SUFFIX)], arr)
    return DeltaMap(layers, metadata["label"])


def load_delta(path: str) -> DeltaMap:
    """Read and validate a delta container file."""
    tensors, metadata = container.read_tensors(path)
    return _delta_from_payload(tensors, metadata, path)


def load_as_delta(path: str) -> DeltaMap:
    """Load either a delta file or an adapter file (computing its delta)."""
    tensors, metadata = container.read_tensors(path)
    names = list(tensors)
    if all(n.endswith(_DELTA_SUFFIX) for n in names):
        return _delta_from_payload(tensors, metadata, path)
    if all(n.endswith((_A_SUFFIX, _B_SUFFIX)) for n in names):
        return compute_delta(_adapter_from_payload(tensors, metadata, path))
    raise FormatError(f"{path}: mixed or unknown tensor naming, cannot infer file kind")


def refactor_to_adapter(delta: DeltaMap, rank: int) -> LoraAdapter:
    """Approximate a delta by a rank-``rank`` adapter via truncated SVD.

    Per layer, ``delta ~= (U sqrt(S)) @ (sqrt(S) Vt)`` keeping the top
    ``rank`` singular triplets.  The result uses alpha == rank so its
    reconstructed delta is plain ``B @ A``.  A low-rank layer whose own rank
    is below its dimensions (and at least ``rank``) is factored without
    forming its dense values.
    """
    delta.validate()
    if not isinstance(rank, int) or rank < 1:
        raise ParameterError(f"refactor rank must be a positive integer, got {rank!r}")
    for layer, block in delta.layers.items():
        if rank > min(block.shape):
            raise ParameterError(
                f"refactor rank {rank} exceeds min dimension of layer {layer!r} {block.shape}"
            )
    layers: dict[str, tuple[TensorBlock, TensorBlock]] = {}
    for layer, block in delta.layers.items():
        try:
            if isinstance(block, LowRankBlock) and rank <= block.rank < min(block.shape):
                u, s, vt = factored_svd(
                    block.left.astype(np.float64), block.scale * block.right.astype(np.float64)
                )
            else:
                u, s, vt = np.linalg.svd(block.values.astype(np.float64), full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge on layer {layer!r}") from exc
        root = np.sqrt(s[:rank])
        b = (u[:, :rank] * root).astype(np.float32)
        a = (root[:, None] * vt[:rank]).astype(np.float32)
        layers[layer] = (
            TensorBlock(layer + _A_SUFFIX, a),
            TensorBlock(layer + _B_SUFFIX, b),
        )
    return LoraAdapter(layers, rank, float(rank), delta.label)
