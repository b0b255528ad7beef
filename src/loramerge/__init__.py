"""Merge independently trained LoRA language adapters into one, and account
for the training time/cost advantage of merging over retraining.

The core objects are :class:`LoraAdapter` (per-layer low-rank factors) and
:class:`DeltaMap` (per-layer full-rank deltas, the "language vectors" that
merging operates on).  :func:`merge` runs a TIES pipeline optionally
preceded by DARE pruning and/or KnOTS SVD alignment.

The cost, metric and similarity tools are imported on first use of one of
their names, so a merge does not load them.
"""

import importlib

from .adapters import (
    DeltaMap,
    LoraAdapter,
    LowRankBlock,
    TensorBlock,
    compute_delta,
    load_adapter,
    load_as_delta,
    load_delta,
    refactor_to_adapter,
    save_adapter,
    save_delta,
)
from .container import read_header, read_tensors, write_tensors
from .errors import (
    AlignmentError,
    DataError,
    FormatError,
    LoramergeError,
    NumericalError,
    OverlapError,
    PairingError,
    ParameterError,
    RateUndefinedError,
    ReductionUndefinedError,
    SimilarityUndefinedError,
    StorageError,
    ValidationError,
)
from .merging import (
    MergeConfig,
    dare_prune,
    disjoint_merge,
    elect_sign,
    knots_merge,
    knots_transform,
    merge,
    trim,
)

# names of the side tools' modules, imported by __getattr__ on first use
_LAZY = {
    "costing": (
        "ComparisonReport",
        "CostScenario",
        "LanguageUpdate",
        "MeasuredCosts",
        "initial_setup",
        "lpt_makespan",
        "reduction_pct",
        "render_table",
        "scenario_from_json_dict",
        "update_language",
    ),
    "metrics": (
        "PRF",
        "accuracy",
        "evaluate_task",
        "hallucination_rate",
        "macro_prf",
        "rouge_l",
        "rouge_n",
        "tokenize",
    ),
    "similarity": ("SimilarityMatrix", "cosine", "flatten", "similarity_matrix"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import a side tool's module, or one of its names, on first use (PEP 562)."""
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})


__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "ComparisonReport",
    "CostScenario",
    "DataError",
    "DeltaMap",
    "FormatError",
    "LanguageUpdate",
    "LoraAdapter",
    "LowRankBlock",
    "LoramergeError",
    "MeasuredCosts",
    "MergeConfig",
    "NumericalError",
    "OverlapError",
    "PRF",
    "PairingError",
    "ParameterError",
    "RateUndefinedError",
    "ReductionUndefinedError",
    "SimilarityMatrix",
    "SimilarityUndefinedError",
    "StorageError",
    "TensorBlock",
    "ValidationError",
    "accuracy",
    "compute_delta",
    "cosine",
    "dare_prune",
    "disjoint_merge",
    "elect_sign",
    "evaluate_task",
    "flatten",
    "hallucination_rate",
    "initial_setup",
    "knots_merge",
    "knots_transform",
    "load_adapter",
    "load_as_delta",
    "load_delta",
    "lpt_makespan",
    "macro_prf",
    "merge",
    "read_header",
    "read_tensors",
    "reduction_pct",
    "refactor_to_adapter",
    "render_table",
    "rouge_l",
    "rouge_n",
    "save_adapter",
    "save_delta",
    "scenario_from_json_dict",
    "similarity_matrix",
    "tokenize",
    "trim",
    "update_language",
    "write_tensors",
]
