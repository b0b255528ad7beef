"""Merge independently trained LoRA language adapters into one, and account
for the training time/cost advantage of merging over retraining.

The core objects are :class:`LoraAdapter` (per-layer low-rank factors) and
:class:`DeltaMap` (per-layer full-rank deltas, the "language vectors" that
merging operates on).  :func:`merge` runs a TIES pipeline optionally
preceded by DARE pruning and/or KnOTS SVD alignment.

Every public name, and every submodule, is imported on first use through
one table (``_MODULES``), so ``from loramerge import merge`` works as before
while a merge does not load the cost, metric and similarity tools, and a bare
``import loramerge`` loads no numpy: a missing numpy shows at first use.
"""

import importlib

# each submodule and the public names it defines; blas and rng define none
_MODULES = {
    "adapters": (
        "DeltaMap", "LoraAdapter", "LowRankBlock", "TensorBlock", "compute_delta",
        "load_adapter", "load_as_delta", "load_delta", "refactor_to_adapter",
        "save_adapter", "save_delta",
    ),
    "blas": (),
    "container": ("read_header", "read_tensors", "write_tensors"),
    "costing": (
        "ComparisonReport", "CostScenario", "LanguageUpdate", "MeasuredCosts",
        "initial_setup", "lpt_makespan", "reduction_pct", "render_table",
        "scenario_from_json_dict", "update_language",
    ),
    "errors": (
        "AlignmentError", "DataError", "FormatError", "LoramergeError", "NumericalError",
        "OverlapError", "PairingError", "ParameterError", "RateUndefinedError",
        "ReductionUndefinedError", "SimilarityUndefinedError", "StorageError",
        "ValidationError",
    ),
    "merging": (
        "MergeConfig", "dare_prune", "disjoint_merge", "elect_sign", "knots_merge",
        "knots_transform", "merge", "trim",
    ),
    "metrics": (
        "PRF", "accuracy", "evaluate_task", "hallucination_rate", "macro_prf",
        "rouge_l", "rouge_n", "tokenize",
    ),
    "rng": (),
    "similarity": ("SimilarityMatrix", "cosine", "flatten", "similarity_matrix"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}


def __getattr__(name: str):
    """Import a submodule, or the module of a public name, on first use (PEP 562)."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_HOME})


__version__ = "0.1.0"

__all__ = sorted(_HOME)
