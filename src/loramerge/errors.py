"""Error types raised across the package.

Every error carries a short machine-readable ``code`` (stable, used as the
one-line prefix on the CLI error stream) and the process exit code the CLI
maps it to: 1 for validation problems, 2 for I/O, 3 for numerical failures.
It also holds the one rule for what counts as a number in outside input:
a string is not one, nor a bool (what a JSON true parses to); the one
rule for a finite one: it converts to a finite float, which a JSON integer
too large for a float does not; and the one rule for an integer: a Python
or numpy integer, never a bool, taken on as a Python ``int``.
"""

import dataclasses
import math
import numbers


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:  # an int past float range
        return False


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def positive_integer(value, what: str, error: type) -> int:
    if not (is_integer(value) and int(value) >= 1):
        raise error(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def check_config_keys(doc, what: str, cls) -> None:
    """A JSON ``what`` must be an object whose keys are fields of ``cls``."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ParameterError(f"unknown {what} keys: {unknown}")


class LoramergeError(Exception):
    """Base class for all errors raised by loramerge."""

    code = "error"
    exit_code = 1


class ParameterError(LoramergeError):
    """An argument is outside its documented range or shape."""

    code = "parameter"


class ValidationError(LoramergeError):
    """A value violates a type invariant (shapes, rank, emptiness)."""

    code = "validation"


class FormatError(LoramergeError):
    """A file does not conform to the container or record format."""

    code = "format"


class OverlapError(FormatError):
    """Tensor data offsets in a container file overlap."""

    code = "overlap"


class PairingError(LoramergeError):
    """An adapter file is missing the A or B factor for a layer."""

    code = "pairing"


class DataError(LoramergeError):
    """Tensor data contains non-finite values (NaN or Inf)."""

    code = "data"


class AlignmentError(LoramergeError):
    """Inputs that must share layer names and shapes do not."""

    code = "alignment"


class SimilarityUndefinedError(LoramergeError):
    """Cosine similarity requested against an all-zero vector."""

    code = "similarity-undefined"


class RateUndefinedError(LoramergeError):
    """Hallucination rate requested with zero generated examples."""

    code = "rate-undefined"


class ReductionUndefinedError(LoramergeError):
    """Percentage reduction from a baseline that is not positive, to a
    different value."""

    code = "reduction-undefined"


class StorageError(LoramergeError):
    """Underlying file could not be read or written."""

    code = "io"
    exit_code = 2


class NumericalError(LoramergeError):
    """A numerical routine (SVD) failed to converge."""

    code = "numerical"
    exit_code = 3
