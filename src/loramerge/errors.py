"""Error types raised across the package.

Every error carries a short machine-readable ``code`` (stable, used as the
one-line prefix on the CLI error stream) and the process exit code the CLI
maps it to: 1 for validation problems, 2 for I/O, 3 for numerical failures.
It also holds the one rule for what counts as a number in outside input:
a string is not one, nor a bool (what a JSON true parses to); and the one
rule for a finite one: it converts to a finite float, which a JSON integer
too large for a float does not.
"""

import math
import numbers


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    if not is_real(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past float range
        return False


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
