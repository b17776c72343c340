"""Exception types shared across the package, and the byte budget of ResourceLimitError."""

# the largest working set, in bytes, that one command may build: the member matrix of
# `bell.verify_completeness`, a block of `magic.verify_partial_basis` trials, one outcome
# array of `teleport.composite_expand`.  Each guard reads it when called and refuses a
# larger need before anything is allocated.
BYTE_BUDGET = 2**28


def over_budget(log2_bytes: int) -> bool:
    """Whether 2^log2_bytes bytes exceed BYTE_BUDGET, decided without forming 2^log2_bytes."""
    return log2_bytes >= BYTE_BUDGET.bit_length()


def mebibytes(log2_bytes: int) -> str:
    """2^log2_bytes bytes in whole MiB: digits up to 2^80 bytes, a power of two above."""
    return str(2**log2_bytes >> 20) if log2_bytes <= 80 else f"2^{log2_bytes - 20}"


class QtelError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QtelError, ValueError):
    """Operands have incompatible or unexpected dimensions."""


class ValidationError(QtelError, ValueError):
    """An input object violates a stated invariant (e.g. normalization)."""


class DomainError(QtelError, ValueError):
    """An index or parameter lies outside its allowed range."""


class ResourceLimitError(QtelError, ValueError):
    """An exhaustive computation was requested beyond its supported size."""


class InternalConsistencyError(QtelError, RuntimeError):
    """A quantity the theory guarantees failed its numerical check."""
