"""Exception types, the tolerance, the resource limits and the excerpt rule; imports no numpy."""

import sys

# the largest size, in bytes, that each of three guards allows the arrays it names, though none
# is built whole: the (4^n, 4^n) member matrix of `bell.verify_completeness` (read in 64 x 64
# tiles), four (4^n, 2^n) outcome arrays per trial of `magic.verify_partial_basis` (formed 256
# outcomes at a time) and one of `teleport.composite_expand`, which forms none and keeps three
# (4^n,) columns.  The limits they set are kept for what is still held or written whole, a dense
# family or printed basis of 16^n entries, until each guard is sized by what its command holds.
# Each guard calls `check_budget` with its need before anything is allocated, and `check_budget`
# reads the budget when called.
BYTE_BUDGET = 2**28
# the largest n of the exhaustive anticommutation graph, and of the CLI's clique `--n` choices
GRAPH_EXHAUSTIVE_MAX_QUBITS = 3
DEFAULT_ABS_EPS = 1e-9
# the longest quotation of a value from outside the program in an error message, in bytes
EXCERPT_CHARS = 80


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


class Tolerance(float):
    """Absolute comparison tolerance, a positive and finite float.  All quantities here are O(1).

    `abs_eps` reads it as a plain `float`.  Not a dataclass, so that a cold CLI call,
    a refusal included, imports no `dataclasses` and `inspect`.
    """

    __slots__ = ()
    abs_eps = property(float)

    def __new__(cls, abs_eps: float = DEFAULT_ABS_EPS):
        if not 0 < abs_eps < float("inf"):
            raise ValidationError(f"tolerance must be positive and finite, got {abs_eps}")
        return super().__new__(cls, abs_eps)

    def __repr__(self):
        return f"Tolerance(abs_eps={self.abs_eps!r})"


DEFAULT_TOL = Tolerance()


def check_budget(log2_bytes: int, message: str, **fields):
    """Raise a ResourceLimitError if 2^log2_bytes bytes exceed BYTE_BUDGET.

    Decided by bit length, so no 2^log2_bytes is formed for an n from outside the
    program.  The error's text is `message` formatted with the `excerpt` of each
    of `fields`, `size` (whole MiB: digits up to 2^80 bytes, a power of two above)
    and `budget` (in MiB).
    """
    if log2_bytes >= BYTE_BUDGET.bit_length():
        size = str(2**log2_bytes >> 20) if log2_bytes <= 80 else f"2^{excerpt(log2_bytes - 20)}"
        raise ResourceLimitError(message.format(
            size=size, budget=BYTE_BUDGET >> 20, **{k: excerpt(v) for k, v in fields.items()}))


def excerpt(value) -> str:
    """The repr of a value an error quotes, in at most about EXCERPT_CHARS bytes.

    A longer repr is cut by `_cut`.  An integer of more than 24 digits is written
    as its first 20 digits, '…' and its digit count, so that no such integer is
    converted whole (CPython refuses past 4,300 digits) and two of them still fit
    one short error line.
    """
    if type(value) is int and abs(value) >= 10**24:
        size = abs(value)
        digits = int(size.bit_length() * 0.30102999566398120)  # log10(2): digits or digits - 1
        digits += size >= 10**digits
        return f"{'-' * (value < 0)}{size // 10 ** (digits - 20)}…({digits} digits)"
    return _cut(repr(value))


def _size(text: str) -> int:
    """The bytes of `text` as stderr writes it: its encoding or UTF-8, what that lacks escaped."""
    return len(text.encode(getattr(sys.stderr, "encoding", None) or "utf-8", "backslashreplace"))


def _cut(text: str) -> str:
    """`text` if it fits EXCERPT_CHARS bytes (`_size`), else its longest head that does and '…'."""
    head = text[:EXCERPT_CHARS]
    while _size(head) > EXCERPT_CHARS:
        head = head[:-1]
    return text if head == text else head + "…"
