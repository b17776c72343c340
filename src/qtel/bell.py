"""Generalized Bell measurement bases for 2n-qubit projective measurements.

A basis is the family of 2^{2n} matrices B^(α) obtained by reshaping the
measurement states with the measured-information side as the row index.
The canonical construction applies each quaternary Pauli string to the
first n qubits of a seed state whose matrix already satisfies the
maximal-entanglement condition B†B = 2^-n·1, so B^(α) = P_α B^(0).

Such a basis is stored as its seed B^(0) plus the label α.  Every row of
every member is one of the 4·2^n signed seed rows i^k · B^(0)[s], so
`PauliMembers` computes those rows once, as `table`, and reads a member,
the whole member stack (``np.asarray``) and the JSON text of
`serialize.basis_to_list` from it at the positions that `pauli.action_rows`
forms, for the members read, from two tables of at most 256 x 16 entries.
A family given member by member (e.g. a ``--basis`` file) is stored densely
as one read-only (4^n, 2^n, 2^n) array and has no seed.

Completeness is the resolution R = V^T·conj(V) = 1 of the (4^n, 4^n) member
matrix V, whose row α is B^(α) flattened.  R is Hermitian, and BLAS computes
its entry (q, p) from the same products, summed in the same order over α, as
the conjugate of its entry (p, q), so the two have the same modulus bit for
bit.  `verify_completeness` therefore evaluates R only on and above its
diagonal, in 64 x 64 tiles (4^n x 4^n at n <= 2), each from two blocks of
columns of V, and holds neither R nor V.  A block is whole rows of every
member: a generated basis gathers it from `PauliMembers.table` at the
positions `pauli.action_rows` forms, a dense family reads it as a view of its
stack.  The caller and up to one more thread per available CPU take the block
rows in turn, each thread in one pair of buffers that the caller allocates,
and each tile with the operands and shapes it has alone, so the deviation has
the same bits for any thread count; no option selects it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import DomainError, ShapeError, ValidationError
from .linalg import (DEFAULT_TOL, StateVector, Tolerance, _finite, is_maximally_entangled,
                     is_scaled_identity)
from .pauli import action_rows, signed_copies

# verify_completeness evaluates the completeness sum this many columns at a time, each block
# whole member rows: a power of 4 that is at least 2^n for every n <= 6 the check accepts
COMPLETENESS_BLOCK_COLUMNS = 64


class PauliMembers(Sequence):
    """The members P_α B^(0), α = 0 .. 4^n - 1, read from one table of signed seed rows.

    Row k·2^n + s of `table` is i^k·B^(0)[s] (`pauli.signed_copies`), so row r
    of P_α B^(0) is row ``action_rows(n, α, α + 1)[0, r]`` of `table` (`pauli.action_rows`).
    """

    def __init__(self, seed: np.ndarray):
        self.seed = seed
        self.n = int(seed.shape[0]).bit_length() - 1
        # + 0.0 turns the -0.0 that a sign flip makes of a zero entry into 0.0
        self.table = signed_copies(seed, axis=0) + 0.0
        self.table.flags.writeable = False

    def __len__(self) -> int:
        return 4**self.n

    def __getitem__(self, alpha: int) -> np.ndarray:
        if not -len(self) <= alpha < len(self):
            raise IndexError(f"member index {alpha} out of range for {len(self)} members")
        alpha %= len(self)
        return self.table[action_rows(self.n, alpha, alpha + 1)[0]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (4^n, 2^n, 2^n) stack of every member."""
        return np.asarray(self.table[action_rows(self.n, 0, len(self))], dtype=dtype)


@dataclass(frozen=True)
class BellBasis:
    """Family of 2^{2n} measurement-state matrices, each 2^n x 2^n."""

    n: int
    members: Sequence[np.ndarray] = field(repr=False)

    @property
    def size(self) -> int:
        return 4**self.n

    @property
    def seed(self) -> np.ndarray | None:
        """B^(0) when every member is P_α B^(0), None for a family stored densely."""
        return self.members.seed if isinstance(self.members, PauliMembers) else None

    def member(self, alpha: int) -> np.ndarray:
        """B^(α), for an outcome label 0 <= α < 4^n; any other α is a DomainError."""
        if not 0 <= alpha < self.size:
            raise DomainError(f"alpha={alpha} out of range for basis of size {self.size}")
        return self.members[alpha]


def standard_seed(n: int) -> StateVector:
    """Product of Bell pairs pairing qubit r with qubit n+r; matrix 2^{-n/2}·I."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {errors.excerpt(n)}")
    dim = 2**n
    return StateVector(2 * n, np.eye(dim, dtype=np.complex128).reshape(-1) / np.sqrt(dim))


def generate_from_seed(seed: StateVector, tol: Tolerance = DEFAULT_TOL) -> BellBasis:
    """Generate the full basis by Pauli products on the first-n qubits.

    Member α is σ^(α)|B^(0)> with σ^(α) the quaternary Pauli string acting
    on the measured-information side, i.e. B^(α) = P_α · B^(0) as matrices.
    Only the seed is stored; members are built when indexed.
    """
    b0 = seed.matrix(tol)
    b0.flags.writeable = False
    ok, deviation = is_maximally_entangled(b0, tol)
    if not ok:
        raise ValidationError(
            f"seed is not maximally entangled: max |B†B - 2^-n·1| = {deviation:.3e}"
        )
    return BellBasis(seed.n_qubits // 2, PauliMembers(b0))


def standard_basis(n: int) -> BellBasis:
    return generate_from_seed(standard_seed(n))


def bell_basis_from_members(members, tol: Tolerance = DEFAULT_TOL) -> BellBasis:
    """Accept an arbitrary complete maximally-entangled family.

    Checks the members' shapes, their maximality as one stack, and completeness,
    before building the basis, whose members are one read-only (4^n, 2^n, 2^n)
    array.  Orthonormality follows from completeness: the member matrix is square.
    """
    members = tuple(np.asarray(m, dtype=np.complex128) for m in members)
    if not members:
        raise ValidationError("basis family is empty")
    dim = members[0].shape[0]
    n = int(dim).bit_length() - 1
    if n < 1 or 2**n != dim or len(members) != 4**n:
        raise ShapeError(f"expected 4^n matrices of size 2^n, n >= 1, "
                         f"got {len(members)} of {dim}")
    for alpha, m in enumerate(members):
        if m.shape != (dim, dim):
            raise ShapeError(f"member {alpha} has shape {m.shape}")
    stack = _finite(np.stack(members))
    stack.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: an inf or nan deviation
        ok, deviation = is_maximally_entangled(stack, tol)
    if not ok.all():
        alpha = int(np.argmin(ok))
        raise ValidationError(
            f"member {alpha} is not maximally entangled (deviation {deviation[alpha]:.3e})"
        )
    basis = BellBasis(n, stack)
    ok, deviation = verify_completeness(basis, tol)
    if not ok:
        raise ValidationError(f"family is not complete (deviation {deviation:.3e})")
    return basis


def check_completeness_size(n: int):
    """Refuse an n whose member matrix, 16·16^n bytes, would pass `errors.BYTE_BUDGET`.

    The check never builds that matrix, but a dense family of n >= 7 holds its
    16^n entries, and ``bell gen`` would print them, so n <= 6 runs and n >= 7
    is a ResourceLimitError; ``bell gen`` calls it before it builds the seed.
    """
    errors.check_budget(4 + 4 * n, "checking completeness at n={n} needs a {size} MiB member "
                        "matrix, over the {budget} MiB limit", n=n)


def _column_blocks(basis: BellBasis, width: int):
    """``columns(block, out)``: columns block·width .. of the member matrix V, as (4^n, width).

    Row α of V is B^(α) flattened, so with k = width / 2^n whole rows per
    block, block b is rows b·k .. (b+1)·k - 1 of every member.  For a
    seed-generated basis they are gathered into the flat complex buffer `out`
    from `PauliMembers.table` by one ``np.take``, at those columns of the
    action index `pauli.action_rows` forms once per check.  For a dense family
    they are a strided view of its stack, and `out` is not written.
    """
    size = basis.size
    members = basis.members
    rows = width // 2**basis.n  # whole member rows per block
    if not isinstance(members, PauliMembers):
        stack = np.asarray(members, dtype=np.complex128)
        return lambda block, out: stack[:, block * rows:(block + 1) * rows].reshape(size, width)
    index = action_rows(basis.n, 0, size)

    def columns(block: int, out: np.ndarray) -> np.ndarray:
        out = out.reshape(size, rows, -1)
        return np.take(members.table, index[:, block * rows:(block + 1) * rows], axis=0,
                       mode="clip", out=out).reshape(size, width)

    return columns


def verify_completeness(basis: BellBasis, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Check sum_α B^(α)_ij B^(α)*_kl = δ_ik δ_jl over all index quadruples.

    The sum is R = V^T·conj(V), with row α of V the flattened B^(α).  Take the
    columns of V in blocks of `width` = min(4^n, COMPLETENESS_BLOCK_COLUMNS),
    each whole rows of every member (`_column_blocks`).  For each block I and
    each block J from I onwards, the width x width tile conj(V[:, I])^T·V[:, J]
    is the conjugate of R's tile (I, J): the diagonal tile is tested as a scaled
    identity, the others entry by entry against 0, and each tile is dropped.
    |R[q, p]| = |R[p, q]| bit for bit, so the deviation is max |R - 1| over all
    of R; neither R nor V is ever held.  An n whose member matrix would pass
    `errors.BYTE_BUDGET` is a ResourceLimitError (`check_completeness_size`).

    For a seed-generated basis, Σ_α P_α X P_α† = 2^n·tr(X)·1 makes R equal to
    1 ⊗ 2^n·conj(B^(0)†B^(0)), so the deviation is 2^n times the seed's
    `linalg.is_maximally_entangled` deviation, up to rounding (within 1e-14 for n <= 5).

    `_run_blocks` runs the block rows I on the caller and up to one more thread
    per available CPU, each thread in one pair of buffers that the caller
    allocates, each tile with the operands and shapes it has alone, and the
    deviation is the max of the rows' deviations, so the verdict and the
    deviation do not depend on the thread count.  Block row 0 reads
    every column of V, so a nan entry of V makes its deviation, and so the
    deviation, nan: it never reads as complete.  A check of fewer than 16
    blocks (n <= 4) starts no thread.
    """
    check_completeness_size(basis.n)
    size = basis.size
    width = min(size, COMPLETENESS_BLOCK_COLUMNS)
    blocks = size // width
    columns = _column_blocks(basis, width)

    def fill(block: int, left: np.ndarray, right: np.ndarray) -> float:
        """The deviation of block row `block`, from its tiles in the flat buffers `left` and `right`.

        `left` holds conj(V[:, I]) and then the tile, `right` the columns V[:, J]
        and then, once the product has read them, the |entries| of a tile off the
        diagonal, so a worker allocates nothing large.
        """
        lhs = left[:size * width]
        lhs = np.conjugate(columns(block, lhs), out=lhs.reshape(size, width)).T
        tile = left[size * width:].reshape(width, width)
        deviations = np.empty(blocks - block)
        for j in range(block, blocks):
            part = np.matmul(lhs, columns(j, right[:size * width]), out=tile)
            if j == block:
                _, deviations[0] = is_scaled_identity(part, 1.0, tol)
            else:
                off = np.abs(part, out=right.view(np.float64)[:width * width].reshape(width, width))
                deviations[j - block] = off.max()
        return float(deviations.max())  # a nan in any tile stays nan

    deviation = max(_run_blocks(fill, blocks, (size + width) * width))  # max keeps a leading nan
    return deviation <= tol.abs_eps, deviation


def _run_blocks(fill, blocks: int, entries: int) -> list[float]:
    """What ``fill(block, left, right)`` returns for each block number, filled on threads.

    Each worker has two complex buffers of `entries`, 32·entries bytes: for
    `verify_completeness`, two (4^n + 64) x 64 blocks, about 2 MiB at n = 5 and
    8 MiB at n = 6.  There are at most blocks / 8 workers, so a check of fewer than
    16 block rows, a few milliseconds at n <= 4, starts no thread: 1 worker below
    n = 5, 2 at n = 5 and up to 8 at n = 6, and never more than one per
    available CPU.  The caller is one worker and starts a ``threading.Thread`` for
    each other; every worker takes the next block number from one shared iterator
    and fills it in its own pair of buffers, which the caller allocates, so no
    large array is allocated on a started thread: with each block allocating its
    own arrays there, the teleport-dense benchmark's peak RSS rose from 71.9 to
    77.5 MB (median of 8 runs each, 2-vCPU host, one BLAS thread).  numpy's
    ``matmul`` releases the GIL, so the products run at once.  Once a block
    raises, no worker starts another; every thread is joined, and the failure of
    the first block, in block order, that raised is raised here.  A thread that
    cannot start leaves its blocks to the workers that run.
    """
    import os

    workers = max(1, blocks // 8)
    if workers > 1:  # only then can the CPU count bind
        affinity = getattr(os, "sched_getaffinity", None)
        workers = min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1)
    buffers = [(np.empty(entries, np.complex128), np.empty(entries, np.complex128))
               for _ in range(workers)]
    results, failures = [0.0] * blocks, {}
    claims = iter(range(blocks))  # shared: each next() is one call, atomic under the GIL

    def work(left: np.ndarray, right: np.ndarray):
        for block in claims:
            if failures:
                return
            try:
                results[block] = fill(block, left, right)
            except BaseException as exc:  # raised on the caller, once every thread is joined
                failures[block] = exc
                return

    threads = []
    if workers > 1:
        import threading

        for pair in buffers[1:]:
            thread = threading.Thread(target=work, args=pair)
            try:
                thread.start()
            except RuntimeError:  # e.g. at the process's thread limit
                break
            threads.append(thread)
    work(*buffers[0])
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def is_maximal_member(basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Per-member condition B^(α)†B^(α) = 2^-n·1."""
    return is_maximally_entangled(basis.member(alpha), tol)[0]
