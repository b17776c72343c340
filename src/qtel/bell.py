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
`serialize.basis_to_list` from it at the positions `pauli.action_index`
names.  A family given member by member (e.g. a ``--basis`` file) is stored
densely as one read-only (4^n, 2^n, 2^n) array and has no seed.

Completeness is the resolution R = V^T·conj(V) = 1 of the (4^n, 4^n) member
matrix V, whose row α is B^(α) flattened.  R is Hermitian, and BLAS computes
its entry (q, p) from the same products, summed in the same order over α, as
the conjugate of its entry (p, q), so the two have the same modulus bit for
bit.  `verify_completeness` therefore evaluates R only on and above its block
diagonal, one block row at a time, and never holds R itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import DomainError, ResourceLimitError, ShapeError, ValidationError
from .linalg import (DEFAULT_TOL, StateVector, Tolerance, is_maximally_entangled,
                     is_scaled_identity)
from .pauli import action_index, signed_copies

# verify_completeness evaluates the completeness sum this many columns at a time: a multiple
# of 4, which gives each entry the bits it has in the one (4^n, 4^n) product (1, 2 and 7 do not)
COMPLETENESS_BLOCK_COLUMNS = 64


class PauliMembers(Sequence):
    """The members P_α B^(0), α = 0 .. 4^n - 1, read from one table of signed seed rows.

    Row k·2^n + s of `table` is i^k·B^(0)[s] (`pauli.signed_copies`), so row r
    of P_α B^(0) is row ``action_index(n)[α, r]`` of `table` (`pauli.action_index`).
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
        return self.table[action_index(self.n)[alpha]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (4^n, 2^n, 2^n) stack of every member."""
        return np.asarray(self.table[action_index(self.n)], dtype=dtype)


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

    def member_state(self, alpha: int) -> StateVector:
        """The measurement state |B^(α)> as a 2n-qubit vector."""
        return StateVector(2 * self.n, self.member(alpha).reshape(-1))


def standard_seed(n: int) -> StateVector:
    """Product of Bell pairs pairing qubit r with qubit n+r; matrix 2^{-n/2}·I."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    dim = 2**n
    return StateVector(2 * n, np.eye(dim, dtype=np.complex128).reshape(-1) / np.sqrt(dim))


def generate_from_seed(seed: StateVector, tol: Tolerance = DEFAULT_TOL) -> BellBasis:
    """Generate the full basis by Pauli products on the first-n qubits.

    Member α is σ^(α)|B^(0)> with σ^(α) the quaternary Pauli string acting
    on the measured-information side, i.e. B^(α) = P_α · B^(0) as matrices.
    Only the seed is stored; members are built when indexed.
    """
    if seed.n_qubits % 2 != 0:
        raise ShapeError(f"seed must have an even qubit count, got {seed.n_qubits}")
    n = seed.n_qubits // 2
    dim = 2**n
    if not seed.is_normalized(tol):
        raise ValidationError("seed state is not normalized")
    b0 = seed.amplitudes.reshape(dim, dim).copy()
    b0.flags.writeable = False
    ok, deviation = is_maximally_entangled(b0, tol)
    if not ok:
        raise ValidationError(
            f"seed is not maximally entangled: max |B†B - 2^-n·1| = {deviation:.3e}"
        )
    return BellBasis(n, PauliMembers(b0))


def standard_basis(n: int) -> BellBasis:
    return generate_from_seed(standard_seed(n))


def bell_basis_from_members(members, tol: Tolerance = DEFAULT_TOL) -> BellBasis:
    """Accept an arbitrary orthonormal maximally-entangled family.

    Runs the orthonormality, completeness, and per-member maximality checks
    before constructing the basis, whose members are one read-only
    (4^n, 2^n, 2^n) array.
    """
    members = tuple(np.asarray(m, dtype=np.complex128) for m in members)
    if not members:
        raise ValidationError("basis family is empty")
    dim = members[0].shape[0]
    n = int(dim).bit_length() - 1
    if 2**n != dim or len(members) != 4**n:
        raise ShapeError(f"expected 4^n matrices of size 2^n, got {len(members)} of {dim}")
    for alpha, m in enumerate(members):
        if m.shape != (dim, dim):
            raise ShapeError(f"member {alpha} has shape {m.shape}")
        ok, deviation = is_maximally_entangled(m, tol)
        if not ok:
            raise ValidationError(
                f"member {alpha} is not maximally entangled (deviation {deviation:.3e})"
            )
    stack = np.stack(members)
    stack.flags.writeable = False
    basis = BellBasis(n, stack)
    ok, deviation = verify_completeness(basis, tol)
    if not ok:
        raise ValidationError(f"family is not complete (deviation {deviation:.3e})")
    return basis


def check_completeness_size(n: int):
    """Refuse an n whose completeness check needs a member matrix over `errors.BYTE_BUDGET`.

    The matrix takes 16·16^n bytes, so n <= 6 runs and n >= 7 is a
    ResourceLimitError; ``bell gen`` calls it before it builds the seed.
    """
    matrix_bytes = 16 * 16**n
    if matrix_bytes > errors.BYTE_BUDGET:
        raise ResourceLimitError(f"checking completeness at n={n} needs a "
                                 f"{matrix_bytes >> 20} MiB member matrix, over the "
                                 f"{errors.BYTE_BUDGET >> 20} MiB limit")


def verify_completeness(basis: BellBasis, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Check sum_α B^(α)_ij B^(α)*_kl = δ_ik δ_jl over all index quadruples.

    The sum is R = V^T·conj(V), with row α of V the flattened B^(α).  For
    each block I of COMPLETENESS_BLOCK_COLUMNS columns, conj(V[:, I])^T·V on
    the columns from I onwards is the conjugate of R's block row I on and
    above the diagonal: its leading square block is tested as a scaled
    identity, the rest entry by entry against 0, and the block is dropped.
    |R[q, p]| = |R[p, q]| bit for bit, so the deviation is max |R - 1| over
    all of R, which is never held.  A member matrix over
    `errors.BYTE_BUDGET` is a ResourceLimitError, raised before it is built.
    """
    check_completeness_size(basis.n)
    size = basis.size
    vecs = np.asarray(basis.members).reshape(size, -1)
    deviation = 0.0
    for start in range(0, size, COMPLETENESS_BLOCK_COLUMNS):
        block = vecs[:, start:start + COMPLETENESS_BLOCK_COLUMNS].conj().T
        part = block @ vecs[:, start:]
        width = block.shape[0]
        _, diagonal_dev = is_scaled_identity(part[:, :width], 1.0, tol)
        deviation = max(deviation, diagonal_dev, float(np.abs(part[:, width:]).max(initial=0.0)))
    return deviation <= tol.abs_eps, deviation


def is_maximal_member(basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Per-member condition B^(α)†B^(α) = 2^-n·1."""
    return is_maximally_entangled(basis.member(alpha), tol)[0]
