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
`serialize.basis_to_list` from it through `PauliMembers.rows`.  A family
given member by member (e.g. a ``--basis`` file) is stored densely as one
read-only (4^n, 2^n, 2^n) array and has no seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, ValidationError
from .linalg import (DEFAULT_TOL, StateVector, Tolerance, is_maximally_entangled,
                     is_scaled_identity)
from .pauli import action_tables


class PauliMembers(Sequence):
    """The members P_α B^(0), α = 0 .. 4^n - 1, read from one table of signed seed rows.

    Row r of P_α B^(0) is phase[α, r] · B^(0)[perm[α, r]] (`pauli.action_tables`)
    with phase[α, r] = i^k, which is row k·2^n + perm[α, r] of `table`.
    """

    def __init__(self, seed: np.ndarray):
        self.seed = seed
        self.n = int(seed.shape[0]).bit_length() - 1
        # row k·2^n + s is i^k · B^(0)[s]; + 0.0 turns the -0.0 that a sign flip
        # makes of a zero entry into 0.0
        table = np.array([1, 1j, -1, -1j])[:, None, None] * seed + 0.0
        self.table = table.reshape(-1, seed.shape[1])
        self.table.flags.writeable = False

    def rows(self, alphas) -> np.ndarray:
        """Positions in `table` of the rows of the members `alphas` (an index or a slice)."""
        perm, phase = action_tables(self.n)
        perm, phase = perm[alphas], phase[alphas]
        # phase is exactly 1, i, -1 or -i, that is i^k with k = 0, 1, 2 or 3
        k = np.where(phase.imag == 0, 1 - phase.real, 2 - phase.imag).astype(np.intp)
        return k * 2**self.n + perm

    def __len__(self) -> int:
        return 4**self.n

    def __getitem__(self, alpha: int) -> np.ndarray:
        if not -len(self) <= alpha < len(self):
            raise IndexError(f"member index {alpha} out of range for {len(self)} members")
        return self.table[self.rows(alpha)]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (4^n, 2^n, 2^n) stack of every member."""
        return np.asarray(self.table[self.rows(slice(None))], dtype=dtype)


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


def verify_completeness(basis: BellBasis, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Check sum_α B^(α)_ij B^(α)*_kl = δ_ik δ_jl over all index quadruples.

    The sum is one product of the member matrix, whose row α is B^(α)
    flattened, with its conjugate.
    """
    vecs = np.asarray(basis.members).reshape(basis.size, -1)
    resolution = vecs.T @ vecs.conj()  # (ij),(kl) entry of the completeness sum
    _, deviation = is_scaled_identity(resolution, 1.0, tol)
    return deviation <= tol.abs_eps, deviation


def is_maximal_member(basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Per-member condition B^(α)†B^(α) = 2^-n·1."""
    return is_maximally_entangled(basis.member(alpha), tol)[0]
