"""Generalized Bell measurement bases for 2n-qubit projective measurements.

A basis is the family of 2^{2n} matrices B^(α) obtained by reshaping the
measurement states with the measured-information side as the row index.
The canonical construction applies each quaternary Pauli string to the
first n qubits of a seed state whose matrix already satisfies the
maximal-entanglement condition B†B = 2^-n·1, so B^(α) = P_α B^(0).

Such a basis is stored as its seed B^(0) plus the label α: `PauliMembers`
builds the dense member P_α B^(0) only when it is indexed, one member per
index, from the signed-permutation tables of `pauli.action_tables`.  A
family given member by member (e.g. a ``--basis`` file) is stored densely
as a tuple and has no seed.
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
    """The members P_α B^(0), α = 0 .. 4^n - 1, each built when it is indexed."""

    def __init__(self, seed: np.ndarray):
        self.seed = seed
        self.n = int(seed.shape[0]).bit_length() - 1

    def __len__(self) -> int:
        return 4**self.n

    def __getitem__(self, alpha: int) -> np.ndarray:
        if not -len(self) <= alpha < len(self):
            raise IndexError(f"member index {alpha} out of range for {len(self)} members")
        perm, phase = action_tables(self.n)
        # + 0.0 turns the -0.0 that a sign flip makes of a zero entry into 0.0
        return phase[alpha][:, None] * self.seed[perm[alpha]] + 0.0


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
    before constructing the basis.
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
    basis = BellBasis(n, members)
    ok, deviation = verify_completeness(basis, tol)
    if not ok:
        raise ValidationError(f"family is not complete (deviation {deviation:.3e})")
    return basis


def _member_matrix(basis: BellBasis) -> np.ndarray:
    """The (4^n, 4^n) matrix whose row α is B^(α) flattened.

    For a generated basis it is built from the seed in one pass, in place
    and with the arithmetic of `PauliMembers.__getitem__`, so it is bit for
    bit the stack of the members; a dense family is stacked as it is.
    """
    if basis.seed is None:
        return np.array([m.reshape(-1) for m in basis.members])
    perm, phase = action_tables(basis.n)
    vecs = basis.seed[perm]
    vecs *= phase[:, :, None]
    vecs += 0.0
    return vecs.reshape(basis.size, -1)


def verify_completeness(basis: BellBasis, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Check sum_α B^(α)_ij B^(α)*_kl = δ_ik δ_jl over all index quadruples.

    The sum is one product of the member matrix (`_member_matrix`: for a
    generated basis, the seed's rows permuted and multiplied by the phases
    of `pauli.action_tables` in place, without building each member) with
    its conjugate.
    """
    vecs = _member_matrix(basis)
    resolution = vecs.T @ vecs.conj()  # (ij),(kl) entry of the completeness sum
    _, deviation = is_scaled_identity(resolution, 1.0, tol)
    return deviation <= tol.abs_eps, deviation


def is_maximal_member(basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Per-member condition B^(α)†B^(α) = 2^-n·1."""
    return is_maximally_entangled(basis.member(alpha), tol)[0]
