"""Entangled 2N-qubit resource channels and their reshaped matrices.

The channel matrix E is the row-major reshape of the 2N-qubit state with
the A-side (first N qubits) as the row index and the B-side (last N) as
the column index.  A channel teleports perfectly exactly when E†E is
2^-N times the identity; the "character matrix" is 2^{N/2}·E, unitary in
exactly that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import DEFAULT_TOL, StateVector, Tolerance, is_maximally_entangled


@dataclass(frozen=True)
class Channel:
    """2N-qubit resource channel, held as its 2^N x 2^N matrix E.

    `state_from_matrix` recovers the 2N-qubit state.
    """

    n: int
    e_matrix: np.ndarray = field(repr=False)


def channel_from_state(state: StateVector, n: int, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Build a channel from a normalized 2n-qubit state; E is `StateVector.matrix`."""
    e_matrix = state.matrix(tol)
    if state.n_qubits != 2 * n:
        raise ShapeError(
            f"channel for n={n} needs a {2 * n}-qubit state, got {state.n_qubits} qubits"
        )
    return Channel(n, e_matrix)


def state_from_matrix(matrix: np.ndarray, n: int) -> StateVector:
    """Inverse of the channel reshape: matrix entries back to amplitudes."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    dim = 2**n
    if matrix.shape != (dim, dim):
        raise ShapeError(f"expected a {dim}x{dim} matrix, got {matrix.shape}")
    return StateVector(2 * n, matrix.reshape(-1))


def is_perfect(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Perfect-channel criterion: E†E = 2^-n times the identity."""
    return is_maximally_entangled(ch.e_matrix, tol)


def hill_wootters_basis() -> tuple[StateVector, ...]:
    """The four single-pair magic states |e_0>..|e_3>, with their i factors."""
    s = 1 / np.sqrt(2)
    return (
        StateVector(2, np.array([s, 0, 0, s])),
        StateVector(2, np.array([1j * s, 0, 0, -1j * s])),
        StateVector(2, np.array([0, 1j * s, 1j * s, 0])),
        StateVector(2, np.array([0, s, -s, 0])),
    )


def concurrence_2q(state: StateVector, tol: Tolerance = DEFAULT_TOL) -> float:
    """Concurrence |sum_i c_i^2| of a normalized 2-qubit pure state.

    The c_i are the coefficients in the Hill-Wootters magic basis,
    including the i factors on the second and third members; for
    amplitudes (a, b, c, d) the value reduces to 2|ad - bc|.
    """
    if state.n_qubits != 2:
        raise ShapeError(f"concurrence_2q needs a 2-qubit state, got {state.n_qubits} qubits")
    if not state.is_normalized(tol):
        raise ValidationError("state must be normalized")
    coeffs = [e.overlap(state) for e in hill_wootters_basis()]
    return float(abs(sum(c * c for c in coeffs)))
