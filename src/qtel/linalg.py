"""Dense complex linear algebra for 2^N-dimensional states and operators.

Everything here is a thin, shape-checked layer over numpy.  The qubit
convention is fixed once and for all: a basis index i of an n-qubit state
encodes the bit string i_1 i_2 ... i_n big-endian, with qubit 1 the most
significant bit.  Kronecker products put their left factor on the more
significant qubits, so ``np.kron(a, b)`` acts with ``a`` on the leading
qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_TOL, ShapeError, Tolerance, ValidationError, excerpt


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a complex128 matrix, or to a stack (..., m, n) of them."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ShapeError(f"expected a 2-D matrix or a stack of them, got ndim={m.ndim}")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return as_complex_matrix(a).conj().swapaxes(-1, -2)


def is_scaled_identity(a, scale, tol: Tolerance = DEFAULT_TOL):
    """Test whether ``a`` equals ``scale`` times the identity.

    Returns ``(ok, max_deviation)`` where the deviation is the largest
    entrywise distance from the target, reported even on failure.  For a
    stack (..., d, d) of matrices, with ``scale`` a number or an array over
    the stack, both are arrays over the stack.
    """
    a = as_complex_matrix(a)
    if a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"expected a square matrix, got {a.shape}")
    # |a - scale·1| entry by entry, without building the target
    deviation = np.abs(a)
    diag = np.arange(a.shape[-1])
    deviation[..., diag, diag] = np.abs(a[..., diag, diag] - np.expand_dims(scale, -1))
    deviation = np.max(deviation, axis=(-2, -1))
    if a.ndim == 2:
        deviation = float(deviation)
    return deviation <= tol.abs_eps, deviation


def is_maximally_entangled(m, tol: Tolerance = DEFAULT_TOL):
    """The maximal-entanglement condition M†M = 2^-n·1 on a 2^n x 2^n matrix.

    It is the perfect-channel criterion for E and the per-member condition
    for B^(α).  Returns ``(ok, max_deviation)`` as `is_scaled_identity`,
    also for a stack of matrices.
    """
    m = as_complex_matrix(m)
    return is_scaled_identity(dagger(m) @ m, 1.0 / m.shape[-2], tol)


def _finite(amplitudes: np.ndarray) -> np.ndarray:
    """Return `amplitudes` (any shape) if every entry is finite; the package's one such check."""
    if not np.isfinite(amplitudes).all():
        raise ValidationError("amplitudes must be finite")
    return amplitudes


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``n_qubits`` qubits, amplitudes indexed big-endian."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {excerpt(self.n_qubits)}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        # bit lengths first: an n_qubits read from a file is never raised to a power
        if amps.size.bit_length() != self.n_qubits + 1 or amps.size != 2**self.n_qubits:
            n = excerpt(self.n_qubits)
            raise ShapeError(f"expected 2^{n} amplitudes for {n} qubits, got {amps.size}")
        object.__setattr__(self, "amplitudes", _finite(amps))

    def norm(self) -> float:
        with np.errstate(over="ignore"):  # the norm of huge amplitudes is inf: not normalized
            return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol.abs_eps

    def matrix(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """A copy of the 2^n x 2^n matrix of a normalized 2n-qubit state: E, or a seed's B^(0).

        Amplitude j·2^n + k is entry (j, k), so the reshape round-trips bit for bit.
        """
        if self.n_qubits % 2:
            raise ShapeError(f"state needs an even qubit count, got {self.n_qubits} qubits")
        if not self.is_normalized(tol):
            raise ValidationError(f"state is not normalized: |norm - 1| = "
                                  f"{abs(self.norm() - 1.0):.3e}")
        dim = 2 ** (self.n_qubits // 2)
        return self.amplitudes.reshape(dim, dim).copy()

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if other.n_qubits != self.n_qubits:
            raise ShapeError("qubit count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(n_qubits: int, index: int) -> StateVector:
    if not 0 <= index < 2**n_qubits:
        raise ValidationError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a C-contiguous 2-D array, as one stacked ``matmul``
    of 1×k · k×1 items (per part if complex): BLAS ``ddot`` on each, as in ``ndarray.dot``."""
    if np.iscomplexobj(a):
        re, im = a.real, a.imag
        return np.sqrt((re[:, None] @ re[..., None] + im[:, None] @ im[..., None])[:, 0, 0])
    return np.sqrt((a[:, None] @ a[..., None])[:, 0, 0])


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    dim = 2**n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n_qubits, v / _row_norms(v[None])[0])


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))
