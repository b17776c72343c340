"""The teleportation protocol engine.

For a BSM outcome α the (unnormalized) amplitudes on Bob's side are
b = O^(α)·I with transformation operator O^(α) = E^T B^(α)†.  When the
channel and the basis member are both maximally entangled, Bob's
correction is the unitary U^(α) = 2^n · B^(α) · E*, which restores the
information state exactly.  Imperfect channels still run: the engine
falls back to the (phase-normalized) inverse of O^(α) when that operator
is a scaled unitary, and to the identity otherwise, and the per-outcome
fidelity reports the damage.

All 4^n outcomes are evaluated together, one row of a (4^n, 2^n) array
each.  For a seed-generated basis B^(α) = P_α B^(0), so O^(α) = K P_α with
K = E^T B^(0)† and O^(α)†O^(α) = P_α G P_α with G = K†K: one product K, one
Gram matrix G and one scaled-identity test serve every outcome, and P_α is
applied as a signed permutation (`pauli.action_tables`).  The test on G is
exact for each α, since P_α only permutes the entries of G - s·1 and
multiplies them by unit phases.  A basis given member by member (``--basis``)
takes the dense path: every O^(α) from one stacked ``einsum`` and a
scaled-identity test per member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bell import BellBasis, is_maximal_member, standard_basis
from .channel import Channel, is_perfect
from .errors import InternalConsistencyError, ShapeError, ValidationError
from .linalg import DEFAULT_TOL, StateVector, Tolerance, dagger, is_scaled_identity
from .pauli import action_tables, matrix_of, pauli_from_quaternary

ZERO_PROBABILITY_EPS = 1e-14
# Sampled mode draws from the probabilities rounded to multiples of
# 1/SAMPLING_GRID.  numpy's binomial draws branch on p <= 1/2, and tied
# probabilities (every perfect channel) put the multinomial exactly on that
# branch point, so unrounded, a 1e-17 change in how a probability is
# computed would change the counts drawn for a seed.
SAMPLING_GRID = 2.0**40


@dataclass(frozen=True)
class TransformationOperator:
    """O^(α) = E^T B^(α)†, the map from information to Bob's amplitudes."""

    alpha: int
    matrix: np.ndarray = field(repr=False)
    unitary_scaled: bool = False
    scale: float = 0.0  # s with O†O = s·1, meaningful when unitary_scaled


@dataclass(frozen=True)
class OutcomeRecord:
    alpha: int
    probability: float
    bob_state: StateVector | None = None
    corrected_state: StateVector | None = None
    fidelity: float | None = None
    zero_probability: bool = False


@dataclass(frozen=True)
class ProtocolResult:
    records: tuple[OutcomeRecord, ...]
    mode: str = "exhaustive"
    shots: int | None = None
    seed: int | None = None
    counts: tuple[int, ...] | None = None  # per-alpha shot counts in sampled mode


def _check_dims(info: StateVector, ch: Channel, basis: BellBasis, tol: Tolerance):
    if ch.n != info.n_qubits:
        raise ShapeError(f"channel n={ch.n} does not match {info.n_qubits}-qubit info state")
    if basis.n != info.n_qubits:
        raise ShapeError(f"basis n={basis.n} does not match {info.n_qubits}-qubit info state")
    if not info.is_normalized(tol):
        raise ValidationError("information state must be normalized")


def _unitary_scale(o: np.ndarray, tol: Tolerance) -> float:
    """s when O†O = s·1 with s > tol, else 0.0: O is then √s times a unitary."""
    gram = dagger(o) @ o
    scale = float(np.real(np.trace(gram)) / o.shape[0])
    ok, _ = is_scaled_identity(gram, scale, tol)
    return scale if ok and scale > tol.abs_eps else 0.0


def transformation_operator(
    ch: Channel, basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL
) -> TransformationOperator:
    """Works for arbitrary channels; flags whether O†O is a scaled identity."""
    o = ch.e_matrix.T @ dagger(basis.members[alpha])
    scale = _unitary_scale(o, tol)
    return TransformationOperator(alpha, o, scale > 0.0, scale)


def correction_unitary(
    ch: Channel, basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """U^(α) = 2^n · B^(α) · E*, defined when channel and member are maximal."""
    perfect, deviation = is_perfect(ch, tol)
    if not perfect:
        raise ValidationError(f"channel is not perfect (deviation {deviation:.3e})")
    if not is_maximal_member(basis, alpha, tol):
        raise ValidationError(f"basis member {alpha} is not maximally entangled")
    u = (2**ch.n) * basis.members[alpha] @ ch.e_matrix.conj()
    ok, udev = is_scaled_identity(dagger(u) @ u, 1.0, Tolerance(10 * tol.abs_eps))
    if not ok:
        raise InternalConsistencyError(
            f"synthesized correction for alpha={alpha} is not unitary (deviation {udev:.3e})"
        )
    return u


def _seed_operator(ch: Channel, basis: BellBasis) -> np.ndarray:
    """K = E^T B^(0)† of a seed-generated basis, so that O^(α) = K P_α."""
    return ch.e_matrix.T @ dagger(basis.seed)


def _outcome_amplitudes(info: StateVector, ch: Channel, basis: BellBasis) -> np.ndarray:
    """Bob's unnormalized amplitudes b_α = O^(α)·I, one row per outcome α."""
    if basis.seed is not None:
        perm, phase = action_tables(basis.n)
        return (phase * info.amplitudes[perm]) @ _seed_operator(ch, basis).T
    members = np.array(basis.members, dtype=np.complex128)
    return np.einsum("akj,k->aj", members.conj(), info.amplitudes) @ ch.e_matrix


def _corrected_states(bob: np.ndarray, alphas: np.ndarray, ch: Channel, basis: BellBasis,
                      tol: Tolerance) -> np.ndarray:
    """Rows C^(α) b_α / |C^(α) b_α| for the best available correction C^(α).

    C^(α) is the unitary part O^(α)†/√s of O^(α)^-1 when O^(α)†O^(α) = s·1
    with s > 0, and the identity otherwise.  `bob` holds the Bob states of
    the outcomes `alphas`, one row each.
    """
    if basis.seed is not None:  # one test on G = K†K covers every α
        k = _seed_operator(ch, basis)
        if not _unitary_scale(k, tol):
            return bob
        perm, phase = action_tables(basis.n)
        kdag_b = bob @ k.conj()  # rows K† b_α
        corrected = phase[alphas] * np.take_along_axis(kdag_b, perm[alphas], axis=1)
    else:
        members = np.array(basis.members, dtype=np.complex128)[alphas]
        ops = np.einsum("ij,akj->aik", ch.e_matrix.T, members.conj())
        scaled = np.array([_unitary_scale(o, tol) > 0.0 for o in ops], dtype=bool)
        corrected = np.where(scaled[:, None], np.einsum("aji,aj->ai", ops.conj(), bob), bob)
    return corrected / np.linalg.norm(corrected, axis=1, keepdims=True)


def composite_expand(
    info: StateVector, ch: Channel, basis: BellBasis, tol: Tolerance = DEFAULT_TOL
) -> tuple[OutcomeRecord, ...]:
    """Per-outcome Bob states and probabilities, no corrections applied."""
    _check_dims(info, ch, basis, tol)
    b = _outcome_amplitudes(info, ch, basis)
    probs = np.real(np.einsum("ai,ai->a", b.conj(), b))
    zero = probs < ZERO_PROBABILITY_EPS
    bob = b / np.sqrt(np.where(zero, 1.0, probs))[:, None]
    return tuple(
        OutcomeRecord(alpha, float(p), zero_probability=True) if is_zero
        else OutcomeRecord(alpha, float(p), StateVector(info.n_qubits, row))
        for alpha, (p, is_zero, row) in enumerate(zip(probs, zero, bob))
    )


def run_protocol(
    info: StateVector,
    ch: Channel,
    basis: BellBasis,
    mode: str = "exhaustive",
    seed: int | None = None,
    shots: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ProtocolResult:
    """Run the full protocol, applying the best available correction per outcome.

    Exhaustive mode evaluates every outcome; sampled mode additionally draws
    `shots` outcomes from the BSM distribution with a deterministic generator
    seeded by `seed` and reports per-outcome counts.
    """
    records = list(composite_expand(info, ch, basis, tol))
    useful = [r for r in records if not r.zero_probability]
    bob = np.array([r.bob_state.amplitudes for r in useful]).reshape(len(useful), info.dim)
    alphas = np.array([r.alpha for r in useful], dtype=int)
    corrected = _corrected_states(bob, alphas, ch, basis, tol)
    fidelities = np.abs(corrected @ info.amplitudes.conj()) ** 2
    for raw, state, fidelity in zip(useful, corrected, fidelities):
        records[raw.alpha] = OutcomeRecord(
            raw.alpha,
            raw.probability,
            raw.bob_state,
            StateVector(info.n_qubits, state),
            float(fidelity),
        )
    if mode == "exhaustive":
        return ProtocolResult(tuple(records))
    if mode != "sampled":
        raise ValidationError(f"unknown mode: {mode!r}")
    if shots is None or shots < 1:
        raise ValidationError("sampled mode requires shots >= 1")
    if seed is None:
        raise ValidationError("sampled mode requires a seed")
    rng = np.random.default_rng(seed)
    weights = np.round(np.array([r.probability for r in records]) * SAMPLING_GRID)
    if not weights.any():
        raise ValidationError("no outcome has a nonzero probability to sample")
    counts = rng.multinomial(shots, weights / weights.sum())
    return ProtocolResult(tuple(records), "sampled", shots, seed, tuple(int(c) for c in counts))


@dataclass(frozen=True)
class KernelReport:
    """The α = 0 (kernel / head-judgment) operator of a seed-generated basis."""

    matrix: np.ndarray = field(repr=False)
    channel_perfect: bool = False
    unitary_scaled: bool = False


def kernel_operator(ch: Channel, basis: BellBasis, tol: Tolerance = DEFAULT_TOL) -> KernelReport:
    perfect, _ = is_perfect(ch, tol)
    if perfect and is_maximal_member(basis, 0, tol):
        return KernelReport(correction_unitary(ch, basis, 0, tol), True, True)
    op = transformation_operator(ch, basis, 0, tol)
    return KernelReport(op.matrix, False, op.unitary_scaled)


@dataclass(frozen=True)
class MasfiResult:
    value: float
    degenerate: bool = False
    converged: bool = True
    argmin: tuple[float, float] = (0.0, 0.0)  # Bloch angles (theta, phi)


def minimize(fun, x0, **options):
    """`scipy.optimize.minimize`, imported on first call.

    Importing scipy.optimize is most of the start-up time of ``qtel``, and
    only `masfi_1q` uses it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def masfi_1q(
    ch: Channel,
    grid_theta: int = 64,
    grid_phi: int = 128,
    tol: Tolerance = DEFAULT_TOL,
) -> MasfiResult:
    """Minimum assured fidelity for a single-qubit channel.

    Minimizes, over information states on a Bloch-sphere grid with local
    refinement, the worst per-outcome fidelity under the standard Bell
    basis and standard Pauli corrections.  A channel with a vanishing
    Schmidt coefficient cannot assure any fidelity and returns 0 flagged
    as degenerate.
    """
    if ch.n != 1:
        raise ShapeError(f"masfi_1q requires a single-qubit channel, got n={ch.n}")
    if np.min(np.linalg.svd(ch.e_matrix, compute_uv=False)) < 1e-12:
        return MasfiResult(0.0, degenerate=True)
    basis = standard_basis(1)
    corrections = [matrix_of(pauli_from_quaternary(alpha, 1)) for alpha in range(4)]
    operators = [transformation_operator(ch, basis, alpha, tol).matrix for alpha in range(4)]

    def worst_fidelity(angles) -> float:
        theta, phi = angles
        info = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        worst = 1.0
        for o, u in zip(operators, corrections):
            b = o @ info
            p = np.real(np.vdot(b, b))
            if p < ZERO_PROBABILITY_EPS:
                continue
            t = u @ b
            worst = min(worst, float(abs(np.vdot(info, t)) ** 2 / p))
        return worst

    thetas = np.linspace(0.0, np.pi, grid_theta)
    phis = np.linspace(0.0, 2 * np.pi, grid_phi, endpoint=False)
    best = (1.0, (0.0, 0.0))
    for theta in thetas:
        for phi in phis:
            f = worst_fidelity((theta, phi))
            if f < best[0]:
                best = (f, (float(theta), float(phi)))
    refined = minimize(
        worst_fidelity, best[1], method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-10},
    )
    if refined.fun <= best[0]:
        return MasfiResult(float(refined.fun), converged=bool(refined.success),
                           argmin=tuple(float(x) for x in refined.x))
    return MasfiResult(best[0], argmin=best[1])
