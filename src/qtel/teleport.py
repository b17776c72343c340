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
Gram matrix G and one scaled-identity test serve every outcome, and P_α v is
read from the signed copies i^k·v (`pauli.action_index`).  The test on G is
exact for each α, since P_α only permutes the entries of G - s·1 and
multiplies them by unit phases.  A basis given member by member (``--basis``)
takes the dense path: every O^(α) from one stacked ``einsum`` and a
scaled-identity test per member.

The private stages carry a leading batch axis of T protocol runs, each
with its own information state and channel matrix: arrays (T, 2^n),
(T, 2^n, 2^n) and (T, 4^n, 2^n).  `run_protocol` is a batch of one;
`min_fidelities` runs many, e.g. the trials of
`magic.verify_partial_basis`.  Every stacked product is a ``matmul``,
which computes each run's product exactly as it would alone.

Every outcome α is corrected, as in the protocol, whatever its
probability; the zero mask only says which outcomes cannot occur.  A run's
result keeps its arrays as the columns of `OutcomeRecords`, one row per α:
the probabilities, the zero mask, Bob's states, the corrected states and
the fidelities.  An `OutcomeRecord`, with its `StateVector`s, is built only
when an outcome is indexed; the finiteness check of `StateVector`
(`linalg._finite`) runs once per column of states instead.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bell import BellBasis, is_maximal_member, standard_basis
from .channel import Channel, is_perfect
from .errors import InternalConsistencyError, ShapeError, ValidationError
from .linalg import DEFAULT_TOL, StateVector, Tolerance, _finite, dagger, is_scaled_identity
from .pauli import POWERS_OF_I, action_index, matrix_of, pauli_from_quaternary, signed_copies

ZERO_PROBABILITY_EPS = 1e-14
# Sampled mode draws from the probabilities rounded to multiples of
# 1/SAMPLING_GRID.  numpy's binomial draws branch on p <= 1/2, and tied
# probabilities (every perfect channel) put the multinomial exactly on that
# branch point, so unrounded, a 1e-17 change in how a probability is
# computed would change the counts drawn for a seed.
SAMPLING_GRID = 2.0**40
# The Bloch-sphere grid of `masfi_1q`: θ in [0, π], φ in [0, 2π)
MASFI_GRID_THETA = 64
MASFI_GRID_PHI = 128


@dataclass(frozen=True)
class TransformationOperator:
    """O^(α) = E^T B^(α)†, the map from information to Bob's amplitudes."""

    matrix: np.ndarray = field(repr=False)
    unitary_scaled: bool = False


@dataclass(frozen=True)
class OutcomeRecord:
    alpha: int
    probability: float
    bob_state: StateVector | None = None
    corrected_state: StateVector | None = None
    fidelity: float | None = None
    zero_probability: bool = False


class OutcomeRecords(Sequence):
    """The 4^n outcomes of one run as columns; each `OutcomeRecord` is built when indexed.

    Row α of every column is outcome α.  `probs` (4^n,) holds the
    probabilities and `zero` (4^n,) flags those below ZERO_PROBABILITY_EPS;
    `bob` (4^n, 2^n) holds Bob's states, a zero outcome's row unnormalized.
    `corrected` (4^n, 2^n) and `fidelities` (4^n,) hold the corrected states
    and fidelities, or are None before correction; a zero outcome's rows are
    finite but mean nothing, and its record carries neither.  The columns
    are read-only.
    """

    def __init__(self, probs: np.ndarray, zero: np.ndarray, bob: np.ndarray,
                 corrected: np.ndarray | None = None, fidelities: np.ndarray | None = None):
        self.n = int(bob.shape[-1]).bit_length() - 1
        self.probs, self.zero, self.bob = probs, zero, bob
        self.corrected, self.fidelities = corrected, fidelities
        for column in (probs, zero, bob, corrected, fidelities):
            if column is not None:
                column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, alpha: int) -> OutcomeRecord:
        alpha = operator.index(alpha)
        if not -len(self) <= alpha < len(self):
            raise IndexError(f"outcome index {alpha} out of range for {len(self)} outcomes")
        alpha %= len(self)
        probability = float(self.probs[alpha])
        if self.zero[alpha]:
            return OutcomeRecord(alpha, probability, zero_probability=True)
        bob = StateVector(self.n, self.bob[alpha])
        if self.corrected is None:
            return OutcomeRecord(alpha, probability, bob)
        return OutcomeRecord(alpha, probability, bob, StateVector(self.n, self.corrected[alpha]),
                             float(self.fidelities[alpha]))

    def __repr__(self) -> str:
        return (f"OutcomeRecords(n={self.n}, outcomes={len(self)}, "
                f"useful={np.count_nonzero(~self.zero)}, corrected={self.corrected is not None})")


@dataclass(frozen=True)
class ProtocolResult:
    records: Sequence[OutcomeRecord]  # `OutcomeRecords` as `run_protocol` returns it
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


def _unitary_scale(o: np.ndarray, tol: Tolerance) -> np.ndarray:
    """s when O†O = s·1 with s > tol, else 0.0: O is then √s times a unitary.

    For a stack (..., d, d) of operators, an array of s over the stack.
    """
    gram = dagger(o) @ o
    scale = np.real(np.trace(gram, axis1=-2, axis2=-1)) / o.shape[-1]
    ok, _ = is_scaled_identity(gram, scale, tol)
    return np.where(ok & (scale > tol.abs_eps), scale, 0.0)


def transformation_operator(
    ch: Channel, basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL
) -> TransformationOperator:
    """Works for arbitrary channels; flags whether O†O is a scaled identity."""
    o = ch.e_matrix.T @ dagger(basis.member(alpha))
    return TransformationOperator(o, bool(_unitary_scale(o, tol) > 0.0))


def _synthesized_correction(ch: Channel, basis: BellBasis, alpha: int, tol: Tolerance):
    """U^(α) = 2^n · B^(α) · E* for a channel and member already known to be maximal."""
    u = (2**ch.n) * basis.members[alpha] @ ch.e_matrix.conj()
    ok, udev = is_scaled_identity(dagger(u) @ u, 1.0, Tolerance(10 * tol.abs_eps))
    if not ok:
        raise InternalConsistencyError(
            f"synthesized correction for alpha={alpha} is not unitary (deviation {udev:.3e})"
        )
    return u


def correction_unitary(
    ch: Channel, basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """U^(α) = 2^n · B^(α) · E*, defined when channel and member are maximal."""
    perfect, deviation = is_perfect(ch, tol)
    if not perfect:
        raise ValidationError(f"channel is not perfect (deviation {deviation:.3e})")
    if not is_maximal_member(basis, alpha, tol):
        raise ValidationError(f"basis member {alpha} is not maximally entangled")
    return _synthesized_correction(ch, basis, alpha, tol)


def _seed_operator(e: np.ndarray, basis: BellBasis) -> np.ndarray:
    """K = E^T B^(0)† of a seed-generated basis, so that O^(α) = K P_α, per run."""
    return e.swapaxes(-1, -2) @ dagger(basis.seed)


def _outcome_amplitudes(info: np.ndarray, e: np.ndarray, basis: BellBasis) -> np.ndarray:
    """Bob's unnormalized amplitudes b_α = O^(α)·I, one row per outcome α, per run."""
    if basis.seed is not None:
        rows = signed_copies(info)[:, action_index(basis.n)]  # rows P_α I
        return rows @ _seed_operator(e, basis).swapaxes(-1, -2)
    members = np.asarray(basis.members, dtype=np.complex128)
    return np.einsum("akj,tk->taj", members.conj(), info) @ e


def _bob_states(info: np.ndarray, e: np.ndarray, basis: BellBasis):
    """Probabilities and zero flags (T, 4^n) and Bob's states (T, 4^n, 2^n) of T runs.

    The state of an outcome whose probability is below ZERO_PROBABILITY_EPS
    is left unnormalized.
    """
    b = _outcome_amplitudes(info, e, basis)
    probs = np.real(np.einsum("...ai,...ai->...a", b.conj(), b))
    zero = probs < ZERO_PROBABILITY_EPS
    return probs, zero, b / np.sqrt(np.where(zero, 1.0, probs))[..., None]


def _corrected_states(bob: np.ndarray, e: np.ndarray, basis: BellBasis,
                      tol: Tolerance) -> np.ndarray:
    """Rows C^(α) b_α / |C^(α) b_α| for the best available correction C^(α).

    C^(α) is the unitary part O^(α)†/√s of O^(α)^-1 when O^(α)†O^(α) = s·1
    with s > 0, and the identity otherwise.  `bob` (T, 4^n, 2^n) holds the
    Bob states of T runs with channel matrices e[t], row α for outcome α.
    An all-zero row stays zero.
    """
    if basis.seed is not None:  # one test on G = K†K covers every α of a run
        k = _seed_operator(e, basis)
        scaled = _unitary_scale(k, tol) > 0.0
        if not scaled.any():
            return bob
        index = action_index(basis.n)  # entries k·2^n + s: i^k times entry s
        kdag_b = bob @ k.conj()  # rows K† b_α
        # in place, to spare a (T, 4^n, 2^n) array; phases are ±1, ±i, so products are exact
        corrected = np.take_along_axis(kdag_b, index[None] & (2**basis.n - 1), axis=-1)
        corrected *= POWERS_OF_I[index >> basis.n]
        _normalize_rows(corrected)
        np.copyto(corrected, bob, where=~scaled[:, None, None])
        return corrected
    members = np.asarray(basis.members, dtype=np.complex128)
    ops = np.einsum("tij,akj->taik", e.swapaxes(-1, -2), members.conj())
    scaled = _unitary_scale(ops, tol) > 0.0
    corrected = np.where(scaled[..., None], np.einsum("taji,taj->tai", ops.conj(), bob), bob)
    return _normalize_rows(corrected)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divide each row by its norm in place; an all-zero row stays zero."""
    norm = np.linalg.norm(rows, axis=-1, keepdims=True)
    return np.divide(rows, norm, out=rows, where=norm > 0.0)


def _fidelities(corrected: np.ndarray, info: np.ndarray) -> np.ndarray:
    """|<I|row>|² for the rows (T, 4^n, 2^n) of T runs with information states (T, 2^n)."""
    return np.abs(corrected @ info.conj()[..., None])[..., 0] ** 2


def composite_expand(
    info: StateVector, ch: Channel, basis: BellBasis, tol: Tolerance = DEFAULT_TOL
) -> OutcomeRecords:
    """Per-outcome probabilities and Bob states as columns, no corrections applied."""
    _check_dims(info, ch, basis, tol)
    probs, zero, bob = _bob_states(info.amplitudes[None], ch.e_matrix[None], basis)
    return OutcomeRecords(probs[0], zero[0], _finite(bob[0]))


def _check_sampling(mode: str, shots: int | None, seed: int | None):
    if mode == "exhaustive":
        return
    if mode != "sampled":
        raise ValidationError(f"unknown mode: {mode!r}")
    if shots is None or shots < 1:
        raise ValidationError("sampled mode requires shots >= 1")
    if shots > np.iinfo(np.int64).max:
        raise ValidationError(f"sampled mode requires shots <= {np.iinfo(np.int64).max}")
    if seed is None:
        raise ValidationError("sampled mode requires a seed")
    if seed < 0:
        raise ValidationError(f"sampled mode requires seed >= 0, got {seed}")


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
    seeded by `seed` and reports per-outcome counts.  The result keeps the
    outcomes as the columns of `OutcomeRecords` (those of `composite_expand`
    plus the corrected states and fidelities of every outcome), and
    builds an `OutcomeRecord` only when `records` is indexed.  The sampling
    options are checked first; `composite_expand` then checks the inputs.
    """
    _check_sampling(mode, shots, seed)  # before the 4^n outcomes are expanded
    expanded = composite_expand(info, ch, basis, tol)
    corrected = _corrected_states(expanded.bob[None], ch.e_matrix[None], basis, tol)
    records = OutcomeRecords(expanded.probs, expanded.zero, expanded.bob, _finite(corrected[0]),
                             _fidelities(corrected, info.amplitudes[None])[0])
    if mode == "exhaustive":
        return ProtocolResult(records)
    rng = np.random.default_rng(seed)
    weights = np.round(records.probs * SAMPLING_GRID)
    if not weights.any():
        raise ValidationError("no outcome has a nonzero probability to sample")
    counts = rng.multinomial(shots, weights / weights.sum())
    return ProtocolResult(records, "sampled", shots, seed, tuple(int(c) for c in counts))


def min_fidelities(info: np.ndarray, e: np.ndarray, basis: BellBasis,
                   tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Worst fidelity over the nonzero-probability outcomes of each of T runs.

    Run t sends info[t] (T, 2^n) over the channel matrix e[t] (T, 2^n, 2^n)
    through the code of `run_protocol`, and the value equals, bit for bit,
    the least fidelity of its records.  The inputs are not validated.
    """
    _, zero, bob = _bob_states(info, e, basis)
    corrected = _corrected_states(bob, e, basis, tol)
    return np.min(np.where(zero, np.inf, _fidelities(corrected, info)), axis=-1)


@dataclass(frozen=True)
class KernelReport:
    """The α = 0 (kernel / head-judgment) operator of a seed-generated basis."""

    matrix: np.ndarray = field(repr=False)
    channel_perfect: bool = False
    unitary_scaled: bool = False


def kernel_operator(ch: Channel, basis: BellBasis, tol: Tolerance = DEFAULT_TOL) -> KernelReport:
    perfect, _ = is_perfect(ch, tol)
    if perfect and is_maximal_member(basis, 0, tol):
        return KernelReport(_synthesized_correction(ch, basis, 0, tol), True, True)
    op = transformation_operator(ch, basis, 0, tol)
    return KernelReport(op.matrix, False, op.unitary_scaled)


@dataclass(frozen=True)
class MasfiResult:
    value: float
    degenerate: bool = False
    converged: bool = True
    argmin: tuple[float, float] = (0.0, 0.0)  # Bloch angles (theta, phi)


class _OutOfEvaluations(Exception):
    """An objective evaluation past the budget; it ends the current iteration."""


@dataclass(frozen=True)
class Minimum:
    x: np.ndarray
    fun: float
    nfev: int
    success: bool


def minimize(fun, x0, *, xatol: float, fatol: float) -> Minimum:
    """Nelder-Mead minimization of ``fun`` from ``x0``, without scipy.

    This is scipy's Nelder-Mead (``_minimize_neldermead`` in scipy 1.17.1),
    reproduced step for step, in the configuration of
    ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
    options={"xatol": xatol, "fatol": fatol})``: coefficients ρ = 1, χ = 2,
    ψ = σ = 1/2, no bounds, the default initial simplex, and at most 200·N
    evaluations and iterations.  Every expression, the argsorts and the copy
    of x passed to ``fun`` are scipy's, so the evaluated points, ``x``,
    ``fun``, ``nfev`` and ``success`` agree with scipy's bit for bit
    (`tests/test_structured_engine.py` compares them).  An evaluation past
    the budget ends its iteration where it stands, even halfway through a
    shrink, as scipy's ``_MaxFuncCallError`` does.  No import happens.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    maxfev = maxiter = 200 * n
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return fun(np.copy(x))

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.full((n + 1,), np.inf)
    for k in range(n + 1):  # n + 1 <= maxfev evaluations
        fsim[k] = evaluate(sim[k])
    sim, fsim = by_value(*by_value(sim, fsim))  # scipy sorts twice here
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = evaluate(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = evaluate(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = evaluate(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
        sim, fsim = by_value(sim, fsim)
    return Minimum(sim[0], np.min(fsim), nfev, nfev < maxfev and iterations < maxiter)


def masfi_1q(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> MasfiResult:
    """Minimum assured fidelity for a single-qubit channel.

    Minimizes, over information states on a Bloch-sphere grid with local
    refinement, the worst per-outcome fidelity under the standard Bell
    basis and standard Pauli corrections.  A channel with a vanishing
    Schmidt coefficient cannot assure any fidelity and returns 0 flagged
    as degenerate.

    The grid is evaluated as one array.  Its points within 1e-12 of the
    array minimum are then re-scored with the scalar function, in grid
    order (θ outer, φ inner), and the first strict minimum starts the
    Nelder-Mead refinement: the point a scalar loop over the whole grid
    would choose, even where values tie to the last bit.  The refinement,
    `minimize`, is scipy's Nelder-Mead reproduced step for step, so no
    scipy import happens and the result is the one scipy would give.
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

    thetas = np.linspace(0.0, np.pi, MASFI_GRID_THETA)
    phis = np.linspace(0.0, 2 * np.pi, MASFI_GRID_PHI, endpoint=False)
    # <I|A|I> over the grid, rows θ and columns φ, for I = (cos θ/2, e^{iφ} sin θ/2)
    c, s = np.cos(thetas / 2)[:, None], np.sin(thetas / 2)[:, None]
    w = np.exp(1j * phis)

    def form(a):
        return c * c * a[0, 0] + s * s * a[1, 1] + c * s * (w * a[0, 1] + w.conj() * a[1, 0])

    grid = np.ones((MASFI_GRID_THETA, MASFI_GRID_PHI))
    for o, u in zip(operators, corrections):
        p = np.real(form(dagger(o) @ o))  # |O I|²
        skip = p < ZERO_PROBABILITY_EPS
        f = np.abs(form(u @ o)) ** 2 / np.where(skip, 1.0, p)  # |<I|U O I>|² / p
        grid = np.minimum(grid, np.where(skip, 1.0, f))
    best = (1.0, (0.0, 0.0))
    for i in np.flatnonzero(grid <= grid.min() + 1e-12):  # row-major: the loop order
        angles = (thetas[i // MASFI_GRID_PHI], phis[i % MASFI_GRID_PHI])
        value = worst_fidelity(angles)
        if value < best[0]:
            best = (value, tuple(float(x) for x in angles))
    refined = minimize(worst_fidelity, best[1], xatol=1e-6, fatol=1e-10)
    if refined.fun <= best[0]:
        return MasfiResult(float(refined.fun), converged=bool(refined.success),
                           argmin=tuple(float(x) for x in refined.x))
    return MasfiResult(best[0], argmin=best[1])
