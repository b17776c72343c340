"""The teleportation protocol engine.

For a BSM outcome α the (unnormalized) amplitudes on Bob's side are
b = O^(α)·I with transformation operator O^(α) = E^T B^(α)†.  When the
channel and the basis member are both maximally entangled, Bob's
correction is the unitary U^(α) = 2^n · B^(α) · E*, which restores the
information state exactly.  Imperfect channels still run: the engine
falls back to the (phase-normalized) inverse of O^(α) when that operator
is a scaled unitary, and to the identity otherwise, and the per-outcome
fidelity reports the damage.

The protocol is one pass, `_outcomes`, over the 4^n outcomes in blocks of
OUTCOME_BLOCK (256): expand the composite state over a block's outcomes, one
row of a (T, 256, 2^n) array each, then correct every row.  Only the
probabilities, the zero mask and the fidelities are kept whole, (T, 4^n).
It tests the basis kind once.  For a seed-generated basis B^(α) = P_α B^(0),
so O^(α) = K P_α with K = E^T B^(0)† and O^(α)†O^(α) = P_α G P_α with
G = K†K: one product K, one Gram matrix G and one scaled-identity test serve
every outcome, and P_α v is read from the signed copies i^k·v at the
positions that `pauli.action_rows` forms for a block's outcomes.  The test on
G is exact for each α, since P_α only permutes the entries of G - s·1 and
multiplies them by unit phases.  A basis given member by member (``--basis``)
takes the dense path: each block's O^(α) from one stacked ``einsum`` and a
scaled-identity test per member.

`_outcomes` carries a leading batch axis of T protocol runs, each with its
own information state and channel matrix.  `composite_expand`, and through it
`run_protocol`, is a batch of one; `min_fidelities` runs many, e.g. the trials
of `magic.verify_partial_basis`.  Every stacked product is a ``matmul``, which
computes each run's product exactly as it would alone.

Every outcome α is corrected, as in the protocol, whatever its
probability; the zero mask only says which outcomes cannot occur.  A run's
result is what its callers read: the probabilities, the zero mask and the
fidelities, whole columns of `OutcomeRecords`, one row per α, from which an
indexed `OutcomeRecord` is built.  Bob's states and the corrected states are
formed only to give the fidelities: each block of them is checked finite
(`linalg._finite`) as the run forms it, and then dropped.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bell import BellBasis, is_maximal_member, standard_basis
from .channel import Channel, is_perfect
from . import errors
from .errors import InternalConsistencyError, ShapeError, ValidationError
from .linalg import DEFAULT_TOL, StateVector, Tolerance, _finite, dagger, is_scaled_identity
from .pauli import POWERS_OF_I, action_rows, matrices_of, signed_copies

ZERO_PROBABILITY_EPS = 1e-14  # an outcome less likely is masked, whatever --tol is
# `_outcomes` forms the rows of at most this many outcomes at a time, so n <= 4 is one block
OUTCOME_BLOCK = 256
# Sampled mode draws from the probabilities rounded to multiples of
# 1/SAMPLING_GRID.  numpy's binomial draws branch on p <= 1/2, and tied
# probabilities (every perfect channel) put the multinomial exactly on that
# branch point, so unrounded, a 1e-17 change in how a probability is
# computed would change the counts drawn for a seed.
SAMPLING_GRID = 2.0**40
# The Bloch-sphere grid of `masfi_1q`: θ in [0, π], φ in [0, 2π)
MASFI_GRID_THETA = 64
MASFI_GRID_PHI = 128
MASFI_DEGENERATE_SV = 1e-12  # a least Schmidt coefficient below it leaves no fidelity assured
MASFI_TIE_BAND = 1e-12  # grid values this near the minimum may tie in the refined objective
MASFI_XATOL = 1e-6  # Nelder-Mead stops once the simplex spans less than this in θ and φ
MASFI_FATOL = 1e-10  # and its worst fidelities differ by less than this


@dataclass(frozen=True)
class TransformationOperator:
    """O^(α) = E^T B^(α)†, the map from information to Bob's amplitudes."""

    matrix: np.ndarray = field(repr=False)
    unitary_scaled: bool = False


@dataclass(frozen=True)
class OutcomeRecord:
    alpha: int
    probability: float
    fidelity: float | None = None
    zero_probability: bool = False


class OutcomeRecords(Sequence):
    """The 4^n outcomes of one run as three read-only columns; each `OutcomeRecord` is
    built from them when indexed.

    Row α of every column is outcome α.  `probs` (4^n,) holds the probabilities,
    `zero` (4^n,) flags those below ZERO_PROBABILITY_EPS and `fidelities` (4^n,)
    holds the fidelities of the corrected states.  A zero outcome's fidelity is
    finite but means nothing, and its record carries none.
    """

    def __init__(self, probs: np.ndarray, zero: np.ndarray, fidelities: np.ndarray):
        self.probs, self.zero, self.fidelities = probs, zero, fidelities
        for column in (probs, zero, fidelities):
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
        return OutcomeRecord(alpha, probability, float(self.fidelities[alpha]))

    def __repr__(self) -> str:
        return (f"OutcomeRecords(n={(len(self).bit_length() - 1) // 2}, outcomes={len(self)}, "
                f"useful={np.count_nonzero(~self.zero)})")


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


def correction_unitary(
    ch: Channel, basis: BellBasis, alpha: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """U^(α) = 2^n · B^(α) · E*, defined when channel and member are maximal.

    At α = 0 it is the paper's kernel (head-judgment) operator.
    """
    perfect, deviation = is_perfect(ch, tol)
    if not perfect:
        raise ValidationError(f"channel is not perfect (deviation {deviation:.3e})")
    if not is_maximal_member(basis, alpha, tol):
        raise ValidationError(f"basis member {alpha} is not maximally entangled")
    u = (2**ch.n) * basis.members[alpha] @ ch.e_matrix.conj()
    _, udev = is_scaled_identity(dagger(u) @ u, 1.0)
    if not udev <= 10 * tol.abs_eps:  # a nan deviation fails; 10·tol may overflow to inf
        raise InternalConsistencyError(
            f"synthesized correction for alpha={alpha} is not unitary (deviation {udev:.3e})"
        )
    return u


def _probabilities(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and zero flags of the amplitude rows b_α; each row is divided by √p_α
    in place, except where p_α is below ZERO_PROBABILITY_EPS."""
    probs = np.real(np.einsum("...ai,...ai->...a", b.conj(), b))
    zero = probs < ZERO_PROBABILITY_EPS
    b /= np.sqrt(np.where(zero, 1.0, probs))[..., None]
    return probs, zero


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divide each row by its norm in place; an all-zero row stays zero."""
    norm = np.linalg.norm(rows, axis=-1, keepdims=True)
    return np.divide(rows, norm, out=rows, where=norm > 0.0)


def _outcomes(info: np.ndarray, e: np.ndarray, basis: BellBasis, tol: Tolerance):
    """``rows(start)``: the columns probs, zero, bob, corrected and fidelities of T runs on
    the block of outcomes start .. start + OUTCOME_BLOCK - 1, row α - start for outcome α.

    Run t sends info[t] (T, 2^n) over the channel matrix e[t] (T, 2^n, 2^n).  Its Bob
    states are b_α = O^(α)·I / √p_α, its corrected states c_α = C^(α) b_α / |C^(α) b_α|
    and its fidelities |<I|c_α>|².  C^(α) is the unitary part O^(α)†/√s of O^(α)^-1
    when O^(α)†O^(α) = s·1 with s > 0, else the identity; an all-zero row stays zero.
    What the blocks share (K, its test, the signed copies of I) is formed here, once;
    each row has the bits it has in one (T, 4^n, 2^n) pass, at any block size.
    """
    fidelity_of = info.conj()[..., None]
    if basis.seed is not None:
        n = basis.n
        k = e.swapaxes(-1, -2) @ dagger(basis.seed)  # K = E^T B^(0)†, so O^(α) = K P_α
        copies = signed_copies(info)
        scaled = _unitary_scale(k, tol) > 0.0  # one test on G = K†K covers every α of a run

        def rows(start: int):
            block = action_rows(n, start, start + OUTCOME_BLOCK)  # k·2^n + s: i^k times entry s
            bob = copies[:, block] @ k.swapaxes(-1, -2)  # the rows P_α I, times K^T
            probs, zero = _probabilities(bob)
            corrected = bob
            if scaled.any():
                # the rows K† b_α, gathered, then times their phases in place to spare a
                # (T, 256, 2^n) array; the phases are ±1, ±i, so the products are exact
                corrected = np.take_along_axis(bob @ k.conj(), block[None] & (2**n - 1), axis=-1)
                corrected *= POWERS_OF_I[block >> n]
                _normalize_rows(corrected)
                np.copyto(corrected, bob, where=~scaled[:, None, None])
            return probs, zero, bob, corrected, np.abs(corrected @ fidelity_of)[..., 0] ** 2
    else:
        members = np.asarray(basis.members, dtype=np.complex128)

        def rows(start: int):
            block = members[start:start + OUTCOME_BLOCK].conj()
            bob = np.einsum("akj,tk->taj", block, info) @ e
            probs, zero = _probabilities(bob)
            ops = np.einsum("tij,akj->taik", e.swapaxes(-1, -2), block)
            scaled = _unitary_scale(ops, tol) > 0.0
            corrected = _normalize_rows(
                np.where(scaled[..., None], np.einsum("taji,taj->tai", ops.conj(), bob), bob))
            return probs, zero, bob, corrected, np.abs(corrected @ fidelity_of)[..., 0] ** 2
    return rows


def composite_expand(
    info: StateVector, ch: Channel, basis: BellBasis, tol: Tolerance = DEFAULT_TOL
) -> OutcomeRecords:
    """Every outcome of one run, each one corrected, as the columns of `OutcomeRecords`.

    The inputs are checked first.  An n whose (4^n, 2^n) complex outcome array
    would exceed `errors.BYTE_BUDGET` (n >= 9) is a ResourceLimitError, raised
    before any outcome is expanded, though no such array is formed: the refusal
    keeps its threshold and message until it is sized by what a run holds.  Every
    block of Bob's and of the corrected states is checked finite as it is formed.
    """
    _check_dims(info, ch, basis, tol)
    errors.check_budget(4 + 3 * basis.n, "running the protocol at n={n} needs {size} MiB per "
                        "outcome array, over the {budget} MiB limit", n=basis.n)
    rows = _outcomes(info.amplitudes[None], ch.e_matrix[None], basis, tol)
    probs, fidelities = np.empty(basis.size), np.empty(basis.size)
    zero = np.empty(basis.size, dtype=bool)
    for start in range(0, basis.size, OUTCOME_BLOCK):
        block = slice(start, start + OUTCOME_BLOCK)
        probs[block], zero[block], bob, corrected, fidelities[block] = (
            column[0] for column in rows(start))
        _finite(bob)
        _finite(corrected)
    return OutcomeRecords(probs, zero, fidelities)


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
        raise ValidationError(f"sampled mode requires seed >= 0, got {errors.excerpt(seed)}")


def run_protocol(
    info: StateVector,
    ch: Channel,
    basis: BellBasis,
    mode: str = "exhaustive",
    seed: int | None = None,
    shots: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ProtocolResult:
    """Run the full protocol: the sampling options are checked, then `composite_expand` runs.

    Exhaustive mode returns the records of `composite_expand` as they are;
    sampled mode additionally draws `shots` outcomes from the BSM distribution
    with a deterministic generator seeded by `seed` and reports per-outcome
    counts.  The sampling options are checked before any outcome is expanded.
    """
    _check_sampling(mode, shots, seed)
    records = composite_expand(info, ch, basis, tol)
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
    through `_outcomes`, the code of `run_protocol`, so the value equals, bit for
    bit, the least fidelity of its records.  It keeps the least value over the
    blocks of OUTCOME_BLOCK outcomes as they are formed.  The inputs are not validated.
    """
    rows = _outcomes(info, e, basis, tol)
    least = np.full(len(info), np.inf)
    for start in range(0, basis.size, OUTCOME_BLOCK):
        _, zero, _, _, fidelities = rows(start)
        np.minimum(least, np.min(np.where(zero, np.inf, fidelities), axis=-1), out=least)
    return least


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


def minimize(fun, x0) -> Minimum:
    """Nelder-Mead minimization of ``fun`` from ``x0``, without scipy.

    This is scipy's Nelder-Mead (``_minimize_neldermead`` in scipy 1.17.1),
    reproduced step for step, in the configuration of
    ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
    options={"xatol": MASFI_XATOL, "fatol": MASFI_FATOL})``, the stopping rule
    of `masfi_1q`: coefficients ρ = 1, χ = 2, ψ = σ = 1/2, no bounds, the
    default initial simplex, and at most 200·N evaluations, which always run
    out before scipy's 200·N iterations.  The simplex and its values are Python
    floats, each coordinate formed by scipy's expression; the centroid adds the
    rows from 0.0 in order, as numpy's reduction does, and the order is scipy's
    ``np.argsort``.  So the evaluated points, ``x``, ``fun``, ``nfev`` and
    ``success`` agree with scipy's bit for bit (`tests/test_structured_engine.py`
    compares them).  An evaluation past the budget ends its iteration where it
    stands, even halfway through a shrink, as scipy's ``_MaxFuncCallError`` does.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).tolist()
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    maxfev = 200 * n
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return float(fun(np.array(x)))

    def by_value(sim, fsim):
        ind = np.argsort(fsim).tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    fsim = [evaluate(x) for x in sim]  # n + 1 <= maxfev evaluations
    sim, fsim = by_value(*by_value(sim, fsim))  # scipy sorts twice here
    while nfev < maxfev:
        try:  # all() fails on a NaN difference, as scipy's np.max does
            if (all(abs(v - b) <= MASFI_XATOL for x in sim[1:] for v, b in zip(x, sim[0]))
                    and all(abs(fsim[0] - f) <= MASFI_FATOL for f in fsim[1:])):
                break
            xbar = [reduce(operator.add, col, 0.0) / n for col in zip(*sim[:-1])]
            xr = [(1 + rho) * a - rho * w for a, w in zip(xbar, sim[-1])]
            fxr = evaluate(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * a - rho * chi * w for a, w in zip(xbar, sim[-1])]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = [(1 + psi * rho) * a - psi * rho * w for a, w in zip(xbar, sim[-1])]
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = [(1 - psi) * a + psi * w for a, w in zip(xbar, sim[-1])]
                fxcc = evaluate(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = [b + sigma * (v - b) for b, v in zip(sim[0], sim[j])]
                    fsim[j] = evaluate(sim[j])
        except _OutOfEvaluations:
            pass
        sim, fsim = by_value(sim, fsim)
    return Minimum(np.array(sim[0]), np.min(fsim), nfev, nfev < maxfev)


def _worst_fidelities(operators: np.ndarray, corrections: np.ndarray, angles) -> np.ndarray:
    """The worst fidelity over the outcomes for the information states at Bloch angles (..., 2).

    `operators` and `corrections` (4, 2, 2) hold O^(α) and the Pauli U^(α).  Each value has the
    bits of a scalar loop over α from 1.0 that skips zero-probability outcomes: every stacked
    item is that loop's ``matmul`` or BLAS dot (zdotu of conj(x) is zdotc of x), ``hypot`` its
    complex ``abs`` and ``float_power`` its ``** 2``.  Each state I is written into its (1, 2, 1)
    column in place: a refinement scores one point about 150 times, so each call's overhead counts.
    """
    angles = np.asarray(angles)
    info = np.empty(angles.shape[:-1] + (1, 2, 1), dtype=np.complex128)
    info[..., 0, 0, 0] = np.cos(angles[..., 0] / 2)
    info[..., 0, 1, 0] = np.exp(1j * angles[..., 1]) * np.sin(angles[..., 0] / 2)
    b = operators @ info
    p = np.real(b.conj().swapaxes(-1, -2) @ b)[..., 0, 0]
    z = (info.conj().swapaxes(-1, -2) @ (corrections @ b))[..., 0, 0]
    skip = p < ZERO_PROBABILITY_EPS
    f = np.float_power(np.hypot(z.real, z.imag), 2.0) / np.where(skip, 1.0, p)
    return np.min(np.where(skip | ~(f < 1.0), 1.0, f), axis=-1)  # f is never -0.0


def masfi_1q(ch: Channel) -> MasfiResult:
    """Minimum assured fidelity for a single-qubit channel.

    Minimizes, over information states on a Bloch-sphere grid with local
    refinement, the worst per-outcome fidelity under the standard Bell
    basis and standard Pauli corrections.  A channel with a vanishing
    Schmidt coefficient cannot assure any fidelity and returns 0 flagged
    as degenerate.

    The grid is evaluated as one array.  Its points within MASFI_TIE_BAND of the
    array minimum are then re-scored as one stack by `_worst_fidelities`, the
    objective the refinement evaluates, and the first strict minimum in grid order
    (θ outer, φ inner) starts the Nelder-Mead refinement: the point a scalar loop
    over the whole grid would choose, even where values tie to the last bit.  The
    refinement, `minimize`, is scipy's Nelder-Mead, without a scipy import.  Its
    result is returned, never worse than its grid start: the start is its simplex's
    first vertex, scored bit for bit as in the tie band, and no step raises the
    least vertex value.
    """
    if ch.n != 1:
        raise ShapeError(f"masfi_1q requires a single-qubit channel, got n={ch.n}")
    if np.min(np.linalg.svd(ch.e_matrix, compute_uv=False)) < MASFI_DEGENERATE_SV:
        return MasfiResult(0.0, degenerate=True)
    basis = standard_basis(1)
    corrections = matrices_of(np.arange(4), 1)
    operators = np.array([transformation_operator(ch, basis, alpha).matrix for alpha in range(4)])

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
    ties = np.flatnonzero(grid <= grid.min() + MASFI_TIE_BAND)  # row-major: the loop order
    angles = np.stack([thetas[ties // MASFI_GRID_PHI], phis[ties % MASFI_GRID_PHI]], axis=-1)
    values = _worst_fidelities(operators, corrections, angles)
    refined = minimize(lambda x: _worst_fidelities(operators, corrections, x),
                       angles[np.argmin(values)])  # the first strict minimum
    return MasfiResult(float(refined.fun), converged=bool(refined.success),
                       argmin=tuple(float(x) for x in refined.x))
