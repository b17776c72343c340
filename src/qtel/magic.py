"""Magic bases, anticommutation cliques, and magic partial bases.

A magic partial basis is the identity string plus r mutually anticommuting
hermitian Pauli strings, each realized as an orthonormal 2n-qubit state.
Maximal such families are maximal cliques of the anticommutation graph on
the 4^n - 1 non-identity strings; enumerating them exactly both produces
every partial basis and witnesses that no full magic basis can exist for
n > 1 (the clique number falls far short of 4^n - 1).
The graph is a boolean adjacency over the labels 1 … 4^n - 1, read from
`pauli.product_table`, and the clique search holds its vertex sets as
Python-int bitmasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .bell import standard_basis
from .channel import channel_from_state, is_perfect, state_from_matrix
from .errors import GRAPH_EXHAUSTIVE_MAX_QUBITS, ResourceLimitError, ValidationError
from .linalg import DEFAULT_TOL, StateVector, Tolerance, _row_norms, is_maximally_entangled
from .pauli import (POWERS_OF_I, PauliString, commutes, matrices_of, pauli_from_quaternary,
                    product_table)
from .teleport import min_fidelities

# verify_partial_basis evaluates at most this many trials at a time, and only as many as
# fit in `errors.BYTE_BUDGET` at four (4^n, 2^n) complex arrays each: 128 trials up to n = 5,
# fewer above, none from n = 8.  `teleport.min_fidelities` forms a trial's outcomes 256 at a
# time, so from n = 5 a block of trials holds 4^n / 256 times less than that, and the Pauli
# action is formed for those 256 outcomes alone (`pauli.action_rows`); the n >= 8 refusal is
# kept until the guard is sized by what a block holds.
VERIFY_BLOCK_TRIALS = 128


class _Adjacency(np.ndarray):
    """A graph's boolean adjacency, whose `n` is the qubit count its 4^n - 1 rows name
    (the benchmark's spans label a call by its argument's `n`)."""

    @property
    def n(self) -> int:
        return len(self).bit_length() // 2


def build_anticomm_graph(n: int) -> np.ndarray:
    """The graph for 1 <= n <= GRAPH_EXHAUSTIVE_MAX_QUBITS, the clique searches' one limit.

    A read-only boolean (4^n - 1, 4^n - 1) adjacency over the labels 1 … 4^n - 1:
    vertex v is the string α = v + 1, and an edge joins each anticommuting pair.
    """
    if not 1 <= n <= GRAPH_EXHAUSTIVE_MAX_QUBITS:
        raise ResourceLimitError(
            f"anticommutation graph supports 1 <= n <= {GRAPH_EXHAUSTIVE_MAX_QUBITS}, got {n}"
        )
    adjacency = product_table(n)[2][1:, 1:].view(_Adjacency)
    adjacency.flags.writeable = False
    return adjacency


@dataclass(frozen=True)
class CliqueReport:
    """All maximal anticommuting sets, named by quaternary index."""

    n: int
    maximal_cliques: tuple[tuple[int, ...], ...]  # sorted alphas, lexicographic order
    max_size: int


def maximal_anticommuting_sets(g: np.ndarray) -> CliqueReport:
    """Exact maximal-clique enumeration: Bron-Kerbosch with pivoting.

    `g` is a boolean adjacency over the labels 1 … 4^n - 1 (`build_anticomm_graph`),
    vertex v being the label v + 1; n is read from its size.  The sets P and X are
    Python-int bitmasks (bit v is vertex v); the pivot is the lowest vertex of P ∪ X,
    as any in P ∪ X keeps the search exact.  Tomita's max |P ∩ N(u)| makes fewer calls
    at n = 3, but its scan costs more than they do.  The clique R is a tuple of labels.
    """
    adj = [int.from_bytes(row.tobytes(), "little")
           for row in np.packbits(g, axis=1, bitorder="little")]
    cliques: list[tuple[int, ...]] = []

    def expand(r: tuple[int, ...], p: int, x: int):
        if not p:
            if not x:
                cliques.append(tuple(sorted(r)))
            return
        pivot = ((p | x) & -(p | x)).bit_length() - 1  # the lowest vertex of P ∪ X
        rest = p & ~adj[pivot]
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            expand(r + (v + 1,), p & adj[v], x & adj[v])
            p ^= low
            x |= low
            rest ^= low

    expand((), (1 << len(g)) - 1, 0)
    cliques.sort()
    return CliqueReport(len(g).bit_length() // 2, tuple(cliques), max(len(c) for c in cliques))


@dataclass(frozen=True)
class MagicPartialBasis:
    """Identity plus r anticommuting strings, realized as 2n-qubit states."""

    n: int
    members: tuple[StateVector, ...] = field(repr=False)
    source_set: tuple[PauliString, ...] = ()

    @property
    def dimension(self) -> int:
        return len(self.members)


def partial_basis_from_set(paulis) -> MagicPartialBasis:
    """Build the states 2^{-n/2}·1 and 2^{-n/2}·i·M_l from the given strings.

    The input strings must be non-identity, pairwise anticommuting, and
    phase-free (hence hermitian); canonical member order is the identity
    first, then the strings by quaternary index.
    """
    paulis = tuple(paulis)
    if not paulis:
        raise ValidationError("need at least one Pauli string")
    n = paulis[0].n_qubits
    for p in paulis:
        if p.n_qubits != n:
            raise ValidationError("all strings must act on the same qubit count")
        if p.is_identity:
            raise ValidationError(f"identity string not allowed in the set: {p}")
        if p.phase_power != 0:
            raise ValidationError(f"string must be a phase-free hermitian Pauli: {p}")
    for p, q in itertools.combinations(paulis, 2):
        if commutes(p, q):
            raise ValidationError(f"strings must pairwise anticommute: {p} commutes with {q}")
    ordered = tuple(sorted(paulis, key=lambda p: p.quaternary_index))
    scale = 2.0 ** (-n / 2)
    # the unit phase of `matrix_of` first: it sets the sign of each zero that the scaling keeps
    mats = POWERS_OF_I[0] * matrices_of(np.array([p.quaternary_index for p in ordered]), n)
    members = [state_from_matrix(scale * np.eye(2**n), n)]
    members += [state_from_matrix(m, n) for m in scale * 1j * mats]
    return MagicPartialBasis(n, tuple(members), ordered)


def verify_block_trials(n: int) -> int:
    """The trials `verify_partial_basis` evaluates at a time at n.

    At most VERIFY_BLOCK_TRIALS, and only as many as fit `errors.BYTE_BUDGET`; a
    ResourceLimitError when not one does.  ``magic verify`` calls it before it
    builds the basis, and before it reads an index token at n.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {errors.excerpt(n)}")
    log2_bytes = 6 + 3 * n  # four (4^n, 2^n) complex arrays
    errors.check_budget(log2_bytes, "verifying a partial basis at n={n} needs {size} MiB per "
                        "trial, over the {budget} MiB block budget", n=n)
    return min(VERIFY_BLOCK_TRIALS, errors.BYTE_BUDGET >> log2_bytes)


@dataclass(frozen=True)
class PartialBasisVerification:
    trials: int
    max_condition_deviation: float  # worst |M†M - 2^-n·1| entry over trials
    min_fidelity: float
    failures: int
    passed: bool


def verify_partial_basis(
    basis: MagicPartialBasis,
    trials: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> PartialBasisVerification:
    """Random-combination check of the magic property.

    Each trial draws magnitudes |c_l| with one shared global phase,
    builds the combined matrix, and asserts its normalization, the
    perfect-channel condition and unit teleportation fidelity for a random
    information state.  Failures are counted, never raised.

    The draws are made trial by trial into one row each: magnitudes, phase
    (2π·``random()``, the bits of ``uniform(0, 2π)``), then the information
    state's real and imaginary parts.  One ``standard_normal`` call fills a
    trial's parts and the next trial's magnitudes.  The trials are evaluated in
    blocks (VERIFY_BLOCK_TRIALS, `errors.BYTE_BUDGET`) with a leading trial axis
    by the code of `run_protocol` (`teleport.min_fidelities`): every figure equals
    that of one `run_protocol` call per trial, and memory does not grow with
    `trials`.  A basis too large for one trial is a ResourceLimitError.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {errors.excerpt(seed)}")
    n = basis.n
    dim = 2**n
    block = verify_block_trials(n)
    rng = np.random.default_rng(seed)
    matrices = [m.amplitudes.reshape(dim, dim) for m in basis.members]
    measurement = standard_basis(n)
    worst_dev = 0.0
    min_fid = 1.0
    failures = 0
    k = len(matrices)
    width = k + 1 + 2 * dim  # a trial's row: magnitudes, phase, real then imaginary parts
    for start in range(0, trials, block):
        size = min(block, trials - start)
        draws = np.empty((size, width))
        flat = draws.reshape(-1)
        rng.standard_normal(out=flat[:k])
        for edge in range(k, size * width, width):  # each trial's phase column
            flat[edge] = rng.random()
            rng.standard_normal(out=flat[edge + 1:edge + width])  # parts, next magnitudes
        mags = np.abs(draws[:, :k])
        turns = 2 * np.pi * draws[:, k]  # uniform(0, 2π) is 0 + 2π·random(), bit for bit
        coeffs = np.exp(1j * turns)[:, None] * (mags / _row_norms(mags)[:, None])
        parts = draws[:, k + 1:].reshape(size, 2, dim)
        infos = parts[:, 0] + 1j * parts[:, 1]  # as linalg.random_state normalizes its draw
        infos /= _row_norms(infos)[:, None]
        combined = sum(c[:, None, None] * m for c, m in zip(coeffs.T, matrices))
        ok, dev = is_maximally_entangled(combined, tol)
        ok &= np.abs(np.linalg.norm(combined, axis=(1, 2)) - 1) <= tol.abs_eps
        fid = min_fidelities(infos, combined, measurement, tol)
        worst_dev = max(worst_dev, float(np.max(dev)))
        min_fid = min(min_fid, float(np.min(fid)))
        failures += int(np.count_nonzero(~ok | (fid < 1.0 - tol.abs_eps)))
    return PartialBasisVerification(trials, worst_dev, min_fid, failures, failures == 0)


@dataclass(frozen=True)
class WitnessReport:
    """Computational witness that no full magic basis exists for n > 1."""

    n: int
    max_clique_size: int
    required_size: int  # 4^n - 1 anticommuting strings would be needed
    vertices_examined: int
    cliques_examined: int
    holds: bool
    ghz_deviation: float | None = None  # counterexample channel, n = 2 only
    ghz_min_residual: float | None = None


def ghz_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(n_qubits, amps)


def no_full_magic_basis_witness(n: int) -> WitnessReport:
    """Exhaustive clique bound: the maximum anticommuting set is far below 4^n - 1.

    For n = 2 the report also carries the explicit counterexample channel
    (|0000> + |1111>)/sqrt(2), which fails the perfect-channel condition
    (deviation 0.25) although its residual is 0.0: it lies in the span of
    both size-5 cliques that contain ZZ (α = 5), (2, 3, 5, 9, 13) and
    (5, 6, 7, 8, 12), with coefficients 1/√2 on the identity member and
    -i/√2 on the ZZ member.  The two phases differ, so it is not a magic
    combination, which needs one shared phase.
    """
    graph = build_anticomm_graph(n)
    report = maximal_anticommuting_sets(graph)
    required = 4**n - 1
    ghz_dev = ghz_res = None
    if n == 2:
        ch = channel_from_state(ghz_state(4), 2)
        _, ghz_dev = is_perfect(ch)
        ghz_res = min(
            _projection_residual(ghz_state(4), _basis_from_alpha_clique(c, n))
            for c in report.maximal_cliques
            if len(c) == report.max_size
        )
    return WitnessReport(
        n,
        report.max_size,
        required,
        len(graph),
        len(report.maximal_cliques),
        report.max_size < required,
        ghz_dev,
        ghz_res,
    )


def _basis_from_alpha_clique(clique: tuple[int, ...], n: int) -> MagicPartialBasis:
    return partial_basis_from_set(pauli_from_quaternary(a, n) for a in clique)


def _projection_residual(state: StateVector, basis: MagicPartialBasis) -> float:
    """Norm of the component of `state` outside the span of the basis members."""
    residual = state.amplitudes.copy()
    for member in basis.members:
        residual -= member.overlap(state) * member.amplitudes
    return float(np.linalg.norm(residual))


# --- the explicit n = 2 catalog ------------------------------------------

# printed-name -> quaternary digits (digit order: qubit 1, qubit 2)
N2_NAMES: dict[str, tuple[int, int]] = {
    "I": (0, 0),
    "A1": (0, 2), "A2": (0, 3), "A3": (0, 1),
    "F": (1, 0), "B1": (1, 2), "B2": (1, 3), "B3": (1, 1),
    "G": (2, 0), "C1": (2, 2), "C2": (2, 3), "C3": (2, 1),
    "H": (3, 0), "D1": (3, 2), "D2": (3, 3), "D3": (3, 1),
}

_N2_ALPHA_TO_NAME = {4 * d1 + d2: name for name, (d1, d2) in N2_NAMES.items()}

# The sixteen states exactly as printed in the source table, as
# (basis index, amplitude) pairs with a common 1/2 magnitude.  These are
# reference data for the reconciliation only, never an oracle.
_HALF = 0.5
_IHALF = 0.5j
N2_PRINTED_STATES: dict[str, tuple[tuple[int, complex], ...]] = {
    "I": ((0, _HALF), (5, _HALF), (10, _HALF), (15, _HALF)),
    "F": ((0, _HALF), (5, _HALF), (10, -_HALF), (15, -_HALF)),
    "G": ((2, _HALF), (7, _HALF), (8, _HALF), (13, _HALF)),
    "H": ((2, -_IHALF), (7, -_IHALF), (8, _IHALF), (13, _IHALF)),
    "A1": ((1, _HALF), (4, _HALF), (11, _HALF), (14, _HALF)),
    "A2": ((1, -_IHALF), (4, _IHALF), (11, -_IHALF), (14, _IHALF)),
    "A3": ((0, _HALF), (5, -_HALF), (10, _HALF), (15, -_HALF)),
    "B1": ((1, _HALF), (4, _HALF), (11, -_HALF), (14, -_HALF)),
    "B2": ((1, -_IHALF), (4, _IHALF), (11, _IHALF), (14, -_IHALF)),
    "B3": ((0, _HALF), (5, -_HALF), (10, -_HALF), (15, _HALF)),
    "C1": ((3, _HALF), (6, _HALF), (9, _HALF), (12, _HALF)),
    "C2": ((3, -_IHALF), (6, _IHALF), (9, -_IHALF), (12, _IHALF)),
    "C3": ((2, _HALF), (7, -_HALF), (8, _HALF), (13, -_HALF)),
    "D1": ((7, -_IHALF), (6, -_IHALF), (9, _IHALF), (12, _IHALF)),
    "D2": ((3, -_HALF), (6, _HALF), (9, -_HALF), (12, _HALF)),
    "D3": ((2, -_IHALF), (7, _IHALF), (8, _IHALF), (13, -_IHALF)),
}

# The eight anticommuting sets as printed, duplicates and the undefined
# name "E" included verbatim.
N2_PRINTED_MAXIMAL_SETS: tuple[tuple[str, ...], ...] = (
    ("F", "G", "D1", "D2", "D2"),
    ("G", "H", "B1", "B2", "B3"),
    ("H", "E", "C1", "C2", "C3"),
    ("A1", "A2", "B3", "C3", "D3"),
    ("A2", "A3", "B1", "C2", "D2"),
    ("A3", "A1", "B2", "C2", "D2"),
    ("E", "G", "H"),
    ("A1", "A2", "A3"),
)

# The quarter-basis families as printed (the identity member implied).
# Six entries appear in print, but the third is garbled to two members;
# five disjoint families is the provable maximum (six would need 18 of
# the 15 non-identity strings).
N2_PRINTED_QUARTER_BASES: tuple[tuple[str, ...], ...] = (
    ("F", "G", "H"),
    ("A1", "A2", "A3"),
    ("A2", "A3"),
    ("B1", "B2", "B3"),
    ("C1", "C2", "C3"),
    ("D1", "D2", "D3"),
)

PRINTED_QUARTER_BASIS_COUNT = len(N2_PRINTED_QUARTER_BASES)


@dataclass(frozen=True)
class ReconciliationEntry:
    printed: tuple[str, ...]
    matched: tuple[str, ...]  # nearest enumerated maximal clique, by name
    exact: bool
    flags: tuple[str, ...]


@dataclass(frozen=True)
class N2Catalog:
    states: dict[str, StateVector] = field(repr=False)
    printed_state_typos: dict[str, str] = field(default_factory=dict)
    maximal_sets: tuple[tuple[str, ...], ...] = ()
    partial_bases: tuple[MagicPartialBasis, ...] = ()
    quarter_basis_families: tuple[tuple[str, ...], ...] = ()
    reconciliation: tuple[ReconciliationEntry, ...] = ()
    quarter_reconciliation: tuple[ReconciliationEntry, ...] = ()

    @property
    def max_partial_basis_dimension(self) -> int:
        return max(b.dimension for b in self.partial_bases)


def _names_of_clique(clique: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(_N2_ALPHA_TO_NAME[a] for a in clique)


def _covering_first_fit(triangles: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The first fit of disjoint triangles; covering all V vertices, it is a maximum (V / 3)."""
    kept, used = [], set()
    for t in triangles:
        if used.isdisjoint(t):
            kept.append(t)
            used.update(t)
    if used != set().union(*triangles):
        raise errors.InternalConsistencyError("disjoint triangles leave vertices uncovered")
    return kept


def n2_catalog() -> N2Catalog:
    """Everything explicit for n = 2: named states, cliques, partial bases.

    Constructed states are ground truth; the printed amplitude table (±1/2 and
    ±i/2, exact in binary, so compared exactly) and printed anticommuting sets
    are reconciled against them and every disagreement is reported as a typo flag.
    """
    n = 2
    mats = 0.5 * matrices_of(np.array([4 * d1 + d2 for d1, d2 in N2_NAMES.values()]), n)
    states = {name: state_from_matrix(m, n) for name, m in zip(N2_NAMES, mats)}

    typos: dict[str, str] = {}
    for name, entries in N2_PRINTED_STATES.items():
        printed = np.zeros(16, dtype=np.complex128)
        for index, amp in entries:
            printed[index] += amp
        diff = np.flatnonzero(printed != states[name].amplitudes)
        if diff.size:
            typos[name] = f"printed amplitudes disagree at indices {diff.tolist()}"

    report = maximal_anticommuting_sets(build_anticomm_graph(n))
    named_sets = tuple(_names_of_clique(c) for c in report.maximal_cliques)
    bases = tuple(_basis_from_alpha_clique(c, n) for c in report.maximal_cliques)

    alpha_of = {name: alpha for alpha, name in _N2_ALPHA_TO_NAME.items()}

    def reconcile(printed: tuple[str, ...], candidates) -> ReconciliationEntry:
        flags = []
        known = [name for name in printed if name in alpha_of]
        unknown = [name for name in printed if name not in alpha_of]
        if unknown:
            flags.append(f"undefined names: {', '.join(unknown)}")
        if len(set(printed)) != len(printed):
            flags.append("duplicate entries")
        target = set(alpha_of[name] for name in known)
        matched = max(
            candidates,
            key=lambda c: (len(target & set(c)), -len(set(c) ^ target)),
        )
        matched_names = _names_of_clique(matched)
        exact = set(matched_names) == set(printed)
        if not exact and not flags:
            flags.append("membership differs from enumeration")
        return ReconciliationEntry(printed, matched_names, exact, tuple(flags))

    reconciliation = [
        reconcile(printed, report.maximal_cliques)
        for printed in N2_PRINTED_MAXIMAL_SETS
    ]

    # every triangle lies in a maximal clique, whose alphas are sorted
    triangles = sorted({t for c in report.maximal_cliques for t in itertools.combinations(c, 3)})
    packing = _covering_first_fit(triangles)
    quarter_families = tuple(_names_of_clique(t) for t in packing)

    quarter_reconciliation = [
        reconcile(printed, packing) for printed in N2_PRINTED_QUARTER_BASES
    ]
    if len(N2_PRINTED_QUARTER_BASES) != len(packing):
        quarter_reconciliation.append(
            ReconciliationEntry(
                printed=(),
                matched=(),
                exact=False,
                flags=(
                    f"printed list has {len(N2_PRINTED_QUARTER_BASES)} quarter "
                    f"bases but only {len(packing)} disjoint families exist "
                    f"(a sixth would need 18 of the 15 non-identity strings)",
                ),
            )
        )

    return N2Catalog(
        states,
        typos,
        named_sets,
        bases,
        quarter_families,
        tuple(reconciliation),
        tuple(quarter_reconciliation),
    )
