"""The fast paths against the loops they replace.

The first reference builds every member B^(α) = P_α B^(0) as a dense
matrix and evaluates each outcome on its own: O^(α) = E^T B^(α)†,
b = O^(α) I, p = |b|², the correction O^(α)†/√s when O^(α)†O^(α) = s·1
with s > 0 (the identity otherwise), and the fidelity |<I|C b>|² / |C b|².
The others are the per-trial loop of `verify_partial_basis`, one
`run_protocol` call per trial, the scalar grid loop of `masfi_1q`, its
scalar objective and tie loop, and scipy's Nelder-Mead, which
`teleport.minimize` reproduces step for step.
"""

import dataclasses
import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import rosen

from qtel import teleport
from qtel.bell import (BellBasis, Members, bell_basis_from_members, generate_from_seed,
                       standard_basis)
from qtel.channel import Channel, channel_from_state, state_from_matrix
from qtel.errors import ValidationError
from qtel.linalg import (
    DEFAULT_TOL,
    StateVector,
    Tolerance,
    haar_random_unitary,
    is_maximally_entangled,
    random_state,
)
from qtel.magic import (
    VERIFY_BLOCK_TRIALS,
    MagicPartialBasis,
    build_anticomm_graph,
    maximal_anticommuting_sets,
    partial_basis_from_set,
    verify_partial_basis,
)
from qtel.pauli import (action_index, matrix_of, pauli_from_digits, pauli_from_quaternary,
                        signed_copies)
from qtel.teleport import (
    SAMPLING_GRID,
    ZERO_PROBABILITY_EPS,
    OutcomeRecord,
    composite_expand,
    masfi_1q,
    run_protocol,
    transformation_operator,
)


def dense_members(b0, n):
    return [matrix_of(pauli_from_quaternary(alpha, n)) @ b0 for alpha in range(4**n)]


def dense_reference(info, e, b0, n, tol=DEFAULT_TOL):
    """Per-α probabilities, fidelities, Bob and corrected states, and zero flags.

    A zero outcome's fidelity and states are nan.
    """
    probs, fids, bobs, corrected, zero = [], [], [], [], []
    for member in dense_members(b0, n):
        o = e.T @ member.conj().T
        b = o @ info
        p = float(np.real(np.vdot(b, b)))
        probs.append(p)
        zero.append(p < ZERO_PROBABILITY_EPS)
        if zero[-1]:
            fids.append(np.nan)
            bobs.append(np.full(2**n, np.nan))
            corrected.append(np.full(2**n, np.nan))
            continue
        gram = o.conj().T @ o
        s = np.real(np.trace(gram)) / 2**n
        scaled = np.max(np.abs(gram - s * np.eye(2**n))) <= tol.abs_eps and s > tol.abs_eps
        c = (o.conj().T / np.sqrt(s) if scaled else np.eye(2**n)) @ (b / np.sqrt(p))
        fids.append(abs(np.vdot(info, c)) ** 2 / np.vdot(c, c).real)
        bobs.append(b / np.sqrt(p))
        corrected.append(c / np.linalg.norm(c))
    return (np.array(probs), np.array(fids), np.array(bobs), np.array(corrected),
            np.array(zero))


def run_states(info, ch, basis):
    """Bob's and the corrected states of one run, from the blocks of `teleport._outcomes`."""
    rows = teleport._outcomes(info.amplitudes[None], ch.e_matrix[None], basis, DEFAULT_TOL)
    blocks = [rows(start)[2:4] for start in range(0, basis.size, teleport.OUTCOME_BLOCK)]
    return [np.concatenate(column, axis=1)[0] for column in zip(*blocks)]


def make_case(n, channel_kind, seed_kind, info_kind, rng):
    d = 2**n
    if channel_kind == "perfect":
        e = haar_random_unitary(d, rng) / np.sqrt(d)
    elif channel_kind == "imperfect":
        e = random_state(2 * n, rng).amplitudes.reshape(d, d)
    else:  # GHZ corner matrix: rank 2, perfect only for n = 1
        e = np.zeros((d, d), dtype=complex)
        e[0, 0] = e[-1, -1] = 1 / np.sqrt(2)
    if seed_kind == "standard":
        b0 = np.eye(d, dtype=complex) / np.sqrt(d)
    else:
        b0 = haar_random_unitary(d, rng) / np.sqrt(d)
    info = (random_state(n, rng) if info_kind == "haar"
            else StateVector(n, np.eye(d)[rng.integers(d)]))
    return info, channel_from_state(state_from_matrix(e, n), n), b0


cases = st.tuples(
    st.integers(1, 4),
    st.sampled_from(["perfect", "imperfect", "ghz"]),
    st.sampled_from(["standard", "haar"]),
    st.sampled_from(["haar", "basis"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(case=cases, storage=st.sampled_from(["seeded", "dense"]))
def test_protocol_matches_dense_reference(case, storage):
    n, channel_kind, seed_kind, info_kind, rng_seed = case
    rng = np.random.default_rng(rng_seed)
    info, ch, b0 = make_case(n, channel_kind, seed_kind, info_kind, rng)
    basis = generate_from_seed(state_from_matrix(b0, n))
    if storage == "dense":
        basis = bell_basis_from_members(dense_members(b0, n))
    shot_seed = int(rng.integers(2**31))
    result = run_protocol(info, ch, basis, mode="sampled", seed=shot_seed, shots=500)

    probs, fids, bobs, corrected, zero = dense_reference(info.amplitudes, ch.e_matrix, b0, n)
    assert np.max(np.abs([r.probability for r in result.records] - probs)) <= 1e-12
    assert [r.zero_probability for r in result.records] == zero.tolist()
    got = np.array([np.nan if r.fidelity is None else r.fidelity for r in result.records])
    assert np.array_equal(np.isnan(got), zero)
    assert np.max(np.abs(got[~zero] - fids[~zero])) <= 1e-12
    got_bobs, got_corrected = run_states(info, ch, basis)
    assert np.max(np.abs(got_bobs[~zero] - bobs[~zero]), initial=0.0) <= 1e-12
    assert np.max(np.abs(got_corrected[~zero] - corrected[~zero]), initial=0.0) <= 1e-12
    weights = np.round(probs * SAMPLING_GRID)
    expected = np.random.default_rng(shot_seed).multinomial(500, weights / weights.sum())
    assert result.counts == tuple(int(c) for c in expected)


@settings(max_examples=30, deadline=None)
@given(case=cases)
def test_bob_states_match_dense_reference(case):
    n, channel_kind, seed_kind, info_kind, rng_seed = case
    info, ch, b0 = make_case(n, channel_kind, seed_kind, info_kind,
                             np.random.default_rng(rng_seed))
    basis = generate_from_seed(state_from_matrix(b0, n))
    records = composite_expand(info, ch, basis)
    bobs, _ = run_states(info, ch, basis)
    for record, member, bob in zip(records, dense_members(b0, n), bobs):
        if record.zero_probability:
            continue
        b = ch.e_matrix.T @ member.conj().T @ info.amplitudes
        assert np.max(np.abs(bob - b / np.linalg.norm(b))) <= 1e-12


def eager_records(outcomes):
    """The records of `outcomes`, all built at once from its columns."""
    records = []
    for alpha, (p, zero, f) in enumerate(zip(outcomes.probs, outcomes.zero, outcomes.fidelities)):
        if zero:
            records.append(OutcomeRecord(alpha, float(p), zero_probability=True))
            continue
        records.append(OutcomeRecord(alpha, float(p), float(f)))
    return records


@settings(max_examples=30, deadline=None)
@given(case=cases)
def test_records_are_built_from_the_columns_as_an_eager_construction(case):
    n, channel_kind, seed_kind, info_kind, rng_seed = case
    info, ch, b0 = make_case(n, channel_kind, seed_kind, info_kind,
                             np.random.default_rng(rng_seed))
    basis = generate_from_seed(state_from_matrix(b0, n))
    for outcomes in (composite_expand(info, ch, basis), run_protocol(info, ch, basis).records):
        eager = eager_records(outcomes)
        assert len(outcomes) == len(eager) == 4**n
        assert list(outcomes) == eager
        for alpha in range(-4**n, 4**n, max(1, 4**n // 7)):
            assert outcomes[alpha] == eager[alpha]
        for alpha in (4**n, -4**n - 1):
            with pytest.raises(IndexError):
                outcomes[alpha]


def test_no_state_vector_is_built_until_a_record_is_indexed():
    n, d = 6, 2**6
    rng = np.random.default_rng(60)
    basis = standard_basis(n)
    ch = channel_from_state(state_from_matrix(haar_random_unitary(d, rng) / np.sqrt(d), n), n)
    info = random_state(n, rng)
    built = []
    post_init = StateVector.__post_init__

    def counting_post_init(self):
        built.append(self.n_qubits)
        post_init(self)

    with mock.patch.object(StateVector, "__post_init__", counting_post_init):
        result = run_protocol(info, ch, basis, mode="sampled", seed=1, shots=100)
        record = result.records[-1]
        assert built == []  # neither the run nor its records keep a state
    assert record.alpha == 4**n - 1 and record.fidelity == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(("n", "channel_kind", "storage"), [
    (1, "perfect", "seeded"), (2, "ghz", "seeded"), (5, "perfect", "seeded"),
    (5, "ghz", "seeded"), (3, "ghz", "dense")])
def test_reading_a_record_runs_no_protocol_code(n, channel_kind, storage):
    rng = np.random.default_rng(10 * n + len(channel_kind))
    seed_kind = "standard" if channel_kind == "ghz" else "haar"  # the GHZ runs have zero outcomes
    info, ch, b0 = make_case(n, channel_kind, seed_kind, "basis", rng)
    basis = generate_from_seed(state_from_matrix(b0, n))
    if storage == "dense":
        basis = bell_basis_from_members(dense_members(b0, n))
    records = run_protocol(info, ch, basis).records

    def refuse(*args, **kwargs):
        raise AssertionError("reading a record ran protocol code")

    order = rng.permutation(4**n).tolist()
    with mock.patch.object(teleport, "action_rows", refuse), \
            mock.patch.object(teleport, "_probabilities", refuse):
        read = [records[alpha] for alpha in order]
    assert records.zero.any() == (channel_kind == "ghz" and n > 1)
    for alpha, record in zip(order, read):
        zero = bool(records.zero[alpha])
        assert record == OutcomeRecord(alpha, float(records.probs[alpha]),
                                       None if zero else float(records.fidelities[alpha]), zero)


def test_result_keeps_the_replace_and_repr_contracts():
    info = StateVector(2, np.eye(4)[1])
    ghz = np.zeros((4, 4), dtype=complex)
    ghz[0, 0] = ghz[-1, -1] = 2**-0.5
    ch = channel_from_state(state_from_matrix(ghz, 2), 2)
    result = run_protocol(info, ch, standard_basis(2), mode="sampled", seed=3, shots=50)
    replaced = dataclasses.replace(result, records=tuple(result.records))
    assert list(replaced.records) == list(result.records)
    assert (replaced.mode, replaced.counts) == (result.mode, result.counts)
    assert repr(result) == repr(run_protocol(info, ch, standard_basis(2), mode="sampled",
                                             seed=3, shots=50))
    assert "0x" not in repr(result)
    assert "OutcomeRecords(n=2, outcomes=16, useful=8)" in repr(result)
    with pytest.raises(ValueError):
        result.records.probs[0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_no_state_that_is_not_finite_leaves_the_protocol(bad):
    ch = Channel(1, np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex))
    for stage in (composite_expand, run_protocol):
        with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="must be finite"):
            stage(StateVector(1, np.eye(2)[0]), ch, standard_basis(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_action_index_matches_dense_matrices(n):
    index = action_index(n)
    rng = np.random.default_rng(n)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    unit_rows = signed_copies(np.eye(2**n, dtype=complex), axis=0)  # row k·2^n + s is i^k e_s
    for alpha in range(4**n):
        p = matrix_of(pauli_from_quaternary(alpha, n))
        assert np.array_equal(signed_copies(v)[index[alpha]], p @ v)
        assert np.array_equal(unit_rows[index[alpha]], p)


def test_action_index_is_read_only_and_cached():
    index = action_index(2)
    with pytest.raises(ValueError):
        index[0, 0] = 1
    assert action_index(2) is index


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed_kind", ["standard", "haar"])
def test_members_equal_pauli_times_seed(n, seed_kind):
    rng = np.random.default_rng(40 + n)
    b0 = (np.eye(2**n, dtype=complex) if seed_kind == "standard"
          else haar_random_unitary(2**n, rng)) / np.sqrt(2**n)
    basis = generate_from_seed(state_from_matrix(b0, n))
    assert np.array_equal(basis.seed, b0)
    assert len(basis.members) == basis.size == 4**n
    for alpha, member in enumerate(basis.members):
        assert np.array_equal(member, matrix_of(pauli_from_quaternary(alpha, n)) @ b0)
    assert np.array_equal(basis.members[-1], basis.members[4**n - 1])
    with pytest.raises(IndexError):
        basis.members[4**n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed_kind", ["standard", "haar"])
def test_completeness_matrix_is_the_member_stack_bit_for_bit(n, seed_kind):
    rng = np.random.default_rng(60 + n)
    b0 = (np.eye(2**n, dtype=complex) if seed_kind == "standard"
          else haar_random_unitary(2**n, rng)) / np.sqrt(2**n)
    basis = generate_from_seed(state_from_matrix(b0, n))
    stack = np.array([m.reshape(-1) for m in basis.members])
    matrix = np.asarray(basis.members).reshape(basis.size, -1)
    assert np.array_equal(matrix.view(np.uint64), stack.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed_kind", ["standard", "haar"])
def test_indexed_member_is_the_stacked_member_bit_for_bit(n, seed_kind):
    rng = np.random.default_rng(80 + n)
    b0 = (np.eye(2**n, dtype=complex) if seed_kind == "standard"
          else haar_random_unitary(2**n, rng)) / np.sqrt(2**n)
    members = generate_from_seed(state_from_matrix(b0, n)).members
    stack = np.asarray(members)
    assert stack.shape == (4**n, 2**n, 2**n)
    for alpha in (0, -1, 4**n // 2 + 1):
        assert np.array_equal(members[alpha].view(np.uint64), stack[alpha].view(np.uint64))


@pytest.mark.parametrize("perfect", [True, False])
def test_validated_dense_family_is_a_read_only_stack(perfect):
    n = 2
    rng = np.random.default_rng(90)
    seed = state_from_matrix(haar_random_unitary(2**n, rng) / 2, n)
    members = list(generate_from_seed(seed).members)
    basis = bell_basis_from_members(members)
    table = basis.members.table
    assert not table.flags.writeable and table.shape == (4**n * 2**n, 2**n)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    stack = np.stack(members)
    assert np.asarray(basis.members).view(np.uint64).tobytes() == stack.view(np.uint64).tobytes()
    e = (haar_random_unitary(2**n, rng) if perfect
         else rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n)))
    e /= np.linalg.norm(e)
    ch = channel_from_state(state_from_matrix(e, n), n)
    info = random_state(n, rng)
    runs = []
    for family in (basis, BellBasis(n, Members(stack.reshape(-1, 2**n)))):
        records = run_protocol(info, ch, family).records
        runs.append((records.probs, records.zero, *run_states(info, ch, family),
                     records.fidelities))
    for name, a, b in zip(("probs", "zero", "bob", "corrected", "fidelities"), *runs):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_seed_is_copied_from_the_seed_state():
    seed = state_from_matrix(np.eye(2) / np.sqrt(2), 1)
    basis = generate_from_seed(seed)
    seed.amplitudes[0] = 0.0
    assert basis.members[0][0, 0] == 1 / np.sqrt(2)


def test_dense_family_has_no_seed():
    basis = bell_basis_from_members(standard_basis(1).members)
    assert basis.seed is None and len(basis.members) == 4


@pytest.mark.parametrize("dense", [False, True])
def test_zero_info_state_within_a_loose_tolerance(dense):
    basis = standard_basis(1)
    if dense:
        basis = bell_basis_from_members(basis.members)
    info = StateVector(1, np.zeros(2))
    ch = channel_from_state(state_from_matrix(np.eye(2) / np.sqrt(2), 1), 1)
    result = run_protocol(info, ch, basis, tol=Tolerance(1.0))
    assert all(r.zero_probability and r.fidelity is None for r in result.records)
    with pytest.raises(ValidationError, match="nonzero probability"):
        run_protocol(info, ch, basis, mode="sampled", seed=1, shots=10, tol=Tolerance(1.0))


def test_seven_qubits_without_dense_basis():
    # the dense N = 7 basis would hold 4^7 matrices of 128 x 128 (4.3 GB)
    n, d = 7, 2**7
    rng = np.random.default_rng(70)
    ch = channel_from_state(state_from_matrix(haar_random_unitary(d, rng) / np.sqrt(d), n), n)
    outcomes = run_protocol(random_state(n, rng), ch, standard_basis(n)).records
    probs, fids = outcomes.probs, outcomes.fidelities
    assert len(fids) == 4**n
    assert np.max(np.abs(probs - 4.0**-n)) < 1e-12
    assert np.max(np.abs(fids - 1.0)) < 1e-9


def reference_verification(basis, trials, seed, tol=DEFAULT_TOL):
    """`verify_partial_basis` as one `run_protocol` call per trial."""
    rng = np.random.default_rng(seed)
    n = basis.n
    matrices = [m.amplitudes.reshape(2**n, 2**n) for m in basis.members]
    measurement = standard_basis(n)
    worst_dev, min_fid, failures = 0.0, 1.0, 0
    for _ in range(trials):
        mags = np.abs(rng.standard_normal(len(matrices)))
        mags /= np.linalg.norm(mags)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        combined = sum(phase * c * m for c, m in zip(mags, matrices))
        ok, dev = is_maximally_entangled(combined, tol)
        worst_dev = max(worst_dev, dev)
        ch = channel_from_state(state_from_matrix(combined, n), n, tol)
        result = run_protocol(random_state(n, rng), ch, measurement, tol=tol)
        fid = min(r.fidelity for r in result.records if not r.zero_probability)
        min_fid = min(min_fid, fid)
        failures += not ok or fid < 1.0 - tol.abs_eps
    return worst_dev, min_fid, failures


@functools.cache
def cliques(n):
    return maximal_anticommuting_sets(build_anticomm_graph(n)).maximal_cliques


def commuting_fake():
    # identity, ZI and IZ: combinations are not scaled unitaries
    strings = [pauli_from_digits(d) for d in ([0, 0], [1, 0], [0, 1])]
    members = tuple(state_from_matrix(0.5 * matrix_of(p), 2) for p in strings)
    return MagicPartialBasis(2, members, tuple(strings[1:]))


@st.composite
def partial_bases(draw):
    """A random nonempty subset of a random maximal clique, or the commuting fake."""
    n = draw(st.sampled_from([1, 2, 3, "fake"]))
    if n == "fake":
        return commuting_fake()
    clique = draw(st.sampled_from(cliques(n)))
    subset = draw(st.lists(st.sampled_from(clique), min_size=1, unique=True))
    return partial_basis_from_set(pauli_from_quaternary(a, n) for a in subset)


@settings(max_examples=60, deadline=None)
@given(basis=partial_bases(), seed=st.integers(0, 2**32 - 1),
       trials=st.sampled_from([1, 7, VERIFY_BLOCK_TRIALS + 3]),
       tol=st.sampled_from([DEFAULT_TOL, Tolerance(1e-3)]))
def test_verification_equals_per_trial_protocol_runs(basis, seed, trials, tol):
    result = verify_partial_basis(basis, trials, seed, tol)
    worst_dev, min_fid, failures = reference_verification(basis, trials, seed, tol)
    assert result.max_condition_deviation == worst_dev
    assert result.min_fidelity == min_fid
    assert result.failures == failures
    assert result.passed == (failures == 0)


def test_verification_memory_does_not_grow_with_trials():
    basis = partial_basis_from_set(pauli_from_quaternary(a, 3) for a in cliques(3)[0])
    verify_partial_basis(basis, 1, 0)  # fills the factor cache

    def peak(trials):
        tracemalloc.start()
        try:
            verify_partial_basis(basis, trials, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10 * VERIFY_BLOCK_TRIALS) <= 1.1 * peak(VERIFY_BLOCK_TRIALS)


def reference_grid_start(ch, tol=DEFAULT_TOL):
    """The scalar grid loop of `masfi_1q`: its first strict minimum and value."""
    basis = standard_basis(1)
    operators = [transformation_operator(ch, basis, alpha, tol).matrix for alpha in range(4)]
    corrections = [matrix_of(pauli_from_quaternary(alpha, 1)) for alpha in range(4)]

    def worst_fidelity(theta, phi):
        info = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        worst = 1.0
        for o, u in zip(operators, corrections):
            b = o @ info
            p = np.real(np.vdot(b, b))
            if p >= ZERO_PROBABILITY_EPS:
                worst = min(worst, float(abs(np.vdot(info, u @ b)) ** 2 / p))
        return worst

    best = (1.0, (0.0, 0.0))
    for theta in np.linspace(0.0, np.pi, 64):
        for phi in np.linspace(0.0, 2 * np.pi, 128, endpoint=False):
            f = worst_fidelity(theta, phi)
            if f < best[0]:
                best = (f, (float(theta), float(phi)))
    return best[1], best[0]


def one_qubit_channel(kind, rng_seed):
    """A Schmidt-form or Haar-random two-qubit state, as a one-qubit channel."""
    rng = np.random.default_rng(rng_seed)
    if kind == "schmidt":
        lam = rng.uniform(0.01, np.pi / 2 - 0.01)
        state = StateVector(2, np.array([np.cos(lam), 0, 0, np.sin(lam)]))
    else:
        state = random_state(2, rng)
    return channel_from_state(state, 1)


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(["schmidt", "haar"]), rng_seed=st.integers(0, 2**32 - 1))
def test_masfi_starts_where_the_scalar_grid_loop_does(kind, rng_seed):
    ch = one_qubit_channel(kind, rng_seed)
    starts = []

    def spy(fun, x0, **options):
        starts.append((tuple(x0), fun(x0)))
        return real_minimize(fun, x0, **options)

    real_minimize = teleport.minimize
    with mock.patch.object(teleport, "minimize", spy):
        masfi_1q(ch)
    assert starts == [reference_grid_start(ch)]


def masfi_objective(ch):
    """The objective `masfi_1q` refines for ``ch``, and the start it refines from."""
    calls = []

    def spy(fun, x0, **options):
        calls.append((fun, x0))
        return real_minimize(fun, x0, **options)

    real_minimize = teleport.minimize
    with mock.patch.object(teleport, "minimize", spy):
        masfi_1q(ch)
    return calls[0]


def scripted(values, then_nan=False):
    """An objective that returns ``values`` in call order, then ever larger ones.

    Once the script is used up every new value is the worst so far (or NaN,
    which compares as worse), so each iteration is a reflection, an inside
    contraction and a shrink, until the 400 evaluations of two variables run
    out.
    """
    calls = itertools.count()

    def fun(x):
        k = next(calls)
        if k < len(values):
            return values[k]
        return np.nan if then_nan else 100.0 + k

    return fun


def recorded(fun, log):
    """``fun``, appending each point it is called at to ``log``."""
    def wrapper(x):
        log.append(x)
        return fun(x)

    return wrapper


MASFI_STOPPING = {"xatol": teleport.MASFI_XATOL, "fatol": teleport.MASFI_FATOL}


def numpy_minimize(fun, x0) -> teleport.Minimum:
    """`teleport.minimize` as it was, on a float64 simplex and value array."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    maxfev = 200 * n
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise teleport._OutOfEvaluations
        nfev += 1
        return fun(np.copy(x))

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.full((n + 1,), np.inf)
    for k in range(n + 1):
        fsim[k] = evaluate(sim[k])
    sim, fsim = by_value(*by_value(sim, fsim))
    while nfev < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= teleport.MASFI_XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= teleport.MASFI_FATOL):
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
            elif fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
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
        except teleport._OutOfEvaluations:
            pass
        sim, fsim = by_value(sim, fsim)
    return teleport.Minimum(sim[0], np.min(fsim), nfev, nfev < maxfev)


def scipy_nelder_mead(fun, x0):
    return scipy_minimize(fun, x0, method="Nelder-Mead", options=MASFI_STOPPING)


def assert_nelder_mead_is_scipys(make_objective, x0):
    """`teleport.minimize`, its numpy version and scipy evaluate the same points
    and agree on the bits of x and fun, on nfev and on success."""
    runs = [(minimize, []) for minimize in (teleport.minimize, numpy_minimize, scipy_nelder_mead)]
    results = [minimize(recorded(make_objective(), points), x0) for minimize, points in runs]
    points = [np.array(p).view(np.uint64).tolist() for _, p in runs]
    assert points[0] == points[1] == points[2]
    bits = [np.append(r.x, r.fun).view(np.uint64).tolist() for r in results]
    assert bits[0] == bits[1] == bits[2]
    assert len({(r.nfev, bool(r.success)) for r in results}) == 1


OBJECTIVES = {
    "quadratic": lambda x: (x[0] - 1.25) ** 2 + 3 * (x[1] + 0.5) ** 2,
    "rosenbrock": lambda x: 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2,
    "unbounded": lambda x: -x[0] - x[1],  # runs out of evaluations
}
coordinates = st.one_of(st.just(0.0), st.floats(-4, 4))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["schmidt", "haar", *OBJECTIVES]),
       rng_seed=st.integers(0, 2**32 - 1), x0=st.tuples(coordinates, coordinates))
def test_nelder_mead_is_scipys_bit_for_bit(kind, rng_seed, x0):
    if kind in OBJECTIVES:
        assert_nelder_mead_is_scipys(lambda: OBJECTIVES[kind], x0)
        return
    fun, start = masfi_objective(one_qubit_channel(kind, rng_seed))
    assert_nelder_mead_is_scipys(lambda: fun, start)
    assert_nelder_mead_is_scipys(lambda: fun, x0)


ANY_DIMENSION = {
    "quadratic": lambda x: np.sum(np.arange(1, len(x) + 1) * (x - 1.25) ** 2),
    "rosenbrock": rosen,
    "unbounded": lambda x: -np.sum(x),
}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(ANY_DIMENSION)),
       x0=st.lists(coordinates, min_size=1, max_size=5))
def test_nelder_mead_is_scipys_in_any_dimension(kind, x0):
    # the centroid of three or more rows depends on the order of its additions
    assert_nelder_mead_is_scipys(lambda: ANY_DIMENSION[kind], x0)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, 1.0, np.nan]), st.floats(-10, 10)),
                       min_size=3, max_size=40),
       then_nan=st.booleans(), x0=st.tuples(coordinates, coordinates))
def test_nelder_mead_takes_scipys_branches(values, then_nan, x0):
    # ties, NaNs and every branch, in whatever order the script asks for them
    assert_nelder_mead_is_scipys(lambda: scripted(values, then_nan), x0)


def test_nelder_mead_runs_out_halfway_through_a_shrink():
    # Two accepted reflections, then four evaluations per iteration: the
    # 401st would be the second point of the 101st iteration's shrink.
    values = [0.0, 1.0, 2.0, 0.5, 0.25]
    evaluated = []
    theirs = scipy_minimize(recorded(scripted(values), evaluated), (0.0, 0.0), method="Nelder-Mead",
                            options=MASFI_STOPPING)
    moved = [v for v in theirs.final_simplex[0]
             if not any(np.array_equal(v, p) for p in evaluated)]
    assert (theirs.nfev, theirs.nit, len(moved)) == (400, 101, 1)
    assert_nelder_mead_is_scipys(lambda: scripted(values), (0.0, 0.0))


def scalar_worst_fidelity(ch):
    """`masfi_1q`'s objective as it was: a scalar loop over the four outcomes."""
    basis = standard_basis(1)
    corrections = [matrix_of(pauli_from_quaternary(alpha, 1)) for alpha in range(4)]
    operators = [transformation_operator(ch, basis, alpha).matrix for alpha in range(4)]

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

    return worst_fidelity


def array_worst_fidelities(ch, angles):
    """`teleport._worst_fidelities` at Bloch angles (..., 2), on the stacks `masfi_1q` builds."""
    basis = standard_basis(1)
    corrections = np.array([matrix_of(pauli_from_quaternary(alpha, 1)) for alpha in range(4)])
    operators = np.array([transformation_operator(ch, basis, alpha).matrix for alpha in range(4)])
    return teleport._worst_fidelities(operators, corrections, angles)


def masfi_channel(kind, rng_seed):
    if kind == "perfect":
        return channel_from_state(StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2)), 1)
    return one_qubit_channel(kind, rng_seed)


MASFI_THETAS = np.linspace(0.0, np.pi, teleport.MASFI_GRID_THETA)
MASFI_PHIS = np.linspace(0.0, 2 * np.pi, teleport.MASFI_GRID_PHI, endpoint=False)


def tie_rows(ch):
    """The grid's θ rows that hold a point within MASFI_TIE_BAND of its least value."""
    grid = np.stack(np.meshgrid(MASFI_THETAS, MASFI_PHIS, indexing="ij"), axis=-1)
    values = array_worst_fidelities(ch, grid)
    rows = np.flatnonzero((values <= values.min() + teleport.MASFI_TIE_BAND).any(axis=1))
    return grid[rows].reshape(-1, 2), values[rows].reshape(-1)


def assert_objective_is_the_scalar_loop(ch, points):
    scalar = np.array([scalar_worst_fidelity(ch)(tuple(x)) for x in points])
    assert np.array_equal(array_worst_fidelities(ch, points).view(np.uint64),
                          scalar.view(np.uint64))


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["schmidt", "haar", "perfect"]), rng_seed=st.integers(0, 2**32 - 1))
def test_array_objective_is_the_scalar_loop_bit_for_bit(kind, rng_seed):
    ch = masfi_channel(kind, rng_seed)
    rng = np.random.default_rng(rng_seed)
    random_points = np.stack([rng.uniform(0, np.pi, 200), rng.uniform(0, 2 * np.pi, 200)], axis=-1)
    poles = np.array([(theta, phi) for theta in (0.0, np.pi)
                      for phi in [*MASFI_PHIS[::8], *rng.uniform(0, 2 * np.pi, 8)]])
    assert_objective_is_the_scalar_loop(ch, np.concatenate([random_points, poles]))
    # the objective the refinement evaluates, one point at a time
    fun, _ = masfi_objective(ch)
    scalar = scalar_worst_fidelity(ch)
    for x in random_points[:20]:
        assert np.float64(fun(x)).view(np.uint64) == np.float64(scalar(tuple(x))).view(np.uint64)


@pytest.mark.parametrize("rng_seed", [0, 1, 2, 3])
def test_array_objective_on_a_schmidt_channels_tie_rows(rng_seed):
    ch = one_qubit_channel("schmidt", rng_seed)
    points, values = tie_rows(ch)
    # the worst fidelity does not depend on φ, so whole rows fall within the band
    assert len(points) >= teleport.MASFI_GRID_PHI
    assert np.all(values <= values.min() + teleport.MASFI_TIE_BAND)
    assert_objective_is_the_scalar_loop(ch, points)


def reference_masfi(ch):
    """`masfi_1q` as it was, and its refinement's evaluation count: the array grid, its tie
    band re-scored point by point with the scalar objective, then that objective refined."""
    worst_fidelity = scalar_worst_fidelity(ch)
    basis = standard_basis(1)
    corrections = [matrix_of(pauli_from_quaternary(alpha, 1)) for alpha in range(4)]
    operators = [transformation_operator(ch, basis, alpha).matrix for alpha in range(4)]
    c, s = np.cos(MASFI_THETAS / 2)[:, None], np.sin(MASFI_THETAS / 2)[:, None]
    w = np.exp(1j * MASFI_PHIS)

    def form(a):
        return c * c * a[0, 0] + s * s * a[1, 1] + c * s * (w * a[0, 1] + w.conj() * a[1, 0])

    grid = np.ones((len(MASFI_THETAS), len(MASFI_PHIS)))
    for o, u in zip(operators, corrections):
        p = np.real(form(o.conj().T @ o))
        skip = p < ZERO_PROBABILITY_EPS
        f = np.abs(form(u @ o)) ** 2 / np.where(skip, 1.0, p)
        grid = np.minimum(grid, np.where(skip, 1.0, f))
    best = (1.0, (0.0, 0.0))
    for i in np.flatnonzero(grid <= grid.min() + teleport.MASFI_TIE_BAND):
        angles = (MASFI_THETAS[i // len(MASFI_PHIS)], MASFI_PHIS[i % len(MASFI_PHIS)])
        value = worst_fidelity(angles)
        if value < best[0]:
            best = (value, tuple(float(x) for x in angles))
    refined = teleport.minimize(worst_fidelity, best[1])
    if refined.fun <= best[0]:
        return teleport.MasfiResult(float(refined.fun), converged=bool(refined.success),
                                    argmin=tuple(float(x) for x in refined.x)), refined.nfev
    return teleport.MasfiResult(best[0], argmin=best[1]), refined.nfev


def masfi_bits(result):
    return (np.array([result.value, *result.argmin]).view(np.uint64).tolist(),
            result.converged, result.degenerate)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["schmidt", "haar", "perfect"]), rng_seed=st.integers(0, 2**32 - 1))
def test_masfi_is_the_tie_loop_result_bit_for_bit(kind, rng_seed):
    ch = masfi_channel(kind, rng_seed)
    evaluations = []

    def spy(fun, x0, **options):
        result = real_minimize(fun, x0, **options)
        evaluations.append(result.nfev)
        return result

    real_minimize = teleport.minimize
    with mock.patch.object(teleport, "minimize", spy):
        result = masfi_1q(ch)
    expected, nfev = reference_masfi(ch)
    assert masfi_bits(result) == masfi_bits(expected)
    assert evaluations == [nfev]
