"""The bitmask, array, trial-loop, block and index paths of `qtel.magic`,
`qtel.pauli`, `qtel.bell` and `qtel.teleport` against test-local copies of
the code they replaced.

Clique lists and product tables must be equal; the figures of
`verify_partial_basis` must be equal bit for bit (``uint64`` views),
including every array its trial loop hands to `teleport.min_fidelities`;
the verdict and deviation of `verify_completeness` must equal those of the
one dense (4^n, 4^n) resolution.  The Pauli action read through
`pauli.action_index` must give the columns of `run_protocol`, the values of
`min_fidelities`, the member stack and the `basis_to_list` text bit for bit
as the (perm, phase) tables it replaced gave them.  `run_protocol`, which
corrects every outcome, must give the columns of the engine that corrected
only the nonzero ones on those rows, and `min_fidelities` the least
nonzero-outcome fidelity of `run_protocol`, bit for bit.
"""

import itertools
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtel.bell
import qtel.errors
import qtel.magic
from qtel import pauli, teleport
from qtel.bell import (BellBasis, bell_basis_from_members, generate_from_seed, standard_basis,
                       verify_completeness)
from qtel.channel import channel_from_state, state_from_matrix
from qtel.cli import main
from qtel.errors import ResourceLimitError
from qtel.linalg import (DEFAULT_TOL, StateVector, Tolerance, haar_random_unitary,
                         is_maximally_entangled, is_scaled_identity, random_state)
from qtel.magic import (
    CliqueReport,
    build_anticomm_graph,
    maximal_anticommuting_sets,
    partial_basis_from_set,
    verify_partial_basis,
)
from qtel.pauli import commutes, pauli_from_quaternary, product, product_table
from qtel.serialize import basis_to_list, dumps, matrix_to_dict
from qtel.teleport import min_fidelities, run_protocol


def set_based_cliques(g) -> CliqueReport:
    """Bron-Kerbosch with pivoting on Python sets, as `maximal_anticommuting_sets` was."""
    adj = [set(np.flatnonzero(g.adjacency[v])) for v in range(len(g.vertices))]
    cliques: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(len(g.vertices))), set())
    alphas = g.alphas
    named = sorted(tuple(alphas[v] for v in c) for c in cliques)
    return CliqueReport(g.n, tuple(named), max(len(c) for c in named))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bitmask_cliques_equal_set_based(n):
    g = build_anticomm_graph(n)
    assert maximal_anticommuting_sets(g) == set_based_cliques(g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_table_is_product_and_commutes(n):
    index, power, anticommutes = product_table(n)
    assert index.shape == power.shape == anticommutes.shape == (4**n, 4**n)
    family = [pauli_from_quaternary(a, n) for a in range(4**n)]
    for (a, p), (b, q) in itertools.product(enumerate(family), repeat=2):
        r = product(p, q)
        assert (index[a, b], power[a, b]) == (r.quaternary_index, r.phase_power)
        assert anticommutes[a, b] == (not commutes(p, q))


def _old_random_amplitudes(n: int, rng) -> np.ndarray:
    """`linalg.random_state(n, rng).amplitudes` as it was: a StateVector per draw."""
    dim = 2**n
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n, v / np.linalg.norm(v)).amplitudes


def per_object_verify(basis, trials, seed, fidelities, tol=DEFAULT_TOL):
    """The trial loop of `verify_partial_basis` as it was, with `fidelities` for min_fidelities."""
    rng = np.random.default_rng(seed)
    n = basis.n
    matrices = [m.amplitudes.reshape(2**n, 2**n) for m in basis.members]
    measurement = standard_basis(n)
    worst_dev = 0.0
    min_fid = 1.0
    failures = 0
    for start in range(0, trials, 128):
        size = min(128, trials - start)
        coeffs = np.empty((size, len(matrices)), dtype=np.complex128)
        infos = np.empty((size, 2**n), dtype=np.complex128)
        for t in range(size):
            mags = np.abs(rng.standard_normal(len(matrices)))
            mags /= np.linalg.norm(mags)
            coeffs[t] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * mags
            infos[t] = _old_random_amplitudes(n, rng)
        combined = sum(c[:, None, None] * m for c, m in zip(coeffs.T, matrices))
        ok, dev = is_maximally_entangled(combined, tol)
        ok &= np.abs(np.linalg.norm(combined, axis=(1, 2)) - 1) <= tol.abs_eps
        fid = fidelities(infos, combined, measurement, tol)
        worst_dev = max(worst_dev, float(np.max(dev)))
        min_fid = min(min_fid, float(np.min(fid)))
        failures += int(np.count_nonzero(~ok | (fid < 1.0 - tol.abs_eps)))
    return trials, worst_dev, min_fid, failures, failures == 0


def _recorder(calls: list):
    def fidelities(info, e, basis, tol):
        calls.append((info.copy(), e.copy()))
        return min_fidelities(info, e, basis, tol)

    return fidelities


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


_N3_SET = max(maximal_anticommuting_sets(build_anticomm_graph(3)).maximal_cliques, key=len)
_SETS = (
    [(1, (1,)), (1, (1, 2, 3))]
    + [(2, c) for c in maximal_anticommuting_sets(build_anticomm_graph(2)).maximal_cliques]
    + [(3, _N3_SET)]
)


@pytest.mark.parametrize("trials", [1, 127, 128, 129, 300])
def test_verify_equals_per_object_loop_bit_for_bit(monkeypatch, trials):
    for seed, (n, clique) in enumerate(_SETS):
        basis = partial_basis_from_set(pauli_from_quaternary(a, n) for a in clique)
        new_calls, old_calls = [], []
        monkeypatch.setattr(qtel.magic, "min_fidelities", _recorder(new_calls))
        v = verify_partial_basis(basis, trials, seed)
        old = per_object_verify(basis, trials, seed, _recorder(old_calls))
        assert (v.trials, v.failures, v.passed) == (old[0], old[3], old[4])
        assert _bits([v.max_condition_deviation, v.min_fidelity]).tolist() == \
            _bits([old[1], old[2]]).tolist()
        assert len(new_calls) == len(old_calls) == -(-trials // 128)
        for (info, e), (old_info, old_e) in zip(new_calls, old_calls):
            assert np.array_equal(info.view(np.uint64), old_info.view(np.uint64))
            assert np.array_equal(e.view(np.uint64), old_e.view(np.uint64))


def dense_completeness(basis, tol=DEFAULT_TOL):
    """`verify_completeness` as it was: the whole resolution V^T·conj(V) tested at once."""
    vecs = np.asarray(basis.members).reshape(basis.size, -1)
    _, deviation = is_scaled_identity(vecs.T @ vecs.conj(), 1.0, tol)
    return deviation <= tol.abs_eps, deviation


def _generated(n, kind, rng):
    """The standard basis, or the basis of a Haar seed U / 2^(n/2)."""
    if kind == "standard":
        return standard_basis(n)
    return generate_from_seed(state_from_matrix(haar_random_unitary(2**n, rng) / 2 ** (n / 2), n))


def _family(n, kind, rng):
    if kind in ("standard", "haar"):
        return _generated(n, kind, rng)
    if kind == "dense":  # a Haar basis, members shuffled and rephased, read member by member
        stack = np.asarray(_generated(n, "haar", rng).members)
        phases = np.exp(2j * np.pi * rng.random(4**n))[:, None, None]
        return bell_basis_from_members(phases * stack[rng.permutation(4**n)])
    # an incomplete family: Gaussian members, or a Haar basis with one member repeated
    if kind == "gaussian":
        shape = (4**n, 2**n, 2**n)
        stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2**n
    else:
        stack = np.asarray(_generated(n, "haar", rng).members)
        copy, lost = rng.choice(4**n, 2, replace=False)
        stack[lost] = stack[copy]
    return BellBasis(n, stack)


def _block_completeness(basis, width, tol=DEFAULT_TOL):
    """`verify_completeness` with `width` columns per block (None: the default)."""
    with pytest.MonkeyPatch.context() as mp:
        if width is not None:
            mp.setattr(qtel.bell, "COMPLETENESS_BLOCK_COLUMNS", width)
        return verify_completeness(basis, tol)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), kind=st.sampled_from(["standard", "haar", "dense", "gaussian",
                                                  "repeated"]),
       width=st.sampled_from([None, 4, 16]), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([DEFAULT_TOL, Tolerance(1e-15), Tolerance(0.5)]))
def test_block_completeness_equals_dense_resolution(n, kind, width, seed, tol):
    if kind == "dense" and n > 3:
        n = 3  # bell_basis_from_members checks each of the 256 members at n = 4 one by one
    basis = _family(n, kind, np.random.default_rng(seed))
    assert _block_completeness(basis, width, tol) == dense_completeness(basis, tol)


@pytest.mark.parametrize("kind", ["standard", "haar", "gaussian"])
def test_block_completeness_equals_dense_resolution_n5(kind):
    basis = _family(5, kind, np.random.default_rng(5))
    expected = dense_completeness(basis)
    assert expected[0] == (kind != "gaussian")
    for width in (None, 4, 16):
        assert _block_completeness(basis, width) == expected, width


def test_completeness_peak_below_one_and_a_half_member_matrices():
    basis = standard_basis(5)
    verify_completeness(basis)  # fills the action-index cache
    tracemalloc.start()
    try:
        verify_completeness(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * 16**5  # the (4^5, 4^5) complex member matrix is 16 MiB


class _Unbuildable(Sequence):
    """4^n members that fail the test if their stack is ever built."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return 4**self.n

    def __getitem__(self, alpha):
        raise AssertionError("a member was built")

    def __array__(self, dtype=None, copy=None):
        raise AssertionError("the member matrix was built")


def test_completeness_limit_refuses_n7_before_building_members():
    with pytest.raises(ResourceLimitError, match="n=7 needs a 4096 MiB member matrix"):
        verify_completeness(BellBasis(7, _Unbuildable(7)))
    with pytest.raises(AssertionError, match="member matrix was built"):  # n = 6 is allowed
        verify_completeness(BellBasis(6, _Unbuildable(6)))


def test_completeness_limit_is_the_module_constant(monkeypatch):
    basis = standard_basis(2)
    monkeypatch.setattr(qtel.errors, "BYTE_BUDGET", 16 * 16**2)
    assert verify_completeness(basis) == (True, 0.0)
    monkeypatch.setattr(qtel.errors, "BYTE_BUDGET", 16 * 16**2 - 1)
    with pytest.raises(ResourceLimitError, match="n=2"):
        verify_completeness(basis)


def test_bell_gen_over_the_limit_exits_2_with_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(qtel.errors, "BYTE_BUDGET", 16 * 16**2 - 1)
    assert main(["--format", "json", "bell", "gen", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: checking completeness at n=2") and err.count("\n") == 1


# --- the (perm, phase) form of the Pauli action, as it was ------------------------


def phase_tables(n):
    """`pauli.action_tables` as it was: (P_α v)[r] = phase[α, r] · v[perm[α, r]]."""
    x, z = pauli._split(np.arange(4**n), n)
    perm = x[:, None] ^ np.arange(2**n)[None, :]
    powers = 2 * pauli._bit_count(z[:, None] & perm, n) + pauli._bit_count(x & z, n)[:, None]
    return perm, np.array([1, 1j, -1, -1j])[powers % 4]


def phase_outcome_amplitudes(info, e, basis):
    """`teleport._outcome_amplitudes` of a generated basis, as it was."""
    perm, phase = phase_tables(basis.n)
    return (phase * info[:, perm]) @ teleport._seed_operator(e, basis).swapaxes(-1, -2)


def phase_corrected_states(bob, e, basis, tol):
    """`teleport._corrected_states` of a generated basis, with the (perm, phase) tables."""
    k = teleport._seed_operator(e, basis)
    scaled = teleport._unitary_scale(k, tol) > 0.0
    if not scaled.any():
        return bob
    perm, phase = phase_tables(basis.n)
    kdag_b = bob @ k.conj()
    corrected = np.take_along_axis(kdag_b, perm[None], axis=-1)
    corrected *= phase
    teleport._normalize_rows(corrected)
    np.copyto(corrected, bob, where=~scaled[:, None, None])
    return corrected


def with_phase_tables(fn, *args):
    """``fn(*args)`` with the engine's two Pauli-action stages as they were."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(teleport, "_outcome_amplitudes", phase_outcome_amplitudes)
        mp.setattr(teleport, "_corrected_states", phase_corrected_states)
        return fn(*args)


def phase_members(seed, alphas):
    """`PauliMembers(seed)` read at `alphas` as it was, its rows found by decoding each phase."""
    d = seed.shape[0]
    perm, phase = phase_tables(d.bit_length() - 1)
    perm, phase = perm[alphas], phase[alphas]
    table = (np.array([1, 1j, -1, -1j])[:, None, None] * seed + 0.0).reshape(-1, d)
    k = np.where(phase.imag == 0, 1 - phase.real, 2 - phase.imag).astype(np.intp)
    return table[k * d + perm]


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.dtype == bool:
        return b.dtype == bool and np.array_equal(a, b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _channel_matrix(n, kind, rng):
    d = 2**n
    if kind == "perfect":
        return haar_random_unitary(d, rng) / np.sqrt(d)
    if kind == "imperfect":
        return random_state(2 * n, rng).amplitudes.reshape(d, d)
    # degenerate: a product state, whose rank-one matrix leaves most outcomes at zero
    return np.outer(random_state(n, rng).amplitudes, random_state(n, rng).amplitudes)


def assert_index_form_equals_phase_form(n, seed_kind, channel_kind, rng):
    basis = _generated(n, seed_kind, rng)
    e = _channel_matrix(n, channel_kind, rng)
    ch = channel_from_state(state_from_matrix(e, n), n)
    info = random_state(n, rng)
    new = run_protocol(info, ch, basis).records
    old = with_phase_tables(run_protocol, info, ch, basis).records
    for column in ("probs", "zero", "bob", "corrected", "fidelities"):
        assert _same_bits(getattr(new, column), getattr(old, column)), column
    if n <= 6:  # a block of runs, as verify_partial_basis hands them over, of every kind
        infos = np.stack([random_state(n, rng).amplitudes for _ in range(3)])
        es = np.stack([e, *(_channel_matrix(n, kind, rng) for kind in ("perfect", "degenerate"))])
        assert _same_bits(min_fidelities(infos, es, basis),
                          with_phase_tables(min_fidelities, infos, es, basis))
    for alpha in rng.integers(4**n, size=3).tolist():
        assert _same_bits(basis.members[alpha], phase_members(basis.seed, alpha))
    if n <= 5:  # the (4^n, 2^n, 2^n) stack is 256 MiB at n = 6
        old_members = phase_members(basis.seed, slice(None))
        assert _same_bits(np.asarray(basis.members), old_members)
    if n <= 3:
        assert basis_to_list(basis.members) == dumps([matrix_to_dict(m) for m in old_members])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed_kind=st.sampled_from(["standard", "haar"]),
       channel_kind=st.sampled_from(["perfect", "imperfect", "degenerate"]),
       seed=st.integers(0, 2**32 - 1))
def test_index_form_equals_phase_form(n, seed_kind, channel_kind, seed):
    assert_index_form_equals_phase_form(n, seed_kind, channel_kind, np.random.default_rng(seed))


def test_index_form_equals_phase_form_n7():
    assert_index_form_equals_phase_form(7, "haar", "perfect", np.random.default_rng(7))


# --- run_protocol as it was: only the nonzero outcomes corrected -----------------


def useful_corrected_states(bob, alphas, e, basis, tol):
    """`teleport._corrected_states` as it was: `bob` holds the rows of the outcomes `alphas`."""
    if basis.seed is not None:
        k = teleport._seed_operator(e, basis)
        scaled = teleport._unitary_scale(k, tol) > 0.0
        if not scaled.any():
            return bob
        index = pauli.action_index(basis.n)[alphas]
        corrected = np.take_along_axis(bob @ k.conj(), index[None] & (2**basis.n - 1), axis=-1)
        corrected *= pauli.POWERS_OF_I[index >> basis.n]
        corrected /= np.linalg.norm(corrected, axis=-1, keepdims=True)
        np.copyto(corrected, bob, where=~scaled[:, None, None])
        return corrected
    members = np.asarray(basis.members, dtype=np.complex128)[alphas]
    ops = np.einsum("tij,akj->taik", e.swapaxes(-1, -2), members.conj())
    scaled = teleport._unitary_scale(ops, tol) > 0.0
    corrected = np.where(scaled[..., None], np.einsum("taji,taj->tai", ops.conj(), bob), bob)
    return corrected / np.linalg.norm(corrected, axis=-1, keepdims=True)


def useful_run_protocol(info, ch, basis, tol=DEFAULT_TOL):
    """The columns of `run_protocol` as it was, and the α of the nonzero outcomes.

    Its `corrected` (U, 2^n) and `fidelities` (U,) hold only the U nonzero outcomes.
    """
    probs, zero, bob = teleport._bob_states(info.amplitudes[None], ch.e_matrix[None], basis)
    useful = np.flatnonzero(~zero[0])
    corrected = useful_corrected_states(bob[:, useful], useful, ch.e_matrix[None], basis, tol)
    fidelities = teleport._fidelities(corrected, info.amplitudes[None])
    return probs[0], zero[0], bob[0], useful, corrected[0], fidelities[0]


def _zero_outcome_channel(n, kind, basis, rng):
    """`_channel_matrix`, or a channel that leaves outcomes at zero probability.

    "ghz" is the GHZ corner matrix (rank 2).  "aligned" is E = (|a><a| B^(0))^T
    normalized, so that O^(α) is proportional to |a><a| P_α: on a basis state,
    every outcome whose P_α moves it off |a> is flagged zero, whatever the seed.
    """
    if kind == "ghz":
        e = np.zeros((2**n, 2**n), dtype=complex)
        e[0, 0] = e[-1, -1] = 2**-0.5
        return e
    if kind == "aligned":
        a = np.eye(2**n)[rng.integers(2**n)]
        e = (np.outer(a, a) @ basis.members[0]).T
        return e / np.linalg.norm(e)
    return _channel_matrix(n, kind, rng)


def _basis(n, kind, rng):
    """A generated basis, "standard" or "haar", or with "-dense" stored member by member."""
    seed_kind, _, storage = kind.partition("-")
    basis = _generated(n, seed_kind, rng)
    return BellBasis(n, np.asarray(basis.members)) if storage else basis


def assert_all_rows_equal_useful_rows(n, basis_kind, channel_kind, info_kind, rng):
    basis = _basis(n, basis_kind, rng)
    e = _zero_outcome_channel(n, channel_kind, basis, rng)
    ch = channel_from_state(state_from_matrix(e, n), n)
    info = (random_state(n, rng) if info_kind == "haar"
            else StateVector(n, np.eye(2**n)[rng.integers(2**n)]))
    new = run_protocol(info, ch, basis).records
    probs, zero, bob, useful, corrected, fidelities = useful_run_protocol(info, ch, basis)
    assert _same_bits(new.probs, probs) and _same_bits(new.zero, zero)
    assert _same_bits(new.bob, bob)
    assert new.corrected.shape == new.bob.shape and new.fidelities.shape == new.probs.shape
    assert _same_bits(new.corrected[useful], corrected)
    assert _same_bits(new.fidelities[useful], fidelities)
    assert np.isfinite(new.corrected).all() and np.isfinite(new.fidelities).all()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), basis_kind=st.sampled_from(["standard", "haar", "standard-dense",
                                                                "haar-dense"]),
       channel_kind=st.sampled_from(["perfect", "imperfect", "degenerate", "ghz", "aligned"]),
       info_kind=st.sampled_from(["haar", "basis"]), seed=st.integers(0, 2**32 - 1))
def test_every_row_corrected_equals_nonzero_rows_corrected(n, basis_kind, channel_kind,
                                                            info_kind, seed):
    if basis_kind.endswith("dense"):
        n = min(n, 4)  # the dense path holds a (4^n, 2^n, 2^n) stack of operators
    assert_all_rows_equal_useful_rows(n, basis_kind, channel_kind, info_kind,
                                      np.random.default_rng(seed))


def test_every_row_corrected_equals_nonzero_rows_corrected_n7():
    assert_all_rows_equal_useful_rows(7, "haar", "ghz", "basis", np.random.default_rng(77))


@pytest.mark.parametrize("basis_kind", ["standard", "haar", "standard-dense", "haar-dense"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_min_fidelities_is_least_nonzero_fidelity_of_run_protocol(n, basis_kind):
    rng = np.random.default_rng(100 * n + len(basis_kind))
    basis = _basis(n, basis_kind, rng)
    # the first two runs have zero outcomes; the others share the block with them
    kinds = ("aligned", "aligned", "perfect", "ghz", "imperfect", "degenerate")
    es = np.stack([_zero_outcome_channel(n, kind, basis, rng) for kind in kinds])
    infos = np.eye(2**n, dtype=complex)[rng.integers(2**n, size=len(kinds))]
    got = min_fidelities(infos, es, basis)
    for t, (info, e) in enumerate(zip(infos, es)):
        outcomes = run_protocol(StateVector(n, info), channel_from_state(
            state_from_matrix(e, n), n), basis).records
        assert outcomes.zero.any() or t >= 2, t
        want = np.min(outcomes.fidelities[~outcomes.zero], initial=np.inf)
        assert _same_bits(got[t], want), t
