"""The bitmask, array, trial-loop, block and index paths of `qtel.magic`,
`qtel.pauli`, `qtel.bell` and `qtel.teleport` against test-local copies of
the code they replaced.

Clique lists and product tables must be equal; the figures of
`verify_partial_basis` must be equal bit for bit (``uint64`` views),
including every array its trial loop hands to `teleport.min_fidelities`;
the verdict and deviation of `verify_completeness` must equal those of the
one dense (4^n, 4^n) resolution, and each block of columns that it reads,
whole rows of every member, those columns of the member matrix bit for bit.
The rows of the Pauli action that `pauli.action_rows` forms from two small
factors must be the integers of the whole table they replaced, and the action
read through them must give the columns of `run_protocol`, the values of
`min_fidelities`, the member stack and the `basis_to_list` text bit for bit
as the (perm, phase) tables it replaced gave them.  `run_protocol`, which
corrects every outcome, must give the columns of the engine that corrected
only the nonzero ones on those rows, and `min_fidelities` the least
nonzero-outcome fidelity of `run_protocol`, bit for bit.  `linalg._row_norms`
must give each row's `np.linalg.norm` bit for bit.  The trial draws of
`verify_partial_basis` (two generator calls per trial) must give what the
three-call loop gave, the lowest-vertex clique pivot the cliques of Tomita's
pivot and of the definition, and the engine that forms K = E^T B^(0)† once
per batch the columns of the one whose two stages each formed it.
`composite_expand` must give the three columns of `run_protocol` bit for bit,
and the protocol pass in blocks of outcomes (`teleport._outcomes`) the five
columns, the records and `min_fidelities` of the whole-array pass it replaced.
A run keeps only the probabilities, the zero flags and the fidelities, so
Bob's and the corrected states are read from the blocks `teleport._outcomes`
forms for that run.
The members that `partial_basis_from_set` and `n2_catalog` take from one
`pauli.matrices_of` stack must be those of one `matrix_of` per string, bit
for bit.  A dense copy of a generated basis must give the generated basis's
completeness deviation and `basis_to_list` text bit for bit, and every reader
of a basis, of either kind, must read its members only through
`bell.Members.rows`, never as a whole stack.
"""

import collections
import itertools
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtel.bell
import qtel.errors
import qtel.linalg
import qtel.magic
from qtel import pauli, teleport
from qtel.bell import (BellBasis, Members, bell_basis_from_members, generate_from_seed,
                       standard_basis, verify_completeness)
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
from qtel.pauli import PauliString, commutes, pauli_from_quaternary, product, product_table
from qtel.serialize import basis_to_list, dumps
from qtel.teleport import min_fidelities, run_protocol
from test_serialize import matrix_to_dict, mismatch


def set_based_cliques(n) -> CliqueReport:
    """Bron-Kerbosch with pivoting on Python sets, as `maximal_anticommuting_sets` was."""
    g = build_anticomm_graph(n)
    adj = [set(np.flatnonzero(g[v])) for v in range(len(g))]
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

    expand(set(), set(range(len(g))), set())
    named = sorted(tuple(v + 1 for v in c) for c in cliques)  # vertex v is the label v + 1
    return CliqueReport(n, tuple(named), max(len(c) for c in named))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bitmask_cliques_equal_set_based(n):
    assert maximal_anticommuting_sets(build_anticomm_graph(n)) == set_based_cliques(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_table_is_product_and_commutes(n):
    index, power, anticommutes = product_table(n)
    assert index.shape == power.shape == anticommutes.shape == (4**n, 4**n)
    family = [pauli_from_quaternary(a, n) for a in range(4**n)]
    for (a, p), (b, q) in itertools.product(enumerate(family), repeat=2):
        r = product(p, q)
        assert (index[a, b], power[a, b]) == (r.quaternary_index, r.phase_power)
        assert anticommutes[a, b] == (not commutes(p, q))


_KRON_FACTORS = (np.eye(2, dtype=complex), np.diag([1, -1]).astype(complex),
                 np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]))


def kron_chain(p) -> np.ndarray:
    """The factor product of `pauli.matrix_of` as it was: one ``np.kron`` per qubit."""
    m = np.array([[1.0 + 0j]])
    for d in p.digits():
        m = np.kron(m, _KRON_FACTORS[d])
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_pauli_matrices_equal_kron_chain_bit_for_bit(n):
    family = [pauli_from_quaternary(a, n) for a in range(4**n)]
    assert _same_bits(pauli.matrices_of(np.arange(4**n), n),
                      np.array([kron_chain(p) for p in family]))
    for phase in range(4):
        for p in family:
            p = PauliString(n, p.quaternary_index, phase)
            assert _same_bits(pauli.matrix_of(p), (1j**phase) * kron_chain(p))


def per_string_members(paulis) -> list[StateVector]:
    """The members of `partial_basis_from_set` as it built them: one `matrix_of` per string."""
    ordered = sorted(paulis, key=lambda p: p.quaternary_index)
    n = ordered[0].n_qubits
    scale = 2.0 ** (-n / 2)
    members = [state_from_matrix(scale * np.eye(2**n), n)]
    return members + [state_from_matrix(scale * 1j * pauli.matrix_of(p), n) for p in ordered]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_partial_basis_equals_per_string_build_bit_for_bit(n):
    for clique in maximal_anticommuting_sets(build_anticomm_graph(n)).maximal_cliques:
        paulis = [pauli_from_quaternary(a, n) for a in clique]
        members = partial_basis_from_set(paulis).members
        expected = per_string_members(paulis)
        assert len(members) == len(expected)
        assert all(_same_bits(m.amplitudes, e.amplitudes) for m, e in zip(members, expected))


def test_stacked_catalog_states_equal_per_name_build_bit_for_bit():
    states = qtel.magic.n2_catalog().states
    assert list(states) == list(qtel.magic.N2_NAMES)
    for name, digits in qtel.magic.N2_NAMES.items():
        expected = state_from_matrix(0.5 * pauli.matrix_of(pauli.pauli_from_digits(digits)), 2)
        assert _same_bits(states[name].amplitudes, expected.amplitudes)


def _old_random_amplitudes(n: int, rng) -> np.ndarray:
    """`linalg.random_state(n, rng).amplitudes` as it was: a StateVector per draw."""
    dim = 2**n
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n, v / np.linalg.norm(v)).amplitudes


def per_object_draws(rng, size, k, n):
    """A block's coefficients and information states as first drawn: objects per trial."""
    coeffs = np.empty((size, k), dtype=np.complex128)
    infos = np.empty((size, 2**n), dtype=np.complex128)
    for t in range(size):
        mags = np.abs(rng.standard_normal(k))
        mags /= np.linalg.norm(mags)
        coeffs[t] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * mags
        infos[t] = _old_random_amplitudes(n, rng)
    return coeffs, infos


def three_call_draws(rng, size, k, n):
    """A block's draws as they were next: three generator calls per trial, into arrays."""
    mags = np.empty((size, k))
    turns = np.empty(size)
    parts = np.empty((size, 2, 2**n))
    for t in range(size):
        rng.standard_normal(out=mags[t])
        turns[t] = rng.uniform(0, 2 * np.pi)
        rng.standard_normal(out=parts[t])
    mags = np.abs(mags)
    coeffs = np.exp(1j * turns)[:, None] * (mags / qtel.linalg._row_norms(mags)[:, None])
    infos = parts[:, 0] + 1j * parts[:, 1]
    infos /= qtel.linalg._row_norms(infos)[:, None]
    return coeffs, infos


def per_object_verify(basis, trials, seed, fidelities, tol=DEFAULT_TOL, draws=per_object_draws,
                      generators=None):
    """The trial loop of `verify_partial_basis` as it was, with `fidelities` for min_fidelities
    and `draws` for each block's draws; its generator is appended to `generators`."""
    rng = np.random.default_rng(seed)
    if generators is not None:
        generators.append(rng)
    n = basis.n
    matrices = [m.amplitudes.reshape(2**n, 2**n) for m in basis.members]
    measurement = standard_basis(n)
    worst_dev = 0.0
    min_fid = 1.0
    failures = 0
    for start in range(0, trials, 128):
        size = min(128, trials - start)
        coeffs, infos = draws(rng, size, len(matrices), n)
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


@pytest.mark.parametrize("trials", [1, 127, 128, 129, 300])
def test_verify_draws_equal_three_call_loop_bit_for_bit(monkeypatch, trials):
    real_default_rng = np.random.default_rng
    generators = []

    def recording_default_rng(seed):
        generators.append(real_default_rng(seed))
        return generators[-1]

    for seed, (n, clique) in enumerate(_SETS):
        basis = partial_basis_from_set(pauli_from_quaternary(a, n) for a in clique)
        new_calls, old_calls, old_generators = [], [], []
        monkeypatch.setattr(qtel.magic, "min_fidelities", _recorder(new_calls))
        with monkeypatch.context() as mp:
            mp.setattr(np.random, "default_rng", recording_default_rng)
            v = verify_partial_basis(basis, trials, seed)
        old = per_object_verify(basis, trials, seed, _recorder(old_calls), draws=three_call_draws,
                                generators=old_generators)
        assert (v.trials, v.failures, v.passed) == (old[0], old[3], old[4])
        assert _bits([v.max_condition_deviation, v.min_fidelity]).tolist() == \
            _bits([old[1], old[2]]).tolist()
        assert len(new_calls) == len(old_calls) == -(-trials // 128)
        for (info, e), (old_info, old_e) in zip(new_calls, old_calls):
            assert np.array_equal(info.view(np.uint64), old_info.view(np.uint64))
            assert np.array_equal(e.view(np.uint64), old_e.view(np.uint64))
        # both drew the same number of values: their generators end in one state
        assert generators[-1].bit_generator.state == old_generators[0].bit_generator.state


def test_the_draw_identities_verify_rests_on():
    # a phase is uniform(0, 2π) = 0 + 2π·random(), and one standard_normal call over a
    # trial's parts and the next trial's magnitudes draws what two calls would
    one, other = np.random.default_rng(21), np.random.default_rng(21)
    for split in range(1, 40):
        phase = one.uniform(0, 2 * np.pi)
        assert _bits(phase) == _bits(2 * np.pi * np.array([other.random()]))
        apart, joined = np.empty(split + 7), np.empty(split + 7)
        one.standard_normal(out=apart[:split])
        one.standard_normal(out=apart[split:])
        other.standard_normal(out=joined)
        assert np.array_equal(apart.view(np.uint64), joined.view(np.uint64))


def tomita_cliques(n) -> CliqueReport:
    """`maximal_anticommuting_sets` as it was: the pivot maximizes |P ∩ N(u)| over P ∪ X."""
    g = build_anticomm_graph(n)
    adj = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
           for row in g]
    cliques: list[tuple[int, ...]] = []

    def expand(r: tuple[int, ...], p: int, x: int):
        if not p:
            if not x:
                cliques.append(tuple(sorted(r)))
            return
        score, rest = -1, p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if (degree := (p & adj[u]).bit_count()) > score:
                score, pivot = degree, u
            rest ^= low
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
    return CliqueReport(n, tuple(cliques), max(len(c) for c in cliques))


def brute_force_cliques(n) -> CliqueReport:
    """The maximal cliques by definition: every pairwise-anticommuting vertex set to which
    no further vertex is adjacent throughout, found among all sets of each size."""
    adj = build_anticomm_graph(n)
    vertices = range(len(adj))
    cliques = []
    for size in itertools.count(1):
        found = [c for c in itertools.combinations(vertices, size)
                 if all(adj[u, v] for u, v in itertools.combinations(c, 2))]
        if not found:
            break
        cliques += [c for c in found
                    if not any(all(adj[w, u] for u in c) for w in vertices if w not in c)]
    named = sorted(tuple(v + 1 for v in c) for c in cliques)
    return CliqueReport(n, tuple(named), max(len(c) for c in named))


@pytest.mark.parametrize("n", [1, 2])
def test_cliques_equal_the_definition(n):
    assert maximal_anticommuting_sets(build_anticomm_graph(n)) == brute_force_cliques(n)


def test_lowest_vertex_pivot_cliques_equal_tomita_pivot_n3():
    report = maximal_anticommuting_sets(build_anticomm_graph(3))
    assert report == tomita_cliques(3)
    assert (len(report.maximal_cliques), report.max_size) == (2640, 7)


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
    return BellBasis(n, Members(stack.reshape(-1, 2**n)))


def _set_cpus(mp, cpus):
    """Let the process see `cpus` CPUs, as `verify_completeness` reads them."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _block_completeness(basis, width, tol=DEFAULT_TOL, cpus=1):
    """`verify_completeness` with `width` columns per block (None: the default) and `cpus` CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        if width is not None:
            mp.setattr(qtel.bell, "COMPLETENESS_BLOCK_COLUMNS", width)
        _set_cpus(mp, cpus)
        return verify_completeness(basis, tol)


# the block widths the tests set (None: the default, 64); a block is whole member rows, so
# each width is used only where it is at least 2^n
WIDTHS = (None, 4, 16, 256)


def _widths(n):
    return [w for w in WIDTHS if w is None or w >= 2**n]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), kind=st.sampled_from(["standard", "haar", "dense", "gaussian",
                                                  "repeated"]),
       data=st.data(), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([DEFAULT_TOL, Tolerance(1e-15), Tolerance(0.5)]),
       cpus=st.sampled_from([1, 2, 4]))
def test_block_completeness_equals_dense_resolution(n, kind, data, seed, tol, cpus):
    if kind == "dense" and n > 3:
        n = 3  # bell_basis_from_members checks each of the 256 members at n = 4 one by one
    width = data.draw(st.sampled_from(_widths(n)), label="width")
    basis = _family(n, kind, np.random.default_rng(seed))
    assert _block_completeness(basis, width, tol, cpus) == dense_completeness(basis, tol)


@pytest.mark.parametrize("kind", ["standard", "haar", "gaussian"])
def test_block_completeness_equals_dense_resolution_n5(kind):
    basis = _family(5, kind, np.random.default_rng(5))
    expected = dense_completeness(basis)
    assert expected[0] == (kind != "gaussian")
    for width, cpus in itertools.product(_widths(5), (1, 2, 4)):
        assert _block_completeness(basis, width, cpus=cpus) == expected, (width, cpus)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", ["standard", "haar", "dense"])
def test_column_blocks_are_the_columns_of_the_member_matrix_bit_for_bit(n, kind):
    basis = _generated(n, "standard" if kind == "standard" else "haar", np.random.default_rng(n))
    if kind == "dense":
        basis = bell_basis_from_members(np.asarray(basis.members))
    vecs = np.asarray(basis.members).reshape(4**n, -1)
    for width in _widths(n):
        width = min(4**n, width or qtel.bell.COMPLETENESS_BLOCK_COLUMNS)
        columns = qtel.bell._column_blocks(basis, width)
        out = np.empty(4**n * width, np.complex128)
        for block in range(4**n // width):
            got = columns(block, out)
            assert _same_bits(got, vecs[:, block * width:(block + 1) * width]), (width, block)


@pytest.mark.parametrize("cpus", [1, 2, 4, 64])
def test_completeness_peak_below_one_and_a_half_member_matrices(monkeypatch, cpus):
    _set_cpus(monkeypatch, cpus)
    basis = standard_basis(5)
    verify_completeness(basis)  # fills the factor cache
    tracemalloc.start()
    try:
        verify_completeness(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (4^5, 4^5) complex member matrix, 16 MiB, is never built; each of the two workers
    # at n = 5 holds two (4^5 + 64, 64) complex buffers, 1.06 MiB each
    assert peak <= 0.3 * 16 * 16**5


def test_block_failure_in_a_worker_thread_reaches_the_caller(monkeypatch, capsys):
    _set_cpus(monkeypatch, 2)
    run_blocks = qtel.bell._run_blocks
    failed = threading.Event()
    threads = threading.active_count()

    def injected(fill, blocks, entries):
        def failing(block, conj, product):
            if threading.current_thread() is threading.main_thread():
                assert failed.wait(10), "no block ran on a worker thread"
                return fill(block, conj, product)
            failed.set()
            raise RuntimeError("block failed")

        return run_blocks(failing, blocks, entries)

    monkeypatch.setattr(qtel.bell, "_run_blocks", injected)
    with pytest.raises(RuntimeError, match="block failed"):
        verify_completeness(standard_basis(5))
    assert threading.active_count() == threads
    assert capsys.readouterr() == ("", "")


def test_block_failure_drops_the_blocks_not_yet_started(monkeypatch):
    _set_cpus(monkeypatch, 2)
    run_blocks = qtel.bell._run_blocks
    ran = []

    def counted(fill, blocks, entries):
        def failing(block, conj, product):
            ran.append(block)
            if block == 0:
                raise RuntimeError("block failed")
            time.sleep(0.05)  # the other blocks outlast the caller's reaction to the failure
            return fill(block, conj, product)

        return run_blocks(failing, blocks, entries)

    monkeypatch.setattr(qtel.bell, "_run_blocks", counted)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        verify_completeness(standard_basis(5))
    assert 0 in ran and len(ran) < 16  # n = 5 has 16 blocks
    assert threading.active_count() == threads


def test_no_two_running_blocks_share_a_buffer(monkeypatch):
    _set_cpus(monkeypatch, 8)  # 64 blocks: eight workers, more than the cores of most hosts
    pairs = collections.defaultdict(set)  # the buffer pairs each thread filled
    arrived, two = set(), threading.Event()

    def fill(block, conj, product):
        arrived.add(threading.get_ident())
        if len(arrived) > 1:
            two.set()
        two.wait(5)  # else, on a loaded host, the first thread to start can take every block
        pairs[threading.get_ident()].add((id(conj), id(product)))
        conj[:], product[:] = block, -block
        for _ in range(20):  # switch points, at which a block sharing the buffers would write
            assert (conj == block).all() and (product == -block).all()
            conj[:], product[:] = block, -block
        return float(block)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert qtel.bell._run_blocks(fill, 64, 16) == [float(block) for block in range(64)]
    finally:
        sys.setswitchinterval(interval)
    assert len(pairs) > 1  # more than one thread ran
    assert all(len(used) == 1 for used in pairs.values())  # and each kept one pair
    assert len(set().union(*pairs.values())) == len(pairs)  # of its own


def test_completeness_of_one_block_starts_no_thread(monkeypatch):
    _set_cpus(monkeypatch, 64)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    for n in (1, 2, 3):
        assert verify_completeness(standard_basis(n))[0]
    assert started == []
    assert verify_completeness(standard_basis(5))[0]
    assert len(started) == 1  # two workers at n = 5: the caller and one started thread


@pytest.mark.parametrize(("n", "width"), [(1, None), (2, 4), (3, None), (3, 16), (4, 16)])
@pytest.mark.parametrize("entry", [(0, 0, 0), (-1, -1, -1)], ids=["first_column", "last_column"])
def test_completeness_with_a_nan_entry_is_false(n, width, entry):
    members = np.asarray(standard_basis(n).members).copy()
    members[entry] = np.nan
    complete, deviation = _block_completeness(BellBasis(n, Members(members.reshape(-1, 2**n))),
                                              width, cpus=2)
    assert not complete and np.isnan(deviation)


def test_completeness_of_fewer_than_sixteen_blocks_reads_no_cpu_set(monkeypatch):
    def unread(pid):
        raise AssertionError("the CPU set was read")

    monkeypatch.setattr(os, "sched_getaffinity", unread, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: unread(0))
    for n in (1, 2, 3, 4):  # 1, 1, 1 and 4 blocks of 64 columns
        assert verify_completeness(standard_basis(n))[0]


def test_completeness_runs_on_the_caller_when_no_thread_starts(monkeypatch):
    _set_cpus(monkeypatch, 4)
    basis = _family(5, "haar", np.random.default_rng(5))

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert verify_completeness(basis) == dense_completeness(basis)


class _Unbuildable:
    """The `Members` of 4^n members that fail the test if a row of them is ever read."""

    def __init__(self, n):
        self.n = n

    def rows(self, start, stop):
        raise AssertionError("a member row was read")

    @property
    def table(self):
        raise AssertionError("a member row was read")


def test_completeness_limit_refuses_n7_before_building_members():
    with pytest.raises(ResourceLimitError, match="n=7 needs a 4096 MiB member matrix"):
        verify_completeness(BellBasis(7, _Unbuildable(7)))
    with pytest.raises(AssertionError, match="member row was read"):  # n = 6 is allowed
        verify_completeness(BellBasis(6, _Unbuildable(6)))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", ["standard", "haar"])
def test_dense_copy_of_a_generated_basis_keeps_its_deviation_and_text(n, kind):
    basis = _generated(n, kind, np.random.default_rng(n))
    dense = bell_basis_from_members(list(np.asarray(basis.members)))
    assert basis.seed is not None and dense.seed is None
    assert _same_bits(np.array([verify_completeness(dense)[1]]),
                      np.array([verify_completeness(basis)[1]]))
    text = "".join(basis_to_list(basis.members))
    assert mismatch("".join(basis_to_list(dense.members)), text) is None


@pytest.mark.parametrize("n", [1, 3])
def test_every_reader_reads_a_basis_through_its_rows(monkeypatch, n):
    rng = np.random.default_rng(n)
    generated = _generated(n, "haar", rng)
    dense = bell_basis_from_members(np.asarray(generated.members))
    infos = np.stack([random_state(n, rng).amplitudes for _ in range(2)])
    es = np.stack([_channel_matrix(n, kind, rng) for kind in ("perfect", "imperfect")])
    ch = channel_from_state(state_from_matrix(es[0], n), n)

    def unread(self, dtype=None, copy=None):
        raise AssertionError("a member stack was built")

    monkeypatch.setattr(Members, "__array__", unread)
    with pytest.raises(AssertionError, match="member stack was built"):
        np.asarray(generated.members)
    for basis in (generated, dense):
        text = "".join(basis_to_list(basis.members))
        assert "".join(basis_to_list(bell_basis_from_members(basis.members).members)) == text
        assert verify_completeness(basis)[0]
        records = run_protocol(StateVector(n, infos[0]), ch, basis).records
        assert records.fidelities.min() == pytest.approx(1.0)
        assert min_fidelities(infos, es, basis).shape == (2,)


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


def whole_action_index(n):
    """`pauli.action_index` as it was for every n: the whole (4^n, 2^n) int64 table at once."""
    x, z = pauli._split(np.arange(4**n), n)
    perm = x[:, None] ^ np.arange(2**n)[None, :]
    powers = 2 * pauli._bit_count(z[:, None] & perm, n) + pauli._bit_count(x & z, n)[:, None]
    return (powers % 4) * 2**n + perm


@pytest.mark.parametrize("n", range(1, 8))
def test_factored_action_equals_the_whole_table(n):
    table = whole_action_index(n)
    for block, offset in itertools.product((64, 256, 1024), (0, 37, 200)):
        rows = [pauli.action_rows(n, start, start + block)
                for start in range(offset, 4**n, block)]
        assert all(r.dtype == np.int32 for r in rows)
        if offset < 4**n:
            assert np.array_equal(np.concatenate(rows), table[offset:]), (block, offset)
    for alpha in (0, 4**n - 1):
        assert np.array_equal(pauli.action_rows(n, alpha, alpha + 1), table[alpha:alpha + 1])


COLUMNS = ("probs", "zero", "bob", "corrected", "fidelities")  # of a `teleport._outcomes` block


def reference_probabilities(b):
    """Probabilities and zero flags of the amplitude rows b, normalized in place, as the
    engine has always formed them."""
    probs = np.real(np.einsum("...ai,...ai->...a", b.conj(), b))
    zero = probs < teleport.ZERO_PROBABILITY_EPS
    b /= np.sqrt(np.where(zero, 1.0, probs))[..., None]
    return probs, zero


def reference_fidelities(corrected, info):
    """|<I|row>|² for the rows (T, 4^n, 2^n) of T runs with information states (T, 2^n)."""
    return np.abs(corrected @ info.conj()[..., None])[..., 0] ** 2


def seed_operator(e, basis):
    """K = E^T B^(0)† of a generated basis, per run."""
    return e.swapaxes(-1, -2) @ qtel.linalg.dagger(basis.seed)


def phase_columns(info, e, basis, tol=DEFAULT_TOL):
    """The five outcome columns of T runs on a generated basis, with the (perm, phase) tables."""
    perm, phase = phase_tables(basis.n)
    k = seed_operator(e, basis)
    bob = (phase * info[:, perm]) @ k.swapaxes(-1, -2)
    probs, zero = reference_probabilities(bob)
    corrected = bob
    scaled = teleport._unitary_scale(k, tol) > 0.0
    if scaled.any():
        corrected = np.take_along_axis(bob @ k.conj(), perm[None], axis=-1)
        corrected *= phase
        teleport._normalize_rows(corrected)
        np.copyto(corrected, bob, where=~scaled[:, None, None])
    return probs, zero, bob, corrected, reference_fidelities(corrected, info)


def phase_members(seed, alphas):
    """The members of the basis of `seed` read at `alphas` as they were, the rows of their
    table found by decoding each phase."""
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


def concatenated_copies(v, axis):
    """`pauli.signed_copies` as it was: four scalar products joined along `axis`."""
    return np.concatenate([power * v for power in np.array([1, 1j, -1, -1j])], axis=axis)


@pytest.mark.parametrize(("shape", "axis"), [
    ((1, 2), -1), ((5, 8), -1), ((3, 64), -1), ((2, 2), 0), ((8, 8), 0), ((64, 64), 0)])
def test_signed_copies_equal_concatenated_products_bit_for_bit(shape, axis):
    rng = np.random.default_rng(shape[1])
    entries = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])  # signed zeros in either part
    v = np.empty(shape, dtype=complex)
    v.real, v.imag = rng.choice(entries, shape), rng.choice(entries, shape)
    assert _same_bits(pauli.signed_copies(v, axis), concatenated_copies(v, axis))
    if axis == 0:  # the tables of two seeds of that size, as generate_from_seed builds them
        for seed in (np.eye(shape[0]) / np.sqrt(shape[0]),
                     haar_random_unitary(shape[0], rng) / np.sqrt(shape[0])):
            assert _same_bits(pauli.signed_copies(seed, axis), concatenated_copies(seed, axis))


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
    old = phase_columns(info.amplitudes[None], e[None], basis)
    assert_run_equals_columns(new, info.amplitudes, e, basis, [column[0] for column in old])
    if n <= 6:  # a block of runs, as verify_partial_basis hands them over, of every kind
        infos = np.stack([random_state(n, rng).amplitudes for _ in range(3)])
        es = np.stack([e, *(_channel_matrix(n, kind, rng) for kind in ("perfect", "degenerate"))])
        _, zero, _, _, fidelities = phase_columns(infos, es, basis)
        assert _same_bits(min_fidelities(infos, es, basis),
                          np.min(np.where(zero, np.inf, fidelities), axis=-1))
    for alpha in rng.integers(4**n, size=3).tolist():
        assert _same_bits(basis.members[alpha], phase_members(basis.seed, alpha))
    if n <= 5:  # the (4^n, 2^n, 2^n) stack is 256 MiB at n = 6
        old_members = phase_members(basis.seed, slice(None))
        assert _same_bits(np.asarray(basis.members), old_members)
    if n <= 3:
        text = "".join(basis_to_list(basis.members))
        assert text == dumps([matrix_to_dict(m) for m in old_members])


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
        k = seed_operator(e, basis)
        scaled = teleport._unitary_scale(k, tol) > 0.0
        if not scaled.any():
            return bob
        index = whole_action_index(basis.n)[alphas]
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
    info, e = info.amplitudes[None], ch.e_matrix[None]
    bob = per_stage_outcome_amplitudes(info, e, basis)
    probs, zero = reference_probabilities(bob)
    useful = np.flatnonzero(~zero[0])
    corrected = useful_corrected_states(bob[:, useful], useful, e, basis, tol)
    fidelities = reference_fidelities(corrected, info)
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
    return bell_basis_from_members(np.asarray(basis.members)) if storage else basis


def assert_all_rows_equal_useful_rows(n, basis_kind, channel_kind, info_kind, rng):
    basis = _basis(n, basis_kind, rng)
    e = _zero_outcome_channel(n, channel_kind, basis, rng)
    ch = channel_from_state(state_from_matrix(e, n), n)
    info = (random_state(n, rng) if info_kind == "haar"
            else StateVector(n, np.eye(2**n)[rng.integers(2**n)]))
    new = run_protocol(info, ch, basis).records
    new_bob, new_corrected = run_states(info.amplitudes, ch.e_matrix, basis)
    probs, zero, bob, useful, corrected, fidelities = useful_run_protocol(info, ch, basis)
    assert _same_bits(new.probs, probs) and _same_bits(new.zero, zero)
    assert _same_bits(new_bob, bob)
    assert new_corrected.shape == new_bob.shape and new.fidelities.shape == new.probs.shape
    assert _same_bits(new_corrected[useful], corrected)
    assert _same_bits(new.fidelities[useful], fidelities)
    assert np.isfinite(new_corrected).all() and np.isfinite(new.fidelities).all()


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


def test_run_protocol_peak_below_four_outcome_arrays():
    n = 6
    basis = standard_basis(n)
    ch = channel_from_state(state_from_matrix(np.eye(2**n) / 2 ** (n / 2), n), n)
    info = random_state(n, np.random.default_rng(6))
    run_protocol(info, ch, basis)  # fills the factor cache
    tracemalloc.start()
    try:
        run_protocol(info, ch, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * 8**n  # a (4^6, 2^6) complex outcome array is 4 MiB


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


# --- the engine as it was: each stage forms its own K ------------------------------


def per_stage_outcome_amplitudes(info, e, basis):
    """`teleport._outcome_amplitudes` as it was: it forms K = E^T B^(0)† itself."""
    if basis.seed is not None:
        rows = pauli.signed_copies(info)[:, whole_action_index(basis.n)]
        return rows @ seed_operator(e, basis).swapaxes(-1, -2)
    members = np.asarray(basis.members, dtype=np.complex128)
    return np.einsum("akj,tk->taj", members.conj(), info) @ e


def per_stage_corrected_states(bob, e, basis, tol):
    """`teleport._corrected_states` as it was: it forms K again."""
    if basis.seed is not None:
        k = seed_operator(e, basis)
        scaled = teleport._unitary_scale(k, tol) > 0.0
        if not scaled.any():
            return bob
        index = whole_action_index(basis.n)
        corrected = np.take_along_axis(bob @ k.conj(), index[None] & (2**basis.n - 1), axis=-1)
        corrected *= pauli.POWERS_OF_I[index >> basis.n]
        teleport._normalize_rows(corrected)
        np.copyto(corrected, bob, where=~scaled[:, None, None])
        return corrected
    members = np.asarray(basis.members, dtype=np.complex128)
    ops = np.einsum("tij,akj->taik", e.swapaxes(-1, -2), members.conj())
    scaled = teleport._unitary_scale(ops, tol) > 0.0
    corrected = np.where(scaled[..., None], np.einsum("taji,taj->tai", ops.conj(), bob), bob)
    return teleport._normalize_rows(corrected)


def per_stage_columns(info, e, basis, tol=DEFAULT_TOL):
    """Probabilities, zero flags, Bob's, corrected states and fidelities of T runs, as the
    engine gave them when each stage formed its own K."""
    b = per_stage_outcome_amplitudes(info, e, basis)
    probs, zero = reference_probabilities(b)
    corrected = per_stage_corrected_states(b, e, basis, tol)
    return probs, zero, b, corrected, reference_fidelities(corrected, info)


@pytest.mark.parametrize("basis_kind", ["standard", "haar", "standard-dense", "haar-dense"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_k_per_batch_equals_one_k_per_stage_bit_for_bit(n, basis_kind):
    rng = np.random.default_rng(10 * n + len(basis_kind))
    basis = _basis(n, basis_kind, rng)
    kinds = ("perfect", "imperfect", "degenerate", "ghz", "aligned")
    es = np.stack([_zero_outcome_channel(n, kind, basis, rng) for kind in kinds])
    infos = np.stack([random_state(n, rng).amplitudes for _ in kinds])
    infos[-1] = np.eye(2**n)[rng.integers(2**n)]  # a basis state, which "aligned" leaves zero
    columns = per_stage_columns(infos, es, basis)
    probs, zero, _, _, fidelities = columns
    assert _same_bits(min_fidelities(infos, es, basis),
                      np.min(np.where(zero, np.inf, fidelities), axis=-1))
    for t, (info, e) in enumerate(zip(infos, es)):
        records = run_protocol(StateVector(n, info), channel_from_state(state_from_matrix(e, n), n),
                               basis).records
        alone = per_stage_columns(info[None], e[None], basis)
        assert_run_equals_columns(records, info, e, basis, [column[0] for column in alone])


@pytest.mark.parametrize("basis_kind", ["standard", "haar", "standard-dense", "haar-dense"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_composite_expand_gives_the_columns_of_run_protocol_bit_for_bit(n, basis_kind):
    rng = np.random.default_rng(20 * n + len(basis_kind))
    basis = _basis(n, basis_kind, rng)
    for kind in ("perfect", "imperfect", "degenerate", "ghz", "aligned"):
        ch = channel_from_state(state_from_matrix(_zero_outcome_channel(n, kind, basis, rng), n), n)
        info = (StateVector(n, np.eye(2**n)[rng.integers(2**n)]) if kind == "aligned"
                else random_state(n, rng))
        expanded = teleport.composite_expand(info, ch, basis)
        records = run_protocol(info, ch, basis, mode="sampled", seed=5, shots=10).records
        for name in ("probs", "zero", "fidelities"):  # the columns `OutcomeRecords` keeps
            assert _same_bits(getattr(expanded, name), getattr(records, name)), (kind, name)


# --- the protocol pass as it was: every outcome at once --------------------------


def whole_outcomes(info, e, basis, tol=DEFAULT_TOL):
    """`teleport._outcomes` as it was: the five columns of T runs as whole (T, 4^n, ...) arrays."""
    if basis.seed is not None:
        k = e.swapaxes(-1, -2) @ qtel.linalg.dagger(basis.seed)
        index = whole_action_index(basis.n)
        bob = pauli.signed_copies(info)[:, index] @ k.swapaxes(-1, -2)
        probs, zero = teleport._probabilities(bob)
        scaled = teleport._unitary_scale(k, tol) > 0.0
        corrected = bob
        if scaled.any():
            corrected = np.take_along_axis(bob @ k.conj(), index[None] & (2**basis.n - 1), axis=-1)
            corrected *= pauli.POWERS_OF_I[index >> basis.n]
            teleport._normalize_rows(corrected)
            np.copyto(corrected, bob, where=~scaled[:, None, None])
    else:
        members = np.asarray(basis.members, dtype=np.complex128)
        bob = np.einsum("akj,tk->taj", members.conj(), info) @ e
        probs, zero = teleport._probabilities(bob)
        ops = np.einsum("tij,akj->taik", e.swapaxes(-1, -2), members.conj())
        scaled = teleport._unitary_scale(ops, tol) > 0.0
        corrected = teleport._normalize_rows(
            np.where(scaled[..., None], np.einsum("taji,taj->tai", ops.conj(), bob), bob))
    fidelities = np.abs(corrected @ info.conj()[..., None])[..., 0] ** 2
    return probs, zero, bob, corrected, fidelities


def blocked_columns(info, e, basis):
    """The five columns of T runs, joined from the blocks that `teleport._outcomes` forms."""
    rows = teleport._outcomes(info, e, basis, DEFAULT_TOL)
    blocks = [rows(start) for start in range(0, basis.size, teleport.OUTCOME_BLOCK)]
    return [np.concatenate(column, axis=1) for column in zip(*blocks)]


def run_states(info, e, basis):
    """Bob's and the corrected states (4^n, 2^n) of the run of `info` (2^n,) over `e`, from
    the blocks that `teleport._outcomes` forms for it, as `run_protocol` does."""
    _, _, bob, corrected, _ = blocked_columns(info[None], e[None], basis)
    return bob[0], corrected[0]


def assert_run_equals_columns(records, info, e, basis, want):
    """The run of `info` over `e` has the five columns `want` bit for bit: `records` its
    probabilities, zero flags and fidelities, and its blocks Bob's and the corrected states."""
    bob, corrected = run_states(info, e, basis)
    got = (records.probs, records.zero, bob, corrected, records.fidelities)
    for name, have, column in zip(COLUMNS, got, want):
        assert _same_bits(have, column), name


def assert_records_equal_rows(records, columns, order):
    """`records[α]`, read in `order`, carries α and the rows α of the `probs`, `zero` and
    `fidelities` in `columns`; a zero outcome's record carries no fidelity."""
    probs, zero, _, _, fidelities = columns
    order = np.asarray(order)
    read = [records[alpha] for alpha in order.tolist()]
    assert [record.alpha for record in read] == order.tolist()
    assert _same_bits(np.array([record.probability for record in read]), probs[order])
    assert _same_bits(np.array([record.zero_probability for record in read]), zero[order])
    useful = ~zero[order]
    assert all(record.fidelity is None for record, keep in zip(read, useful) if not keep)
    assert _same_bits(np.array([record.fidelity for record, keep in zip(read, useful) if keep],
                               dtype=float), fidelities[order][useful])


def assert_blocks_equal_whole_pass(n, basis_kind, runs, rng):
    """The blocked protocol against `whole_outcomes`, bit for bit, on a perfect, a Gaussian
    and a degenerate channel: `run_protocol`'s three columns and its blocks' Bob's and
    corrected states, and every one of its records read in reverse and in random order,
    then, for ``runs > 1``, those runs as one batch through `teleport._outcomes` and
    `min_fidelities`."""
    basis = _basis(n, basis_kind, rng)
    kinds = ("perfect", "imperfect", "degenerate")  # "imperfect": a Gaussian state's matrix
    es = np.stack([_channel_matrix(n, kind, rng) for kind in kinds])
    infos = np.stack([random_state(n, rng).amplitudes for _ in kinds])
    for info, e in zip(infos, es):
        want = [column[0] for column in whole_outcomes(info[None], e[None], basis)]
        records = run_protocol(StateVector(n, info), channel_from_state(state_from_matrix(e, n), n),
                               basis).records
        assert_records_equal_rows(records, want, range(4**n - 1, -1, -1))
        assert_records_equal_rows(records, want, rng.permutation(4**n))
        assert_run_equals_columns(records, info, e, basis, want)
        del want, records
    if runs == 1:
        return
    infos, es = infos[:runs], es[:runs]
    want = whole_outcomes(infos, es, basis)
    for name, got, column in zip(COLUMNS, blocked_columns(infos, es, basis), want):
        assert _same_bits(got, column), name
    _, zero, _, _, fidelities = want
    assert _same_bits(min_fidelities(infos, es, basis),
                      np.min(np.where(zero, np.inf, fidelities), axis=-1))


@pytest.mark.parametrize("basis_kind", ["standard", "haar"])
@pytest.mark.parametrize(("n", "block"), [(1, 256), (2, 256), (3, 256), (4, 256), (5, 256),
                                          (6, 256), (4, 64), (5, 64), (6, 64), (6, 1024)])
def test_outcome_blocks_equal_the_whole_pass_bit_for_bit(monkeypatch, n, basis_kind, block):
    monkeypatch.setattr(teleport, "OUTCOME_BLOCK", block)
    assert_blocks_equal_whole_pass(n, basis_kind, 3, np.random.default_rng(31 * n + block))


def test_outcome_blocks_of_a_dense_basis_equal_the_whole_pass_bit_for_bit():
    assert_blocks_equal_whole_pass(5, "haar-dense", 2, np.random.default_rng(5))


@pytest.mark.parametrize("basis_kind", ["standard", "haar"])
def test_outcome_blocks_equal_the_whole_pass_bit_for_bit_n7(basis_kind):
    assert_blocks_equal_whole_pass(7, basis_kind, 1, np.random.default_rng(7))


def test_run_protocol_at_n7_peaks_below_8_mib_and_keeps_under_1_mib():
    n = 7
    basis = standard_basis(n)
    ch = channel_from_state(state_from_matrix(np.eye(2**n) / 2 ** (n / 2), n), n)
    info = random_state(n, np.random.default_rng(n))
    run_protocol(info, ch, basis)  # fills the factor cache
    tracemalloc.start()
    try:
        result = run_protocol(info, ch, basis)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20  # one (4^7, 2^7) complex outcome array is 32 MiB
    assert held < 2**20 and result.records.fidelities.min() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("width", range(1, 65))
def test_row_norms_are_per_row_linalg_norms_bit_for_bit(width):
    rng = np.random.default_rng(width)
    real = rng.standard_normal((9, width))
    z = real + 1j * rng.standard_normal((9, width))
    for rows in (real, np.abs(real), z):  # C-contiguous rows
        assert _same_bits(qtel.linalg._row_norms(rows), [np.linalg.norm(r) for r in rows])
    # The strided parts that a complex row's norm sums.  np.linalg.norm would copy a
    # strided real row into a contiguous one, whose BLAS sum can differ in the last bit,
    # so these compare with the ``ndarray.dot`` it applies to a complex row's parts.
    for part in (z.real, z.imag):
        assert _same_bits(qtel.linalg._row_norms(part), [np.sqrt(r.dot(r)) for r in part])


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_random_state_keeps_its_bits(n):
    for seed in range(5):
        assert _same_bits(random_state(n, np.random.default_rng(seed)).amplitudes,
                          _old_random_amplitudes(n, np.random.default_rng(seed)))
