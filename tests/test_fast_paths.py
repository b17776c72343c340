"""The bitmask, array, trial-loop and block paths of `qtel.magic`, `qtel.pauli`
and `qtel.bell` against test-local copies of the code they replaced.

Clique lists and product tables must be equal; the figures of
`verify_partial_basis` must be equal bit for bit (``uint64`` views),
including every array its trial loop hands to `teleport.min_fidelities`;
the verdict and deviation of `verify_completeness` must equal those of the
one dense (4^n, 4^n) resolution.
"""

import itertools
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtel.bell
import qtel.magic
from qtel.bell import (BellBasis, bell_basis_from_members, generate_from_seed, standard_basis,
                       verify_completeness)
from qtel.channel import state_from_matrix
from qtel.cli import main
from qtel.errors import ResourceLimitError
from qtel.linalg import (DEFAULT_TOL, StateVector, Tolerance, haar_random_unitary,
                         is_maximally_entangled, is_scaled_identity)
from qtel.magic import (
    CliqueReport,
    build_anticomm_graph,
    maximal_anticommuting_sets,
    partial_basis_from_set,
    verify_partial_basis,
)
from qtel.pauli import commutes, pauli_from_quaternary, product, product_table
from qtel.teleport import min_fidelities


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
    verify_completeness(basis)  # fills the action-table cache
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
    monkeypatch.setattr(qtel.bell, "COMPLETENESS_MAX_BYTES", 16 * 16**2)
    assert verify_completeness(basis) == (True, 0.0)
    monkeypatch.setattr(qtel.bell, "COMPLETENESS_MAX_BYTES", 16 * 16**2 - 1)
    with pytest.raises(ResourceLimitError, match="n=2"):
        verify_completeness(basis)


def test_bell_gen_over_the_limit_exits_2_with_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(qtel.bell, "COMPLETENESS_MAX_BYTES", 16 * 16**2 - 1)
    assert main(["--format", "json", "bell", "gen", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: checking completeness at n=2") and err.count("\n") == 1
