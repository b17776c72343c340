"""The bitmask, array and trial-loop paths of `qtel.magic` and `qtel.pauli`
against test-local copies of the per-object code they replaced.

Clique lists and product tables must be equal; the figures of
`verify_partial_basis` must be equal bit for bit (``uint64`` views),
including every array its trial loop hands to `teleport.min_fidelities`.
"""

import itertools

import numpy as np
import pytest

import qtel.magic
from qtel.bell import standard_basis
from qtel.linalg import DEFAULT_TOL, StateVector, is_maximally_entangled
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
