import dataclasses
import functools
import itertools

import numpy as np
import pytest

import qtel.errors
import qtel.magic
from qtel.channel import concurrence_2q, hill_wootters_basis, state_from_matrix
from qtel.cli import main
from qtel.errors import InternalConsistencyError, ResourceLimitError, ValidationError
from qtel.linalg import Tolerance
from qtel.magic import (
    MagicPartialBasis,
    _covering_first_fit,
    N2_NAMES,
    N2_PRINTED_MAXIMAL_SETS,
    N2_PRINTED_QUARTER_BASES,
    PRINTED_QUARTER_BASIS_COUNT,
    build_anticomm_graph,
    ghz_state,
    maximal_anticommuting_sets,
    n2_catalog,
    no_full_magic_basis_witness,
    partial_basis_from_set,
    verify_partial_basis,
)
from qtel.pauli import commutes, matrix_of, pauli_from_digits, pauli_from_quaternary

X = pauli_from_digits([2])
Y = pauli_from_digits([3])
Z = pauli_from_digits([1])


class TestHillWootters:
    def test_orthonormal(self):
        basis = hill_wootters_basis()
        for i, j in itertools.product(range(4), repeat=2):
            expected = 1.0 if i == j else 0.0
            assert basis[i].overlap(basis[j]) == pytest.approx(expected, abs=1e-15)

    def test_members_maximally_entangled(self):
        for member in hill_wootters_basis():
            assert concurrence_2q(member) == pytest.approx(1.0, abs=1e-12)

    def test_matches_single_qubit_construction(self):
        # identity plus the full anticommuting triple reproduces the four states
        constructed = partial_basis_from_set([Z, X, Y])
        for built, reference in zip(constructed.members, hill_wootters_basis()):
            assert np.allclose(built.amplitudes, reference.amplitudes)


class TestAnticommGraph:
    def test_n1_is_triangle(self):
        g = build_anticomm_graph(1)
        assert g.shape == (3, 3)  # the labels 1, 2, 3
        assert np.array_equal(g, ~np.eye(3, dtype=bool))

    def test_n2_regular_degree_eight(self):
        g = build_anticomm_graph(2)
        assert len(g) == 15
        assert set(g.sum(axis=0).tolist()) == {8}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjacency_is_the_pairwise_commutation_test(self, n):
        g = build_anticomm_graph(n)
        strings = [pauli_from_quaternary(v + 1, n) for v in range(len(g))]
        pairwise = [[not commutes(p, q) for q in strings] for p in strings]
        assert g.dtype == bool
        assert np.array_equal(g, np.array(pairwise))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjacency_is_read_only_and_names_its_qubit_count(self, n):
        g = build_anticomm_graph(n)
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = True
        assert g.n == n  # the benchmark's spans label a call by it

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            build_anticomm_graph(4)

    @pytest.mark.parametrize("n", [-1, 0])
    def test_rejects_fewer_than_one_qubit(self, n):
        with pytest.raises(ResourceLimitError, match="1 <= n <= 3"):
            build_anticomm_graph(n)


class TestMaximalSets:
    def test_n1_single_full_clique(self):
        report = maximal_anticommuting_sets(build_anticomm_graph(1))
        assert report.maximal_cliques == ((1, 2, 3),)
        assert report.max_size == 3

    def test_n2_clique_census(self):
        report = maximal_anticommuting_sets(build_anticomm_graph(2))
        sizes = sorted(len(c) for c in report.maximal_cliques)
        assert len(report.maximal_cliques) == 26
        assert sizes.count(3) == 20 and sizes.count(5) == 6
        assert report.max_size == 5

    def test_n3_clique_census(self):
        # |Sp(6,2)| / (|Sp(6-2k,2)| · (2k+1)!) maximal sets of size 2k + 1
        report = maximal_anticommuting_sets(build_anticomm_graph(3))
        sizes = [len(c) for c in report.maximal_cliques]
        assert {s: sizes.count(s) for s in set(sizes)} == {3: 336, 5: 2016, 7: 288}
        assert report.max_size == 7

    def test_cliques_truly_anticommuting_and_maximal(self):
        for n in (2, 3):
            g = build_anticomm_graph(n)
            report = maximal_anticommuting_sets(g)
            assert len(set(report.maximal_cliques)) == len(report.maximal_cliques)
            for clique in report.maximal_cliques:
                rows = [a - 1 for a in clique]  # vertex v is the label v + 1
                block = g[np.ix_(rows, rows)]
                assert block.sum() == len(rows) * (len(rows) - 1)  # all but the diagonal
                outside = np.ones(len(g), dtype=bool)
                outside[rows] = False
                # no vertex outside anticommutes with every member
                assert not g[np.ix_(outside, rows)].all(axis=1).any()


class TestPartialBasisConstruction:
    def test_single_qubit_triple(self):
        basis = partial_basis_from_set([X, Y, Z])
        assert basis.dimension == 4
        assert [p.quaternary_index for p in basis.source_set] == [1, 2, 3]

    def test_identity_member_first(self):
        basis = partial_basis_from_set([X])
        assert np.allclose(
            basis.members[0].amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2)
        )

    def test_rejects_commuting_pair_naming_it(self):
        zz = pauli_from_digits([1, 1])
        xx = pauli_from_digits([2, 2])
        zx = pauli_from_digits([1, 2])
        with pytest.raises(ValidationError, match="commutes"):
            partial_basis_from_set([zx, zz, xx])

    def test_rejects_identity_string(self):
        with pytest.raises(ValidationError, match="identity"):
            partial_basis_from_set([X, pauli_from_digits([0])])

    def test_rejects_phased_string(self):
        for phase_power in (1, 2, 3):  # -X is hermitian, but not phase-free
            with pytest.raises(ValidationError, match="hermitian"):
                partial_basis_from_set([pauli_from_digits([2], phase_power=phase_power)])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValidationError):
            partial_basis_from_set([X, pauli_from_digits([2, 2])])

    def test_members_orthonormal(self):
        clique = maximal_anticommuting_sets(build_anticomm_graph(2)).maximal_cliques[0]
        basis = partial_basis_from_set(pauli_from_quaternary(a, 2) for a in clique)
        for i, j in itertools.product(range(basis.dimension), repeat=2):
            expected = 1.0 if i == j else 0.0
            assert basis.members[i].overlap(basis.members[j]) == pytest.approx(
                expected, abs=1e-12
            )


class TestVerification:
    def test_max_clique_basis_passes(self):
        report = maximal_anticommuting_sets(build_anticomm_graph(2))
        clique = next(c for c in report.maximal_cliques if len(c) == 5)
        basis = partial_basis_from_set(pauli_from_quaternary(a, 2) for a in clique)
        result = verify_partial_basis(basis, trials=20, seed=0)
        assert result.passed
        assert result.max_condition_deviation < 1e-9
        assert result.min_fidelity > 1 - 1e-9

    def test_single_qubit_triple_passes(self):
        result = verify_partial_basis(partial_basis_from_set([X, Y, Z]), trials=20, seed=1)
        assert result.passed and result.failures == 0

    def test_commuting_family_fails(self):
        # hand-built family with a commuting pair: combinations are not
        # scaled unitaries, so the condition check must record failures
        strings = [pauli_from_digits([0, 0]), pauli_from_digits([1, 0]),
                   pauli_from_digits([0, 1])]
        members = tuple(
            state_from_matrix(0.5 * matrix_of(p), 2) for p in strings
        )
        fake = MagicPartialBasis(2, members, tuple(strings[1:]))
        result = verify_partial_basis(fake, trials=10, seed=2)
        assert not result.passed
        assert result.failures > 0
        assert result.max_condition_deviation > 1e-3

    def test_unnormalized_combination_is_a_failed_trial(self):
        # at a tolerance below one rounding of |M| - 1, normalization fails
        # for most combinations: each is counted, none is raised
        basis = partial_basis_from_set(pauli_from_digits(N2_NAMES[name]) for name in "FGH")
        result = verify_partial_basis(basis, trials=20, seed=0, tol=Tolerance(1e-17))
        assert not result.passed
        assert 0 < result.failures <= 20

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError):
            verify_partial_basis(partial_basis_from_set([X]), trials=0, seed=0)


class TestVerificationBlockBudget:
    # one n = 2 trial holds four (16, 4) complex arrays: 4096 bytes
    N2_TRIAL_BYTES = 4 * 16 * 16 * 4

    def test_smaller_blocks_give_the_same_figures(self, monkeypatch):
        basis = partial_basis_from_set(pauli_from_digits(N2_NAMES[name]) for name in "FGH")
        whole = verify_partial_basis(basis, trials=50, seed=3)
        monkeypatch.setattr(qtel.errors, "BYTE_BUDGET", 3 * self.N2_TRIAL_BYTES)
        assert verify_partial_basis(basis, trials=50, seed=3) == whole

    def test_trial_over_budget_is_resource_limit(self, monkeypatch):
        monkeypatch.setattr(qtel.errors, "BYTE_BUDGET", self.N2_TRIAL_BYTES - 1)
        basis = partial_basis_from_set(pauli_from_digits(N2_NAMES[name]) for name in "FGH")
        with pytest.raises(ResourceLimitError, match="n=2 needs"):
            verify_partial_basis(basis, trials=1, seed=0)

    def test_cli_exits_2_over_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(qtel.errors, "BYTE_BUDGET", self.N2_TRIAL_BYTES - 1)
        assert main(["magic", "verify", "--set", "F,G,H"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: verifying a partial basis at n=2")

    def test_cli_refuses_n9_before_allocating(self, capsys):
        # the default budget refuses n = 9 (8 GiB per trial) before any protocol array
        assert main(["magic", "verify", "--set", "1", "--n", "9"]) == 2
        assert "block budget" in capsys.readouterr().err


class TestWitness:
    def test_n1_no_obstruction(self):
        report = no_full_magic_basis_witness(1)
        assert report.max_clique_size == 3 and report.required_size == 3
        assert not report.holds

    def test_n2_holds_with_counterexample(self):
        report = no_full_magic_basis_witness(2)
        assert report.holds
        assert report.max_clique_size == 5 and report.required_size == 15
        assert report.vertices_examined == 15
        assert report.cliques_examined == 26
        assert report.ghz_deviation == pytest.approx(0.25, abs=1e-15)
        # the counterexample fails the channel condition rather than the span test
        assert report.ghz_min_residual == pytest.approx(0.0, abs=1e-12)

    def test_n3_holds(self):
        report = no_full_magic_basis_witness(3)
        assert report.holds
        assert report.max_clique_size == 7 and report.required_size == 63

    def test_out_of_range(self):
        with pytest.raises(ResourceLimitError):
            no_full_magic_basis_witness(4)
        with pytest.raises(ResourceLimitError):
            no_full_magic_basis_witness(0)


def _first_max_packing(triangles):
    """Brute force: the lexicographically first maximum disjoint family, by index."""
    for size in range(len(triangles), 0, -1):
        for chosen in itertools.combinations(range(len(triangles)), size):
            used = [v for i in chosen for v in triangles[i]]
            if len(set(used)) == len(used):
                return [triangles[i] for i in chosen]
    return []


@pytest.mark.parametrize("seed", range(40))
def test_triangle_packing_matches_brute_force(seed):
    # a first fit that covers every vertex is the first maximum family; one that does not raises
    rng = np.random.default_rng(seed)
    vertices = int(rng.integers(3, 10))
    every = list(itertools.combinations(range(vertices), 3))
    count = int(rng.integers(0, min(len(every), 12) + 1))
    triangles = sorted(every[i] for i in rng.choice(len(every), count, replace=False))
    first_fit = functools.reduce(
        lambda kept, t: kept + [t] if all(set(t).isdisjoint(k) for k in kept) else kept,
        triangles, [])
    if 3 * len(first_fit) == len(set().union(*triangles)):
        assert _covering_first_fit(triangles) == _first_max_packing(triangles)
    else:
        with pytest.raises(InternalConsistencyError):
            _covering_first_fit(triangles)


def test_catalog_without_a_cover_raises(monkeypatch):
    # without the cliques through alpha = 1 the first fit covers 12 of 14 vertices
    real = qtel.magic.maximal_anticommuting_sets

    def without_alpha_1(graph):
        report = real(graph)
        kept = tuple(c for c in report.maximal_cliques if 1 not in c)
        return dataclasses.replace(report, maximal_cliques=kept)

    monkeypatch.setattr(qtel.magic, "maximal_anticommuting_sets", without_alpha_1)
    with pytest.raises(InternalConsistencyError):
        n2_catalog()


def test_ghz_state_shape():
    s = ghz_state(4)
    assert s.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert s.amplitudes[15] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(s.amplitudes) == 2


@pytest.fixture(scope="module")
def catalog():
    return n2_catalog()


class TestCatalog:
    def test_states_match_construction(self, catalog):
        zx = state_from_matrix(0.5 * matrix_of(pauli_from_digits([1, 2])), 2)
        assert np.allclose(catalog.states["B1"].amplitudes, zx.amplitudes)
        assert len(catalog.states) == 16

    def test_printed_state_typos(self, catalog):
        assert set(catalog.printed_state_typos) == {"D1", "D2"}
        assert "[3, 7]" in catalog.printed_state_typos["D1"]
        assert "[9, 12]" in catalog.printed_state_typos["D2"]

    def test_printed_amplitude_off_by_1e_13_is_a_typo(self, monkeypatch):
        (index, amp), *rest = qtel.magic.N2_PRINTED_STATES["F"]
        monkeypatch.setitem(qtel.magic.N2_PRINTED_STATES, "F", ((index, amp + 1e-13), *rest))
        typos = n2_catalog().printed_state_typos
        assert set(typos) == {"D1", "D2", "F"}
        assert typos["F"] == f"printed amplitudes disagree at indices [{index}]"

    def test_maximal_sets_and_dimensions(self, catalog):
        assert len(catalog.maximal_sets) == 26
        assert catalog.max_partial_basis_dimension == 6
        assert {b.dimension for b in catalog.partial_bases} == {4, 6}

    def test_no_half_basis(self, catalog):
        # a dimension-8 family would need a 7-clique; the maximum is 5
        assert all(b.dimension < 8 for b in catalog.partial_bases)

    def test_quarter_families_are_five_disjoint_triples(self, catalog):
        families = catalog.quarter_basis_families
        assert len(families) == 5
        assert all(len(f) == 3 for f in families)
        names = [name for f in families for name in f]
        assert len(set(names)) == 15
        grouped = {frozenset(f) for f in families}
        assert grouped == {
            frozenset({"A1", "A2", "A3"}),
            frozenset({"B1", "B2", "B3"}),
            frozenset({"C1", "C2", "C3"}),
            frozenset({"D1", "D2", "D3"}),
            frozenset({"F", "G", "H"}),
        }

    def test_printed_quarter_count_exceeds_possible(self, catalog):
        assert PRINTED_QUARTER_BASIS_COUNT == 6
        assert len(catalog.quarter_basis_families) == 5
        last = catalog.quarter_reconciliation[-1]
        assert not last.exact
        assert any("disjoint families" in flag for flag in last.flags)

    def test_reconciliation_covers_printed_sets(self, catalog):
        assert len(catalog.reconciliation) == len(N2_PRINTED_MAXIMAL_SETS)
        for entry in catalog.reconciliation:
            assert entry.exact or entry.flags

    def test_reconciliation_flags_known_defects(self, catalog):
        by_printed = {entry.printed: entry for entry in catalog.reconciliation}
        dup = by_printed[("F", "G", "D1", "D2", "D2")]
        assert not dup.exact and any("duplicate" in f for f in dup.flags)
        undefined = by_printed[("H", "E", "C1", "C2", "C3")]
        assert any("undefined" in f for f in undefined.flags)
        clean = by_printed[("G", "H", "B1", "B2", "B3")]
        assert clean.exact

    def test_quarter_reconciliation_matches_printed(self, catalog):
        matched = [
            e for e in catalog.quarter_reconciliation
            if e.printed in N2_PRINTED_QUARTER_BASES
        ]
        assert len(matched) == len(N2_PRINTED_QUARTER_BASES)
        garbled = next(e for e in matched if e.printed == ("A2", "A3"))
        assert not garbled.exact
