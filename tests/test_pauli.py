import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtel.pauli
from qtel.errors import DomainError, ResourceLimitError, ShapeError
from qtel.pauli import (
    PauliString,
    commutes,
    family_property_report,
    matrices_of,
    matrix_of,
    parse,
    pauli_from_digits,
    pauli_from_quaternary,
    product,
    product_table,
    render,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)

X = pauli_from_digits([2])
Y = pauli_from_digits([3])
Z = pauli_from_digits([1])


def all_strings(n):
    return [pauli_from_quaternary(a, n) for a in range(4**n)]


class TestConstruction:
    def test_alpha_zero_is_identity(self):
        for n in (1, 2, 3):
            assert pauli_from_quaternary(0, n).is_identity

    def test_digits_three_zero_is_y_tensor_i(self):
        p = pauli_from_digits([3, 0])
        expected = np.kron(SY, np.eye(2))
        assert np.array_equal(matrix_of(p), expected)
        # half-normalized this is the 2x2-block matrix ((0,-iI),(iI,0))
        assert np.array_equal(expected[0:2, 2:4], -1j * np.eye(2))

    def test_digits_one_two_is_z_tensor_x(self):
        assert np.array_equal(matrix_of(pauli_from_digits([1, 2])), np.kron(SZ, SX))

    def test_quaternary_index_roundtrip(self):
        for alpha in range(16):
            assert pauli_from_quaternary(alpha, 2).quaternary_index == alpha

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            pauli_from_quaternary(16, 2)

    def test_bad_label(self):
        with pytest.raises(Exception):
            PauliString(1, 0b100)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_label_range_is_checked_once_with_an_excerpt(self, n):
        huge = 7 * (10**10_000 - 1) // 9  # 10,000 sevens, past int()'s 4,300-digit limit
        for alpha, quoted in ((4**n, repr(4**n)), (-1, "-1"),
                              (huge, "77777777777777777777…(10000 digits)")):
            with pytest.raises(DomainError) as info:
                PauliString(n, alpha)
            message = str(info.value)
            assert message == f"alpha={quoted} out of range for {n} qubits"
            assert len(message.encode()) < 200


class TestProduct:
    def test_hermitian_square_is_identity(self):
        for p in all_strings(2):
            sq = product(p, p)
            assert sq.is_identity and sq.phase_power == 0

    def test_xz_is_minus_i_y(self):
        r = product(X, Z)
        assert (r.quaternary_index, r.phase_power) == (3, 3)  # x = z = 1: digit 3
        assert np.allclose(matrix_of(r), SX @ SZ)

    def test_two_qubit_product_dense_oracle(self):
        p = pauli_from_digits([1, 2])  # Z⊗X
        q = pauli_from_digits([2, 1])  # X⊗Z
        r = product(p, q)
        assert np.allclose(matrix_of(r), matrix_of(p) @ matrix_of(q))
        assert r.quaternary_index == 0b1111  # ±(Y⊗Y) up to phase: digits 3, 3

    def test_phase_exact_all_pairs_n2(self):
        for p, q in itertools.product(all_strings(2), repeat=2):
            assert np.array_equal(matrix_of(product(p, q)), matrix_of(p) @ matrix_of(q))

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            product(X, pauli_from_digits([2, 2]))


class TestCommutes:
    def test_canonical_pairs(self):
        assert not commutes(X, Z)
        assert commutes(pauli_from_digits([2, 2]), pauli_from_digits([1, 1]))

    def test_identity_commutes_with_all(self):
        for p in all_strings(2):
            assert commutes(p, pauli_from_quaternary(0, 2))

    def test_against_dense_all_pairs_n2(self):
        for p, q in itertools.product(all_strings(2), repeat=2):
            a, b = matrix_of(p), matrix_of(q)
            dense = np.max(np.abs(a @ b - b @ a)) < 1e-12
            assert commutes(p, q) == dense


class TestMatrixOf:
    def test_identity(self):
        assert np.array_equal(matrix_of(pauli_from_quaternary(0, 3)), np.eye(8))

    def test_y_tensor_family_block_form(self):
        for digit, sigma in ((2, SX), (3, SY), (1, SZ)):
            m = matrix_of(pauli_from_digits([3, digit]))
            assert np.array_equal(m[0:2, 2:4], -1j * sigma)
            assert np.array_equal(m[2:4, 0:2], 1j * sigma)

    def test_squares(self):
        for p in all_strings(2):
            m = matrix_of(p)
            assert np.array_equal(m @ m, np.eye(4))
            assert np.array_equal(m, m.conj().T)  # phase 0 strings are hermitian


@settings(max_examples=50, deadline=None)
@given(
    digits=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    phase=st.integers(0, 3),
)
def test_render_parse_roundtrip(digits, phase):
    p = pauli_from_digits(digits, phase_power=phase)
    assert parse(render(p)) == p
    text = render(p)
    assert parse(text[:-len(digits)] + "⊗".join(text[-len(digits):])) == p


def test_render_examples():
    assert render(pauli_from_digits([1, 2], phase_power=1)) == "i·ZX"
    assert parse("Y⊗I") == pauli_from_digits([3, 0])


class TestFamilyPropertyReport:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_properties_pass(self, n):
        report = family_property_report(n)
        assert report.all_passed, [c for c in report.checks if not c.passed]
        assert len(report.checks) == 8

    def test_n1_all_nonidentity_anticommute(self):
        assert family_property_report(1).all_nonidentity_anticommute

    def test_n2_dichotomy_counts(self):
        report = family_property_report(2)
        assert set(report.anticommute_counts.values()) == {8}
        assert len(report.anticommute_counts) == 15
        assert not report.all_nonidentity_anticommute

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            family_property_report(4)

    @pytest.mark.parametrize("n", [0, -1, -10**30])
    def test_n_below_one_is_refused_by_the_range_check(self, n):
        with pytest.raises(ResourceLimitError, match=r"supports 1 <= n <= 3, got -?\d"):
            family_property_report(n)

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_closure_checks_the_phase_of_product(self, monkeypatch, shift):
        # products with the right strings but a wrong power of i fail closure only
        def wrong_phase(n):
            index, power, anticommutes = product_table(n)
            return index, (power + shift) % 4, anticommutes

        monkeypatch.setattr(qtel.pauli, "product_table", wrong_phase)
        failed = [c.name for c in family_property_report(2).checks if not c.passed]
        assert failed == ["products close up to ±1, ±i"]

    def test_an_entry_off_by_1e_13_fails(self, monkeypatch):
        # the family is compared exactly: an error far below any threshold still fails
        def perturbed(alphas, n):
            mats = matrices_of(alphas, n)
            mats[5, 0, 0] += 1e-13  # ZZ's first diagonal entry
            return mats

        monkeypatch.setattr(qtel.pauli, "matrices_of", perturbed)
        report = family_property_report(2)
        assert not report.all_passed
        assert report.checks[0].detail == "ZZ"  # its square is no longer the identity
