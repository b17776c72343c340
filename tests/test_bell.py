import numpy as np
import pytest

from qtel.bell import (
    BellBasis,
    bell_basis_from_members,
    generate_from_seed,
    is_maximal_member,
    standard_basis,
    standard_seed,
    verify_completeness,
)
from qtel.channel import state_from_matrix
from qtel.errors import DomainError, ShapeError, ValidationError
from qtel.linalg import StateVector, haar_random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_perfect_seed(n, rng):
    return state_from_matrix(haar_random_unitary(2**n, rng) / 2 ** (n / 2), n)


class TestGeneration:
    def test_standard_n1_members(self):
        basis = standard_basis(1)
        s = 1 / np.sqrt(2)
        for expected, member in zip([np.eye(2), SZ, SX, SY], basis.members):
            assert np.allclose(member, s * expected)

    def test_standard_n2_is_product_structure(self):
        basis = standard_basis(2)
        assert basis.size == 16
        # member 6 applies Z on qubit 1 and X on qubit 2 of the seed
        expected = np.kron(SZ, SX) @ (np.eye(4) / 2)
        assert np.allclose(basis.members[6], expected)

    def test_separable_seed_rejected_with_deviation(self):
        seed = StateVector(2, np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValidationError, match="maximally entangled"):
            generate_from_seed(seed)

    def test_odd_qubit_seed_rejected(self):
        with pytest.raises(Exception):
            generate_from_seed(StateVector(3, np.eye(8)[0]))

    def test_member_states_match_matrices(self):
        basis = standard_basis(1)
        assert np.allclose(
            basis.member_state(0).amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2)
        )


class TestCompleteness:
    def test_standard_n1(self):
        ok, dev = verify_completeness(standard_basis(1))
        assert ok and dev < 1e-15

    def test_duplicated_member_breaks_it(self):
        basis = standard_basis(1)
        members = list(basis.members)
        members[1] = members[0]
        broken = BellBasis(1, tuple(members))
        ok, dev = verify_completeness(broken)
        assert not ok and dev > 0.1

    def test_generated_from_random_perfect_seed(self):
        rng = np.random.default_rng(10)
        basis = generate_from_seed(random_perfect_seed(2, rng))
        ok, dev = verify_completeness(basis)
        assert ok and dev < 1e-12


class TestMaximality:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_members_all_maximal(self, n):
        basis = standard_basis(n)
        assert all(is_maximal_member(basis, alpha) for alpha in range(basis.size))

    def test_separable_member_detected(self):
        members = list(standard_basis(1).members)
        separable = np.zeros((2, 2), dtype=complex)
        separable[0, 0] = 1.0
        members[3] = separable
        basis = BellBasis(1, tuple(members))
        assert not is_maximal_member(basis, 3)

    def test_random_seed_members_maximal(self):
        rng = np.random.default_rng(11)
        basis = generate_from_seed(random_perfect_seed(2, rng))
        assert all(is_maximal_member(basis, alpha) for alpha in range(16))

    def test_alpha_out_of_range(self):
        for alpha in (-1, 4):
            with pytest.raises(DomainError):
                is_maximal_member(standard_basis(1), alpha)
            with pytest.raises(DomainError):
                standard_basis(1).member_state(alpha)


class TestInvariants:
    @pytest.mark.parametrize("n", [1, 2])
    def test_orthonormal_gram(self, n):
        rng = np.random.default_rng(12)
        basis = generate_from_seed(random_perfect_seed(n, rng))
        vecs = np.array([m.reshape(-1) for m in basis.members])
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(4**n))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_generation_preserves_perfection(self, n):
        rng = np.random.default_rng(13)
        for _ in range(20):
            basis = generate_from_seed(random_perfect_seed(n, rng))
            assert all(is_maximal_member(basis, alpha) for alpha in range(basis.size))

    @pytest.mark.parametrize("n", [1, 2])
    def test_generated_completeness(self, n):
        rng = np.random.default_rng(14)
        for _ in range(5):
            ok, dev = verify_completeness(generate_from_seed(random_perfect_seed(n, rng)))
            assert ok and dev < 1e-12


class TestRawConstructor:
    def test_accepts_standard_members(self):
        basis = bell_basis_from_members(standard_basis(1).members)
        assert basis.size == 4

    def test_rejects_incomplete_family(self):
        members = list(standard_basis(1).members)
        members[2] = members[3]  # each member fine, family not complete
        with pytest.raises(ValidationError):
            bell_basis_from_members(members)

    def test_rejects_separable_member(self):
        members = list(standard_basis(1).members)
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 0] = 1.0
        members[0] = bad
        with pytest.raises(ValidationError, match="maximally entangled"):
            bell_basis_from_members(members)

    def test_rejects_one_by_one_member(self):
        # a 1x1 matrix is not a 2n-qubit state for any n >= 1, as for StateVector
        with pytest.raises(ShapeError, match="n >= 1"):
            bell_basis_from_members([np.eye(1)])

    def test_accepts_non_pauli_generated_family(self):
        rng = np.random.default_rng(15)
        u = haar_random_unitary(2, rng)
        members = [m @ u for m in standard_basis(1).members]
        basis = bell_basis_from_members(members)
        ok, _ = verify_completeness(basis)
        assert ok


def test_standard_seed_matrix():
    assert np.allclose(
        standard_seed(2).amplitudes.reshape(4, 4), np.eye(4) / 2
    )
