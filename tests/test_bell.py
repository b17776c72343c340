import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qtel.linalg import StateVector, Tolerance, haar_random_unitary, is_maximally_entangled

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


def _seed_matrix(n, kind, rng):
    """The standard seed, a Haar seed U / 2^(n/2), or a Haar seed moved by about 1e-9."""
    if kind == "standard":
        return np.eye(2**n) / 2 ** (n / 2)
    m = haar_random_unitary(2**n, rng) / 2 ** (n / 2)
    if kind == "perturbed":
        m = m + 1e-9 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
    return m / np.linalg.norm(m)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), kind=st.sampled_from(["standard", "haar", "perturbed"]),
       seed=st.integers(0, 2**32 - 1))
def test_completeness_deviation_is_2_to_the_n_times_the_seed_deviation(n, kind, seed):
    # sum_α P_α X P_α† = 2^n tr(X)·1 makes the resolution 1 ⊗ 2^n·conj(B†B) for seed B, so
    # max |R - 1| = 2^n max |B†B - 2^-n·1|; rounding moved it by at most 1.1e-15 over
    # 30 seeds of each kind at n = 1..5 (7e-8 of the perturbed deviations, about 1e-8)
    m = _seed_matrix(n, kind, np.random.default_rng(seed))
    basis = generate_from_seed(state_from_matrix(m, n), Tolerance(1e-6))
    _, deviation = verify_completeness(basis)
    _, seed_deviation = is_maximally_entangled(basis.seed)
    assert abs(deviation - 2**n * seed_deviation) <= 1e-14
    if kind == "perturbed":
        assert seed_deviation > 1e-12  # the perturbation shows, so the identity is not 0 = 0


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
