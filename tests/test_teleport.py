import numpy as np
import pytest

from qtel import errors, teleport
from qtel.bell import bell_basis_from_members, generate_from_seed, standard_basis, standard_seed
from qtel.channel import channel_from_state, state_from_matrix
from qtel.errors import (DomainError, InternalConsistencyError, ResourceLimitError, ShapeError,
                         ValidationError)
from qtel.linalg import StateVector, Tolerance, haar_random_unitary, random_state
from qtel.teleport import (
    composite_expand,
    correction_unitary,
    masfi_1q,
    run_protocol,
    transformation_operator,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def bell_channel():
    return channel_from_state(StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2)), 1)


def two_bell_channel():
    return channel_from_state(StateVector(4, np.eye(4).reshape(-1) / 2), 2)


def ghz_channel():
    amps = np.zeros(16)
    amps[0] = amps[15] = 1 / np.sqrt(2)
    return channel_from_state(StateVector(4, amps), 2)


def schmidt_channel(lam):
    amps = np.zeros(4)
    amps[0] = np.sqrt(lam)
    amps[3] = np.sqrt(1 - lam)
    return channel_from_state(StateVector(2, amps), 1)


def random_perfect_channel(n, rng):
    return channel_from_state(
        state_from_matrix(haar_random_unitary(2**n, rng) / 2 ** (n / 2), n), n
    )


class TestCompositeExpand:
    def test_textbook_uniform_probabilities(self):
        records = composite_expand(StateVector(1, np.eye(2)[0]), bell_channel(), standard_basis(1))
        assert [r.alpha for r in records] == [0, 1, 2, 3]
        for r in records:
            assert r.probability == pytest.approx(0.25, abs=1e-12)

    def test_n2_uniform_probabilities(self):
        rng = np.random.default_rng(0)
        records = composite_expand(random_state(2, rng), two_bell_channel(), standard_basis(2))
        for r in records:
            assert r.probability == pytest.approx(1 / 16, abs=1e-12)

    def test_ghz_kills_cross_terms(self):
        info = StateVector(2, np.eye(4)[0b01])
        records = composite_expand(info, ghz_channel(), standard_basis(2))
        assert any(r.zero_probability for r in records)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            composite_expand(StateVector(2, np.eye(4)[0]), bell_channel(), standard_basis(1))


class TestCorrectionUnitary:
    def test_matched_pair_gives_identity(self):
        u = correction_unitary(bell_channel(), standard_basis(1), 0)
        assert np.allclose(u, np.eye(2))

    def test_z_member_gives_sigma_z(self):
        u = correction_unitary(bell_channel(), standard_basis(1), 1)
        assert np.allclose(u, SZ)

    def test_random_perfect_channel_all_unitary(self):
        rng = np.random.default_rng(1)
        ch = random_perfect_channel(2, rng)
        basis = standard_basis(2)
        for alpha in range(16):
            u = correction_unitary(ch, basis, alpha)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9

    def test_imperfect_channel_rejected(self):
        with pytest.raises(ValidationError, match="not perfect"):
            correction_unitary(ghz_channel(), standard_basis(2), 0)


class TestTransformationOperator:
    def test_perfect_channel_inverse_matches_correction(self):
        rng = np.random.default_rng(2)
        ch = random_perfect_channel(2, rng)
        basis = standard_basis(2)
        for alpha in range(16):
            op = transformation_operator(ch, basis, alpha)
            assert op.unitary_scaled
            u = correction_unitary(ch, basis, alpha)
            # U composed with O collapses to 2^-N times identity
            assert np.max(np.abs(np.linalg.inv(op.matrix) / 4 - u)) < 1e-9

    def test_ghz_operators_singular(self):
        basis = standard_basis(2)
        for alpha in range(16):
            op = transformation_operator(ghz_channel(), basis, alpha)
            assert not op.unitary_scaled
            assert np.linalg.matrix_rank(op.matrix) == 2

    def test_asymmetric_schmidt_invertible_not_scaled(self):
        op = transformation_operator(schmidt_channel(0.8), standard_basis(1), 0)
        assert not op.unitary_scaled
        assert abs(np.linalg.det(op.matrix)) > 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dense", [False, True])
    def test_alpha_out_of_range(self, n, dense):
        basis = standard_basis(n)
        if dense:
            basis = bell_basis_from_members(basis.members)
        ch = bell_channel() if n == 1 else two_bell_channel()
        for alpha in (-1, 4**n):
            with pytest.raises(DomainError, match=f"alpha={alpha} out of range"):
                transformation_operator(ch, basis, alpha)


class TestRunProtocol:
    @pytest.mark.parametrize("n", [1, 2])
    def test_perfect_channel_unit_fidelity(self, n):
        rng = np.random.default_rng(3)
        ch = random_perfect_channel(n, rng)
        basis = generate_from_seed(
            state_from_matrix(haar_random_unitary(2**n, rng) / 2 ** (n / 2), n)
        )
        for _ in range(10):
            result = run_protocol(random_state(n, rng), ch, basis)
            for r in result.records:
                assert r.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_ghz_damages_some_outcome(self):
        info = StateVector(2, np.array([1, 0, 0, 1.0]) / np.sqrt(2))
        result = run_protocol(info, ghz_channel(), standard_basis(2))
        fidelities = [r.fidelity for r in result.records if r.fidelity is not None]
        assert min(fidelities) < 0.999

    def test_probability_conservation_random(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 3))
            ch = channel_from_state(random_state(2 * n, rng), n)
            basis = generate_from_seed(
                state_from_matrix(haar_random_unitary(2**n, rng) / 2 ** (n / 2), n)
            )
            result = run_protocol(random_state(n, rng), ch, basis)
            total = sum(r.probability for r in result.records)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        info = random_state(1, rng)
        rotated = StateVector(1, np.exp(1.1j) * info.amplitudes)
        a = run_protocol(info, schmidt_channel(0.7), standard_basis(1))
        b = run_protocol(rotated, schmidt_channel(0.7), standard_basis(1))
        for ra, rb in zip(a.records, b.records):
            assert ra.fidelity == pytest.approx(rb.fidelity, abs=1e-12)

    def test_sampled_frequencies_within_three_sigma(self):
        rng = np.random.default_rng(6)
        shots = 10_000
        result = run_protocol(
            random_state(1, rng), bell_channel(), standard_basis(1),
            mode="sampled", seed=99, shots=shots,
        )
        sigma = np.sqrt(shots * 0.25 * 0.75)
        for count in result.counts:
            assert abs(count - shots * 0.25) < 3 * sigma

    def test_sampled_deterministic_by_seed(self):
        rng = np.random.default_rng(7)
        info = random_state(1, rng)
        a = run_protocol(info, bell_channel(), standard_basis(1),
                         mode="sampled", seed=5, shots=1000)
        b = run_protocol(info, bell_channel(), standard_basis(1),
                         mode="sampled", seed=5, shots=1000)
        assert a.counts == b.counts

    def test_sampled_matches_exhaustive_distribution(self):
        rng = np.random.default_rng(8)
        info = random_state(1, rng)
        ch = schmidt_channel(0.6)
        result = run_protocol(info, ch, standard_basis(1),
                              mode="sampled", seed=17, shots=10_000)
        for record, count in zip(result.records, result.counts):
            assert count / 10_000 == pytest.approx(record.probability, abs=0.02)

    def test_info_state_normalization_uses_the_callers_tolerance(self):
        info = StateVector(1, np.array([1.0 + 5e-7, 0.0]))
        result = run_protocol(info, bell_channel(), standard_basis(1), tol=Tolerance(1e-3))
        assert len(result.records) == 4
        with pytest.raises(ValidationError, match="normalized"):
            run_protocol(info, bell_channel(), standard_basis(1))

    def test_outcome_array_limit_is_the_module_constant(self, monkeypatch):
        info, ch, basis = StateVector(2, np.eye(4)[0]), two_bell_channel(), standard_basis(2)
        monkeypatch.setattr(errors, "BYTE_BUDGET", 16 * 8**2)  # one (4^2, 2^2) complex array
        assert len(run_protocol(info, ch, basis).records) == 16
        monkeypatch.setattr(errors, "BYTE_BUDGET", 16 * 8**2 - 1)
        with pytest.raises(ResourceLimitError, match="protocol at n=2 needs"):
            run_protocol(info, ch, basis)

    def test_sampled_requires_seed_and_shots(self):
        with pytest.raises(ValidationError):
            run_protocol(StateVector(1, np.eye(2)[0]), bell_channel(), standard_basis(1),
                         mode="sampled")

    @pytest.mark.parametrize("options, message", [
        ({"mode": "bogus"}, "unknown mode: 'bogus'"),
        ({"mode": "sampled", "seed": 1, "shots": 0}, "requires shots >= 1"),
        ({"mode": "sampled", "seed": 1, "shots": 2**63}, "requires shots <= "),
        ({"mode": "sampled", "shots": 10}, "requires a seed"),
        ({"mode": "sampled", "seed": -1, "shots": 10}, "requires seed >= 0, got -1"),
    ])
    def test_bad_sampling_options_fail_before_any_outcome(self, monkeypatch, options, message):
        def unexpected(*args):
            raise AssertionError("outcomes expanded before the options were checked")

        monkeypatch.setattr(teleport, "_outcomes", unexpected)
        with pytest.raises(ValidationError, match=message):
            run_protocol(StateVector(1, np.eye(2)[0]), bell_channel(), standard_basis(1), **options)


class TestKernelOperator:
    """The kernel (head-judgment) operator is U^(0), `correction_unitary` at α = 0."""

    def test_matched_gives_identity(self):
        assert np.allclose(correction_unitary(bell_channel(), standard_basis(1), 0), np.eye(2))

    def test_z_rotated_channel_gives_sigma_z(self):
        state = StateVector(2, np.array([1, 0, 0, -1]) / np.sqrt(2))
        u = correction_unitary(channel_from_state(state, 1), standard_basis(1), 0)
        assert np.allclose(u, SZ)

    def test_perfect_channel_checked_once(self, monkeypatch):
        calls = {"is_perfect": 0, "is_maximal_member": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(teleport, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(teleport, name, counted)
        u = correction_unitary(two_bell_channel(), standard_basis(2), 0)
        assert np.allclose(u, np.eye(4))
        assert calls == {"is_perfect": 1, "is_maximal_member": 1}

    @pytest.mark.parametrize("eps", [1e307, 1e308, 1.7e308])
    def test_perfect_channel_under_a_huge_tolerance(self, eps):
        # 10·eps overflows past 1.8e307: the unitarity bound is then inf, not a refusal
        ch = channel_from_state(standard_seed(1), 1)
        assert np.allclose(correction_unitary(ch, standard_basis(1), 0, Tolerance(eps)), np.eye(2))

    def test_nan_unitarity_deviation_is_not_unitary(self, monkeypatch):
        monkeypatch.setattr(teleport, "is_scaled_identity", lambda *args: (True, np.nan))
        with pytest.raises(InternalConsistencyError, match="deviation nan"):
            correction_unitary(bell_channel(), standard_basis(1), 0, Tolerance(1.7e308))

    def test_ghz_reports_singular_operator(self):
        with pytest.raises(ValidationError, match="channel is not perfect"):
            correction_unitary(ghz_channel(), standard_basis(2), 0)
        op = transformation_operator(ghz_channel(), standard_basis(2), 0)
        assert not op.unitary_scaled
        assert np.linalg.matrix_rank(op.matrix) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_the_conjugate_character_matrix(self, n):
        # on the standard basis B^(0) = 2^-n/2·1, so U^(0) = 2^n/2·E*: the conjugate of the
        # character matrix 2^n/2·E, which is unitary exactly when the channel is perfect
        rng = np.random.default_rng(n)
        for _ in range(5):
            e = haar_random_unitary(2**n, rng) / 2 ** (n / 2)
            ch = channel_from_state(state_from_matrix(e, n), n)
            u = correction_unitary(ch, standard_basis(n), 0)
            assert np.abs(u - np.conj(2 ** (n / 2) * ch.e_matrix)).max() <= 1e-12


class TestMasfi:
    def test_bell_channel_is_one(self):
        result = masfi_1q(bell_channel())
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert not result.degenerate

    @pytest.mark.parametrize("lam", [0.6, 0.8])
    def test_matches_concurrence_formula(self, lam):
        c = 2 * np.sqrt(lam * (1 - lam))
        result = masfi_1q(schmidt_channel(lam))
        assert result.value == pytest.approx(2 * c / (1 + c), abs=1e-3)

    def test_degenerate_channel(self):
        result = masfi_1q(schmidt_channel(1.0))
        assert result.value == 0.0 and result.degenerate

    def test_requires_single_qubit(self):
        with pytest.raises(ShapeError):
            masfi_1q(two_bell_channel())
