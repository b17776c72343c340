import copy
import pickle

import numpy as np
import pytest

from qtel.errors import ShapeError, ValidationError
from qtel.linalg import (
    StateVector,
    Tolerance,
    dagger,
    haar_random_unitary,
    is_maximally_entangled,
    is_scaled_identity,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestDaggerKronTrace:
    def test_dagger_i_sy(self):
        assert np.array_equal(dagger(1j * SY), -1j * SY)

    def test_dagger_involution_exact(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        assert np.array_equal(dagger(dagger(m)), m)


class TestScaledIdentity:
    def test_half_identity(self):
        ok, dev = is_scaled_identity(0.5 * np.eye(2), 0.5)
        assert ok and dev == 0.0

    def test_ghz_gram_deviation(self):
        amps = np.zeros(16)
        amps[0] = amps[15] = 1 / np.sqrt(2)
        e = amps.reshape(4, 4)
        ok, dev = is_scaled_identity(dagger(e) @ e, 0.25)
        assert not ok
        assert dev == pytest.approx(0.25, abs=1e-15)

    def test_two_bell_pairs(self):
        e = np.eye(4) / 2
        ok, _ = is_scaled_identity(dagger(e) @ e, 0.25)
        assert ok

    def test_reports_deviation_on_failure(self):
        ok, dev = is_scaled_identity(np.eye(3), 0.5, Tolerance(1e-12))
        assert not ok and dev == pytest.approx(0.5)

    def test_two_bell_pairs_maximally_entangled(self):
        ok, dev = is_maximally_entangled(np.eye(4) / 2)
        assert ok and dev == 0.0

    def test_ghz_not_maximally_entangled(self):
        amps = np.zeros(16)
        amps[0] = amps[15] = 1 / np.sqrt(2)
        ok, dev = is_maximally_entangled(amps.reshape(4, 4))
        assert not ok
        assert dev == pytest.approx(0.25, abs=1e-15)

    def test_maximally_entangled_scale_is_inverse_dimension(self):
        # a unitary over 2^{n/2} meets M†M = 2^-n·1 for every n
        rng = np.random.default_rng(9)
        for n in range(1, 5):
            u = haar_random_unitary(2**n, rng)
            ok, dev = is_maximally_entangled(u / np.sqrt(2**n))
            assert ok and dev < 1e-14


class TestStateVector:
    def test_length_check(self):
        with pytest.raises(ShapeError):
            StateVector(2, np.ones(3))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            StateVector(1, np.array([np.nan, 0.0]))

    def test_normalization(self):
        s = StateVector(1, np.array([3.0, 4.0]))
        assert not s.is_normalized()

    def test_basis_state_big_endian(self):
        # index 0b10 sets qubit 1 (most significant) to |1>
        s = StateVector(2, np.eye(4)[0b10])
        assert s.amplitudes[2] == 1

    def test_overlap(self):
        assert StateVector(1, np.eye(2)[0]).overlap(StateVector(1, np.eye(2)[1])) == 0


def test_haar_random_unitary_is_unitary():
    rng = np.random.default_rng(42)
    u = haar_random_unitary(8, rng)
    assert np.allclose(dagger(u) @ u, np.eye(8), atol=1e-12)


def test_tolerance_must_be_positive():
    for eps in (0.0, float("inf")):
        with pytest.raises(ValidationError):
            Tolerance(eps)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda tol: pickle.loads(pickle.dumps(tol))])
def test_tolerance_copies_and_pickles_to_an_equal_tolerance(duplicate):
    tol = Tolerance(0.5)
    twin = duplicate(tol)
    assert type(twin) is Tolerance and twin == tol and twin.abs_eps == 0.5


def test_tolerance_repr_names_its_value():
    assert repr(Tolerance(1e-9)) == "Tolerance(abs_eps=1e-09)"


def test_tolerance_abs_eps_is_a_read_only_float():
    tol = Tolerance(1e-9)
    assert type(tol.abs_eps) is float and tol.abs_eps == 1e-9
    with pytest.raises(AttributeError):
        tol.abs_eps = 0.5


def test_tolerances_of_different_values_differ():
    assert Tolerance(0.5) != Tolerance(0.25)
