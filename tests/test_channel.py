import os
import subprocess
import sys

import numpy as np
import pytest

import qtel
from qtel.channel import (
    channel_from_state,
    concurrence_2q,
    is_perfect,
    state_from_matrix,
)
from qtel.errors import ShapeError, ValidationError
from qtel.linalg import StateVector, haar_random_unitary, random_state


def bell_pair():
    return StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def two_bell_pairs():
    # canonical A-side-first layout: amplitudes are the flattened I4 / 2
    return StateVector(4, np.eye(4).reshape(-1) / 2)


def ghz4():
    amps = np.zeros(16)
    amps[0] = amps[15] = 1 / np.sqrt(2)
    return StateVector(4, amps)


class TestChannelFromState:
    def test_bell_pair_matrix(self):
        ch = channel_from_state(bell_pair(), 1)
        assert np.allclose(ch.e_matrix, np.eye(2) / np.sqrt(2))

    def test_two_bell_pairs_matrix(self):
        ch = channel_from_state(two_bell_pairs(), 2)
        assert np.allclose(ch.e_matrix, np.eye(4) / 2)

    def test_ghz_corner_matrix(self):
        ch = channel_from_state(ghz4(), 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1 / np.sqrt(2)
        assert np.allclose(ch.e_matrix, expected)

    def test_reshape_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        state = random_state(4, rng)
        ch = channel_from_state(state, 2)
        assert np.array_equal(state_from_matrix(ch.e_matrix, 2).amplitudes, state.amplitudes)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ShapeError):
            channel_from_state(bell_pair(), 2)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_odd_qubit_count_reported_first(self, n):
        # for any n, an odd count is named as such, not as a mismatch with 2n
        with pytest.raises(ShapeError, match="even qubit count, got 3 qubits"):
            channel_from_state(StateVector(3, np.eye(8)[0]), n)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            channel_from_state(StateVector(2, np.array([1, 0, 0, 1.0])), 1)


class TestIsPerfect:
    def test_bell_pair_perfect(self):
        ok, dev = is_perfect(channel_from_state(bell_pair(), 1))
        assert ok and dev < 1e-15

    def test_ghz_fails_with_quarter_deviation(self):
        ok, dev = is_perfect(channel_from_state(ghz4(), 2))
        assert not ok
        assert dev == pytest.approx(0.25, abs=1e-15)

    def test_scaled_random_unitary_is_perfect(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            q = haar_random_unitary(4, rng)
            ch = channel_from_state(state_from_matrix(q / 2, 2), 2)
            ok, _ = is_perfect(ch)
            assert ok

    def test_invariant_under_b_side_unitary(self):
        rng = np.random.default_rng(2)
        e = haar_random_unitary(4, rng) / 2
        for _ in range(20):
            v = haar_random_unitary(4, rng)
            ch = channel_from_state(state_from_matrix(e @ v.T, 2), 2)
            ok, dev = is_perfect(ch)
            assert ok and dev < 1e-9


class TestConcurrence:
    def test_bell_pair_maximal(self):
        assert concurrence_2q(bell_pair()) == pytest.approx(1.0)

    def test_product_state_zero(self):
        s = StateVector(2, np.array([1.0, 0, 0, 0]))
        assert concurrence_2q(s) == pytest.approx(0.0, abs=1e-15)

    def test_matches_determinant_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = random_state(2, rng)
            a, b, c, d = s.amplitudes
            assert concurrence_2q(s) == pytest.approx(2 * abs(a * d - b * c), abs=1e-10)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        s = random_state(2, rng)
        rotated = StateVector(2, np.exp(0.7j) * s.amplitudes)
        assert abs(concurrence_2q(s) - concurrence_2q(rotated)) < 1e-12

    def test_requires_two_qubits(self):
        with pytest.raises(ShapeError):
            concurrence_2q(random_state(3, np.random.default_rng(5)))


def test_concurrence_leaves_magic_unloaded():
    # channel needs nothing from magic, so it does not close an import cycle through it
    src = os.path.dirname(os.path.dirname(qtel.__file__))
    code = ("import sys; from qtel.channel import concurrence_2q; from qtel.linalg import "
            "StateVector; assert concurrence_2q(StateVector(2, [0.6, 0, 0, 0.8])) > 0.9; "
            "sys.exit('qtel.magic' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
