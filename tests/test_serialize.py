import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtel.bell import Members, standard_basis
from qtel.errors import ValidationError
from qtel.linalg import StateVector, haar_random_unitary, random_state
from qtel.pauli import signed_copies
from qtel.serialize import (
    _to_pairs,
    basis_to_list,
    load_basis_members,
    load_state,
    matrix_from_dict,
    pairs_to_array,
    save_state,
    state_from_dict,
    state_to_dict,
)


def matrix_to_dict(matrix) -> dict:
    """One matrix object of a ``--basis`` file, encoded on its own with the array encoder:
    the reference for `basis_to_list`, and how the tests write basis files."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return {"rows": matrix.shape[0], "cols": matrix.shape[1], "entries": _to_pairs(matrix)}


def dense_store(matrices) -> Members:
    """The dense store of `matrices`, a (4^n, 2^n, 2^n) stack, as `bell_basis_from_members`
    builds it but unchecked."""
    stack = np.stack(matrices)
    return Members(stack.reshape(-1, stack.shape[-1]))


class TestStateRoundTrip:
    def test_dict_round_trip(self):
        s = random_state(2, np.random.default_rng(0))
        restored = state_from_dict(state_to_dict(s))
        assert restored.n_qubits == 2
        assert np.array_equal(restored.amplitudes, s.amplitudes)

    def test_file_round_trip(self, tmp_path):
        s = random_state(3, np.random.default_rng(1))
        path = tmp_path / "state.json"
        save_state(str(path), s)
        restored = load_state(str(path))
        assert np.array_equal(restored.amplitudes, s.amplitudes)

    def test_complex_amplitudes_as_pairs(self):
        s = StateVector(1, np.array([1j, 0]))
        data = state_to_dict(s)
        assert data["amplitudes"][0] == [0.0, 1.0]

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="missing field"):
            state_from_dict({"amplitudes": [[1, 0], [0, 0]]})

    def test_scalar_amplitudes_rejected(self):
        with pytest.raises(ValidationError, match="pairs"):
            state_from_dict({"n_qubits": 1, "amplitudes": [1.0, 0.0]})


class TestMatrixRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)

    def test_non_square_round_trip(self):
        m = np.arange(6, dtype=complex).reshape(2, 3)
        restored = matrix_from_dict(matrix_to_dict(m))
        assert restored.shape == (2, 3)
        assert np.array_equal(restored, m)

    def test_entry_count_checked(self):
        data = matrix_to_dict(np.eye(2))
        data["entries"].pop()
        with pytest.raises(ValidationError, match="expected 4 entries"):
            matrix_from_dict(data)


def _signed_zeros(shape, seed) -> np.ndarray:
    """A random complex array with +0.0 and -0.0 in both parts."""
    rng = np.random.default_rng(seed)
    a = np.empty(shape, dtype=np.complex128)
    a.real, a.imag = rng.standard_normal(shape), rng.standard_normal(shape)
    for part in (a.real, a.imag):
        flat = part.reshape(-1)
        flat[0::3], flat[1::5] = -0.0, 0.0
    return a


def _per_entry(a: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in a.reshape(-1)]


class TestCodec:
    """The array encoder writes what a per-entry loop writes, signed zeros included."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (32, 32)])
    def test_matrix_entries_match_per_entry_reference(self, shape):
        m = _signed_zeros(shape, sum(shape))
        data = matrix_to_dict(m)
        assert (data["rows"], data["cols"]) == shape
        # json.dumps tells -0.0 from 0.0, which == does not
        assert json.dumps(data["entries"]) == json.dumps(_per_entry(m))

    @pytest.mark.parametrize("n_qubits", [1, 10])
    def test_state_amplitudes_match_per_entry_reference(self, n_qubits):
        amps = _signed_zeros(2**n_qubits, n_qubits)
        data = state_to_dict(StateVector(n_qubits, amps))
        assert json.dumps(data["amplitudes"]) == json.dumps(_per_entry(amps))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (32, 32)])
    def test_decoder_inverts_encoding(self, shape):
        m = _signed_zeros(shape, sum(shape))
        decoded = pairs_to_array(matrix_to_dict(m)["entries"], "entries")
        # == ignores the sign of zero, which pairs_to_array does not keep
        assert np.array_equal(decoded.view(np.float64), m.reshape(-1).view(np.float64))


class TestBasisFiles:
    def test_round_trip(self, tmp_path):
        members = [np.eye(2, dtype=complex) / np.sqrt(2) for _ in range(4)]
        path = tmp_path / "basis.json"
        path.write_text("".join(basis_to_list(dense_store(members))))
        restored = load_basis_members(str(path))
        assert len(restored) == 4
        assert all(np.array_equal(r, m) for r, m in zip(restored, members))

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text("{}")
        with pytest.raises(ValidationError, match="array"):
            load_basis_members(str(path))


def dense_encoding(members) -> str:
    return json.dumps([matrix_to_dict(m) for m in members], sort_keys=True, separators=(",", ":"))


def mismatch(text: str, reference: str):
    """None for equal texts, else the first differing index and both texts around it.

    Megabyte texts are compared this way because pytest's diff of two long
    strings that differ takes minutes.
    """
    if text == reference:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b),
              min(len(text), len(reference)))
    window = slice(max(at - 40, 0), at + 40)
    return at, text[window], reference[window]


class TestBasisEncoding:
    """`basis_to_list` against the member-by-member encoding it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_standard_basis(self, n):
        members = standard_basis(n).members
        assert mismatch("".join(basis_to_list(members)), dense_encoding(members)) is None

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), rng_seed=st.integers(0, 2**32 - 1),
           zero_fraction=st.sampled_from([0.0, 0.25, 0.5]))
    @example(n=1, rng_seed=0, zero_fraction=0.5)
    def test_haar_seed_with_signed_zeros(self, n, rng_seed, zero_fraction):
        rng = np.random.default_rng(rng_seed)
        d = 2**n
        seed = haar_random_unitary(d, rng) / np.sqrt(d)
        parts = seed.view(np.float64)  # real and imaginary parts, interleaved
        hit = rng.random(parts.shape) < zero_fraction
        parts[hit] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[hit]
        members = Members(signed_copies(seed, axis=0) + 0.0, seed)
        assert mismatch("".join(basis_to_list(members)), dense_encoding(members)) is None

    def test_dense_member_list(self):
        rng = np.random.default_rng(7)
        members = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(16)]
        members[3][1, 2] = complex(-0.0, 0.0)
        text = "".join(basis_to_list(dense_store(members)))
        assert mismatch(text, dense_encoding(members)) is None
        assert "[-0.0,0.0]" in text  # a dense table is written as given, its -0.0 kept


class TestDiagnostics:
    def test_syntax_error_has_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n_qubits": 1,\n  "amplitudes": [[1, 0], }')
        with pytest.raises(ValidationError, match=r"line 2, column"):
            load_state(str(path))

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 1}')
        with pytest.raises(ValidationError, match="bad.json"):
            load_state(str(path))
