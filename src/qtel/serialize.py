"""JSON file formats for states and matrices.

States: {"n_qubits": int, "amplitudes": [[re, im], ...]} with 2^n_qubits
entries, index big-endian.  Matrices: {"rows", "cols", "entries": [[re,
im], ...]} row-major.  Complex numbers are always two-element arrays.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .linalg import StateVector


def _to_pairs(a: np.ndarray) -> list[list[float]]:
    """The row-major [[re, im], ...] list of a complex array of any shape."""
    return np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()


def pairs_to_array(pairs, what: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: entries must be [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"{what}: entries must be [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def state_to_dict(state: StateVector) -> dict:
    return {
        "n_qubits": state.n_qubits,
        "amplitudes": _to_pairs(state.amplitudes),
    }


def _fields(data, keys: tuple[str, ...], what: str) -> list:
    if not isinstance(data, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    for key in keys:
        if key not in data:
            raise ValidationError(f"{what}: missing field {key!r}")
    return [data[key] for key in keys]


def _integer(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from exc


def state_from_dict(data: dict) -> StateVector:
    n_qubits, amplitudes = _fields(data, ("n_qubits", "amplitudes"), "state file")
    return StateVector(_integer(n_qubits, "n_qubits"), pairs_to_array(amplitudes, "amplitudes"))


def matrix_to_dict(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=np.complex128)
    return {
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "entries": _to_pairs(matrix),
    }


def matrix_from_dict(data: dict) -> np.ndarray:
    rows, cols, entries = _fields(data, ("rows", "cols", "entries"), "matrix object")
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
    if rows < 1 or cols < 1:
        raise ValidationError(f"matrix object: {rows}x{cols} is not a matrix shape")
    flat = pairs_to_array(entries, "entries")
    if flat.size != rows * cols:
        raise ValidationError(
            f"matrix object: expected {rows * cols} entries, got {flat.size}"
        )
    return flat.reshape(rows, cols)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_state(path: str) -> StateVector:
    data = _load_json(path)
    try:
        return state_from_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_state(path: str, state: StateVector):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh)
        fh.write("\n")


def basis_to_list(members) -> list[dict]:
    return [matrix_to_dict(m) for m in members]


def load_basis_members(path: str) -> list[np.ndarray]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a JSON array of matrix objects")
    try:
        return [matrix_from_dict(item) for item in data]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
