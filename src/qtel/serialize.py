"""JSON file formats for states and matrices.

States: {"n_qubits": int, "amplitudes": [[re, im], ...]} with 2^n_qubits
entries, index big-endian.  Matrices: {"rows", "cols", "entries": [[re,
im], ...]} row-major.  Complex numbers are always two-element arrays.

A Bell basis is written from its row table: every row of every member is a
row of `bell.Members.table`, so `basis_to_list` encodes each row of the table
once and lays out each member from the rows `Members.rows` names, 256 members
at a time; for a generated basis that is 4·2^n rows, not 16^n entries.  It
yields the text in pieces, each formed as `cli._emit` writes it, so no more
than one member's text is held at once.

numpy and the array layers are imported by the functions that build arrays,
after the checks that need none (JSON syntax, fields, an integer `n_qubits`,
entries that are JSON numbers).
"""

from __future__ import annotations

import itertools
import json
from typing import TYPE_CHECKING

from .errors import ValidationError, excerpt

if TYPE_CHECKING:
    import numpy as np
    from .linalg import StateVector


def dumps(value) -> str:
    """Compact JSON text with sorted keys, the form of every ``--format json`` report."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _to_pairs(a: np.ndarray) -> list[list[float]]:
    """The row-major [[re, im], ...] list of a complex array of any shape."""
    import numpy as np
    return np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()


def pairs_to_array(pairs, what: str) -> np.ndarray:
    # a list of lists of JSON numbers, checked before numpy is imported: numpy would read
    # "1" and true as numbers
    if type(pairs) is not list or set(map(type, pairs)) - {list}:
        raise ValidationError(f"{what}: entries must be [re, im] pairs")
    others = set(map(type, itertools.chain.from_iterable(pairs))) - {int, float}
    if others:
        entry = next(x for x in itertools.chain.from_iterable(pairs) if type(x) in others)
        raise ValidationError(f"{what}: entries must be JSON numbers, got {excerpt(entry)}")
    import numpy as np
    try:
        arr = np.asarray(pairs, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValidationError(f"{what}: {exc}") from exc
    except ValueError as exc:  # pairs of different lengths
        raise ValidationError(f"{what}: entries must be [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"{what}: entries must be [re, im] pairs")
    with np.errstate(invalid="ignore"):  # 1j·inf is nan + inf·j; StateVector refuses it
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
    if type(value) is not int:  # a JSON integer: not 1.9, "1" or true
        raise ValidationError(f"{what} must be an integer, got {excerpt(value)}")
    return value


def state_from_dict(data: dict) -> StateVector:
    n_qubits, amplitudes = _fields(data, ("n_qubits", "amplitudes"), "state file")
    n_qubits = _integer(n_qubits, "n_qubits")
    amplitudes = pairs_to_array(amplitudes, "amplitudes")
    from .linalg import StateVector
    return StateVector(n_qubits, amplitudes)


def matrix_from_dict(data: dict) -> np.ndarray:
    rows, cols, entries = _fields(data, ("rows", "cols", "entries"), "matrix object")
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
    if rows < 1 or cols < 1:
        raise ValidationError(
            f"matrix object: {excerpt(rows)}x{excerpt(cols)} is not a matrix shape")
    flat = pairs_to_array(entries, "entries")
    if flat.size != rows * cols:
        raise ValidationError(
            f"matrix object: expected {excerpt(rows * cols)} entries, got {flat.size}"
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
        except (ValueError, RecursionError) as exc:  # an int over 4300 digits, or nesting ~1000 deep
            raise ValidationError(f"{path}: {exc}") from exc


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


def basis_to_list(members):
    """The JSON array of `members`, a `bell.Members`, as an iterator of pieces: the opening
    bracket, each member's ``{"cols", "entries", "rows"}`` object with the comma before
    it, and the closing bracket.

    Each row of `members.table` is encoded once, and each member is joined from the
    rows `members.rows` names, 256 members at a time, so every float is the one the
    member gives.  Each piece is formed when it is read, as `cli._emit` writes it, so
    ``bell gen`` holds one member's text at a time, never all of them.  The name is
    kept from when this returned a list of dicts: the benchmark's traced run reports
    it as ``serialize.basis_to_list.ms``.
    """
    d = 2**members.n
    pairs = _to_pairs(members.table)
    rows = [dumps(pairs[i:i + d])[1:-1] for i in range(0, len(pairs), d)]
    head, tail = f'{{"cols":{d},"entries":[', f'],"rows":{d}}}'
    texts = (head + ",".join([rows[i] for i in member]) + tail
             for start in range(0, len(members), 256)
             for member in members.rows(start, start + 256).tolist())
    yield "["
    for k, text in enumerate(texts):
        yield ("," if k else "") + text
    yield "]"


def load_basis_members(path: str) -> list[np.ndarray]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a JSON array of matrix objects")
    try:
        return [matrix_from_dict(item) for item in data]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
