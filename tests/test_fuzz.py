"""Hypothesis fuzz of the CLI contract, run in process through `qtel.cli.main`.

Inputs are state and basis files mutated from valid ones (dropped keys,
wrong types, NaN, Infinity, huge and out-of-float-range entries, values nested
5,000 deep, truncated text, ragged entries, wrong counts, odd or oversized
integer fields), and argument lists over every leaf command.  The contract:
argparse refuses with ``SystemExit(2)``; otherwise the exit code is 0, 1 or
2, a printed report comes with empty stderr, and without a report stderr is
exactly one ``error:`` line of under 200 bytes besides the temporary paths it
names; no other exception escapes (a numpy ``RuntimeWarning`` is an error
under this suite's settings).  Trials, shots
and every N that looks valid are kept small, so that each example takes
milliseconds.  Files are written to a temporary directory.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtel.bell import standard_basis
from qtel.cli import main
from qtel.serialize import basis_to_list

# the integer fields of a file, and --n, take these besides their valid values
ODD_SIZES = [-1, 0, 1, 1.5, "2", True, 5000, 20000, 2**70, 10**4000, -10**4000]
WRONG_TYPES = [None, "x", [], {}, 1.5, True, [[1, 0]]]
EXTREME = [float("nan"), float("inf"), float("-inf"), 1e200, -1e308, 10**400]
# a value nested this deep is written as raw text: json.dumps itself raises RecursionError
NESTED = "[" * 5000 + "]" * 5000
NESTED_MARK = "nested-5000-deep"


def check_contract(argv: list[str], directory: str = ""):
    """The contract for ``qtel <argv>``; `directory` holds its temporary files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            assert exc.code == 2, argv
            line = err.getvalue().splitlines()[-1]  # after the usage lines
            assert len(line.replace(directory, "").encode()) < 200, (argv, line[:300])
            return
    assert code in (0, 1, 2), argv
    if out.getvalue():
        assert err.getvalue() == "", argv
    else:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert len(lines[0].replace(directory, "").encode()) < 200, (argv, lines)


def state_doc(n_qubits: int, kind: str, seed: int) -> dict:
    """A valid state: Bell pairs across the halves (even n_qubits), a product or a random state."""
    dim = 2**n_qubits
    if kind == "pairs":
        half = 2 ** (n_qubits // 2)
        amps = np.eye(half).reshape(-1) / np.sqrt(half)
    elif kind == "product":
        amps = np.eye(dim)[0]
    else:
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps = amps / np.linalg.norm(amps)
    amps = np.asarray(amps, dtype=complex)
    return {"n_qubits": n_qubits, "amplitudes": [[a.real, a.imag] for a in amps.tolist()]}


def basis_doc(n: int) -> list:
    return json.loads("".join(basis_to_list(standard_basis(n).members)))


@st.composite
def mutated(draw, doc) -> str:
    """The JSON text of `doc` after one or two mutations, perhaps truncated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        objects = [doc] if isinstance(doc, dict) else [m for m in doc if isinstance(m, dict)]
        kind = draw(st.sampled_from(["drop", "type", "size", "nested", "extreme", "ragged",
                                     "count", "top"]))
        if kind == "top" or not objects:  # the file holds another JSON value
            doc = draw(st.sampled_from([42, "x", None, [], {}, [doc]]))
            break
        target = draw(st.sampled_from(objects))
        keys = sorted(target)
        if not keys:
            continue
        entries = target.get("amplitudes", target.get("entries"))
        if kind == "drop":
            del target[draw(st.sampled_from(keys))]
        elif kind == "type":
            target[draw(st.sampled_from(keys))] = draw(st.sampled_from(WRONG_TYPES))
        elif kind == "size":
            sizes = [k for k in ("n_qubits", "rows", "cols") if k in target] or keys
            target[draw(st.sampled_from(sizes))] = draw(st.sampled_from(ODD_SIZES))
        elif kind == "nested":
            target[draw(st.sampled_from(keys))] = NESTED_MARK
        elif not isinstance(entries, list) or not entries:
            continue
        elif kind == "extreme":
            value = draw(st.sampled_from(EXTREME))
            entries[draw(st.integers(0, len(entries) - 1))] = draw(
                st.sampled_from([[value, 0.0], [0.0, value]]))
        elif kind == "ragged":
            pair = draw(st.integers(0, len(entries) - 1))
            entries[pair] = draw(st.sampled_from([[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], 1.0]))
        elif draw(st.booleans()):  # count: one entry fewer
            del entries[draw(st.integers(0, len(entries) - 1))]
        else:  # count: one entry more
            entries.append(entries[0])
    if isinstance(doc, list) and doc and draw(st.integers(0, 4)) == 0:  # one member more or fewer
        doc = doc[1:] if draw(st.booleans()) else doc + doc[:1]
    text = json.dumps(doc).replace(json.dumps(NESTED_MARK), NESTED)  # and NaN, Infinity as such
    if draw(st.integers(0, 5)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_with_files(argv: list[str], texts: dict[str, str]):
    """`check_contract` of ``argv`` plus each ``flag path`` of a file holding ``texts[flag]``."""
    with tempfile.TemporaryDirectory() as directory:
        for i, (flag, text) in enumerate(sorted(texts.items())):
            argv = argv + [flag, _write(directory, f"input{i}.json", text)]
        check_contract(argv, directory)


FORMATS = st.sampled_from([["--format", "json"], ["--format", "text"]])
SAMPLING = st.sampled_from([[], ["--mode", "sampled", "--seed", "1", "--shots", "1000"]])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fmt=FORMATS, n=st.integers(1, 3), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["pairs", "product", "random"]),
       command=st.sampled_from(["channel check", "bell gen", "masfi", "teleport run"]))
def test_mutated_state_files_keep_the_contract(data, fmt, n, seed, kind, command):
    if command == "teleport run":
        files = {"--info": state_doc(n, "random", seed), "--channel": state_doc(2 * n, kind, seed)}
        fmt = fmt + command.split() + data.draw(SAMPLING)
    else:
        flag = {"channel check": "--file", "bell gen": "--seed-file", "masfi": "--channel"}
        files = {flag[command]: state_doc(2 if command == "masfi" else 2 * n, kind, seed)}
        fmt = fmt + command.split()
    chosen = data.draw(st.sampled_from(sorted(files)))
    run_with_files(fmt, {flag: data.draw(mutated(doc)) if flag == chosen else json.dumps(doc)
                         for flag, doc in files.items()})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fmt=FORMATS, n=st.integers(1, 2))
def test_mutated_basis_files_keep_the_contract(data, fmt, n):
    # a --basis file holds 4^n members of 2^n x 2^n entries, so n <= 2
    texts = {"--info": json.dumps(state_doc(n, "random", n)),
             "--channel": json.dumps(state_doc(2 * n, "pairs", 0)),
             "--basis": data.draw(mutated(basis_doc(n)))}
    run_with_files(fmt + ["teleport", "run"] + data.draw(SAMPLING), texts)


LETTERS = "a" * 100_000  # a value argparse refuses, which its error quotes by an excerpt
N_VALUES = ["-1", "0", "1", "2", "3", "1.5", "abc", "", "5000", "20000", str(2**70), "9" * 4000,
            "9" * 4300, LETTERS]
SEEDS = ["-1", "0", "1", "abc", str(2**70)]


def _options(directory: str) -> dict[str, dict[str, list[str]]]:
    """For each leaf command, its options and the values each may take (valid or not)."""
    files = [os.path.join(directory, "missing.json"), directory]
    for n in (1, 2):
        files.append(_write(directory, f"info{n}.json", json.dumps(state_doc(n, "random", n))))
        files.append(_write(directory, f"basis{n}.json", json.dumps(basis_doc(n))))
    for n in (1, 2, 3):
        for kind in ("pairs", "random"):
            files.append(_write(directory, f"{kind}{2 * n}.json",
                                json.dumps(state_doc(2 * n, kind, n))))
    return {
        "channel check": {"--file": files},
        "bell gen": {"--n": N_VALUES, "--seed-file": files},
        "teleport run": {"--info": files, "--channel": files, "--basis": files,
                         "--mode": ["exhaustive", "sampled", "other", LETTERS],
                         "--shots": ["-1", "0", "1", "1000", "1e3", "100000000000000000000"],
                         "--seed": SEEDS, "--expect-perfect": []},
        "magic cliques": {"--n": N_VALUES},
        "magic catalog": {"--n": N_VALUES},  # takes no --n: argparse refuses it
        "magic verify": {"--set": ["F,G", "F,G,H", "1,2", "0", "99", "XX,ZZ", "IZ", "X,ZZ",
                                   "²", "1" * 5000, "7" * 4000, "", ",", "Q", "-i·XY"],
                         "--n": N_VALUES, "--trials": ["-1", "0", "1", "20", "abc"],
                         "--seed": SEEDS},
        "magic witness": {"--n": N_VALUES},
        "masfi": {"--channel": files},
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_argument_lists_keep_the_contract(data):
    with tempfile.TemporaryDirectory() as directory:
        options = _options(directory)
        command = data.draw(st.sampled_from(sorted(options)))
        argv = data.draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
        argv += data.draw(st.sampled_from([[], ["--tol", "1e-6"], ["--tol", "1e-17"],
                                           ["--tol", "0"], ["--tol", "nan"], ["--tol", LETTERS]]))
        argv += command.split()
        for flag in data.draw(st.lists(st.sampled_from(sorted(options[command])), unique=True)):
            values = options[command][flag]
            argv += [flag] + ([data.draw(st.sampled_from(values))] if values else [])
        if data.draw(st.integers(0, 9)) == 0:  # an unknown option, or a stray word or command
            argv.insert(data.draw(st.integers(0, len(argv))),
                        data.draw(st.sampled_from(["--bogus", LETTERS])))
        check_contract(argv, directory)
