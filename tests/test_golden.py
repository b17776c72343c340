"""Replay of the committed CLI output corpus.

`golden/<group>.json` lists, for one command group, ``qtel`` invocations
over the input files in `golden/inputs/`, each with the exit code it gave
and the sha256 of the stdout it printed when the corpus was written, and,
for a ``--format json`` report, the report decoded (`bell gen`'s without
its ``members``, which the digest covers).  The groups are `teleport run`,
`channel check`, `bell gen`, the `magic` subcommands, `masfi`, and the
malformed inputs of `test_cli.MALFORMED`.  The replay runs each invocation
in process.  On every platform it compares exit codes, and each recorded
report with the one printed now: the same keys, equal non-float values and
every float within FLOAT_BOUND = 1e-9.  It compares stdout digests only
under the numpy version and BLAS build recorded in the corpus: another
numpy or BLAS (CI on an older Python resolves an older numpy) may round
the last bit of a probability differently.  Stdout is hashed exactly as
printed, never rounded.  Stderr must be empty when a report was printed,
and one ``error: `` line when none was; a numpy ``RuntimeWarning`` raised
on the way fails the case.

To rewrite the inputs and every corpus file, which is right only when a
change of stdout is intended, run from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py

and to print, for each recorded report, the largest |Δ| of each of its
fields between the corpus and the working tree:

    PYTHONPATH=src python tests/test_golden.py --diff
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import sys
import warnings

import numpy as np
import pytest

from qtel.bell import generate_from_seed, standard_basis
from qtel.channel import state_from_matrix
from qtel.cli import main
from qtel.linalg import StateVector, haar_random_unitary, random_state
from qtel.serialize import basis_to_list, save_state
from test_cli import MALFORMED

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GROUPS = ("teleport_run", "channel_check", "bell_gen", "magic", "masfi", "malformed")
# how far a float of a report may move on any platform: the default tolerance, above the
# MASFI refinement's 1e-10 stopping rule and far above a rounding difference of BLAS builds
FLOAT_BOUND = 1e-9


def corpus_path(group: str) -> str:
    return os.path.join(GOLDEN, f"{group}.json")


def versions() -> dict:
    """The numpy version and BLAS build that stdout digests depend on."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):  # numpy < 1.26 has no build CONFIG
        build = None
    return {"numpy": np.__version__, "blas": build}


def invoke(argv: list[str]) -> tuple[int, str, str, str]:
    """Exit code, stdout, its sha256 and stderr of ``qtel <argv>``, run in the corpus directory.

    A ``RuntimeWarning`` is raised as an exception, so it cannot pass unseen.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    return code, stdout, hashlib.sha256(stdout.encode()).hexdigest(), err.getvalue()


def _recorded(group: str) -> dict:
    if not os.path.exists(corpus_path(group)):  # only while the corpus is first written
        return {"versions": None, "invocations": []}
    with open(corpus_path(group)) as fh:
        return json.load(fh)


RECORDED = {group: _recorded(group) for group in GROUPS}


def decoded(stdout: str):
    """The report of a ``--format json`` stdout, None for any other.

    `bell gen`'s ``members`` are cut from the text before it is decoded: the
    digest covers them, and at N = 5 they are 40 MB of text.
    """
    if not stdout.startswith("{"):
        return None
    start = stdout.find(',"members":')
    if start >= 0:  # a list of objects, so its text ends at the first "}]"
        stdout = stdout[:start] + stdout[stdout.index("}]", start) + 2:]
    return json.loads(stdout)


def deltas(recorded, current, field: str = "", table: dict | None = None) -> dict:
    """The largest |Δ| of each field between two decoded reports.

    A field is a key path, its list indices written ``[]``.  Equal non-float
    values count 0; a key, a list length, a type or a non-float value that
    differs counts inf.
    """
    table = {} if table is None else table
    kind = type(recorded) if type(recorded) is type(current) else None
    if kind is dict and recorded.keys() == current.keys():
        for key in recorded:
            deltas(recorded[key], current[key], f"{field}.{key}" if field else key, table)
        return table
    if kind is list and len(recorded) == len(current):
        for old, new in zip(recorded, current):
            deltas(old, new, field + "[]", table)
        return table
    if kind is float:
        delta = abs(recorded - current)
    else:
        delta = 0.0 if kind is not None and recorded == current else math.inf
    table[field] = max(table.get(field, 0.0), delta)
    return table


def _replay(case: dict, recorded: dict):
    code, stdout, digest, stderr = invoke(case["argv"])
    assert code == case["exit_code"]
    if stdout:  # a report: exit 0, or 1 for a failed numerical assertion
        assert code in (0, 1) and stderr == ""
    else:
        assert code != 0
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    if "report" in case:
        table = deltas(case["report"], decoded(stdout))
        assert not {field: delta for field, delta in table.items() if not delta <= FLOAT_BOUND}
    if versions() == recorded["versions"]:
        assert digest == case["stdout_sha256"]


@pytest.mark.parametrize("case", RECORDED["teleport_run"]["invocations"],
                         ids=[c["id"] for c in RECORDED["teleport_run"]["invocations"]])
def test_teleport_run_replays_the_corpus(case):
    _replay(case, RECORDED["teleport_run"])


_OTHER_CASES = [(group, case) for group in GROUPS[1:] for case in RECORDED[group]["invocations"]]


@pytest.mark.parametrize(("group", "case"), _OTHER_CASES,
                         ids=[f"{group}:{case['id']}" for group, case in _OTHER_CASES])
def test_replays_the_corpus(group, case):
    _replay(case, RECORDED[group])


def test_corpus_is_present():
    assert len(RECORDED["teleport_run"]["invocations"]) >= 20
    for group in GROUPS:
        assert RECORDED[group]["invocations"], group
    for group in GROUPS[:-1]:  # the malformed inputs print no report
        assert any("report" in case for case in RECORDED[group]["invocations"]), group


# --- writing the corpus ------------------------------------------------------


def _write_inputs(rng) -> None:
    def save(name, state):
        save_state(os.path.join(GOLDEN, "inputs", name), state)

    os.makedirs(os.path.join(GOLDEN, "inputs"), exist_ok=True)
    for n in (1, 2, 3):
        d = 2**n
        save(f"info_n{n}.json", random_state(n, rng))
        save(f"basis_state_n{n}.json", StateVector(n, np.eye(d)[d - 1]))
        save(f"perfect_n{n}.json", state_from_matrix(haar_random_unitary(d, rng) / np.sqrt(d), n))
        save(f"imperfect_n{n}.json", random_state(2 * n, rng))
        ghz = np.zeros(d * d)
        ghz[0] = ghz[-1] = 2**-0.5
        save(f"ghz_n{n}.json", StateVector(2 * n, ghz))
    haar_seed = state_from_matrix(haar_random_unitary(2, rng) / np.sqrt(2), 1)
    for name, basis in (("members_n1.json", generate_from_seed(haar_seed)),
                        ("members_n2.json", standard_basis(2))):
        with open(os.path.join(GOLDEN, "inputs", name), "w") as fh:
            members = json.loads("".join(basis_to_list(basis.members)))
            json.dump([{key: m[key] for key in ("rows", "cols", "entries")} for m in members], fh)
            fh.write("\n")
    save("haar_seed_n3.json", state_from_matrix(haar_random_unitary(8, rng) / np.sqrt(8), 3))
    # two-qubit channels of Schmidt coefficients (cos π/8, sin π/8) and (1, 0)
    save("schmidt_n1.json", StateVector(2, [np.cos(np.pi / 8), 0, 0, np.sin(np.pi / 8)]))
    save("product_n1.json", StateVector(2, np.eye(4)[0]))
    # a Bell pair written with signed zeros in both parts
    s = 2**-0.5
    signed = {"n_qubits": 2, "amplitudes": [[s, -0.0], [-0.0, 0.0], [0.0, -0.0], [-s, -0.0]]}
    with open(os.path.join(GOLDEN, "inputs", "signed_zero_seed_n1.json"), "w") as fh:
        json.dump(signed, fh)
        fh.write("\n")
    # drawn last, so that every input above keeps its draws: seeds whose completeness
    # deviation is not 0.0 at sizes where the sum is evaluated in several blocks
    for n in (4, 5):
        d = 2**n
        save(f"haar_seed_n{n}.json", state_from_matrix(haar_random_unitary(d, rng) / np.sqrt(d), n))


def _teleport_run() -> list[tuple[str, list[str]]]:
    def run(info, channel, *extra):
        return ["--format", "json", "teleport", "run", "--info", f"inputs/{info}.json",
                "--channel", f"inputs/{channel}.json", *extra]

    cases = []
    for n in (1, 2, 3):
        for kind in ("perfect", "imperfect", "ghz"):
            cases.append((f"{kind}.n{n}", run(f"info_n{n}", f"{kind}_n{n}")))
            cases.append((f"{kind}.expect_perfect.n{n}",
                          run(f"info_n{n}", f"{kind}_n{n}", "--expect-perfect")))
        cases.append((f"ghz.basis_state.n{n}", run(f"basis_state_n{n}", f"ghz_n{n}")))
        cases.append((f"sampled.perfect.n{n}",
                      run(f"info_n{n}", f"perfect_n{n}", "--mode", "sampled", "--seed", "5",
                          "--shots", "1000")))
        cases.append((f"sampled.imperfect.n{n}",
                      run(f"info_n{n}", f"imperfect_n{n}", "--mode", "sampled", "--seed", "11",
                          "--shots", "257")))
    for n in (1, 2):
        for kind in ("perfect", "imperfect"):
            members = f"inputs/members_n{n}.json"
            cases.append((f"members.{kind}.n{n}",
                          run(f"info_n{n}", f"{kind}_n{n}", "--basis", members)))
    cases += [
        ("sampled.no_seed.n2", run("info_n2", "perfect_n2", "--mode", "sampled", "--shots", "10")),
        ("sampled.no_shots.n2", run("info_n2", "perfect_n2", "--mode", "sampled", "--seed", "1")),
        ("channel_size_mismatch", run("info_n1", "perfect_n2")),
        ("tol.imperfect.n2", ["--tol", "1e-3", *run("info_n2", "imperfect_n2")]),
    ]
    return cases


def _channel_check() -> list[tuple[str, list[str]]]:
    def check(name, *options):
        return [*options, "--format", "json", "channel", "check", "--file", f"inputs/{name}.json"]

    cases = []
    for n in (1, 2, 3):
        for kind in ("perfect", "imperfect", "ghz"):
            cases.append((f"{kind}.n{n}", check(f"{kind}_n{n}")))
    cases += [
        ("odd_qubits.n1", check("info_n1")),
        ("odd_qubits.n3", check("info_n3")),
        ("tol.ghz.n2", check("ghz_n2", "--tol", "0.5")),
        ("text.perfect.n2", check("perfect_n2")[2:]),
        ("text.ghz.n2", check("ghz_n2")[2:]),
    ]
    return cases


def _bell_gen() -> list[tuple[str, list[str]]]:
    def gen(*options):
        return ["--format", "json", "bell", "gen", *options]

    cases = [(f"standard.n{n}", gen("--n", str(n))) for n in (1, 2, 3, 4, 5)]
    for name in ("perfect_n1", "perfect_n2", "ghz_n1", "ghz_n2", "signed_zero_seed_n1",
                 "imperfect_n1", "product_n1", "info_n1", "haar_seed_n3", "haar_seed_n4",
                 "haar_seed_n5"):
        cases.append((f"seed_file.{name}", gen("--seed-file", f"inputs/{name}.json")))
    cases += [
        ("tol.seed_file.imperfect_n1",
         ["--tol", "0.5", *gen("--seed-file", "inputs/imperfect_n1.json")]),
        ("text.standard.n1", ["bell", "gen", "--n", "1"]),
    ]
    return cases


def _magic() -> list[tuple[str, list[str]]]:
    def magic(*argv):
        return ["--format", "json", "magic", *argv]

    cases = [(f"cliques.n{n}", magic("cliques", "--n", str(n))) for n in (1, 2, 3)]
    cases += [(f"witness.n{n}", magic("witness", "--n", str(n))) for n in (2, 3)]
    cases += [
        ("catalog", magic("catalog")),
        ("text.witness.n2", ["magic", "witness", "--n", "2"]),
        ("text.cliques.n1", ["magic", "cliques", "--n", "1"]),
        ("verify.FGH", magic("verify", "--set", "F,G,H")),
        ("verify.FGH.seed7", magic("verify", "--set", "F,G,H", "--trials", "40", "--seed", "7")),
        ("verify.clique5", magic("verify", "--set", "2,3,5,9,13", "--n", "2", "--trials", "30")),
        ("verify.index.n1", magic("verify", "--set", "1,2,3", "--n", "1", "--trials", "20")),
        ("verify.index.n3", magic("verify", "--set", "1,2,3", "--n", "3", "--trials", "10")),
        ("verify.strings", magic("verify", "--set", "Z,X,Y", "--trials", "10")),
        ("verify.index_without_n", magic("verify", "--set", "1,2,3")),
        ("verify.commuting", magic("verify", "--set", "ZZ,XX")),
        ("verify.identity", magic("verify", "--set", "II,ZX")),
        ("verify.phased", magic("verify", "--set", "i·ZX,XZ")),
        ("verify.tol_1e-17", ["--tol", "1e-17", *magic("verify", "--set", "F,G,H",
                                                        "--trials", "20")]),
    ]
    return cases


def _masfi() -> list[tuple[str, list[str]]]:
    def masfi(name, *options):
        return [*options, "--format", "json", "masfi", "--channel", f"inputs/{name}.json"]

    cases = [(name, masfi(name)) for name in ("ghz_n1", "schmidt_n1", "product_n1",
                                               "perfect_n1", "imperfect_n1")]
    cases += [
        ("wrong_size.n2", masfi("ghz_n2")),
        ("odd_qubits.n1", masfi("info_n1")),
        ("tol.schmidt_n1", masfi("schmidt_n1", "--tol", "1e-6")),
        ("text.schmidt_n1", masfi("schmidt_n1")[2:]),
    ]
    return cases


def _malformed() -> list[tuple[str, list[str]]]:
    """`test_cli.MALFORMED`, its files written to `inputs/malformed/` (run in GOLDEN)."""
    directory = pathlib.Path("inputs", "malformed")
    directory.mkdir(exist_ok=True)
    return [(case, ["--format", "json",
                    *MALFORMED[case](directory, "inputs/info_n2.json", "inputs/perfect_n2.json")])
            for case in sorted(MALFORMED)]


_INVOCATIONS = {"teleport_run": _teleport_run, "channel_check": _channel_check,
                "bell_gen": _bell_gen, "magic": _magic, "masfi": _masfi, "malformed": _malformed}


def _dumps(corpus: dict) -> str:
    """`corpus` as JSON indented by one space, but each report compact on one line."""
    reports = []
    for case in corpus["invocations"]:
        if "report" in case:
            reports.append(json.dumps(case["report"], separators=(",", ":")))
            case["report"] = f"\0{len(reports) - 1}"
    text = json.dumps(corpus, indent=1)
    return re.sub(r'"\\u0000(\d+)"', lambda mark: reports[int(mark[1])], text) + "\n"


def write_corpus() -> None:
    _write_inputs(np.random.default_rng(20111006))
    cwd = os.getcwd()
    for group in GROUPS:
        os.chdir(GOLDEN)
        try:
            cases = _INVOCATIONS[group]()
        finally:
            os.chdir(cwd)
        invocations = []
        for case_id, argv in cases:
            code, stdout, digest, _ = invoke(argv)
            report = decoded(stdout)
            invocations.append({"id": case_id, "argv": argv, "exit_code": code,
                                **({} if report is None else {"report": report}),
                                "stdout_sha256": digest})
        with open(corpus_path(group), "w") as fh:
            fh.write(_dumps({"versions": versions(), "invocations": invocations}))


def print_diff() -> None:
    """Print the largest |Δ| of each field of each recorded report, corpus against working tree."""
    print(f"case\tfield\tlargest |Δ| (bound {FLOAT_BOUND:g}; inf: a key, length, type or "
          "non-float value differs)")
    for group in GROUPS:
        for case in RECORDED[group]["invocations"]:
            if "report" in case:
                _, stdout, _, _ = invoke(case["argv"])
                for field, delta in deltas(case["report"], decoded(stdout)).items():
                    print(f"{group}:{case['id']}\t{field or '(report)'}\t{delta:.3g}")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit("usage: python tests/test_golden.py [--diff]")
    print_diff() if sys.argv[1:] else write_corpus()
