"""Replay of the committed `teleport run --format json` corpus.

`golden/teleport_run.json` lists ``qtel`` invocations over the input files
in `golden/inputs/`, each with the exit code it gave and the sha256 of the
stdout it printed when the corpus was written.  The replay runs each one in
process.  It compares exit codes on every platform, but stdout digests only
under the numpy version and BLAS build recorded in the corpus: another numpy
or BLAS (CI on an older Python resolves an older numpy) may round the last
bit of a probability differently.  Stdout is hashed exactly as printed,
never rounded.

To rewrite the inputs and the corpus, which is right only when a change of
stdout is intended, run from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from qtel.bell import generate_from_seed, standard_basis
from qtel.channel import state_from_matrix
from qtel.cli import main
from qtel.linalg import StateVector, basis_state, haar_random_unitary, random_state
from qtel.serialize import basis_to_list, save_state

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CORPUS = os.path.join(GOLDEN, "teleport_run.json")


def versions() -> dict:
    """The numpy version and BLAS build that stdout digests depend on."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):  # numpy < 1.26 has no build CONFIG
        build = None
    return {"numpy": np.__version__, "blas": build}


def invoke(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout of ``qtel <argv>``, run in the corpus directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _recorded() -> dict:
    if not os.path.exists(CORPUS):  # only while the corpus is first written
        return {"versions": None, "invocations": []}
    with open(CORPUS) as fh:
        return json.load(fh)


RECORDED = _recorded()


@pytest.mark.parametrize("case", RECORDED["invocations"],
                         ids=[c["id"] for c in RECORDED["invocations"]])
def test_teleport_run_replays_the_corpus(case):
    code, digest = invoke(case["argv"])
    assert code == case["exit_code"]
    if versions() == RECORDED["versions"]:
        assert digest == case["stdout_sha256"]


def test_corpus_is_present():
    assert len(RECORDED["invocations"]) >= 20


# --- writing the corpus ------------------------------------------------------


def _write_inputs(rng) -> None:
    def save(name, state):
        save_state(os.path.join(GOLDEN, "inputs", name), state)

    os.makedirs(os.path.join(GOLDEN, "inputs"), exist_ok=True)
    for n in (1, 2, 3):
        d = 2**n
        save(f"info_n{n}.json", random_state(n, rng))
        save(f"basis_state_n{n}.json", basis_state(n, d - 1))
        save(f"perfect_n{n}.json", state_from_matrix(haar_random_unitary(d, rng) / np.sqrt(d), n))
        save(f"imperfect_n{n}.json", random_state(2 * n, rng))
        ghz = np.zeros(d * d)
        ghz[0] = ghz[-1] = 2**-0.5
        save(f"ghz_n{n}.json", StateVector(2 * n, ghz))
    haar_seed = state_from_matrix(haar_random_unitary(2, rng) / np.sqrt(2), 1)
    for name, basis in (("members_n1.json", generate_from_seed(haar_seed)),
                        ("members_n2.json", standard_basis(2))):
        with open(os.path.join(GOLDEN, "inputs", name), "w") as fh:
            json.dump(basis_to_list(basis.members), fh)
            fh.write("\n")


def _invocations() -> list[tuple[str, list[str]]]:
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


def write_corpus() -> None:
    _write_inputs(np.random.default_rng(20111006))
    invocations = []
    for case_id, argv in _invocations():
        code, digest = invoke(argv)
        invocations.append({"id": case_id, "argv": argv, "exit_code": code,
                            "stdout_sha256": digest})
    with open(CORPUS, "w") as fh:
        json.dump({"versions": versions(), "invocations": invocations}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    write_corpus()
