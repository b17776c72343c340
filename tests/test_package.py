"""The package loads its layers on first use, and each subcommand loads only the ones it runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import qtel
import qtel.errors
import qtel.linalg
import qtel.magic

SRC = os.path.dirname(os.path.dirname(qtel.__file__))
INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")
LAYERS = ("linalg", "pauli", "channel", "bell", "teleport", "magic")

# each public name of the package and the module that defines it
HOMES = {
    "StateVector": "linalg",
    "Tolerance": "errors",
    "PauliString": "pauli",
    "pauli_from_quaternary": "pauli",
    "Channel": "channel",
    "channel_from_state": "channel",
    "BellBasis": "bell",
    "generate_from_seed": "bell",
    "standard_basis": "bell",
    "run_protocol": "teleport",
}


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


def test_bare_import_loads_no_layer_and_no_numpy():
    run = run_python("import sys, qtel\n"
                     "print(sorted(m for m in sys.modules if m == 'numpy' or 'qtel' in m))")
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "['qtel']\n")


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"qtel.{HOMES[name]}")
    assert getattr(qtel, name) is vars(home)[name]
    assert getattr(qtel, name).__module__ == home.__name__


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from qtel import *", namespace)
    assert sorted(qtel.__all__) == sorted(HOMES)
    assert set(namespace) - {"__builtins__"} == set(HOMES)


def test_layers_resolve_as_attributes_after_a_bare_import():
    run = run_python(f"import qtel\nprint([getattr(qtel, m).__name__ for m in {LAYERS!r}])")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == repr([f"qtel.{m}" for m in LAYERS]) + "\n"


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'qtel' has no attribute 'no_such_name'"):
        qtel.no_such_name
    assert not hasattr(qtel, "Tolerances")


def test_moved_constants_are_still_importable_from_their_old_homes():
    assert qtel.linalg.Tolerance is qtel.errors.Tolerance
    assert qtel.linalg.DEFAULT_TOL is qtel.errors.DEFAULT_TOL
    assert qtel.magic.GRAPH_EXHAUSTIVE_MAX_QUBITS is qtel.errors.GRAPH_EXHAUSTIVE_MAX_QUBITS


def _input(name: str) -> str:
    return os.path.join(INPUTS, name)


@pytest.mark.parametrize(("argv", "unloaded"), [
    (["channel", "check", "--file", _input("perfect_n1.json")], {"bell", "pauli", "teleport",
                                                                "magic"}),
    (["bell", "gen", "--n", "2"], {"channel", "teleport", "magic"}),
    (["teleport", "run", "--info", _input("info_n1.json"), "--channel", _input("perfect_n1.json")],
     {"magic"}),
    (["masfi", "--channel", _input("schmidt_n1.json")], {"magic"}),
], ids=["channel_check", "bell_gen", "teleport_run", "masfi"])
def test_a_subcommand_loads_only_the_layers_it_runs(argv, unloaded):
    code = ("import contextlib, io, json, sys\n"
            "from qtel.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({['--format', 'json'] + argv!r})\n"
            "print(json.dumps([code, [m[5:] for m in sys.modules if m.startswith('qtel.')]]))")
    run = run_python(code)
    assert (run.returncode, run.stderr) == (0, "")
    exit_code, loaded = json.loads(run.stdout)
    assert exit_code == 0
    assert unloaded.isdisjoint(loaded)
