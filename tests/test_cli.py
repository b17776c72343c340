import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qtel
import qtel.bell
import qtel.magic
from qtel.cli import main
from qtel.linalg import StateVector
from qtel.serialize import matrix_to_dict, save_state


@pytest.fixture
def ghz4_file(tmp_path):
    amps = np.zeros(16)
    amps[0] = amps[15] = 1 / np.sqrt(2)
    path = tmp_path / "ghz4.json"
    save_state(str(path), StateVector(4, amps))
    return str(path)


@pytest.fixture
def two_bell_file(tmp_path):
    path = tmp_path / "twobell.json"
    save_state(str(path), StateVector(4, np.eye(4).reshape(-1) / 2))
    return str(path)


@pytest.fixture
def info2_file(tmp_path):
    path = tmp_path / "info2.json"
    save_state(str(path), StateVector(2, np.full(4, 0.5, dtype=complex)))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(str(path), StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2)))
    return str(path)


def run_json(capsys, argv):
    code = main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestChannelCheck:
    def test_perfect_channel_exits_zero(self, capsys, two_bell_file):
        code, report = run_json(capsys, ["channel", "check", "--file", two_bell_file])
        assert code == 0
        assert report["perfect"] is True
        assert report["schema"] == "qtel/1"

    def test_ghz_exits_one_with_deviation(self, capsys, ghz4_file):
        code, report = run_json(capsys, ["channel", "check", "--file", ghz4_file])
        assert code == 1
        assert report["perfect"] is False
        assert report["deviation"] == pytest.approx(0.25, abs=1e-15)

    def test_odd_qubit_count_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        save_state(str(path), StateVector(1, np.array([1.0, 0])))
        assert main(["channel", "check", "--file", str(path)]) == 2
        assert "even qubit count" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["channel", "check", "--file", "/nonexistent.json"]) == 2

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["channel", "check", "--file", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestBellGen:
    def test_standard_basis_complete(self, capsys):
        code, report = run_json(capsys, ["bell", "gen", "--n", "2"])
        assert code == 0
        assert report["complete"] is True
        assert report["size"] == 16
        assert len(report["members"]) == 16

    def test_seed_file(self, capsys, bell_file):
        code, report = run_json(capsys, ["bell", "gen", "--seed-file", bell_file])
        assert code == 0 and report["n"] == 1

    def test_separable_seed_rejected(self, capsys, tmp_path):
        path = tmp_path / "sep.json"
        save_state(str(path), StateVector(2, np.array([1.0, 0, 0, 0])))
        assert main(["bell", "gen", "--seed-file", str(path)]) == 2


class TestTeleportRun:
    def test_two_bell_all_outcomes_perfect(self, capsys, info2_file, two_bell_file):
        code, report = run_json(
            capsys,
            ["teleport", "run", "--info", info2_file, "--channel", two_bell_file,
             "--expect-perfect"],
        )
        assert code == 0
        assert len(report["outcomes"]) == 16
        for row in report["outcomes"]:
            assert row["fidelity"] == pytest.approx(1.0, abs=1e-9)
            assert row["probability"] == pytest.approx(1 / 16, abs=1e-12)
        assert report["summary"]["all_fidelities_perfect"] is True

    def test_ghz_fails_expectation(self, capsys, info2_file, ghz4_file):
        code, report = run_json(
            capsys,
            ["teleport", "run", "--info", info2_file, "--channel", ghz4_file,
             "--expect-perfect"],
        )
        assert code == 1
        assert report["summary"]["min_fidelity"] < 0.999

    def test_sampled_mode_carries_counts(self, capsys, info2_file, two_bell_file):
        code, report = run_json(
            capsys,
            ["teleport", "run", "--info", info2_file, "--channel", two_bell_file,
             "--mode", "sampled", "--seed", "3", "--shots", "400"],
        )
        assert code == 0
        assert sum(row["count"] for row in report["outcomes"]) == 400
        assert report["seed"] == 3 and report["shots"] == 400

    def test_sampled_without_seed_is_usage_error(self, capsys, info2_file, two_bell_file):
        assert main(["teleport", "run", "--info", info2_file,
                     "--channel", two_bell_file, "--mode", "sampled"]) == 2

    def test_mismatched_sizes_usage_error(self, capsys, bell_file, ghz4_file):
        # 1-qubit info needs a 2-qubit channel, not a 4-qubit one
        path_info = bell_file  # 2-qubit state used as info
        assert main(["teleport", "run", "--info", path_info,
                     "--channel", bell_file]) == 2


class TestMagicCommands:
    def test_cliques_n2(self, capsys):
        code, report = run_json(capsys, ["magic", "cliques", "--n", "2"])
        assert code == 0
        assert report["max_size"] == 5
        assert len(report["maximal_cliques"]) == 26

    def test_witness_n2_text_line(self, capsys):
        code = main(["magic", "witness", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max clique 5 < 15" in out

    def test_witness_n2_json(self, capsys):
        code, report = run_json(capsys, ["magic", "witness", "--n", "2"])
        assert code == 0
        assert report["holds"] is True
        assert report["ghz_counterexample"]["deviation"] == pytest.approx(0.25)

    def test_verify_coordinate_triple(self, capsys):
        code, report = run_json(
            capsys, ["magic", "verify", "--set", "F,G,H", "--trials", "20"]
        )
        assert code == 0
        assert report["passed"] is True and report["dimension"] == 4

    def test_verify_by_pauli_strings(self, capsys):
        code, report = run_json(
            capsys, ["magic", "verify", "--set", "Z,X,Y", "--trials", "10"]
        )
        assert code == 0 and report["set"] == ["Z", "X", "Y"]

    def test_verify_by_index_requires_n(self, capsys):
        assert main(["magic", "verify", "--set", "1,2,3"]) == 2
        assert main(["magic", "verify", "--set", "1,2,3", "--n", "1",
                     "--trials", "5"]) == 0

    def test_verify_commuting_set_usage_error(self, capsys):
        assert main(["magic", "verify", "--set", "ZZ,XX"]) == 2

    def test_catalog(self, capsys):
        code, report = run_json(capsys, ["magic", "catalog"])
        assert code == 0
        assert report["max_partial_basis_dimension"] == 6
        assert len(report["quarter_basis_families"]) == 5
        assert set(report["printed_state_typos"]) == {"D1", "D2"}
        assert any(entry["flags"] for entry in report["reconciliation"])


class TestMasfi:
    def test_bell_channel(self, capsys, bell_file):
        code, report = run_json(capsys, ["masfi", "--channel", bell_file])
        assert code == 0
        assert report["masfi"] == pytest.approx(1.0, abs=1e-6)
        assert report["concurrence"] == pytest.approx(1.0, abs=1e-9)

    def test_wrong_size_usage_error(self, capsys, ghz4_file):
        assert main(["masfi", "--channel", ghz4_file]) == 2


class TestDeterminismAndTolerance:
    def test_json_byte_identical(self, capsys, info2_file, two_bell_file):
        argv = ["--format", "json", "teleport", "run", "--info", info2_file,
                "--channel", two_bell_file, "--mode", "sampled",
                "--seed", "11", "--shots", "200"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_tol_flag_loosens_check(self, capsys, ghz4_file):
        code, report = run_json(
            capsys, ["--tol", "0.5", "channel", "check", "--file", ghz4_file]
        )
        assert code == 0 and report["perfect"] is True

    def test_tol_env_variable(self, capsys, ghz4_file, monkeypatch):
        monkeypatch.setenv("QTEL_TOL", "0.5")
        code, report = run_json(capsys, ["channel", "check", "--file", ghz4_file])
        assert code == 0 and report["tolerance"] == 0.5

    def test_bad_tol_env_is_usage_error(self, capsys, ghz4_file, monkeypatch):
        monkeypatch.setenv("QTEL_TOL", "not-a-number")
        assert main(["channel", "check", "--file", ghz4_file]) == 2

    def test_infinite_tol_env_is_usage_error(self, capsys, ghz4_file, monkeypatch):
        # an infinite tolerance would pass every check and print "Infinity", not JSON
        monkeypatch.setenv("QTEL_TOL", "inf")
        assert main(["--format", "json", "channel", "check", "--file", ghz4_file]) == 2
        assert capsys.readouterr().out == ""

    def test_text_format_renders(self, capsys, two_bell_file):
        code = main(["channel", "check", "--file", two_bell_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "perfect: True" in out


def _write(tmp_path, name, content) -> str:
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _one_qubit_run(tmp_path, name, n_qubits=1, rows=None) -> list[str]:
    """`teleport run` of a one-qubit state over a Bell pair, with its integer fields as given.

    `n_qubits` goes into the state file; `rows`, if given, into each member of
    a `--basis` file that holds the standard basis.
    """
    state = {"n_qubits": n_qubits, "amplitudes": [[0.6, 0], [0.8, 0]]}
    bell = {"n_qubits": 2, "amplitudes": [[2**-0.5, 0], [0, 0], [0, 0], [2**-0.5, 0]]}
    argv = ["teleport", "run", "--info", _write(tmp_path, f"{name}_info.json", state),
            "--channel", _write(tmp_path, "bell_pair_n1.json", bell)]
    if rows is None:
        return argv
    members = [dict(matrix_to_dict(m), rows=rows) for m in qtel.bell.standard_basis(1).members]
    return argv + ["--basis", _write(tmp_path, f"{name}_basis.json", members)]


# each builds the argv of one usage or file-format error from tmp_path and
# the good info2 / two_bell files
MALFORMED = {
    "three_member_basis": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis",
        _write(t, "b3.json", [{"rows": 4, "cols": 4, "entries": [[0.5, 0]] * 16}] * 3)],
    "empty_basis": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis",
        _write(t, "b0.json", [])],
    "negative_matrix_shape": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis",
        _write(t, "bneg.json", [{"rows": -1, "cols": -1, "entries": [[1, 0]]}])],
    "set_index_out_of_range": lambda t, info, ch: [
        "magic", "verify", "--set", "99", "--n", "2"],
    "directory_as_file": lambda t, info, ch: ["channel", "check", "--file", str(t)],
    "amplitude_count": lambda t, info, ch: [
        "channel", "check", "--file",
        _write(t, "short.json", {"n_qubits": 2, "amplitudes": [[1, 0]] * 3})],
    "top_level_number": lambda t, info, ch: [
        "channel", "check", "--file", _write(t, "number.json", "42")],
    "n_qubits_text": lambda t, info, ch: [
        "channel", "check", "--file",
        _write(t, "text_n.json", {"n_qubits": "abc", "amplitudes": [[1, 0]]})],
    # integer fields take JSON integers only; each of these was read as 1 or 2, and ran
    "n_qubits_fraction": lambda t, info, ch: _one_qubit_run(t, "frac", n_qubits=1.9),
    "n_qubits_true": lambda t, info, ch: _one_qubit_run(t, "true", n_qubits=True),
    "n_qubits_text_digit": lambda t, info, ch: _one_qubit_run(t, "digit", n_qubits="1"),
    "matrix_rows_fraction": lambda t, info, ch: _one_qubit_run(t, "rows", rows=2.5),
    "not_utf8": lambda t, info, ch: [
        "channel", "check", "--file", _write(t, "latin1.json", b'{"n_qubits": "\xe9"}')],
    "negative_n": lambda t, info, ch: ["bell", "gen", "--n", "-1"],
    "oversized_shots": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--mode", "sampled",
        "--seed", "1", "--shots", "100000000000000000000"],
    "infinite_tol": lambda t, info, ch: ["--tol", "inf", "channel", "check", "--file", ch],
    "negative_sampling_seed": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--mode", "sampled",
        "--seed", "-1", "--shots", "5"],
    "negative_verify_seed": lambda t, info, ch: ["magic", "verify", "--set", "F,G", "--seed", "-1"],
    # a bad --tol is refused also by the commands that never read it
    "infinite_tol_cliques": lambda t, info, ch: ["--tol", "inf", "magic", "cliques", "--n", "1"],
    "nan_tol_catalog": lambda t, info, ch: ["--tol", "nan", "magic", "catalog"],
    "negative_tol_witness": lambda t, info, ch: ["--tol", "-1", "magic", "witness", "--n", "2"],
    # refused by the size guards before any 2^n x 2^n array is built
    "oversized_bell_gen": lambda t, info, ch: ["bell", "gen", "--n", "20"],
    "oversized_verify": lambda t, info, ch: ["magic", "verify", "--set", "1", "--n", "30"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(case, capsys, tmp_path, info2_file, two_bell_file):
    argv = MALFORMED[case](tmp_path, info2_file, two_bell_file)
    assert main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err.startswith("error: ")


LEAF_COMMANDS = {
    "channel check": lambda info, ch, bell: ["--file", ch],
    "bell gen": lambda info, ch, bell: ["--n", "1"],
    "teleport run": lambda info, ch, bell: ["--info", info, "--channel", ch],
    "magic cliques": lambda info, ch, bell: ["--n", "1"],
    "magic catalog": lambda info, ch, bell: [],
    "magic verify": lambda info, ch, bell: ["--set", "F,G", "--trials", "2"],
    "magic witness": lambda info, ch, bell: ["--n", "2"],
    "masfi": lambda info, ch, bell: ["--channel", bell],
}


@pytest.mark.parametrize("command", sorted(LEAF_COMMANDS))
def test_report_header_names_the_command(command, capsys, info2_file, two_bell_file,
                                         bell_file):
    argv = command.split() + LEAF_COMMANDS[command](info2_file, two_bell_file, bell_file)
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["schema"] == "qtel/1" and report["command"] == command
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"command: {command}\n")


@pytest.mark.parametrize("command", sorted(LEAF_COMMANDS))
def test_bad_tol_env_is_usage_error_for_every_command(command, capsys, monkeypatch, info2_file,
                                                      two_bell_file, bell_file):
    monkeypatch.setenv("QTEL_TOL", "abc")
    argv = command.split() + LEAF_COMMANDS[command](info2_file, two_bell_file, bell_file)
    assert main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: QTEL_TOL is not a number: 'abc'\n"


def _seed_file_n7(tmp_path) -> str:
    path = str(tmp_path / "seed_n7.json")
    save_state(path, StateVector(14, np.eye(128).reshape(-1) / np.sqrt(128)))
    return path


@pytest.mark.parametrize(("argv", "module", "step"), [
    (lambda t: ["bell", "gen", "--n", "7"], qtel.bell, "standard_seed"),
    (lambda t: ["bell", "gen", "--seed-file", _seed_file_n7(t)], qtel.bell, "generate_from_seed"),
    (lambda t: ["magic", "verify", "--set", "1", "--n", "8"], qtel.magic, "partial_basis_from_set"),
], ids=["bell_gen.n7", "bell_gen.seed_file.n7", "magic_verify.n8"])
def test_size_guards_run_before_the_first_matrix_is_built(argv, module, step, capsys,
                                                           monkeypatch, tmp_path):
    def unbuildable(*args, **kwargs):
        raise AssertionError(f"{step} was called")

    monkeypatch.setattr(module, step, unbuildable)
    assert main(["--format", "json"] + argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(("error: checking completeness at n=7",
                                    "error: verifying a partial basis at n=8"))


def test_masfi_tolerance_reaches_concurrence(capsys, tmp_path):
    # |norm - 1| = 1e-7 passes --tol 1e-6 in every check, concurrence included
    amps = (1 + 1e-7) * np.array([1, 0, 0, 1]) / np.sqrt(2)
    path = tmp_path / "bell_off.json"
    save_state(str(path), StateVector(2, amps))
    assert main(["--tol", "1e-6", "masfi", "--channel", str(path)]) == 0


def test_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize would take most of the CLI's start-up time
    src = os.path.dirname(os.path.dirname(qtel.__file__))
    code = "import sys, qtel.cli; sys.exit('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


SCHMIDT_CHANNEL = os.path.join(os.path.dirname(__file__), "golden", "inputs", "schmidt_n1.json")


def run_python(code):
    src = os.path.dirname(os.path.dirname(qtel.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120)


def test_masfi_runs_with_scipy_blocked():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    argv = ["--format", "json", "masfi", "--channel", SCHMIDT_CHANNEL]
    code = "import sys\n{}from qtel.cli import main\nsys.exit(main({!r}))"
    blocked = run_python(code.format("sys.modules['scipy'] = None\n", argv))
    free = run_python(code.format("", argv))
    assert (blocked.returncode, blocked.stderr) == (0, b"")
    assert blocked.stdout == free.stdout
    assert json.loads(blocked.stdout)["command"] == "masfi"


def test_masfi_loads_no_scipy_module():
    code = (
        "import sys\n"
        "from qtel.serialize import load_state\n"
        "from qtel.channel import channel_from_state\n"
        "from qtel.teleport import masfi_1q\n"
        f"masfi_1q(channel_from_state(load_state({SCHMIDT_CHANNEL!r}), 1))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    run = run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == b"[]\n"
