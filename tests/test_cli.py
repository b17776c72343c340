import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import types

import numpy as np
import pytest

import qtel
import qtel.bell
import qtel.channel
import qtel.cli
import qtel.errors
import qtel.magic
import qtel.serialize
import qtel.teleport
from qtel.cli import main
from qtel.linalg import StateVector
from qtel.serialize import save_state
from test_serialize import matrix_to_dict


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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_members_are_written_one_at_a_time(self, monkeypatch, fmt):
        # no write holds more than one member's text and the bracket or comma before it
        written = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=written.append))
        assert main(["--format", fmt, "bell", "gen", "--n", "3"]) == 0
        text = "".join(written)
        if fmt == "json":
            members = json.loads(text)["members"]
        else:
            (line,) = [line for line in text.splitlines() if line.startswith("members: ")]
            members = json.loads(line.removeprefix("members: "))
        assert len(members) == 64
        longest = max(len(qtel.serialize.dumps(m)) for m in members)
        assert max(map(len, written)) <= longest + 1


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
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "holds: true" in lines and "max_clique_size: 5" in lines

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
        assert "perfect: true" in out.splitlines()


def _write(tmp_path, name, content) -> str:
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


_BELL_PAIR = {"n_qubits": 2, "amplitudes": [[2**-0.5, 0], [0, 0], [0, 0], [2**-0.5, 0]]}


def _one_qubit_run(tmp_path, name, n_qubits=1, rows=None) -> list[str]:
    """`teleport run` of a one-qubit state over a Bell pair, with its integer fields as given.

    `n_qubits` goes into the state file; `rows`, if given, into each member of
    a `--basis` file that holds the standard basis.
    """
    state = {"n_qubits": n_qubits, "amplitudes": [[0.6, 0], [0.8, 0]]}
    argv = ["teleport", "run", "--info", _write(tmp_path, f"{name}_info.json", state),
            "--channel", _write(tmp_path, "bell_pair_n1.json", _BELL_PAIR)]
    if rows is None:
        return argv
    members = [dict(matrix_to_dict(m), rows=rows) for m in qtel.bell.standard_basis(1).members]
    return argv + ["--basis", _write(tmp_path, f"{name}_basis.json", members)]


# 2-qubit states whose first amplitude is the text "1", and true
_AMPLITUDE_TEXT = {"n_qubits": 2, "amplitudes": [["1", 0]] + [[0, 0]] * 3}
_AMPLITUDE_TRUE = {"n_qubits": 2, "amplitudes": [[True, 0]] + [[0, 0]] * 3}

_NESTED_STATE = '{"n_qubits": 2, "amplitudes": ' + "[" * 5000 + "]" * 5000 + "}"


def _pairs_as_n_qubits(count: int) -> dict:
    """A state file whose n_qubits is `count` amplitude pairs, a repr of 8·count bytes."""
    return {"n_qubits": [[0, 0]] * count, "amplitudes": [[1, 0]]}


def _text_basis_entry(tmp_path, info, ch) -> list[str]:
    """`teleport run` over the standard basis as a --basis file, its first entry the text "0.5"."""
    members = [matrix_to_dict(m) for m in qtel.bell.standard_basis(2).members]
    members[0]["entries"][0][0] = "0.5"
    return ["teleport", "run", "--info", info, "--channel", ch,
            "--basis", _write(tmp_path, "text_basis.json", members)]


# a --n past any budget, of the most digits the interpreter converts (4,300)
_N_4300_NINES = "9" * 4300

# each builds the argv of one usage or file-format error from tmp_path and
# the good info2 / two_bell files
MALFORMED = {
    "three_member_basis": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis",
        _write(t, "b3.json", [{"rows": 4, "cols": 4, "entries": [[0.5, 0]] * 16}] * 3)],
    "empty_basis": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis",
        _write(t, "b0.json", [])],
    # member 3 is 2 x 3 among 4 x 4 members: refused by the per-member shape check
    "member_shape_2x3": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis",
        _write(t, "bshape.json", [{"rows": 4, "cols": 4, "entries": [[0.5, 0]] * 16}] * 3
               + [{"rows": 2, "cols": 3, "entries": [[0.5, 0]] * 6}]
               + [{"rows": 4, "cols": 4, "entries": [[0.5, 0]] * 16}] * 12)],
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
    # entries take JSON numbers only; each of these was read as a number, and ran
    "amplitude_text": lambda t, info, ch: [
        "teleport", "run", "--info", _write(t, "text_amp_info.json", _AMPLITUDE_TEXT),
        "--channel", ch],
    "amplitude_true": lambda t, info, ch: [
        "teleport", "run", "--info", _write(t, "true_amp_info.json", _AMPLITUDE_TRUE),
        "--channel", ch],
    "basis_entry_text": _text_basis_entry,
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
    # an n of thousands of qubits is never raised to a power, not even in the message
    "oversized_bell_gen_n5000": lambda t, info, ch: ["bell", "gen", "--n", "5000"],
    "oversized_verify_n5000": lambda t, info, ch: [
        "magic", "verify", "--set", "1", "--n", "5000"],
    "n_qubits_20000": lambda t, info, ch: [
        "channel", "check", "--file",
        _write(t, "n20000.json", {"n_qubits": 20000, "amplitudes": [[1, 0]]})],
    "n_qubits_5000_digits": lambda t, info, ch: [
        "channel", "check", "--file",
        _write(t, "digits.json", '{"n_qubits": %s, "amplitudes": [[1, 0]]}' % ("1" * 5000))],
    # the golden corpus records this file, so it is kept to 8 kB
    "n_qubits_1000_pairs": lambda t, info, ch: [
        "channel", "check", "--file", _write(t, "n_pairs.json", _pairs_as_n_qubits(1000))],
    "set_superscript_digit": lambda t, info, ch: ["magic", "verify", "--set", "²", "--n", "2"],
    "set_index_5000_digits": lambda t, info, ch: [
        "magic", "verify", "--set", "1" * 5000, "--n", "2"],
    # an infinite or huge entry is refused without a numpy RuntimeWarning on the way
    "infinite_imaginary_part": lambda t, info, ch: [
        "channel", "check", "--file", _write(t, "inf_imag.json", json.dumps(
            {"n_qubits": 2, "amplitudes": [[0, float("inf")]] + [[0, 0]] * 3}))],
    "huge_amplitudes": lambda t, info, ch: [
        "channel", "check", "--file", _write(t, "huge.json", json.dumps(
            {"n_qubits": 2, "amplitudes": [[1e200, 0]] + [[0, 0]] * 2 + [[1e200, 0]]}))],
    "huge_basis_entry": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis", _write(
            t, "huge_basis.json", json.dumps(
                [{"rows": 4, "cols": 4, "entries": [[1e200, 0]] + [[0.5, 0]] * 15}] * 16))],
    "infinite_basis_entry": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis", _write(
            t, "inf_basis.json", json.dumps(
                [{"rows": 4, "cols": 4, "entries": [[float("inf"), 0]] + [[0.5, 0]] * 15}] * 16))],
    # json.load raises RecursionError past about 1,000 levels
    "nested_amplitudes_5000_deep": lambda t, info, ch: [
        "channel", "check", "--file", _write(t, "nested.json", _NESTED_STATE)],
    "nested_basis_5000_deep": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis",
        _write(t, "nested_basis.json", "[" * 5000 + "]" * 5000)],
    # a JSON integer beyond the float range, which numpy refuses with OverflowError
    "amplitude_400_digits": lambda t, info, ch: [
        "channel", "check", "--file", _write(t, "digits400.json", json.dumps(
            {"n_qubits": 2, "amplitudes": [[10**400, 0]] + [[0, 0]] * 3}))],
    "basis_entry_400_digits": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis", _write(
            t, "digits400_basis.json", json.dumps(
                [{"rows": 4, "cols": 4, "entries": [[10**400, 0]] + [[0.5, 0]] * 15}] * 16))],
    # integers of thousands of digits are quoted by their first digits and digit count
    "matrix_shape_4001_digits": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis", _write(
            t, "shape4001.json", [{"rows": 10**4000, "cols": 10**4000, "entries": [[1, 0]]}])],
    "negative_rows_2501_digits": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis", _write(
            t, "rows2501.json", [{"rows": -10**2500, "cols": 1, "entries": [[1, 0]]}])],
    "n_qubits_4001_digits": lambda t, info, ch: [
        "channel", "check", "--file",
        _write(t, "n4001.json", {"n_qubits": 10**4000, "amplitudes": [[1, 0]]})],
    "oversized_bell_gen_4300_digits": lambda t, info, ch: ["bell", "gen", "--n", _N_4300_NINES],
    "oversized_bell_gen_4000_digits": lambda t, info, ch: ["bell", "gen", "--n", "9" * 4000],
    "oversized_verify_4300_digits": lambda t, info, ch: [
        "magic", "verify", "--set", "1", "--n", _N_4300_NINES],
    "set_index_4000_digits": lambda t, info, ch: ["magic", "verify", "--set", "7" * 4000,
                                                  "--n", "2"],
    "set_string_1000_letters": lambda t, info, ch: ["magic", "verify", "--set", "Q" * 1000,
                                                    "--n", "2"],
    # an option the command would ignore; each of these ran and exited 0
    "exhaustive_negative_seed": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--seed", "-3"],
    "exhaustive_shots": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--shots", "0"],
    "verify_n_against_set": lambda t, info, ch: ["magic", "verify", "--set", "F,G", "--n", "3"],
    "bell_gen_n_against_seed_file": lambda t, info, ch: [
        "bell", "gen", "--n", "2", "--seed-file", _write(t, "bell_pair_n1.json", _BELL_PAIR)],
    # an empty path is a missing file; each of these ran on the standard basis and exited 0
    "empty_seed_file": lambda t, info, ch: ["bell", "gen", "--seed-file", ""],
    "empty_basis_path": lambda t, info, ch: [
        "teleport", "run", "--info", info, "--channel", ch, "--basis", ""],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(case, capsys, tmp_path, info2_file, two_bell_file):
    argv = MALFORMED[case](tmp_path, info2_file, two_bell_file)
    assert main(["--format", "json"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err.startswith("error: ")
    assert len(captured.err.replace(str(tmp_path), "").encode()) < 200  # echoes no input at length


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _standard_n9_files(t) -> list[str]:
    """``--info`` and ``--channel`` files at n = 9: |0...0> and the standard 18-qubit channel."""
    dim = 2**9
    info = {"n_qubits": 9, "amplitudes": [[1, 0]] + [[0, 0]] * (dim - 1)}
    channel = [[0, 0]] * dim**2
    channel[::dim + 1] = [[dim**-0.5, 0]] * dim  # E = 1 / 2^(9/2)
    return ["--info", _write(t, "info_n9.json", info),
            "--channel", _write(t, "channel_n9.json", {"n_qubits": 18, "amplitudes": channel})]


@pytest.mark.parametrize("argv", [
    lambda t: ["channel", "check", "--file", _write(
        t, "n2_70.json", {"n_qubits": 2**70, "amplitudes": [[1, 0]]})],
    lambda t: ["bell", "gen", "--n", "100000000000"],
    lambda t: ["magic", "verify", "--set", "1", "--n", str(2**70)],
    lambda t: ["teleport", "run"] + _standard_n9_files(t),
    lambda t: ["channel", "check", "--file", _write(
        t, "n_10_4000.json", {"n_qubits": 10**4000, "amplitudes": [[1, 0]]})],
    lambda t: ["bell", "gen", "--n", _N_4300_NINES],
    lambda t: ["magic", "verify", "--set", "1", "--n", _N_4300_NINES],
], ids=["channel_check.n_qubits_2_70", "bell_gen.n_1e11", "magic_verify.n_2_70",
        "teleport_run.n_9", "channel_check.n_qubits_10_4000", "bell_gen.n_4300_nines",
        "magic_verify.n_4300_nines"])
def test_astronomical_n_is_usage_error_in_a_capped_process(argv, tmp_path):
    # in a separate process under a 1 GiB address-space cap: code that forms 2^n or 16^n
    # for such an n fails there with a MemoryError (or runs out the timeout), not here;
    # at n = 9, one (4^9, 2^9) complex outcome array alone would take the whole 1 GiB
    src = os.path.dirname(os.path.dirname(qtel.__file__))
    code = f"import sys; from qtel.cli import main; sys.exit(main({argv(tmp_path)!r}))"
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, preexec_fn=_cap_address_space)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert len(result.stderr.replace(str(tmp_path), "").encode()) < 200


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
def test_text_lines_are_the_json_fields(command, capsys, info2_file, two_bell_file, bell_file):
    # each line is `key: value`, or a `key:` line over one indented JSON object per list item
    argv = command.split() + LEAF_COMMANDS[command](info2_file, two_bell_file, bell_file)
    _, report = run_json(capsys, argv)
    main(argv)
    fields = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  "):
            fields[key].append(json.loads(line))
            continue
        key, _, value = line.partition(":")
        if not value:
            fields[key] = []
        elif isinstance(report[key], str):
            fields[key] = value.removeprefix(" ")
        else:
            fields[key] = json.loads(value)
    del report["schema"]
    assert next(iter(fields)) == "command" and fields == report


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


@pytest.mark.parametrize(("argv", "line"), [
    ("bell gen --n 7",
     "checking completeness at n=7 needs a 4096 MiB member matrix, over the 256 MiB limit"),
    ("bell gen --n 100",
     "checking completeness at n=100 needs a 2^384 MiB member matrix, over the 256 MiB limit"),
    ("magic verify --set 1 --n 8",
     "verifying a partial basis at n=8 needs 1024 MiB per trial, over the 256 MiB block budget"),
    ("magic verify --set 1 --n 40",
     "verifying a partial basis at n=40 needs 2^106 MiB per trial, over the 256 MiB block budget"),
], ids=["bell_gen.n7", "bell_gen.n100", "magic_verify.n8", "magic_verify.n40"])
def test_budget_refusal_prints_its_whole_error_line(argv, line, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")


def test_protocol_budget_refusal_message(monkeypatch):
    info = StateVector(2, np.full(4, 0.5, dtype=complex))
    ch = qtel.channel.channel_from_state(StateVector(4, np.eye(4).reshape(-1) / 2), 2)
    monkeypatch.setattr(qtel.errors, "BYTE_BUDGET", 16 * 8**2 - 1)  # under one (4^2, 2^2) array
    with pytest.raises(qtel.errors.ResourceLimitError) as refusal:
        qtel.teleport.composite_expand(info, ch, qtel.bell.standard_basis(2))
    assert str(refusal.value) == ("running the protocol at n=2 needs 0 MiB per outcome array, "
                                  "over the 0 MiB limit")


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


# refusals that need no array: each builds (argv, QTEL_TOL or None) from tmp_path
REFUSED_WITHOUT_NUMPY = {
    "argparse_type": lambda t: (["bell", "gen", "--n", "two"], None),
    "argparse_choice": lambda t: (["magic", "cliques", "--n", "4"], None),
    "missing_file": lambda t: (["channel", "check", "--file", str(t / "absent.json")], None),
    "missing_info": lambda t: (
        ["teleport", "run", "--info", str(t / "absent.json"), "--channel", str(t / "absent.json")],
        None),
    "missing_seed_file": lambda t: (
        ["bell", "gen", "--seed-file", str(t / "absent.json")], None),
    "empty_seed_file": lambda t: (["bell", "gen", "--seed-file", ""], None),
    # refused before the state files are read
    "exhaustive_seed": lambda t: (
        ["teleport", "run", "--info", str(t / "absent.json"), "--channel", str(t / "absent.json"),
         "--seed", "1"], None),
    "nested_5000_deep": lambda t: (
        ["channel", "check", "--file", _write(t, "nested.json", _NESTED_STATE)], None),
    "truncated_json": lambda t: (
        ["channel", "check", "--file", _write(t, "cut.json", '{"n_qubits": 2, "ampl')], None),
    "top_level_number": lambda t: (
        ["channel", "check", "--file", _write(t, "number.json", "42")], None),
    "missing_field": lambda t: (
        ["masfi", "--channel", _write(t, "no_amps.json", {"n_qubits": 2})], None),
    "n_qubits_text": lambda t: (
        ["channel", "check", "--file",
         _write(t, "text_n.json", {"n_qubits": "abc", "amplitudes": [[1, 0]]})], None),
    "n_qubits_100000_pairs": lambda t: (
        ["channel", "check", "--file", _write(t, "n_pairs.json", _pairs_as_n_qubits(100_000))],
        None),
    "amplitude_text": lambda t: (
        ["channel", "check", "--file", _write(t, "text_amp.json", _AMPLITUDE_TEXT)], None),
    "amplitude_true": lambda t: (
        ["channel", "check", "--file", _write(t, "true_amp.json", _AMPLITUDE_TRUE)], None),
    "zero_tol": lambda t: (["--tol", "0", "magic", "catalog"], None),
    "tol_env_text": lambda t: (["magic", "witness", "--n", "2"], "abc"),
    "tol_env_100000_letters": lambda t: (["magic", "catalog"], "a" * 100_000),
    # 2 bytes a letter in UTF-8: the excerpt is cut at 80 bytes, not 80 letters
    "n_qubits_50000_e_acute": lambda t: (
        ["channel", "check", "--file",
         _write(t, "e_acute_n.json", {"n_qubits": "é" * 50_000, "amplitudes": [[1, 0]]})], None),
}


@pytest.mark.parametrize("case", sorted(REFUSED_WITHOUT_NUMPY))
def test_refusal_runs_with_numpy_blocked(case, capsys, monkeypatch, tmp_path):
    # sys.modules["numpy"] = None makes every numpy import raise ImportError; dataclasses is
    # blocked too, as it would load inspect, dis, ast and tokenize into every refusal
    argv, tol_env = REFUSED_WITHOUT_NUMPY[case](tmp_path)
    monkeypatch.delenv("QTEL_TOL", raising=False)
    if tol_env is not None:
        monkeypatch.setenv("QTEL_TOL", tol_env)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtel.__file__)))
    code = ("import sys\nsys.modules['numpy'] = sys.modules['dataclasses'] = None\n"
            f"from qtel.cli import main\nsys.exit(main({argv!r}))")
    blocked = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        exit_code = exc.code
    captured = capsys.readouterr()
    assert (exit_code, captured.out) == (2, "")
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (2, "", captured.err)
    assert captured.err.count("\n") in (1, 2) and "Traceback" not in captured.err
    assert len(captured.err.replace(str(tmp_path), "").encode()) < 200  # echoes no input at length


_LETTERS = "a" * 100_000

# values argparse refuses, by type, by choice or as an unrecognized argument
ARGPARSE_REFUSALS = {
    "bell_gen_n_letters": (["bell", "gen", "--n", _LETTERS], qtel.errors.excerpt(_LETTERS)),
    "tol_letters": (["--tol", _LETTERS, "magic", "catalog"], qtel.errors.excerpt(_LETTERS)),
    "command_letters": ([_LETTERS], qtel.errors.excerpt(_LETTERS)),
    "mode_letters": (["teleport", "run", "--info", "i.json", "--channel", "c.json",
                      "--mode", _LETTERS], qtel.errors.excerpt(_LETTERS)),
    "unrecognized_letters": (["magic", "catalog", _LETTERS], "a" * 80 + "…"),
    # the list of unrecognized arguments is cut as one quote once it is longer than two
    "two_unrecognized_letters": (["magic", "catalog", _LETTERS, _LETTERS], "a" * 80 + "…"),
    "unrecognized_20000_words": (["magic", "catalog", *["ab"] * 20_000], "ab " * 26 + "ab…"),
    "cliques_n_4000_nines": (["magic", "cliques", "--n", "9" * 4000], "9" * 80 + "…"),
    "witness_n_4000_nines": (["magic", "witness", "--n", "9" * 4000], "9" * 80 + "…"),
}


@pytest.mark.parametrize("case", sorted(ARGPARSE_REFUSALS))
def test_argparse_error_quotes_an_excerpt_of_the_value(case, capsys):
    argv, quote = ARGPARSE_REFUSALS[case]
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: qtel")
    line = captured.err.splitlines()[-1]
    assert quote in line and len(line.encode()) < 200 and len(captured.err.encode()) < 400


def _as_written(text: str) -> bytes:
    """`text` as a UTF-8 stderr writes it, a lone surrogate as its backslash escape."""
    return text.encode("utf-8", "backslashreplace")


# how sys.argv holds the byte 0xff, which is not UTF-8 (surrogateescape)
_FF = "\udcff"

# non-ASCII values argparse refuses, each with the quote its error line ends in: the cut
# keeps the longest head of at most 80 bytes as written, é 2 bytes and "\udcff" 6
NON_ASCII_REFUSALS = {
    "bell_gen_n_50000_e_acute": (["bell", "gen", "--n", "é" * 50_000], "'" + "é" * 39 + "…"),
    "unrecognized_300_ff_bytes": (["magic", "catalog", _FF * 300], _FF * 13 + "…"),
    "unrecognized_3000_ff_arguments": (["magic", "catalog", *[_FF] * 3000],
                                       f"{_FF} " * 11 + "…"),
}


@pytest.mark.parametrize("case", sorted(NON_ASCII_REFUSALS))
def test_argparse_error_quotes_80_bytes_as_written(case, capsys):
    argv, quote = NON_ASCII_REFUSALS[case]
    err = io.StringIO()  # takes lone surrogates, which the capture stream refuses
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2 and capsys.readouterr().out == ""
    assert err.getvalue().startswith("usage: qtel")
    line = err.getvalue().splitlines()[-1]
    assert line.endswith(quote) and len(_as_written(line)) < 200
    assert len(_as_written(err.getvalue())) < 400
    # a qtel process given the same arguments as bytes writes exactly these bytes
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtel.__file__)),
               PYTHONUTF8="1")
    argv_bytes = [arg.encode("utf-8", "surrogateescape") for arg in argv]
    run = subprocess.run([sys.executable, "-m", "qtel.cli", *argv_bytes], env=env,
                         capture_output=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", _as_written(err.getvalue()))


# refusals under an ASCII stderr, which writes é as its 4-byte escape \xe9, 中 as the 6-byte
# \u4e2d and … as \u2026; each builds its argv from tmp_path, and ends in the quote shown
ASCII_STDERR_REFUSALS = {
    "bell_gen_n_50000_e_acute": (lambda t: ["bell", "gen", "--n", "é" * 50_000],
                                 b"'" + b"\\xe9" * 19 + b"\\u2026"),
    "n_qubits_50000_zhong": (lambda t: [
        "channel", "check", "--file",
        _write(t, "zhong_n.json", {"n_qubits": "中" * 50_000, "amplitudes": [[1, 0]]})],
        b"'" + b"\\u4e2d" * 13 + b"\\u2026"),
}


@pytest.mark.parametrize("case", sorted(ASCII_STDERR_REFUSALS))
def test_error_quotes_80_bytes_as_an_ascii_stderr_writes_them(case, tmp_path):
    build, quote = ASCII_STDERR_REFUSALS[case]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtel.__file__)),
               PYTHONIOENCODING="ascii")
    run = subprocess.run([sys.executable, "-m", "qtel.cli", *build(tmp_path)], env=env,
                         capture_output=True, timeout=60)
    assert (run.returncode, run.stdout) == (2, b"")
    line = run.stderr.splitlines()[-1]
    assert line.endswith(quote) and len(line.replace(str(tmp_path).encode(), b"")) < 200


@pytest.mark.parametrize("argv", [
    ["bell", "gen", "--n", "a" * 78],  # a repr of 80 characters
    ["bell", "gen", "--n", "it's"],
    ["--tol", "x y", "magic", "catalog"],
    ["magic", "cliques", "--n", "9" * 80],
    ["magic", "catalog", "b" * 80, "c" * 80],
    ["magic", "catalog", *["ab"] * 54],  # 161 characters, as long as two whole quotes
    ["teleport", "run", "--mode", "other"],
    ["channel"],
])
def test_argparse_error_keeps_a_short_value_whole(argv, capsys, monkeypatch):
    with pytest.raises(SystemExit):
        main(argv)
    ours = capsys.readouterr()
    monkeypatch.setattr(qtel.cli, "_Parser", argparse.ArgumentParser)
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr() == ours


@pytest.mark.parametrize(("tol", "perfect"), [("1e-9", False), ("1e-3", True)])
def test_tol_moves_the_channel_verdict_but_not_the_zero_mask(tol, perfect, capsys, tmp_path):
    # a Bell pair off by 1e-6 in angle: max |E†E - 1/2| is about 1e-6
    angle = np.pi / 4 + 1e-6
    near_bell = StateVector(2, np.array([np.cos(angle), 0, 0, np.sin(angle)]))
    near_bell_file = str(tmp_path / "near_bell.json")
    save_state(near_bell_file, near_bell)
    code, report = run_json(capsys, ["--tol", tol, "channel", "check", "--file", near_bell_file])
    assert (code, report["perfect"]) == ((0, True) if perfect else (1, False))
    # √(1 - 1e-11)|00> + √(1e-11)|11>: outcomes 2 and 3 have probability 5e-12, above the
    # fixed ZERO_PROBABILITY_EPS, so they stay unmasked at every --tol
    skewed = StateVector(2, np.array([np.sqrt(1 - 1e-11), 0, 0, np.sqrt(1e-11)]))
    info, channel = str(tmp_path / "zero.json"), str(tmp_path / "skewed.json")
    save_state(info, StateVector(1, np.array([1.0, 0.0])))
    save_state(channel, skewed)
    code, report = run_json(capsys, ["--tol", tol, "teleport", "run", "--info", info,
                                     "--channel", channel, "--expect-perfect"])
    assert code == 1
    assert [row["zero_probability"] for row in report["outcomes"]] == [False] * 4
    assert [row["probability"] for row in report["outcomes"][2:]] == pytest.approx([5e-12] * 2)
