"""Command-line front end.

Exit codes: 0 on success; 1 when a numerical assertion fails or an
`InternalConsistencyError` is raised; 2 on usage or file-format errors,
that is any other `QtelError` or an `OSError`.  JSON reports carry
top-level ``"schema": "qtel/1"`` and ``"command"`` keys and are
byte-identical for identical invocations and seeds; the text renderings
carry no stability promise.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bell, channel, magic, pauli, serialize, teleport
from .errors import InternalConsistencyError, QtelError, ValidationError
from .linalg import DEFAULT_ABS_EPS, Tolerance

SCHEMA = "qtel/1"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


def _tolerance(args) -> Tolerance:
    """The tolerance of ``--tol``, else of QTEL_TOL, else the default."""
    if args.tol is not None:
        return Tolerance(args.tol)
    env = os.environ.get("QTEL_TOL")
    if not env:
        return Tolerance(DEFAULT_ABS_EPS)
    try:
        value = float(env)
    except ValueError:
        raise ValidationError(f"QTEL_TOL is not a number: {env!r}")
    return Tolerance(value)


def _emit(report: dict, args):
    """Write the report under the schema and the name of the subcommand that made it.

    A `serialize.JSONText` field is already encoded: its text goes into the
    JSON report as it stands, at the field's sorted-key position.
    """
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    report = {"schema": SCHEMA, "command": command, **report}
    if args.format == "json":
        fields = (f"{serialize.dumps(key)}:"
                  f"{value if isinstance(value, serialize.JSONText) else serialize.dumps(value)}"
                  for key, value in sorted(report.items()))
        sys.stdout.write("{" + ",".join(fields) + "}\n")
    else:
        _emit_text(report, sys.stdout)


def _emit_text(report: dict, out, indent: int = 0):
    pad = "  " * indent
    for key, value in report.items():
        if key == "schema":
            continue
        if isinstance(value, dict):
            out.write(f"{pad}{key}:\n")
            _emit_text(value, out, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            out.write(f"{pad}{key}:\n")
            for item in value:
                _emit_text(item, out, indent + 1)
                out.write("\n" if indent == 0 else "")
        else:
            out.write(f"{pad}{key}: {_fmt(value)}\n")


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.9f}"
    if isinstance(value, list):
        return "[" + ", ".join(str(_fmt(v)) for v in value) + "]"
    return value


def cmd_channel_check(args) -> int:
    state = serialize.load_state(args.file)
    n = state.n_qubits // 2
    ch = channel.channel_from_state(state, n, args.tol)
    perfect, deviation = channel.is_perfect(ch, args.tol)
    report = {
        "n": n,
        "perfect": perfect,
        "deviation": deviation,
        "tolerance": args.tol.abs_eps,
    }
    _emit(report, args)
    return EXIT_OK if perfect else EXIT_ASSERTION


def cmd_bell_gen(args) -> int:
    if args.seed_file:
        seed = serialize.load_state(args.seed_file)
        bell.check_completeness_size(seed.n_qubits // 2)
    else:
        bell.check_completeness_size(args.n)
        seed = bell.standard_seed(args.n)
    basis = bell.generate_from_seed(seed, args.tol)
    complete, deviation = bell.verify_completeness(basis, args.tol)
    report = {
        "n": basis.n,
        "size": basis.size,
        "complete": complete,
        "completeness_deviation": deviation,
        # the text rendering lists each member's fields in the order of matrix_to_dict
        "members": (serialize.basis_to_list(basis.members) if args.format == "json"
                    else [serialize.matrix_to_dict(m) for m in basis.members]),
    }
    _emit(report, args)
    return EXIT_OK if complete else EXIT_ASSERTION


def cmd_teleport_run(args) -> int:
    info = serialize.load_state(args.info)
    ch = channel.channel_from_state(serialize.load_state(args.channel), info.n_qubits, args.tol)
    if args.basis:
        basis = bell.bell_basis_from_members(serialize.load_basis_members(args.basis), args.tol)
    else:
        basis = bell.standard_basis(info.n_qubits)
    result = teleport.run_protocol(
        info, ch, basis, mode=args.mode, seed=args.seed, shots=args.shots, tol=args.tol
    )
    outcomes = result.records
    probs = outcomes.probs.tolist()
    fidelities = outcomes.fidelities[~outcomes.zero].tolist()
    rows = []
    for alpha, (probability, zero) in enumerate(zip(probs, outcomes.zero.tolist())):
        row = {
            "alpha": alpha,
            "probability": probability,
            "fidelity": None if zero else float(outcomes.fidelities[alpha]),
            "zero_probability": zero,
        }
        if result.counts is not None:
            row["count"] = result.counts[alpha]
        rows.append(row)
    all_perfect = bool(fidelities) and min(fidelities) >= 1.0 - args.tol.abs_eps
    report = {
        "n": info.n_qubits,
        "mode": result.mode,
        "outcomes": rows,
        "summary": {
            "total_probability": float(sum(probs)),
            "min_fidelity": min(fidelities) if fidelities else None,
            "all_fidelities_perfect": all_perfect,
        },
    }
    if result.mode == "sampled":
        report["seed"] = result.seed
        report["shots"] = result.shots
    _emit(report, args)
    if args.expect_perfect and not all_perfect:
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_magic_cliques(args) -> int:
    graph = magic.build_anticomm_graph(args.n)
    report = magic.maximal_anticommuting_sets(graph)
    strings = {
        v.quaternary_index: pauli.render(v) for v in graph.vertices
    }
    out = {
        "n": args.n,
        "vertices": len(graph.vertices),
        "max_size": report.max_size,
        "maximal_cliques": [
            {"alphas": list(c), "strings": [strings[a] for a in c]}
            for c in report.maximal_cliques
        ],
    }
    _emit(out, args)
    return EXIT_OK


def cmd_magic_catalog(args) -> int:
    catalog = magic.n2_catalog()
    out = {
        "states": {
            name: serialize.state_to_dict(state)
            for name, state in sorted(catalog.states.items())
        },
        "printed_state_typos": dict(sorted(catalog.printed_state_typos.items())),
        "maximal_sets": [list(s) for s in catalog.maximal_sets],
        "max_partial_basis_dimension": catalog.max_partial_basis_dimension,
        "quarter_basis_families": [list(f) for f in catalog.quarter_basis_families],
        "reconciliation": [
            {
                "printed": list(e.printed),
                "matched": list(e.matched),
                "exact": e.exact,
                "flags": list(e.flags),
            }
            for e in catalog.reconciliation + catalog.quarter_reconciliation
        ],
    }
    _emit(out, args)
    return EXIT_OK


def _resolve_set(tokens: list[str], n: int | None):
    paulis = []
    for token in tokens:
        if token in magic.N2_NAMES:
            paulis.append(pauli.pauli_from_digits(magic.N2_NAMES[token]))
        elif token.isdigit():
            if n is None:
                raise ValidationError("--n is required when selecting by index")
            paulis.append(pauli.pauli_from_quaternary(int(token), n))
        else:
            paulis.append(pauli.parse(token))
    return paulis


def cmd_magic_verify(args) -> int:
    paulis = _resolve_set(args.set.split(","), args.n)
    magic.verify_block_trials(paulis[0].n_qubits)
    basis = magic.partial_basis_from_set(paulis)
    verification = magic.verify_partial_basis(basis, args.trials, args.seed, args.tol)
    report = {
        "set": [pauli.render(p) for p in basis.source_set],
        "dimension": basis.dimension,
        "trials": verification.trials,
        "max_condition_deviation": verification.max_condition_deviation,
        "min_fidelity": verification.min_fidelity,
        "failures": verification.failures,
        "passed": verification.passed,
    }
    _emit(report, args)
    return EXIT_OK if verification.passed else EXIT_ASSERTION


def cmd_magic_witness(args) -> int:
    report = magic.no_full_magic_basis_witness(args.n)
    out = {
        "n": report.n,
        "max_clique_size": report.max_clique_size,
        "required_size": report.required_size,
        "vertices_examined": report.vertices_examined,
        "cliques_examined": report.cliques_examined,
        "holds": report.holds,
    }
    if report.ghz_deviation is not None:
        out["ghz_counterexample"] = {
            "deviation": report.ghz_deviation,
            "min_projection_residual": report.ghz_min_residual,
        }
    _emit(out, args)
    if args.format == "text":
        sys.stdout.write(
            f"max clique {report.max_clique_size} < {report.required_size}\n"
            if report.holds
            else f"witness FAILED: max clique {report.max_clique_size}\n"
        )
    return EXIT_OK if report.holds else EXIT_ASSERTION


def cmd_masfi(args) -> int:
    state = serialize.load_state(args.channel)
    ch = channel.channel_from_state(state, 1, args.tol)
    result = teleport.masfi_1q(ch, tol=args.tol)
    concurrence = channel.concurrence_2q(state, args.tol)
    report = {
        "masfi": result.value,
        "degenerate": result.degenerate,
        "converged": result.converged,
        "concurrence": concurrence,
        "formula_2c_over_1_plus_c": 2 * concurrence / (1 + concurrence),
    }
    _emit(report, args)
    return EXIT_OK if result.converged else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtel",
        description="Numerical workbench for standard N-qubit quantum teleportation",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--tol", type=float, default=None,
                        help="absolute tolerance (default 1e-9, or QTEL_TOL)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_channel = sub.add_parser("channel", help="resource-channel diagnostics")
    channel_sub = p_channel.add_subparsers(dest="subcommand", required=True)
    p_check = channel_sub.add_parser(
        "check",
        help="test the perfect-channel condition E†E = 2^-N·1 on a state file",
    )
    p_check.add_argument("--file", required=True, help="JSON state file (2N qubits)")
    p_check.set_defaults(func=cmd_channel_check)

    p_bell = sub.add_parser("bell", help="generalized Bell measurement bases")
    bell_sub = p_bell.add_subparsers(dest="subcommand", required=True)
    p_gen = bell_sub.add_parser(
        "gen",
        help="generate the 2^2N-member basis by Pauli products on a seed "
             "state and verify the completeness sum",
    )
    p_gen.add_argument("--n", type=int, default=1, help="qubits per side")
    p_gen.add_argument("--seed-file", help="JSON seed state (defaults to Bell pairs)")
    p_gen.set_defaults(func=cmd_bell_gen)

    p_teleport = sub.add_parser("teleport", help="run the teleportation protocol")
    teleport_sub = p_teleport.add_subparsers(dest="subcommand", required=True)
    p_run = teleport_sub.add_parser(
        "run",
        help="expand the composite state over all BSM outcomes, apply "
             "corrections, and report per-outcome probability and fidelity",
    )
    p_run.add_argument("--info", required=True, help="JSON information state (N qubits)")
    p_run.add_argument("--channel", required=True, help="JSON channel state (2N qubits)")
    p_run.add_argument("--basis", help="JSON array of basis matrices")
    p_run.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--expect-perfect", action="store_true",
                       help="exit 1 unless every outcome has fidelity 1")
    p_run.set_defaults(func=cmd_teleport_run)

    p_magic = sub.add_parser("magic", help="magic partial bases and cliques")
    magic_sub = p_magic.add_subparsers(dest="subcommand", required=True)
    p_cliques = magic_sub.add_parser(
        "cliques", help="enumerate all maximal mutually-anticommuting sets"
    )
    p_cliques.add_argument("--n", type=int, required=True,
                           choices=range(1, magic.GRAPH_EXHAUSTIVE_MAX_QUBITS + 1))
    p_cliques.set_defaults(func=cmd_magic_cliques)
    p_catalog = magic_sub.add_parser(
        "catalog",
        help="the sixteen explicit N=2 states, enumerated partial bases, "
             "and the reconciliation against the printed tables",
    )
    p_catalog.set_defaults(func=cmd_magic_catalog)
    p_verify = magic_sub.add_parser(
        "verify",
        help="random-combination check that a partial basis keeps the "
             "perfect-channel property and unit fidelity",
    )
    p_verify.add_argument("--set", required=True,
                          help="comma-separated member names (e.g. F,G,H), "
                               "quaternary indices, or Pauli strings")
    p_verify.add_argument("--n", type=int, default=None, help="qubits per side")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_magic_verify)
    p_witness = magic_sub.add_parser(
        "witness",
        help="clique-bound witness that no full magic basis exists for N > 1",
    )
    p_witness.add_argument("--n", type=int, required=True,
                           choices=range(2, magic.GRAPH_EXHAUSTIVE_MAX_QUBITS + 1))
    p_witness.set_defaults(func=cmd_magic_witness)

    p_masfi = sub.add_parser(
        "masfi",
        help="minimum assured fidelity of a single-qubit channel, "
             "minimized numerically over information states",
    )
    p_masfi.add_argument("--channel", required=True, help="JSON 2-qubit channel state")
    p_masfi.set_defaults(func=cmd_masfi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tol = _tolerance(args)  # validated here, also for commands that do not read it
        return args.func(args)
    except (QtelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION if isinstance(exc, InternalConsistencyError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
