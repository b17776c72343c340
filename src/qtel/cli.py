"""Command-line front end.

Each ``cmd_*`` returns its report and verdict; `main` writes the report
(`_emit`) and maps the verdict to exit code 0 (success) or 1 (a numerical
assertion fails).  An `InternalConsistencyError` exits 1 too; any other
`QtelError` or an `OSError` exits 2, as one ``error:`` line that quotes any
input by its `errors.excerpt` (80 bytes as written at most); argparse's usage
errors quote theirs by the same cut (`_Parser`).  JSON reports carry
top-level ``"schema": "qtel/1"`` and ``"command"`` keys and are
byte-identical for identical invocations and seeds.  ``--format text``
writes the same encoded fields one per line (see `_emit`); its layout
carries no stability promise.

The parser and the tolerance check load only `serialize` and `errors`, and
each ``cmd_*`` imports the layers it runs; `channel check`, `masfi`, `bell gen
--seed-file` and `teleport run` read their state files first.  So a usage
error, a bad tolerance and a first state file that fails a check needing no
array are refused before numpy is imported.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from collections.abc import Iterable, Iterator

from . import serialize
from .errors import (DEFAULT_TOL, EXCERPT_CHARS, GRAPH_EXHAUSTIVE_MAX_QUBITS, DomainError,
                     InternalConsistencyError, QtelError, Tolerance, ValidationError, _cut,
                     _size, excerpt)

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
        return DEFAULT_TOL
    try:
        value = float(env)
    except ValueError:
        raise ValidationError(f"QTEL_TOL is not a number: {excerpt(env)}")
    return Tolerance(value)


class _Objects:
    """A list of JSON objects, each formed when `_emit` writes it and then dropped."""

    def __init__(self, objects: Iterable[dict]):
        self._objects = objects

    def __iter__(self) -> Iterator[dict]:
        return iter(self._objects)


def _pieces(value):
    """A field's JSON text in the pieces it is written in: an iterator yields its own, and
    `_Objects` one piece per 1024 objects, each encoded by one `serialize.dumps` call."""
    if isinstance(value, _Objects):
        objects = iter(value)
        batches = iter(lambda: list(itertools.islice(objects, 1024)), [])
        return itertools.chain("[", (("," if k else "") + serialize.dumps(batch)[1:-1]
                                     for k, batch in enumerate(batches)), "]")
    return value if isinstance(value, Iterator) else [serialize.dumps(value)]


def _emit(report: dict, args):
    """Write the report under the name of the subcommand that made it.

    Each field is encoded once, by `serialize.dumps`, unless it is an iterator of
    pieces encoded already (`serialize.basis_to_list`) or `_Objects`, whose
    objects are encoded as they are formed; each piece is written on its own,
    as it stands, never copied into a larger string.
    ``--format json`` writes one object of the encoded fields under sorted keys,
    the schema's among them.  ``--format text`` writes one ``key: value`` line
    per field in report order, ``command`` first and no schema: a string as it
    is, any other value as its JSON text, and each object of a list of objects
    on its own line, indented by two spaces, under a ``key:`` line.
    """
    write = sys.stdout.write
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    if args.format == "json":
        report = {"schema": SCHEMA, "command": command, **report}
        for i, (key, value) in enumerate(sorted(report.items())):
            write(("," if i else "{") + serialize.dumps(key) + ":")
            for piece in _pieces(value):
                write(piece)
        write("}\n")
        return
    write(f"command: {command}\n")
    for key, value in report.items():
        if isinstance(value, _Objects) or (isinstance(value, list) and value
                                           and isinstance(value[0], dict)):
            write(f"{key}:\n")
            for item in value:
                write(f"  {serialize.dumps(item)}\n")
        else:
            write(f"{key}: ")
            for piece in [value] if isinstance(value, str) else _pieces(value):
                write(piece)
            write("\n")


def cmd_channel_check(args) -> tuple[dict, bool]:
    state = serialize.load_state(args.file)
    from . import channel
    n = state.n_qubits // 2
    ch = channel.channel_from_state(state, n, args.tol)
    perfect, deviation = channel.is_perfect(ch, args.tol)
    return {
        "n": n,
        "perfect": perfect,
        "deviation": deviation,
        "tolerance": args.tol.abs_eps,
    }, perfect


def cmd_bell_gen(args) -> tuple[dict, bool]:
    seed = serialize.load_state(args.seed_file) if args.seed_file is not None else None
    if seed is not None and args.n is not None and 2 * args.n != seed.n_qubits:
        raise ValidationError(f"--n {excerpt(args.n)} does not match the seed file: "
                              f"it has {seed.n_qubits} qubits, not 2n")
    from . import bell
    n = 1 if args.n is None else args.n
    bell.check_completeness_size(n if seed is None else seed.n_qubits // 2)
    if seed is None:
        seed = bell.standard_seed(n)
    basis = bell.generate_from_seed(seed, args.tol)
    complete, deviation = bell.verify_completeness(basis, args.tol)
    return {
        "n": basis.n,
        "size": basis.size,
        "complete": complete,
        "completeness_deviation": deviation,
        "members": serialize.basis_to_list(basis.members),
    }, complete


def cmd_teleport_run(args) -> tuple[dict, bool]:
    for option, value in (("--seed", args.seed), ("--shots", args.shots)):
        if value is not None and args.mode != "sampled":
            raise ValidationError(f"{option} is read only with --mode sampled, "
                                  f"got {excerpt(value)}")
    info = serialize.load_state(args.info)
    state = serialize.load_state(args.channel)
    from . import bell, channel, teleport
    ch = channel.channel_from_state(state, info.n_qubits, args.tol)
    if args.basis is not None:
        basis = bell.bell_basis_from_members(serialize.load_basis_members(args.basis), args.tol)
    else:
        basis = bell.standard_basis(info.n_qubits)
    result = teleport.run_protocol(
        info, ch, basis, mode=args.mode, seed=args.seed, shots=args.shots, tol=args.tol
    )
    outcomes = result.records

    def rows():
        columns = outcomes.probs.tolist(), outcomes.zero.tolist(), outcomes.fidelities.tolist()
        for alpha, (probability, zero, fidelity) in enumerate(zip(*columns)):
            row = {
                "alpha": alpha,
                "probability": probability,
                "fidelity": None if zero else fidelity,
                "zero_probability": zero,
            }
            if result.counts is not None:
                row["count"] = result.counts[alpha]
            yield row

    useful = outcomes.fidelities[~outcomes.zero]  # finite: the run checked every state
    least = float(useful.min()) if useful.size else None
    all_perfect = least is not None and least >= 1.0 - args.tol.abs_eps
    report = {
        "n": info.n_qubits,
        "mode": result.mode,
        "outcomes": _Objects(rows()),
        "summary": {
            "total_probability": float(sum(outcomes.probs.tolist())),  # in order, as Python adds
            "min_fidelity": least,
            "all_fidelities_perfect": all_perfect,
        },
    }
    if result.mode == "sampled":
        report["seed"] = result.seed
        report["shots"] = result.shots
    return report, all_perfect or not args.expect_perfect


def cmd_magic_cliques(args) -> tuple[dict, bool]:
    from . import magic, pauli
    graph = magic.build_anticomm_graph(args.n)
    report = magic.maximal_anticommuting_sets(graph)
    strings = [pauli.render(pauli.pauli_from_quaternary(a, args.n))
               for a in range(1, len(graph) + 1)]
    return {
        "n": args.n,
        "vertices": len(graph),
        "max_size": report.max_size,
        "maximal_cliques": [
            {"alphas": c, "strings": [strings[a - 1] for a in c]}
            for c in report.maximal_cliques
        ],
    }, True


def cmd_magic_catalog(args) -> tuple[dict, bool]:
    from . import magic
    catalog = magic.n2_catalog()
    return {
        "states": {name: serialize.state_to_dict(state) for name, state in catalog.states.items()},
        "printed_state_typos": catalog.printed_state_typos,
        "maximal_sets": catalog.maximal_sets,
        "max_partial_basis_dimension": catalog.max_partial_basis_dimension,
        "quarter_basis_families": catalog.quarter_basis_families,
        "reconciliation": [
            dict(vars(e)) for e in catalog.reconciliation + catalog.quarter_reconciliation
        ],
    }, True


def _resolve_set(tokens: list[str], n: int | None):
    from . import magic, pauli
    paulis = []
    for token in tokens:
        if token in magic.N2_NAMES:
            paulis.append(pauli.pauli_from_digits(magic.N2_NAMES[token]))
        elif token.isdecimal():  # int() reads these; not "²", which isdigit() accepts
            if n is None:
                raise ValidationError("--n is required when selecting by index")
            magic.verify_block_trials(n)  # n < 1 or oversized: its message, before any string
            try:
                alpha = int(token)
            except ValueError:  # over the interpreter's digit limit, so far past 4^n
                raise DomainError(f"a {len(token)}-digit index is out of range for {n} qubits")
            paulis.append(pauli.pauli_from_quaternary(alpha, n))
        else:
            paulis.append(pauli.parse(token))
    for token, p in zip(tokens, paulis):
        if n is not None and p.n_qubits != n:
            raise ValidationError(f"--n {excerpt(n)} does not match {excerpt(token)}, "
                                  f"a string of {p.n_qubits} qubits")
    return paulis


def cmd_magic_verify(args) -> tuple[dict, bool]:
    from . import magic, pauli
    paulis = _resolve_set(args.set.split(","), args.n)
    magic.verify_block_trials(paulis[0].n_qubits)
    basis = magic.partial_basis_from_set(paulis)
    verification = magic.verify_partial_basis(basis, args.trials, args.seed, args.tol)
    report = {"set": [pauli.render(p) for p in basis.source_set], "dimension": basis.dimension,
              **vars(verification)}
    return report, verification.passed


def cmd_magic_witness(args) -> tuple[dict, bool]:
    from . import magic
    report = magic.no_full_magic_basis_witness(args.n)
    out = dict(vars(report))
    deviation, residual = out.pop("ghz_deviation"), out.pop("ghz_min_residual")
    if deviation is not None:
        out["ghz_counterexample"] = {"deviation": deviation, "min_projection_residual": residual}
    return out, report.holds


def cmd_masfi(args) -> tuple[dict, bool]:
    state = serialize.load_state(args.channel)
    from . import channel, teleport
    ch = channel.channel_from_state(state, 1, args.tol)
    result = teleport.masfi_1q(ch)
    concurrence = channel.concurrence_2q(state, args.tol)
    return {
        "masfi": result.value,
        "degenerate": result.degenerate,
        "converged": result.converged,
        "concurrence": concurrence,
        "formula_2c_over_1_plus_c": 2 * concurrence / (1 + concurrence),
    }, result.converged


# a repr as argparse quotes a value, or any other run of its message without a space;
# `re` compiles it on the first error, not at import
_QUOTED = r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+"""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors quote each value by the excerpt rule.

    argparse quotes a refused value by its repr and an unrecognized argument as it
    is; `error` cuts each quote, and any other run without a space, as `errors.excerpt`
    cuts a repr, and then the list of unrecognized arguments as one quote once it is
    longer than two whole quotes, in bytes as written (`errors._size`).  argparse builds
    subparsers of their parent's class.
    """

    def error(self, message):
        message = re.sub(_QUOTED, lambda quote: _cut(quote.group()), message)
        head, label, arguments = message.partition("unrecognized arguments: ")
        if label and not head and _size(arguments) > 2 * EXCERPT_CHARS + 1:
            message = label + _cut(arguments)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_gen.add_argument("--n", type=int, default=None,
                       help="qubits per side (default 1; must match a --seed-file)")
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
                           choices=range(1, GRAPH_EXHAUSTIVE_MAX_QUBITS + 1))
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
                           choices=range(2, GRAPH_EXHAUSTIVE_MAX_QUBITS + 1))
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
        report, ok = args.func(args)
        _emit(report, args)
    except (QtelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION if isinstance(exc, InternalConsistencyError) else EXIT_USAGE
    return EXIT_OK if ok else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
