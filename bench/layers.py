"""Per-layer metrics of a traced run, and the end-to-end figure each should move.

Totals (self times, call counts, bytes) are per pass of the workload's job
list: for each job, the median over its traced invocations, summed over
jobs, which is the same estimator `wall_s` uses.  Per-call figures
(`*.ms`, `*.ms.n<N>`) are medians over every traced call.  Metrics marked
"computed" are formulas of N, not measurements.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import LAYERS, median_or_none, self_times

TD, MS, CLI = "teleport-dense", "magic-small-n", "cli-cold"
SUBCOMMANDS = ("channel_check", "bell_gen", "teleport_run", "magic_cliques", "magic_catalog",
               "magic_verify", "magic_witness", "masfi")
NS = range(1, 7)


class TraceData:
    """Spans and counters of one traced run, with the job invocations that made them."""

    def __init__(self, spans, events, invocations, cli=None, mem_spans=()):
        self.spans = spans
        self.mem_spans = mem_spans  # recorded with tracemalloc on, for memory peaks only
        self.selfs = self_times(spans)
        self.events = events
        self.invocations = invocations  # job key "<job id>#<k>" of every traced invocation
        self.cli = cli or {}  # import_ms, main_ms by subcommand, stdout_bytes, mismatches

    def per_pass(self, keep, value) -> float:
        totals = dict.fromkeys(self.invocations, 0.0)
        for span, self_s in zip(self.spans, self.selfs):
            if span.job in totals and keep(span):
                totals[span.job] += value(span, self_s)
        by_job = defaultdict(list)
        for key, total in totals.items():
            by_job[key.rsplit("#", 1)[0]].append(total)
        return sum(statistics.median(v) for v in by_job.values())

    def has(self, keep) -> bool:
        return any(keep(s) for s in self.spans)

    def self_ms(self, keep):
        if not self.has(keep):
            return None
        return 1e3 * self.per_pass(keep, lambda s, self_s: self_s)

    def calls(self, keep):
        return self.per_pass(keep, lambda s, self_s: 1.0)

    def call_ms(self, name, n=None):
        return median_or_none([1e3 * s.duration for s in self.spans
                               if s.name == name and (n is None or s.n == n)])

    def event_total(self, name):
        values = [v for _, e, v in self.events if e == name]
        return sum(values) if values else None

    def event_median(self, name):
        return median_or_none([v for _, e, v in self.events if e == name])

    def ratio(self, part, whole):
        total = self.event_total(whole)
        return None if not total else self.event_total(part) / total

    def mem_peak_mb(self, layer):
        peaks = [s.mem_peak for s in self.mem_spans if s.layer == layer]
        return max(peaks) / 2**20 if peaks else None


def _layer(layer):
    return lambda s: s.layer == layer


def _named(name):
    return lambda s: s.name == name


def _ms_per_trial(t):
    trials = t.event_total("trials")
    if not trials:
        return None
    return 1e3 * sum(s.duration for s in t.spans if s.name == "magic.verify_partial_basis") / trials


def _flops(n):
    # per outcome: E^T B^dagger, its Gram matrix, and the correction, each a
    # dense d x d complex product (8 d^3 real flops)
    return 4**n * 3 * 8 * (2**n) ** 3


def _table():
    """(name, unit, better, moves, compute) for every per-layer metric."""
    rows = []

    def add(name, unit, better, moves, compute):
        rows.append((name, unit, better, moves, compute))

    for layer in LAYERS:
        if layer == "cli":
            continue
        add(f"{layer}.self_ms", "ms", "lower", None,
            lambda t, layer=layer: t.self_ms(_layer(layer)))
        if layer in ("linalg", "pauli", "channel"):
            add(f"{layer}.calls", "count", "lower", None,
                lambda t, layer=layer: t.calls(_layer(layer)))
    moves = {
        "linalg": f"wall_s on {TD} and {MS}",
        "pauli": f"wall_s on {MS}; no change on {TD}",
        "channel": f"wall_s on {MS}",
        "bell": f"wall_s and peak_rss_mb on {TD}; wall_s on {CLI}",
        "teleport": f"wall_s on {TD}, {MS} and {CLI}",
        "magic": f"wall_s on {MS}",
        "serialize": f"wall_s on {CLI}",
    }
    add("linalg.is_scaled_identity.calls", "count", "lower", None,
        lambda t: t.calls(_named("linalg.is_scaled_identity")))
    add("linalg.is_scaled_identity.self_ms", "ms", "lower", None,
        lambda t: t.self_ms(_named("linalg.is_scaled_identity")))
    for fn in ("product", "commutes", "matrix_of", "pauli_from_quaternary"):
        add(f"pauli.{fn}.calls", "count", "lower", None,
            lambda t, fn=fn: t.calls(_named(f"pauli.{fn}")))
    for n in (1, 2, 3):
        add(f"pauli.family_property_report.ms.n{n}", "ms", "lower", None,
            lambda t, n=n: t.call_ms("pauli.family_property_report", n))
    for fn in ("is_perfect", "channel_from_state"):
        add(f"channel.{fn}.calls", "count", "lower", None,
            lambda t, fn=fn: t.calls(_named(f"channel.{fn}")))
    for n in NS:
        add(f"bell.generate_from_seed.ms.n{n}", "ms", "lower", None,
            lambda t, n=n: t.call_ms("bell.generate_from_seed", n))
    for n in range(1, 6):
        add(f"bell.verify_completeness.ms.n{n}", "ms", "lower", None,
            lambda t, n=n: t.call_ms("bell.verify_completeness", n))
    add("bell.bell_basis_from_members.ms", "ms", "lower", None,
        lambda t: t.call_ms("bell.bell_basis_from_members"))
    for n in NS:
        add(f"bell.basis_bytes.n{n}", "B", "lower",
            "none; computed: 4^N dense 2^N x 2^N members", lambda t, n=n: 16 * 4**n * 4**n)
    for n in NS:
        add(f"teleport.run_protocol.ms.n{n}", "ms", "lower", None,
            lambda t, n=n: t.call_ms("teleport.run_protocol", n))
    add("teleport.composite_expand.self_ms", "ms", "lower", None,
        lambda t: t.self_ms(_named("teleport.composite_expand")))
    add("teleport.transformation_operator.calls", "count", "lower", None,
        lambda t: t.calls(_named("teleport.transformation_operator")))
    add("teleport.transformation_operator.self_ms", "ms", "lower", None,
        lambda t: t.self_ms(_named("teleport.transformation_operator")))
    add("teleport.useful_outcome_ratio", "1", "higher", None,
        lambda t: t.ratio("useful_outcomes", "outcomes"))
    for n in NS:
        add(f"teleport.dense_flops.n{n}", "flop", "lower",
            "none; computed: 3 dense complex products per outcome", lambda t, n=n: _flops(n))
    add("teleport.masfi_1q.ms", "ms", "lower", f"wall_s on {MS}",
        lambda t: t.call_ms("teleport.masfi_1q"))
    add("teleport.masfi_1q.refine_evals", "count", "lower", f"wall_s on {MS}",
        lambda t: t.event_median("refine_evals"))
    add("magic.build_anticomm_graph.ms.n3", "ms", "lower", None,
        lambda t: t.call_ms("magic.build_anticomm_graph", 3))
    add("magic.maximal_anticommuting_sets.ms.n3", "ms", "lower", None,
        lambda t: t.call_ms("magic.maximal_anticommuting_sets", 3))
    add("magic.cliques.n3", "count", "higher", "none; correctness constant, exactly 2640",
        lambda t: t.event_median("cliques.n3"))
    add("magic.n2_catalog.ms", "ms", "lower", None, lambda t: t.call_ms("magic.n2_catalog"))
    add("magic.no_full_magic_basis_witness.ms", "ms", "lower", None,
        lambda t: t.call_ms("magic.no_full_magic_basis_witness"))
    add("magic.verify_partial_basis.ms_per_trial", "ms", "lower", None, _ms_per_trial)
    add("magic.verify_partial_basis.trial_pass_ratio", "1", "higher", None,
        lambda t: t.ratio("trial_passes", "trials"))
    for fn in ("load_state", "load_basis_members", "basis_to_list"):
        add(f"serialize.{fn}.ms", "ms", "lower", None,
            lambda t, fn=fn: t.call_ms(f"serialize.{fn}"))
    add("serialize.stdout_bytes", "B", "lower", None, lambda t: t.cli.get("stdout_bytes"))
    cli_moves = f"wall_s and setup_s on {CLI}"
    add("cli.import_ms", "ms", "lower", cli_moves, lambda t: median_or_none(t.cli.get("import_ms")))
    add("cli.self_ms", "ms", "lower", cli_moves, lambda t: t.self_ms(_layer("cli")))
    for sub in SUBCOMMANDS:
        add(f"cli.{sub}.ms", "ms", "lower", f"wall_s on {CLI}",
            lambda t, sub=sub: median_or_none(t.cli.get("main_ms", {}).get(sub)))
    add("cli.exit_code_mismatches", "count", "lower", f"fail count on {CLI}",
        lambda t: t.cli.get("mismatches"))
    for layer in LAYERS:
        add(f"{layer}.tracemalloc_peak_mb", "MB", "lower", "peak_rss_mb of the workload "
            "that exercises the layer", lambda t, layer=layer: t.mem_peak_mb(layer))
    add("trace.overhead_ratio", "1", "lower", "none: traced wall_s / untraced wall_s - 1",
        None)
    filled = []
    for name, unit, better, move, compute in rows:
        if move is None:
            move = cli_moves if name.startswith("cli.") else moves[name.split(".")[0]]
        filled.append((name, unit, better, move, compute))
    return filled


TABLE = _table()


def compute(trace: TraceData) -> dict:
    """Every per-layer metric the trace defines; None where it has no data."""
    return {name: (fn(trace) if fn else None) for name, _, _, _, fn in TABLE}
