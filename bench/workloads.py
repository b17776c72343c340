"""The three seeded job lists and their reference checks.

Every input is drawn from the workload seed with the benchmark's own numpy
code (`reference`), and every result is checked against `reference`, never
against qtel itself.  A library job is a callable on the qtel package; a CLI
job is one `python -m qtel.cli --format json ...` invocation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

TOL = 1e-9  # absolute tolerance of every numerical comparison, as in the README default


@dataclass
class Job:
    """One unit of timed work; `check` returns the problems found in its result."""

    id: str
    cls: str
    run: object  # (ctx) -> result
    check: object = None  # (result) -> list[str]
    digest: object = None  # (result) -> hashable, compared across invocations
    store: str | None = None  # ctx key that keeps the result for later jobs
    release: tuple = ()  # ctx keys dropped after this job

    def problems(self, result) -> list[str]:
        return self.check(result) if self.check else []


@dataclass
class CliJob:
    """One cold CLI invocation, its README exit code, and its output check."""

    id: str
    cls: str
    argv: list[str]
    exit_code: int = 0
    check: object = None  # (parsed stdout) -> list[str]
    known_defect: tuple | None = None  # (exit code, exception name or None) seen at baseline
    defect_note: str = ""

    @property
    def sub(self) -> str:
        """Leaf subcommand, e.g. "magic_verify", for per-subcommand timings."""
        return self.argv[0] if self.argv[0] == "masfi" else "_".join(self.argv[:2])


def _close(actual, expected, what, tol=TOL) -> list[str]:
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != {expected.shape}"]
    worst = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    return [] if worst <= tol else [f"{what}: off by {worst:.3e}"]


def _probability_problems(probs, info, e, b0, *, perfect: bool, zero_flags=None) -> list[str]:
    n = int(info.size).bit_length() - 1
    expected = ref.outcome_probabilities(info, e, b0)
    problems = _close(probs, expected, "outcome probabilities")
    problems += _close(sum(probs), 1.0, "probability sum")
    if perfect:
        problems += _close(probs, np.full(4**n, 4.0**-n), "perfect-channel probabilities")
    if zero_flags is not None:
        flags = np.asarray(zero_flags)
        if np.any(flags & (expected > 1e-10)) or np.any(~flags & (expected < 1e-20)):
            problems.append("zero-probability flags disagree with the reference")
    return problems


def _state(n_qubits: int, amplitudes: np.ndarray) -> dict:
    return {"n_qubits": n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in amplitudes.reshape(-1)]}


# --- teleport-dense ------------------------------------------------------


def teleport_dense(seed: int, q, tmpdir=None) -> list[Job]:
    """Dense bases and full-protocol runs for N = 1..5, plus a few N = 6 jobs."""
    rng = np.random.default_rng([seed, 1])
    jobs: list[Job] = []
    for n in range(1, 7):
        d = 2**n
        std_b0 = np.eye(d, dtype=np.complex128) / np.sqrt(d)
        seeded_b0 = ref.perfect_channel(n, rng)
        spot = sorted({0, 4**n - 1, *rng.integers(0, 4**n, size=8).tolist()})

        def basis_check(basis, b0=seeded_b0, n=n, spot=spot):
            if basis.size != 4**n:
                return [f"basis size {basis.size} != {4**n}"]
            return [p for a in spot
                    for p in _close(basis.members[a], ref.pauli_matrix(a, n) @ b0, f"member {a}")]

        jobs.append(Job(f"bell.standard.n{n}", f"bell.standard_basis.n{n}",
                        lambda ctx, n=n: q.bell.standard_basis(n), store=f"std{n}",
                        check=lambda b, n=n, c=basis_check, b0=std_b0: c(b, b0)))
        if n <= 5:
            seed_state = q.linalg.StateVector(2 * n, seeded_b0.reshape(-1))
            jobs.append(Job(f"bell.seeded.n{n}", f"bell.generate_from_seed.n{n}",
                            lambda ctx, s=seed_state: q.bell.generate_from_seed(s),
                            store=f"seeded{n}", check=basis_check))
            for kind in ("std", "seeded"):
                jobs.append(Job(f"bell.complete.{kind}.n{n}", f"bell.verify_completeness.n{n}",
                                lambda ctx, key=f"{kind}{n}": q.bell.verify_completeness(ctx[key]),
                                check=lambda r: ([] if r[0] and r[1] <= TOL
                                                 else [f"completeness failed: {r}"])))
        channels = [("perfect", "std", ref.perfect_channel(n, rng), ref.random_state(d, rng))]
        if n <= 5:
            channels += [
                ("perfect", "seeded", ref.perfect_channel(n, rng), ref.random_state(d, rng)),
                ("imperfect", "std", ref.random_state(d * d, rng).reshape(d, d),
                 ref.random_state(d, rng)),
                ("sampled", "std", ref.perfect_channel(n, rng), ref.random_state(d, rng)),
            ]
        basis_state = np.zeros(d, dtype=np.complex128)
        basis_state[rng.integers(d)] = 1.0
        channels.append(("degenerate", "std", ref.degenerate_channel(n, rng), basis_state))
        for kind, basis_key, e, info in channels:
            b0 = std_b0 if basis_key == "std" else seeded_b0
            state = q.linalg.StateVector(2 * n, e.reshape(-1))
            info_state = q.linalg.StateVector(n, info)
            shot_seed = int(rng.integers(2**31))

            def run(ctx, state=state, info_state=info_state, n=n, kind=kind,
                    key=f"{basis_key}{n}", shot_seed=shot_seed):
                ch = q.channel.channel_from_state(state, n)
                q.channel.is_perfect(ch)
                if kind == "sampled":
                    return q.teleport.run_protocol(info_state, ch, ctx[key], mode="sampled",
                                                   seed=shot_seed, shots=1000)
                return q.teleport.run_protocol(info_state, ch, ctx[key])

            def check(result, e=e, info=info, b0=b0, kind=kind):
                probs = [r.probability for r in result.records]
                problems = _probability_problems(
                    probs, info, e, b0, perfect=kind in ("perfect", "sampled"),
                    zero_flags=[r.zero_probability for r in result.records])
                fids = np.array([r.fidelity for r in result.records if not r.zero_probability])
                if kind in ("perfect", "sampled"):
                    problems += _close(fids, np.ones_like(fids), "perfect-channel fidelity")
                elif np.any((fids < -TOL) | (fids > 1 + TOL)):
                    problems.append("fidelity outside [0, 1]")
                if kind == "sampled":
                    counts = np.array(result.counts)
                    if counts.sum() != 1000 or np.any(counts[np.array(probs) < 1e-20] > 0):
                        problems.append(f"sampled counts invalid (sum {counts.sum()})")
                return problems

            def digest(result):
                return (tuple(r.probability for r in result.records), result.counts)

            jobs.append(Job(f"teleport.{kind}.{basis_key}.n{n}", f"teleport.{kind}.n{n}", run,
                            check=check, digest=digest))
        jobs[-1].release = (f"std{n}", f"seeded{n}")
    return jobs


# --- magic-small-n -------------------------------------------------------


def _catalog_check(cat) -> list[str]:
    problems = []
    if set(cat.printed_state_typos) != {"D1", "D2"}:
        problems.append(f"typos {sorted(cat.printed_state_typos)} != ['D1', 'D2']")
    if len(cat.maximal_sets) != 26 or cat.max_partial_basis_dimension != 6:
        problems.append("catalog maximal sets wrong")
    problems += _quarter_problems(cat.quarter_basis_families)
    return problems


def _n2_alpha(name: str) -> int:
    # printed n = 2 names: F, G, H are Z, X, Y on qubit 1 and I on qubit 2;
    # A, B, C, D pick I, Z, X, Y on qubit 1 and the digit 1, 2, 3 picks X, Y, Z on qubit 2
    if name in ("F", "G", "H"):
        return 4 * "IFGH".index(name)
    return 4 * "ABCD".index(name[0]) + (2, 3, 1)[int(name[1]) - 1]


def _quarter_problems(families) -> list[str]:
    anti = ref.anticommute_matrix(2)
    alphas = [[_n2_alpha(name) for name in fam] for fam in families]
    problems = [] if len(alphas) == 5 else [f"{len(alphas)} quarter families, expected 5"]
    if any(not anti[a, b] for fam in alphas for a in fam for b in fam if a != b):
        problems.append("a quarter family is not pairwise anticommuting")
    if len({a for fam in alphas for a in fam}) != 3 * len(alphas):
        problems.append("quarter families overlap")
    return problems


def magic_small_n(seed: int, q, tmpdir=None) -> list[Job]:
    """Exact Pauli/clique combinatorics at N <= 3 and small-matrix protocol calls."""
    rng = np.random.default_rng([seed, 2])
    jobs: list[Job] = []
    for n in (1, 2, 3):
        def family_check(rep, n=n):
            ok = rep.all_passed and rep.all_nonidentity_anticommute == (n == 1)
            ok = ok and set(rep.anticommute_counts.values()) == {4**n // 2}
            return [] if ok else [f"family report wrong for n={n}"]

        jobs.append(Job(f"pauli.family.n{n}", f"pauli.family_property_report.n{n}",
                        lambda ctx, n=n: q.pauli.family_property_report(n), check=family_check))
    for n, count, size in ((2, 26, 5), (3, 2640, 7)):
        def clique_check(rep, n=n, count=count, size=size):
            problems = [] if (len(rep.maximal_cliques), rep.max_size) == (count, size) else [
                f"n={n}: {len(rep.maximal_cliques)} cliques of max {rep.max_size}"]
            return problems + ref.clique_problems(rep.maximal_cliques, n)

        jobs.append(Job(f"magic.cliques.n{n}", f"magic.cliques.n{n}",
                        lambda ctx, n=n: q.magic.maximal_anticommuting_sets(
                            q.magic.build_anticomm_graph(n)), check=clique_check))
    for n, size, cliques in ((2, 5, 26), (3, 7, 2640)):
        def witness_check(w, n=n, size=size, cliques=cliques):
            ok = (w.max_clique_size, w.required_size, w.cliques_examined, w.holds) == (
                size, 4**n - 1, cliques, True)
            if n == 2:
                ok = ok and abs(w.ghz_deviation - 0.25) <= TOL
            return [] if ok else [f"witness wrong for n={n}"]

        jobs.append(Job(f"magic.witness.n{n}", f"magic.no_full_magic_basis_witness.n{n}",
                        lambda ctx, n=n: q.magic.no_full_magic_basis_witness(n),
                        check=witness_check))
    jobs.append(Job("magic.catalog", "magic.n2_catalog", lambda ctx: q.magic.n2_catalog(),
                    check=_catalog_check))
    for index, clique in enumerate(ref.maximal_cliques(2)):
        trial_seed = int(rng.integers(2**31))

        def verify(ctx, clique=clique, trial_seed=trial_seed):
            basis = q.magic.partial_basis_from_set(
                q.pauli.pauli_from_quaternary(a, 2) for a in clique)
            return q.magic.verify_partial_basis(basis, 100, trial_seed)

        def verify_check(v):
            ok = v.passed and v.failures == 0 and v.trials == 100
            ok = ok and v.min_fidelity >= 1 - TOL and v.max_condition_deviation <= TOL
            return [] if ok else [f"partial basis verification failed: {v}"]

        jobs.append(Job(f"magic.verify.c{index:02d}", "magic.verify_partial_basis", verify,
                        check=verify_check,
                        digest=lambda v: (v.max_condition_deviation, v.min_fidelity)))
    for k in range(5):
        lam = (k + rng.uniform(0.1, 0.9)) * (np.pi / 4) / 5
        e = ref.schmidt_channel(lam)
        state = q.linalg.StateVector(2, e.reshape(-1))

        def masfi(ctx, state=state):
            ch = q.channel.channel_from_state(state, 1)
            return q.teleport.masfi_1q(ch), q.channel.concurrence_2q(state)

        def masfi_check(result, e=e):
            m, c = result
            c_ref = ref.concurrence(e)
            problems = _close(c, c_ref, "concurrence")
            problems += _close(m.value, 2 * c_ref / (1 + c_ref), "masfi vs 2C/(1+C)", 1e-3)
            return problems + ([] if m.converged else ["masfi refinement did not converge"])

        jobs.append(Job(f"teleport.masfi.k{k}", "teleport.masfi_1q", masfi, check=masfi_check,
                        digest=lambda r: (r[0].value, r[1])))
    return jobs


# --- cli-cold ------------------------------------------------------------


def _cli_probability_check(info, e, b0, *, perfect, shots=None):
    def check(out):
        rows = out["outcomes"]
        probs = [row["probability"] for row in rows]
        problems = _probability_problems(probs, info, e, b0, perfect=perfect)
        problems += _close(out["summary"]["total_probability"], 1.0, "total_probability")
        if perfect and not out["summary"]["all_fidelities_perfect"]:
            problems.append("perfect channel did not report all fidelities perfect")
        if shots is not None and sum(row["count"] for row in rows) != shots:
            problems.append("sampled counts do not add up to the shots")
        return problems

    return check


def cli_cold(seed: int, q=None, tmpdir: str = ".") -> list[CliJob]:
    """Cold CLI subprocesses over all subcommands, plus a malformed-input slice."""
    rng = np.random.default_rng([seed, 3])

    def write(name, payload, raw=False):
        path = os.path.join(tmpdir, name)
        with open(path, "w") as fh:
            fh.write(payload if raw else json.dumps(payload))
        return path

    jobs: list[CliJob] = []
    for n in (1, 2, 3, 4):
        perfect = n != 2
        d = 2**n
        e = ref.perfect_channel(n, rng) if perfect else ref.random_state(d * d, rng).reshape(d, d)
        path = write(f"channel{n}.json", _state(2 * n, e))
        deviation = float(np.max(np.abs(e.conj().T @ e - np.eye(d) / d)))

        def channel_check(out, n=n, perfect=perfect, deviation=deviation):
            problems = [] if (out["n"], out["perfect"]) == (n, perfect) else ["verdict wrong"]
            return problems + _close(out["deviation"], deviation, "deviation")

        jobs.append(CliJob(f"cli.channel_check.n{n}", "cli.channel_check",
                           ["channel", "check", "--file", path], 0 if perfect else 1,
                           channel_check))
    for n in (1, 2, 3, 4, 5):
        spot = sorted({0, 4**n - 1, int(rng.integers(4**n))})

        def bell_check(out, n=n, spot=spot):
            if (out["size"], out["complete"], len(out["members"])) != (4**n, True, 4**n):
                return ["bell gen report wrong"]
            problems = []
            for a in spot:
                entries = np.array(out["members"][a]["entries"])
                member = (entries[:, 0] + 1j * entries[:, 1]).reshape(2**n, 2**n)
                problems += _close(member, ref.pauli_matrix(a, n) / np.sqrt(2**n), f"member {a}")
            return problems

        jobs.append(CliJob(f"cli.bell_gen.n{n}", "cli.bell_gen",
                           ["bell", "gen", "--n", str(n)], 0, bell_check))

    def teleport_inputs(n, e):
        d = 2**n
        info = ref.random_state(d, rng)
        return info, write(f"info{len(jobs)}.json", _state(n, info)), write(
            f"tchannel{len(jobs)}.json", _state(2 * n, e))

    e3 = ref.perfect_channel(3, rng)
    info, info_path, ch_path = teleport_inputs(3, e3)
    jobs.append(CliJob("cli.teleport_run.exhaustive.n3", "cli.teleport_run.exhaustive",
                       ["teleport", "run", "--info", info_path, "--channel", ch_path,
                        "--expect-perfect"], 0,
                       _cli_probability_check(info, e3, np.eye(8) / np.sqrt(8), perfect=True)))
    e2 = ref.perfect_channel(2, rng)
    info, info_path, ch_path = teleport_inputs(2, e2)
    shot_seed = int(rng.integers(2**31))
    jobs.append(CliJob("cli.teleport_run.sampled.n2", "cli.teleport_run.sampled",
                       ["teleport", "run", "--info", info_path, "--channel", ch_path,
                        "--mode", "sampled", "--seed", str(shot_seed), "--shots", "1000"], 0,
                       _cli_probability_check(info, e2, np.eye(4) / 2, perfect=True,
                                              shots=1000)))
    good_info, good_channel = info_path, ch_path
    e2i = ref.random_state(16, rng).reshape(4, 4)
    b0 = ref.perfect_channel(2, rng)
    members = [ref.pauli_matrix(a, 2) @ b0 for a in range(16)]
    basis_path = write("basis2.json", [
        {"rows": 4, "cols": 4, "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}
        for m in members])
    info, info_path, ch_path = teleport_inputs(2, e2i)
    jobs.append(CliJob("cli.teleport_run.basis.n2", "cli.teleport_run.basis",
                       ["teleport", "run", "--info", info_path, "--channel", ch_path,
                        "--basis", basis_path], 0,
                       _cli_probability_check(info, e2i, b0, perfect=False)))

    def cliques_check(out):
        cliques = [tuple(c["alphas"]) for c in out["maximal_cliques"]]
        problems = [] if (len(cliques), out["max_size"]) == (2640, 7) else ["n=3 cliques wrong"]
        return problems + ref.clique_problems(cliques, 3)

    jobs.append(CliJob("cli.magic_cliques.n3", "cli.magic_cliques",
                       ["magic", "cliques", "--n", "3"], 0, cliques_check))

    def catalog_check(out):
        problems = [] if set(out["printed_state_typos"]) == {"D1", "D2"} else ["typos wrong"]
        if len(out["maximal_sets"]) != 26:
            problems.append("catalog maximal sets wrong")
        return problems + _quarter_problems(out["quarter_basis_families"])

    jobs.append(CliJob("cli.magic_catalog", "cli.magic_catalog",
                       ["magic", "catalog"], 0, catalog_check))
    cliques2 = ref.maximal_cliques(2)
    clique = cliques2[int(rng.integers(len(cliques2)))]

    def verify_check(out):
        ok = (out["passed"], out["failures"], out["dimension"]) == (True, 0, len(clique) + 1)
        return [] if ok else ["verification failed"]

    def witness_check(out):
        ok = (out["max_clique_size"], out["required_size"], out["cliques_examined"],
              out["holds"]) == (5, 15, 26, True)
        ok = ok and abs(out["ghz_counterexample"]["deviation"] - 0.25) <= TOL
        return [] if ok else ["witness wrong"]

    jobs.append(CliJob("cli.magic_verify.n2", "cli.magic_verify",
                       ["magic", "verify", "--n", "2", "--set", ",".join(map(str, clique)),
                        "--trials", "100", "--seed", str(int(rng.integers(2**31)))], 0,
                       verify_check))
    jobs.append(CliJob("cli.magic_witness.n2", "cli.magic_witness",
                       ["magic", "witness", "--n", "2"], 0, witness_check))
    lam = rng.uniform(0.1, np.pi / 4 - 0.1)
    e1 = ref.schmidt_channel(lam)
    c_ref = ref.concurrence(e1)
    path = write("masfi.json", _state(2, e1))
    jobs.append(CliJob("cli.masfi", "cli.masfi", ["masfi", "--channel", path], 0,
                       lambda out: _close(out["concurrence"], c_ref, "concurrence") + _close(
                           out["masfi"], 2 * c_ref / (1 + c_ref), "masfi vs 2C/(1+C)", 1e-3)))

    # README: exit 2 for usage or file-format errors, with no traceback.  The
    # known_defect entries are the ROADMAP item-4 behaviour at the baseline;
    # they stay in the workload and count as failures until fixed.
    malformed = [
        ("top_level_number", ["channel", "check", "--file", write("number.json", "42", True)],
         (1, "TypeError"), "state file whose top level is a JSON number"),
        ("empty_basis", ["teleport", "run", "--info", good_info, "--channel", good_channel,
                         "--basis", write("empty_basis.json", [])],
         (1, "IndexError"), "empty --basis file"),
        ("n_qubits_text", ["channel", "check", "--file",
                           write("text_n.json", {"n_qubits": "abc", "amplitudes": [[1, 0]]})],
         (1, "ValueError"), "\"n_qubits\": \"abc\""),
        ("amplitude_count", ["channel", "check", "--file",
                             write("short.json", {"n_qubits": 2, "amplitudes": [[1, 0]] * 3})],
         (1, None), "wrong amplitude count (ShapeError, exit 1)"),
        ("truncated_json", ["channel", "check", "--file",
                            write("truncated.json", '{"n_qubits": 2, "ampl', True)], None, ""),
        ("missing_file", ["channel", "check", "--file", os.path.join(tmpdir, "absent.json")],
         None, ""),
        ("bad_argument", ["bell", "gen", "--n", "two"], None, ""),
    ]
    for name, argv, defect, note in malformed:
        jobs.append(CliJob(f"cli.malformed.{name}", "cli.malformed", argv, 2, None,
                           defect, note))
    return jobs


def one_per_class(jobs) -> list:
    """The first job of each class, malformed CLI inputs left out."""
    first = {}
    for job in jobs:
        if job.cls != "cli.malformed":
            first.setdefault(job.cls, job)
    return list(first.values())


WORKLOADS = {
    "teleport-dense": teleport_dense,
    "magic-small-n": magic_small_n,
    "cli-cold": cli_cold,
}

# seconds one untraced pass of each job list takes on the reference host (a
# 2-vCPU Xeon VM at 2.1 GHz); `--seconds` is turned into a pass count with it
PASS_S = {"teleport-dense": 3.5, "magic-small-n": 4.5, "cli-cold": 22.0}
