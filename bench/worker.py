"""One workload in one fresh process: set up, measure, check, and report as JSON.

`run.py` starts this script; it is not meant to be run by hand.  With
`--setup-only` it stops after set-up and reports when set-up finished, so
that `run.py` can take the median of several set-ups.  The last line of
stdout is the JSON report.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import PASS_S, WORKLOADS, CliJob, one_per_class  # noqa: E402

CLI_TIMEOUT_S = 120


def _qtel():
    import qtel.bell
    import qtel.channel
    import qtel.linalg
    import qtel.magic
    import qtel.pauli
    import qtel.teleport

    if not os.path.abspath(qtel.__file__).startswith(os.path.join(ROOT, "src")):
        raise RuntimeError(f"qtel imported from {qtel.__file__}, not from this checkout")
    return qtel


def openblas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def versions() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_threads": openblas_threads()}


class Runner:
    """Runs jobs one at a time (closed loop, one client) and checks each result."""

    def __init__(self, workload: str, seed: int, tmpdir: str):
        self.workload = workload
        self.cli = workload == "cli-cold"
        self.tmpdir = tmpdir
        self.q = None if self.cli else _qtel()
        self.jobs = WORKLOADS[workload](seed, self.q, tmpdir)
        self.ctx: dict = {}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.attempted = self.failed = 0
        self.failures: list[dict] = []
        self.digests: dict = {}
        self.invocations: Counter = Counter()
        self.cli_stats = {"import_ms": [], "main_ms": defaultdict(list), "stdout": {},
                          "mismatches": set()}
        self.trace_spans: list[list] = []
        self.trace_events: list = []
        self.traced_keys: list[str] = []
        self.mem_spans: list[list] = []
        self.probe = hostspeed.Probe()

    # --- one invocation ---------------------------------------------------

    def run(self, job, traced: bool = False, memory: bool = False) -> float:
        """One invocation; `traced` records spans, `memory` also tracemalloc peaks.

        Spans with memory on are slowed by tracemalloc, so they feed only the
        per-layer memory peaks, and spans with memory off feed everything else.
        """
        k = self.invocations[job.id]
        self.invocations[job.id] += 1
        key = f"{job.id}#{k}"
        traced = traced or memory
        if isinstance(job, CliJob):
            elapsed, problems, defect = self._run_cli(job, key, traced, memory)
        else:
            elapsed, problems, defect = self._run_library(job, key, traced, memory)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append({"job": job.id, "invocation": k, "traced": traced,
                                  "problems": problems[:3], "known_defect": defect})
        if traced and not memory:
            self.traced_keys.append(key)
        return elapsed

    def _keep(self, group, events, memory):
        if memory:
            self.mem_spans.append(group)
        else:
            self.trace_spans.append(group)
            self.trace_events += events

    def _run_library(self, job, key, traced, memory):
        tracer = spans.Tracer(memory=memory) if traced else None
        if tracer is not None:
            tracer.job = key
            tracer.install()
        try:
            start = time.perf_counter()
            result = job.run(self.ctx)
            elapsed = time.perf_counter() - start
        except Exception:  # a raising job is a failed job, not a crashed benchmark
            return 0.0, [traceback.format_exc(limit=3)], None
        finally:
            if tracer is not None:
                tracer.remove()
                self._keep(tracer.spans, tracer.events, memory)
        problems = job.problems(result)
        if job.digest is not None:
            digest = job.digest(result)
            if self.digests.setdefault(job.id, digest) != digest:
                problems.append("result differs from an earlier invocation of the same job")
        if job.store:
            self.ctx[job.store] = result
        return elapsed, problems, None

    def _run_cli(self, job, key, traced, memory):
        span_file = os.path.join(self.tmpdir, "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(BENCH, "cli_driver.py"), span_file,
                   str(int(memory)), "--"]
        else:
            cmd = [sys.executable, "-m", "qtel.cli"]
        cmd += ["--format", "json", *job.argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if traced:
            self._collect_cli_spans(job, key, span_file, memory)
        return (elapsed, *self._check_cli(job, proc))

    def _check_cli(self, job, proc):
        err = proc.stderr.decode(errors="replace")
        exception = None
        if "Traceback (most recent call last)" in err:
            exception = err.strip().splitlines()[-1].split(":")[0]
        problems = []
        if proc.returncode != job.exit_code or exception:
            self.cli_stats["mismatches"].add(job.id)
            problems.append(f"exit {proc.returncode}, expected {job.exit_code}"
                            + (f"; {exception} traceback" if exception else ""))
        previous = self.digests.setdefault(job.id, proc.stdout)
        if previous != proc.stdout:
            problems.append("stdout differs from an earlier invocation of the same job")
        self.cli_stats["stdout"][job.id] = len(proc.stdout)
        if job.check is not None and not problems:
            try:
                out = json.loads(proc.stdout)
                if out.get("schema") != "qtel/1":
                    problems.append("missing \"schema\": \"qtel/1\"")
                problems += job.check(out)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable report: {exc!r}")
        defect = None
        if problems and job.known_defect == (proc.returncode, exception):
            defect = job.defect_note
        return problems, defect

    def _collect_cli_spans(self, job, key, span_file, memory):
        try:
            with open(span_file) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return  # cli_driver.py died before writing; the exit-code check reports it
        os.remove(span_file)
        group, events = spans.load_spans(payload, key)
        self._keep(group, events, memory)
        if memory:
            return
        self.cli_stats["import_ms"].append(payload["import_ms"])
        self.cli_stats["main_ms"][job.sub] += [1e3 * s.duration for s in group
                                               if s.name == "cli.main"]

    # --- measurement ------------------------------------------------------

    def warm_up(self):
        """Run the cheapest job of each class once, untimed and unrecorded."""
        if self.cli:
            subprocess.run([sys.executable, "-m", "qtel.cli", "--format", "json",
                            *self.jobs[0].argv], env=self.env, cwd=ROOT, capture_output=True,
                           timeout=CLI_TIMEOUT_S)
            return
        seen = set()
        for job in self.jobs:
            if job.cls not in seen and not job.id.endswith(("n5", "n6")):
                seen.add(job.cls)
                result = job.run(self.ctx)
                if job.store:
                    self.ctx[job.store] = result
                self.release(job)
        self.ctx.clear()

    def measure(self, passes: int, traced: bool):
        """Run the job list `passes` times, one job at a time.

        With `traced`, each job is run untraced and then traced, back to back.
        The host-speed probe runs between jobs, outside their timings.
        """
        samples, traced_samples = defaultdict(list), defaultdict(list)
        self.probe.run()
        for _ in range(passes):
            for job in self.jobs:
                self.probe.catch_up()
                samples[job.id].append(self.run(job))
                if traced:
                    traced_samples[job.id].append(self.run(job, traced=True))
                self.release(job)
        return samples, traced_samples

    def release(self, job):
        """Drop what a job's last user no longer needs (the N = 6 basis is 268 MB)."""
        for name in getattr(job, "release", ()):
            self.ctx.pop(name, None)

    def memory_pass(self):
        """One tracemalloc-traced invocation of the first job of each class."""
        self.ctx.clear()
        for job in one_per_class(self.jobs):
            self.run(job, memory=True)
            self.release(job)

    def census(self, missing: set, seed: int) -> dict:
        """Per-layer metrics this workload leaves undefined, from other workloads' jobs.

        Every traced run reports every per-layer metric; a metric the
        workload's own jobs do not produce comes from traced invocations of
        the first job of each class of another workload.  The output names
        the source of each such metric.
        """
        filled = {}
        for other in WORKLOADS:
            if other == self.workload or not missing:
                continue
            sub = Runner(other, seed, self.tmpdir)
            sub.jobs = one_per_class(sub.jobs)
            for job in sub.jobs:
                sub.run(job, traced=True)
                sub.release(job)
            if any(name.endswith("tracemalloc_peak_mb") for name in missing):
                sub.memory_pass()
            if sub.failed:
                raise RuntimeError(f"census jobs of {other} failed: {sub.failures[:3]}")
            values = layers.compute(sub.trace_data())
            for name in sorted(missing):
                if values[name] is not None:
                    filled[name] = (values[name], other)
            missing = missing - set(filled)
        return filled

    def trace_data(self) -> layers.TraceData:
        stats = self.cli_stats
        cli = {}
        if stats["import_ms"]:
            cli = {"import_ms": stats["import_ms"], "main_ms": stats["main_ms"],
                   "stdout_bytes": sum(stats["stdout"].values()),
                   "mismatches": len(stats["mismatches"])}
        return layers.TraceData(spans.merge(self.trace_spans), self.trace_events,
                                self.traced_keys, cli, spans.merge(self.mem_spans))


def planned_passes(workload: str, seconds: float, traced: bool) -> int:
    """Passes of the job list that fill about `seconds` on the reference host.

    The count depends on the arguments only, never on the clock, so that runs
    of the same code attempt the same jobs however fast the host is at the time.
    A traced pass runs every job twice, and a traced run also makes a memory
    pass and runs census jobs, so traced runs make a third as many passes.
    """
    return max(1, round(seconds / PASS_S[workload] / (3 if traced else 1)))


def wall(samples) -> float:
    """Time to finish the job list once: the sum of per-job median times."""
    return sum(statistics.median(v) for v in samples.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tmpdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        runner = Runner(args.workload, args.seed, tmpdir)
        runner.warm_up()
        ready = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        passes = planned_passes(args.workload, args.seconds, bool(args.trace))
        samples, traced_samples = runner.measure(passes, bool(args.trace))
        who = resource.RUSAGE_CHILDREN if runner.cli else resource.RUSAGE_SELF
        report = {
            "ready": ready,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "wall_s": wall(samples),
            "host_factor": runner.probe.factor(),
            "passes": passes,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "job_classes": dict(Counter(job.cls for job in runner.jobs)),
            "job_latency_ms": {cls: 1e3 * statistics.median(
                t for job in runner.jobs if job.cls == cls for t in samples[job.id])
                for cls in sorted({job.cls for job in runner.jobs})},
            "versions": versions(),
        }
        if args.trace:
            runner.memory_pass()
            values = layers.compute(runner.trace_data())
            traced_wall = wall(traced_samples)
            values["trace.overhead_ratio"] = traced_wall / report["wall_s"] - 1
            missing = {name for name, value in values.items() if value is None}
            census = runner.census(missing, args.seed)
            values.update({name: value for name, (value, _) in census.items()})
            if missing - set(census):
                raise RuntimeError(f"no data for {sorted(missing - set(census))}")
            report.update(per_layer=values, wall_s_traced=traced_wall,
                          census_source={name: src for name, (_, src) in census.items()})
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass  # another worker's directory is still there


if __name__ == "__main__":
    sys.exit(main())
