"""qtel benchmark: one seeded workload per run, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload teleport-dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload runs in fresh worker processes (bench/worker.py): set-up is
done SETUPS times; the last worker then runs the job list in a closed loop
(one client, one job at a time) for a fixed number of passes, about
--seconds on the reference host.  wall_ref_s is the time to finish the job
list once and setup_s the median set-up time, both divided by how much
slower than the reference host a fixed probe ran in the run
(bench/hostspeed.py).  With --trace 1 each job also runs with span wrappers
installed, and the per-layer metrics are reported instead of the end-to-end
ones.  The last line of stdout is the JSON result: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
BUDGET_S = 175  # a run must end within 180 s
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"))


def _source_identity() -> dict:
    sha = None
    if os.path.isdir(".git"):  # a checkout without .git must not report an enclosing repo
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def _worker(args, env, deadline, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned  # perf_counter is system-wide monotonic
    return report


def run_workload(args, env, record) -> dict:
    deadline = time.perf_counter() + BUDGET_S
    setups = [_worker(args, env, deadline, True)["setup_s"] for _ in range(SETUPS - 1)]
    report = _worker(args, env, deadline, False)
    setups.append(report["setup_s"])
    record = dict(record, **report["versions"], seed=args.seed, workload=args.workload,
                  job_classes=report["job_classes"])
    print("record:", json.dumps(record, sort_keys=True))
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload}: {attempted} job invocations, {failed} failed, "
          f"fail_ratio = {failed / attempted:.4f} (1)")
    for failure in report["failures"]:
        cause = (f"known ROADMAP item-4 defect: {failure['known_defect']}"
                 if failure["known_defect"] else "UNATTRIBUTED")
        print(f"  failed {failure['job']}#{failure['invocation']}"
              f"{' (traced)' if failure['traced'] else ''}: {'; '.join(failure['problems'])}"
              f" [{cause}]")
    print("wait time: none recorded; no layer queues work (closed loop, one job at a time)")
    correct = all(f["known_defect"] for f in report["failures"])
    if args.trace:
        values = report["per_layer"]
        for name, unit, _, moves, _ in layers.TABLE:
            source = report["census_source"].get(name)
            note = f"from {source} census jobs" if source else "from this workload"
            print(f"  {name} = {values[name]} {unit}  [{note}; moves: {moves}]")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _, _ in layers.TABLE}
    else:
        for cls, ms in report["job_latency_ms"].items():
            print(f"  job latency {cls}: median {ms:.3f} ms")
        # both times at the reference host's speed: the set-ups run just before
        # the measurement, so the host factor of the measurement applies to them
        host = report["host_factor"]
        values = {"setup_s": statistics.median(setups) / host,
                  "wall_ref_s": report["wall_s"] / host, "peak_rss_mb": report["peak_rss_mb"]}
        print(f"  host {host:.3f} times as slow as the reference host")
        print(f"  set-up {statistics.median(setups):.4f} s (median of {SETUPS} set-ups), "
              f"setup_s = {values['setup_s']:.4f} s")
        print(f"  wall_s = {report['wall_s']:.4f} s (sum of per-job medians over "
              f"{report['passes']} pass(es)), wall_ref_s = {values['wall_ref_s']:.4f} s")
        print(f"  peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qtel", "cli.py")):
        print("error: run from the root of a qtel checkout (src/qtel not found)", file=sys.stderr)
        return 2
    # one BLAS thread: a single client on matrices of at most 64 x 64 (1024 x 1024
    # once per N = 5 completeness check) gains little from more, and a cold CLI
    # process then skips starting a thread pool
    threads = 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH="src")
    record = {"nproc": os.cpu_count(), "openblas_threads_requested": threads,
              **_source_identity()}
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}),
                              env, record)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
