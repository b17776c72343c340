"""Tests of the benchmark harness itself.

Run from the repository root: python -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import qtel.magic  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, job="j#0", layer=None):
    return spans.Span(name, layer or name.split(".")[0], start, end, parent, job)


class TestSelfTime:
    def test_nested_spans(self):
        tree = [
            span("teleport.run", 0.0, 10.0),
            span("linalg.a", 1.0, 4.0, parent=0),
            span("pauli.b", 2.0, 3.0, parent=1),
            span("linalg.c", 5.0, 9.0, parent=0),
        ]
        assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_counted_once(self):
        tree = [span("a.x", 0.0, 10.0), span("b.y", 1.0, 5.0, 0), span("b.z", 3.0, 7.0, 0)]
        assert spans.self_times(tree)[0] == pytest.approx(4.0)

    def test_merge_shifts_parents(self):
        merged = spans.merge([[span("a.x", 0, 2), span("b.y", 0, 1, 0)],
                              [span("a.x", 5, 7), span("b.y", 5, 6, 0)]])
        assert [s.parent for s in merged] == [-1, 0, -1, 2]

    def test_layer_totals_are_per_pass_medians(self):
        tree = [span("linalg.a", 0, 1, job="j#0"), span("linalg.a", 0, 3, job="j#1"),
                span("linalg.a", 0, 2, job="j#2"), span("linalg.a", 0, 5, job="k#0")]
        data = layers.TraceData(tree, [], ["j#0", "j#1", "j#2", "k#0"])
        assert data.self_ms(lambda s: s.layer == "linalg") == pytest.approx(1e3 * (2 + 5))
        assert data.calls(lambda s: s.layer == "linalg") == 2.0
        assert data.self_ms(lambda s: s.layer == "magic") is None


class TestReferenceChecks:
    def test_reference_paulis_match_dense_products(self):
        psi = ref.random_state(8, np.random.default_rng(0))
        rows = ref.paulis_on_vector(psi, 3)
        for alpha in range(64):
            np.testing.assert_allclose(rows[alpha], ref.pauli_matrix(alpha, 3) @ psi, atol=1e-15)

    def test_perturbed_probabilities_are_rejected(self):
        rng = np.random.default_rng(1)
        e, info = ref.perfect_channel(2, rng), ref.random_state(4, rng)
        b0 = np.eye(4) / 2
        probs = ref.outcome_probabilities(info, e, b0)
        assert workloads._probability_problems(probs, info, e, b0, perfect=True) == []
        probs[3] += 1e-6
        assert workloads._probability_problems(probs, info, e, b0, perfect=True)

    def test_perturbed_protocol_result_is_rejected(self):
        jobs = workloads.teleport_dense(5, qtel)
        ctx = {}
        for job in jobs:
            if not job.id.endswith("n1"):
                break
            result = job.run(ctx)
            if job.store:
                ctx[job.store] = result
            if job.id == "teleport.perfect.std.n1":
                assert job.problems(result) == []
                records = list(result.records)
                records[0] = dataclasses.replace(records[0], fidelity=1 - 1e-6)
                assert job.problems(dataclasses.replace(result, records=tuple(records)))
                return
        pytest.fail("no perfect-channel job at n=1")

    def test_clique_checks_reject_bad_sets(self):
        good = ref.maximal_cliques(2)
        assert len(good) == 26 and ref.clique_problems(good, 2) == []
        assert ref.clique_problems([good[0][:-1], *good[1:]], 2)  # not maximal
        assert ref.clique_problems([good[0], good[0]], 2)  # listed twice
        assert ref.clique_problems([(1, 2)], 2)  # IZ, IX anticommute but IY joins them
        assert ref.clique_problems([(1, 4)], 2)  # IZ and ZI commute


class TestWrappers:
    def _results(self, q, seed):
        ctx, out = {}, []
        jobs = [j for j in workloads.teleport_dense(seed, q) if j.id.endswith(("n1", "n2"))]
        jobs += [j for j in workloads.magic_small_n(seed, q)
                 if j.id in ("pauli.family.n2", "magic.cliques.n2", "magic.verify.c00",
                             "teleport.masfi.k0")]
        for job in jobs:
            result = job.run(ctx)
            if job.store:
                ctx[job.store] = result
            out.append(repr(result))
            if hasattr(result, "records"):
                out.append([(r.probability, r.fidelity) for r in result.records])
        return out

    @pytest.mark.parametrize("memory", [False, True])
    def test_traced_results_are_bit_identical(self, memory):
        plain = self._results(qtel, 3)
        tracer = spans.Tracer(memory=memory)
        tracer.install()
        try:
            traced = self._results(qtel, 3)
        finally:
            tracer.remove()
        assert traced == plain
        assert {s.layer for s in tracer.spans} >= {"linalg", "pauli", "channel", "bell",
                                                   "teleport", "magic"}
        assert self._results(qtel, 3) == plain

    def test_remove_restores_every_binding(self):
        import qtel.bell
        import qtel.teleport

        before = (qtel.bell.is_scaled_identity, qtel.teleport.run_protocol, qtel.run_protocol,
                  qtel.teleport.minimize)
        tracer = spans.Tracer(memory=False)
        tracer.install()
        assert qtel.bell.is_scaled_identity is not before[0]
        assert qtel.run_protocol is qtel.teleport.run_protocol is not before[1]
        tracer.remove()
        assert (qtel.bell.is_scaled_identity, qtel.teleport.run_protocol, qtel.run_protocol,
                qtel.teleport.minimize) == before

    def test_cli_driver_output_matches_plain_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        argv = ["--format", "json", "magic", "witness", "--n", "2"]
        plain = subprocess.run([sys.executable, "-m", "qtel.cli", *argv], env=env,
                               capture_output=True, cwd=ROOT, timeout=120)
        span_file = tmp_path / "spans.json"
        traced = subprocess.run([sys.executable, os.path.join(BENCH, "cli_driver.py"),
                                 str(span_file), "0", "--", *argv], env=env,
                                capture_output=True, cwd=ROOT, timeout=120)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
        payload = json.loads(span_file.read_text())
        assert payload["import_ms"] > 0
        assert any(row[0] == "cli.main" for row in payload["spans"])


class TestCliAttribution:
    def _runner(self, tmp_path):
        import worker

        return worker.Runner("cli-cold", 0, str(tmp_path))

    def _job(self, runner, name):
        return next(j for j in runner.jobs if j.id == f"cli.malformed.{name}")

    def test_known_defect_is_attributed(self, tmp_path):
        runner = self._runner(tmp_path)
        job = self._job(runner, "top_level_number")
        proc = types.SimpleNamespace(returncode=1, stdout=b"", stderr=(
            b"Traceback (most recent call last):\n  ...\nTypeError: argument of type 'int'\n"))
        problems, defect = runner._check_cli(job, proc)
        assert problems and defect == job.defect_note

    def test_fixed_defect_passes_and_other_failures_are_unattributed(self, tmp_path):
        runner = self._runner(tmp_path)
        job = self._job(runner, "top_level_number")
        fixed = types.SimpleNamespace(returncode=2, stdout=b"", stderr=b"error: bad file\n")
        assert runner._check_cli(job, fixed) == ([], None)
        other = self._job(runner, "truncated_json")
        broken = types.SimpleNamespace(returncode=1, stdout=b"", stderr=b"error: x\n")
        problems, defect = runner._check_cli(other, broken)
        assert problems and defect is None


def test_benchmark_json_matches_the_harness():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    table = [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in layers.TABLE]
    assert spec["per_layer"] == table
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestMeasurementPlan:
    def test_passes_depend_on_the_arguments_only(self):
        import worker

        assert worker.planned_passes("teleport-dense", 25, False) == 7
        assert worker.planned_passes("teleport-dense", 25, True) == 2
        assert worker.planned_passes("cli-cold", 1, False) == 1
        assert all(worker.planned_passes(w, 25, t) >= 1
                   for w in workloads.WORKLOADS for t in (False, True))

    def test_host_factor_is_the_geometric_mean_of_kernel_slowdowns(self):
        import hostspeed

        probe = hostspeed.Probe()
        probe.samples = {name: [ref_s, 3 * ref_s, ref_s]
                         for name, ref_s in hostspeed.REFERENCE_S.items()}
        assert probe.factor() == pytest.approx(1.0)
        slow = dict.fromkeys(hostspeed.REFERENCE_S, 1.0)
        slow["python"], slow["memory"] = 2.0, 8.0
        probe.samples = {name: [k * hostspeed.REFERENCE_S[name]] for name, k in slow.items()}
        assert probe.factor() == pytest.approx(2.0)  # (1 * 1 * 2 * 8) ** (1 / 4)

    def test_probe_times_every_kernel(self):
        import hostspeed

        probe = hostspeed.Probe()
        probe.run()
        probe.catch_up()  # too soon after run(): no second round
        assert all(len(v) == 1 and v[0] > 0 for v in probe.samples.values())
        assert 0 < probe.factor() < 100
