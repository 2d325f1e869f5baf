"""Tests of the benchmark itself: metric names, seeding and failing checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import metrics, run, service_drain, service_requests  # noqa: E402
from perfbench import sim_sweep, spans  # noqa: E402
from perfbench.common import Outcome  # noqa: E402


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(workload: str, trace: int, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def test_metric_tables_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} \
        == set(metrics.WORKLOAD_MEANING) - {"sim_sweep"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(metrics.WORKLOAD_MEANING))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    rc, stdout = run_workload(workload, 0)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert rc == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == metrics.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    rc, stdout = run_workload("service_requests", 1)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert rc == 0, stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == metrics.PER_LAYER
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["api.submit_ms"] > 0 and values["admission.check_ms"] > 0
    assert values["http.header_to_body_ms"] > 0


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_check_fails_the_command(monkeypatch, capsys):
    def broken(seed, seconds, trace, scratch):
        out = Outcome(attempted=1, e2e=dict.fromkeys(metrics.END_TO_END, 1.0))
        out.check("deliberately wrong", False)
        return out

    monkeypatch.setattr(sim_sweep, "run", broken)
    rc = run.main(["--workload", "sim_sweep", "--seed", "1",
                   "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and result["correct"] is False


def test_seed_changes_the_inputs():
    first = sim_sweep.ConfigStream(1).next_pass()
    assert first == sim_sweep.ConfigStream(1).next_pass()
    assert first != sim_sweep.ConfigStream(2).next_pass()
    assert len({cfg for _, cfg in first}) == len(first) == 96
    assert service_drain.payloads(1, 0) == service_drain.payloads(1, 0)
    assert service_drain.payloads(1, 0) != service_drain.payloads(2, 0)

    def ops(seed):
        stream = service_requests.OpStream(seed, 0)
        return [stream.next() for _ in range(40)]

    assert ops(1) == ops(1) and ops(1) != ops(2)
    names = [op for op, _ in ops(1)[:20]]
    assert names[0] == "submit"
    assert {n: names.count(n) for n in set(names)} == dict(
        service_requests.MIX)


def test_corrupted_digest_fails_the_check():
    sweep = sim_sweep.Sweep(5)
    sweep.measure(0.0)
    report = sweep.first_reports[0]
    report.makespan = report.makespan * (1 + 1e-12)
    out = Outcome()
    sim_sweep.check_outputs(sweep, out)
    failed = [name for name, ok, _ in out.checks if not ok]
    assert failed == ["sim.digest stable"]


def test_wrong_result_fails_the_drain_check(tmp_path):
    import random

    from repro.service import Service, payload_key

    jobs = service_drain.payloads(4, 0)[:service_drain.SAMPLED]
    service = Service(tmp_path / "wd")
    for payload in jobs:
        service.submit("sim", payload)
    service.run_workers(n=1)
    out = Outcome()
    service_drain.check_round(service, jobs, random.Random(0), out)
    assert out.correct
    wrong = jobs[0]
    key = payload_key("sim", wrong)
    by_key = {job.key: job.id for job in service.status().jobs}
    result = dict(service.result(by_key[key]))
    result["makespan"] *= 1.5
    service.cache.put(key, "sim", wrong, result)
    out = Outcome()
    service_drain.check_round(service, jobs, random.Random(0), out)
    assert [name for name, ok, _ in out.checks if not ok] \
        == [f"result of n={wrong['n']} equals simulate_run"]


def test_tracer_nests_spans_and_dumps_its_own(tmp_path):
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = spans.Tracer()
    tracer.wrap(Box, "outer", "t.outer")
    tracer.wrap(Box, "inner", "t.inner", value=lambda result, _: result)
    assert Box().outer() == 2
    tracer.uninstall()
    assert Box.outer.__name__ == "outer" and not hasattr(Box.outer,
                                                         "__wrapped__")
    inner, outer = tracer.spans
    assert inner[spans.NAME] == "t.inner" and inner[spans.VALUE] == 1
    assert inner[spans.PARENT] == outer[spans.SID]
    assert spans.self_ms(outer, [inner]) <= spans.duration_ms(outer)
    inner[spans.PID] = -1  # as if inherited from a forking parent
    tracer.dump(str(tmp_path / "spans"))
    tracer.dump(str(tmp_path / "spans"))
    assert spans.load(str(tmp_path / "spans")) == [outer]
