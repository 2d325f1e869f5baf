"""Workload ``service_drain``: a local pool drains a backlog of sim jobs.

Each round puts a seeded backlog of distinct small ``sim`` jobs
(N in 2048..10240, NB 128, 2x2 grid) into a fresh workdir through
``Service.submit`` in a fresh process (the set-up), then drains it with
``python -m repro workers -n 2`` as a subprocess, timed from spawn to
exit.  The job path does almost all the work; the simulator runs for a
few milliseconds per job.

The pool stays in its own ``repro workers`` process, and the traced
launcher never imports ``repro.perf`` in the supervisor.  That is
deliberate: each forked job child pays the ~0.55 s simulator import
itself, which holds the drain near 3.7 jobs/s on a 2-core host; the same
drain ran at 50.7 jobs/s once the supervisor had imported ``repro.perf``
before forking.  Pre-importing in the benchmark would hide exactly the
cost the persistent-worker change has to remove.

Per-job stage times come from the public ``Service.events_page`` feed
(``submitted``, ``claimed``, ``launched`` and ``done`` events), not from
the audit log's file format.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import time

from . import spans as sp
from .common import (Outcome, ROOT, SETUP_SAMPLES, child_env, median,
                     percentile, python_cmd, ready_seconds, repro_cmd,
                     sim_digest)
from .layers import span_metrics

BACKLOG = 40
SLOTS = 2
#: Jobs per round whose stored result is re-simulated in the harness.
SAMPLED = 3

#: The set-up process: argv is workdir, backlog file[, span file].
SUBMIT_CODE = """
import json, sys
traced = len(sys.argv) > 3
if traced:
    from perfbench.layers import install_service
    from perfbench.spans import Tracer
    tracer = Tracer()
    install_service(tracer, sys.argv[3])
from repro.service import Service
service = Service(sys.argv[1])
with open(sys.argv[2]) as fh:
    payloads = json.load(fh)
for payload in payloads:
    service.submit("sim", payload)
print("ready", flush=True)
if traced:
    tracer.dump(sys.argv[3])
"""


def payloads(seed: int, round_no: int) -> list[dict]:
    rng = random.Random(f"drain:{seed}:{round_no}")
    return [{"n": n, "nb": 128, "p": 2, "q": 2}
            for n in rng.sample(range(2048, 10241), BACKLOG)]


def set_up(workdir: str, jobs: list[dict],
           trace_file: str | None = None) -> float:
    """Fresh process: open the workdir and enqueue ``jobs``; seconds."""
    os.makedirs(workdir)
    path = os.path.join(workdir, "backlog.json")
    with open(path, "w") as fh:
        json.dump(jobs, fh)
    argv = [workdir, path] + ([trace_file] if trace_file else [])
    return ready_seconds(python_cmd("-c", SUBMIT_CODE, *argv), str(ROOT))


def read_events(service) -> list:
    views, cursor = [], None
    while True:
        page, cursor, _ = service.events_page(cursor=cursor, limit=1000)
        if not page:
            return views
        views += page


def simulate_in_harness(payload: dict) -> dict:
    from repro.machine.frontier import crusher_cluster
    from repro.perf.hplsim import simulate_run
    from repro.perf.ledger import PerfConfig

    report = simulate_run(
        PerfConfig(n=payload["n"], nb=payload["nb"], p=payload["p"],
                   q=payload["q"], pl=payload["p"], ql=payload["q"]),
        crusher_cluster(1))
    return {"makespan": report.makespan,
            "score_tflops": report.score_tflops,
            "iterations": len(report.iterations)}


def check_round(service, jobs: list[dict], rng: random.Random,
                out: Outcome) -> list:
    """Every job DONE; sampled results equal an in-harness simulation.

    Returns each job's stored result in submit order (None if missing).
    """
    from repro.service import payload_key

    page = service.status()
    done = {j.key: j.id for j in page.jobs if j.state == "DONE"}
    out.check("every drained job is DONE",
              len(page.jobs) == len(jobs) == len(done),
              f"{len(done)} of {len(jobs)} DONE")
    keys = [payload_key("sim", payload) for payload in jobs]
    results = [service.result(done[k]) if k in done else None
               for k in keys]
    for i in rng.sample(range(len(jobs)), SAMPLED):
        want = simulate_in_harness(jobs[i])
        got = {k: results[i].get(k) for k in want} if results[i] else None
        out.check(f"result of n={jobs[i]['n']} equals simulate_run",
                  got == want, f"job {done.get(keys[i], '?')}")
    return results


class Drain:
    """Rounds of set-up + timed drain, with their per-job stage times."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.rounds = 0
        self.setup: list[float] = []
        #: ``sim_digest`` of the first round's results (per-layer).
        self.digest = (0, 0)
        self.check_rng = random.Random(f"drain-check:{seed}")

    def round(self, trace_file: str | None, out: Outcome) -> dict:
        from repro.service import Service

        workdir = os.path.join(self.scratch, f"drain-{self.rounds}")
        jobs = payloads(self.seed, self.rounds)
        self.rounds += 1
        setup = set_up(workdir, jobs, trace_file)
        if trace_file is None:
            self.setup.append(setup)
        argv = ["workers", "-n", str(SLOTS), "--workdir", workdir]
        t0 = time.perf_counter()
        proc = subprocess.run(repro_cmd(argv, trace_file), cwd=str(ROOT),
                              env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=150)
        wall = time.perf_counter() - t0
        out.check(f"pool exit status (round {self.rounds})",
                  proc.returncode == 0, f"exit {proc.returncode}")
        service = Service(workdir)
        stamps: dict[str, dict[str, float]] = {}
        for view in read_events(service):
            stamps.setdefault(view.job_id, {}).setdefault(view.kind, view.t)
        results = check_round(service, jobs, self.check_rng, out)
        if self.rounds == 1 and all(results):
            self.digest = sim_digest(
                (r["makespan"], r["score_tflops"], r["iterations"])
                for r in results)
        out.attempted += len(jobs)
        out.failed += sum(1 for s in stamps.values() if "done" not in s)
        stages = {"queue_wait": [], "claim_to_launch": [],
                  "launch_to_done": [], "job_run": []}
        for s in stamps.values():
            if {"submitted", "claimed", "launched", "done"} <= s.keys():
                stages["queue_wait"].append(s["claimed"] - s["submitted"])
                stages["claim_to_launch"].append(s["launched"] - s["claimed"])
                stages["launch_to_done"].append(s["done"] - s["launched"])
                stages["job_run"].append(s["done"] - s["claimed"])
        return {"wall": wall,
                "stages": {k: [v * 1e3 for v in vs]
                           for k, vs in stages.items()}}

    def measure(self, seconds: float, trace_file: str | None,
                out: Outcome) -> dict[bool, list[dict]]:
        """Rounds that fit in ``seconds`` (at least one), keyed by
        whether each was traced.  With a ``trace_file`` rounds alternate untraced /
        traced, so both see the same host conditions."""
        rounds: dict[bool, list[dict]] = {False: [], True: []}
        traced = False
        last = 0.0
        deadline = time.perf_counter() + seconds
        while not rounds[trace_file is not None] \
                or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            rounds[traced].append(
                self.round(trace_file if traced else None, out))
            last = time.perf_counter() - t0
            traced = trace_file is not None and not traced
        return rounds


def drain_rate(rounds: list[dict]) -> float:
    """Jobs drained per second of pool wall time."""
    return BACKLOG * len(rounds) / sum(r["wall"] for r in rounds)


def pooled(rounds: list[dict], stage: str) -> list[float]:
    return [v for r in rounds for v in r["stages"][stage]]


def run(seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    out = Outcome()
    drain = Drain(seed, scratch)
    trace_file = os.path.join(scratch, "drain.spans") if trace else None
    measured = drain.measure(seconds, trace_file, out)
    rounds = measured[False]
    if trace:
        traced = measured[True]
        spans = sp.load(trace_file)
        jobs = sum(len(r["stages"]["job_run"]) for r in traced)
        starts = sum(1 for s in spans if s[sp.NAME] == "workers.process_start")
        busy = sum(sum(r["stages"]["launch_to_done"]) / 1e3 for r in traced)
        out.layers = span_metrics(spans)
        out.layers["sim.digest"], out.layers["sim.iterations"] = drain.digest
        out.layers.update({
            "workers.queue_wait_ms": median(pooled(traced, "queue_wait")),
            "workers.claim_to_launch_ms":
                median(pooled(traced, "claim_to_launch")),
            "workers.launch_to_done_ms":
                median(pooled(traced, "launch_to_done")),
            "workers.forks_per_job": starts / jobs if jobs else 0.0,
            "workers.busy_frac":
                busy / (SLOTS * sum(r["wall"] for r in traced)),
            "trace.overhead_frac":
                drain_rate(rounds) / drain_rate(traced) - 1.0,
        })
        out.notes["claim_to_launch + launch_to_done p50s (ms)"] = (
            out.layers["workers.claim_to_launch_ms"]
            + out.layers["workers.launch_to_done_ms"])
        out.notes["job_run p50 traced (ms)"] = median(
            pooled(traced, "job_run"))
    while not trace and len(drain.setup) < SETUP_SAMPLES:
        drain.setup.append(set_up(
            os.path.join(scratch, f"setup-{len(drain.setup)}"),
            payloads(seed, 1000 + len(drain.setup))))
    job_run = pooled(rounds, "job_run")
    out.e2e = {
        "setup_s": median(drain.setup),
        "throughput_per_s": drain_rate(rounds),
        "latency_p50_ms": percentile(job_run, 50),
        "latency_p95_ms": percentile(job_run, 95),
    }
    out.notes["rounds of %d jobs" % BACKLOG] = drain.rounds
    return out
