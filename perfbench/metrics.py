"""Every metric the benchmark reports, with its unit: one table.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` checks the
two agree.  End-to-end metrics are reported by every workload (untraced
run); what each one counts on each workload is in ``WORKLOAD_MEANING``.
Per-layer metrics come from the traced run; a layer the workload does
not exercise reports 0.

``sim_sweep`` is run by hand and left out of ``BENCHMARK.json``: its
CPU-bound figures moved by 20-32 % (interquartile / median) between
10-run sets on a shared 2-core VM, over the 25 % regression bound.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}

WORKLOAD_MEANING = {
    "sim_sweep": {
        "setup_s": "fresh process to simulator imported",
        "throughput_per_s": "distinct configs simulated per second",
        "latency_p50_ms": "host time of one simulate_run",
        "latency_p95_ms": "host time of one simulate_run",
    },
    "service_drain": {
        "setup_s": "fresh process to workdir opened, backlog enqueued",
        "throughput_per_s": "backlog jobs / pool wall time",
        "latency_p50_ms": "job claimed -> done",
        "latency_p95_ms": "job claimed -> done",
    },
    "service_requests": {
        "setup_s": "fresh `repro serve` to first healthz 200",
        "throughput_per_s": "closed-loop requests/s, 2 keep-alive conns",
        "latency_p50_ms": "one keep-alive request of that closed loop",
        "latency_p95_ms": "one keep-alive request of that closed loop",
    },
}

PER_LAYER = {
    # perf.fastledger
    "fastledger.price_ms": "ms",
    "fastledger.cache_hit_ratio": "ratio",
    # sched.fastpath
    "fastpath.resolve_ms": "ms",
    "fastpath.resolve_ns_per_iter": "ns",
    "sim.iterations": "count",
    # perf.hplsim
    "hplsim.assemble_ms": "ms",
    "sim.digest": "id",
    # service.api / service.cache / service.store
    "api.submit_ms": "ms",
    "api.dedupe_ratio": "ratio",
    "api.job_view_ms": "ms",
    "api.status_page_ms": "ms",
    "cache.lookup_ms": "ms",
    "store.add_ms": "ms",
    "store.claim_ms": "ms",
    "store.mark_done_ms": "ms",
    # service.events
    "events.page_ms": "ms",
    # service.admission
    "admission.check_ms": "ms",
    # service.http.server, and the request classes it serves
    "http.header_to_body_ms": "ms",
    "http.overhead_submit_ms": "ms",
    "http.overhead_read_ms": "ms",
    "submit_p50_ms": "ms",
    "submit_p95_ms": "ms",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "client_submit_p50_ms": "ms",
    "client_read_p50_ms": "ms",
    # service.workers
    "workers.queue_wait_ms": "ms",
    "workers.claim_to_launch_ms": "ms",
    "workers.launch_to_done_ms": "ms",
    "workers.child_import_ms": "ms",
    "workers.runner_ms": "ms",
    "cache.put_ms": "ms",
    "workers.forks_per_job": "count",
    "workers.busy_frac": "ratio",
    # harness
    "gen.lag_p95_ms": "ms",
    "trace.overhead_frac": "ratio",
}
