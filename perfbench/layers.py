"""Which public functions each layer is timed at, and the span metrics.

Every wrapper sits on the name the caller binds, so the program runs
unchanged apart from the span bookkeeping:

=====================  ==============================================
span name              wrapped attribute
=====================  ==============================================
fastledger.price       ``repro.perf.hplsim.run_cost_arrays``
fastpath.resolve       ``repro.perf.hplsim.evaluate``
hplsim.simulate_run    ``repro.perf.hplsim.simulate_run``
api.submit             ``Service.submit``
api.job_view           ``Service.job_view``
api.status_page        ``Service.status``
events.page            ``Service.events_page``
cache.lookup           ``ResultCache.__contains__``
cache.put              ``ResultCache.put`` (in the job's child process)
store.add              ``JobStore.add_if_no_active``
store.claim            ``JobStore.claim``
store.mark_done        ``JobStore.mark_done``
admission.check        ``AdmissionController.check_submit``
http.dispatch          ``_Handler._dispatch`` (tags the request id)
workers.child_import   first import of ``repro.perf.hplsim`` in a child
workers.runner         the built-in ``sim`` runner
workers.process_start  ``multiprocessing.process.BaseProcess.start``
=====================  ==============================================

:func:`install_service` never imports ``repro.perf``: a traced pool
supervisor must pay the simulator import exactly where an untraced one
does, in each job's child.
"""

from __future__ import annotations

import importlib
import time

from . import spans as sp
from .common import mean, median


def install_sim(tracer: sp.Tracer) -> None:
    """Time pricing, timeline resolution and ``simulate_run`` itself."""
    hplsim = importlib.import_module("repro.perf.hplsim")
    fastledger = importlib.import_module("repro.perf.fastledger")
    info = fastledger.run_cost_arrays.cache_info
    tracer.wrap(hplsim, "run_cost_arrays", "fastledger.price",
                probe=lambda: info().hits,
                value=lambda result, hits: info().hits > hits)
    tracer.wrap(hplsim, "evaluate", "fastpath.resolve",
                value=lambda timeline, _: len(timeline.end))
    tracer.wrap(hplsim, "simulate_run", "hplsim.simulate_run")


def install_service(tracer: sp.Tracer, trace_file: str) -> None:
    """Time the request and job paths of a ``repro`` CLI process."""
    import multiprocessing.process

    from repro.service import admission, api, cache, store, workers
    from repro.service.http import server

    svc = api.Service
    tracer.wrap(svc, "submit", "api.submit",
                value=lambda receipt, _: bool(receipt.deduped))
    tracer.wrap(svc, "job_view", "api.job_view")
    tracer.wrap(svc, "status", "api.status_page")
    tracer.wrap(svc, "events_page", "events.page")
    tracer.wrap(cache.ResultCache, "__contains__", "cache.lookup")
    tracer.wrap(cache.ResultCache, "put", "cache.put")
    tracer.wrap(store.JobStore, "add_if_no_active", "store.add")
    tracer.wrap(store.JobStore, "claim", "store.claim",
                value=lambda job, _: job is not None)
    tracer.wrap(store.JobStore, "mark_done", "store.mark_done")
    tracer.wrap(admission.AdmissionController, "check_submit",
                "admission.check")
    tracer.wrap(multiprocessing.process.BaseProcess, "start",
                "workers.process_start")

    dispatch = server._Handler._dispatch

    def traced_dispatch(handler, fn):
        tracer.set_request(handler.headers.get("X-Bench-Id"))
        try:
            return tracer.call("http.dispatch", dispatch, (handler, fn), {})
        finally:
            tracer.set_request(None)

    server._Handler._dispatch = traced_dispatch

    sim_runner = workers.runner_for("sim")
    installed = []

    def traced_sim_runner(payload, job):
        # Runs in the job's child process: time the simulator's import
        # (free when some earlier code in this process already paid it),
        # then wrap the simulator layers for the runner itself.
        t0 = time.perf_counter_ns()
        importlib.import_module("repro.perf.hplsim")
        tracer.record("workers.child_import", t0, time.perf_counter_ns())
        if not installed:
            install_sim(tracer)
            installed.append(True)
        return tracer.call("workers.runner", sim_runner, (payload, job), {})

    workers.register_runner("sim", traced_sim_runner)

    child_main = workers._child_main

    def traced_child_main(*args):
        # A forked child leaves through os._exit, so write its spans as
        # soon as the job's work (run, cache put, report) is over.
        try:
            child_main(*args)
        finally:
            tracer.dump(trace_file)

    workers._child_main = traced_child_main


def span_metrics(spans: list[list]) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    A layer without spans reports 0.  Simulator layers are mean
    milliseconds per simulated config, so ``price + resolve + assemble``
    is the mean ``simulate_run`` time; service layers are the median
    milliseconds per call.
    """
    named = sp.by_name(spans)
    sims = named.get("hplsim.simulate_run", [])
    price = named.get("fastledger.price", [])
    resolve = named.get("fastpath.resolve", [])
    children: dict[tuple[int, int], list] = {}
    for s in price + resolve:
        children.setdefault((s[sp.PID], s[sp.PARENT]), []).append(s)
    per_config = max(len(sims), 1)

    def total_ms(group):
        return sum(sp.duration_ms(s) for s in group)

    def p50(name, keep=lambda s: True):
        return median([sp.duration_ms(s) for s in named.get(name, [])
                       if keep(s)])

    iterations = sum(s[sp.VALUE] for s in resolve)
    submits = named.get("api.submit", [])
    return {
        "fastledger.price_ms": total_ms(price) / per_config,
        "fastledger.cache_hit_ratio": mean([s[sp.VALUE] for s in price]),
        "fastpath.resolve_ms": total_ms(resolve) / per_config,
        "fastpath.resolve_ns_per_iter":
            total_ms(resolve) * 1e6 / iterations if iterations else 0.0,
        "hplsim.assemble_ms": mean([
            sp.self_ms(s, children.get((s[sp.PID], s[sp.SID]), []))
            for s in sims]),
        "api.submit_ms": p50("api.submit"),
        "api.dedupe_ratio": mean([s[sp.VALUE] for s in submits]),
        "api.job_view_ms": p50("api.job_view"),
        "api.status_page_ms": p50("api.status_page"),
        "events.page_ms": p50("events.page"),
        "cache.lookup_ms": p50("cache.lookup"),
        "cache.put_ms": p50("cache.put"),
        "store.add_ms": p50("store.add"),
        "store.claim_ms": p50("store.claim", lambda s: s[sp.VALUE]),
        "store.mark_done_ms": p50("store.mark_done"),
        "admission.check_ms": p50("admission.check"),
        "workers.child_import_ms": p50("workers.child_import"),
        "workers.runner_ms": p50("workers.runner"),
    }


def service_spans_by_request(spans: list[list]) -> dict[str, float]:
    """Milliseconds of ``Service`` work inside each tagged HTTP request."""
    service_ops = ("api.submit", "api.job_view", "api.status_page",
                   "events.page")
    out: dict[str, float] = {}
    for s in spans:
        if s[sp.REQ] and s[sp.NAME] in service_ops:
            out[s[sp.REQ]] = out.get(s[sp.REQ], 0.0) + sp.duration_ms(s)
    return out
