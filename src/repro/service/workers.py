"""Multiprocess worker pool: drains the queue with crash isolation.

The pool is a supervisor loop that claims ready jobs from the
:class:`~repro.service.store.JobStore` and hands each to one of ``n``
*persistent worker processes* (:class:`Executor`): forked once per
:meth:`WorkerPool.run`, fed one job at a time over a pipe, each paying
the simulator import once.  The supervisor sleeps on the result pipes
and process sentinels, so a finished job is reaped at once.  This buys:

* **per-job timeout** -- the supervisor terminates a worker that
  outlives ``job.timeout``, the attempt counts as a failure, and a fresh
  worker takes the slot;
* **crash isolation** -- a worker that dies (unhandled exception, or
  even a hard crash) marks only its job FAILED and is replaced; the
  supervisor and the other workers keep draining;
* **bounded retry with exponential backoff** -- a failed attempt within
  ``job.max_retries`` goes back to PENDING with
  ``not_before = now + backoff_base * 2**(attempts-1)``;
* **no orphans** -- a worker exits within 0.1 s of its supervisor dying,
  and holds none of the supervisor's sockets.

Runners -- the functions that turn a payload dict into a result dict --
are looked up by job kind in :data:`RUNNERS`.  The built-in kinds map
onto the existing entry points (``run`` -> :func:`repro.hpl.api.run_hpl`,
``sim`` -> :func:`repro.perf.hplsim.simulate_run`, ``scale`` ->
:func:`repro.perf.scaling.weak_scaling`, ``fact`` ->
:func:`repro.perf.factsim.fact_sweep`); ``probe`` jobs exercise the pool
itself (ok / sleep / crash / flaky behaviours) and are used by the test
suite and as operational smoke tests.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import stat
import threading
import time
import traceback
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Callable

from ..errors import ServiceError, UnknownJobKindError
from .cache import ResultCache, payload_key
from .dag import (DagResolver, has_placeholders, needs_parent_results,
                  resolve_payload)
from .jobs import UNCACHED_KINDS, Job, JobState
from .store import JobStore
from .streams import DEFAULT_INLINE_MAX as _DEFAULT_INLINE_MAX

Runner = Callable[[dict, Job], dict]

RUNNERS: dict[str, Runner] = {}


@dataclass(frozen=True)
class WorkerOptions:
    """Every worker-pool knob, in one bundle shared by all entry points.

    :meth:`Service.run_workers`, the ``repro workers`` CLI command, and
    the remote :class:`~repro.service.fleet.RemoteWorkerPool` all accept
    this dataclass instead of re-plumbing the same six arguments; the
    defaults match the historical per-argument defaults.  ``lease_ttl``
    and ``inline_max`` only apply to remote pools (local pools hold no
    leases and write the cache directly): a result whose canonical
    encoding exceeds ``inline_max`` bytes is uploaded through the
    chunk-streaming endpoints instead of one inline ``complete`` body.
    """

    n: int = 2
    drain: bool = True
    max_seconds: float | None = None
    poll_interval: float = 0.02
    backoff_base: float = 0.5
    name: str = "pool"
    lease_ttl: float = 30.0
    inline_max: int = _DEFAULT_INLINE_MAX

    def replace(self, **changes) -> "WorkerOptions":
        return _dc_replace(self, **changes)


def register_runner(kind: str, fn: Runner) -> None:
    """Register (or replace) the runner for a job kind."""
    RUNNERS[kind] = fn


def runner_for(kind: str) -> Runner:
    try:
        return RUNNERS[kind]
    except KeyError:
        raise UnknownJobKindError(
            f"no runner registered for job kind {kind!r}"
            f" (known: {', '.join(sorted(RUNNERS))})"
        ) from None


# ---------------------------------------------------------------------------
# Built-in runners
# ---------------------------------------------------------------------------


def _run_runner(payload: dict, job: Job) -> dict:
    """Numeric HPL run on the simulated-MPI runtime."""
    from ..config import HPLConfig
    from ..hpl.api import run_hpl

    cfg = HPLConfig.from_dict(payload)
    result = run_hpl(cfg)
    return {
        "n": cfg.n, "nb": cfg.nb, "p": cfg.p, "q": cfg.q,
        "resid": result.resid,
        "passed": result.passed,
        "wall_seconds": result.wall_seconds,
        "tflops": cfg.total_flops / result.wall_seconds / 1e12,
    }


def _sim_runner(payload: dict, job: Job) -> dict:
    """Performance simulation of one full-size run (Fig. 7 machinery)."""
    from ..config import BcastVariant, Schedule, SwapVariant
    from ..machine.frontier import crusher_cluster
    from ..perf.hplsim import simulate_run
    from ..perf.ledger import PerfConfig

    params = dict(payload)
    cfg = PerfConfig(
        n=params["n"], nb=params["nb"], p=params["p"], q=params["q"],
        pl=params.get("pl") or params["p"],
        ql=params.get("ql") or params["q"],
        schedule=Schedule(params.get("schedule", "split")),
        split_fraction=params.get("split_fraction", 0.5),
        bcast=BcastVariant(params.get("bcast", "1ringM")),
        swap=SwapVariant(params.get("swap", "long")),
        swap_threshold=params.get("swap_threshold", 64),
        fact_threads=params.get("fact_threads", 0),
        fidelity=params.get("fidelity", "fast"),
    )
    nodes = (cfg.p // cfg.pl) * (cfg.q // cfg.ql)
    report = simulate_run(cfg, crusher_cluster(nodes))
    return {
        "n": cfg.n, "nb": cfg.nb, "p": cfg.p, "q": cfg.q, "nodes": nodes,
        "fidelity": cfg.fidelity,
        "score_tflops": report.score_tflops,
        "makespan": report.makespan,
        "hidden_time_fraction": report.hidden_time_fraction,
        "hidden_iteration_fraction": report.hidden_iteration_fraction,
        "iterations": len(report.iterations),
    }


def _scale_runner(payload: dict, job: Job) -> dict:
    """One node count of the Fig. 8 weak-scaling sweep."""
    from ..config import Schedule
    from ..perf.scaling import weak_scaling

    point = weak_scaling(
        [payload["nnodes"]],
        n_single=payload.get("n_single", 256_000),
        nb=payload.get("nb", 512),
        schedule=Schedule(payload.get("schedule", "split")),
        fidelity=payload.get("fidelity", "fast"),
    )[0]
    return {
        "nnodes": point.nnodes, "n": point.n, "p": point.p, "q": point.q,
        "tflops": point.tflops,
        "makespan": point.report.makespan,
        "hidden_time_fraction": point.report.hidden_time_fraction,
    }


def _fact_runner(payload: dict, job: Job) -> dict:
    """The Fig. 5 FACT multi-threading sweep on the CPU panel model."""
    from ..perf.factsim import fact_sweep

    curves = fact_sweep(
        nb=payload.get("nb", 512),
        m_multiples=payload.get("m_multiples"),
        thread_counts=payload.get("thread_counts"),
    )
    return {
        "nb": payload.get("nb", 512),
        "curves": [
            {"threads": c.threads, "m_values": c.m_values,
             "gflops": c.gflops}
            for c in curves
        ],
    }


def _reduce_runner(payload: dict, job: Job) -> dict:
    """Pick the winning parent by a result metric (campaign stage 2).

    The pool injects ``job.parent_results`` before launch (a reduce job
    only ever runs after all its parents are DONE).  The payload names
    the ``metric`` to rank by and the ``mode`` (``max``, the default,
    or ``min``); the result carries the winning parent's id and payload
    so downstream ``$winner`` placeholders can be resolved from it.
    """
    parents = job.parent_results or {}
    if not parents:
        raise ServiceError(
            "reduce job has no parent results (was it submitted with"
            " depends_on?)"
        )
    metric = payload.get("metric")
    if not metric:
        raise ServiceError("reduce payload needs a 'metric' to rank by")
    mode = payload.get("mode", "max")
    if mode not in ("max", "min"):
        raise ServiceError(f"reduce mode must be 'max' or 'min', got {mode!r}")
    ranked = [
        (pid, info) for pid, info in sorted(parents.items())
        if isinstance(info.get("result"), dict)
        and metric in info["result"]
    ]
    if not ranked:
        raise ServiceError(
            f"no parent result carries metric {metric!r}"
        )
    pick = max if mode == "max" else min
    winner_id, winner = pick(ranked, key=lambda kv: kv[1]["result"][metric])
    return {
        "metric": metric,
        "mode": mode,
        "value": winner["result"][metric],
        "winner_job": winner_id,
        "winner_payload": winner["payload"],
        "candidates": len(ranked),
    }


def _probe_runner(payload: dict, job: Job) -> dict:
    """Pool self-test job: behaves as its payload instructs."""
    behavior = payload.get("behavior", "ok")
    if behavior == "ok":
        return {"ok": True, "attempt": job.attempts}
    if behavior == "echo":
        # Returns the payload itself (sans ``behavior``) -- gives DAG
        # and reduce tests a metric-bearing result without running a
        # simulation.
        return {k: v for k, v in payload.items() if k != "behavior"}
    if behavior == "sleep":
        time.sleep(float(payload.get("seconds", 1.0)))
        return {"ok": True, "slept": payload.get("seconds", 1.0)}
    if behavior == "crash":
        raise RuntimeError(payload.get("message", "probe crash"))
    if behavior == "flaky":
        # Fails the first `fail_times` attempts, then succeeds -- used to
        # verify the retry path end-to-end.
        fail_times = int(payload.get("fail_times", 1))
        if job.attempts <= fail_times:
            raise RuntimeError(
                f"flaky probe failing attempt {job.attempts}/{fail_times}"
            )
        return {"ok": True, "attempt": job.attempts}
    if behavior == "hang_once":
        # Sleeps (only) on the first attempt -- lets recovery tests kill
        # a supervisor mid-job and watch the retry complete promptly.
        if job.attempts <= 1:
            time.sleep(float(payload.get("seconds", 60.0)))
        return {"ok": True, "attempt": job.attempts}
    raise ServiceError(f"unknown probe behavior {behavior!r}")


RUNNERS.update({
    "run": _run_runner,
    "sim": _sim_runner,
    "scale": _scale_runner,
    "fact": _fact_runner,
    "reduce": _reduce_runner,
    "probe": _probe_runner,
})


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _child_main(cache_dir: str | None, job: Job, conn) -> None:
    """Run one job in a worker process; report through ``conn``.

    With a ``cache_dir`` (local pools) the result is written to the
    cache *from the worker* and only the key crosses the pipe:
    ``("ok", key)``.  Without one (remote pools) the result dict itself
    crosses, for the supervisor to upload.  A Python exception sends
    ``("error", traceback)``.  A hard crash sends nothing -- the
    supervisor treats a dead, silent worker as a failure.
    """
    try:
        result = runner_for(job.kind)(job.payload, job)
        if cache_dir is not None:
            # The job's stored key, which folds in parent ids for
            # dependent jobs (and was computed over the placeholder form
            # of the payload, not the resolved one the runner just saw).
            key = job.key or payload_key(job.kind, job.payload)
            ResultCache(cache_dir).put(key, job.kind, job.payload, result)
            result = key
        conn.send(("ok", result))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except BaseException:
            pass


def _detach(conn, supervisor: int) -> None:
    """Cut a freshly forked worker loose from its supervisor.

    The fork copied the supervisor's sockets (a server's listening
    socket and client connections, sibling workers' pipes); all but the
    worker's own pipe are pointed at ``/dev/null`` so none outlives the
    supervisor here.  SIGINT is left to the supervisor, SIGTERM takes
    its default, and a watchdog exits the worker within 0.1 s of the
    supervisor dying, even mid-job.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    null = os.open(os.devnull, os.O_RDWR)
    for fd in map(int, os.listdir(fd_dir)):
        try:
            if fd > 2 and fd not in (null, conn.fileno()) \
                    and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:
            pass  # the listing's own, now closed, descriptor
    os.close(null)

    def watchdog() -> None:
        while os.getppid() == supervisor:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watchdog, daemon=True).start()


def _worker_main(cache_dir: str | None, conn, supervisor: int) -> None:
    """Run each job ``conn`` delivers, through the module global
    ``_child_main`` (so a wrapper installed before the fork sees it)."""
    _detach(conn, supervisor)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        _child_main(cache_dir, job, conn)


_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


@dataclass
class _Worker:
    """One persistent worker process and the job it holds, if any."""

    process: multiprocessing.Process
    conn: object  # duplex pipe: jobs out, outcomes back
    job: Job | None = None
    tag: object = None  # the pool's handle on the job (a lease id)
    deadline: float = 0.0  # 0 = no timeout


class Executor:
    """``n`` persistent worker processes, one job at a time each.

    The hand-off path of both :class:`WorkerPool` and the remote
    :class:`~repro.service.fleet.RemoteWorkerPool`.  The first
    :meth:`collect` forks the workers (inheriting runners registered at
    runtime); they live until :meth:`shutdown`, so the simulator import
    is paid once per worker, not per job.  A worker that crashes,
    times out or is :meth:`terminate`-d is reaped and replaced.  With a
    ``cache_dir`` workers write results there and report keys.
    """

    def __init__(self, n: int, cache_dir: str | None, name: str) -> None:
        self.n = n
        self.cache_dir = cache_dir
        self.name = name
        self._workers: list[_Worker] = []

    @property
    def busy(self) -> list[_Worker]:
        return [w for w in self._workers if w.job is not None]

    def idle(self) -> int:
        return len(self._workers) - len(self.busy)

    def submit(self, job: Job, tag=None) -> None:
        """Hand ``job`` to an idle worker (the caller checked there is one)."""
        worker = next(w for w in self._workers if w.job is None)
        worker.job, worker.tag = job, tag
        worker.deadline = time.time() + job.timeout if job.timeout > 0 else 0.0
        try:
            worker.conn.send(job)
        except OSError:
            worker.process.kill()  # reaped as a crash by collect()

    def terminate(self, tag) -> None:
        """Stop the workers running jobs tagged ``tag``; collect() reaps."""
        for worker in self.busy:
            if worker.tag == tag:
                worker.process.terminate()

    def wait(self, timeout: float) -> None:
        """Sleep up to ``timeout``; wake early on an outcome, a worker
        death or a job deadline."""
        deadlines = [w.deadline for w in self.busy if w.deadline]
        if deadlines:
            timeout = max(0.0, min(timeout, min(deadlines) - time.time()))
        multiprocessing.connection.wait(
            [w.conn for w in self.busy]
            + [w.process.sentinel for w in self._workers], timeout)

    def collect(self) -> list[tuple]:
        """Reap finished, crashed and timed-out jobs; top up the workers.

        Returns one ``(job, tag, error, value)`` per finished attempt:
        ``error`` is None on success, when ``value`` is the result key
        (or, without a cache, the result itself).
        """
        outcomes: list[tuple] = []
        now = time.time()
        for worker in list(self._workers):
            job, error = worker.job, None
            if job is not None and worker.conn.poll():
                try:
                    status, value = worker.conn.recv()
                except (EOFError, OSError):
                    pass  # died mid-report: reaped below
                else:
                    worker.job = None
                    outcomes.append((job, worker.tag, None, value)
                                    if status == "ok"
                                    else (job, worker.tag, value, None))
                    continue
            elif worker.process.is_alive():
                if not (job and worker.deadline and now >= worker.deadline):
                    continue
                error = f"timeout: exceeded {job.timeout:.3g}s"
            self._stop(worker)
            if job is not None:
                outcomes.append((job, worker.tag, error or (
                    "worker process crashed"
                    f" (exit code {worker.process.exitcode})"), None))
        while len(self._workers) < self.n:
            self._start()
        return outcomes

    def shutdown(self) -> list[tuple[Job, object]]:
        """Stop every worker; returns the ``(job, tag)`` pairs cut short."""
        cut = [(w.job, w.tag) for w in self.busy]
        for worker in self._workers:
            if worker.job is None:
                worker.conn.close()  # an idle worker exits on EOF
        for worker in list(self._workers):
            self._stop(worker, grace=2.0 if worker.conn.closed else 0.0)
        return cut

    def _start(self) -> None:
        conn, child_conn = _CTX.Pipe()
        process = _CTX.Process(
            target=_worker_main,
            args=(self.cache_dir, child_conn, os.getpid()),
            name=f"{self.name}-w{len(self._workers)}", daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process, conn))

    def _stop(self, worker: _Worker, grace: float = 0.0) -> None:
        """Join ``worker``, terminating it after ``grace`` s; drop it."""
        worker.process.join(grace)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(5.0)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join()
        worker.conn.close()
        self._workers.remove(worker)


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


@dataclass
class PoolSummary:
    """What one :meth:`WorkerPool.run` call did.

    ``fulfilled_from_cache`` counts jobs that were claimed but never
    launched because their result landed in the cache while they sat in
    the queue; those jobs are included in ``completed``.
    """

    completed: int = 0
    failed: int = 0
    retried: int = 0
    fulfilled_from_cache: int = 0
    counts: dict = field(default_factory=dict)


class WorkerPool:
    """Supervisor draining a :class:`JobStore` with ``nworkers`` slots."""

    def __init__(
        self,
        workdir,
        nworkers: int = 2,
        poll_interval: float = 0.02,
        backoff_base: float = 0.5,
        name: str = "pool",
        cache_dir=None,
        dag: DagResolver | None = None,
    ) -> None:
        if nworkers < 1:
            raise ServiceError(f"nworkers must be >= 1, got {nworkers}")
        self.workdir = os.fspath(workdir)
        self.store = JobStore(self.workdir)
        # A sharded service passes one shared cache_dir to every shard's
        # pool so cache hits cross shard boundaries (the cache is keyed
        # by content, not by shard).
        self.cache = ResultCache(
            os.path.join(self.workdir, "cache")
            if cache_dir is None else os.fspath(cache_dir)
        )
        # A sharded service also passes its resolver (spanning the
        # logical ShardedStore), so a parent finishing in this pool
        # releases children that hashed to *other* shards; a standalone
        # pool resolves over its own store.  Either way the hook hangs
        # off this pool's own store handle -- every terminal transition
        # this pool commits drives the DAG.
        self.dag = dag if dag is not None else DagResolver(self.store)
        self.store.set_terminal_hook(self.dag.on_terminal)
        self.nworkers = nworkers
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.name = name

    @classmethod
    def from_options(cls, workdir, options: WorkerOptions,
                     cache_dir=None, dag: DagResolver | None = None,
                     ) -> "WorkerPool":
        return cls(
            workdir, nworkers=options.n,
            poll_interval=options.poll_interval,
            backoff_base=options.backoff_base, name=options.name,
            cache_dir=cache_dir, dag=dag,
        )

    # -- outcome handling ------------------------------------------------

    def _record_outcome(self, job: Job, summary: PoolSummary,
                        error: str | None,
                        result_key: str | None) -> None:
        if error is None and result_key is not None:
            self.store.mark_done(job.id, result_key)
            summary.completed += 1
            return
        error = error or "worker child died without reporting"
        if job.attempts <= job.max_retries:
            backoff = self.backoff_base * 2 ** (job.attempts - 1)
            self.store.requeue(job.id, error, time.time() + backoff)
            summary.retried += 1
        else:
            self.store.mark_failed(job.id, error)
            summary.failed += 1

    def _prepare(self, job: Job) -> None:
        """Inject parent results for reduce / ``$winner`` jobs.

        Reads parents through the resolver's *logical* store (a parent
        may live on another shard) and their results from the shared
        cache.  A released job's parents are all DONE, so a missing
        result here is a genuine fault -- the raised
        :class:`ServiceError` fails the attempt through the normal
        retry policy.
        """
        if not needs_parent_results(job):
            return
        parent_results: dict = {}
        for pid in job.depends_on:
            parent = self.dag.store.get(pid)
            record = self.cache.get(parent.result_key) \
                if parent.result_key else None
            if parent.state is not JobState.DONE or record is None:
                raise ServiceError(
                    f"parent {pid} result unavailable"
                    f" (state {parent.state.value})"
                )
            parent_results[pid] = {"payload": parent.payload,
                                   "result": record["result"]}
        job.parent_results = parent_results
        if has_placeholders(job.payload):
            job.payload = resolve_payload(job.payload, parent_results)

    # -- main loop -------------------------------------------------------

    def run(self, drain: bool = True, max_seconds: float | None = None,
            recover: bool = True,
            stop: threading.Event | None = None) -> PoolSummary:
        """Process jobs until the queue drains (or ``max_seconds`` pass).

        ``drain=True`` (the default) exits once every job is terminal --
        including waiting out retry backoffs.  ``drain=False`` runs
        forever (a resident service) until ``max_seconds`` elapses, the
        ``stop`` event is set (how an embedding HTTP server shuts its
        pool down), or the process is interrupted; in-flight jobs' workers
        are terminated and their jobs requeued/failed on the way out.

        ``recover=True`` requeues jobs found already RUNNING at startup:
        with one supervisor per workdir (the intended deployment) those
        can only be orphans of a supervisor that died mid-job.  Jobs
        held by a *lease* are not orphans -- a remote worker may still
        be running them and will heartbeat or report; if it died, the
        store's lease-expiry sweep requeues them instead.
        """
        summary = PoolSummary()
        start = time.time()
        if recover:
            for orphan in self.store.list(JobState.RUNNING):
                if orphan.lease_id:
                    continue
                self.store.requeue(
                    orphan.id, "orphaned by a dead worker pool", 0.0
                )
        executor = Executor(self.nworkers, self.cache.root, self.name)
        try:
            while True:
                for job, _, error, key in executor.collect():
                    self._record_outcome(job, summary, error, key)
                while executor.idle():
                    job = self.store.claim(f"{self.name}/{len(executor.busy)}")
                    if job is None:
                        break
                    if job.kind not in UNCACHED_KINDS \
                            and job.key in self.cache:
                        # The result landed while the job sat in the
                        # queue (another submitter's twin completed, or
                        # the job predates a cache warm-up): record DONE
                        # without handing it to a worker.
                        self.store.mark_done(job.id, job.key)
                        summary.completed += 1
                        summary.fulfilled_from_cache += 1
                        continue
                    try:
                        self._prepare(job)
                    except ServiceError as exc:
                        self._record_outcome(
                            job, summary, f"dag input error: {exc}", None
                        )
                        continue
                    self.store.log_event(job.id, "launched",
                                         worker=job.worker)
                    executor.submit(job)
                if drain and not executor.busy \
                        and not self.store.outstanding():
                    break
                if max_seconds is not None \
                        and time.time() - start > max_seconds:
                    break
                if stop is not None and stop.is_set():
                    break
                executor.wait(self.poll_interval)
        finally:
            for job, _ in executor.shutdown():
                self._record_outcome(job, summary,
                                     "worker pool shut down", None)
        summary.counts = self.store.counts()
        return summary
