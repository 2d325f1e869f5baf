"""Remote worker fleet: drain a coordinator's queue over HTTP.

:class:`RemoteWorkerPool` is the networked sibling of
:class:`~repro.service.workers.WorkerPool`: it hands jobs to the same
:class:`~repro.service.workers.Executor` of persistent worker processes
(same crash isolation, same per-job timeout, one simulator import per
worker), but instead of sharing the coordinator's filesystem it
*leases* jobs over the v1 HTTP API --
``POST /v1/leases`` claims a batch with a TTL,
``POST /v1/leases/{id}/heartbeat`` keeps it alive while jobs run,
and ``POST /v1/jobs/{id}/complete|fail`` uploads each outcome.  N hosts
each running ``repro workers --url http://coordinator:8400`` drain one
queue and fill one content-addressed result cache, which is how a sweep
like the paper's Fig. 8 stops being bounded by a single machine.

Failure model: if this process dies (or the network partitions), its
workers exit, its heartbeats stop, the lease lapses, and the
coordinator requeues the jobs exactly once -- the mirror of the local
pool's orphan recovery.  A
report that loses the race against lease expiry gets a 409
``lease_expired`` and the job is counted ``lost`` here, never recorded
twice there.  Transient HTTP failures are retried with exponential
backoff before an attempt is given up.
"""

from __future__ import annotations

import os
import random
import socket
import time
from dataclasses import dataclass, field

from ..errors import LeaseConflictError, ServiceError, UnknownJobError
from .dag import has_placeholders, needs_parent_results, resolve_payload
from .http.client import ServiceClient, _Backoff
from .jobs import Job
from .workers import Executor, WorkerOptions


@dataclass
class FleetSummary:
    """What one :meth:`RemoteWorkerPool.run` call did.

    ``lost`` counts attempts whose report the coordinator rejected with
    ``lease_expired``/``conflict`` (it had already requeued the job) or
    that could not be reported at all -- never double-recorded work.
    """

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    lost: int = 0
    counts: dict = field(default_factory=dict)


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class RemoteWorkerPool:
    """Lease-driven worker pool for one coordinator URL.

    ``options`` is the same :class:`WorkerOptions` bundle the local pool
    takes; ``options.lease_ttl`` sets the claim TTL (heartbeats fire at
    half-TTL while any job of that lease is still running).
    """

    def __init__(self, url: str, options: WorkerOptions | None = None,
                 worker: str | None = None,
                 client: ServiceClient | None = None) -> None:
        self.options = options or WorkerOptions()
        if self.options.n < 1:
            raise ServiceError(f"nworkers must be >= 1, got {self.options.n}")
        # The client inherits the pool's inline threshold, so a worker's
        # oversized result is chunk-streamed to the coordinator without
        # any code here knowing: ``client.complete`` switches paths.
        self.client = client or ServiceClient(
            url, inline_max=self.options.inline_max
        )
        self.worker = worker or default_worker_name()
        self._leases: dict[str, float] = {}  # lease id -> expiry time

    # -- HTTP with retry -------------------------------------------------

    def _with_retries(self, fn, *args, attempts: int = 4, **kwargs):
        """Call the coordinator, retrying transient transport failures.

        Lease/job-state rejections (``lease_expired``, ``conflict``,
        ``unknown_job``) are *not* transient and re-raise immediately;
        anything else service-shaped is retried with exponential
        backoff and then re-raised.
        """
        delay = 0.1
        for attempt in range(attempts):
            try:
                return fn(*args, **kwargs)
            except (LeaseConflictError, UnknownJobError):
                raise
            except ServiceError:
                if attempt == attempts - 1:
                    raise
                time.sleep(delay)
                delay *= 2

    # -- outcome handling ------------------------------------------------

    def _report(self, job: Job, lease_id: str, summary: FleetSummary,
                error: str | None, result: dict | None) -> None:
        try:
            if error is None and result is not None:
                self._with_retries(
                    self.client.complete, job.id, lease_id, result,
                )
                summary.completed += 1
            else:
                self._with_retries(
                    self.client.fail, job.id, lease_id,
                    error or "worker child died without reporting",
                )
                summary.failed += 1
        except (LeaseConflictError, UnknownJobError, ServiceError):
            # The coordinator refused the report (lease lapsed, job
            # requeued/completed elsewhere) or stayed unreachable: the
            # lease-expiry sweep owns the job now.  Never retried here,
            # so the job cannot be recorded twice.
            summary.lost += 1

    def _heartbeat(self, executor: Executor) -> None:
        """Extend every lease that still has running jobs, at half-TTL."""
        now = time.time()
        ttl = self.options.lease_ttl
        for lid, expires in list(self._leases.items()):
            if now < expires - ttl / 2.0:
                continue
            try:
                lease = self._with_retries(
                    self.client.heartbeat, lid, ttl=ttl, attempts=2,
                )
                self._leases[lid] = lease.expires
            except (LeaseConflictError, ServiceError):
                # Lease gone: the coordinator requeued our jobs.  Stop
                # burning cores on work that now belongs to someone else.
                self._leases.pop(lid, None)
                executor.terminate(lid)

    def _prepare(self, job: Job) -> None:
        """Fetch parent results for reduce / ``$winner`` jobs over HTTP.

        A leased job's parents are all DONE (the coordinator only
        releases it then), so their results are one ``GET`` each; the
        client resolves chunk-streamed results transparently.  A
        missing result raises :class:`ServiceError` and the attempt is
        failed back to the coordinator through the retry policy.
        """
        if not needs_parent_results(job):
            return
        parent_results: dict = {}
        for pid in job.depends_on:
            view = self._with_retries(self.client.result, pid, attempts=2)
            if not view.ready or view.result is None:
                raise ServiceError(
                    f"parent {pid} result unavailable"
                    f" (state {view.state})"
                )
            parent_results[pid] = {"payload": view.job.payload,
                                   "result": view.result}
        job.parent_results = parent_results
        if has_placeholders(job.payload):
            job.payload = resolve_payload(job.payload, parent_results)

    def _claim(self, summary: FleetSummary, executor: Executor) -> bool:
        free = executor.idle()
        if free < 1:
            return False
        lease, jobs = self._with_retries(
            self.client.claim, worker=self.worker, n=free,
            ttl=self.options.lease_ttl,
        )
        if lease is None or not jobs:
            return False
        self._leases[lease.id] = lease.expires
        for job in jobs:
            summary.claimed += 1
            try:
                self._prepare(job)
            except ServiceError as exc:
                self._report(job, lease.id, summary,
                             f"dag input error: {exc}", None)
                continue
            executor.submit(job, lease.id)
        return True

    # -- main loop -------------------------------------------------------

    def run(self, max_seconds: float | None = None) -> FleetSummary:
        """Lease and execute jobs until the coordinator's queue drains.

        With ``options.drain`` (the default) the pool exits once the
        coordinator reports zero outstanding jobs -- which waits out
        other workers' leases too, so a fleet member survives to pick
        up a dead sibling's requeued jobs.  ``options.drain=False``
        polls forever (a resident worker host) until ``max_seconds``
        (or ``options.max_seconds``) elapses or the process is
        interrupted; running jobs are cut short and their attempts failed
        back to the coordinator on the way out, so the jobs requeue
        immediately instead of waiting out the lease.
        """
        options = self.options
        max_seconds = max_seconds if max_seconds is not None \
            else options.max_seconds
        summary = FleetSummary()
        start = time.time()
        # The idle sleep must never outlast the heartbeat window: cap it
        # at a quarter TTL so a lease is always renewed before half-TTL
        # sleep drift can let it lapse under a healthy worker.
        idle = _Backoff(max(options.poll_interval, 0.01),
                        min(2.0, options.lease_ttl / 4.0), 2.0, 0.1,
                        random.Random())
        executor = Executor(options.n, None, self.worker)
        try:
            while True:
                for job, lease_id, error, result in executor.collect():
                    self._report(job, lease_id, summary, error, result)
                running = {w.tag for w in executor.busy}
                self._leases = {lid: exp for lid, exp in self._leases.items()
                                if lid in running}
                self._heartbeat(executor)
                claimed = False
                try:
                    claimed = self._claim(summary, executor)
                except (LeaseConflictError, UnknownJobError,
                        ServiceError):
                    pass  # coordinator briefly unreachable; keep polling
                if options.drain and not executor.busy and not claimed:
                    try:
                        outstanding = self.client.queue(limit=0).outstanding
                    except ServiceError:
                        outstanding = -1
                    if outstanding == 0:
                        break
                if max_seconds is not None \
                        and time.time() - start > max_seconds:
                    break
                executor.wait(idle.next_delay(progressed=claimed))
        finally:
            for job, lease_id in executor.shutdown():
                self._report(job, lease_id, summary,
                             "remote worker pool shut down", None)
        try:
            summary.counts = dict(self.client.queue(limit=0).counts)
        except ServiceError:
            pass  # summary still useful without final queue counts
        return summary
