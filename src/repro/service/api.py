"""The service facade: submit / status / results / cancel / run_workers.

:class:`Service` ties the store, cache, sweep expander, and worker pool
together behind the surface the CLI (and future HTTP front-ends) use.
Submission is where result reuse happens:

* a payload whose content key already has a cached result is recorded as
  a DONE job immediately (``cached=True``) and never enters the queue;
* a payload whose key matches a PENDING/RUNNING job is *deduplicated* --
  the existing job's id is returned instead of queueing a twin;
* everything else becomes a PENDING job for the workers.

``probe`` jobs bypass both paths (see
:data:`repro.service.jobs.UNCACHED_KINDS`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from ..errors import (
    MalformedRequestError,
    ServiceError,
    UnknownJobError,
    UnknownJobKindError,
    UnknownParentError,
)
from .cache import ResultCache, payload_key
from .campaign import (CampaignStore, build_campaign_view, build_dag_view,
                       make_record, new_campaign_id, parse_campaign_spec)
from .dag import DagResolver
from .events import (EventBroker, EventFilter, decode_queue_cursor,
                     encode_queue_cursor)
from .jobs import UNCACHED_KINDS, Job, JobState, Lease, new_job_id
from .shard import (ShardedStore, detect_shard_workdirs,
                    shard_workdirs as _shard_layout)
from .store import JobStore
from .streams import DEFAULT_INLINE_MAX, MAX_CHUNK_BYTES
from .sweep import Sweep
from .views import CampaignView, DagView, JobView, QueuePage, ResultView
from .workers import RUNNERS, PoolSummary, WorkerOptions, WorkerPool

DEFAULT_WORKDIR = ".repro-service"


@dataclass
class SubmitReceipt:
    """What one submission call did, job ids grouped by disposition.

    This is *the* submit response shape everywhere: the facade returns
    it, the HTTP server serializes :meth:`to_dict` as the
    ``{"receipt": {...}}`` envelope, and the clients rebuild it with
    :meth:`from_dict` so remote and local submission hand the caller
    the identical object.
    """

    new: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    deduped: list[str] = field(default_factory=list)

    @property
    def job_ids(self) -> list[str]:
        return self.new + self.cached + self.deduped

    def merge(self, other: "SubmitReceipt") -> None:
        self.new += other.new
        self.cached += other.cached
        self.deduped += other.deduped

    def to_dict(self) -> dict:
        return {
            "new": list(self.new),
            "cached": list(self.cached),
            "deduped": list(self.deduped),
            "job_ids": self.job_ids,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SubmitReceipt":
        return cls(
            new=list(data.get("new", ())),
            cached=list(data.get("cached", ())),
            deduped=list(data.get("deduped", ())),
        )


class Service:
    """One service instance rooted at a workdir (queue + cache on disk).

    ``shards > 1`` (or an explicit ``shard_workdirs`` list) fans the
    queue over N workdir shards behind a
    :class:`~repro.service.shard.ShardedStore`; the result cache stays
    single and shared (it is content-addressed, so shard routing never
    affects it).  ``shards=1`` with no explicit list is the historical
    single-:class:`JobStore` service, bit-for-bit -- and a pre-shard
    workdir *is* shard 0 of 1, so no migration step exists.
    """

    def __init__(self, workdir=DEFAULT_WORKDIR,
                 backoff_base: float = 0.5, shards: int = 1,
                 shard_workdirs=None,
                 busy_timeout: float = 30.0,
                 inline_max: int = DEFAULT_INLINE_MAX) -> None:
        self.workdir = os.fspath(workdir)
        if shard_workdirs is None and shards == 1:
            # Respect a shards/ layout already on disk: reopening a
            # sharded workdir without --shards must not strand the
            # shard queues.
            detected = detect_shard_workdirs(self.workdir)
            if detected != [self.workdir]:
                shard_workdirs = detected
        if shard_workdirs is None and shards > 1:
            shard_workdirs = _shard_layout(self.workdir, shards)
        if shard_workdirs is not None:
            self.store = ShardedStore(shard_workdirs,
                                      busy_timeout=busy_timeout)
        else:
            self.store = JobStore(self.workdir,
                                  busy_timeout=busy_timeout)
        self.inline_max = inline_max
        self.cache = ResultCache(os.path.join(self.workdir, "cache"),
                                 inline_max=inline_max)
        self.backoff_base = backoff_base
        self.campaigns = CampaignStore(
            os.path.join(self.workdir, "campaigns"))
        # Dependency-aware release: the resolver hangs off the store's
        # terminal hook so a parent finishing on any shard releases (or
        # cancels) its children event-driven.  The opening sweep is
        # crash recovery -- a coordinator SIGKILLed between a parent's
        # commit and its children's release reconciles here.
        self.dag = DagResolver(self.store)
        self.store.set_terminal_hook(self.dag.on_terminal)
        self.dag.sweep()
        # The event feed: tails every shard's audit log with resumable
        # cursors and wakes long-poll/SSE subscribers on append.  Holds
        # no subscriber state, so constructing it is cheap even for
        # one-shot CLI calls.
        self.broker = EventBroker(self.store)

    @property
    def nshards(self) -> int:
        """How many shards back the queue (1 for a plain store)."""
        return getattr(self.store, "nshards", 1)

    def shard_stats(self) -> list[dict]:
        """Per-shard depth/lease figures (one entry even when unsharded)."""
        if isinstance(self.store, ShardedStore):
            return self.store.shard_stats()
        counts = self.store.counts()
        leases = self.store.active_leases()
        return [{
            "index": 0, "workdir": self.store.workdir, "ok": True,
            "counts": counts,
            "outstanding": sum(counts[s.value] for s in JobState
                               if not s.terminal),
            "leases": len(leases),
        }]

    # -- submission ------------------------------------------------------

    def _check_parents(self, depends_on) -> tuple[list[str], bool]:
        """Validate ``depends_on``; returns ``(parent_ids, all_done)``.

        Parent ids are deduplicated preserving order; every parent must
        already exist (:class:`UnknownParentError` / 404 otherwise).  A
        single direct submission cannot create a cycle -- its own id
        does not exist yet, so a self- or forward-reference fails the
        existence check; cyclic *stage* graphs are rejected by the
        campaign expander before anything is enqueued.
        """
        parents = list(dict.fromkeys(depends_on))
        for pid in parents:
            if not isinstance(pid, str) or not pid:
                raise MalformedRequestError(
                    "depends_on entries must be non-empty job-id strings"
                )
        all_done = True
        for pid in parents:
            try:
                parent = self.store.get(pid)
            except UnknownJobError:
                raise UnknownParentError(
                    f"unknown parent job: {pid}"
                ) from None
            if parent.state is not JobState.DONE:
                all_done = False
        return parents, all_done

    def submit(self, kind: str, payload: dict, timeout: float = 0.0,
               max_retries: int = 2, depends_on=()) -> SubmitReceipt:
        """Submit one job; serve from cache / dedupe when possible.

        ``depends_on`` lists parent job ids: the job starts BLOCKED and
        only turns PENDING once every parent is DONE (a failed parent
        cancels it instead).  Parent ids are part of the content key --
        a reduce over one grid is not a reduce over another -- so cache
        reuse and dedup stay correct for dependent jobs.
        """
        if kind not in RUNNERS:
            raise UnknownJobKindError(
                f"unknown job kind {kind!r}"
                f" (known: {', '.join(sorted(RUNNERS))})"
            )
        if max_retries < 0:
            raise MalformedRequestError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        parents, parents_done = self._check_parents(depends_on)
        key = payload_key(kind, payload, parents=parents)
        receipt = SubmitReceipt()
        job = Job(
            id=new_job_id(), kind=kind, payload=payload, key=key,
            timeout=timeout, max_retries=max_retries,
            state=JobState.PENDING if parents_done else JobState.BLOCKED,
            depends_on=parents,
        )
        if kind not in UNCACHED_KINDS:
            if key in self.cache:
                # A cached result under a parent-aware key implies the
                # same child of the same parents already completed, so
                # the parents were DONE -- serving it needs no release.
                job.state = JobState.DONE
                job.result_key = key
                job.cached = True
                self.store.add(job)
                receipt.cached.append(job.id)
                return receipt
            # The existence check and the insert are one store
            # transaction, so concurrent submitters (HTTP handler
            # threads, parallel processes) can never queue two active
            # jobs for one content key.
            added, existing = self.store.add_if_no_active(
                job, served=self.cache.__contains__)
            if existing is not None:
                receipt.deduped.append(existing.id)
                return receipt
            if added.cached:  # a twin finished since the check above
                receipt.cached.append(added.id)
                return receipt
            receipt.new.append(added.id)
        else:
            self.store.add(job)
            receipt.new.append(job.id)
        if job.state is JobState.BLOCKED:
            # Close the submit-vs-completion race: a parent that turned
            # terminal between the state check above and the insert
            # fired its hook before this child's edges existed.
            self.dag.reconcile(job.id)
        return receipt

    def submit_sweep(self, sweep: Sweep, timeout: float = 0.0,
                     max_retries: int = 2, depends_on=()) -> SubmitReceipt:
        """Expand a sweep and submit every unique point."""
        receipt = SubmitReceipt()
        for payload in sweep.expand():
            receipt.merge(
                self.submit(sweep.kind, payload, timeout=timeout,
                            max_retries=max_retries,
                            depends_on=depends_on)
            )
        return receipt

    def submit_many(self, submissions, timeout: float = 0.0,
                    max_retries: int = 2) -> list[SubmitReceipt]:
        """Submit N jobs with one store transaction per shard.

        ``submissions`` is a sequence of dicts, each with ``kind`` and
        ``payload`` plus optional per-item ``timeout`` / ``max_retries``
        / ``depends_on`` overriding the call-level defaults.  Returns
        one :class:`SubmitReceipt` per submission, **in request order**,
        each identical to what :meth:`submit` would have returned for
        that item submitted alone in sequence -- same cache hits, same
        dedup (including duplicates *within* the batch deduplicating
        against the batch's own earlier items), same content keys.  The
        only differences are mechanical: one round of validation before
        anything is enqueued (so a malformed item rejects the whole
        batch with nothing inserted), and one ``BEGIN IMMEDIATE`` per
        shard instead of one per job -- which is the entire point, per
        the tiled-algorithms rule that per-item overhead caps sustained
        throughput.  ``depends_on`` may only name jobs that already
        exist; batch items cannot reference each other (their ids are
        not assigned until the batch commits) -- use a campaign for
        staged graphs.
        """
        staged: list[tuple[Job, bool, str]] = []
        for i, sub in enumerate(submissions):
            if not isinstance(sub, dict):
                raise MalformedRequestError(
                    f"submission #{i} must be an object, got"
                    f" {type(sub).__name__}"
                )
            kind = sub.get("kind")
            payload = sub.get("payload")
            if not isinstance(kind, str) or not kind:
                raise MalformedRequestError(
                    f"submission #{i}: 'kind' must be a non-empty string"
                )
            if kind not in RUNNERS:
                raise UnknownJobKindError(
                    f"submission #{i}: unknown job kind {kind!r}"
                    f" (known: {', '.join(sorted(RUNNERS))})"
                )
            if not isinstance(payload, dict):
                raise MalformedRequestError(
                    f"submission #{i}: 'payload' must be an object"
                )
            item_retries = int(sub.get("max_retries", max_retries))
            if item_retries < 0:
                raise MalformedRequestError(
                    f"submission #{i}: max_retries must be >= 0,"
                    f" got {item_retries}"
                )
            parents, parents_done = self._check_parents(
                sub.get("depends_on", ()))
            key = payload_key(kind, payload, parents=parents)
            job = Job(
                id=new_job_id(), kind=kind, payload=payload, key=key,
                timeout=float(sub.get("timeout", timeout)),
                max_retries=item_retries,
                state=(JobState.PENDING if parents_done
                       else JobState.BLOCKED),
                depends_on=parents,
            )
            if kind not in UNCACHED_KINDS and key in self.cache:
                # Same cache-hit shape as single submit: recorded DONE,
                # never queued.  dedup=False matches the single path's
                # unconditional ``store.add``.
                job.state = JobState.DONE
                job.result_key = key
                job.cached = True
                staged.append((job, False, "cached"))
            elif kind not in UNCACHED_KINDS:
                staged.append((job, True, "new"))
            else:
                staged.append((job, False, "new"))
        results = self.store.add_batch(
            [(job, dedup) for job, dedup, _ in staged],
            served=self.cache.__contains__)
        receipts: list[SubmitReceipt] = []
        blocked: list[str] = []
        for (job, _dedup, disposition), (added, existing) in zip(
                staged, results):
            receipt = SubmitReceipt()
            if existing is not None:
                receipt.deduped.append(existing.id)
            elif disposition == "cached" or added.cached:
                receipt.cached.append(added.id)
            else:
                receipt.new.append(added.id)
                if added.state is JobState.BLOCKED:
                    blocked.append(added.id)
            receipts.append(receipt)
        for job_id in blocked:
            # Same submit-vs-completion race closure as single submit.
            self.dag.reconcile(job_id)
        return receipts

    # -- campaigns -------------------------------------------------------

    def submit_campaign(self, spec: dict, timeout: float = 0.0,
                        max_retries: int = 2) -> CampaignView:
        """Expand a staged campaign spec into a job DAG and submit it.

        Stages are validated (shape, known kinds, acyclic ``after``
        graph -- :class:`~repro.errors.CycleError` before any job is
        enqueued) and submitted in topological order; every job of a
        stage depends on every job of each parent stage.  Returns the
        campaign's initial progress view.
        """
        name, stages, order = parse_campaign_spec(spec)
        for stage in stages:
            if stage.kind not in RUNNERS:
                raise UnknownJobKindError(
                    f"stage {stage.name!r}: unknown job kind"
                    f" {stage.kind!r}"
                    f" (known: {', '.join(sorted(RUNNERS))})"
                )
        by_name = {s.name: s for s in stages}
        stage_jobs: dict[str, list[str]] = {}
        for stage_name in order:
            stage = by_name[stage_name]
            parents = [jid for pname in stage.after
                       for jid in stage_jobs[pname]]
            ids: list[str] = []
            for payload in stage.payloads:
                r = self.submit(
                    stage.kind, payload,
                    timeout=(timeout if stage.timeout is None
                             else stage.timeout),
                    max_retries=(max_retries if stage.max_retries is None
                                 else stage.max_retries),
                    depends_on=parents,
                )
                ids.extend(r.job_ids)
            stage_jobs[stage_name] = ids
        record = make_record(new_campaign_id(), name, [
            {"name": s.name, "kind": s.kind, "after": list(s.after),
             "job_ids": stage_jobs[s.name]}
            for s in stages
        ])
        self.campaigns.put(record)
        return build_campaign_view(record, self.store)

    def campaign_view(self, campaign_id: str) -> CampaignView:
        """Live per-stage progress for one campaign."""
        return build_campaign_view(self.campaigns.get(campaign_id),
                                   self.store)

    def campaign_dag(self, campaign_id: str) -> DagView:
        """The campaign's dependency graph with live node states."""
        return build_dag_view(self.campaigns.get(campaign_id), self.store)

    def list_campaigns(self) -> list[CampaignView]:
        """Progress views for every recorded campaign, oldest first."""
        return [build_campaign_view(r, self.store)
                for r in self.campaigns.list()]

    # -- events ----------------------------------------------------------

    def campaign_job_ids(self, campaign_id: str) -> list[str]:
        """Every job id a campaign expanded into, stage order."""
        record = self.campaigns.get(campaign_id)
        return [jid for stage in record["stages"]
                for jid in stage["job_ids"]]

    def events_page(self, cursor: str | None = None, limit: int = 500,
                    timeout: float = 0.0, job_ids=None, kinds=None,
                    states=None, campaign: str | None = None,
                    ) -> tuple[list, str, bool]:
        """One (optionally blocking) read of the merged event feed.

        Returns ``(views, next_cursor, timed_out)`` -- the long-poll
        contract of ``GET /v1/events``.  A ``campaign`` filter expands
        to the campaign's job-id set (404 on an unknown campaign);
        combined with an explicit ``job_ids`` the two sets intersect.
        """
        if limit < 1:
            raise MalformedRequestError(f"limit must be >= 1, got {limit}")
        if campaign is not None:
            campaign_ids = set(self.campaign_job_ids(campaign))
            job_ids = (campaign_ids if job_ids is None
                       else campaign_ids & set(job_ids))
        filter = EventFilter.build(job_ids=job_ids, kinds=kinds,
                                   states=states)
        return self.broker.poll(cursor, limit=limit,
                                filter=None if filter.empty else filter,
                                timeout=timeout)

    # -- queries ---------------------------------------------------------

    def status(self, state: str | None = None, kind: str | None = None,
               limit: int | None = None, offset: int = 0,
               cursor: str | None = None) -> QueuePage:
        """One filtered, windowed page of the queue (a :class:`QueuePage`).

        ``state`` filters on lifecycle state (``"DONE"`` etc.), ``kind``
        on job kind; ``limit``/``offset`` window the matches, oldest
        first.  ``cursor`` -- the opaque continuation token a previous
        page returned -- stands in for ``offset`` (and wins over an
        explicit one).  ``counts`` and ``outstanding`` on the page
        always cover the whole queue.  Expired leases are swept first so
        the page never shows a dead worker's jobs as RUNNING.
        """
        if cursor is not None:
            offset = decode_queue_cursor(cursor)
        if state is not None:
            try:
                state = JobState(state).value
            except ValueError:
                raise MalformedRequestError(
                    f"unknown state {state!r} (one of:"
                    f" {', '.join(s.value for s in JobState)})"
                ) from None
        if limit is not None and limit < 0:
            raise MalformedRequestError(f"limit must be >= 0, got {limit}")
        if offset < 0:
            raise MalformedRequestError(f"offset must be >= 0, got {offset}")
        self.store.expire_leases()
        jobs = self.store.list(state=state, kind=kind, limit=limit,
                               offset=offset)
        total = self.store.count_matching(state=state, kind=kind)
        next_cursor = None
        if limit is not None and limit > 0 and offset + limit < total:
            next_cursor = encode_queue_cursor(offset + limit)
        return QueuePage(
            jobs=tuple(JobView.from_job(j) for j in jobs),
            counts=self.store.counts(),
            total=total,
            outstanding=self.store.outstanding(),
            limit=limit, offset=offset, state=state, kind=kind,
            workdir=self.workdir, cursor=next_cursor,
        )

    def job(self, job_id: str) -> Job:
        return self.store.get(job_id)

    def job_view(self, job_id: str) -> JobView:
        """The :class:`JobView` projection of one job."""
        return JobView.from_job(self.store.get(job_id))

    def result(self, job_id: str) -> dict | None:
        """The result dict of a DONE job (None while not DONE)."""
        job = self.store.get(job_id)
        if job.state is not JobState.DONE:
            return None
        record = self.cache.get(job.result_key)
        return record["result"] if record else None

    def result_view(self, job_id: str) -> ResultView:
        """The full :class:`ResultView` envelope for one job.

        Results whose canonical encoding is at most ``inline_max`` bytes
        travel inline (the historical shape, byte-for-byte); larger ones
        come back with ``result=None`` plus a ``stream`` descriptor
        (``{"size", "sha256"}``) that clients resolve through the ranged
        chunk endpoint -- the coordinator never loads the result.
        """
        job = self.store.get(job_id)
        view = JobView.from_job(job)
        if job.state is not JobState.DONE:
            return ResultView(job=view, ready=False, result=None)
        info = self.cache.result_info(job.result_key)
        if info is None:
            return ResultView(job=view, ready=False, result=None)
        if info["size"] > self.inline_max:
            return ResultView(job=view, ready=True, result=None,
                              stream={"size": info["size"],
                                      "sha256": info["sha256"]})
        record = self.cache.get(job.result_key)
        if record is None:
            return ResultView(job=view, ready=False, result=None)
        return ResultView(job=view, ready=True, result=record["result"])

    def results(self, job_ids=None) -> dict[str, ResultView]:
        """Map of job id -> :class:`ResultView` (``ready=False`` rows
        included, so callers see exactly which jobs still owe results).
        """
        if job_ids is None:
            job_ids = [j.id for j in self.store.list()]
        return {jid: self.result_view(jid) for jid in job_ids}

    # -- leases (remote workers) -----------------------------------------

    def claim_jobs(self, worker: str, n: int = 1,
                   ttl: float = 30.0) -> tuple[Lease | None, list[Job]]:
        """Lease up to ``n`` ready jobs to a named remote worker.

        Jobs whose result is already cached are completed on the spot
        (never shipped), exactly like the local pool's claim-time
        fulfilment, so a remote fleet shares the cache's savings.
        """
        if n < 1:
            raise MalformedRequestError(f"n must be >= 1, got {n}")
        if ttl <= 0:
            raise MalformedRequestError(f"ttl must be > 0, got {ttl}")
        if not worker:
            raise MalformedRequestError("worker name must be non-empty")
        lease, jobs = self.store.claim_batch(worker, limit=n, ttl=ttl)
        shipped = []
        for job in jobs:
            if job.kind not in UNCACHED_KINDS and job.key in self.cache:
                self.store.complete_leased(job.id, job.lease_id, job.key)
                continue
            self.store.log_event(job.id, "launched", worker=worker,
                                 lease=job.lease_id)
            shipped.append(job)
        return (lease if shipped else None), shipped

    def heartbeat(self, lease_id: str, ttl: float = 30.0) -> Lease:
        """Extend a live lease; raises ``LeaseExpiredError`` if lapsed."""
        if ttl <= 0:
            raise MalformedRequestError(f"ttl must be > 0, got {ttl}")
        return self.store.heartbeat_lease(lease_id, ttl=ttl)

    def complete_job(self, job_id: str, lease_id: str, result: dict) -> Job:
        """Accept a leased job's result: cache it, then mark DONE.

        The cache write is content-addressed and idempotent, so it is
        safe even when the lease guard then rejects a late upload.
        """
        if not isinstance(result, dict):
            raise MalformedRequestError(
                f"result must be a JSON object,"
                f" got {type(result).__name__}"
            )
        job = self.store.get(job_id)
        # The stored key, not a recomputation: for dependent jobs the
        # key folds in the parent ids (and the payload may have been a
        # placeholder form the worker resolved before running).
        self.cache.put(job.key, job.kind, job.payload, result)
        return self.store.complete_leased(job_id, lease_id, job.key)

    def fail_job(self, job_id: str, lease_id: str, error: str) -> Job:
        """Record a leased attempt's failure (bounded retry applies)."""
        return self.store.fail_leased(
            job_id, lease_id, str(error),
            backoff_base=self.backoff_base,
        )

    # -- streamed results ------------------------------------------------

    def stage_result_chunk(self, job_id: str, lease_id: str, offset: int,
                           sha256: str, data: bytes) -> int:
        """Spool one uploaded result chunk; returns total bytes staged."""
        if not lease_id:
            raise MalformedRequestError("lease id must be non-empty")
        if offset < 0:
            raise MalformedRequestError(f"offset must be >= 0, got {offset}")
        if len(data) > MAX_CHUNK_BYTES:
            raise MalformedRequestError(
                f"chunk of {len(data)} bytes exceeds the"
                f" {MAX_CHUNK_BYTES}-byte cap"
            )
        return self.store.stage_chunk(job_id, lease_id, offset, sha256, data)

    def finish_result(self, job_id: str, lease_id: str, size: int,
                      sha256: str) -> Job:
        """Promote a verified staged upload and mark the job DONE.

        The spool is moved (never read) into the cache as a blob-backed
        record, then ``complete_leased`` applies the same lease guard as
        the inline path.  Like the inline path, the cache write is
        content-addressed and idempotent, so a lease lost at the last
        moment wastes nothing but the late worker's upload.
        """
        path = self.store.finish_staged(job_id, lease_id, size, sha256)
        job = self.store.get(job_id)
        key = job.key  # parent-aware for dependent jobs; see complete_job
        try:
            # The stream must be a JSON *object* to be a result; one
            # byte tells us without loading it.
            with open(path, "rb") as fh:
                first = fh.read(1)
            if first != b"{":
                raise MalformedRequestError("result must be a JSON object")
            self.cache.put_file(key, job.kind, job.payload, path,
                                size=size, sha256=sha256)
        except BaseException:
            self.store.discard_staged(job_id)
            raise
        return self.store.complete_leased(job_id, lease_id, key)

    def read_result_chunk(self, job_id: str, offset: int,
                          length: int) -> bytes:
        """One ranged read of a DONE job's result bytes.

        Serves from the cache's blob (or the re-encoded inline record)
        with a seek + bounded read -- at most ``min(length,
        MAX_CHUNK_BYTES)`` bytes are ever in memory.  Reads past the end
        return ``b""``.
        """
        if offset < 0:
            raise MalformedRequestError(f"offset must be >= 0, got {offset}")
        if length < 1:
            raise MalformedRequestError(f"length must be >= 1, got {length}")
        job = self.store.get(job_id)
        if job.state is not JobState.DONE:
            raise ServiceError(
                f"job {job_id} has no result yet (state {job.state.value})"
            )
        opened = self.cache.open_result(job.result_key)
        if opened is None:
            raise ServiceError(f"result record for job {job_id} is missing")
        fh, _size = opened
        try:
            fh.seek(offset)
            return fh.read(min(length, MAX_CHUNK_BYTES))
        finally:
            fh.close()

    # -- control ---------------------------------------------------------

    def cancel(self, job_ids) -> list[str]:
        """Cancel the given BLOCKED/PENDING jobs; returns the ids cancelled."""
        return [jid for jid in job_ids if self.store.cancel(jid)]

    def cancel_job(self, job_id: str) -> tuple[bool, JobView]:
        """Idempotently cancel one job; ``(flipped, current_view)``.

        An unknown id raises :class:`UnknownJobError`; a job already
        terminal (including already CANCELLED) is *not* an error --
        ``flipped`` is False and the view reports its current state, so
        racing cancellers (a user and the DAG failure propagation) both
        get a coherent answer.
        """
        self.store.get(job_id)  # 404 on unknown id
        flipped = self.store.cancel(job_id)
        return flipped, self.job_view(job_id)

    def run_workers(self, options: WorkerOptions | None = None,
                    **overrides) -> PoolSummary:
        """Drain the queue with a local worker pool (blocking).

        Accepts a :class:`WorkerOptions` bundle; bare keyword overrides
        (``run_workers(n=4, max_seconds=60)``) are folded into it, so
        the historical call shape keeps working.
        """
        if options is None:
            options = WorkerOptions(backoff_base=self.backoff_base)
        if overrides:
            options = options.replace(**overrides)
        if not isinstance(self.store, ShardedStore):
            pool = WorkerPool.from_options(self.workdir, options,
                                           dag=self.dag)
            return pool.run(drain=options.drain,
                            max_seconds=options.max_seconds)
        # One pool per shard, run concurrently, all writing the shared
        # root cache so a result computed on one shard fulfils cached
        # twins everywhere.  Each pool keeps the full ``n`` slots: shard
        # queues are hash-partitioned, so capping slots per shard would
        # idle workers whenever keys cluster.
        summaries: list[PoolSummary | None] = [None] * self.store.nshards

        def _drain(i: int, workdir: str) -> None:
            # ``dag`` spans the *logical* sharded store: a parent
            # finishing in this shard's pool releases children that
            # hashed to any other shard (the cross-shard notifier).
            pool = WorkerPool.from_options(
                workdir, options.replace(name=f"{options.name}-s{i}"),
                cache_dir=self.cache.root, dag=self.dag,
            )
            summaries[i] = pool.run(drain=options.drain,
                                    max_seconds=options.max_seconds)

        threads = [
            threading.Thread(target=_drain, args=(i, wd), daemon=True)
            for i, wd in enumerate(self.store.workdirs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = PoolSummary()
        for s in summaries:
            if s is None:
                continue
            merged.completed += s.completed
            merged.failed += s.failed
            merged.retried += s.retried
            merged.fulfilled_from_cache += s.fulfilled_from_cache
        merged.counts = self.store.counts()
        return merged
