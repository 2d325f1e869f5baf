"""Multi-workdir sharding: one logical queue over N :class:`JobStore` s.

A single SQLite workdir serializes every write behind one file lock;
for queues hot enough (the paper's Fig. 8 sweep submitted by many
clients at once) that lock becomes the ceiling.  :class:`ShardedStore`
fans the queue out over N independent workdirs in the spirit of
Balsam's site-partitioned job database: each shard is a plain
:class:`~repro.service.store.JobStore` (same schema, same transaction
discipline), and the coordinator routes every job to exactly one shard
by a **stable hash of its content key** (:func:`shard_index`).  Because
the content key also drives the result cache and active-job dedup,
routing by it keeps both *shard-local*: two submissions of the same
benchmark point always meet in the same ``jobs.sqlite``, so the
``add_if_no_active`` dedup transaction needs no cross-shard lock.

Consequences of the design, relied on throughout:

* **Stable partition** -- the same key maps to the same shard across
  restarts and across processes (the hash has no per-process salt), and
  the shard queues are pairwise disjoint with union equal to the
  logical queue.  ``tests/test_shard_properties.py`` asserts both as
  hypothesis properties.
* **Per-shard transactions only** -- a batch lease (`claim_batch`)
  claims from each shard inside that shard's own ``BEGIN IMMEDIATE``;
  there is no two-phase commit.  One *logical* lease id spans the
  shards it touched (each shard holds its own lease row under that id),
  so the wire protocol still returns a single lease and a dead worker's
  jobs are requeued exactly once *per shard* by each shard's own sweep
  -- always onto the shard they already live on.
* **Graceful degradation** -- a wedged shard (file lock held by a hung
  writer, disk error) degrades that shard only: fan-out reads and the
  lease-expiry sweep skip it, claims come from the healthy shards, and
  writes routed *to* it fail with
  :class:`~repro.errors.ShardUnavailableError` while everything else
  keeps serving.  ``/v1/healthz`` reports the shard as ``degraded``.

A v3 single-workdir store is exactly "shard 0 of 1": pointing
``ShardedStore([workdir])`` at an existing workdir serves the same
queue, and :func:`shard_index` of anything modulo 1 is 0.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3

from ..errors import (
    LeaseExpiredError,
    ServiceError,
    ShardUnavailableError,
    UnknownJobError,
)
from .jobs import Job, JobState, Lease, new_lease_id
from .store import JobStore


def shard_index(key: str, nshards: int) -> int:
    """The shard a content key routes to: stable, salt-free, uniform.

    Uses the first 8 bytes of sha256 so the mapping survives restarts,
    interpreter upgrades, and ``PYTHONHASHSEED`` (``hash()`` has none of
    those properties for str).
    """
    if nshards < 1:
        raise ServiceError(f"nshards must be >= 1, got {nshards}")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % nshards


def shard_workdirs(root, nshards: int) -> list[str]:
    """The shard workdir paths a root workdir fans out into."""
    if nshards < 1:
        raise ServiceError(f"nshards must be >= 1, got {nshards}")
    if nshards == 1:
        return [os.fspath(root)]
    return [os.path.join(os.fspath(root), "shards", f"{i:02d}")
            for i in range(nshards)]


def detect_shard_workdirs(root) -> list[str]:
    """The shard layout already on disk under ``root`` (or ``[root]``).

    A sharded workdir carries a ``shards/`` directory of numbered
    subdirectories; a plain workdir is its own single shard.
    """
    root = os.fspath(root)
    shards_dir = os.path.join(root, "shards")
    if os.path.isdir(shards_dir):
        found = sorted(
            os.path.join(shards_dir, name)
            for name in os.listdir(shards_dir)
            if os.path.isdir(os.path.join(shards_dir, name))
        )
        if found:
            return found
    return [root]


class ShardedStore:
    """One logical job queue fanned out over N workdir shards.

    Exposes the same surface as :class:`JobStore`, so
    :class:`~repro.service.api.Service` (and through it the HTTP server,
    both clients, and :class:`~repro.service.fleet.RemoteWorkerPool`)
    works against either interchangeably.  Writes route by
    :func:`shard_index` of the job's content key; id-addressed
    operations probe the shards (ids are random and carry no shard);
    collection reads merge across shards preserving the single-store
    ordering (``created, id``).
    """

    def __init__(self, workdirs, busy_timeout: float = 30.0) -> None:
        paths = [os.fspath(w) for w in workdirs]
        if not paths:
            raise ServiceError("ShardedStore needs at least one workdir")
        if len(set(paths)) != len(paths):
            raise ServiceError(f"duplicate shard workdirs: {paths}")
        self.workdirs = paths
        self.shards = [JobStore(p, busy_timeout=busy_timeout)
                       for p in paths]
        self.nshards = len(self.shards)
        self._next_claim_shard = 0

    # -- routing ---------------------------------------------------------

    def shard_for_key(self, key: str) -> JobStore:
        return self.shards[shard_index(key, self.nshards)]

    def _wrap_unavailable(self, shard: JobStore,
                          exc: sqlite3.OperationalError):
        return ShardUnavailableError(
            f"shard {shard.workdir} is unavailable: {exc}"
        )

    def _shard_of(self, job_id: str) -> JobStore:
        """The shard holding ``job_id`` (probe; wedged shards skipped)."""
        wedged: sqlite3.OperationalError | None = None
        for shard in self.shards:
            try:
                shard.get(job_id)
            except UnknownJobError:
                continue
            except sqlite3.OperationalError as exc:
                wedged = exc
                continue
            return shard
        if wedged is not None:
            # The job may live on the shard we could not read.
            raise ShardUnavailableError(
                f"job {job_id} not found on any responsive shard"
                f" (at least one shard unavailable: {wedged})"
            )
        raise UnknownJobError(f"no such job: {job_id}")

    # -- events ----------------------------------------------------------

    def log_event(self, job_id: str, event: str, **extra) -> None:
        """Append to the audit log of the shard holding ``job_id``."""
        try:
            shard = self._shard_of(job_id)
        except (UnknownJobError, ShardUnavailableError):
            shard = self.shards[0]
        shard.log_event(job_id, event, **extra)

    def events(self) -> list[dict]:
        """Every shard's audit events merged, oldest first."""
        merged: list[dict] = []
        for shard in self.shards:
            merged.extend(shard.events())
        merged.sort(key=lambda e: e.get("t", 0.0))
        return merged

    def event_stores(self) -> list[JobStore]:
        """The per-shard stores whose audit logs the event feed tails.

        Index order is the feed's shard numbering: cursor tokens encode
        one offset per entry of this list, so the order must be stable
        across restarts (it is -- shard workdirs are sorted on open).
        """
        return list(self.shards)

    def set_event_hook(self, callback) -> None:
        """Install the append callback on every shard's audit log."""
        for shard in self.shards:
            shard.set_event_hook(callback)

    def truncate_events(self) -> list[int]:
        """Compact every shard's audit log; returns the new bases."""
        return [shard.truncate_events() for shard in self.shards]

    # -- writes ----------------------------------------------------------

    def add(self, job: Job) -> Job:
        shard = self.shard_for_key(job.key)
        try:
            return shard.add(job)
        except sqlite3.OperationalError as exc:
            raise self._wrap_unavailable(shard, exc) from None

    def add_if_no_active(self, job: Job, served=None,
                         ) -> tuple[Job | None, Job | None]:
        """Shard-local dedup: the key's shard runs the usual atomic
        check-then-insert, which is race-free coordinator-wide because
        every submission of this key routes to the same shard."""
        shard = self.shard_for_key(job.key)
        try:
            return shard.add_if_no_active(job, served)
        except sqlite3.OperationalError as exc:
            raise self._wrap_unavailable(shard, exc) from None

    def add_batch(
        self, items: list[tuple[Job, bool]], served=None,
    ) -> list[tuple[Job | None, Job | None]]:
        """Batch insert: group by shard, ONE transaction per shard.

        Items are grouped by each job's key shard *preserving submit
        order within every shard*, each group commits in its shard's own
        :meth:`JobStore.add_batch` transaction, and the per-item results
        are reassembled in request order.  Because same-key jobs always
        land in the same shard (and in their original relative order),
        in-batch dedup behaves exactly as N sequential single submits.

        Atomicity is *per shard* -- there is no cross-shard commit, by
        the same rule as ``claim_batch``.  If a shard is wedged its
        slice fails while the other shards' slices commit; the raised
        :class:`~repro.errors.ShardUnavailableError` then names the
        wedged shard.  A retry of the whole batch is safe: the committed
        slices dedup to their existing active jobs, and only the missing
        slice inserts (``tests/test_batch_chaos.py`` proves this under
        SIGKILL mid-batch).
        """
        by_shard: dict[int, list[int]] = {}
        for pos, (job, _dedup) in enumerate(items):
            by_shard.setdefault(shard_index(job.key, self.nshards),
                                []).append(pos)
        results: list[tuple[Job | None, Job | None] | None]
        results = [None] * len(items)
        wedged: ShardUnavailableError | None = None
        for idx in sorted(by_shard):
            shard = self.shards[idx]
            positions = by_shard[idx]
            try:
                slice_results = shard.add_batch(
                    [items[pos] for pos in positions], served
                )
            except sqlite3.OperationalError as exc:
                wedged = self._wrap_unavailable(shard, exc)
                continue  # other shards' slices still commit
            for pos, res in zip(positions, slice_results):
                results[pos] = res
        if wedged is not None:
            raise wedged from None
        return results  # type: ignore[return-value]

    def claim(self, worker: str, now=None) -> Job | None:
        """Claim one ready job, round-robining the starting shard."""
        start = self._next_claim_shard
        self._next_claim_shard = (start + 1) % self.nshards
        for i in range(self.nshards):
            shard = self.shards[(start + i) % self.nshards]
            try:
                job = shard.claim(worker, now=now)
            except sqlite3.OperationalError:
                continue
            if job is not None:
                return job
        return None

    def mark_done(self, job_id: str, result_key: str) -> Job:
        return self._shard_of(job_id).mark_done(job_id, result_key)

    def mark_failed(self, job_id: str, error: str) -> Job:
        return self._shard_of(job_id).mark_failed(job_id, error)

    def requeue(self, job_id: str, error: str, not_before: float) -> Job:
        return self._shard_of(job_id).requeue(job_id, error, not_before)

    def cancel(self, job_id: str) -> bool:
        try:
            shard = self._shard_of(job_id)
        except UnknownJobError:
            return False
        return shard.cancel(job_id)

    # -- DAG edges (dependency-aware release) ----------------------------
    #
    # Edges are stored child-side on the *child's* shard, but parents and
    # children hash to arbitrary shards, so the cross-shard release rule
    # is: ask every shard for the parent's children, and route each
    # child's own transition back to the shard it lives on.  The
    # terminal hook installed by :meth:`set_terminal_hook` is what makes
    # a parent completing on shard A release a child on shard B.

    def set_terminal_hook(self, callback) -> None:
        """Install the terminal-transition callback on every shard."""
        for shard in self.shards:
            shard.set_terminal_hook(callback)

    def children_of(self, parent_id: str) -> list[Job]:
        """BLOCKED children of ``parent_id``, unioned across shards."""
        children: list[Job] = []
        for shard in self.shards:
            try:
                children.extend(shard.children_of(parent_id))
            except sqlite3.OperationalError:
                continue  # degraded shard: the recovery sweep catches up
        children.sort(key=lambda j: (j.created, j.id))
        return children

    def release(self, job_id: str) -> bool:
        try:
            shard = self._shard_of(job_id)
        except UnknownJobError:
            return False
        return shard.release(job_id)

    def cancel_from_parent(self, job_id: str, parent_id: str) -> bool:
        try:
            shard = self._shard_of(job_id)
        except UnknownJobError:
            return False
        return shard.cancel_from_parent(job_id, parent_id)

    # -- leases (remote workers) -----------------------------------------

    def claim_batch(self, worker: str, limit: int = 1, ttl: float = 60.0,
                    now=None) -> tuple[Lease | None, list[Job]]:
        """Lease up to ``limit`` ready jobs across shards in one call.

        One *logical* lease id covers the whole batch -- each shard that
        contributes jobs records its own lease row under that id inside
        its own transaction, so no cross-shard lock exists and a
        per-shard failure (wedged shard) costs only that shard's share.
        The starting shard rotates per call so one hot shard cannot
        starve the others.
        """
        lease_id = new_lease_id()
        start = self._next_claim_shard
        self._next_claim_shard = (start + 1) % self.nshards
        lease: Lease | None = None
        jobs: list[Job] = []
        remaining = max(0, int(limit))
        for i in range(self.nshards):
            if remaining <= 0:
                break
            shard = self.shards[(start + i) % self.nshards]
            try:
                shard_lease, shard_jobs = shard.claim_batch(
                    worker, limit=remaining, ttl=ttl, now=now,
                    lease_id=lease_id,
                )
            except sqlite3.OperationalError:
                continue  # wedged shard: the rest keep serving
            if shard_lease is None:
                continue
            jobs.extend(shard_jobs)
            remaining -= len(shard_jobs)
            if lease is None or shard_lease.expires > lease.expires:
                lease = shard_lease
        return (lease, jobs) if jobs else (None, [])

    def heartbeat_lease(self, lease_id: str, ttl: float = 60.0,
                        now=None) -> Lease:
        """Extend the logical lease on every shard that still holds it.

        Raises :class:`LeaseExpiredError` only when *no* shard knows the
        lease -- a lease whose portion on one shard lapsed may still be
        live for the jobs it holds elsewhere.
        """
        lease: Lease | None = None
        for shard in self.shards:
            try:
                extended = shard.heartbeat_lease(lease_id, ttl=ttl, now=now)
            except (LeaseExpiredError, sqlite3.OperationalError):
                continue
            if lease is None or extended.expires > lease.expires:
                lease = extended
        if lease is None:
            raise LeaseExpiredError(
                f"lease {lease_id} has expired or does not exist"
                " on any shard"
            )
        return lease

    def complete_leased(self, job_id: str, lease_id: str,
                        result_key: str, now=None) -> Job:
        return self._shard_of(job_id).complete_leased(
            job_id, lease_id, result_key, now=now
        )

    def fail_leased(self, job_id: str, lease_id: str, error: str,
                    backoff_base: float = 0.5, now=None) -> Job:
        return self._shard_of(job_id).fail_leased(
            job_id, lease_id, error, backoff_base=backoff_base, now=now
        )

    # -- staged result uploads (chunk streaming) -------------------------
    #
    # Staging is shard-local, like everything else keyed by the job: the
    # spool file lives in the owning shard's ``staging/`` dir, and that
    # shard's own lease-expiry sweep GCs it.  Jobs never migrate between
    # shards, so a re-claimed job re-streams into the same shard.

    def stage_chunk(self, job_id: str, lease_id: str, offset: int,
                    sha256: str, data: bytes, now=None) -> int:
        return self._shard_of(job_id).stage_chunk(
            job_id, lease_id, offset, sha256, data, now=now
        )

    def finish_staged(self, job_id: str, lease_id: str, size: int,
                      sha256: str, now=None) -> str:
        return self._shard_of(job_id).finish_staged(
            job_id, lease_id, size, sha256, now=now
        )

    def discard_staged(self, job_id: str) -> bool:
        try:
            shard = self._shard_of(job_id)
        except (UnknownJobError, ShardUnavailableError):
            return False
        return shard.discard_staged(job_id)

    def staged_info(self, job_id: str) -> dict | None:
        try:
            shard = self._shard_of(job_id)
        except (UnknownJobError, ShardUnavailableError):
            return None
        return shard.staged_info(job_id)

    def expire_leases(self, now=None) -> list[Job]:
        """Run every shard's exactly-once expiry sweep; skip wedged ones.

        Each shard's sweep is its own transaction, so an orphaned job is
        requeued exactly once *on the shard it already lives on* -- jobs
        never migrate between shards.  A wedged shard is skipped (its
        sweep runs once it recovers); the healthy shards' recoveries
        proceed.
        """
        recovered: list[Job] = []
        for shard in self.shards:
            try:
                recovered.extend(shard.expire_leases(now=now))
            except sqlite3.OperationalError:
                continue
        return recovered

    def get_lease(self, lease_id: str) -> Lease | None:
        for shard in self.shards:
            try:
                lease = shard.get_lease(lease_id)
            except sqlite3.OperationalError:
                continue
            if lease is not None:
                return lease
        return None

    # -- reads -----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        return self._shard_of(job_id).get(job_id)

    def list(self, state=None, kind=None, limit: int | None = None,
             offset: int = 0) -> list[Job]:
        """The merged, filtered, windowed page -- single-store ordering.

        Each shard contributes its own oldest-first prefix (at most
        ``offset + limit`` rows, the global window's worst case), the
        prefixes are merged on the same ``(created, id)`` key the
        single-store ``ORDER BY`` uses, and the window is applied
        globally -- so a sharded page is *identical* to the page a
        single store seeded with the same jobs would return.
        """
        if state is not None and not isinstance(state, JobState):
            state = JobState(state).value  # validate junk exactly once
        per_shard = None if limit is None else offset + max(0, int(limit))
        rows: list[Job] = []
        for shard in self.shards:
            try:
                rows.extend(shard.list(state=state, kind=kind,
                                       limit=per_shard))
            except sqlite3.OperationalError:
                continue  # degraded shard: serve what is reachable
        rows.sort(key=lambda j: (j.created, j.id))
        end = None if limit is None else offset + max(0, int(limit))
        return rows[max(0, int(offset)):end]

    def count_matching(self, state=None, kind=None) -> int:
        total = 0
        for shard in self.shards:
            try:
                total += shard.count_matching(state=state, kind=kind)
            except sqlite3.OperationalError:
                continue
        return total

    def counts(self) -> dict[str, int]:
        """Merged per-state depths: per-shard consistent, not global.

        Each shard's figure comes from one ``GROUP BY state`` query, so
        it is an exact snapshot *of that shard* -- a job mid-transition
        is counted in exactly one state, never zero or two.  The shards
        are read sequentially with no cross-shard lock, so the merged
        total is a *smear* across the read window: a submission landing
        on an already-read shard is missed, one landing on a yet-unread
        shard is seen.  The guarantees callers (``/v1/healthz``,
        ``repro shards``) may rely on: every figure is ``>= 0``, no job
        is ever double-counted, and because jobs never migrate between
        shards the merged total over any monotone workload (submits
        only, or drains only) is itself monotone.  What they may NOT
        assume: the merged figure equals the true depth at any single
        instant while writes are in flight.
        ``tests/test_admission.py`` pins this down under a concurrent
        submit storm.
        """
        out = {s.value: 0 for s in JobState}
        for shard in self.shards:
            try:
                for state, n in shard.counts().items():
                    out[state] += n
            except sqlite3.OperationalError:
                continue
        return out

    def active_by_key(self, key: str) -> Job | None:
        try:
            return self.shard_for_key(key).active_by_key(key)
        except sqlite3.OperationalError:
            return None

    def outstanding(self) -> int:
        c = self.counts()
        return sum(c[s.value] for s in JobState if not s.terminal)

    # -- operations ------------------------------------------------------

    def shard_stats(self, now=None) -> list[dict]:
        """Per-shard depth and lease figures, wedged shards flagged.

        One entry per shard: ``index``, ``workdir``, ``ok``, the state
        ``counts``, ``outstanding``, and the number of live ``leases``.
        A shard that cannot be read reports ``ok: False`` with the error
        text instead of figures -- the shape ``/v1/healthz`` serves.
        """
        stats = []
        for i, shard in enumerate(self.shards):
            entry: dict = {"index": i, "workdir": shard.workdir}
            try:
                counts = shard.counts()
                leases = shard.active_leases(now=now)
            except sqlite3.OperationalError as exc:
                entry.update(ok=False, error=str(exc))
            else:
                entry.update(
                    ok=True,
                    counts=counts,
                    outstanding=sum(counts[s.value] for s in JobState
                                    if not s.terminal),
                    leases=len(leases),
                )
            stats.append(entry)
        return stats

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
