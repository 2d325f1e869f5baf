"""Job store: claims, transitions, and persistence across restarts."""

from __future__ import annotations

import pytest

from repro.errors import UnknownJobError
from repro.service import Job, JobState, JobStore
from repro.service.cache import payload_key


def _job(i: int, **kwargs) -> Job:
    payload = {"behavior": "ok", "i": i}
    return Job(
        id=f"job-{i:04d}", kind="probe", payload=payload,
        key=payload_key("probe", payload), created=float(i), **kwargs,
    )


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "svc")


class TestBasics:
    def test_add_get_round_trip(self, store):
        job = _job(1, timeout=2.5, max_retries=7)
        store.add(job)
        got = store.get("job-0001")
        assert got.payload == {"behavior": "ok", "i": 1}
        assert got.state is JobState.PENDING
        assert got.timeout == 2.5
        assert got.max_retries == 7

    def test_get_unknown_id_raises(self, store):
        with pytest.raises(UnknownJobError):
            store.get("nope")

    def test_counts_cover_every_state(self, store):
        store.add(_job(1))
        counts = store.counts()
        assert counts["PENDING"] == 1
        assert set(counts) == {s.value for s in JobState}


class TestClaim:
    def test_claim_oldest_first_and_marks_running(self, store):
        store.add(_job(2))
        store.add(_job(1))
        job = store.claim("w0")
        assert job.id == "job-0001"  # created earlier
        assert job.state is JobState.RUNNING
        assert job.attempts == 1
        assert job.worker == "w0"
        assert store.get("job-0001").state is JobState.RUNNING

    def test_claim_skips_jobs_in_backoff(self, store):
        store.add(_job(1, not_before=1e12))  # far future
        assert store.claim("w0") is None

    def test_claim_empty_queue_returns_none(self, store):
        assert store.claim("w0") is None

    def test_running_jobs_are_not_reclaimed(self, store):
        store.add(_job(1))
        assert store.claim("w0") is not None
        assert store.claim("w1") is None


class TestTransitions:
    def test_done_records_result_key(self, store):
        store.add(_job(1))
        store.claim("w0")
        done = store.mark_done("job-0001", "abc123")
        assert done.state is JobState.DONE
        assert done.result_key == "abc123"

    def test_requeue_returns_job_to_pending_with_backoff(self, store):
        store.add(_job(1))
        store.claim("w0")
        back = store.requeue("job-0001", "boom", not_before=1e12)
        assert back.state is JobState.PENDING
        assert back.error == "boom"
        assert store.claim("w1") is None  # still backing off

    def test_cancel_only_hits_pending(self, store):
        store.add(_job(1))
        store.add(_job(2))
        store.claim("w0")  # job-0001 now RUNNING
        assert store.cancel("job-0001") is False
        assert store.cancel("job-0002") is True
        assert store.get("job-0002").state is JobState.CANCELLED


class TestPersistence:
    def test_queue_survives_restart(self, store, tmp_path):
        """A fresh JobStore on the same workdir sees identical state."""
        store.add(_job(1))
        store.add(_job(2))
        store.claim("w0")
        store.mark_done("job-0001", "k1")
        store.close()

        reopened = JobStore(tmp_path / "svc")  # the simulated restart
        assert reopened.get("job-0001").state is JobState.DONE
        assert reopened.get("job-0001").result_key == "k1"
        assert reopened.get("job-0002").state is JobState.PENDING
        # the restarted store can keep going where the old one stopped
        assert reopened.claim("w0").id == "job-0002"

    def test_event_log_records_the_lifecycle(self, store):
        store.add(_job(1))
        store.claim("w0")
        store.mark_done("job-0001", "k1")
        events = [e["event"] for e in store.events()
                  if e["job"] == "job-0001"]
        assert events == ["submitted", "claimed", "done"]


class TestQueryPlans:
    """The page query walks ``jobs_created``; claims stay on ``jobs_state``.

    The plans come from the statements the store really runs, captured
    with a trace callback, so a rewritten query is pinned too.  A claim
    planned on ``jobs_created`` would scan the whole table, DONE rows
    included, on every claim.
    """

    @staticmethod
    def _plans(store, call, marker: str) -> list[str]:
        conn = store._connection()
        statements: list[str] = []
        conn.set_trace_callback(statements.append)
        try:
            call()
        finally:
            conn.set_trace_callback(None)
        matching = [q for q in statements if marker in q]
        assert matching, statements
        return [" / ".join(row[3] for row in
                           conn.execute("EXPLAIN QUERY PLAN " + q))
                for q in matching]

    def _seeded(self, store):
        for i in range(1, 6):
            store.add(_job(i))
        return store

    def test_unfiltered_page_uses_created_index(self, store):
        self._seeded(store)
        for plan in self._plans(store, lambda: store.list(limit=2, offset=1),
                                "ORDER BY created, id"):
            assert "USING INDEX jobs_created" in plan, plan
            assert "TEMP B-TREE" not in plan, plan

    def test_claims_search_state_index(self, store):
        self._seeded(store)
        marker = "not_before <="
        plans = (self._plans(store, lambda: store.claim("w0"), marker)
                 + self._plans(store,
                               lambda: store.claim_batch("w1", limit=2),
                               marker))
        assert len(plans) == 2
        for plan in plans:
            assert "SEARCH jobs USING INDEX jobs_state" in plan, plan

    def test_older_workdir_gains_the_index_on_open(self, store, tmp_path):
        store.add(_job(1))
        conn = store._connection()
        conn.execute("DROP INDEX jobs_created")  # as an older service left it
        store.close()
        reopened = JobStore(tmp_path / "svc")
        names = {row[0] for row in reopened._connection().execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")}
        assert "jobs_created" in names
        assert [j.id for j in reopened.list(limit=1)] == ["job-0001"]
