"""Worker pool: crash isolation, timeouts, and bounded retry."""

from __future__ import annotations

import multiprocessing.process
import os
import subprocess
import sys

import pytest

from repro.errors import ServiceError
from repro.service import JobState, Service, WorkerPool, register_runner
from repro.service.workers import RUNNERS


@pytest.fixture
def service(tmp_path):
    # Tiny backoff keeps retry tests fast without changing the logic.
    return Service(tmp_path / "svc", backoff_base=0.01)


class TestHappyPath:
    def test_ok_probe_completes(self, service):
        receipt = service.submit("probe", {"behavior": "ok"})
        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.completed == 1 and summary.failed == 0
        job = service.job(receipt.new[0])
        assert job.state is JobState.DONE
        assert service.result(job.id)["ok"] is True

    def test_real_job_kinds_produce_results(self, service):
        receipt = service.submit(
            "run", {"n": 32, "nb": 8, "p": 2, "q": 2}
        )
        service.run_workers(n=1, max_seconds=120)
        result = service.result(receipt.new[0])
        assert result["passed"] is True
        assert result["resid"] < 16.0


class TestCrashIsolation:
    def test_always_crashing_job_retries_then_fails(self, service):
        """Acceptance: a crash ends FAILED with its error recorded."""
        receipt = service.submit(
            "probe", {"behavior": "crash", "message": "kaboom"},
            max_retries=1,
        )
        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.failed == 1
        job = service.job(receipt.new[0])
        assert job.state is JobState.FAILED
        assert job.attempts == 2  # first try + one retry
        assert "kaboom" in job.error
        assert "RuntimeError" in job.error  # captured traceback

    def test_crash_does_not_take_down_the_pool(self, service):
        """Healthy jobs queued around a crasher still complete."""
        ok1 = service.submit("probe", {"behavior": "ok", "tag": 1},
                             max_retries=0)
        bad = service.submit("probe", {"behavior": "crash"}, max_retries=0)
        ok2 = service.submit("probe", {"behavior": "ok", "tag": 2},
                             max_retries=0)
        summary = service.run_workers(n=2, max_seconds=60)
        assert summary.completed == 2 and summary.failed == 1
        assert service.job(ok1.new[0]).state is JobState.DONE
        assert service.job(bad.new[0]).state is JobState.FAILED
        assert service.job(ok2.new[0]).state is JobState.DONE

    def test_flaky_job_succeeds_on_retry(self, service):
        receipt = service.submit(
            "probe", {"behavior": "flaky", "fail_times": 1}, max_retries=2
        )
        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.completed == 1 and summary.retried == 1
        job = service.job(receipt.new[0])
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert service.result(job.id)["attempt"] == 2


class TestTimeouts:
    def test_job_exceeding_timeout_is_failed(self, service):
        """Acceptance: a job over its timeout ends FAILED, pool survives."""
        slow = service.submit(
            "probe", {"behavior": "sleep", "seconds": 30.0},
            timeout=0.3, max_retries=0,
        )
        ok = service.submit("probe", {"behavior": "ok"}, max_retries=0)
        summary = service.run_workers(n=2, max_seconds=60)
        assert summary.failed == 1 and summary.completed == 1
        job = service.job(slow.new[0])
        assert job.state is JobState.FAILED
        assert "timeout" in job.error
        assert service.job(ok.new[0]).state is JobState.DONE

    def test_timeout_attempts_respect_the_retry_budget(self, service):
        receipt = service.submit(
            "probe", {"behavior": "sleep", "seconds": 30.0},
            timeout=0.2, max_retries=1,
        )
        service.run_workers(n=1, max_seconds=60)
        job = service.job(receipt.new[0])
        assert job.state is JobState.FAILED
        assert job.attempts == 2


class TestClaimTimeCacheFulfilment:
    def test_queued_job_whose_result_landed_is_not_launched(self, service):
        """A claimed job with a cached result is marked DONE without
        burning a child process (closes the submit-vs-complete race)."""
        from repro.service import Job, new_job_id, payload_key

        payload = {"n": 256, "nb": 32, "p": 2, "q": 2}
        first = service.submit("sim", payload)
        service.run_workers(n=1, max_seconds=120)
        assert service.result(first.new[0]) is not None

        # Force a PENDING twin past the submit-time cache check (as a
        # racing submitter would have) by adding the row directly.
        key = payload_key("sim", payload)
        twin = Job(id=new_job_id(), kind="sim", payload=payload, key=key)
        service.store.add(twin)

        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.completed == 1
        assert summary.fulfilled_from_cache == 1
        job = service.job(twin.id)
        assert job.state is JobState.DONE
        assert service.result(twin.id) is not None
        launched = [e for e in service.store.events()
                    if e["event"] == "launched" and e["job"] == twin.id]
        assert not launched


class TestSupervision:
    def test_orphaned_running_jobs_are_recovered(self, service):
        """RUNNING rows from a dead supervisor are requeued on start."""
        service.submit("probe", {"behavior": "ok"})
        orphan = service.store.claim("dead-pool/0")  # supervisor "dies" here
        assert orphan.state is JobState.RUNNING

        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.completed == 1
        job = service.job(orphan.id)
        assert job.state is JobState.DONE
        assert job.attempts == 2  # the orphaned claim plus the real one

    def test_unknown_kind_is_rejected_at_submit(self, service):
        with pytest.raises(ServiceError, match="unknown job kind"):
            service.submit("frobnicate", {})

    def test_pool_requires_at_least_one_worker(self, tmp_path):
        with pytest.raises(ServiceError):
            WorkerPool(tmp_path / "svc", nworkers=0)


class TestPersistentWorkers:
    def test_two_workers_run_every_job(self, service, monkeypatch):
        """Twenty jobs on two slots: two processes started, two pids."""
        starts = []
        start = multiprocessing.process.BaseProcess.start

        def counted_start(process):
            starts.append(process.name)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counted_start)
        register_runner("pid", lambda payload, job: {"pid": os.getpid()})
        try:
            ids = [service.submit("pid", {"i": i}).new[0] for i in range(20)]
            summary = service.run_workers(n=2, max_seconds=60)
        finally:
            RUNNERS.pop("pid", None)
        assert summary.completed == 20
        assert len({service.result(jid)["pid"] for jid in ids}) == 2
        assert len(starts) == 2, starts

    def test_supervisor_never_imports_the_simulator(self, tmp_path):
        """Only workers pay the simulator import; the pool process that
        forks them stays as light as ``repro serve --workers 0``."""
        code = (
            "import sys\n"
            "from repro.service import Service\n"
            "service = Service(sys.argv[1])\n"
            "service.submit('sim', {'n': 1024, 'nb': 128, 'p': 2, 'q': 2})\n"
            "assert service.run_workers(n=1, max_seconds=60).completed == 1\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.perf')))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "svc")], env=env,
            capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"
