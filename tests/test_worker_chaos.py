"""Persistent-worker chaos: kill workers and supervisors, lose nothing.

Real processes and real signals:

* **a worker SIGKILLed mid-job**, and **a worker SIGTERMed by its job's
  timeout**, under both the local :class:`WorkerPool` and the remote
  :class:`RemoteWorkerPool`: the job is requeued exactly once, the pool
  replaces the worker (two stay live) and the queue drains;
* **a supervisor SIGKILLed** -- ``repro workers`` and ``repro serve
  --workers 2`` -- while one of its workers is mid-job: no worker
  outlives it by more than about a second, and no worker holds any of
  the supervisor's sockets (listening socket, client connections,
  sibling pipes) -- only its own job pipe.
"""

from __future__ import annotations

import contextlib
import http.client
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service import (
    JobState,
    RemoteWorkerPool,
    Service,
    WorkerOptions,
    WorkerPool,
    register_runner,
)
from repro.service.http import ServiceClient, ServiceHTTPServer
from repro.service.workers import RUNNERS

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="reads worker processes from /proc")

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def _children(pid: int) -> set[int]:
    """Live (non-zombie) child processes of ``pid``."""
    out = set()
    for entry in os.listdir("/proc"):
        fields = _stat(int(entry)) if entry.isdigit() else None
        if fields and fields[0] != "Z" and int(fields[1]) == pid:
            out.add(int(entry))
    return out


def _sockets(pid: int) -> int:
    """How many socket descriptors ``pid`` holds."""
    count = 0
    for fd in os.listdir(f"/proc/{pid}/fd"):
        with contextlib.suppress(OSError):
            count += os.readlink(f"/proc/{pid}/fd/{fd}").startswith("socket:")
    return count


def _wait_for(predicate, timeout: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"no {what} within {timeout}s")


def _read_pid(path) -> int | None:
    try:
        with open(path) as fh:
            return int(fh.read())
    except (OSError, ValueError):
        return None


def _chaos_runner(payload: dict, job) -> dict:
    """A ``gate`` job waits for its flag file; otherwise attempt 1 writes
    its worker's pid to ``pidfile`` and hangs until killed."""
    if "gate" in payload:
        while not os.path.exists(payload["gate"]):
            time.sleep(0.02)
    elif job.attempts == 1:
        tmp = payload["pidfile"] + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(tmp, payload["pidfile"])
        time.sleep(60.0)
    return {"pid": os.getpid(), "attempt": job.attempts}


@pytest.fixture
def chaos_kind():
    register_runner("chaos", _chaos_runner)
    yield
    RUNNERS.pop("chaos", None)


@pytest.mark.parametrize("mode", ["sigkill", "timeout"])
@pytest.mark.parametrize("pool_kind", ["local", "remote"])
def test_dead_worker_is_replaced_and_its_job_requeued_once(
        tmp_path, chaos_kind, pool_kind, mode):
    pidfile, gate = tmp_path / "victim.pid", tmp_path / "gate"
    with contextlib.ExitStack() as stack:
        if pool_kind == "local":
            service = Service(tmp_path / "svc", backoff_base=0.01)
            pool = WorkerPool(service.workdir, nworkers=2,
                              backoff_base=0.01)
        else:
            server = stack.enter_context(ServiceHTTPServer(
                tmp_path / "svc", workers=0, backoff_base=0.01))
            service = server.service
            pool = RemoteWorkerPool(server.url, WorkerOptions(
                n=2, poll_interval=0.01, lease_ttl=10.0))
        victim = service.submit(
            "chaos", {"pidfile": str(pidfile)}, max_retries=1,
            timeout=1.0 if mode == "timeout" else 0.0).new[0]
        # Holds the second worker busy until released, so the victim's
        # retry must run on the replacement worker.
        blocker = service.submit("chaos", {"gate": str(gate)}).new[0]
        before = _children(os.getpid())
        summaries = []
        thread = threading.Thread(
            target=lambda: summaries.append(pool.run(max_seconds=60.0)))
        thread.start()
        try:
            first = _wait_for(lambda: _read_pid(pidfile),
                              what="victim worker pid")
            if mode == "sigkill":
                os.kill(first, signal.SIGKILL)
            _wait_for(lambda: service.job(victim).state is JobState.DONE,
                      what="victim retry")
            workers = _children(os.getpid()) - before
            assert len(workers) == 2, workers
            assert first not in workers
        finally:
            gate.touch()
            thread.join(timeout=60.0)
        assert not thread.is_alive(), "pool did not drain"
        assert not _children(os.getpid()) - before, "workers outlived run()"

        result = service.result(victim)
        assert result["attempt"] == 2 and result["pid"] in workers
        assert service.job(blocker).state is JobState.DONE
        events = [e for e in service.store.events() if e["job"] == victim]
        requeues = [e for e in events if e["event"] == "requeued"]
        assert len(requeues) == 1, requeues
        reason = "timeout" if mode == "timeout" else "crashed (exit code -9)"
        assert reason in requeues[0]["error"]
        assert sum(e["event"] == "claimed" for e in events) == 2
        assert sum(e["event"] == "done" for e in events) == 1
        summary = summaries[0]
        assert summary.completed == 2
        if pool_kind == "local":
            assert summary.retried == 1 and summary.failed == 0
        else:
            assert summary.failed == 1 and summary.lost == 0


def _spawn(args: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _kill_and_watch_workers(supervisor: subprocess.Popen) -> None:
    """SIGKILL ``supervisor``; every worker must be gone within ~1 s and
    none may hold a socket but its own job pipe."""
    workers = _wait_for(lambda: len(_children(supervisor.pid)) == 2
                        and _children(supervisor.pid), what="two workers")
    for pid in workers:
        assert _sockets(pid) == 1, f"worker {pid} holds foreign sockets"
    supervisor.kill()
    supervisor.wait(timeout=30)
    t0 = time.monotonic()
    _wait_for(lambda: not any(_alive(pid) for pid in workers),
              timeout=5.0, what="worker exit")
    assert time.monotonic() - t0 < 1.5
    supervisor.stdout.close()


def test_sigkilled_workers_command_takes_its_workers_along(tmp_path):
    service = Service(tmp_path / "svc", backoff_base=0.01)
    jid = service.submit("probe", {"behavior": "hang_once",
                                   "seconds": 60.0}).new[0]
    proc = _spawn(["workers", "-n", "2", "--workdir", service.workdir])
    try:
        _wait_for(lambda: service.job(jid).state is JobState.RUNNING,
                  what="job launch")
        _kill_and_watch_workers(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_sigkilled_serve_takes_its_workers_along(tmp_path):
    proc = _spawn(["serve", "--workdir", str(tmp_path / "svc"), "--port",
                   "0", "--workers", "2", "--backoff", "0.01"])
    try:
        url = next(tok for tok in proc.stdout.readline().split()
                   if tok.startswith("http://"))
        client = ServiceClient(url, timeout=10.0)
        # An open keep-alive connection while a timed-out worker is
        # replaced: the replacement forks with this socket in the server.
        host, port = url[len("http://"):].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        conn.request("GET", "/v1/healthz")
        conn.getresponse().read()
        slow = client.submit("probe", {"behavior": "sleep", "seconds": 30.0},
                             timeout=0.3, max_retries=0).new[0]
        _wait_for(lambda: client.job(slow).state == "FAILED",
                  what="timed-out job")
        hang = client.submit("probe", {"behavior": "hang_once",
                                       "seconds": 60.0}).new[0]
        _wait_for(lambda: client.job(hang).state == "RUNNING",
                  what="job launch")
        _kill_and_watch_workers(proc)
        conn.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
