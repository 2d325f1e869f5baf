"""Workload ``service_requests``: the HTTP request path, no jobs run.

``repro serve --workers 0 --shards 3`` (admission's queue-depth gate on,
with a watermark no run reaches) takes a seeded mix of requests: 40 % new
``sim`` submits (writes), 10 % resubmits of an earlier payload (the
dedupe path), 25 % ``GET /v1/jobs/{id}``, 15 % ``GET /v1/queue?limit=20``
(merged across shards) and 10 % ``GET /v1/events`` pages.

* Closed loop (the end-to-end figures): two persistent HTTP/1.1
  keep-alive connections, what ``loadgen`` or any HTTP/1.1 client holds,
  send the mix back to back for ``--seconds``.  Completions per second
  are the request capacity of two connections, the ceiling for any
  open-loop rate on two connections; latency is per request.
* Open loop (traced run only): 20 requests/s in total, evenly spaced,
  half on one keep-alive socket and half through the repository's
  ``ServiceClient``, which opens one connection per request as the CLI
  does.  Latency counts from the moment a request was due.  These
  figures are per-layer ones: at this light rate each request starts on
  an idle host, and their medians moved by 35-47 % between runs on a
  2-core VM, against 2-3 % for the closed loop.

The load comes from this one process over at most two connections.
"""

from __future__ import annotations

import http.client
import os
import random
import re
import signal
import subprocess
import threading
import time
import urllib.parse

from . import spans as sp
from .common import (Outcome, ROOT, SETUP_SAMPLES, child_env, median,
                     percentile, repro_cmd, stop)
from .kaclient import KeepAlive
from .layers import service_spans_by_request, span_metrics

#: Open-loop rate over both connections.  Each keep-alive request then
#: follows the previous reply by ~100 ms; see ``http.header_to_body_ms``.
RATE = 20.0
#: Ops per deck of 20: 40 % new submits, 10 % resubmits, 25 % job reads,
#: 15 % queue pages, 10 % event pages.
MIX = (("submit", 8), ("resubmit", 2), ("job", 5), ("queue", 3),
       ("events", 2))
WRITES = ("submit", "resubmit")
SERVE_ARGS = ["--shards", "3", "--workers", "0", "--port", "0",
              "--max-queue-depth", "1000000"]


class OpStream:
    """A seeded, endless mix for one connection, and what it created.

    Ops come in decks of 20 that hold the mix exactly, each deck
    shuffled, so every run sends the same shares.  Resubmits and job
    reads refer to an earlier new submit of the same stream, so a stream
    never waits on another connection.  The problem sizes of new submits
    are distinct within a run: stream ``lane`` of ``lanes`` only draws N
    with N % lanes == lane.
    """

    def __init__(self, seed: int, lane: int, lanes: int = 4) -> None:
        self.rng = random.Random(f"requests:{seed}:{lane}")
        sizes = list(range(2048 + lane, 65536, lanes))
        self.rng.shuffle(sizes)
        self.sizes = iter(sizes)
        self.submits: list[int] = []
        self.deck: list[str] = []
        self.count = 0
        #: Job id and payload of each acknowledged new submit, by op index.
        self.ids: dict[int, str] = {}
        self.payloads: dict[int, dict] = {}
        self.cursor = "begin"

    def next(self) -> tuple[str, object]:
        if not self.deck:
            self.deck = [name for name, share in MIX for _ in range(share)]
            self.rng.shuffle(self.deck)
            if not self.submits:
                # The first op must create a job for reads to refer to.
                self.deck.remove("submit")
                self.deck.append("submit")
        op = self.deck.pop()
        index = self.count
        self.count += 1
        if op == "submit":
            self.submits.append(index)
            return op, {"n": next(self.sizes), "nb": 128, "p": 2, "q": 2}
        if op in ("resubmit", "job"):
            return op, self.rng.choice(self.submits)
        return op, None


class KeepAliveOps:
    """The mix over one keep-alive socket; raises on a non-2xx reply."""

    def __init__(self, port: int, name: str) -> None:
        self.port, self.name = port, name
        self.conn = KeepAlive("127.0.0.1", port, f"bench-{name}")
        self.last: object = None

    def _call(self, method, path, body=None, bench_id=""):
        try:
            reply = self.conn.request(method, path, body, bench_id)
        except OSError:
            # The op counts as failed; the next one gets a fresh socket.
            self.conn.close()
            self.conn = KeepAlive("127.0.0.1", self.port,
                                  f"bench-{self.name}")
            raise
        self.last = reply
        if not 200 <= reply.status < 300:
            raise RuntimeError(f"HTTP {reply.status} on {method} {path}")
        return reply.body

    def submit(self, payload, bench_id):
        return self._call("POST", "/v1/jobs", {"kind": "sim",
                                               "payload": payload},
                          bench_id)["receipt"]

    def job(self, job_id, bench_id):
        return self._call("GET", f"/v1/jobs/{job_id}", None,
                          bench_id)["job"]

    def queue(self, bench_id):
        return self._call("GET", "/v1/queue?limit=20", None, bench_id)

    def events(self, cursor, bench_id):
        query = urllib.parse.urlencode({"cursor": cursor, "limit": 50})
        body = self._call("GET", f"/v1/events?{query}", None, bench_id)
        return body["events"], body["cursor"]

    def close(self):
        self.conn.close()


class ClientOps:
    """The mix through ``ServiceClient`` (one connection per request)."""

    def __init__(self, port: int, name: str) -> None:
        from repro.service.http.client import ServiceClient

        self.client = ServiceClient(f"http://127.0.0.1:{port}",
                                    client_id=f"bench-{name}")
        self.last = None

    def submit(self, payload, bench_id):
        return self.client.submit("sim", payload).to_dict()

    def job(self, job_id, bench_id):
        return self.client.job(job_id).to_dict()

    def queue(self, bench_id):
        return self.client.status(limit=20).to_dict()

    def events(self, cursor, bench_id):
        views, cursor, _ = self.client.events(cursor=cursor, limit=50)
        return views, cursor


class Tally:
    """Samples and check counters shared by the load threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.samples: list[dict] = []
        self.errors: dict[str, int] = {}
        self.new_jobs = 0

    def error(self, what: str) -> None:
        with self.lock:
            self.errors[what] = self.errors.get(what, 0) + 1


def one_op(ops, stream: OpStream, index: int, op: str, arg,
           bench_id: str, tally: Tally) -> bool:
    """Send op ``index`` of ``stream``; check the reply; True if right."""
    if op == "submit":
        receipt = ops.submit(arg, bench_id)
        if len(receipt["new"]) == 1 and not receipt["deduped"]:
            stream.ids[index], stream.payloads[index] = receipt["new"][0], arg
            with tally.lock:
                tally.new_jobs += 1
            return True
        tally.error("new submit not enqueued as new")
    elif op == "resubmit":
        receipt = ops.submit(stream.payloads[arg], bench_id)
        if receipt["deduped"] == [stream.ids[arg]] and not receipt["new"]:
            return True
        tally.error("resubmit did not return the existing id")
    elif op == "job":
        job = ops.job(stream.ids[arg], bench_id)
        if job["id"] == stream.ids[arg] and job["state"] == "PENDING":
            return True
        tally.error("job read returned the wrong job or state")
    elif op == "queue":
        if len(ops.queue(bench_id)["jobs"]) <= 20:
            return True
        tally.error("queue page longer than its limit")
    else:
        _, stream.cursor = ops.events(stream.cursor, bench_id)
        return True
    return False


def drive(ops, stream: OpStream, name: str, tally: Tally,
          due: list[float] | None = None,
          deadline: float | None = None) -> int:
    """Run the mix on ``ops``: at the ``due`` times (open loop) or back
    to back until ``deadline`` (closed loop).  Returns ops completed."""
    done = 0
    while True:
        if due is not None:
            if done == len(due):
                return done
            start = due[done]
            delay = start - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        else:
            start = time.perf_counter()
            if start >= deadline:
                return done
        ops.last = None
        index = stream.count
        op, arg = stream.next()
        bench_id = f"{name}-{index}"
        t_send = time.perf_counter()
        try:
            ok = one_op(ops, stream, index, op, arg, bench_id, tally)
        except Exception as exc:  # noqa: BLE001 -- a failed request
            tally.error(f"request failed: {type(exc).__name__}")
            ok = False
        t_end = time.perf_counter()
        reply = ops.last
        done += 1
        with tally.lock:
            tally.samples.append({
                "conn": name, "open": due is not None, "ok": ok,
                "write": op in WRITES, "bench_id": bench_id,
                "latency_ms": (t_end - start) * 1e3,
                "wire_ms": (t_end - t_send) * 1e3,
                "lag_ms": (t_send - start) * 1e3,
                "header_to_body_ms": (reply.t_done - reply.t_headers) * 1e3
                if reply is not None else None,
            })


def run_threads(targets) -> None:
    threads = [threading.Thread(target=fn, args=args) for fn, args in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(port: int, seed: int, seconds: float, tally: Tally) -> None:
    interval = 2.0 / RATE
    count = max(1, int(seconds / interval))
    t0 = time.perf_counter() + 0.05
    ka, sc = KeepAliveOps(port, "ka"), ClientOps(port, "sc")
    try:
        run_threads([
            (drive, (ka, OpStream(seed, 0), "ka", tally,
                     [t0 + i * interval for i in range(count)])),
            (drive, (sc, OpStream(seed, 1), "sc", tally,
                     [t0 + (i + 0.5) * interval for i in range(count)])),
        ])
    finally:
        ka.close()


def closed_loop(port: int, streams: list[OpStream], seconds: float,
                tally: Tally) -> float:
    """Two keep-alive connections back to back; completions per second."""
    conns = [KeepAliveOps(port, f"closed{i}") for i in range(2)]
    done = [0, 0]

    def one(i):
        done[i] = drive(conns[i], streams[i], f"closed{i}", tally,
                        deadline=deadline)

    t0 = time.perf_counter()
    deadline = t0 + seconds
    try:
        run_threads([(one, (0,)), (one, (1,))])
    finally:
        for conn in conns:
            conn.close()
    return sum(done) / (time.perf_counter() - t0)


def _default_sigint() -> None:
    # A benchmark started in the background inherits SIGINT ignored, and
    # ``repro serve`` stops cleanly (writing its spans) only on SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro serve`` process on a fresh workdir."""

    def __init__(self, workdir: str, trace_file: str | None) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_cmd(["serve", "--workdir", workdir, *SERVE_ARGS],
                      trace_file),
            cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            text=True, preexec_fn=_default_sigint)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(match.group(1))
            self._await_health(t0 + 60.0)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_health(self, give_up: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=10)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return
            except ConnectionError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > give_up:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.005)

    def queue_total(self) -> int:
        from repro.service.http.client import ServiceClient

        return ServiceClient(f"http://127.0.0.1:{self.port}").status(
            limit=1).total

    def close(self) -> None:
        """SIGINT (``repro serve`` stops cleanly and writes its spans)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        stop(self.proc)
        self.proc.stdout.close()


def check_queue(server: Server, tally: Tally, out: Outcome) -> None:
    total = server.queue_total()
    out.check("queue holds every new submit", total == tally.new_jobs,
              f"{total} queued, {tally.new_jobs} submitted")


def tally_checks(tallies: list[Tally], out: Outcome) -> None:
    samples = [s for t in tallies for s in t.samples]
    errors: dict[str, int] = {}
    for t in tallies:
        for what, n in t.errors.items():
            errors[what] = errors.get(what, 0) + n
    out.attempted += len(samples)
    out.failed += sum(1 for s in samples if not s["ok"])
    out.check("every request answered 2xx and correctly", not errors,
              "; ".join(f"{n}x {what}" for what, n in sorted(errors.items()))
              or f"{len(samples)} requests")


def latencies(samples, conn: str, write: bool | None = None) -> list[float]:
    return [s["latency_ms"] for s in samples if s["conn"] == conn
            and (write is None or s["write"] == write)]


def run(seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    out = Outcome()
    workdirs = (os.path.join(scratch, f"serve-{i}") for i in range(99))
    if not trace:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            server = Server(next(workdirs), None)
            setup.append(server.setup_s)
            server.close()
        server = Server(next(workdirs), None)
        setup.append(server.setup_s)
        tally = Tally()
        try:
            capacity = closed_loop(
                server.port, [OpStream(seed, 2), OpStream(seed, 3)],
                seconds, tally)
            check_queue(server, tally, out)
        finally:
            server.close()
        tally_checks([tally], out)
        lat = [s["latency_ms"] for s in tally.samples]
        out.e2e = {
            "setup_s": median(setup),
            "throughput_per_s": capacity,
            "latency_p50_ms": percentile(lat, 50),
            "latency_p95_ms": percentile(lat, 95),
        }
        return out

    # Traced run: closed-loop windows alternate between an untraced and
    # a traced server (trace.overhead_frac), then the open loop runs on
    # the traced one.
    trace_file = os.path.join(scratch, "serve.spans")
    servers = [Server(next(workdirs), None),
               Server(next(workdirs), trace_file)]
    tallies = [Tally(), Tally()]
    streams = [[OpStream(seed, 2), OpStream(seed, 3)] for _ in servers]
    capacity: list[list[float]] = [[], []]
    try:
        for window in range(4):
            i = window % 2
            capacity[i].append(closed_loop(servers[i].port, streams[i],
                                           seconds / 4, tallies[i]))
        open_loop(servers[1].port, seed, seconds, tallies[1])
        for server, tally in zip(servers, tallies):
            check_queue(server, tally, out)
    finally:
        for server in servers:
            server.close()
    tally_checks(tallies, out)
    spans = sp.load(trace_file)
    service_ms = service_spans_by_request(spans)
    samples = tallies[1].samples
    # The header/body stall needs a keep-alive client that sends within
    # ~30 ms of its previous reply, so the http.* figures come from the
    # back-to-back requests of the closed loop.
    closed = [s for s in samples if not s["open"]]

    def overhead(write: bool) -> float:
        return median([s["wire_ms"] - service_ms[s["bench_id"]]
                       for s in closed if s["write"] == write
                       and s["bench_id"] in service_ms])

    out.layers = span_metrics(spans)
    out.layers.update({
        "http.header_to_body_ms": median([s["header_to_body_ms"]
                                          for s in closed]),
        "http.overhead_submit_ms": overhead(True),
        "http.overhead_read_ms": overhead(False),
        "submit_p50_ms": median(latencies(samples, "ka", True)),
        "submit_p95_ms": percentile(latencies(samples, "ka", True), 95),
        "read_p50_ms": median(latencies(samples, "ka", False)),
        "read_p95_ms": percentile(latencies(samples, "ka", False), 95),
        "client_submit_p50_ms": median(latencies(samples, "sc", True)),
        "client_read_p50_ms": median(latencies(samples, "sc", False)),
        "gen.lag_p95_ms": percentile([s["lag_ms"] for s in samples
                                      if s["open"]], 95),
        "trace.overhead_frac":
            median(capacity[0]) / median(capacity[1]) - 1.0,
    })
    return out
