"""In-memory spans, recorded by wrapping the functions callers bind.

A :class:`Tracer` replaces an attribute (a module-level function such as
``repro.perf.hplsim.run_cost_arrays``, or a method on a class) with a
wrapper that records one span per call: its name (``<layer>.<op>``),
monotonic start and end in nanoseconds, the process id, its own id, the
id of the enclosing span on the same thread, the request id of the
enclosing HTTP request (if any), and one number the wrapper may derive
from the call (a cache hit, an iteration count, ...).

Spans stay in memory until :meth:`Tracer.dump` appends them to a JSON
lines file.  Forked children inherit the parent's list, so ``dump``
writes only the calling process's own spans.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable

# Field order of one span record.
NAME, T0, T1, PID, SID, PARENT, REQ, VALUE = range(8)


class Tracer:
    """Span recorder; ``wrap`` installs, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self._written = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, req: str | None) -> None:
        """Tag spans opened on this thread with request id ``req``."""
        self._local.req = req

    def record(self, name: str, t0: int, t1: int) -> None:
        """Add a span measured by the caller."""
        stack = self._stack()
        self.spans.append([name, t0, t1, os.getpid(), self._new_id(),
                           stack[-1] if stack else 0,
                           getattr(self._local, "req", None), 0.0])

    def call(self, name: str, fn, args, kwargs,
             value: Callable | None = None, probe: Callable | None = None):
        """Run ``fn`` inside a span; ``value(result, before)`` sets its number."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else 0
        req = getattr(self._local, "req", None)
        before = probe() if probe is not None else None
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
        number = float(value(result, before)) if value is not None else 0.0
        self.spans.append([name, t0, t1, os.getpid(), sid, parent, req,
                           number])
        return result

    def wrap(self, owner, attr: str, name: str,
             value: Callable | None = None,
             probe: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, value, probe)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def dump(self, path: str) -> None:
        """Append this process's unwritten spans to ``path`` (JSON lines)."""
        pid = os.getpid()
        end = len(self.spans)
        fresh = [s for s in self.spans[self._written:end] if s[PID] == pid]
        self._written = end
        if not fresh:
            return
        data = "".join(json.dumps(s) + "\n" for s in fresh).encode()
        # One O_APPEND write per dump, so job children that finish
        # together never interleave their lines.
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def load(path: str) -> list[list]:
    """Every span a traced run wrote to ``path`` (empty if none)."""
    try:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except FileNotFoundError:
        return []


def by_name(spans: list[list]) -> dict[str, list[list]]:
    out: dict[str, list[list]] = {}
    for s in spans:
        out.setdefault(s[NAME], []).append(s)
    return out


def duration_ms(span: list) -> float:
    return (span[T1] - span[T0]) / 1e6


def self_ms(span: list, children: list[list]) -> float:
    """Span duration minus the durations of its direct child spans."""
    return duration_ms(span) - sum(duration_ms(c) for c in children)
