"""Shared plumbing: paths, subprocess environment, statistics, results."""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    The program under test is imported from the checkout's ``src``; the
    benchmark package from the checkout root (for the launcher).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def repro_cmd(argv: list[str], trace_file: str | None) -> list[str]:
    """Command line for ``repro <argv>``; traced through the launcher."""
    if trace_file is None:
        return python_cmd("-m", "repro", *argv)
    return python_cmd(str(BENCH / "launch.py"), trace_file, *argv)


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Wait for ``proc``; kill it if it outlives ``timeout``."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def ready_seconds(cmd: list[str], cwd: str, timeout: float = 60.0) -> float:
    """Seconds from spawning ``cmd`` until it prints a line starting
    with ``ready``; the process must then exit with status 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        elapsed = None
        for line in proc.stdout:
            if line.startswith("ready"):
                elapsed = time.perf_counter() - t0
                break
        proc.stdout.read()
        rc = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if elapsed is None or rc != 0:
        raise RuntimeError(f"set-up command failed (exit {rc}): {cmd}")
    return elapsed


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples) -> float:
    return statistics.fmean(samples) if samples else 0.0


def sim_digest(outputs) -> tuple[int, int]:
    """Fingerprint of simulator outputs, ``(makespan, score, iterations)``
    each: (48-bit sha256 prefix of every makespan and score, iterations).
    It must repeat exactly for a seed."""
    h = hashlib.sha256()
    iterations = 0
    for makespan, score, iters in outputs:
        h.update(f"{makespan!r} {score!r}\n".encode())
        iterations += iters
    return int(h.hexdigest()[:12], 16), iterations


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` holds the end-to-end metrics (untraced run), ``layers`` the
    per-layer ones (traced run), ``notes`` workload-specific figures
    printed for the reader only.  ``checks`` lists ``(name, ok, detail)``.
    """

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)
