"""Workload ``sim_sweep``: a cold Fig. 8-style sweep on the fast engine.

The simulator does all the work and the service none.  Configs come in
passes of 96, one per combination of the Fig. 8 node counts 1..128
(grid from ``choose_grid``/``node_local_grid``), NB in {384, 512, 640}
and a schedule (look-ahead, or split at 0.4/0.5/0.6).  Each config gets a
seeded per-node problem size, and no config repeats within a run, so
every ``simulate_run`` prices a cold point exactly as a user sweep does.
A pass always holds the same mix of sizes, so runs of whole passes are
comparable; the reported rate is configs over the passes' wall time.
"""

from __future__ import annotations

import dataclasses
import random
import time

from .common import (Outcome, ROOT, SETUP_SAMPLES, mean, median, percentile,
                     python_cmd, ready_seconds, sim_digest)
from .layers import install_sim, span_metrics
from .spans import Tracer

NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)
NBS = (384, 512, 640)
VARIANTS = (("lookahead", 0.5), ("split", 0.4), ("split", 0.5),
            ("split", 0.6))
#: Per-node problem size range; N grows with sqrt(nodes) (``scaled_n``).
N_SINGLE = (200_000, 260_000)
PASS = len(NODE_COUNTS) * len(NBS) * len(VARIANTS)

SETUP_CODE = """
from repro.machine.frontier import crusher_cluster
from repro.perf.hplsim import simulate_run
from repro.perf.ledger import PerfConfig
from repro.perf.scaling import choose_grid, node_local_grid, scaled_n
clusters = {n: crusher_cluster(n) for n in %r}
print("ready", flush=True)
""" % (NODE_COUNTS,)


class ConfigStream:
    """Seeded passes of distinct ``(nodes, PerfConfig)`` points."""

    def __init__(self, seed: int) -> None:
        from repro.config import Schedule
        from repro.perf.ledger import PerfConfig
        from repro.perf.scaling import choose_grid, node_local_grid

        self._rng = random.Random(seed)
        self._seen: set = set()
        self._perf_config = PerfConfig
        self._schedules = {"lookahead": Schedule.LOOKAHEAD,
                           "split": Schedule.SPLIT_UPDATE}
        self._grids = {}
        for nodes in NODE_COUNTS:
            p, q = choose_grid(nodes * 8)
            pl, ql = (p, q) if nodes == 1 else node_local_grid(p, q, 8)
            self._grids[nodes] = (p, q, pl, ql)

    def next_pass(self) -> list:
        from repro.perf.scaling import scaled_n

        combos = [(nodes, nb, variant) for nodes in NODE_COUNTS
                  for nb in NBS for variant in VARIANTS]
        self._rng.shuffle(combos)
        points = []
        for nodes, nb, (schedule, fraction) in combos:
            p, q, pl, ql = self._grids[nodes]
            while True:
                n = scaled_n(nodes, self._rng.randint(*N_SINGLE), nb)
                cfg = self._perf_config(
                    n=n, nb=nb, p=p, q=q, pl=pl, ql=ql,
                    schedule=self._schedules[schedule],
                    split_fraction=fraction)
                if cfg not in self._seen:
                    break
            self._seen.add(cfg)
            points.append((nodes, cfg))
        return points


def digest(reports) -> tuple[int, int]:
    return sim_digest((r.makespan, r.score_tflops, len(r.iterations))
                      for r in reports)


class Sweep:
    """Times passes of a :class:`ConfigStream` through ``simulate_run``."""

    def __init__(self, seed: int) -> None:
        from repro.machine.frontier import crusher_cluster
        from repro.perf import hplsim

        self.hplsim = hplsim
        self.clusters = {n: crusher_cluster(n) for n in NODE_COUNTS}
        self.stream = ConfigStream(seed)
        self.first_pass: list = []
        self.first_reports: list = []
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        """First-call costs (numpy dispatch, model tables) off the clock."""
        from repro.perf.fastledger import run_cost_arrays

        for nodes, cfg in ConfigStream(-1).next_pass()[:4]:
            # Outside N_SINGLE's range, so no measured config is warmed.
            small = dataclasses.replace(cfg, n=cfg.n // 4)
            self.hplsim.simulate_run(small, self.clusters[nodes])
        run_cost_arrays.cache_clear()

    def run_pass(self, points) -> tuple[float, list[float], list]:
        config_ms, reports = [], []
        t_pass = time.perf_counter()
        for nodes, cfg in points:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                report = self.hplsim.simulate_run(cfg, self.clusters[nodes])
            except Exception:  # noqa: BLE001 -- counted as a failed op
                self.failed += 1
                report = None
            config_ms.append((time.perf_counter() - t0) * 1e3)
            reports.append(report)
        return time.perf_counter() - t_pass, config_ms, reports

    def measure(self, seconds: float, tracer: Tracer | None = None,
                ) -> tuple[dict, dict]:
        """Whole passes that fit in ``seconds`` (at least one).

        Returns the pass wall times and the per-config milliseconds, each
        keyed by whether the pass was traced.  With a ``tracer`` the
        passes alternate untraced / traced, so both see the same host
        conditions.
        """
        walls: dict[bool, list[float]] = {False: [], True: []}
        config_ms: dict[bool, list[float]] = {False: [], True: []}
        traced = False
        wall = 0.0
        deadline = time.perf_counter() + seconds
        while not walls[tracer is not None] \
                or time.perf_counter() + wall <= deadline:
            points = self.stream.next_pass()
            if traced:
                install_sim(tracer)
            try:
                wall, ms, reports = self.run_pass(points)
            finally:
                if traced:
                    tracer.uninstall()
            if not self.first_pass:
                self.first_pass, self.first_reports = points, reports
            walls[traced].append(wall)
            config_ms[traced] += ms
            traced = tracer is not None and not traced
        return walls, config_ms


def rate(walls: list[float]) -> float:
    """Configs simulated per second over whole passes."""
    return PASS * len(walls) / sum(walls)


def check_outputs(sweep: Sweep, out: Outcome) -> tuple[int, int]:
    """Output checks, all outside the timed region."""
    from repro.perf.fastledger import run_cost_arrays
    from repro.perf.hplsim import simulate_run
    from repro.perf.scaling import weak_scaling, weak_scaling_efficiency

    out.check("no config failed", sweep.failed == 0,
              f"{sweep.failed} of {sweep.attempted} raised")
    first_ok = all(r is not None for r in sweep.first_reports)
    value, iterations = digest(sweep.first_reports) if first_ok else (0, 0)
    run_cost_arrays.cache_clear()
    again = [simulate_run(cfg, sweep.clusters[nodes])
             for nodes, cfg in sweep.first_pass]
    out.check("sim.digest stable", first_ok and digest(again) == (
        value, iterations), f"digest {value:012x} over {iterations} iters")
    points = weak_scaling([1, 128], fidelity="fast")
    pf = points[-1].tflops / 1e3
    eff = weak_scaling_efficiency(points)[-1]
    out.check("golden 128-node headline",
              round(pf, 1) == 19.0 and round(eff * 100, 1) == 94.5,
              f"{pf:.2f} PF, {eff:.2%} efficiency")
    mismatched = 0
    for (nodes, cfg), fast in zip(sweep.first_pass, again):
        if nodes == 1:
            full = simulate_run(cfg, sweep.clusters[1], fidelity="full")
            mismatched += (full.makespan, full.score_tflops) != (
                fast.makespan, fast.score_tflops)
    out.check("fast == full on 1-node configs", not mismatched,
              f"{mismatched} mismatched")
    return value, iterations


def setup_seconds() -> list[float]:
    return [ready_seconds(python_cmd("-c", SETUP_CODE), str(ROOT))
            for _ in range(SETUP_SAMPLES)]


def run(seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    out = Outcome()
    setup = [] if trace else setup_seconds()
    sweep = Sweep(seed)
    sweep.warm_up()
    tracer = Tracer() if trace else None
    walls, config_ms = sweep.measure(seconds, tracer)
    if trace:
        out.layers = span_metrics(tracer.spans)
        out.layers["trace.overhead_frac"] = (
            rate(walls[False]) / rate(walls[True]) - 1.0)
        out.notes["(price + resolve + assemble) / simulate_run as timed"
                  " by the caller"] = (
            out.layers["fastledger.price_ms"]
            + out.layers["fastpath.resolve_ms"]
            + out.layers["hplsim.assemble_ms"]) / mean(config_ms[True])
    value, iterations = check_outputs(sweep, out)
    out.layers.update({"sim.digest": value, "sim.iterations": iterations})
    out.attempted, out.failed = sweep.attempted, sweep.failed
    out.e2e = {
        "setup_s": median(setup),
        "throughput_per_s": rate(walls[False]),
        "latency_p50_ms": percentile(config_ms[False], 50),
        "latency_p95_ms": percentile(config_ms[False], 95),
    }
    out.notes["passes of %d configs" % PASS] = sum(map(len, walls.values()))
    return out
