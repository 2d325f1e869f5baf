"""Benchmark-level simulation: ledger, Fig. 7 regimes, Fig. 8 scaling,
Fig. 5 sweep, and the report formatters."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.config import Schedule
from repro.errors import ConfigError
from repro.machine.frontier import crusher_cluster
from repro.perf import (
    PerfConfig,
    choose_grid,
    fact_sweep,
    iteration_costs,
    run_costs,
    simulate_run,
    weak_scaling,
)
from repro.perf.ledger import time_sharing_threads, _sizes
from repro.perf.scaling import node_local_grid, scaled_n, weak_scaling_efficiency


def _small_cfg(**kw) -> PerfConfig:
    base = dict(n=16384, nb=512, p=4, q=2, pl=4, ql=2)
    base.update(kw)
    return PerfConfig(**base)


CLUSTER = crusher_cluster(1)


class TestLedger:
    def test_time_sharing_formula(self):
        """Section III.B: T = 1 + Cbar/pl (paper's worked examples)."""
        assert time_sharing_threads(64, 4, 2) == 15
        assert time_sharing_threads(64, 2, 4) == 29
        assert time_sharing_threads(64, 1, 8) == 57
        assert time_sharing_threads(64, 8, 1) == 8

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ConfigError):
            time_sharing_threads(4, 4, 2)

    def test_section_widths_partition_trailing(self):
        cfg = _small_cfg()
        for k in range(cfg.nblocks - 1):
            sz = _sizes(cfg, k)
            from repro.grid.block_cyclic import num_local_before, numroc

            c_f = (k + 1) % cfg.q
            nloc = numroc(cfg.n + 1, cfg.nb, c_f, cfg.q)
            trailing = nloc - num_local_before((k + 1) * cfg.nb, cfg.nb, c_f, cfg.q)
            assert sz.w_la + sz.w_left + sz.w_right == trailing

    def test_split_mode_transitions_to_lookahead(self):
        cfg = _small_cfg()
        modes = [_sizes(cfg, k).mode for k in range(cfg.nblocks)]
        assert modes[0] == "split"
        assert modes[-2] == "lookahead"
        # one-way transition
        first_la = modes.index("lookahead")
        assert all(m == "lookahead" for m in modes[first_la:])

    def test_right_section_width_fixed_while_split(self):
        """n2 is constant per process column while the split is active (the
        paper's requirement); the two grid columns differ only by the RHS
        column's ownership."""
        cfg = _small_cfg()
        widths_by_col: dict[int, set[int]] = {}
        for k in range(cfg.nblocks):
            sz = _sizes(cfg, k)
            if sz.mode == "split":
                widths_by_col.setdefault(sz.c_f, set()).add(sz.w_right)
        assert widths_by_col
        for widths in widths_by_col.values():
            assert len(widths) == 1

    def test_costs_shrink_with_k(self):
        cfg = _small_cfg()
        c_early = iteration_costs(cfg, CLUSTER, 0)
        c_late = iteration_costs(cfg, CLUSTER, cfg.nblocks - 4)
        early_gpu = c_early.la.dgemm + c_early.left.dgemm + c_early.right.dgemm
        late_gpu = c_late.la.dgemm + c_late.left.dgemm + c_late.right.dgemm
        assert late_gpu < early_gpu / 4
        assert c_late.fact < c_early.fact

    def test_last_iteration_has_no_fact(self):
        cfg = _small_cfg()
        last = iteration_costs(cfg, CLUSTER, cfg.nblocks - 1)
        assert last.fact == 0.0 and last.lbcast == 0.0

    def test_preamble_present_for_overlapped_schedules(self):
        assert run_costs(_small_cfg(), CLUSTER)[0].k == -1
        classic = run_costs(_small_cfg(schedule=Schedule.CLASSIC), CLUSTER)
        assert classic[0].k == 0

    def test_invalid_node_tiling(self):
        with pytest.raises(ConfigError):
            PerfConfig(n=1024, nb=512, p=4, q=2, pl=3, ql=2)


class TestFig7:
    @pytest.fixture(scope="class")
    def report(self):
        cfg = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
        return simulate_run(cfg, crusher_cluster(1))

    def test_two_regimes(self, report):
        """Early iterations are GPU-bound (time == GPU active); the tail is
        latency/communication bound -- the paper's central Fig. 7 claim."""
        iters = report.iterations
        assert all(it.hidden for it in iters[:100])
        assert not any(it.hidden for it in iters[-100:])

    def test_transition_near_half(self, report):
        """The paper sees the split update stop hiding around iter 250/500
        with the 50-50 split."""
        first_unhidden = next(it.k for it in report.iterations if not it.hidden)
        assert 200 <= first_unhidden <= 300

    def test_hidden_time_fraction_near_paper(self, report):
        assert 0.65 <= report.hidden_time_fraction <= 0.85  # paper: ~0.75

    def test_hidden_iteration_fraction_near_half(self, report):
        assert 0.40 <= report.hidden_iteration_fraction <= 0.60  # paper: ~0.5

    def test_single_node_score_near_paper(self, report):
        assert 140 <= report.score_tflops <= 170  # paper: 153

    def test_score_is_large_fraction_of_dgemm_ceiling(self, report):
        """Paper: 78 % of the 4 x 49 = 196 TFLOPS achievable limit."""
        assert 0.70 <= report.score_tflops / 196.0 <= 0.85

    def test_early_regime_rate(self, report):
        """Paper: ~175 TFLOPS (~90 % of the limit) while fully hidden."""
        early = report.early_regime_tflops()
        assert 165 <= early <= 196

    def test_tail_dominated_by_fact_and_comm(self, report):
        tail = report.iterations[-20:-1]
        for it in tail:
            assert it.fact + it.mpi + it.transfer > it.gpu_active

    def test_iteration_times_positive_and_decreasing_overall(self, report):
        times = [it.time for it in report.iterations]
        assert all(t > 0 for t in times)
        assert sum(times[-50:]) < sum(times[:50])


class TestScheduleComparison:
    def test_split_beats_lookahead_beats_classic_at_full_size(self):
        """At the HBM-filling problem size the paper targets, each
        optimization layer buys throughput."""
        scores = {}
        for sched in Schedule:
            cfg = PerfConfig(
                n=256_000, nb=512, p=4, q=2, pl=4, ql=2, schedule=sched
            )
            scores[sched] = simulate_run(cfg, CLUSTER).score_tflops
        assert scores[Schedule.SPLIT_UPDATE] > scores[Schedule.LOOKAHEAD]
        assert scores[Schedule.LOOKAHEAD] > scores[Schedule.CLASSIC]

    def test_small_problems_gain_less_from_split(self):
        """When the update cannot hide FACT anyway (small N), the split's
        extra phase structure buys little or nothing -- the reason the
        paper evaluates at HBM-filling N."""
        def gain(n):
            split = PerfConfig(n=n, nb=512, p=4, q=2, pl=4, ql=2)
            la = PerfConfig(
                n=n, nb=512, p=4, q=2, pl=4, ql=2, schedule=Schedule.LOOKAHEAD
            )
            return (
                simulate_run(split, CLUSTER).score_tflops
                / simulate_run(la, CLUSTER).score_tflops
            )

        assert gain(65_536) < gain(256_000)

    def test_fifty_fifty_split_near_optimal_on_node(self):
        """Paper: a 50-50 split works best on a single node."""
        def score(frac):
            cfg = PerfConfig(
                n=256_000, nb=512, p=4, q=2, pl=4, ql=2, split_fraction=frac
            )
            return simulate_run(cfg, CLUSTER).score_tflops

        s50 = score(0.5)
        assert s50 >= score(0.1) and s50 >= score(0.9)


class TestFig8:
    def test_grid_chooser(self):
        assert choose_grid(8) == (4, 2)
        assert choose_grid(16) == (4, 4)
        assert choose_grid(64) == (8, 8)
        assert choose_grid(1024) == (32, 32)
        assert choose_grid(512) == (32, 16)  # 2:1 when not square
        assert choose_grid(1) == (1, 1)

    def test_node_local_grid_maximizes_columns(self):
        assert node_local_grid(4, 4) == (2, 4)
        assert node_local_grid(8, 8) == (1, 8)
        assert node_local_grid(32, 32) == (1, 8)
        assert node_local_grid(4, 2) == (4, 2)

    def test_scaled_n(self):
        assert scaled_n(1, 256_000, 512) == 256_000
        assert scaled_n(4, 256_000, 512) == 512_000
        assert scaled_n(2, 256_000, 512) % 512 == 0

    def test_weak_scaling_shape(self):
        """Fig. 8: >90 % efficiency out to 128 nodes, ~17.75 PFLOPS."""
        points = weak_scaling([1, 4, 16, 128])
        effs = weak_scaling_efficiency(points)
        assert effs[0] == pytest.approx(1.0)
        assert all(e > 0.90 for e in effs)
        assert all(b.tflops > a.tflops for a, b in zip(points, points[1:]))
        final = points[-1]
        assert final.nnodes == 128
        assert 15_000 <= final.tflops <= 21_000  # paper: 17,750

    def test_efficiency_declines_with_scale(self):
        points = weak_scaling([1, 16, 128])
        effs = weak_scaling_efficiency(points)
        assert effs[2] <= effs[1] + 0.02


class TestFig5:
    def test_sweep_structure(self):
        curves = fact_sweep()
        assert [c.threads for c in curves] == [1, 2, 4, 8, 16, 32, 64]
        for c in curves:
            assert len(c.gflops) == len(c.m_values)
            assert all(g > 0 for g in c.gflops)

    def test_paper_shape_claims(self):
        """Multi-threading improves FACT considerably, and many cores help
        even at relatively small sizes (Fig. 5's stated takeaways)."""
        curves = {c.threads: c for c in fact_sweep()}
        big_m = -1
        assert curves[64].gflops[big_m] > 5 * curves[1].gflops[big_m]
        mid_m = curves[1].m_values.index(16 * 512)
        assert curves[16].gflops[mid_m] > 2 * curves[2].gflops[mid_m]

    def test_curves_rise_with_m_until_l3_spills(self):
        """Within L3 residence each curve rises with M; past the spill the
        bandwidth cap may dent high-thread curves, so only the resident
        prefix must be monotone."""
        from repro.machine.frontier import crusher_node

        l3_rows = int(crusher_node().cpu.l3_mb * 1e6 / (8 * 512))
        for c in fact_sweep():
            resident = [g for m, g in zip(c.m_values, c.gflops) if m <= l3_rows]
            assert resident == sorted(resident)
            assert c.gflops[-1] > c.gflops[0]  # overall rising trend


class TestReport:
    def test_formatters_produce_text(self):
        from repro.perf.report import (
            format_breakdown_table,
            format_fact_table,
            format_hpl_line,
            format_run_report,
            format_scaling_table,
        )

        cfg = PerfConfig(n=8192, nb=512, p=4, q=2, pl=4, ql=2)
        report = simulate_run(cfg, CLUSTER)
        assert "8192" in format_run_report(report)
        table = format_breakdown_table(report, stride=4)
        assert "fact_ms" in table and len(table.splitlines()) > 2
        line = format_hpl_line(1000, 512, 2, 2, 10.0, 1.5)
        assert "1000" in line and "512" in line
        points = weak_scaling([1, 2], n_single=16384)
        assert "nodes" in format_scaling_table(points)
        assert "T=64" in format_fact_table(fact_sweep())


def test_simulator_import_leaves_scipy_unloaded():
    """scipy serves the numeric engine only; every pool worker imports
    the simulator, so it must not pay for scipy."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, repro.perf.hplsim; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.strip() == "False"
