"""Tests for endurance analysis, adaptive scheduling, power accounting,
and the CLI."""

from __future__ import annotations

import pytest

from repro.energy import steady_trace
from repro.fsm import (
    AdaptiveScheduler,
    ChargingRateEstimator,
    DutyCycleBudget,
    plan_intervals,
)
from repro.sim.intermittent import ExecutionResult
from repro.sim.power_sim import breakdown
from repro.tech import MRAM, PCM, estimate_lifetime, lifetime_gain


def fake_result(scheme: str, n_backups: int, bits: int) -> ExecutionResult:
    return ExecutionResult(
        scheme=scheme,
        completed=True,
        work_target_j=1.0,
        useful_energy_j=1.0,
        total_energy_j=1.2,
        active_time_s=1e-3,
        wall_time_s=1.0,
        n_backups=n_backups,
        n_restores=n_backups,
        nvm_bits_written=n_backups * bits,
    )


class TestEndurance:
    def test_fewer_backups_longer_life(self):
        heavy = estimate_lifetime(fake_result("NV", 40, 64), PCM, 64)
        light = estimate_lifetime(fake_result("OptDIAC", 10, 64), PCM, 64)
        assert light.lifetime_days > heavy.lifetime_days
        assert lifetime_gain(heavy, light) == pytest.approx(4.0)

    def test_mram_outlives_pcm(self):
        result = fake_result("DIAC", 20, 64)
        mram = estimate_lifetime(result, MRAM, 64)
        pcm = estimate_lifetime(result, PCM, 64)
        assert mram.lifetime_days > pcm.lifetime_days

    def test_zero_backups_unbounded(self):
        estimate = estimate_lifetime(fake_result("x", 0, 64), PCM, 64)
        assert estimate.lifetime_days == float("inf")
        assert estimate.lifetime_years == float("inf")

    def test_rate_scales_lifetime(self):
        result = fake_result("x", 10, 64)
        slow = estimate_lifetime(result, PCM, 64, macro_tasks_per_day=10)
        fast = estimate_lifetime(result, PCM, 64, macro_tasks_per_day=100)
        assert slow.lifetime_days == pytest.approx(10 * fast.lifetime_days)

    def test_validation(self):
        result = fake_result("x", 1, 64)
        with pytest.raises(ValueError):
            estimate_lifetime(result, PCM, 64, macro_tasks_per_day=0)
        with pytest.raises(ValueError):
            estimate_lifetime(result, PCM, 0)

    def test_gain_requires_same_technology(self):
        a = estimate_lifetime(fake_result("x", 10, 64), PCM, 64)
        b = estimate_lifetime(fake_result("y", 10, 64), MRAM, 64)
        with pytest.raises(ValueError):
            lifetime_gain(a, b)


class TestChargingEstimator:
    def test_first_sample_initializes(self):
        est = ChargingRateEstimator(alpha=0.5)
        assert est.update(10e-6, 1.0) == pytest.approx(10e-6)

    def test_ewma_converges(self):
        est = ChargingRateEstimator(alpha=0.5)
        for _ in range(20):
            est.update(50e-6, 1.0)
        assert est.estimate_w == pytest.approx(50e-6, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChargingRateEstimator(alpha=0.0)
        est = ChargingRateEstimator()
        with pytest.raises(ValueError):
            est.update(1.0, 0.0)
        with pytest.raises(ValueError):
            est.update(-1.0, 1.0)


class TestAdaptiveScheduler:
    def test_strong_harvest_fast_sampling(self):
        sched = AdaptiveScheduler(min_interval_s=10.0, max_interval_s=3600.0)
        strong = sched.interval_for(1.0)  # 1 W: absurdly strong
        assert strong == 10.0

    def test_weak_harvest_slow_sampling(self):
        sched = AdaptiveScheduler()
        assert sched.interval_for(0.0) == sched.max_interval_s

    def test_interval_monotone_in_power(self):
        sched = AdaptiveScheduler()
        powers = [30e-6, 60e-6, 120e-6, 500e-6]
        intervals = [sched.interval_for(p) for p in powers]
        assert intervals == sorted(intervals, reverse=True)

    def test_paper_budget_round_energy(self):
        budget = DutyCycleBudget()
        assert budget.round_energy_j == pytest.approx(15e-3)

    def test_interval_formula(self):
        sched = AdaptiveScheduler(
            budget=DutyCycleBudget(sleep_power_w=0.0),
            min_interval_s=1.0,
            max_interval_s=1e6,
            margin=1.0,
        )
        # 15 mJ round at 100 uW -> 150 s.
        assert sched.interval_for(100e-6) == pytest.approx(150.0)

    def test_plan_intervals_tracks_profile(self):
        intervals = plan_intervals([200e-6, 200e-6, 20e-6, 20e-6, 20e-6])
        assert intervals[1] < intervals[-1]  # weak harvest -> slower

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveScheduler(min_interval_s=0.0)
        with pytest.raises(ValueError):
            AdaptiveScheduler(margin=0.5)


class TestPowerBreakdown:
    @pytest.fixture(scope="class")
    def fsm_result(self):
        from repro.energy import EnergyStorage, ThresholdSet
        from repro.fsm import IntermittentController, OperationCosts

        thresholds = ThresholdSet.paper_defaults()
        storage = EnergyStorage(
            e_max_j=thresholds.e_max_j, energy_j=0.5 * thresholds.e_max_j
        )
        controller = IntermittentController(
            storage=storage,
            thresholds=thresholds,
            trace=steady_trace(400e-6),
            costs=OperationCosts(uncertainty=0.0),
            sense_interval_s=60.0,
            dt_s=0.05,
        )
        return controller.run(600.0)

    def test_breakdown_categories(self, fsm_result):
        bd = breakdown(fsm_result, sleep_leakage_w=20e-6)
        assert bd.sense_j > 0
        assert bd.compute_j > 0
        assert bd.transmit_j > 0
        assert bd.sleep_j > 0
        assert bd.total_j > 0

    def test_transmit_dominates_operations(self, fsm_result):
        """9 mJ transmit vs 2 mJ sense: per equal counts transmit wins."""
        bd = breakdown(fsm_result)
        assert bd.transmit_j >= bd.sense_j

    def test_nvm_fraction_bounded(self, fsm_result):
        bd = breakdown(fsm_result)
        assert 0.0 <= bd.nvm_fraction <= 1.0

    def test_table_rows(self, fsm_result):
        rows = breakdown(fsm_result).as_table_rows()
        assert len(rows) == 6
        assert all(len(r) == 3 for r in rows)


class TestCli:
    def test_roster_command(self, capsys):
        from repro.cli import main

        assert main(["roster"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "b14" in out and "des" in out

    def test_synth_command(self, capsys):
        from repro.cli import main

        assert main(["synth", "s27"]) == 0
        out = capsys.readouterr().out
        assert "DIAC design report" in out

    def test_synth_emit_verilog(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "s27.v"
        assert main(["synth", "s27", "--emit-verilog", str(target)]) == 0
        assert "module s27" in target.read_text()

    def test_synth_emit_verilog_numbered_nets(self, tmp_path, capsys):
        from pathlib import Path

        from repro.circuits import load_bench, parse_verilog
        from repro.cli import main

        bench = Path(__file__).parents[1] / "examples" / "c17.bench"
        target = tmp_path / "c17.v"
        argv = ["synth", str(bench), "--emit-verilog", str(target)]
        assert main(argv) == 0
        source = load_bench(bench)
        parsed = parse_verilog(target.read_text())
        assert parsed.gates == source.gates
        assert (parsed.inputs, parsed.outputs) == (source.inputs, source.outputs)
        assert (len(source.inputs), len(source.outputs)) == (5, 2)
        assert source.num_gates == 6

    def test_synth_bench_file(self, tmp_path, capsys):
        from repro.circuits import S27_BENCH
        from repro.cli import main

        bench = tmp_path / "mine.bench"
        bench.write_text(S27_BENCH)
        assert main(["synth", str(bench)]) == 0

    def test_cli_and_worker_load_an_upper_case_suffix_alike(self, tmp_path, capsys):
        from repro.circuits import S27_BENCH, load_bench
        from repro.cli import _resolve_netlist, main
        from repro.service.worker import _load_netlist

        bench = tmp_path / "MINE.BENCH"
        bench.write_text(S27_BENCH)
        expected = load_bench(bench)
        assert _resolve_netlist(str(bench)).gates == expected.gates
        assert _load_netlist("MINE", str(bench)).gates == expected.gates
        assert main(["synth", str(bench)]) == 0

    def test_cli_and_worker_name_every_netlist_suffix(self, tmp_path):
        from repro.cli import _resolve_netlist
        from repro.service.worker import _load_netlist

        unknown = str(tmp_path / "mine.v")
        with pytest.raises(SystemExit, match=r"\.bench/\.blif/\.mcnc file"):
            _resolve_netlist(unknown)
        with pytest.raises(ValueError, match=r"expected \.bench/\.blif/\.mcnc"):
            _load_netlist("MINE", unknown)

    def test_evaluate_command(self, capsys):
        from repro.cli import main

        assert main(["evaluate", "s27"]) == 0
        out = capsys.readouterr().out
        assert "Optimized DIAC" in out

    def test_evaluate_with_reram(self, capsys):
        from repro.cli import main

        assert main(["evaluate", "s27", "--nvm", "reram"]) == 0

    def test_unknown_circuit_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["synth", "not_a_circuit"])
