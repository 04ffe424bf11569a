"""Tests for the ``repro.perf`` performance-tracking subsystem.

Covers the report schema and its failure modes (malformed JSON, alien
schema versions, missing baselines), the ``perf compare`` regression
gate, determinism of non-timing fields across back-to-back runs, and —
most importantly — the equivalence guarantees of the hot-path
optimizations this harness exists to protect: memoized block costing and
the trace fast path must produce bit-identical numbers.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.perf import (
    PerfReportError,
    compare_reports,
    load_report,
    report_dict,
    run_suites,
    save_report,
)
from repro.perf.report import collect_history, format_history
from repro.perf.suites import SUITE_NAMES
from repro.perf.timing import Timing, host_fingerprint, time_call

#: Cheap suite subset used wherever a test needs real suite results.
FAST_SUITES = ("executor", "sweep-serial")


@pytest.fixture(scope="module")
def quick_results():
    return run_suites(quick=True, repeats=1, only=FAST_SUITES)


@pytest.fixture()
def bench_file(tmp_path, quick_results):
    path = tmp_path / "BENCH_1.json"
    save_report(path, report_dict(quick_results, quick=True))
    return path


class TestTiming:
    def test_repeat_min_and_result(self):
        calls = []
        timing, result = time_call(
            lambda: calls.append(1) or len(calls), repeats=3, warmup=2
        )
        assert result == 5  # 2 warmups + 3 timed
        assert timing.repeats == 3 and timing.warmup == 2
        assert 0.0 <= timing.wall_s <= timing.mean_s

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_call(lambda: None, warmup=-1)

    def test_fingerprint_is_stable(self):
        assert host_fingerprint() == host_fingerprint()

    def test_paired_interleaves_and_reports_both(self):
        from repro.perf.timing import time_paired

        log = []
        timing_a, timing_b, result = time_paired(
            lambda: log.append("a") or "A",
            lambda: log.append("b") or "B",
            repeats=2,
            warmup=1,
        )
        assert log == ["a", "a", "b", "a", "b"]
        assert result == "A"
        assert timing_a.repeats == timing_b.repeats == 2
        assert timing_a.warmup == 1 and timing_b.warmup == 0

    def test_paired_rejects_bad_counts(self):
        from repro.perf.timing import time_paired

        with pytest.raises(ValueError):
            time_paired(lambda: None, lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_paired(lambda: None, lambda: None, warmup=-1)


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(only=("no-such-suite",))

    def test_quick_subset_is_registered(self):
        assert set(FAST_SUITES) <= set(SUITE_NAMES)

    def test_results_have_rates_and_counters(self, quick_results):
        by_name = {r.name: r for r in quick_results}
        assert set(by_name) == set(FAST_SUITES)
        executor = by_name["executor"]
        assert executor.counters["events"] > 0
        assert executor.rates["events_per_s"] > 0
        sweep = by_name["sweep-serial"]
        assert sweep.counters["evaluated"] == sweep.counters["points"] == 18
        assert sweep.counters["failed"] == 0

    def test_non_timing_fields_deterministic(self, quick_results):
        """Two back-to-back runs agree on everything but wall clocks."""
        again = run_suites(quick=True, repeats=1, only=FAST_SUITES)
        for first, second in zip(quick_results, again):
            assert first.name == second.name
            assert first.counters == second.counters
            assert set(first.rates) == set(second.rates)


class TestReportSchema:
    def test_roundtrip(self, bench_file):
        report = load_report(bench_file)
        assert report["kind"] == "repro.perf"
        assert report["schema_version"] == 1
        assert report["quick"] is True
        assert set(report["suites"]) == set(FAST_SUITES)
        for suite in report["suites"].values():
            assert suite["timing"]["wall_s"] > 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(PerfReportError, match="no such perf report"):
            load_report(tmp_path / "BENCH_404.json")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json at all")
        with pytest.raises(PerfReportError, match="not valid JSON"):
            load_report(bad)

    def test_wrong_kind(self, tmp_path):
        alien = tmp_path / "BENCH_alien.json"
        alien.write_text(json.dumps({"kind": "other.tool", "suites": {}}))
        with pytest.raises(PerfReportError, match="not a repro.perf report"):
            load_report(alien)

    def test_non_object_top_level(self, tmp_path):
        listy = tmp_path / "BENCH_list.json"
        listy.write_text("[1, 2, 3]")
        with pytest.raises(PerfReportError, match="top level is list"):
            load_report(listy)

    def test_alien_schema_version(self, bench_file, tmp_path):
        data = json.loads(bench_file.read_text())
        for version in (0, 2, "1", None):
            data["schema_version"] = version
            other = tmp_path / "BENCH_v.json"
            other.write_text(json.dumps(data))
            with pytest.raises(PerfReportError, match="schema_version"):
                load_report(other)

    def test_suite_without_wall_rejected(self, bench_file, tmp_path):
        data = json.loads(bench_file.read_text())
        del data["suites"]["executor"]["timing"]["wall_s"]
        broken = tmp_path / "BENCH_broken.json"
        broken.write_text(json.dumps(data))
        with pytest.raises(PerfReportError, match="timing.wall_s"):
            load_report(broken)


class TestCompare:
    def _mutated(self, bench_file, tmp_path, scale=1.0, name="BENCH_2.json"):
        data = json.loads(bench_file.read_text())
        for suite in data["suites"].values():
            suite["timing"]["wall_s"] *= scale
        out = tmp_path / name
        out.write_text(json.dumps(data))
        return out

    def test_identical_reports_pass(self, bench_file):
        report = load_report(bench_file)
        result = compare_reports(report, report, max_regression=0.0)
        assert result.compared == len(FAST_SUITES)
        assert not result.regressions

    def test_injected_regression_detected(self, bench_file, tmp_path):
        slow = self._mutated(bench_file, tmp_path, scale=2.0)
        result = compare_reports(
            load_report(bench_file), load_report(slow), max_regression=0.2
        )
        assert len(result.regressions) == len(FAST_SUITES)
        assert all(e.ratio == pytest.approx(2.0) for e in result.regressions)

    def test_generous_margin_absorbs_noise(self, bench_file, tmp_path):
        slow = self._mutated(bench_file, tmp_path, scale=1.3)
        result = compare_reports(
            load_report(bench_file), load_report(slow), max_regression=2.0
        )
        assert not result.regressions

    def test_negative_margin_rejected(self, bench_file):
        report = load_report(bench_file)
        with pytest.raises(PerfReportError, match="max-regression"):
            compare_reports(report, report, max_regression=-0.1)

    def test_workload_change_never_gates(self, bench_file, tmp_path):
        data = json.loads(bench_file.read_text())
        data["suites"]["executor"]["counters"]["events"] += 1
        data["suites"]["executor"]["timing"]["wall_s"] *= 100.0
        changed = tmp_path / "BENCH_wl.json"
        changed.write_text(json.dumps(data))
        result = compare_reports(
            load_report(bench_file), load_report(changed), max_regression=0.0
        )
        by_name = {e.name: e for e in result.entries}
        assert by_name["executor"].status == "workload-changed"
        assert by_name["executor"].ratio is None

    def test_one_sided_suites_reported_not_gated(self, bench_file, tmp_path):
        data = json.loads(bench_file.read_text())
        only_exec = {
            **data,
            "suites": {"executor": data["suites"]["executor"]},
        }
        trimmed = tmp_path / "BENCH_trim.json"
        trimmed.write_text(json.dumps(only_exec))
        result = compare_reports(
            load_report(bench_file), load_report(trimmed), max_regression=0.0
        )
        statuses = {e.name: e.status for e in result.entries}
        assert statuses["sweep-serial"] == "old-only"
        assert result.compared == 1


class TestPerfCli:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_9.json"
        code = main(
            [
                "perf", "run", "--quick", "--repeats", "1",
                "--suite", "executor", "--out", str(out),
            ]
        )
        assert code == 0
        assert load_report(out)["suites"]["executor"]
        assert "perf run" in capsys.readouterr().out

    def test_run_rejects_bad_repeats(self, tmp_path):
        with pytest.raises(SystemExit, match="repeats"):
            main(
                ["perf", "run", "--repeats", "0",
                 "--out", str(tmp_path / "x.json")]
            )

    def test_compare_exit_codes(self, bench_file, tmp_path, capsys):
        data = json.loads(bench_file.read_text())
        for suite in data["suites"].values():
            suite["timing"]["wall_s"] *= 4.0
        slow = tmp_path / "BENCH_slow.json"
        slow.write_text(json.dumps(data))

        assert main(["perf", "compare", str(bench_file), str(bench_file)]) == 0
        assert main(["perf", "compare", str(bench_file), str(slow)]) == 1
        capsys.readouterr()
        missing = tmp_path / "BENCH_404.json"
        assert main(["perf", "compare", str(missing), str(bench_file)]) == 2
        assert "no such perf report" in capsys.readouterr().err

    def test_compare_negative_margin_exit_2(self, bench_file, capsys):
        code = main(
            ["perf", "compare", str(bench_file), str(bench_file),
             "--max-regression", "-1"]
        )
        assert code == 2
        assert "max-regression" in capsys.readouterr().err

    def test_compare_malformed_exit_2(self, bench_file, tmp_path, capsys):
        garbage = tmp_path / "BENCH_g.json"
        garbage.write_text("][")
        code = main(["perf", "compare", str(bench_file), str(garbage)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_compare_vacuous_gate_exit_2(self, bench_file, tmp_path, capsys):
        """A comparison gating zero suites must fail, not pass silently."""
        data = json.loads(bench_file.read_text())
        for suite in data["suites"].values():
            suite["counters"]["poisoned"] = True
        changed = tmp_path / "BENCH_wl.json"
        changed.write_text(json.dumps(data))
        code = main(["perf", "compare", str(bench_file), str(changed)])
        assert code == 2
        assert "no suite was actually gated" in capsys.readouterr().err

    def test_run_warns_before_mode_clobber(
        self, tmp_path, quick_results, capsys
    ):
        """Quick run over an existing full report warns about the clobber."""
        out = tmp_path / "BENCH_5.json"
        save_report(out, report_dict(quick_results, quick=False))
        code = main(
            ["perf", "run", "--quick", "--repeats", "1",
             "--suite", "executor", "--out", str(out)]
        )
        assert code == 0
        assert "warning: overwriting" in capsys.readouterr().err
        assert load_report(out)["quick"] is True

    def test_history_renders_trajectory(self, bench_file, tmp_path, capsys):
        second = tmp_path / "BENCH_2.json"
        second.write_text(bench_file.read_text())
        code = main(["perf", "history", "--dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_1.json" in out and "BENCH_2.json" in out
        assert "executor" in out

    def test_history_empty_dir_exit_2(self, tmp_path, capsys):
        assert main(["perf", "history", "--dir", str(tmp_path)]) == 2
        assert "no BENCH" in capsys.readouterr().err


class TestHistoryCollection:
    def test_numeric_ordering(self, bench_file, tmp_path):
        for n in (10, 2):
            (tmp_path / f"BENCH_{n}.json").write_text(bench_file.read_text())
        ordered = [name for name, _report in collect_history(None, tmp_path)]
        assert ordered == ["BENCH_1.json", "BENCH_2.json", "BENCH_10.json"]
        table = format_history(collect_history(None, tmp_path))
        assert table.count("BENCH_") == 3

    def test_explicit_files_keep_order(self, bench_file):
        history = collect_history([bench_file, bench_file])
        assert [name for name, _r in history] == ["BENCH_1.json"] * 2


class TestOptimizationEquivalence:
    """The hot-path optimizations must not change a single number."""

    def test_block_cost_memo_equivalence(self, s27):
        from repro.tech.synthesis import block_cost_memo_disabled, synthesize

        memoized = synthesize(s27)
        with block_cost_memo_disabled():
            baseline = synthesize(s27)
            gates = [g.name for g in s27.logic_gates]
            assert memoized.total_dynamic_energy_j == (
                baseline.total_dynamic_energy_j
            )
            assert memoized.static_energy_j() == baseline.static_energy_j()
            for i in range(1, len(gates) + 1):
                block = gates[:i]
                assert memoized.block_energy_j(block) == (
                    baseline.block_energy_j(block)
                )
                assert memoized.block_critical_path_s(block) == (
                    baseline.block_critical_path_s(block)
                )

    def test_repeated_costing_identical(self, s27):
        from repro.tech.synthesis import synthesize

        report = synthesize(s27)
        gates = [g.name for g in s27.logic_gates][:5]
        first = report.block_energy_j(gates)
        assert all(
            report.block_energy_j(gates) == first for _ in range(3)
        )

    def test_execution_results_identical(self):
        """Cached and fully-uncached pipelines agree field-for-field."""
        from repro.evaluation import evaluate_circuit
        from repro.perf.baseline import hot_path_caches_disabled

        cached = evaluate_circuit("s298")
        with hot_path_caches_disabled():
            baseline = evaluate_circuit("s298")
        assert set(cached.results) == set(baseline.results)
        for scheme, result in cached.results.items():
            assert result == baseline.results[scheme], scheme

    def test_netlist_topo_cache_tracks_growth(self, tiny_chain):
        """The cached order invalidates when the netlist grows."""
        from repro.circuits import GateType

        first = [g.name for g in tiny_chain.topological_order()]
        assert [g.name for g in tiny_chain.topological_order()] == first
        tiny_chain.add_gate("c", GateType.NOT, ["b"])
        grown = [g.name for g in tiny_chain.topological_order()]
        assert "c" in grown and len(grown) == len(first) + 1

    def test_netlist_fanout_cache_tracks_growth(self, tiny_chain):
        from repro.circuits import GateType

        assert tiny_chain.fanout_map()["a"] == ("b",)
        tiny_chain.add_gate("d", GateType.NOT, ["a"])
        assert tiny_chain.fanout_map()["a"] == ("b", "d")

    def test_trace_fast_path_matches_binary_search(self):
        """segment_at's last-index shortcut agrees with _index_at.

        The binary search is the oracle: whatever warm state
        ``_last_idx`` is in, the fast path must return exactly the
        segment and remainder the search-based formula produces.
        """
        import math

        from repro.energy.scenarios import resolve_scenario

        trace = resolve_scenario("paper-fig5").build()
        rng = random.Random(11)
        times = [rng.uniform(0.0, 5.0 * trace.period_s) for _ in range(400)]
        # Monotone queries (the executor's pattern) to warm the cache,
        # then random-order queries to force stale-hint misses.
        for t in sorted(times) + times:
            seg, remaining = trace.segment_at(t)
            local = math.fmod(t, trace.period_s)
            idx = trace._index_at(local)
            assert seg is trace.segments[idx]
            expected = trace._starts[idx] + seg.duration_s - local
            assert remaining == max(expected, 1e-15)


class TestSweepStatsDerived:
    def test_cache_hit_ratio_bounds(self):
        from repro.dse.engine import SweepStats

        assert SweepStats().cache_hit_ratio == 0.0
        cold = SweepStats(n_batches=4, synthesize_calls=4)
        assert cold.cache_hit_ratio == 0.0
        warm = SweepStats(n_batches=4, synthesize_calls=1)
        assert warm.cache_hit_ratio == pytest.approx(0.75)
        assert SweepStats(n_batches=2, synthesize_calls=5).cache_hit_ratio == 0.0

    def test_evals_per_s(self):
        from repro.dse.engine import SweepStats

        assert SweepStats().evals_per_s == 0.0
        stats = SweepStats(n_evaluated=10, wall_s=2.0)
        assert stats.evals_per_s == pytest.approx(5.0)
