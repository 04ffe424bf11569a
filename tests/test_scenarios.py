"""Tests for the harvest-scenario subsystem and its DSE wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dse import (
    DesignPoint,
    evaluate_point,
    JsonlResultStore,
    record_from_dict,
    record_to_dict,
    SweepEngine,
    SweepRequest,
    SweepSpec,
    SynthesisCache,
)
from repro.energy.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    build_scenario_trace,
    get_scenario,
    list_scenarios,
    load_power_log,
    resample_trace,
    resolve_scenario,
    scenario_from_file,
)
from repro.metrics import best_robust, format_robustness, robustness_report
from repro.suite import load_circuit

STOCHASTIC = [s.name for s in list_scenarios() if s.kind == "stochastic"]
DETERMINISTIC = [
    s.name for s in list_scenarios() if s.kind == "deterministic"
]


def trace_fingerprint(trace):
    return [(s.duration_s, s.power_w) for s in trace.segments]


class TestRegistry:
    def test_roster_size(self):
        assert len(SCENARIOS) >= 6
        assert len(STOCHASTIC) >= 3
        assert "paper-fig5" in SCENARIOS

    def test_unknown_name_lists_roster(self):
        with pytest.raises(KeyError, match="paper-fig5"):
            get_scenario("no-such-environment")
        with pytest.raises(KeyError, match="registered"):
            resolve_scenario("no-such-environment")

    def test_every_scenario_builds_a_viable_relative_trace(self):
        for scenario in list_scenarios():
            trace = scenario.build()
            assert trace.period_s > 0
            assert trace.mean_power_w > 0.2, scenario.name
            assert all(s.power_w >= 0 for s in trace.segments)

    def test_paper_fig5_matches_the_evaluation_trace(self):
        from repro.energy.traces import evaluation_trace

        built = build_scenario_trace(ScenarioSpec(), 2e-6, 0.5)
        reference = evaluation_trace(2e-6, 0.5)
        assert trace_fingerprint(built) == trace_fingerprint(reference)


class TestDeterminism:
    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_same_seed_identical_trace(self, name):
        scenario = get_scenario(name)
        a = scenario.build(1.0, 1.0, seed=42)
        b = scenario.build(1.0, 1.0, seed=42)
        assert trace_fingerprint(a) == trace_fingerprint(b)

    @pytest.mark.parametrize("name", STOCHASTIC)
    def test_different_seed_different_trace(self, name):
        scenario = get_scenario(name)
        a = scenario.build(1.0, 1.0, seed=1)
        b = scenario.build(1.0, 1.0, seed=2)
        assert trace_fingerprint(a) != trace_fingerprint(b)

    def test_scale_references_scale_the_trace(self):
        scenario = get_scenario("rf-markov")
        base = scenario.build(1.0, 1.0, seed=5)
        scaled = scenario.build(3.0, 2.0, seed=5)
        assert trace_fingerprint(scaled) == [
            (d * 2.0, p * 3.0) for d, p in trace_fingerprint(base)
        ]


class TestScenarioSpec:
    def test_parse_forms(self):
        assert ScenarioSpec.parse("rf-markov") == ScenarioSpec("rf-markov")
        assert ScenarioSpec.parse("rf-markov@7") == ScenarioSpec(
            "rf-markov", seed=7
        )
        assert ScenarioSpec.parse("office-solar@0@0.5") == ScenarioSpec(
            "office-solar", seed=0, scale=0.5
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec.parse("rf-markov@x")
        with pytest.raises(ValueError, match="components"):
            ScenarioSpec.parse("a@1@2@3")
        with pytest.raises(ValueError, match="positive"):
            ScenarioSpec.parse("rf-markov@0@-1")

    def test_label_forms(self):
        assert ScenarioSpec("office-solar").label() == "office-solar"
        assert ScenarioSpec("rf-markov", seed=7).label() == "rf-markov@7"
        assert (
            ScenarioSpec("rf-markov", seed=7, scale=0.5).label()
            == "rf-markov@7x0.5"
        )
        assert (
            ScenarioSpec("office-solar", scale=0.5).label()
            == "office-solar@0x0.5"
        )

    def test_every_label_roundtrips_through_parse(self):
        for spec in (
            ScenarioSpec("office-solar"),
            ScenarioSpec("kinetic-shot", seed=3),
            ScenarioSpec("office-solar", scale=0.5),
            ScenarioSpec("rf-markov", seed=7, scale=2.0),
            # repr rendering keeps full float precision in the label.
            ScenarioSpec("rf-markov", scale=0.123456789),
        ):
            assert ScenarioSpec.parse(spec.label()) == spec

    def test_scale_applies_to_built_trace(self):
        full = build_scenario_trace(ScenarioSpec("office-solar"))
        half = build_scenario_trace(
            ScenarioSpec("office-solar", scale=0.5)
        )
        assert half.mean_power_w == pytest.approx(0.5 * full.mean_power_w)
        assert half.name == "office-solar@0x0.5"


class TestIngestion:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "time_s,power_w\n0.0,1e-6\n1.0,3e-6\n2.5,0.0\n4.0,2e-6\n"
        )
        trace = load_power_log(path)
        assert len(trace.segments) == 4
        assert trace.segments[0].duration_s == pytest.approx(1.0)
        assert trace.segments[0].power_w == pytest.approx(1e-6)
        assert trace.segments[1].duration_s == pytest.approx(1.5)
        # Final sample holds for the mean inter-sample interval.
        assert trace.segments[3].duration_s == pytest.approx(4.0 / 3.0)
        assert trace.name == "log"

    def test_csv_header_after_comments(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text(
            "# measured at site A\n# probe: INA219\n"
            "time_s,power_w\n0.0,1e-6\n1.0,3e-6\n2.0,0.0\n"
        )
        trace = load_power_log(path)
        assert len(trace.segments) == 3
        assert trace.segments[0].power_w == pytest.approx(1e-6)

    def test_csv_rejects_second_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,power_w\n0.0,1e-6\noops,1e-6\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_power_log(path)

    def test_csv_rejects_unsorted_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1e-6\n2.0,1e-6\n1.0,1e-6\n")
        with pytest.raises(ValueError, match="increasing"):
            load_power_log(path)

    def test_csv_clamps_negative_noise(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("0.0,-1e-9\n1.0,2e-6\n2.0,1e-6\n")
        trace = load_power_log(path)
        assert trace.segments[0].power_w == 0.0

    def test_jsonl_duration_form(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rows = [
            {"duration_s": 0.5, "power_w": 2e-6},
            {"duration_s": 1.5, "power_w": 0.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        trace = load_power_log(path)
        assert trace_fingerprint(trace) == [(0.5, 2e-6), (1.5, 0.0)]

    def test_jsonl_timestamp_form(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rows = [
            {"time_s": 0.0, "power_w": 1e-6},
            {"time_s": 2.0, "power_w": 3e-6},
            {"time_s": 3.0, "power_w": 0.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        trace = load_power_log(path)
        assert trace.segments[0].duration_s == pytest.approx(2.0)

    def test_jsonl_rejects_mixed_forms(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        rows = [
            {"time_s": 1000.0, "power_w": 1e-6},
            {"time_s": 1001.0, "power_w": 2e-6},
            {"duration_s": 0.5, "power_w": 0.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="mixes"):
            load_power_log(path)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("0,1\n")
        with pytest.raises(ValueError, match="unsupported"):
            load_power_log(path)

    def test_resample_conserves_energy(self):
        trace = get_scenario("rf-markov").build(1.0, 1.0, seed=9)
        resampled = resample_trace(trace, 16)
        assert len(resampled.segments) == 16
        assert resampled.period_s == pytest.approx(trace.period_s)
        assert resampled.cycle_energy_j == pytest.approx(
            trace.cycle_energy_j
        )

    def test_resample_noop_below_limit(self):
        trace = get_scenario("office-solar").build()
        assert resample_trace(trace, 100) is trace

    def test_scenario_from_file_normalizes(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("0.0,4e-6\n1.0,8e-6\n2.0,2e-6\n3.0,0.0\n")
        scenario = scenario_from_file(path)
        assert scenario.kind == "trace"
        relative = scenario.build()
        assert relative.peak_power_w == pytest.approx(1.0)  # peak -> p_ref
        assert relative.period_s == pytest.approx(len(relative.segments))
        scaled = scenario.build(10e-6, 2.0, seed=0)
        assert scaled.peak_power_w == pytest.approx(10e-6)

    def test_resolve_scenario_accepts_trace_files(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("0.0,4e-6\n1.0,8e-6\n2.0,2e-6\n")
        scenario = resolve_scenario(str(path))
        assert scenario.kind == "trace"


class TestDseWiring:
    @pytest.fixture(scope="class")
    def netlist(self):
        return load_circuit("s27")

    def test_evaluate_point_records_scenario(self, netlist):
        spec = ScenarioSpec("rf-markov", seed=7)
        record = evaluate_point(
            netlist, DesignPoint(), scenario=spec
        )
        assert record.scenario == spec
        assert spec.identity() == ("rf-markov", 7, 1.0)
        assert set(spec.identity()).issubset(set(record.key()))

    def test_scenario_changes_outcome_not_synthesis(self, netlist):
        cache = SynthesisCache()
        base = evaluate_point(netlist, DesignPoint(), cache=cache)
        other = evaluate_point(
            netlist,
            DesignPoint(),
            cache=cache,
            scenario=ScenarioSpec("kinetic-shot", seed=3),
        )
        assert cache.synthesize_calls == 1  # environment reuses the stage
        assert base.n_barriers == other.n_barriers  # same design
        assert base.pdp_js != other.pdp_js  # different environment

    def test_seeded_evaluation_is_reproducible(self, netlist):
        spec = ScenarioSpec("solar-cloudy", seed=11)
        a = evaluate_point(netlist, DesignPoint(), scenario=spec)
        b = evaluate_point(netlist, DesignPoint(), scenario=spec)
        assert a.pdp_js == b.pdp_js
        assert a.n_backups == b.n_backups

    def test_sweep_engine_scenario_axis(self, tmp_path):
        path = tmp_path / "results.jsonl"
        spec = SweepSpec(
            circuits=("s27",),
            policies=(3,),
            budget_scales=(1.0,),
            safe_zones=(True,),
            scenarios=(
                ScenarioSpec(),
                ScenarioSpec("rf-markov", seed=7),
            ),
        )
        assert len(spec) == 2
        result = SweepEngine(
            workers=1, store=JsonlResultStore(path)
        ).submit(SweepRequest(spec=spec))
        assert result.stats.n_evaluated == 2
        assert result.stats.synthesize_calls == 1
        labels = {r.scenario.label() for r in result.records}
        assert labels == {"paper-fig5", "rf-markov@7"}

        # The store recorded the axis and resume honors it per scenario.
        on_disk = JsonlResultStore(path).load()
        assert {r.scenario.label() for r in on_disk} == labels
        again = SweepEngine(
            workers=1, store=JsonlResultStore(path)
        ).submit(SweepRequest(spec=spec, resume=True))
        assert again.stats.n_resumed == 2
        assert again.stats.n_evaluated == 0

    def test_unresolvable_scenario_is_a_failure_not_a_crash(self, tmp_path):
        gone = tmp_path / "gone.csv"  # never written
        spec = SweepSpec(
            circuits=("s27",),
            policies=(3,),
            budget_scales=(1.0,),
            safe_zones=(True,),
            scenarios=(ScenarioSpec(), ScenarioSpec(name=str(gone))),
        )
        result = SweepEngine(workers=1).submit(SweepRequest(spec=spec))
        assert len(result.records) == 1
        assert len(result.failures) == 1
        assert result.failures[0].scenario == str(gone)
        assert "unknown scenario" in result.failures[0].error

    def test_scenario_survives_store_roundtrip(self, netlist):
        spec = ScenarioSpec("kinetic-shot", seed=5, scale=0.8)
        record = evaluate_point(netlist, DesignPoint(), scenario=spec)
        rebuilt = record_from_dict(record_to_dict(record))
        assert rebuilt.scenario == spec
        assert rebuilt.key() == record.key()

    def test_legacy_store_lines_default_to_paper_fig5(self, netlist):
        record = evaluate_point(netlist, DesignPoint())
        data = record_to_dict(record)
        del data["scenario"]  # a line written before the scenario axis
        rebuilt = record_from_dict(data)
        assert rebuilt.scenario == ScenarioSpec()

    def test_by_scenario_grouping(self):
        spec = SweepSpec(
            circuits=("s27",),
            policies=(3,),
            budget_scales=(0.5, 1.0),
            safe_zones=(True,),
            scenarios=(ScenarioSpec(), ScenarioSpec("office-solar")),
        )
        result = SweepEngine(workers=1).submit(SweepRequest(spec=spec))
        groups = result.by_scenario()
        assert set(groups) == {
            ("paper-fig5", "s27"),
            ("office-solar", "s27"),
        }
        assert all(len(records) == 2 for records in groups.values())
        fronts = result.fronts_by_scenario()
        assert set(fronts) == set(groups)
        best = result.best_by_scenario()
        for key, record in best.items():
            assert record.pdp_js == min(r.pdp_js for r in groups[key])
        # Cross-scenario aggregates are guarded: PDP is not comparable
        # across environments.
        with pytest.raises(ValueError, match="best_by_scenario"):
            result.best()
        with pytest.raises(ValueError, match="fronts_by_scenario"):
            result.front()


class TestRobustness:
    @pytest.fixture(scope="class")
    def cross_scenario_records(self):
        spec = SweepSpec(
            circuits=("s27",),
            policies=(1, 3),
            budget_scales=(1.0,),
            safe_zones=(True,),
            scenarios=(
                ScenarioSpec(),
                ScenarioSpec("rf-proximity"),
                ScenarioSpec("rf-markov", seed=7),
            ),
        )
        return SweepEngine(workers=1).submit(SweepRequest(spec=spec)).records

    def test_normalization_per_scenario(self, cross_scenario_records):
        entries = robustness_report(cross_scenario_records)
        assert len(entries) == 2  # one per design point
        for entry in entries:
            assert entry.coverage == 3
            assert min(entry.degradation.values()) >= 1.0
            assert entry.worst == max(entry.degradation.values())
        # Every scenario has exactly one winner at 1.0.
        for label in ("paper-fig5", "rf-proximity", "rf-markov@7"):
            winners = [
                e for e in entries
                if e.degradation[label] == pytest.approx(1.0)
            ]
            assert winners

    def test_zero_best_pdp_keeps_the_winner_at_one(self):
        # A degenerate (scenario, circuit) pair whose best PDP is 0 used
        # to map EVERY design to inf — including the winner itself.  The
        # winner must stay at 1.0 by definition; only the losers are
        # incomparably worse.
        from repro.dse import ExplorationRecord

        def record(pdp, policy):
            return ExplorationRecord(
                point=DesignPoint(policy=policy),
                pdp_js=pdp,
                energy_j=1.0,
                active_time_s=1.0,
                n_backups=1,
                reexec_energy_j=1.0,
                n_barriers=1,
                circuit="s27",
            )

        entries = robustness_report([record(0.0, 1), record(2.0, 2)])
        by_label = {e.label: e for e in entries}
        winner = by_label[DesignPoint(policy=1).label()]
        loser = by_label[DesignPoint(policy=2).label()]
        assert winner.degradation["paper-fig5"] == 1.0
        assert winner.worst == 1.0
        assert loser.degradation["paper-fig5"] == float("inf")
        # And the ranking still prefers the winner.
        assert entries[0] is winner

    def test_best_robust_minimizes_worst_case(self, cross_scenario_records):
        entries = robustness_report(cross_scenario_records)
        top = best_robust(cross_scenario_records)
        assert top.worst == min(e.worst for e in entries)

    def test_best_robust_empty(self):
        with pytest.raises(ValueError, match="no records"):
            best_robust([])

    def test_format_robustness_table(self, cross_scenario_records):
        text = format_robustness(robustness_report(cross_scenario_records))
        assert "worst" in text
        assert "paper-fig5" in text
        assert "rf-markov@7" in text


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_scenarios_show(self, capsys):
        assert main(["scenarios", "show", "rf-markov", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "rf-markov@7" in out
        assert "mean" in out

    def test_scenarios_show_segments(self, capsys):
        assert main(
            ["scenarios", "show", "office-solar", "--segments"]
        ) == 0
        assert "t_ref @" in capsys.readouterr().out

    def test_scenarios_plot(self, capsys):
        assert main(
            ["scenarios", "plot", "indoor-lighting", "--width", "60"]
        ) == 0
        assert "*" in capsys.readouterr().out

    def test_scenarios_show_accepts_spec_form(self, capsys):
        assert main(["scenarios", "show", "rf-markov@7@0.5"]) == 0
        assert "rf-markov@7x0.5" in capsys.readouterr().out

    def test_scenarios_show_flags_override_spec_form(self, capsys):
        assert main(
            ["scenarios", "show", "rf-markov@7", "--seed", "9"]
        ) == 0
        assert "rf-markov@9" in capsys.readouterr().out
        # An explicit default-valued flag overrides too.
        assert main(
            ["scenarios", "show", "rf-markov@7", "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "rf-markov " in out or out.startswith("rf-markov (")

    def test_scenarios_show_unknown(self):
        with pytest.raises(SystemExit, match="registered"):
            main(["scenarios", "show", "nope"])
        with pytest.raises(SystemExit, match="registered"):
            main(["scenarios", "show", "nope@3"])

    def test_sweep_scenario_axis(self, capsys, tmp_path):
        path = tmp_path / "results.jsonl"
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales", "1.0",
            "--safe-zone", "on",
            "--scenario", "paper-fig5", "rf-markov@7",
            "--results", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[paper-fig5 · s27] pareto front" in out
        assert "[rf-markov@7 · s27] pareto front" in out
        assert "robust best:" in out
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        names = {json.loads(line)["scenario"]["name"] for line in lines}
        assert names == {"paper-fig5", "rf-markov"}

    def test_sweep_duplicate_specs_skip_robustness(self, capsys):
        # 'rf-markov@7' and 'rf-markov@7@1.0' name the same environment;
        # a single-environment "robustness" table would be meaningless.
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales", "1.0",
            "--safe-zone", "on",
            "--scenario", "rf-markov@7", "rf-markov@7@1.0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "robust best:" not in out

    def test_sweep_accepts_log_path_containing_at(self, capsys, tmp_path):
        log = tmp_path / "site@3.csv"
        log.write_text("0.0,1e-6\n1.0,3e-6\n2.0,2e-6\n")
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales", "1.0",
            "--safe-zone", "on", "--scenario", str(log),
        ])
        assert code == 0
        assert "site@3" in capsys.readouterr().out

    def test_sweep_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit, match="registered"):
            main(["sweep", "s27", "--scenario", "nope"])

    def test_sweep_accepts_trace_file_scenario(self, capsys, tmp_path):
        log = tmp_path / "field.csv"
        log.write_text(
            "\n".join(
                f"{i * 0.5},{p}"
                for i, p in enumerate(
                    [4e-6, 8e-6, 1e-6, 0.0, 6e-6, 7e-6, 0.0, 5e-6]
                )
            )
            + "\n"
        )
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales", "1.0",
            "--safe-zone", "on", "--scenario", str(log),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "field.csv · s27] pareto front" in out
