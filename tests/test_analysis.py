"""Tests for the static-analysis subsystem (repro.analysis).

The load-bearing contract is *soundness* (see docs/analysis.md): for
every run the simulator completes, each interval brackets the simulated
quantity, and every INFEASIBLE verdict corresponds to a run the
simulator refuses.  The differential tests here pin that contract over
the real roster, the scenario axis and all four scheme profiles; the
hypothesis tests extend it to generated circuits and randomized
environments; the parity tests pin that ``analysis_prune`` never
changes what a sweep records.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    LINT_RULES,
    Interval,
    StaticScreener,
    Verdict,
    assess_point,
    assess_run,
    bounds_for_point,
    bounds_for_run,
    filter_findings,
    lint_netlist,
    lint_plan,
    lint_thresholds,
)
from repro.analysis.lint import classify_netlist_error
from repro.baselines.schemes import all_profiles
from repro.circuits import CircuitSpec, generate_circuit
from repro.circuits.netlist import Gate, GateType, Netlist
from repro.circuits.validate import EquivalenceError, check_equivalent
from repro.cli import main
from repro.core import DiacSynthesizer
from repro.core.diac import DiacConfig
from repro.dse import (
    DesignPoint,
    DesignSpace,
    SweepEngine,
    SweepRequest,
    SweepSpec,
)
from repro.dse.engine import PRUNED
from repro.dse.explorer import SynthesisCache, evaluate_point, prepare_point
from repro.dse.strategies import SuccessiveHalvingStrategy
from repro.energy.scenarios import ScenarioSpec
from repro.evaluation import build_environment
from repro.sim.intermittent import IntermittentExecutor, TraceTooWeakError
from repro.suite import load_circuit


def bracket_fields(bounds, result) -> dict[str, bool]:
    """Which result quantities the bounds bracket (all must be True)."""
    return {
        "energy": bounds.energy_j.contains(result.total_energy_j),
        "active": bounds.active_time_s.contains(result.active_time_s),
        "wall": bounds.wall_time_s.contains(result.wall_time_s),
        "pdp": bounds.pdp_js.contains(result.pdp_js),
        "backups": bounds.n_backups.contains(float(result.n_backups)),
    }


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_contains_with_tolerance(self):
        box = Interval(1.0, 2.0)
        assert box.contains(1.0)
        assert box.contains(2.0 * (1.0 + 1e-12))
        assert not box.contains(2.1)
        assert not box.contains(0.9)
        assert box.width == pytest.approx(1.0)


class TestBracketing:
    """lower <= simulated <= upper, over roster x scenarios x schemes."""

    @pytest.mark.parametrize("circuit", ["s27", "s298", "s838"])
    @pytest.mark.parametrize("scenario", ["paper-fig5", "rf-markov"])
    def test_all_schemes_bracket(self, circuit, scenario):
        design = DiacSynthesizer().run(load_circuit(circuit))
        env = build_environment(
            design, scenario=ScenarioSpec(name=scenario)
        )
        for profile in all_profiles(design):
            work = env.n_passes * profile.pass_energy_j
            kwargs = dict(
                e_max_j=env.e_max_j,
                trace=env.trace,
                thresholds=env.thresholds,
                sleep_drain_w=env.sleep_drain_w,
            )
            result = IntermittentExecutor(profile, **kwargs).run(
                work_target_j=work
            )
            bounds = bounds_for_run(
                profile, work_target_j=work, **kwargs
            )
            assert result.completed
            checks = bracket_fields(bounds, result)
            assert all(checks.values()), (circuit, profile.name, checks)
            # A completed run can never have been called infeasible.
            report = assess_run(bounds)
            assert report.verdict is not Verdict.INFEASIBLE

    def test_bounds_for_point_matches_evaluate_point(self, s27):
        cache = SynthesisCache()
        for policy in (1, 2, 3):
            for budget in (0.5, 2.0):
                point = DesignPoint(policy=policy, budget_scale=budget)
                record = evaluate_point(s27, point, cache=cache)
                bounds = bounds_for_point(s27, point, cache=cache)
                assert bounds.energy_j.contains(record.energy_j)
                assert bounds.active_time_s.contains(record.active_time_s)
                assert bounds.pdp_js.contains(record.pdp_js)
                assert bounds.n_backups.contains(float(record.n_backups))


class TestInfeasibleSoundness:
    """Every INFEASIBLE verdict corresponds to a simulator raise."""

    @pytest.mark.parametrize("scale", [0.001, 0.002, 0.005])
    def test_infeasible_points_raise(self, s27, scale):
        scenario = ScenarioSpec(scale=scale)
        cache = SynthesisCache()
        verdicts = []
        for policy in (1, 3):
            point = DesignPoint(policy=policy)
            report = assess_point(
                s27, point, cache=cache, scenario=scenario
            )
            verdicts.append(report.verdict)
            if report.verdict is Verdict.INFEASIBLE:
                assert report.reason
                prepared = prepare_point(
                    s27, point, cache=cache, scenario=scenario
                )
                env = prepared.environment
                executor = IntermittentExecutor(
                    prepared.profile,
                    e_max_j=env.e_max_j,
                    trace=env.trace,
                    thresholds=env.thresholds,
                    sleep_drain_w=env.sleep_drain_w,
                )
                with pytest.raises(TraceTooWeakError):
                    executor.run(work_target_j=prepared.work_target_j)
        # The weakest scale must actually exercise the INFEASIBLE path.
        if scale <= 0.002:
            assert Verdict.INFEASIBLE in verdicts

    def test_preparation_error_is_unknown(self, s27):
        # threshold_scale high enough to push Th_Cp past the capacitor:
        # preparation raises, so the verdict must stay UNKNOWN and the
        # canonical failure must come from the simulation path.
        report = assess_point(
            s27, DesignPoint(threshold_scale=50.0)
        )
        assert report.verdict is Verdict.UNKNOWN
        assert "static preparation failed" in report.reason

    def test_dominated_requires_reference(self, s27):
        bounds = bounds_for_point(s27, DesignPoint())
        assert assess_run(bounds).verdict is Verdict.UNKNOWN
        dominated = assess_run(
            bounds, reference_pdp_js=bounds.pdp_js.lo / 2.0
        )
        assert dominated.verdict is Verdict.DOMINATED


class TestPruneParity:
    """analysis_prune never changes the records a sweep produces."""

    @pytest.fixture(scope="class")
    def runs(self):
        spec = SweepSpec(
            circuits=("s27",),
            policies=(1, 3),
            budget_scales=(0.5, 1.0),
            scenarios=(ScenarioSpec(scale=0.002), ScenarioSpec()),
        )
        netlists = {"s27": load_circuit("s27")}
        clean = SweepEngine(workers=1).submit(
            SweepRequest(spec=spec),
            netlists=netlists
        )
        pruned = SweepEngine(workers=1).submit(
            SweepRequest(spec=spec, analysis_prune=True),
            netlists=netlists
        )
        return clean, pruned

    def test_pruning_fires(self, runs):
        _clean, pruned = runs
        assert pruned.stats.n_pruned > 0
        marks = [f for f in pruned.failures if f.kind == PRUNED]
        assert len(marks) == pruned.stats.n_pruned
        assert all(f.attempts == 0 for f in marks)
        assert all(f.error for f in marks)

    def test_records_bit_identical(self, runs):
        clean, pruned = runs

        def keyed(result):
            return {
                (r.circuit, r.scenario.label(), r.point.label()): r
                for r in result.records
            }

        clean_records, pruned_records = keyed(clean), keyed(pruned)
        assert set(clean_records) == set(pruned_records)
        for key, record in clean_records.items():
            assert record == pruned_records[key]

    def test_pruned_points_fail_in_clean_run(self, runs):
        clean, pruned = runs

        def failure_keys(result, kinds):
            return {
                (f.circuit, f.scenario, f.label)
                for f in result.failures
                if f.kind in kinds
            }

        pruned_keys = failure_keys(pruned, {PRUNED})
        clean_failed = failure_keys(
            clean, {"terminal", "transient", "unexpected"}
        )
        assert pruned_keys <= clean_failed
        # Nothing that completed cleanly was pruned.
        completed = {
            (r.circuit, r.scenario.label(), r.point.label())
            for r in clean.records
        }
        assert not pruned_keys & completed


# ---------------------------------------------------------------------------
# Hypothesis: the contract holds beyond the roster.
# ---------------------------------------------------------------------------

circuit_specs = st.builds(
    CircuitSpec,
    name=st.just("hyp"),
    n_gates=st.integers(min_value=5, max_value=60),
    ff_fraction=st.floats(min_value=0.0, max_value=0.4),
    style=st.sampled_from(["logic", "pld", "fsm"]),
)


@settings(max_examples=10, deadline=None)
@given(spec=circuit_specs, policy=st.sampled_from([1, 2, 3]))
def test_generated_circuits_bracket(spec, policy):
    netlist = generate_circuit(spec)
    point = DesignPoint(policy=policy)
    record = evaluate_point(netlist, point)
    bounds = bounds_for_point(netlist, point)
    assert bounds.energy_j.contains(record.energy_j)
    assert bounds.active_time_s.contains(record.active_time_s)
    assert bounds.pdp_js.contains(record.pdp_js)
    assert bounds.n_backups.contains(float(record.n_backups))


@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(min_value=0.001, max_value=2.0),
    scheme_index=st.integers(min_value=0, max_value=3),
    work_multiplier=st.floats(min_value=0.1, max_value=3.0),
)
def test_randomized_environment_contract(
    shared_design, scale, scheme_index, work_multiplier
):
    """Completed runs bracket; INFEASIBLE verdicts raise.  Both ways."""
    profile = all_profiles(shared_design)[scheme_index]
    env = build_environment(
        shared_design, scenario=ScenarioSpec(scale=scale)
    )
    work = work_multiplier * env.n_passes * profile.pass_energy_j
    kwargs = dict(
        e_max_j=env.e_max_j,
        trace=env.trace,
        thresholds=env.thresholds,
        sleep_drain_w=env.sleep_drain_w,
    )
    bounds = bounds_for_run(profile, work_target_j=work, **kwargs)
    verdict = assess_run(bounds).verdict
    try:
        result = IntermittentExecutor(profile, **kwargs).run(
            work_target_j=work
        )
    except TraceTooWeakError:
        return  # UNKNOWN may still fail at runtime; that is allowed.
    checks = bracket_fields(bounds, result)
    assert all(checks.values()), (profile.name, scale, checks)
    assert verdict is not Verdict.INFEASIBLE


@pytest.fixture(scope="session")
def shared_design(s27):
    return DiacSynthesizer().run(s27)


# ---------------------------------------------------------------------------
# Lint.
# ---------------------------------------------------------------------------


class TestLintRules:
    def test_registry_is_consistent(self):
        for rule_id, rule in LINT_RULES.items():
            assert rule.rule_id == rule_id
            assert rule.severity in ("error", "warning")
            assert rule.summary

    def test_filter_findings_prefixes(self):
        findings = [
            classify_netlist_error(ValueError("x"), source=s)
            for s in ("a", "b")
        ]
        n4 = lint_netlist(
            Netlist(
                name="dead",
                gates={
                    "a": Gate("a", GateType.INPUT),
                    "y": Gate("y", GateType.NOT, ("a",)),
                    "dead1": Gate("dead1", GateType.NOT, ("a",)),
                },
                outputs=["y"],
            )
        )
        pool = findings + n4
        assert filter_findings(pool, select=["N00"]) == pool
        assert filter_findings(pool, select=["N004"]) == n4
        assert filter_findings(pool, ignore=["N"]) == []
        assert filter_findings(pool, select=["N"], ignore=["N004"]) == findings

    def test_classify_netlist_error(self):
        cases = {
            "combinational cycle in x involving y": "N001",
            "gate 'g' reads undriven net 'z'": "N002",
            "primary output 'q' is undriven": "N003",
            "net 'n' already driven": "N005",
            "NOT requires exactly 1 input(s), got 2": "N006",
            "unparseable garbage": "N007",
        }
        for text, expected in cases.items():
            finding = classify_netlist_error(ValueError(text), source="f")
            assert finding.rule_id == expected
            assert finding.source == "f"
        rendered = classify_netlist_error(ValueError("boom"), "c").render()
        assert rendered == "c: N007 error: boom"

    def test_lint_netlist_structural_rules(self):
        floating = Netlist(
            name="float",
            gates={
                "a": Gate("a", GateType.INPUT),
                "y": Gate("y", GateType.AND, ("a", "ghost")),
            },
            outputs=["y", "ghost_out"],
        )
        findings = lint_netlist(floating)
        ids = {f.rule_id for f in findings}
        assert ids == {"N002", "N003"}

    def test_lint_netlist_clean_roster_circuit(self, s27):
        findings = lint_netlist(s27)
        assert all(f.severity == "warning" for f in findings)

    def test_lint_plan_real_design(self, s27):
        prepared = prepare_point(s27, DesignPoint())
        findings = lint_plan(
            prepared.design.plan,
            thresholds=prepared.environment.thresholds,
        )
        assert all(f.severity == "warning" for f in findings)

    def test_lint_thresholds_inverted_and_oversized(self):
        findings = lint_thresholds(
            {
                "off": 0.003,
                "backup": 0.0015,
                "safe": 0.002,
                "sense": 0.004,
                "compute": 0.005,
                "transmit": 0.012,
                "e_max": 0.01,
            },
            source="bad.json",
        )
        ids = {f.rule_id for f in findings}
        assert "C001" in ids
        assert "C002" in ids
        assert all(f.source == "bad.json" for f in findings)

    def test_lint_thresholds_accepts_threshold_set(self, s27):
        prepared = prepare_point(s27, DesignPoint())
        findings = lint_thresholds(prepared.environment.thresholds)
        assert [f for f in findings if f.severity == "error"] == []

    def test_lint_thresholds_nonpositive(self):
        findings = lint_thresholds({"off": 0.0})
        assert any(f.rule_id == "C003" for f in findings)


class TestLintCli:
    @pytest.fixture()
    def corpus(self, tmp_path):
        (tmp_path / "cycle.bench").write_text(
            "INPUT(a)\nOUTPUT(y)\n"
            "w = NOT(x)\nx = NOT(w)\ny = AND(a, x)\n"
        )
        (tmp_path / "floating.bench").write_text(
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"
        )
        (tmp_path / "bad_thresholds.json").write_text(
            json.dumps(
                {
                    "off": 0.003,
                    "backup": 0.0015,
                    "safe": 0.002,
                    "sense": 0.004,
                    "compute": 0.005,
                    "transmit": 0.012,
                    "e_max": 0.01,
                }
            )
        )
        return tmp_path

    def test_broken_corpus_exits_nonzero(self, corpus, capsys):
        exit_code = main(
            [
                "lint",
                str(corpus / "cycle.bench"),
                str(corpus / "floating.bench"),
                str(corpus / "bad_thresholds.json"),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "N001" in out
        assert "N002" in out
        assert "C001" in out
        assert "C002" in out

    def test_roster_circuits_exit_zero(self, capsys):
        assert main(["lint", "s27", "s298"]) == 0
        assert main(["lint", "s27", "--deep"]) == 0
        capsys.readouterr()

    def test_ignore_silences_family(self, corpus, capsys):
        exit_code = main(
            ["lint", str(corpus / "cycle.bench"), "--ignore", "N"]
        )
        assert exit_code == 0
        assert "N001" not in capsys.readouterr().out

    def test_select_narrows(self, corpus, capsys):
        exit_code = main(
            [
                "lint",
                str(corpus / "bad_thresholds.json"),
                "--select",
                "C002",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "C002" in out
        assert "C001" not in out

    def test_rules_table(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in LINT_RULES:
            assert rule_id in out


# ---------------------------------------------------------------------------
# Screener and CLI pruning.
# ---------------------------------------------------------------------------


class TestStaticScreener:
    def test_screen_cuts_pool(self, s27):
        screener = StaticScreener(
            netlists={"s27": s27}, scenarios=(ScenarioSpec(),)
        )
        pool = [
            DesignPoint(policy=policy, budget_scale=budget)
            for policy in (1, 2, 3)
            for budget in (0.5, 1.0, 2.0)
        ]
        kept = screener.screen(pool)
        assert 2 <= len(kept) < len(pool)
        assert all(point in pool for point in kept)

    def test_min_keep_honored(self, s27):
        screener = StaticScreener(
            netlists={"s27": s27},
            scenarios=(ScenarioSpec(),),
            min_keep=2,
        )
        pool = [DesignPoint(), DesignPoint(policy=2)]
        assert screener.screen(pool) == pool

    def test_halving_with_screener_evaluates_fewer(self, s27):
        netlists = {"s27": s27}

        def run(screener=None):
            strategy = SuccessiveHalvingStrategy(
                DesignSpace(),
                pool=8,
                rounds=2,
                seed=1,
                screener=screener,
            )
            return SweepEngine(workers=1).submit(
                SweepRequest(
                    spec=SweepSpec(circuits=("s27",)),
                    strategy=strategy
                ),
                netlists=netlists
            )

        plain = run()
        screened = run(
            StaticScreener(netlists=netlists, scenarios=(ScenarioSpec(),))
        )
        assert screened.stats.n_evaluated < plain.stats.n_evaluated
        assert screened.records

    @pytest.mark.parametrize(
        "base_config", [None, DiacConfig(granularity="level")],
        ids=["default", "granularity-level"],
    )
    def test_halving_prune_synthesizes_each_stage_once(
        self, base_config, monkeypatch
    ):
        # The screen, the engine and the simulations share one cache
        # map per submission, under the engine's base_config.
        stages = []
        stage_for = SynthesisCache.stage_for

        def counting(cache, netlist, config):
            if cache.stage_key(netlist, config) not in cache._stages:
                stages.append((netlist.name, config.policy))
            return stage_for(cache, netlist, config)

        monkeypatch.setattr(SynthesisCache, "stage_for", counting)
        request = SweepRequest(
            spec=SweepSpec(circuits=("s27", "b02")),
            strategy="halving",
            samples=6,
            generations=2,
            search_seed=1,
            analysis_prune=True,
        )
        result = SweepEngine(base_config=base_config).submit(request)
        assert result.records
        assert stages and len(stages) == len(set(stages))
        assert result.stats.synthesize_calls == len(stages)


class TestCliPruneFlag:
    def test_grid_sweep_accepts_flag(self, capsys):
        exit_code = main(
            [
                "sweep",
                "s27",
                "--policies",
                "3",
                "--budget-scales",
                "1.0",
                "--analysis-prune",
            ]
        )
        assert exit_code == 0
        capsys.readouterr()

    def test_random_strategy_rejects_flag(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "s27",
                    "--strategy",
                    "random",
                    "--samples",
                    "2",
                    "--analysis-prune",
                ]
            )


# ---------------------------------------------------------------------------
# EquivalenceError structured counterexamples.
# ---------------------------------------------------------------------------


class TestEquivalenceErrorFields:
    def test_counterexample_fields(self):
        sources = {
            "a": Gate("a", GateType.INPUT),
            "b": Gate("b", GateType.INPUT),
        }
        reference = Netlist(
            name="ref",
            gates={**sources, "y": Gate("y", GateType.AND, ("a", "b"))},
            outputs=["y"],
        )
        candidate = Netlist(
            name="cand",
            gates={**sources, "y": Gate("y", GateType.OR, ("a", "b"))},
            outputs=["y"],
        )
        with pytest.raises(EquivalenceError) as excinfo:
            check_equivalent(reference, candidate, n_vectors=16)
        error = excinfo.value
        assert error.vector_index is not None
        assert error.cycle is not None
        assert set(error.differing_outputs) == {"y"}
        ref_val, cand_val = error.differing_outputs["y"]
        assert (ref_val, cand_val) in ((0, 1), (1, 0))
        assert set(error.inputs) == {"a", "b"}

    def test_interface_mismatch_has_no_counterexample(self):
        reference = Netlist(
            name="ref",
            gates={
                "a": Gate("a", GateType.INPUT),
                "y": Gate("y", GateType.NOT, ("a",)),
            },
            outputs=["y"],
        )
        candidate = Netlist(
            name="cand",
            gates={
                "b": Gate("b", GateType.INPUT),
                "y": Gate("y", GateType.NOT, ("b",)),
            },
            outputs=["y"],
        )
        with pytest.raises(EquivalenceError) as excinfo:
            check_equivalent(reference, candidate)
        assert excinfo.value.vector_index is None
        assert excinfo.value.differing_outputs == {}
