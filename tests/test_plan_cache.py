"""The characterization, stage, plan, environment and profile memo
levels of :class:`~repro.dse.explorer.SynthesisCache`, and the lazily
built :class:`~repro.core.diac.DiacDesign`.

A sweep characterizes each circuit once for all of its policies, builds
each NV-enhanced plan once per distinct (stage, budget, technology,
criteria) and never generates code: a design is its plan and its config,
and builds its code bundle only when it is read, just as the bundle
writes and round-trip checks its Verilog only when that is read.  It
builds each evaluation environment once per circuit and scenario, and
each DIAC profile once per plan and safe zone.  The records must not
depend on how much of the cache a point found warm.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import repro.core.codegen as codegen
import repro.core.diac as diac
import repro.dse.explorer as explorer
from repro.circuits import GateType, VerilogError, parse_verilog
from repro.core import (
    DiacConfig,
    DiacDesign,
    DiacSynthesizer,
    ReplacementCriteria,
    generate_code,
)
from repro.dse import (
    DesignPoint,
    SweepEngine,
    SweepRequest,
    SweepSpec,
    SynthesisCache,
    evaluate_point,
    expand_points,
    record_to_dict,
)
from repro.dse.explorer import prepare_point
from repro.energy.scenarios import ScenarioSpec
from repro.evaluation import build_environment, evaluate_suite
from repro.suite import load_circuit
from repro.tech import MRAM, RERAM

CIRCUITS = ("s27", "b02")
SCENARIOS = (
    ScenarioSpec(),
    ScenarioSpec.parse("rf-markov@7"),
    ScenarioSpec.parse("office-solar"),
)


@pytest.fixture
def calls(monkeypatch):
    """Count characterization, plan, codegen, HDL, environment and
    profile invocations."""
    counts: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        diac, "synthesize", counted("synthesize", diac.synthesize)
    )
    monkeypatch.setattr(
        diac,
        "build_task_graph",
        counted("build_task_graph", diac.build_task_graph),
    )
    monkeypatch.setattr(
        diac, "insert_nvm", counted("insert_nvm", diac.insert_nvm)
    )
    monkeypatch.setattr(
        diac, "generate_code", counted("generate_code", diac.generate_code)
    )
    monkeypatch.setattr(
        codegen,
        "write_verilog",
        counted("write_verilog", codegen.write_verilog),
    )
    monkeypatch.setattr(
        codegen,
        "parse_verilog",
        counted("parse_verilog", codegen.parse_verilog),
    )
    monkeypatch.setattr(
        explorer,
        "build_environment",
        counted("build_environment", explorer.build_environment),
    )
    monkeypatch.setattr(
        explorer,
        "profile_diac",
        counted("profile_diac", explorer.profile_diac),
    )
    return counts


def _grid_spec(**axes) -> SweepSpec:
    axes = {"policies": (3,), "budget_scales": (0.5, 1.0), **axes}
    return SweepSpec(
        circuits=CIRCUITS,
        safe_zones=(True, False),
        scenarios=SCENARIOS,
        **axes,
    )


class TestBuiltOnce:
    def test_plan_and_code_once_per_distinct_plan(self, calls):
        spec = _grid_spec(technologies=(MRAM, RERAM))
        result = SweepEngine().submit(SweepRequest(spec=spec))
        assert not result.failures
        # 2 circuits x 3 scenarios x 2 budgets x 2 technologies x 2 modes.
        assert len(result.records) == 48
        assert result.stats.n_batches == len(CIRCUITS)
        distinct_plans = len(CIRCUITS) * 2 * 2  # circuits x budgets x techs
        assert calls["insert_nvm"] == distinct_plans
        assert calls["generate_code"] == 0  # no evaluation reads code
        assert calls["write_verilog"] == 0
        assert calls["parse_verilog"] == 0

    def test_environment_once_per_circuit_and_profile_once_per_plan(
        self, calls
    ):
        policies, budgets = (1, 3), (0.5, 1.0)
        spec = _grid_spec(policies=policies, budget_scales=budgets)
        result = SweepEngine().submit(SweepRequest(spec=spec))
        assert not result.failures
        # 2 circuits x 3 scenarios x 2 policies x 2 budgets x 2 modes.
        assert len(result.records) == 48
        plans = len(CIRCUITS) * len(policies) * len(budgets)
        assert calls["build_environment"] == len(CIRCUITS) * len(SCENARIOS)
        assert calls["profile_diac"] == plans * 2  # x safe zones

    def test_characterization_once_per_circuit(self, calls):
        policies = (1, 2, 3)
        spec = _grid_spec(policies=policies, budget_scales=(1.0,))
        result = SweepEngine().submit(SweepRequest(spec=spec))
        assert not result.failures
        # 2 circuits x 3 scenarios x 3 policies x 2 modes.
        assert len(result.records) == 36
        assert result.stats.synthesize_calls == len(CIRCUITS) * len(policies)
        assert calls["synthesize"] == len(CIRCUITS)
        assert calls["build_task_graph"] == len(CIRCUITS)
        assert calls["build_environment"] == len(CIRCUITS) * len(SCENARIOS)

    def test_memo_keys_hold_only_what_the_steps_read(self):
        netlist = load_circuit("s27")
        config = DiacConfig(policy=2, granularity="level")
        assert SynthesisCache.characterization_key(netlist, config) == (
            "s27", "level",
        )
        assert SynthesisCache.stage_key(netlist, config) == ("s27", "level", 2)

    def test_plan_memo_drops_the_least_recently_used(
        self, calls, monkeypatch
    ):
        monkeypatch.setattr(explorer, "PLAN_MEMO_SIZE", 2)
        netlist = load_circuit("s27")
        cache = SynthesisCache()
        for scale in (0.5, 1.0, 0.5, 2.0, 0.5, 1.0):
            prepare_point(netlist, DesignPoint(budget_scale=scale), cache=cache)
        # 0.5, 1.0 and 2.0 miss; 2.0 evicts 1.0 (0.5 was used since), so
        # 1.0 misses again while 0.5 always hits.
        assert calls["insert_nvm"] == 4
        assert calls["generate_code"] == 0

    def test_evaluations_emit_no_hdl(self, calls):
        netlist = load_circuit("s27")
        cache = SynthesisCache()
        for scale in (0.5, 1.0):
            evaluate_point(netlist, DesignPoint(budget_scale=scale), cache=cache)
        evaluate_suite(["s27"])
        assert calls["generate_code"] == 0
        assert calls["write_verilog"] == 0
        assert calls["parse_verilog"] == 0

    def test_synthesizer_run_emits_no_hdl_until_it_is_read(self, calls):
        code = DiacSynthesizer().run(load_circuit("s27")).code
        assert calls["write_verilog"] == 0
        assert calls["parse_verilog"] == 0
        assert code.verilog == code.verilog
        assert calls["write_verilog"] == 1
        assert calls["parse_verilog"] == 1


def test_shared_cache_records_equal_fresh_cache_records():
    netlists = {name: load_circuit(name) for name in CIRCUITS}
    points = expand_points(
        policies=(1, 3),
        budget_scales=(0.5, 1.0),
        technologies=(MRAM, RERAM),
        criteria_sets=(
            ReplacementCriteria(),
            ReplacementCriteria(fanio_weight=0.0),
        ),
        safe_zones=(True, False),
        threshold_scales=(1.0, 0.9),
        safe_margin_scales=(None, 0.5),
    )
    jobs = [
        (circuit, scenario, point)
        for circuit in CIRCUITS
        for scenario in SCENARIOS[:2]
        for point in points
    ]
    sample = random.Random(13).sample(jobs, 24)
    caches = {name: SynthesisCache() for name in CIRCUITS}
    shared = [
        evaluate_point(netlists[c], p, cache=caches[c], scenario=s)
        for c, s, p in sample
    ]
    fresh = [
        evaluate_point(netlists[c], p, cache=SynthesisCache(), scenario=s)
        for c, s, p in sample
    ]
    assert [record_to_dict(r) for r in shared] == [
        record_to_dict(r) for r in fresh
    ]


@pytest.mark.parametrize("scenario", ["paper-fig5", "rf-markov@1"])
def test_one_environment_serves_every_design_of_a_stage(scenario):
    """The environment memo keys on the characterization, so it must be
    all ``build_environment`` reads: a fresh build for every design of
    the circuit (all three policies, barrier-placing budgets, both
    technologies, both safe zones) equals the one environment they
    share."""
    netlist = load_circuit("s838")
    scenario = ScenarioSpec.parse(scenario)
    cache = SynthesisCache()
    prepared = [
        prepare_point(
            netlist,
            DesignPoint(
                policy=policy,
                budget_scale=scale,
                technology=tech,
                use_safe_zone=safe,
            ),
            cache=cache,
            scenario=scenario,
        )
        for policy in (1, 2, 3)
        for scale in (1.0, 0.01, 0.005)
        for tech in (MRAM, RERAM)
        for safe in (True, False)
    ]
    assert {p.design.plan.n_barriers for p in prepared} > {0}
    assert len({id(p.design.plan.graph) for p in prepared}) == 3
    shared = prepared[0].environment
    for prep in prepared:
        assert prep.environment is shared
        fresh = build_environment(prep.design, scenario=scenario)
        assert fresh.e_max_j == shared.e_max_j
        assert fresh.thresholds == shared.thresholds
        assert fresh.sleep_drain_w == shared.sleep_drain_w
        assert fresh.n_passes == shared.n_passes
        assert fresh.trace.name == shared.trace.name
        assert fresh.trace.segments == shared.trace.segments


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_shaping_leaves_the_characterization_intact(circuit):
    """Every policy shapes the one cached un-optimized tree; after all
    three it still equals a fresh characterization."""
    netlist = load_circuit(circuit)
    config = DiacConfig()
    cache = SynthesisCache()
    for policy in (1, 2, 3):
        cache.stage_for(netlist, replace(config, policy=policy))
    base = cache.characterization_for(netlist, config)
    fresh = DiacSynthesizer(config).characterize(netlist)
    assert base.report is cache.stage_for(netlist, config).report
    assert list(base.nodes) == list(fresh.nodes)
    for node_id, node in base.nodes.items():
        assert node.gates == fresh.nodes[node_id].gates
        assert node.feature == fresh.nodes[node_id].feature
    assert base.edges == fresh.edges
    assert {n: base.predecessors(n) for n in base.nodes} == {
        n: fresh.predecessors(n) for n in fresh.nodes
    }


def _small_sweep(netlist):
    spec = SweepSpec(
        circuits=("s27",),
        policies=(3,),
        budget_scales=(0.5, 1.0),
        safe_zones=(True, False),
        scenarios=SCENARIOS[:2],
    )
    return SweepEngine().submit(
        SweepRequest(spec=spec), netlists={"s27": netlist}
    )


def test_malformed_hdl_raises_on_read_and_leaves_sweeps_alone(monkeypatch):
    netlist = load_circuit("s27")
    clean = _small_sweep(netlist)
    real = codegen.write_verilog

    def malformed(netlist, *args, **kwargs):
        return real(netlist, *args, **kwargs).replace(
            "endmodule", "bogus construct;\nendmodule"
        )

    monkeypatch.setattr(codegen, "write_verilog", malformed)
    code = DiacSynthesizer().run(netlist).code
    with pytest.raises(VerilogError, match="bogus construct"):
        _ = code.verilog

    patched = _small_sweep(netlist)
    assert not patched.failures
    assert len(patched.records) == 8
    assert [record_to_dict(r) for r in patched.records] == [
        record_to_dict(r) for r in clean.records
    ]


def test_hdl_that_parses_to_another_netlist_raises_on_read(monkeypatch):
    """A writer that swaps two fanins of one gate still parses and
    validates; only the comparison with the source netlist catches it."""
    netlist = load_circuit("s27")
    gate = next(
        g
        for g in netlist.gates.values()
        if g.gtype is GateType.NOR and len(set(g.inputs)) == 2
    )
    a, b = gate.inputs
    real = codegen.write_verilog

    def swapped(source, *args, **kwargs):
        text = real(source, *args, **kwargs)
        line = f"({gate.name}, {a}, {b});"
        assert text.count(line) == 1
        return text.replace(line, f"({gate.name}, {b}, {a});")

    monkeypatch.setattr(codegen, "write_verilog", swapped)
    parse_verilog(swapped(netlist)).validate()
    code = DiacSynthesizer().run(netlist).code
    with pytest.raises(VerilogError, match=repr(gate.name)):
        _ = code.verilog


class TestFrozenSharedObjects:
    @pytest.fixture(scope="class")
    def design(self):
        cache = SynthesisCache()
        netlist = load_circuit("s27")
        first = prepare_point(
            netlist, DesignPoint(budget_scale=0.5), cache=cache
        )
        again = prepare_point(
            netlist,
            DesignPoint(budget_scale=0.5, use_safe_zone=False),
            cache=cache,
        )
        assert again.design.plan is first.design.plan
        # Each design builds its own bundle, equal to the other's.
        assert again.design.code == first.design.code
        return first.design

    def test_plan_is_frozen(self, design):
        plan = design.plan
        with pytest.raises(FrozenInstanceError):
            plan.barriers = ()
        with pytest.raises(AttributeError):
            plan.barriers.append("n0")
        assert isinstance(plan.infeasible, tuple)

    def test_schedule_is_computed_once_on_a_frozen_plan(self, design):
        plan = design.plan
        schedule = plan.schedule()
        assert plan.schedule() is schedule
        assert isinstance(schedule, tuple)
        with pytest.raises(FrozenInstanceError):
            schedule[0].commit_bits = 0

    def test_code_and_timing_are_frozen(self, design):
        code = design.code
        with pytest.raises(FrozenInstanceError):
            code.hdl = ""
        with pytest.raises(TypeError):
            code.barrier_pragmas["n0"] = ()
        with pytest.raises(FrozenInstanceError):
            code.timing.violations = ("late",)
        assert isinstance(code.timing.violations, tuple)
        assert code.verilog == code.header + code.hdl



class TestLazyDesign:
    """A design is its plan and its config; the rest is read off them."""

    def test_only_plan_and_config_are_fields(self):
        assert [f.name for f in fields(DiacDesign)] == ["plan", "config"]

    def test_barrier_sweep_generates_no_code(self, calls):
        spec = SweepSpec(
            circuits=("s838",),
            policies=(3,),
            budget_scales=(0.01, 0.005),
            safe_zones=(True, False),
        )
        result = SweepEngine().submit(SweepRequest(spec=spec))
        assert not result.failures
        assert len(result.records) == 4
        assert min(r.n_barriers for r in result.records) > 0
        assert calls["insert_nvm"] == 2
        assert calls["generate_code"] == 0

    def test_netlist_and_report_are_the_plan_graphs(self):
        design = DiacSynthesizer().run(load_circuit("s27"))
        assert design.netlist is design.plan.graph.netlist
        assert design.report is design.plan.graph.report

    def test_code_is_generated_on_first_read(self, calls):
        netlist = load_circuit("s838")
        point = DesignPoint(budget_scale=0.01)
        design = prepare_point(netlist, point).design
        assert design.plan.n_barriers > 0
        assert calls["generate_code"] == 0
        code = design.code
        assert design.code is code
        assert calls["generate_code"] == 1
        expected = generate_code(design.plan)
        assert code.header == expected.header
        assert code.barrier_pragmas == expected.barrier_pragmas
        assert code.timing == expected.timing
        assert code.timing.passed
        assert calls["write_verilog"] == 0
