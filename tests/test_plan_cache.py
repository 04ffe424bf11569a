"""The plan and code memo levels of :class:`~repro.dse.explorer.SynthesisCache`.

A sweep builds each NV-enhanced plan and its code bundle once per
distinct (stage, budget, technology, criteria[, target period]) and
never emits HDL: a bundle writes and round-trip checks its Verilog only
when it is read.  The records must not depend on how much of the cache
a point found warm.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

import repro.core.codegen as codegen
import repro.core.diac as diac
import repro.dse.explorer as explorer
from repro.circuits import GateType, VerilogError, parse_verilog
from repro.core import DiacSynthesizer, ReplacementCriteria
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
from repro.evaluation import evaluate_suite
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
    """Count plan, codegen, HDL emission and HDL parse invocations."""
    counts: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

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
    return counts


def _grid_spec(**axes) -> SweepSpec:
    return SweepSpec(
        circuits=CIRCUITS,
        policies=(3,),
        budget_scales=(0.5, 1.0),
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
        assert calls["generate_code"] == distinct_plans
        assert calls["write_verilog"] == 0
        assert calls["parse_verilog"] == 0

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
        assert calls["generate_code"] == 4

    def test_evaluations_emit_no_hdl(self, calls):
        netlist = load_circuit("s27")
        cache = SynthesisCache()
        for scale in (0.5, 1.0):
            evaluate_point(netlist, DesignPoint(budget_scale=scale), cache=cache)
        evaluate_suite(["s27"])
        assert calls["generate_code"] == 3
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
        assert again.design.code is first.design.code
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

