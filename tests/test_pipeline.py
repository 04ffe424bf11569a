"""One DIAC pipeline: the sweep path builds what ``DiacSynthesizer.run`` builds.

:class:`~repro.dse.explorer.SynthesisCache` only memoizes the
:class:`~repro.core.diac.DiacSynthesizer` steps, so a design prepared
for a sweep point must equal the design ``run`` synthesizes for the
matching configuration, budget included, and the evaluation records
must not keep those designs alive.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.circuits.netlist import Netlist
from repro.core import DiacConfig, DiacDesign, DiacSynthesizer
from repro.core.tree import TaskGraph
from repro.dse import DesignPoint, SynthesisCache, evaluate_point
from repro.dse.explorer import prepare_point
from repro.dse.store import config_from_dict, config_to_dict
from repro.evaluation import evaluate_suite
from repro.suite import load_circuit
from repro.tech import MRAM, RERAM
from repro.tech.synthesis import SynthesisReport

CIRCUITS = ("s27", "s298", "b02")


@pytest.fixture(scope="module")
def netlists() -> dict[str, Netlist]:
    return {name: load_circuit(name) for name in CIRCUITS}


def _plan_view(design: DiacDesign) -> tuple:
    plan = design.plan
    return plan.barriers, plan.schedule(), plan.total_barrier_bits


@pytest.mark.parametrize("budget_j", [None, 1e-14], ids=["derived", "set"])
@pytest.mark.parametrize("technology", [MRAM, RERAM], ids=lambda t: t.name)
@pytest.mark.parametrize("policy", [1, 2, 3])
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_prepared_design_equals_synthesizer_run(
    netlists, circuit, policy, technology, budget_j
):
    netlist = netlists[circuit]
    config = DiacConfig(policy=policy, technology=technology, budget_j=budget_j)
    expected = DiacSynthesizer(config).run(netlist)
    point = DesignPoint(policy=policy, technology=technology)
    design = prepare_point(netlist, point, base_config=config).design
    assert _plan_view(design) == _plan_view(expected)
    assert design.plan.budget_j == expected.plan.budget_j
    assert design.code.verilog == expected.code.verilog
    assert design.state_bits == expected.state_bits
    assert design.summary() == expected.summary()


def test_sweep_budget_scales_the_base_budget(netlists):
    netlist = netlists["s298"]
    base = DiacConfig(budget_j=1e-15)
    expected = DiacSynthesizer(base).run(netlist)
    cache = SynthesisCache()
    record = evaluate_point(netlist, DesignPoint(), base, cache)
    design = prepare_point(netlist, DesignPoint(), base, cache).design
    assert record.n_barriers == expected.plan.n_barriers
    assert _plan_view(design) == _plan_view(expected)
    # The derived default places far fewer barriers on s298.
    default = evaluate_point(netlist, DesignPoint())
    assert record.n_barriers > default.n_barriers
    halved = prepare_point(netlist, DesignPoint(budget_scale=0.5), base, cache)
    assert halved.design.plan.budget_j == 0.5e-15


def test_evaluations_retain_no_design_state():
    evaluations = evaluate_suite(list(CIRCUITS))
    heavy = (DiacDesign, TaskGraph, SynthesisReport, Netlist)
    seen: set[int] = set()
    stack: list[object] = [evaluations]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, heavy), f"retains a {type(obj).__name__}"
        stack.extend(gc.get_referents(obj))
    assert [e.name for e in evaluations] == list(CIRCUITS)


class TestConfigDict:
    def test_round_trip(self):
        config = DiacConfig(
            policy=2, granularity="level", technology=RERAM, budget_j=1e-14,
        )
        assert config_from_dict(config_to_dict(config)) == config
        assert config_from_dict(config_to_dict(DiacConfig())) == DiacConfig()

    def test_unknown_keys_rejected(self):
        stored = {**config_to_dict(DiacConfig()), "validate": True}
        with pytest.raises(ValueError, match="unknown keys.*'validate'"):
            config_from_dict(stored)

    def test_unregistered_technology_rejected(self):
        custom = replace(MRAM, write_energy_j=1e-12)
        with pytest.raises(ValueError, match="not registered"):
            config_to_dict(DiacConfig(technology=custom))
