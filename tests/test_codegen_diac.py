"""Tests for code generation (step 6-7) and the end-to-end pipeline."""

from __future__ import annotations

import pytest

from repro.circuits import parse_verilog
from repro.circuits.validate import check_equivalent
from repro.core import (
    DiacConfig,
    DiacSynthesizer,
    ReplacementCriteria,
    build_task_graph,
    generate_code,
    insert_nvm,
)
from repro.tech import RERAM


class TestCodegen:
    def test_emits_valid_verilog(self, s27_design):
        code = s27_design.code
        netlist = parse_verilog(code.verilog)
        netlist.validate()
        check_equivalent(s27_design.netlist, netlist)

    def test_pragmas_match_barriers(self, small_logic):
        graph = build_task_graph(small_logic)
        plan = insert_nvm(graph, graph.total_energy_j / 6.0)
        code = generate_code(plan)
        assert set(code.barrier_pragmas) == set(plan.barriers)
        for barrier, nets in code.barrier_pragmas.items():
            assert f"DIAC pragma barrier {barrier}" in code.verilog
            assert nets  # every barrier commits something

    def test_timing_pass_without_constraint(self, s27_design):
        assert s27_design.code.timing.passed
        assert s27_design.code.timing.achievable_period_s > 0

    def test_timing_violation_with_tight_target(self, s27):
        graph = build_task_graph(s27)
        plan = insert_nvm(graph, 1.0)
        code = generate_code(plan, target_period_s=1e-15)
        assert not code.timing.passed
        assert any("exceeds target" in v for v in code.timing.violations)

    def test_timing_pass_with_loose_target(self, s27):
        graph = build_task_graph(s27)
        plan = insert_nvm(graph, 1.0)
        code = generate_code(plan, target_period_s=1.0)
        assert code.timing.passed

    def test_ff_delay_overhead_slows_clock(self, s27):
        graph = build_task_graph(s27)
        plan = insert_nvm(graph, 1.0)
        base = generate_code(plan).timing.achievable_period_s
        slowed = generate_code(plan, ff_delay_overhead=0.3).timing.achievable_period_s
        assert slowed == pytest.approx(base * 1.3)

    def test_infeasible_nodes_flagged(self, small_logic):
        graph = build_task_graph(small_logic)
        tiny = min(n.feature.energy_j for n in graph.nodes.values()) / 2.0
        plan = insert_nvm(graph, tiny)
        code = generate_code(plan)
        assert not code.timing.passed


class TestDiacPipeline:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiacConfig(policy=5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"split_fraction": float("nan")}, "split_fraction"),
            ({"split_fraction": float("inf")}, "split_fraction"),
            ({"split_fraction": 0.0}, "split_fraction"),
            ({"split_fraction": -1.0}, "split_fraction"),
            ({"merge_fraction": float("nan")}, "merge_fraction"),
            ({"merge_fraction": -0.5}, "merge_fraction"),
            ({"split_fraction": 1.0, "merge_fraction": 2.0}, "must not exceed"),
            ({"granularity": "cone"}, "granularity"),
            ({"activity": 0.0}, "activity"),
            ({"activity": 1.5}, "activity"),
            ({"activity": float("nan")}, "activity"),
            ({"budget_j": 0.0}, "budget_j"),
            ({"budget_j": -1e-12}, "budget_j"),
            ({"budget_j": float("nan")}, "budget_j"),
            ({"budget_j": float("inf")}, "budget_j"),
        ],
    )
    def test_config_rejects_malformed_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DiacConfig(**kwargs)

    def test_config_accepts_boundary_values(self):
        config = DiacConfig(
            granularity="level", activity=1.0, merge_fraction=0.0, budget_j=1e-15
        )
        assert config.split_fraction > config.merge_fraction

    def test_design_summary_fields(self, s27_design):
        summary = s27_design.summary()
        for key in ("nodes", "depth", "state_bits", "pass_energy_pj", "timing_ok"):
            assert key in summary
        assert summary["timing_ok"] == 1.0

    def test_report_text_mentions_policy(self, s27_design):
        text = s27_design.report_text()
        assert "policy 3" in text
        assert "MRAM" in text

    def test_state_bits_composition(self, s27_design):
        # 3 FFs + 1 PO + 3 Reg_Flag bits.
        assert s27_design.state_bits == 3 + 1 + 3

    def test_derive_budget_positive(self, s27):
        budget = DiacSynthesizer().derive_budget_j(s27)
        assert budget > 0

    def test_explicit_budget_respected(self, small_logic):
        synth = DiacSynthesizer(DiacConfig(budget_j=1e-15))
        design = synth.run(small_logic)
        assert design.plan.budget_j == 1e-15
        assert design.plan.n_barriers > 0

    @pytest.mark.parametrize("policy", [1, 2, 3])
    def test_all_policies_run(self, s27, policy):
        design = DiacSynthesizer(DiacConfig(policy=policy)).run(s27)
        design.plan.graph.check()

    def test_technology_flows_through(self, s27):
        design = DiacSynthesizer(DiacConfig(technology=RERAM)).run(s27)
        assert design.plan.technology is RERAM
        assert "ReRAM" in design.code.verilog

    def test_criteria_flow_through(self, s27):
        crit = ReplacementCriteria(2.0, 0.5, 1.5)
        design = DiacSynthesizer(DiacConfig(criteria=crit)).run(s27)
        assert design.plan.criteria is crit

    def test_pass_energy_and_time(self, s27_design):
        assert s27_design.pass_energy_j > 0
        assert s27_design.pass_time_s > 0
        assert s27_design.full_backup_energy_j > 0

    def test_validation_roundtrip_enabled_by_default(self, s27):
        design = DiacSynthesizer().run(s27)
        # Reading the HDL emits and round-trip checks it; a malformed or
        # unfaithful artifact raises right here.
        parse_verilog(design.code.verilog)

    def test_input_named_clk_keeps_its_own_port(self):
        """A primary input called ``clk`` is not the generated clock."""
        from repro.circuits import Netlist
        from repro.circuits.gates import GateType

        netlist = Netlist(name="clocked")
        netlist.add_input("clk")
        netlist.add_input("d")
        netlist.add_gate("x", GateType.AND, ["clk", "d"])
        netlist.add_gate("q", GateType.DFF, ["x"])
        netlist.add_output("q")
        hdl = DiacSynthesizer().run(netlist).code.verilog
        assert "always @(posedge clk_1) q <= x;" in hdl
        parsed = parse_verilog(hdl)
        assert parsed.inputs == ["clk", "d"]
        check_equivalent(netlist, parsed)
