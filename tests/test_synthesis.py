"""Tests for the synthesis surrogate and the paper's analytic energy model."""

from __future__ import annotations

import pytest

from repro.baselines.schemes import cycle_figures
from repro.circuits import GateType, Netlist
from repro.tech import DEFAULT_LIBRARY, synthesize


class TestReportBasics:
    def test_summary_fields(self, s27):
        report = synthesize(s27)
        summary = report.summary()
        assert summary["gates"] == 10
        assert summary["ffs"] == 3
        assert summary["critical_path_ns"] > 0
        assert summary["dynamic_energy_pj"] > 0

    def test_activity_validation(self, s27):
        with pytest.raises(ValueError):
            synthesize(s27, activity=0.0)
        with pytest.raises(ValueError):
            synthesize(s27, activity=1.5)

    def test_per_gate_accessors(self, s27):
        report = synthesize(s27)
        assert report.delay_of("G11") > 0
        assert report.dynamic_power_of("G11") > 0
        assert report.static_power_of("G11") > 0

    def test_critical_path_at_least_deepest_gate(self, s27):
        report = synthesize(s27)
        assert report.critical_path_s >= max(
            report.delay_of(g.name) for g in s27.logic_gates
        )


def _paper_static_j(report, block, cdp):
    """``CDP x sum(static_power_i)`` over all gates but the active one."""
    leak = sum(report.timing[n].static_power_w for n in block)
    return cdp * (leak - min(report.timing[n].static_power_w for n in block))


def _dynamic_j(report, block):
    """The dynamic term of ``block_cost``: its energy less the paper's static."""
    energy, cdp = report.block_cost(block)
    return energy - _paper_static_j(report, block, cdp)


class TestAnalyticModel:
    def test_paper_dynamic_formula_on_chain(self, tiny_chain):
        """dynamic energy ~= 2 * sum(delay_i * dyn_power_i) * activity."""
        report = synthesize(tiny_chain, activity=0.5)
        expected = 0.0
        for net in ("a", "b"):
            cell = report.timing[net]
            expected += 2.0 * cell.delay_s * cell.dynamic_power_w
        expected *= 0.5
        assert _dynamic_j(report, ["a", "b"]) == pytest.approx(expected)

    def test_static_formula_excludes_one_active_gate(self, tiny_chain):
        report = synthesize(tiny_chain, activity=0.5)
        cdp = report.delay_of("a") + report.delay_of("b")
        leak = sum(report.timing[n].static_power_w for n in ("a", "b"))
        leak -= min(report.timing[n].static_power_w for n in ("a", "b"))
        dynamic = sum(
            2.0 * report.delay_of(n) * report.dynamic_power_of(n) for n in ("a", "b")
        )
        energy, path = report.block_cost(["a", "b"])
        assert path == pytest.approx(cdp)
        assert energy == pytest.approx(dynamic * 0.5 + cdp * leak)

    def test_dynamic_energy_additive_over_blocks(self, s27):
        report = synthesize(s27)
        gates = [g.name for g in s27.logic_gates]
        left, right = gates[:5], gates[5:]
        assert _dynamic_j(report, gates) == pytest.approx(
            _dynamic_j(report, left) + _dynamic_j(report, right)
        )

    def test_block_critical_path_bounded_by_total(self, s27):
        report = synthesize(s27)
        gates = [g.name for g in s27.logic_gates]
        assert report.block_cost(gates)[1] <= report.critical_path_s + 1e-15

    def test_single_gate_block(self, s27):
        report = synthesize(s27)
        cell = report.timing["G14"]
        energy, path = report.block_cost(["G14"])
        assert path == pytest.approx(report.delay_of("G14"))
        assert energy == pytest.approx(
            2.0 * cell.delay_s * cell.dynamic_power_w * report.activity
        )

    def test_disjoint_blocks_have_independent_paths(self):
        netlist = Netlist(name="pair")
        netlist.add_input("x")
        netlist.add_gate("a", GateType.NOT, ["x"])
        netlist.add_gate("b", GateType.NOT, ["x"])
        netlist.add_output("a")
        netlist.add_output("b")
        report = synthesize(netlist)
        both = report.block_cost(["a", "b"])[1]
        assert both == pytest.approx(report.delay_of("a"))

    def test_ff_clock_energy_scales_with_ffs(self, s27, combinational):
        assert synthesize(s27).ff_clock_energy_j > 0
        assert synthesize(combinational).ff_clock_energy_j == 0.0

    def test_total_static_power_sums_cells(self, s27):
        report = synthesize(s27)
        assert report.total_static_power_w == pytest.approx(
            sum(c.static_power_w for c in report.timing.values())
        )

    def test_topo_index_cached(self, s27):
        report = synthesize(s27)
        first = report.topo_index
        assert report.topo_index is first
        assert len(first) == len(s27)


class TestWholeCircuit:
    def test_logic_energy_is_the_whole_circuit_block_cost(self, s27):
        report = synthesize(s27)
        energy = report.logic_energy_j
        assert repr(energy) == repr(report.block_cost(report.timing)[0])
        assert report.logic_energy_j is energy
        assert cycle_figures(report)[0] is energy

    @pytest.mark.parametrize("name", ["s298", "s1423", "b05"])
    def test_logic_energy_matches_block_cost_on_sequential_circuits(self, name):
        """Flip-flop fan-ins that arrive late read 0.0, as in ``block_cost``."""
        from repro.suite.registry import load_circuit

        report = synthesize(load_circuit(name))
        assert repr(report.logic_energy_j) == repr(
            report.block_cost(report.timing)[0]
        )


class TestLibraryInjection:
    @pytest.mark.parametrize("name", ["s27", "s1423"])
    def test_timing_is_the_library_characterization(self, name):
        from repro.suite.registry import load_circuit

        netlist = load_circuit(name)
        report = synthesize(netlist)
        assert list(report.timing) == list(netlist.gates)
        for net, gate in netlist.gates.items():
            assert report.timing[net] == DEFAULT_LIBRARY.characterize(gate)

    def test_custom_library_changes_results(self, s27):
        fast = synthesize(s27, library=DEFAULT_LIBRARY)
        slow_lib = type(DEFAULT_LIBRARY)(process_corner=2.0)
        slow = synthesize(s27, library=slow_lib)
        assert slow.critical_path_s > fast.critical_path_s
