"""Tests for structural levelization and the critical path."""

from __future__ import annotations

import pytest

from repro.circuits import (
    GateType,
    Netlist,
    balanced_tree_circuit,
    levelize,
)
from repro.tech import DEFAULT_LIBRARY, synthesize


def _levels(by_level):
    return {net: level for level, nets in enumerate(by_level) for net in nets}


class TestLevels:
    def test_chain_levels(self, tiny_chain):
        assert levelize(tiny_chain) == [["x"], ["a"], ["b"]]

    def test_balanced_tree_depth(self):
        tree = balanced_tree_circuit(8)
        assert len(levelize(tree)) - 1 == 3  # log2(8)

    def test_sources_at_level_zero(self, s27):
        sources = set(levelize(s27)[0])
        assert set(s27.inputs) <= sources
        assert {ff.name for ff in s27.flip_flops} <= sources

    def test_gate_above_deepest_fanin(self, s27):
        levels = _levels(levelize(s27))
        for gate in s27.logic_gates:
            assert levels[gate.name] == 1 + max(levels[src] for src in gate.inputs)

    def test_by_level_partitions_all_nets(self, small_logic):
        by_level = levelize(small_logic)
        flattened = [n for level in by_level for n in level]
        assert sorted(flattened) == sorted(small_logic.gates)

    def test_each_level_in_topological_order(self, small_logic):
        order = [g.name for g in small_logic.topological_order()]
        for nets in levelize(small_logic):
            assert nets == [n for n in order if n in set(nets)]


def _delay(netlist, net):
    return DEFAULT_LIBRARY.characterize(netlist.driver(net)).delay_s


class TestCriticalPath:
    def test_chain_sums_delays(self, tiny_chain):
        expected = _delay(tiny_chain, "a") + _delay(tiny_chain, "b")
        assert synthesize(tiny_chain).critical_path_s == pytest.approx(expected)

    def test_parallel_paths_take_max(self):
        netlist = Netlist(name="diamond")
        netlist.add_input("x")
        netlist.add_gate("slow", GateType.BUF, ["x"])
        netlist.add_gate("fast", GateType.NOT, ["x"])
        netlist.add_gate("join", GateType.AND, ["slow", "fast"])
        netlist.add_output("join")
        expected = _delay(netlist, "slow") + _delay(netlist, "join")
        assert _delay(netlist, "slow") > _delay(netlist, "fast")
        assert synthesize(netlist).critical_path_s == pytest.approx(expected)

    def test_empty_delays_give_zero(self):
        netlist = Netlist(name="wires")
        netlist.add_input("x")
        netlist.add_output("x")
        assert synthesize(netlist).critical_path_s == 0.0

    def test_flip_flop_starts_a_path(self):
        netlist = Netlist(name="toggler")
        netlist.add_gate("q", GateType.DFF, ["d"])
        netlist.add_gate("d", GateType.NOT, ["q"])
        netlist.add_output("q")
        expected = _delay(netlist, "q") + _delay(netlist, "d")
        assert synthesize(netlist).critical_path_s == pytest.approx(expected)
