"""Tests for feature dictionaries, the task graph, and the tree generator."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import FeatureDict, TaskGraph, TaskNode, TreeError, build_task_graph
from repro.tech import synthesize


class TestFeatureDict:
    def test_power_from_energy_and_delay(self):
        f = FeatureDict(energy_j=4.0, delay_s=2.0)
        assert f.power_w == pytest.approx(2.0)

    def test_power_zero_delay(self):
        assert FeatureDict(energy_j=1.0, delay_s=0.0).power_w == 0.0

    def test_write_reduction_factor(self):
        f = FeatureDict(fan_in=3, fan_out=2)
        assert f.write_reduction_factor == pytest.approx(1.0 / 5.0)
        assert FeatureDict().write_reduction_factor == 1.0

    def test_as_dict_has_paper_fields(self):
        d = FeatureDict(fan_in=2, fan_out=1, level=3, energy_j=1e-12).as_dict()
        for key in ("fan_in", "fan_out", "level", "power"):
            assert key in d


class TestTaskGraphInvariants:
    def test_gate_granularity_partition(self, s27):
        graph = build_task_graph(s27)
        graph.check()
        assert len(graph) == s27.num_gates

    def test_duplicate_gate_ownership_rejected(self, s27):
        report = synthesize(s27)
        nodes = [
            TaskNode("n1", ("G14", "G8")),
            TaskNode("n2", ("G8", "G15")),
        ]
        with pytest.raises(TreeError, match="owned by both"):
            TaskGraph(s27, report, nodes)

    def test_missing_gate_detected(self, s27):
        report = synthesize(s27)
        nodes = [TaskNode("n1", ("G14",))]
        with pytest.raises(TreeError, match="not covered"):
            TaskGraph(s27, report, nodes)

    def test_empty_node_rejected(self):
        with pytest.raises(TreeError, match="no gates"):
            TaskNode("empty", ())

    def test_duplicate_node_id_rejected(self, s27):
        report = synthesize(s27)
        nodes = [TaskNode("n", ("G14",)), TaskNode("n", ("G8",))]
        with pytest.raises(TreeError, match="duplicate node id"):
            TaskGraph(s27, report, nodes)


class TestLevelsAndFeatures:
    def test_levels_start_at_one(self, s27):
        graph = build_task_graph(s27)
        assert min(n.feature.level for n in graph.nodes.values()) == 1

    def test_edges_increase_levels(self, small_logic):
        graph = build_task_graph(small_logic)
        for nid, succs in graph.edges.items():
            for succ in succs:
                assert (
                    graph.nodes[succ].feature.level
                    > graph.nodes[nid].feature.level
                )

    def test_features_populated(self, s27):
        graph = build_task_graph(s27)
        for node in graph.nodes.values():
            assert node.feature.energy_j > 0
            assert node.feature.delay_s > 0
            assert node.feature.n_gates == 1

    def test_fanin_fanout_of_known_gate(self, s27):
        graph = build_task_graph(s27)
        # G11 = NOR(G5, G9): G5 is a FF (external), G9 is a node.
        node = graph.nodes["G11"]
        assert node.feature.fan_in == 2
        # G11 feeds G17, G10 and the DFF G6.
        assert node.feature.fan_out == 1  # its single output net

    def test_output_nets_final_gate(self, s27):
        graph = build_task_graph(s27)
        assert graph.output_nets(graph.nodes["G17"]) == {"G17"}

    def test_total_energy_positive(self, small_fsm):
        graph = build_task_graph(small_fsm)
        assert graph.total_energy_j > 0


class TestGranularities:
    def test_level_granularity_groups(self, small_logic):
        gate_graph = build_task_graph(small_logic, granularity="gate")
        level_graph = build_task_graph(small_logic, granularity="level")
        assert len(level_graph) < len(gate_graph)
        level_graph.check()

    def test_level_nodes_pinned_over_the_roster(self):
        """The ``level`` granularity's nodes, over every roster circuit.

        sha256 over the ``repr`` of each circuit's ``_level_nodes``, in
        roster order: level numbering, chunking and the order of gates
        within a level must all stay as they are.
        """
        from repro.core.tree_generator import _level_nodes
        from repro.suite.registry import ROSTER, load_circuit

        digest = hashlib.sha256()
        for info in ROSTER:
            digest.update(repr(_level_nodes(load_circuit(info.name))).encode())
        assert digest.hexdigest() == (
            "d19d3af6e3d582cd7b75aac6eebdf93b7858f6829e6413baf6ce8c2ea539042b"
        )

    def test_unknown_granularity(self, s27):
        with pytest.raises(ValueError, match="unknown granularity"):
            build_task_graph(s27, granularity="cone")

    def test_existing_report_reused(self, s27):
        report = synthesize(s27)
        graph = build_task_graph(s27, report=report)
        assert graph.report is report
