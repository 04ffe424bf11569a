"""Tests for the NVM replacement procedure."""

from __future__ import annotations

import pytest

from repro.core import (
    REG_FLAG_BITS,
    ReplacementCriteria,
    build_task_graph,
    insert_nvm,
)
from repro.core.replacement import live_cut_profile, schedule_order
from repro.tech import RERAM


class TestCriteria:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ReplacementCriteria(level_weight=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ReplacementCriteria(0.0, 0.0, 0.0)


class TestScheduleOrder:
    def test_respects_levels(self, small_logic):
        graph = build_task_graph(small_logic)
        order = schedule_order(graph)
        levels = [n.feature.level for n in order]
        assert levels == sorted(levels)

    def test_live_profile_final_is_state(self, s27):
        graph = build_task_graph(s27)
        order = schedule_order(graph)
        live = live_cut_profile(graph, order)
        final = live[order[-1].node_id]
        # At the end: pending FF inputs + primary outputs (dedup shared).
        ff_feeders = {g.inputs[0] for g in s27.flip_flops}
        expected = len(ff_feeders | set(s27.outputs))
        assert final == expected

    def test_live_profile_nonnegative(self, small_fsm):
        graph = build_task_graph(small_fsm)
        live = live_cut_profile(graph, schedule_order(graph))
        assert all(v >= 0 for v in live.values())


class TestInsertNvm:
    def test_budget_validation(self, s27):
        graph = build_task_graph(s27)
        with pytest.raises(ValueError):
            insert_nvm(graph, 0.0)

    def test_no_barriers_with_huge_budget(self, s27):
        graph = build_task_graph(s27)
        plan = insert_nvm(graph, 1.0)  # 1 joule >> any gate energy
        assert plan.n_barriers == 0
        assert len(plan.schedule()) == 1

    def test_small_budget_places_barriers(self, small_logic):
        graph = build_task_graph(small_logic)
        budget = graph.total_energy_j / 10.0
        plan = insert_nvm(graph, budget)
        assert plan.n_barriers >= 5
        assert len(plan.schedule()) == plan.n_barriers + (
            1 if plan.schedule()[-1].node_ids else 0
        ) or len(plan.schedule()) >= plan.n_barriers

    def test_partitions_cover_all_nodes_once(self, small_logic):
        graph = build_task_graph(small_logic)
        plan = insert_nvm(graph, graph.total_energy_j / 7.0)
        seen = [nid for p in plan.schedule() for nid in p.node_ids]
        assert sorted(seen) == sorted(graph.nodes)

    def test_partition_energies_respect_budget(self, small_logic):
        graph = build_task_graph(small_logic)
        budget = graph.total_energy_j / 8.0
        plan = insert_nvm(graph, budget)
        max_node = max(n.feature.energy_j for n in plan.graph.nodes.values())
        for partition in plan.schedule()[:-1]:
            assert partition.energy_j <= budget + max_node + 1e-18

    def test_commit_bits_include_reg_flag(self, small_logic):
        graph = build_task_graph(small_logic)
        plan = insert_nvm(graph, graph.total_energy_j / 5.0)
        for partition in plan.schedule():
            assert partition.commit_bits >= REG_FLAG_BITS

    def test_barriers_close_partitions(self, small_logic):
        """The plan owns the barriers: each closes one partition."""
        graph = build_task_graph(small_logic)
        plan = insert_nvm(graph, graph.total_energy_j / 5.0)
        closed = plan.schedule()[: plan.n_barriers]
        assert tuple(p.node_ids[-1] for p in closed) == plan.barriers
        assert [p.commit_bits for p in closed] == [
            plan.live_cut[b] + REG_FLAG_BITS for b in plan.barriers
        ]
        assert plan.total_barrier_bits == sum(p.commit_bits for p in closed)

    def test_original_graph_untouched(self, small_logic):
        """The stage is the plan's graph, shared and not modified."""
        graph = build_task_graph(small_logic)
        before = {nid: (n.gates, n.feature) for nid, n in graph.nodes.items()}
        plan = insert_nvm(graph, graph.total_energy_j / 5.0)
        assert plan.graph is graph
        assert plan.n_barriers > 0
        assert {nid: (n.gates, n.feature) for nid, n in graph.nodes.items()} == before

    def test_infeasible_nodes_reported(self, small_logic):
        graph = build_task_graph(small_logic)
        tiny = min(n.feature.energy_j for n in graph.nodes.values()) / 2.0
        plan = insert_nvm(graph, tiny)
        assert plan.infeasible
        # Every node still gets scheduled despite infeasibility.
        seen = [nid for p in plan.schedule() for nid in p.node_ids]
        assert sorted(seen) == sorted(graph.nodes)

    def test_accumulated_dict_updated(self, small_logic):
        """Paper: the barrier node's Dict. gains P_total + P_n."""
        graph = build_task_graph(small_logic)
        plan = insert_nvm(graph, graph.total_energy_j / 6.0)
        assert plan.n_barriers > 0
        assert len(plan.accumulated_j) == plan.n_barriers
        assert all(energy > 0 for energy in plan.accumulated_j)

    def test_technology_recorded(self, s27):
        graph = build_task_graph(s27)
        plan = insert_nvm(graph, 1.0, technology=RERAM)
        assert plan.technology is RERAM
        assert plan.backup_array().technology is RERAM


class TestCriteriaEffects:
    def test_fanio_criterion_narrows_commits(self, small_fsm):
        graph = build_task_graph(small_fsm)
        budget = graph.total_energy_j / 8.0
        with_width = insert_nvm(
            graph, budget, criteria=ReplacementCriteria(0.0, 0.0, 1.0)
        )
        without_width = insert_nvm(
            graph, budget, criteria=ReplacementCriteria(1.0, 1.0, 0.0)
        )

        def mean_bits(plan):
            parts = plan.schedule()
            return sum(p.commit_bits for p in parts) / len(parts)

        assert mean_bits(with_width) <= mean_bits(without_width) + 1e-9

    def test_level_criterion_pushes_barriers_up(self, small_fsm):
        graph = build_task_graph(small_fsm)
        budget = graph.total_energy_j / 8.0
        late = insert_nvm(
            graph, budget, criteria=ReplacementCriteria(1.0, 0.0, 0.0)
        )
        for barrier in late.barriers:
            node = late.graph.nodes[barrier]
            assert node.feature.level >= 1

    def test_summary_keys(self, small_logic):
        graph = build_task_graph(small_logic)
        plan = insert_nvm(graph, graph.total_energy_j / 5.0)
        summary = plan.summary()
        for key in (
            "barriers",
            "partitions",
            "max_commit_bits",
            "mean_partition_energy_j",
        ):
            assert key in summary
