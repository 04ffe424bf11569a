"""Tests for the task-granularity policies (paper Fig. 2)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import balanced_tree_circuit
from repro.core import (
    PolicyConfig,
    apply_policy,
    apply_policy1,
    apply_policy2,
    apply_policy3,
    build_task_graph,
    config_for_graph,
)
from repro.core.policies import _first_fit


def gates_of(graph) -> set[str]:
    return {g for node in graph.nodes.values() for g in node.gates}


class TestPolicyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(split_threshold_j=0.0, merge_threshold_j=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(split_threshold_j=1.0, merge_threshold_j=2.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"split_threshold_j": float("nan")}, "split_threshold_j"),
            ({"split_threshold_j": float("inf")}, "split_threshold_j"),
            ({"merge_threshold_j": float("nan")}, "merge_threshold_j"),
            ({"merge_threshold_j": float("-inf")}, "merge_threshold_j"),
        ],
    )
    def test_rejects_malformed_field(self, kwargs, message):
        fields = {"split_threshold_j": 2.0, "merge_threshold_j": 1.0, **kwargs}
        with pytest.raises(ValueError, match=message):
            PolicyConfig(**fields)

    def test_holds_only_the_two_bounds(self):
        assert [f.name for f in dataclasses.fields(PolicyConfig)] == [
            "split_threshold_j", "merge_threshold_j",
        ]

    def test_accepts_boundary_values(self):
        assert PolicyConfig(split_threshold_j=1.0, merge_threshold_j=0.0)
        assert PolicyConfig(split_threshold_j=1.0, merge_threshold_j=1.0)

    def test_config_for_graph_brackets_mean(self, s27):
        graph = build_task_graph(s27)
        cfg = config_for_graph(graph)
        mean = graph.total_energy_j / len(graph)
        assert cfg.merge_threshold_j == pytest.approx(mean)
        assert cfg.split_threshold_j == pytest.approx(1.25 * mean)


class TestPolicy1Split:
    def test_splits_oversized_node(self, small_logic):
        # Build a coarse graph so nodes hold many gates, then split hard.
        graph = build_task_graph(small_logic, granularity="level")
        biggest = max(n.feature.energy_j for n in graph.nodes.values())
        cfg = PolicyConfig(
            split_threshold_j=biggest / 3.0, merge_threshold_j=0.0
        )
        result = apply_policy1(graph, cfg)
        assert len(result) > len(graph)
        result.check()
        assert gates_of(result) == gates_of(graph)

    def test_respects_threshold_for_multigate_nodes(self, small_logic):
        graph = build_task_graph(small_logic, granularity="level")
        biggest = max(n.feature.energy_j for n in graph.nodes.values())
        cfg = PolicyConfig(split_threshold_j=biggest / 2.5, merge_threshold_j=0.0)
        result = apply_policy1(graph, cfg)
        for node in result.nodes.values():
            if node.feature.n_gates > 1:
                # Multi-gate chunks stay near the threshold (block energy
                # includes shared static terms, so allow a margin).
                assert node.feature.energy_j <= cfg.split_threshold_j * 1.5

    def test_noop_when_under_threshold(self, s27):
        graph = build_task_graph(s27)
        cfg = PolicyConfig(split_threshold_j=1.0, merge_threshold_j=0.0)
        result = apply_policy1(graph, cfg)
        assert len(result) == len(graph)

    def test_single_gate_nodes_never_split(self, s27):
        graph = build_task_graph(s27)
        cfg = PolicyConfig(split_threshold_j=1e-20, merge_threshold_j=0.0)
        result = apply_policy1(graph, cfg)
        assert len(result) == len(graph)


class TestPolicy2Merge:
    def test_merges_small_nodes(self, small_logic):
        graph = build_task_graph(small_logic)
        cfg = config_for_graph(graph, split_fraction=8.0, merge_fraction=4.0)
        result = apply_policy2(graph, cfg)
        assert len(result) < len(graph)
        result.check()
        assert gates_of(result) == gates_of(graph)

    def test_merged_nodes_respect_cap(self, small_logic):
        graph = build_task_graph(small_logic)
        cfg = config_for_graph(graph, split_fraction=6.0, merge_fraction=3.0)
        result = apply_policy2(graph, cfg)
        for node in result.nodes.values():
            if node.feature.n_gates > 1:
                assert node.feature.energy_j <= cfg.split_threshold_j * 1.5

    def test_acyclic_after_merge(self, small_fsm):
        graph = build_task_graph(small_fsm)
        cfg = config_for_graph(graph, split_fraction=10.0, merge_fraction=5.0)
        result = apply_policy2(graph, cfg)
        result.topological_nodes()  # raises on cycles

    def test_balanced_tree_merge_shape(self):
        tree = balanced_tree_circuit(8)
        graph = build_task_graph(tree)
        cfg = config_for_graph(graph, split_fraction=4.0, merge_fraction=2.0)
        result = apply_policy2(graph, cfg)
        assert len(result) < 7


class TestPolicy3Hybrid:
    def test_applies_both_directions(self, small_logic):
        graph = build_task_graph(small_logic, granularity="level")
        energies = sorted(n.feature.energy_j for n in graph.nodes.values())
        cfg = PolicyConfig(
            split_threshold_j=energies[-1] * 0.8,
            merge_threshold_j=energies[0] * 1.5,
        )
        result = apply_policy3(graph, cfg)
        result.check()
        assert gates_of(result) == gates_of(graph)

    def test_dispatch(self, s27):
        graph = build_task_graph(s27)
        cfg = config_for_graph(graph)
        for policy in (1, 2, 3):
            apply_policy(graph, policy, cfg).check()
        with pytest.raises(ValueError, match="unknown policy"):
            apply_policy(graph, 4, cfg)

    def test_deterministic(self, small_logic):
        graph = build_task_graph(small_logic)
        cfg = config_for_graph(graph, split_fraction=5.0, merge_fraction=2.5)
        a = apply_policy3(graph, cfg)
        b = apply_policy3(graph, cfg)
        assert sorted(a.nodes) == sorted(b.nodes)
        assert {n: a.nodes[n].gates for n in a.nodes} == {
            n: b.nodes[n].gates for n in b.nodes
        }

    def test_input_graph_unchanged(self, s27):
        graph = build_task_graph(s27)
        before = {n: graph.nodes[n].gates for n in graph.nodes}
        cfg = config_for_graph(graph, split_fraction=5.0, merge_fraction=2.0)
        apply_policy3(graph, cfg)
        assert {n: graph.nodes[n].gates for n in graph.nodes} == before


# ---------------------------------------------------------------------------
# First-fit packing: the min-tree must pick exactly the linear scan's bins.
# ---------------------------------------------------------------------------

SUBNORMAL = 5e-324


def linear_first_fit(sizes, cap_j):
    """Scan every open bin in opening order (the reference first fit)."""
    bins = []
    for i, size in enumerate(sizes):
        for b, (members, total) in enumerate(bins):
            if total + size <= cap_j:
                members.append(i)
                bins[b] = (members, total + size)
                break
        else:
            bins.append(([i], size))
    return [members for members, _total in bins]


# Few distinct values (duplicates, zeros), dyadic eighths (sums exact, so
# totals land on the cap), subnormals, and arbitrary floats.
energies = st.one_of(
    st.sampled_from([0.0, SUBNORMAL, 2 * SUBNORMAL, 0.25, 1.0]),
    st.integers(0, 24).map(lambda k: k / 8),
    st.floats(0.0, 4.0, allow_subnormal=True),
)


class TestFirstFit:
    @settings(max_examples=400, deadline=None)
    @given(
        sizes=st.lists(energies, max_size=70),
        decreasing=st.booleans(),
        data=st.data(),
    )
    def test_matches_linear_scan(self, sizes, decreasing, data):
        if decreasing:  # the order the level pass packs in
            sizes.sort(reverse=True)
        # The cap is a drawn value or the float sum of a prefix of sizes,
        # so some bin totals reach it exactly.
        prefix = data.draw(st.integers(0, len(sizes)))
        candidates = [sum(sizes[:prefix]), 0.0, SUBNORMAL, 1.0, 2.0]
        cap = data.draw(
            st.one_of(st.sampled_from(candidates), st.floats(0.0, 8.0))
        )
        assert _first_fit(sizes, cap) == linear_first_fit(sizes, cap)

    @pytest.mark.parametrize(
        "sizes, cap, bins",
        [
            ([], 1.0, []),
            ([0.5, 0.25, 0.25, 0.5], 1.0, [[0, 1, 2], [3]]),
            ([3.0, 0.5, 2.0, 0.5], 1.0, [[0], [1, 3], [2]]),
            ([0.0, 0.0, 0.0], 0.0, [[0, 1, 2]]),
            ([SUBNORMAL, SUBNORMAL, SUBNORMAL], SUBNORMAL, [[0], [1], [2]]),
        ],
    )
    def test_examples(self, sizes, cap, bins):
        assert _first_fit(sizes, cap) == bins == linear_first_fit(sizes, cap)
