"""Equivalence tests for the hot-path caches and ``SweepStats`` rates.

Memoized block costing, the cached topological order and the trace
fast path must produce exactly the numbers a from-scratch computation
produces; each test compares a warm cache against an oracle that never
reads it.
"""

from __future__ import annotations

import random

import pytest


def _kahn_order(netlist):
    """Gate names in a plain Kahn topological sort of ``netlist``.

    The from-scratch oracle for :meth:`Netlist.topological_order`:
    sources and DFFs start ready, and ready nets are taken LIFO in
    gate-insertion order.
    """
    indegree = {}
    consumers = {}
    for gate in netlist.gates.values():
        if gate.is_source or gate.is_sequential:
            indegree[gate.name] = 0
            continue
        indegree[gate.name] = len(gate.inputs)
        for src in gate.inputs:
            consumers.setdefault(src, []).append(gate.name)
    ready = [name for name, degree in indegree.items() if degree == 0]
    order = []
    while ready:
        name = ready.pop()
        order.append(name)
        for consumer in consumers.get(name, ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    assert len(order) == len(netlist.gates)
    return order


class TestOptimizationEquivalence:
    """The hot-path optimizations must not change a single number."""

    def test_block_cost_memo_equivalence(self, s27):
        """Warm memoized block costs equal each block's first computation.

        The oracle is the first call for a block on a freshly
        synthesized report, whose memo is still empty, so the value is
        computed from the timing tables and never read from a cache.
        """
        from repro.tech.synthesis import synthesize

        gates = [g.name for g in s27.logic_gates]
        blocks = [tuple(gates[:i]) for i in range(1, len(gates) + 1)]
        warm = synthesize(s27)
        for _round in range(2):
            for block in blocks:
                warm.block_energy_j(block)
                warm.block_critical_path_s(block)
        assert warm._cost_cache

        def fresh():
            report = synthesize(s27)
            assert not report._cost_cache
            return report

        assert warm.total_dynamic_energy_j == fresh().total_dynamic_energy_j
        assert warm.static_energy_j() == fresh().static_energy_j()
        for block in blocks:
            assert warm.block_energy_j(block) == fresh().block_energy_j(block)
            assert warm.block_critical_path_s(block) == (
                fresh().block_critical_path_s(block)
            )

    def test_repeated_costing_identical(self, s27):
        from repro.tech.synthesis import synthesize

        report = synthesize(s27)
        gates = [g.name for g in s27.logic_gates][:5]
        first = report.block_energy_j(gates)
        assert all(
            report.block_energy_j(gates) == first for _ in range(3)
        )

    def test_execution_results_identical(self):
        """The cached gate execution order equals a from-scratch sort.

        Every evaluator walks ``topological_order()``; the cached order
        must be the one a plain Kahn sort produces, before and after the
        netlist grows.
        """
        from repro.circuits import GateType
        from repro.suite.registry import load_circuit

        netlist = load_circuit("s298")
        for _round in range(2):
            assert [g.name for g in netlist.topological_order()] == (
                _kahn_order(netlist)
            )
        last = next(reversed(netlist.gates))
        netlist.add_gate("grown", GateType.NOT, [last])
        for _round in range(2):
            assert [g.name for g in netlist.topological_order()] == (
                _kahn_order(netlist)
            )

    def test_netlist_topo_cache_tracks_growth(self, tiny_chain):
        """The cached order invalidates when the netlist grows."""
        from repro.circuits import GateType

        first = [g.name for g in tiny_chain.topological_order()]
        assert [g.name for g in tiny_chain.topological_order()] == first
        tiny_chain.add_gate("c", GateType.NOT, ["b"])
        grown = [g.name for g in tiny_chain.topological_order()]
        assert "c" in grown and len(grown) == len(first) + 1

    def test_netlist_fanout_cache_tracks_growth(self, tiny_chain):
        from repro.circuits import GateType

        assert tiny_chain.fanout_map()["a"] == ("b",)
        tiny_chain.add_gate("d", GateType.NOT, ["a"])
        assert tiny_chain.fanout_map()["a"] == ("b", "d")

    def test_trace_fast_path_matches_binary_search(self):
        """segment_at's last-index shortcut agrees with _index_at.

        The binary search is the oracle: whatever warm state
        ``_last_idx`` is in, the fast path must return exactly the
        segment and remainder the search-based formula produces.
        """
        import math

        from repro.energy.scenarios import resolve_scenario

        trace = resolve_scenario("paper-fig5").build()
        rng = random.Random(11)
        times = [rng.uniform(0.0, 5.0 * trace.period_s) for _ in range(400)]
        # Monotone queries (the executor's pattern) to warm the cache,
        # then random-order queries to force stale-hint misses.
        for t in sorted(times) + times:
            seg, remaining = trace.segment_at(t)
            local = math.fmod(t, trace.period_s)
            idx = trace._index_at(local)
            assert seg is trace.segments[idx]
            expected = trace._starts[idx] + seg.duration_s - local
            assert remaining == max(expected, 1e-15)


class TestSweepStatsDerived:
    def test_cache_hit_ratio_bounds(self):
        from repro.dse.engine import SweepStats

        assert SweepStats().cache_hit_ratio == 0.0
        cold = SweepStats(n_batches=4, synthesize_calls=4)
        assert cold.cache_hit_ratio == 0.0
        warm = SweepStats(n_batches=4, synthesize_calls=1)
        assert warm.cache_hit_ratio == pytest.approx(0.75)
        assert SweepStats(n_batches=2, synthesize_calls=5).cache_hit_ratio == 0.0

    def test_evals_per_s(self):
        from repro.dse.engine import SweepStats

        assert SweepStats().evals_per_s == 0.0
        stats = SweepStats(n_evaluated=10, wall_s=2.0)
        assert stats.evals_per_s == pytest.approx(5.0)
