"""Equivalence tests for the hot-path caches and ``SweepStats`` rates.

The cached topological order and the trace fast path must produce
exactly the numbers a from-scratch computation produces; each test
compares a warm cache against an oracle that never reads it.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.energy.harvester import HarvestSegment, HarvestTrace
from repro.energy.scenarios import ScenarioSpec, build_scenario_trace


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

    def test_execution_results_identical(self):
        """The cached gate execution order equals a from-scratch sort.

        Every evaluator walks ``topological_order()``; the cached order
        must be the one a plain Kahn sort produces on every roster
        circuit, and on ``s298`` before and after the netlist grows.
        """
        from repro.circuits import GateType
        from repro.suite.registry import ROSTER, load_circuit

        for info in ROSTER:
            netlist = load_circuit(info.name)
            assert [g.name for g in netlist.topological_order()] == (
                _kahn_order(netlist)
            ), info.name
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

        structure = tiny_chain.structure()
        a = structure.index["a"]
        assert [structure.names[i] for i in structure.fanout[a]] == ["b"]
        tiny_chain.add_gate("d", GateType.NOT, ["a"])
        structure = tiny_chain.structure()
        assert [structure.names[i] for i in structure.fanout[a]] == ["b", "d"]

    def test_trace_fast_path_matches_binary_search(self):
        """A cursor's last-hit and next-segment probes agree with _index_at.

        The binary search is the oracle: whatever position the cursor
        holds, it must return exactly the power and remainder the
        search-based formula produces, as must ``segment_at``, and
        ``energy_between`` exactly what a search-based walk sums.  The
        traces are the paper's, two many-segment stochastic ones and one
        whose rounding made starts equal; the queries cover the
        executor's ``t += remaining`` walk (each lands on a segment
        start), exact starts in later cycles, the wrap at ``period_s``
        and random order (a stale position).
        """
        traces = [
            *map(_scenario_trace, ("paper-fig5", "rf-markov@1", "kinetic-shot@1")),
            _tied_trace(),
        ]
        for trace in traces:
            _check_against_search(trace)

    def test_trace_walk_needs_no_search(self, monkeypatch):
        """The executor's forward walk is served by the two probes alone."""
        trace = _scenario_trace("rf-markov@1")
        searches = []
        search = trace._index_at

        def counted(local_s):
            searches.append(local_s)
            return search(local_s)

        monkeypatch.setattr(trace, "_index_at", counted)
        lookup = trace.cursor()
        t, steps = 0.0, 0
        while t < 3.0 * trace.period_s:
            t = _step(lookup, t)
            steps += 1
        assert steps > 3 * len(trace.segments)
        assert searches == []

    def test_interleaved_cursors_answer_as_separate_ones(self, monkeypatch):
        """Runs walking one shared trace never disturb each other.

        Interleaved, each cursor gives the answers it gives alone and
        needs no more binary searches: its position is its own.
        """
        for trace in (_scenario_trace("rf-markov@1"), _tied_trace()):
            period = trace.period_s
            rng = random.Random(5)
            walks = [
                _walk(trace.cursor(), 0.0, 3.0 * period),
                _walk(trace.cursor(), 0.37 * period, 4.0 * period),
                sorted(rng.uniform(0.0, 5.0 * period) for _ in range(200)),
            ]
            searches = []
            search = type(trace)._index_at

            def counted(local_s, trace=trace, search=search):
                searches.append(local_s)
                return search(trace, local_s)

            monkeypatch.setattr(trace, "_index_at", counted)
            alone = []
            for times in walks:
                lookup = trace.cursor()
                alone.append([lookup(t) for t in times])
            n_alone, searches[:] = len(searches), []
            cursors = [trace.cursor() for _ in walks]
            together = [[] for _ in walks]
            for step in range(max(map(len, walks))):
                for lookup, times, answers in zip(cursors, walks, together):
                    if step < len(times):
                        answers.append(lookup(times[step]))
            assert together == alone, trace.name
            assert len(searches) == n_alone, trace.name


def _check_against_search(trace):
    period = trace.period_s
    rng = random.Random(11)
    times = [rng.uniform(0.0, 5.0 * period) for _ in range(400)]
    walk = _walk(trace.cursor(), 0.0, 3.0 * period)
    starts = [
        cycle * period + start for cycle in (0, 1, 4) for start in trace._starts
    ]
    wrap = [
        t
        for cycle in (1, 2, 7)
        for t in (
            cycle * period,
            math.nextafter(cycle * period, 0.0),
            math.nextafter(cycle * period, math.inf),
            cycle * period - 1e-15,
        )
    ]
    # Monotone queries (the executor's pattern) warm the cursor, then
    # random-order queries force stale-position misses.
    lookup = trace.cursor()
    for t in walk + sorted(times) + starts + wrap + times + starts[::-1]:
        idx, expected = _searched(trace, t)
        assert lookup(t) == (trace.segments[idx].power_w, expected), (trace.name, t)
        seg, remaining = trace.segment_at(t)
        assert seg is trace.segments[idx], (trace.name, t)
        assert remaining == expected, (trace.name, t)

    windows = [
        (rng.uniform(0.0, 3.0 * period), rng.uniform(0.0, 2.5 * period))
        for _ in range(200)
    ]
    for t0, span in windows + [(t, 0.5 * period) for t in starts + wrap]:
        expected = _searched_energy(trace, t0, t0 + span)
        assert trace.energy_between(t0, t0 + span) == expected, (trace.name, t0)


def _step(lookup, t_s):
    """The executor's ``t += remaining`` step, kept moving past one ulp."""
    return max(t_s + lookup(t_s)[1], math.nextafter(t_s, math.inf))


def _walk(lookup, t0_s, t1_s):
    """The times a ``t += remaining`` walk from ``t0_s`` visits before ``t1_s``."""
    times = [t0_s]
    while times[-1] < t1_s:
        times.append(_step(lookup, times[-1]))
    return times


def _scenario_trace(name):
    return build_scenario_trace(ScenarioSpec.parse(name))


def _tied_trace():
    """A trace whose sub-ulp durations leave several equal ``_starts``."""
    trace = HarvestTrace(
        [
            HarvestSegment(1.0, 1e-4),
            HarvestSegment(1e-17, 2e-4),
            HarvestSegment(1e-17, 3e-4),
            HarvestSegment(0.5, 0.0),
            HarvestSegment(1e-17, 5e-4),
            HarvestSegment(0.25, 6e-5),
        ],
        name="tied",
    )
    assert trace._starts[1] == trace._starts[2] == trace._starts[3]
    return trace


def _searched(trace, t_s):
    """(index, time left) at ``t_s`` from the binary search alone."""
    local = math.fmod(t_s, trace.period_s)
    idx = trace._index_at(local)
    remaining = trace._starts[idx] + trace.segments[idx].duration_s - local
    return idx, max(remaining, 1e-15)


def _searched_energy(trace, t0_s, t1_s):
    """``energy_between`` with every segment lookup done by _index_at."""
    span = t1_s - t0_s
    if span <= 0.0:
        return 0.0
    full_cycles = math.floor(span / trace.period_s)
    total = full_cycles * trace.cycle_energy_j
    span -= full_cycles * trace.period_s
    idx, available = _searched(trace, t0_s)
    while span > 1e-15:
        dt = min(available, span)
        total += trace.segments[idx].power_w * dt
        span -= dt
        idx = (idx + 1) % len(trace.segments)
        available = trace.segments[idx].duration_s
    return total


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
