"""A plan is a barrier overlay on the shared stage graph.

The oracle is the clone-and-mutate placement the overlay replaced: it
copies every node into a mutable record, writes the barrier flag, commit
bits and accumulated energy onto the chosen records, and reads the
schedule back from those flags.  Every plan must place the same barriers
and report the same schedule, commit bits and accumulated energy, while
its ``graph`` stays the stage itself, unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from test_incremental_graph import assert_matches_rebuild

from repro.core import DiacConfig, DiacSynthesizer
from repro.core.replacement import (
    REG_FLAG_BITS,
    Partition,
    ReplacementCriteria,
    live_cut_profile,
    schedule_order,
)
from repro.core.tree import TaskGraph
from repro.dse import SynthesisCache
from repro.suite.registry import load_circuit

CIRCUITS = ("s27", "s298", "s838", "b05", "b12", "des")
BUDGET_DIVISORS = (2.0, 8.0, 32.0)


@dataclass
class MarkedNode:
    """A node copy carrying the barrier state the overlay moved to the plan."""

    node_id: str
    level: int
    energy_j: float
    delay_s: float
    nvm_barrier: bool = False
    barrier_bits: int = 0
    accumulated_j: float = 0.0


@dataclass
class OraclePlan:
    barriers: tuple[str, ...]
    commit_bits: tuple[int, ...]
    accumulated_j: tuple[float, ...]
    schedule: tuple[Partition, ...]


def oracle_plan(
    graph: TaskGraph, budget_j: float, criteria: ReplacementCriteria
) -> OraclePlan:
    """The replacement procedure on a mutable copy of ``graph``."""
    work = {
        nid: MarkedNode(nid, n.feature.level, n.feature.energy_j, n.feature.delay_s)
        for nid, n in graph.nodes.items()
    }
    order = sorted(work.values(), key=lambda n: (n.level, n.node_id))
    live = live_cut_profile(graph, schedule_order(graph))
    depth = max(max((n.level for n in order), default=0), 1)
    barriers: list[str] = []
    window: list[MarkedNode] = []
    running = 0.0

    def place_barrier() -> None:
        nonlocal window, running
        min_live = min(live[n.node_id] for n in window)
        best, best_score, cum_at_best, cum_so_far = None, -1.0, 0.0, 0.0
        for node in window:
            cum_so_far += node.energy_j
            score = (
                criteria.level_weight * (node.level / depth)
                + criteria.power_weight * (cum_so_far / running)
                + criteria.fanio_weight
                * ((min_live + 1.0) / (live[node.node_id] + 1.0))
            )
            if score > best_score:
                best, best_score, cum_at_best = node, score, cum_so_far
        assert best is not None
        best.nvm_barrier = True
        best.barrier_bits = live[best.node_id] + REG_FLAG_BITS
        best.accumulated_j = cum_at_best
        barriers.append(best.node_id)
        window = window[next(i for i, n in enumerate(window) if n is best) + 1 :]
        running = sum(n.energy_j for n in window)

    for node in order:
        window.append(node)
        running += node.energy_j
        while running > budget_j and len(window) > 1:
            place_barrier()
        if running > budget_j and len(window) == 1:
            place_barrier()

    partitions: list[Partition] = []
    current: list[MarkedNode] = []
    energy = delay = 0.0
    for node in order:
        current.append(node)
        energy += node.energy_j
        delay += node.delay_s
        if node.nvm_barrier:
            ids = tuple(n.node_id for n in current)
            partitions.append(Partition(ids, energy, delay, node.barrier_bits))
            current, energy, delay = [], 0.0, 0.0
    if current or not partitions:
        final_bits = live[order[-1].node_id] + REG_FLAG_BITS
        ids = tuple(n.node_id for n in current)
        partitions.append(Partition(ids, energy, delay, final_bits))
    return OraclePlan(
        barriers=tuple(barriers),
        commit_bits=tuple(work[b].barrier_bits for b in barriers),
        accumulated_j=tuple(work[b].accumulated_j for b in barriers),
        schedule=tuple(partitions),
    )


def node_state(graph: TaskGraph) -> dict:
    return {nid: (n.gates, n.feature) for nid, n in graph.nodes.items()}


@pytest.fixture(scope="module")
def netlists():
    return {name: load_circuit(name) for name in CIRCUITS}


@pytest.mark.parametrize("policy", [1, 2, 3])
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_plans_equal_the_clone_and_mutate_oracle(netlists, circuit, policy):
    synth = DiacSynthesizer(DiacConfig(policy=policy))
    stage = synth.stage(netlists[circuit])
    before = node_state(stage)
    plans = []
    for divisor in BUDGET_DIVISORS:
        budget = stage.total_energy_j / divisor
        plan = synth.plan(stage, budget)
        want = oracle_plan(stage, budget, plan.criteria)
        assert plan.barriers == want.barriers
        assert plan.schedule() == want.schedule
        assert tuple(plan.commit_bits(b) for b in plan.barriers) == want.commit_bits
        assert plan.total_barrier_bits == sum(want.commit_bits)
        assert plan.accumulated_j == want.accumulated_j
        plans.append(plan)
    assert all(plan.graph is stage for plan in plans)
    assert plans[-1].n_barriers > plans[0].n_barriers > 0
    assert node_state(stage) == before
    assert_matches_rebuild(stage)


def test_cached_plans_share_the_cached_stage(netlists):
    cache = SynthesisCache()
    netlist = netlists["s298"]
    stage = cache.stage_for(netlist, DiacConfig())
    low, high = (
        cache.plan_for(netlist, DiacConfig(budget_j=stage.total_energy_j / d))
        for d in BUDGET_DIVISORS[:2]
    )
    assert low.barriers != high.barriers
    assert low.graph is high.graph is stage
    assert low.live_cut is high.live_cut
