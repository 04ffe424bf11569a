"""Replacement procedure — NVM insertion (paper Fig. 1, steps 4–5).

"Given the modified tree, power budget, and NVM features, prioritizing
nodes and finding replacement points efficiently requires weighing
efficiency and resiliency."  Three criteria define the replacement policy:

* **(I)** nodes in the upper level (closer to the outputs) are preferred;
* **(II)** nodes or cones with higher power consumption are preferred;
* **(III)** nodes with higher fanin+fanout are preferred, since the write
  count shrinks by ``1/(fanin + fanout)`` — i.e. the criterion's intent is
  *write minimization*, which we implement exactly by scoring candidate
  positions with the live cut width of the execution schedule.

The traversal follows the paper: leaves upward (level by level, "in
parallel for all nodes at the same level"), accumulating ``P_total`` — the
energy consumed since the last barrier.  When the accumulation exceeds the
budget, a barrier is placed at the best-scoring node of the open window;
the barrier's dictionary is updated with ``P_total + P_n`` and the
accumulation restarts after it.

A note on fidelity: the paper's literal recurrence ("the summation of all
the previous nodes' power consumption") double-counts reconvergent fanout
— on a DAG it grows exponentially with depth.  We therefore accumulate
along the *levelized execution schedule* (each node counted exactly once),
which is the quantity the energy budget physically constrains: the work a
burst must fit between two commit opportunities.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.core.tree import TaskGraph, TaskNode
from repro.tech.cacti import MemoryArrayModel, backup_array_for
from repro.tech.nvm import MRAM, NvmTechnology

#: Bits of FSM bookkeeping (the Reg_Flag) committed alongside every barrier.
REG_FLAG_BITS = 3


@dataclass(frozen=True)
class ReplacementCriteria:
    """Weights for the three replacement criteria.

    Setting a weight to zero disables that criterion (used by the
    criteria-ablation bench).

    Attributes:
        level_weight: criterion I — prefer nodes closer to the outputs.
        power_weight: criterion II — prefer high-accumulated-power cones.
        fanio_weight: criterion III — prefer positions that minimize the
            number of NVM writes (narrow live cuts / high-fanio nodes).
    """

    level_weight: float = 1.0
    power_weight: float = 1.0
    fanio_weight: float = 1.0

    def __post_init__(self) -> None:
        if min(self.level_weight, self.power_weight, self.fanio_weight) < 0:
            raise ValueError("criteria weights must be non-negative")
        if self.level_weight + self.power_weight + self.fanio_weight == 0:
            raise ValueError("at least one criterion must be enabled")


@dataclass(frozen=True)
class Partition:
    """A run of task nodes between two consecutive NVM barriers.

    Attributes:
        node_ids: nodes executed in this partition, in schedule order.
        energy_j: total evaluation energy of the partition.
        delay_s: summed node delays along the schedule (the partition is
            executed as one atomic burst).
        commit_bits: bits written to NVM when the partition commits (the
            live schedule cut at the barrier plus the Reg_Flag).
    """

    node_ids: tuple[str, ...]
    energy_j: float
    delay_s: float
    commit_bits: int


def _schedule_indices(graph: TaskGraph) -> list[int]:
    """Node indices by (level, node id).

    A node's index is its id rank, so a stable sort of the indices by
    level is that order.  Sorting by level is a valid topological order
    because every edge strictly increases the level.
    """
    return sorted(range(len(graph)), key=graph.levels.__getitem__)


def schedule_order(graph: TaskGraph) -> list[TaskNode]:
    """Deterministic execution order: by (level, node id)."""
    nodes, ids = graph.nodes, graph.ids
    return [nodes[ids[i]] for i in _schedule_indices(graph)]


def _live_cut(graph: TaskGraph, order: list[int]) -> list[int]:
    """Per node index, the live values after it in schedule ``order``.

    A computed net is live while it still has unexecuted combinational
    consumers, feeds a flip-flop (pending next state), or is a primary
    output.
    """
    netlist = graph.netlist
    structure = netlist.structure()
    index, fanin = structure.index, structure.fanin
    # Per gate index: a combinational net's unexecuted combinational
    # input pins, -1 for any other net.
    remaining = [0 if g.is_combinational else -1 for g in netlist.gates.values()]
    persistent = set(map(index.__getitem__, netlist.outputs))
    for gate, ins in zip(netlist.gates.values(), fanin):
        if gate.is_combinational:
            for src in ins:
                if remaining[src] >= 0:
                    remaining[src] += 1
        elif gate.is_sequential:
            persistent.update(ins)
    gates = graph.gates
    live = 0
    profile = [0] * len(gates)
    for i in order:
        for gate in gates[i]:
            g = index[gate]
            if remaining[g] > 0 or g in persistent:
                live += 1
            for src in fanin[g]:
                left = remaining[src]
                if left < 0:
                    continue
                remaining[src] = left - 1
                if left == 1 and src not in persistent:
                    live -= 1
        profile[i] = live
    return profile


def live_cut_profile(
    graph: TaskGraph, order: list[TaskNode]
) -> dict[str, int]:
    """Live values crossing the schedule cut *after* each node executes.

    This is the number of bits a commit placed after that node must
    write (excluding the Reg_Flag).
    """
    indices = [graph.index[node.node_id] for node in order]
    live, ids = _live_cut(graph, indices), graph.ids
    return {ids[i]: live[i] for i in indices}


def stage_schedule(
    graph: TaskGraph,
) -> tuple[tuple[int, ...], list[int], Mapping[str, int]]:
    """``graph``'s schedule order and live cut, once.

    Returns the :func:`schedule_order` as node indices, the live cut
    indexed by node index, and the :func:`live_cut_profile` (keyed by
    node id).  None of them depends on the budget, so every plan over
    one stage graph shares them.  The memo lives on the graph, which
    never changes after it is built.  Two threads racing on a cold memo
    both store equal values.
    """
    if graph._schedule is None:
        order = _schedule_indices(graph)
        live, ids = _live_cut(graph, order), graph.ids
        graph._schedule = (tuple(order), live, {ids[i]: live[i] for i in order})
    return graph._schedule


@dataclass(frozen=True)
class NvmPlan:
    """Result of the replacement procedure: barriers over a stage graph.

    A plan is an overlay: ``graph`` is the shaped stage itself, shared by
    every plan over it and never mutated; the plan owns the barrier
    placement.  Frozen because one plan is shared by every design point
    that differs only in runtime knobs (see
    :class:`repro.dse.explorer.SynthesisCache`).

    Attributes:
        graph: the stage task graph the barriers are placed on.
        budget_j: the per-burst energy budget used.
        technology: NVM technology of the backup arrays.
        barriers: barrier node ids in schedule order.
        infeasible: nodes whose own energy exceeds the budget (the policy
            stage should have split them; they are reported, not hidden).
        criteria: the criteria weights used.
        accumulated_j: per barrier (parallel to ``barriers``), the energy
            accumulated since the previous barrier up to and including
            it — the paper's "Dict. updated with P_total + P_n".
    """

    graph: TaskGraph
    budget_j: float
    technology: NvmTechnology
    barriers: tuple[str, ...]
    infeasible: tuple[str, ...]
    criteria: ReplacementCriteria
    accumulated_j: tuple[float, ...]

    # -- derived views --------------------------------------------------------

    @property
    def live_cut(self) -> Mapping[str, int]:
        """The :func:`live_cut_profile` of ``graph``'s schedule."""
        return stage_schedule(self.graph)[2]

    def commit_bits(self, node_id: str) -> int:
        """Bits a commit after ``node_id`` writes: its live cut + Reg_Flag."""
        return self.live_cut[node_id] + REG_FLAG_BITS

    @property
    def n_barriers(self) -> int:
        """Number of NVM commit points inserted."""
        return len(self.barriers)

    @property
    def total_barrier_bits(self) -> int:
        """Total bits across all barrier commits (one pass writes this)."""
        return sum(self.commit_bits(b) for b in self.barriers)

    @property
    def max_commit_bits(self) -> int:
        """Largest single commit (sizes the backup array)."""
        return max((p.commit_bits for p in self.schedule()), default=REG_FLAG_BITS)

    def backup_array(self) -> MemoryArrayModel:
        """The CACTI-modelled backup array sized for the worst commit."""
        return backup_array_for(self.max_commit_bits, technology=self.technology)

    def schedule(self) -> tuple[Partition, ...]:
        """Execution schedule: partitions between barriers.

        Nodes run in (level, id) order; a partition closes at every
        barrier.  The final partition's cut degenerates to flip-flop state
        + primary outputs — the architectural snapshot needed to resume
        across reruns (Section IV-C assumption (1)).
        """
        return self._partitions

    @cached_property
    def _partitions(self) -> tuple[Partition, ...]:
        """:meth:`schedule`, computed once per plan.

        ``cached_property`` stores into the instance ``__dict__`` directly,
        which a frozen dataclass permits.
        """
        graph = self.graph
        order, live, _ = stage_schedule(graph)
        ids, energies, delays = graph.ids, graph.energies, graph.delays
        barriers = set(self.barriers)
        partitions: list[Partition] = []
        current: list[str] = []
        energy = 0.0
        delay = 0.0
        for i in order:
            current.append(ids[i])
            energy += energies[i]
            delay += delays[i]
            if ids[i] in barriers:
                partitions.append(
                    Partition(
                        node_ids=tuple(current),
                        energy_j=energy,
                        delay_s=delay,
                        commit_bits=live[i] + REG_FLAG_BITS,
                    )
                )
                current, energy, delay = [], 0.0, 0.0
        if current or not partitions:
            partitions.append(
                Partition(
                    node_ids=tuple(current),
                    energy_j=energy,
                    delay_s=delay,
                    commit_bits=(
                        live[order[-1]] + REG_FLAG_BITS if order else REG_FLAG_BITS
                    ),
                )
            )
        return tuple(partitions)

    def summary(self) -> dict[str, float]:
        """Headline plan numbers for reports."""
        partitions = self.schedule()
        return {
            "barriers": float(self.n_barriers),
            "partitions": float(len(partitions)),
            "total_bits": float(self.total_barrier_bits),
            "max_commit_bits": float(self.max_commit_bits),
            "mean_partition_energy_j": (
                sum(p.energy_j for p in partitions) / len(partitions)
            ),
            "infeasible_nodes": float(len(self.infeasible)),
        }


def insert_nvm(
    graph: TaskGraph,
    budget_j: float,
    technology: NvmTechnology = MRAM,
    criteria: ReplacementCriteria | None = None,
) -> NvmPlan:
    """Run the replacement procedure on ``graph``.

    Walks the levelized schedule accumulating energy; whenever the open
    window exceeds ``budget_j``, a barrier is placed at the window node
    that maximizes the criteria score, and accumulation restarts after it.
    Only the placement depends on the budget: the schedule order and live
    cut come from :func:`stage_schedule`, computed once per graph.

    Args:
        graph: task graph after policy application.  It becomes the
            plan's ``graph`` and is not modified (stale features are
            re-costed first).
        budget_j: per-burst energy budget — the work that must fit
            between two consecutive commit opportunities.
        technology: NVM technology for the backup arrays.
        criteria: criteria weights (defaults to all three enabled).

    Returns:
        An :class:`NvmPlan` whose barriers overlay ``graph``.

    Raises:
        ValueError: if the budget is not positive.
    """
    if budget_j <= 0:
        raise ValueError("budget_j must be positive")
    if criteria is None:
        criteria = ReplacementCriteria()
    order, live, _ = stage_schedule(graph)
    ids, levels, energies = graph.ids, graph.levels, graph.energies
    depth = max(graph.depth, 1)
    w_level = criteria.level_weight
    w_power = criteria.power_weight
    w_fanio = criteria.fanio_weight
    barriers: list[str] = []
    accumulated: list[float] = []
    infeasible: list[str] = []

    window: list[int] = []
    running = 0.0

    def place_barrier() -> None:
        """Choose the best node of the open window and commit there."""
        nonlocal window, running
        min_live = min([live[i] for i in window])
        best = -1
        best_score = -1.0
        cum_at_best = 0.0
        cum_so_far = 0.0
        for i in window:
            cum_so_far += energies[i]
            s_level = w_level * (levels[i] / depth)
            s_power = w_power * (cum_so_far / running)
            s_fanio = w_fanio * ((min_live + 1.0) / (live[i] + 1.0))
            score = s_level + s_power + s_fanio
            if score > best_score:
                best, best_score, cum_at_best = i, score, cum_so_far
        assert best >= 0
        barriers.append(ids[best])
        # Paper: "the node's Dict. is updated with the new power
        # consumption = Ptotal + Pn".
        accumulated.append(cum_at_best)
        # Nodes after the barrier open the next window.
        window = window[window.index(best) + 1 :]
        running = sum([energies[i] for i in window])

    for i in order:
        energy = energies[i]
        if energy > budget_j:
            infeasible.append(ids[i])
        window.append(i)
        running += energy
        while running > budget_j and len(window) > 1:
            place_barrier()
        if running > budget_j and len(window) == 1:
            # A single node exceeds the budget: commit right at it.
            place_barrier()
    return NvmPlan(
        graph=graph,
        budget_j=budget_j,
        technology=technology,
        barriers=tuple(barriers),
        infeasible=tuple(infeasible),
        criteria=criteria,
        accumulated_j=tuple(accumulated),
    )
