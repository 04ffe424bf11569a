"""The DIAC task tree (a levelized DAG of function nodes).

Paper Fig. 1, step 3 produces "a feature dictionary (Dict.) and a
tree-based illustration" of the design: nodes are functions (cones of
gates) annotated with power, edges are dataflow.  Despite the paper's
"tree" vocabulary the structure is a DAG — reconvergent fanout is normal
in netlists — and this module implements it as such.

A :class:`TaskGraph` always satisfies two invariants, enforced by
:meth:`TaskGraph.check`:

* **partition** — every combinational gate of the underlying netlist
  belongs to exactly one node;
* **acyclicity** — the node-level dataflow graph has no cycles, so nodes
  can execute as atomic operations in level order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.core.feature import FeatureDict
from repro.circuits.netlist import Netlist
from repro.tech.synthesis import SynthesisReport


class TreeError(ValueError):
    """Raised when a task graph violates its invariants."""


#: The record of a node no graph has costed yet.
_UNCOSTED = FeatureDict()


@dataclass(frozen=True, slots=True)
class TaskNode:
    """One function node: an atomic unit of forward progress.

    Immutable, so a graph derived from another shares every node whose
    gates and level did not change.

    Attributes:
        node_id: unique identifier within the graph.
        gates: names of the combinational gates folded into this node.
        feature: the node's feature dictionary.
    """

    node_id: str
    gates: tuple[str, ...]
    feature: FeatureDict = _UNCOSTED

    def __post_init__(self) -> None:
        if not self.gates:
            raise TreeError(f"node {self.node_id!r} contains no gates")


class TaskGraph:
    """A levelized DAG of :class:`TaskNode` over a synthesized netlist.

    A graph tracks whether its feature dictionaries are *fresh* (equal to
    what a full :meth:`recompute_features` would write).  Graphs derived
    from a fresh graph (:meth:`derive`) re-cost only the nodes whose gate
    membership changed.

    Args:
        netlist: the underlying circuit.
        report: its synthesis characterization.
        nodes: the function nodes (a partition of the combinational gates).
    """

    def __init__(
        self,
        netlist: Netlist,
        report: SynthesisReport,
        nodes: Iterable[TaskNode],
    ) -> None:
        self.netlist = netlist
        self.report = report
        self.nodes: dict[str, TaskNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise TreeError(f"duplicate node id {node.node_id!r}")
            self.nodes[node.node_id] = node
        self._owner: dict[str, str] = {}
        for node in self.nodes.values():
            for gate in node.gates:
                if gate in self._owner:
                    raise TreeError(
                        f"gate {gate!r} owned by both {self._owner[gate]!r} "
                        f"and {node.node_id!r}"
                    )
                self._owner[gate] = node.node_id
        self._edges: dict[str, set[str]] | None = None
        self._redges: dict[str, set[str]] | None = None
        self._fanout: Mapping[str, tuple[str, ...]] | None = None
        self._outputs: set[str] | None = None
        self._topo_ids: list[str] | None = None
        #: The replacement procedure's schedule order and live cut,
        #: memoized by :func:`repro.core.replacement.stage_schedule`.
        self._schedule: tuple | None = None
        self._fresh = False

    # -- construction helpers -------------------------------------------------

    def owner_of(self, gate: str) -> str | None:
        """Node id owning ``gate``, or None for sources/FFs outside nodes."""
        return self._owner.get(gate)

    def _build_edges(self) -> None:
        edges: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        redges: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        for node in self.nodes.values():
            for gate in node.gates:
                for src in self.netlist.gates[gate].inputs:
                    src_owner = self._owner.get(src)
                    if src_owner is not None and src_owner != node.node_id:
                        edges[src_owner].add(node.node_id)
                        redges[node.node_id].add(src_owner)
        self._edges, self._redges = edges, redges

    def _contract_edges(
        self, parent: "TaskGraph", absorbed_into: Mapping[str, str]
    ) -> None:
        """Adjacency as ``parent``'s node edges contracted onto this graph.

        Exact when every node here is a union of ``parent`` nodes: an edge
        ``H1 -> H2`` exists iff some parent edge ``u -> v`` has ``u``
        inside ``H1`` and ``v`` inside ``H2`` (``H1 != H2``).  Only hosts
        and the neighbours of absorbed nodes are re-contracted; every
        other node keeps its parent's adjacency sets (cached sets are never
        mutated in place).
        """
        succ, pred = parent.edges, parent._redges
        assert pred is not None
        members: dict[str, tuple[str, ...]] = {}
        for absorbed, host in absorbed_into.items():
            members[host] = members.get(host, (host,)) + (absorbed,)
        host_of = absorbed_into.get

        def contract(nid: str, adjacency: dict[str, set[str]]) -> set[str]:
            out: set[str] = set()
            for member in members.get(nid, (nid,)):
                for other in adjacency[member]:
                    host = host_of(other, other)
                    if host != nid:
                        out.add(host)
            return out

        edges, redges = dict(succ), dict(pred)
        touched = set(members)
        for absorbed in absorbed_into:
            touched.update(edges.pop(absorbed), redges.pop(absorbed))
        touched.difference_update(absorbed_into)
        for nid in touched:
            edges[nid] = contract(nid, succ)
            redges[nid] = contract(nid, pred)
        self._edges, self._redges = edges, redges

    @property
    def edges(self) -> dict[str, set[str]]:
        """Adjacency map: node id -> successor node ids."""
        if self._edges is None:
            self._build_edges()
        assert self._edges is not None
        return self._edges

    def successors(self, node_id: str) -> set[str]:
        """Successor node ids of ``node_id``."""
        return self.edges[node_id]

    def predecessors(self, node_id: str) -> set[str]:
        """Predecessor node ids of ``node_id``."""
        if self._redges is None:
            self._build_edges()
        assert self._redges is not None
        return self._redges[node_id]

    def invalidate(self) -> None:
        """Drop cached adjacency and features (after mutating membership)."""
        self._edges = None
        self._redges = None
        self._topo_ids = None
        self._schedule = None
        self._fresh = False

    @property
    def features_fresh(self) -> bool:
        """Whether every feature equals what :meth:`recompute_features` writes."""
        return self._fresh

    def _netlist_fanout(self) -> Mapping[str, tuple[str, ...]]:
        """Cached netlist fanout map (the netlist is never mutated)."""
        if self._fanout is None:
            self._fanout = self.netlist.fanout_map()
        return self._fanout

    def _netlist_outputs(self) -> set[str]:
        """Cached primary-output set (the netlist is never mutated)."""
        if self._outputs is None:
            self._outputs = set(self.netlist.outputs)
        return self._outputs

    def derive(
        self,
        nodes: Iterable[TaskNode],
        absorbed_into: Mapping[str, str] | None = None,
    ) -> "TaskGraph":
        """A new checked, costed graph over ``nodes`` that reuses this one.

        When this graph is fresh, a new node with the id and gate tuple of
        a node here keeps that node's gate-derived features, and when its
        re-derived level is unchanged too, the new graph holds this
        graph's node object itself.  Every other node is re-costed.  The
        feature record a caller puts on a new node is never kept, so a
        pass may hand over its source node's record as a placeholder.

        Args:
            nodes: the new graph's nodes.
            absorbed_into: when every new node is a union of nodes here,
                maps each absorbed node id to the id of the new node that
                contains it (unmapped ids keep their own node).  The new
                adjacency is then this graph's contracted through the
                map; None rebuilds it from gate inputs.

        Raises:
            TreeError: if the new graph violates an invariant.
        """
        graph = TaskGraph(self.netlist, self.report, nodes)
        graph._fanout, graph._outputs = self._fanout, self._outputs
        if absorbed_into is not None:
            graph._contract_edges(self, absorbed_into)
            if not absorbed_into and graph.nodes.keys() == self.nodes.keys():
                # Same ids and edges: the topological order is this one's.
                graph._topo_ids = self._topo_ids
        graph.check()
        graph._refresh_features(self.nodes if self._fresh else {})
        return graph

    # -- invariants -----------------------------------------------------------

    def check(self) -> None:
        """Verify the partition and acyclicity invariants.

        Raises:
            TreeError: on any violation.
        """
        if self.report.netlist is self.netlist:
            comb = self.report.combinational_nets()
        else:
            comb = frozenset(g.name for g in self.netlist.logic_gates)
        owned = self._owner.keys()
        if owned != comb:
            missing = comb - owned
            extra = owned - comb
            if missing:
                raise TreeError(
                    f"gates not covered by any node: {sorted(missing)[:8]}"
                )
            raise TreeError(
                f"nodes own non-combinational gates: {sorted(extra)[:8]}"
            )
        self.topological_nodes()  # raises on cycles

    def topological_nodes(self) -> list[TaskNode]:
        """Nodes in dependency order (cached until :meth:`invalidate`).

        The order depends only on node ids and edges, never on node
        insertion order.

        Raises:
            TreeError: if the node graph is cyclic.
        """
        if self._topo_ids is not None:
            # Integrity guard: a caller that added/removed/renamed nodes
            # without invalidate() must not get a stale order back.  A
            # count mismatch recomputes; a renamed id fails loudly below
            # (KeyError on the lookup).  Swapping a node's *gates* under
            # an unchanged id is undetectable here — that is the
            # documented invalidate() contract.
            if len(self._topo_ids) == len(self.nodes):
                return [self.nodes[nid] for nid in self._topo_ids]
            self._topo_ids = None
        edges = self.edges
        redges = self._redges
        assert redges is not None
        indeg = {nid: len(preds) for nid, preds in redges.items()}
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[TaskNode] = []
        while ready:
            nid = ready.pop()
            order.append(self.nodes[nid])
            succs = edges[nid]
            for succ in sorted(succs) if len(succs) > 1 else succs:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            stuck = sorted(nid for nid, d in indeg.items() if d > 0)[:8]
            raise TreeError(f"cycle among task nodes: {stuck}")
        self._topo_ids = [node.node_id for node in order]
        return order

    # -- annotations ------------------------------------------------------------

    def recompute_features(self) -> None:
        """Refresh every node's feature dictionary from the netlist/report.

        Levels follow the node DAG (sources at 1, as in the paper's
        figures); energy and delay come from the synthesis report's
        analytic model.  A no-op on a fresh graph.  Callers that mutate
        node *membership* must call :meth:`invalidate` first.
        """
        if not self._fresh:
            self._refresh_features({})

    def _refresh_features(self, previous: Mapping[str, TaskNode]) -> None:
        """Re-derive every level; re-cost every node not carried over.

        Fan-in, fan-out, energy, delay and gate count depend only on a
        node's gates, so a node with the id and gates of a node in
        ``previous`` (a fresh graph's nodes) keeps that node's costs, and
        is that very node when its level is unchanged too.  Nodes are
        never mutated: new ones replace old ones in :attr:`nodes`, which
        keeps their order.
        """
        nodes = self.nodes
        order = self.topological_nodes()
        redges = self._redges
        assert redges is not None
        gates_of = self.netlist.gates
        fanout = self._netlist_fanout()
        outputs = self._netlist_outputs()
        report = self.report
        levels: dict[str, int] = {}
        for node in order:
            nid = node.node_id
            level = 0
            for p in redges[nid]:
                if levels[p] > level:
                    level = levels[p]
            level += 1
            levels[nid] = level
            old = previous.get(nid)
            if old is not None and (old is node or old.gates == node.gates):
                feature = old.feature
                if feature.level != level:
                    feature = FeatureDict(
                        feature.fan_in, feature.fan_out, level,
                        feature.energy_j, feature.delay_s, feature.n_gates,
                    )
                    old = TaskNode(nid, old.gates, feature)
                if old is not node:
                    nodes[nid] = old
                continue
            gates = node.gates
            if len(gates) == 1:
                (gate,) = gates
                inputs = gates_of[gate].inputs
                fan_in = len(set(inputs)) - (gate in inputs)
                consumers = fanout.get(gate, ())
                outs = int(
                    gate in outputs or consumers.count(gate) != len(consumers)
                )
                energy, delay = report.gate_cost(gate)
            else:
                inside = set(gates)
                external: set[str] = set()
                outs = 0
                for gate in gates:
                    for src in gates_of[gate].inputs:
                        if src not in inside:
                            external.add(src)
                    if gate in outputs or any(
                        c not in inside for c in fanout.get(gate, ())
                    ):
                        outs += 1
                fan_in = len(external)
                energy = report.block_energy_j(gates)
                delay = report.block_critical_path_s(gates)
            feature = FeatureDict(fan_in, outs, level, energy, delay, len(gates))
            nodes[nid] = TaskNode(nid, gates, feature)
        self._fresh = True

    def output_nets(self, node: TaskNode) -> set[str]:
        """Nets driven inside ``node`` that are observable outside it.

        These are the bits an NVM barrier at this node has to commit.
        """
        inside = set(node.gates)
        fanout = self._netlist_fanout()
        outs: set[str] = set()
        outputs = self._netlist_outputs()
        for gate in node.gates:
            consumers = fanout.get(gate, [])
            if any(c not in inside for c in consumers):
                outs.add(gate)
            elif gate in outputs:
                outs.add(gate)
        return outs

    # -- aggregate views ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Maximum node level."""
        return max((n.feature.level for n in self.nodes.values()), default=0)

    def level_nodes(self, level: int) -> list[TaskNode]:
        """Nodes at ``level``, sorted by id for determinism."""
        return sorted(
            (n for n in self.nodes.values() if n.feature.level == level),
            key=lambda n: n.node_id,
        )

    @property
    def total_energy_j(self) -> float:
        """Sum of node energies per full evaluation pass."""
        return sum(n.feature.energy_j for n in self.nodes.values())

    def energy_histogram(self) -> dict[str, float]:
        """Node-id -> energy map (for reports and plots)."""
        return {nid: n.feature.energy_j for nid, n in self.nodes.items()}

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph({self.netlist.name!r}, nodes={len(self.nodes)}, "
            f"depth={self.depth})"
        )
