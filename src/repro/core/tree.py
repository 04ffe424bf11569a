"""The DIAC task tree (a levelized DAG of function nodes).

Paper Fig. 1, step 3 produces "a feature dictionary (Dict.) and a
tree-based illustration" of the design: nodes are functions (cones of
gates) annotated with power, edges are dataflow.  Despite the paper's
"tree" vocabulary the structure is a DAG — reconvergent fanout is normal
in netlists — and this module implements it as such.

A :class:`TaskGraph` always satisfies two invariants, enforced when it
is built (and re-verified by :meth:`TaskGraph.check`):

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

    A graph is checked and costed when it is built: construction raises
    :class:`TreeError` on a broken invariant and replaces every node with
    one carrying its feature dictionary.  :meth:`derive` builds a graph
    from another and re-costs only the nodes whose gates changed.

    Args:
        netlist: the underlying circuit.
        report: its synthesis characterization.
        nodes: the function nodes (a partition of the combinational gates).

    Raises:
        TreeError: if ``nodes`` violate an invariant.
    """

    def __init__(
        self,
        netlist: Netlist,
        report: SynthesisReport,
        nodes: Iterable[TaskNode],
    ) -> None:
        self._build(netlist, report, nodes, None, None)

    def _build(
        self,
        netlist: Netlist,
        report: SynthesisReport,
        nodes: Iterable[TaskNode],
        parent: "TaskGraph | None",
        absorbed_into: Mapping[str, str] | None,
    ) -> None:
        """Index, connect, check and cost ``nodes``.

        With a ``parent``, the netlist views are shared, a node with the
        id and gates of a parent node keeps its costs, and a non-None
        ``absorbed_into`` contracts the parent's adjacency (see
        :meth:`derive`) instead of rebuilding it from gate inputs.
        """
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
        self._check_partition()
        #: The replacement procedure's schedule order and live cut,
        #: memoized by :func:`repro.core.replacement.stage_schedule`.
        self._schedule: tuple | None = None
        if parent is None:
            self._fanout = netlist.fanout_map()
            self._outputs = set(netlist.outputs)
        else:
            self._fanout, self._outputs = parent._fanout, parent._outputs
        self._edges: dict[str, set[str]]
        self._redges: dict[str, set[str]]
        topo_ids: list[str] | None = None
        if parent is None or absorbed_into is None:
            self._edges, self._redges = self._gate_edges()
        else:
            self._edges, self._redges = self._contract_edges(
                parent, absorbed_into
            )
            if not absorbed_into and self.nodes.keys() == parent.nodes.keys():
                # Same ids and edges: the topological order is the parent's.
                topo_ids = parent._topo_ids
        self._topo_ids = topo_ids or self._sorted_ids()
        self._cost(parent.nodes if parent is not None else {})

    def _gate_edges(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Successor and predecessor maps built from gate inputs."""
        edges: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        redges: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        for node in self.nodes.values():
            for gate in node.gates:
                for src in self.netlist.gates[gate].inputs:
                    src_owner = self._owner.get(src)
                    if src_owner is not None and src_owner != node.node_id:
                        edges[src_owner].add(node.node_id)
                        redges[node.node_id].add(src_owner)
        return edges, redges

    def _contract_edges(
        self, parent: "TaskGraph", absorbed_into: Mapping[str, str]
    ) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Adjacency as ``parent``'s node edges contracted onto this graph.

        Exact when every node here is a union of ``parent`` nodes: an edge
        ``H1 -> H2`` exists iff some parent edge ``u -> v`` has ``u``
        inside ``H1`` and ``v`` inside ``H2`` (``H1 != H2``).  Only hosts
        and the neighbours of absorbed nodes are re-contracted; every
        other node keeps its parent's adjacency sets (cached sets are never
        mutated in place).
        """
        succ, pred = parent._edges, parent._redges
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
        return edges, redges

    @property
    def edges(self) -> dict[str, set[str]]:
        """Adjacency map: node id -> successor node ids."""
        return self._edges

    def successors(self, node_id: str) -> set[str]:
        """Successor node ids of ``node_id``."""
        return self._edges[node_id]

    def predecessors(self, node_id: str) -> set[str]:
        """Predecessor node ids of ``node_id``."""
        return self._redges[node_id]

    def derive(
        self,
        nodes: Iterable[TaskNode],
        absorbed_into: Mapping[str, str] | None = None,
    ) -> "TaskGraph":
        """A new checked, costed graph over ``nodes`` that reuses this one.

        A new node with the id and gate tuple of a node here keeps that
        node's gate-derived features, and when its re-derived level is
        unchanged too, the new graph holds this graph's node object
        itself.  Every other node is re-costed.  The feature record a
        caller puts on a new node is never kept, so a pass may hand over
        its source node's record as a placeholder.

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
        graph = TaskGraph.__new__(TaskGraph)
        graph._build(self.netlist, self.report, nodes, self, absorbed_into)
        return graph

    # -- invariants -----------------------------------------------------------

    def check(self) -> None:
        """Verify the partition and acyclicity invariants.

        Raises:
            TreeError: on any violation.
        """
        self._check_partition()
        self._sorted_ids()

    def _check_partition(self) -> None:
        """Raise :class:`TreeError` unless nodes own exactly the logic gates."""
        if self.report.netlist is self.netlist:
            comb = self.report.combinational_nets
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

    def _sorted_ids(self) -> list[str]:
        """Node ids in dependency order, ties broken by id.

        Raises:
            TreeError: if the node graph is cyclic.
        """
        edges = self._edges
        indeg = {nid: len(preds) for nid, preds in self._redges.items()}
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            succs = edges[nid]
            for succ in sorted(succs) if len(succs) > 1 else succs:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            stuck = sorted(nid for nid, d in indeg.items() if d > 0)[:8]
            raise TreeError(f"cycle among task nodes: {stuck}")
        return order

    def topological_nodes(self) -> list[TaskNode]:
        """Nodes in dependency order.

        The order depends only on node ids and edges, never on node
        insertion order.
        """
        nodes = self.nodes
        return [nodes[nid] for nid in self._topo_ids]

    # -- annotations ------------------------------------------------------------

    def _cost(self, previous: Mapping[str, TaskNode]) -> None:
        """Derive every level; cost every node not carried over.

        Levels follow the node DAG (sources at 1, as in the paper's
        figures); energy and delay come from the synthesis report's
        analytic model.  Fan-in, fan-out, energy, delay and gate count
        depend only on a node's gates, so a node with the id and gates of
        a node in ``previous`` (a parent graph's nodes) keeps that node's
        costs, and is that very node when its level is unchanged too.
        Nodes are never mutated: new ones replace old ones in
        :attr:`nodes`, which keeps their order.
        """
        nodes = self.nodes
        redges = self._redges
        gates_of = self.netlist.gates
        fanout = self._fanout
        outputs = self._outputs
        report = self.report
        levels: dict[str, int] = {}
        for node in self.topological_nodes():
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
                energy, delay = report.block_cost(gates)
            feature = FeatureDict(fan_in, outs, level, energy, delay, len(gates))
            nodes[nid] = TaskNode(nid, gates, feature)

    def output_nets(self, node: TaskNode) -> set[str]:
        """Nets driven inside ``node`` that are observable outside it.

        These are the bits an NVM barrier at this node has to commit.
        """
        inside = set(node.gates)
        fanout = self._fanout
        outs: set[str] = set()
        outputs = self._outputs
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

    @property
    def total_energy_j(self) -> float:
        """Sum of node energies per full evaluation pass."""
        return sum(n.feature.energy_j for n in self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph({self.netlist.name!r}, nodes={len(self.nodes)}, "
            f"depth={self.depth})"
        )
