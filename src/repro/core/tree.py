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
from dataclasses import dataclass, field

from repro.core.feature import FeatureDict
from repro.circuits.netlist import Netlist
from repro.tech.synthesis import SynthesisReport


class TreeError(ValueError):
    """Raised when a task graph violates its invariants."""


@dataclass(slots=True)
class TaskNode:
    """One function node: an atomic unit of forward progress.

    Attributes:
        node_id: unique identifier within the graph.
        gates: names of the combinational gates folded into this node.
        feature: the node's feature dictionary.
    """

    node_id: str
    gates: tuple[str, ...]
    feature: FeatureDict = field(default_factory=FeatureDict)

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
        inside ``H1`` and ``v`` inside ``H2`` (``H1 != H2``).  A node that
        absorbed nothing and has no absorbed neighbour keeps its parent's
        adjacency sets (cached sets are never mutated in place).
        """
        succ, pred = parent.edges, parent._redges
        assert pred is not None
        members: dict[str, tuple[str, ...]] = {}
        for absorbed, host in absorbed_into.items():
            members[host] = members.get(host, (host,)) + (absorbed,)
        host_of = absorbed_into.get
        untouched = absorbed_into.keys().isdisjoint

        def contract(nid: str, adjacency: dict[str, set[str]]) -> set[str]:
            out: set[str] = set()
            for member in members.get(nid, (nid,)):
                for other in adjacency[member]:
                    host = host_of(other, other)
                    if host != nid:
                        out.add(host)
            return out

        edges: dict[str, set[str]] = {}
        redges: dict[str, set[str]] = {}
        for nid in self.nodes:
            if nid in members:
                edges[nid] = contract(nid, succ)
                redges[nid] = contract(nid, pred)
                continue
            out, into = succ[nid], pred[nid]
            edges[nid] = out if untouched(out) else contract(nid, succ)
            redges[nid] = into if untouched(into) else contract(nid, pred)
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

        A new node with the id and gate tuple of a node here keeps that
        node's gate-derived features when this graph is fresh; every other
        node is re-costed.  Levels are always re-derived.  Every node of
        the new graph gets a new feature record: a record the caller put
        on a node is never kept, so a pass may hand over its source
        node's record instead of building a placeholder.

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
        carried: set[str] = set()
        if self._fresh:
            for nid, node in graph.nodes.items():
                old = self.nodes.get(nid)
                if old is not None and old.gates == node.gates:
                    node.feature = old.feature
                    carried.add(nid)
        if absorbed_into is not None:
            graph._contract_edges(self, absorbed_into)
        graph.check()
        graph._refresh_features(carried)
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
            self._refresh_features(set())

    def _refresh_features(self, carried: set[str]) -> None:
        """Re-derive every level; re-cost every node not in ``carried``.

        Fan-in, fan-out, energy, delay and gate count depend only on a
        node's gates, so a ``carried`` node (same id and gates as in the
        graph it was derived from) keeps them.
        """
        order = self.topological_nodes()
        redges = self._redges
        assert redges is not None
        levels: dict[str, int] = {}
        for node in order:
            level = 0
            for p in redges[node.node_id]:
                if levels[p] > level:
                    level = levels[p]
            levels[node.node_id] = level + 1
        gates_of = self.netlist.gates
        fanout = self._netlist_fanout()
        outputs = self._netlist_outputs()
        report = self.report
        for node in order:
            nid = node.node_id
            if nid in carried:
                old = node.feature
                node.feature = FeatureDict(
                    fan_in=old.fan_in,
                    fan_out=old.fan_out,
                    level=levels[nid],
                    energy_j=old.energy_j,
                    delay_s=old.delay_s,
                    n_gates=old.n_gates,
                )
                continue
            inside = set(node.gates)
            external: set[str] = set()
            outs = 0
            for gate in node.gates:
                for src in gates_of[gate].inputs:
                    if src not in inside:
                        external.add(src)
                if gate in outputs or any(
                    c not in inside for c in fanout.get(gate, ())
                ):
                    outs += 1
            node.feature = FeatureDict(
                fan_in=len(external),
                fan_out=outs,
                level=levels[nid],
                energy_j=report.block_energy_j(node.gates),
                delay_s=report.block_critical_path_s(node.gates),
                n_gates=len(node.gates),
            )
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
