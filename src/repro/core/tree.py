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

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

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


#: A node as the policy passes hand it over: ``(node_id, gates)``.
NodePair = tuple[str, tuple[str, ...]]

#: A node as the graph builders take it: a :class:`TaskNode` (its feature
#: record is ignored) or a :data:`NodePair`.
NodeSpec = TaskNode | NodePair


def _unpack(nodes: Iterable[NodeSpec]) -> tuple[list[str], list[tuple[str, ...]]]:
    """Node ids and gate tuples of ``nodes``, in the given order."""
    pairs = [(n.node_id, n.gates) if isinstance(n, TaskNode) else n for n in nodes]
    ids = list(map(itemgetter(0), pairs))
    gates = list(map(itemgetter(1), pairs))
    if not all(gates):
        empty = next(nid for nid, members in pairs if not members)
        raise TreeError(f"node {empty!r} contains no gates")
    if len(set(ids)) != len(ids):
        duplicate = next(nid for nid, count in Counter(ids).items() if count > 1)
        raise TreeError(f"duplicate node id {duplicate!r}")
    return ids, gates


class TaskGraph:
    """A levelized DAG of task nodes over a synthesized netlist.

    A graph is checked and costed when it is built: construction raises
    :class:`TreeError` on a broken invariant.  :meth:`derive` builds a
    graph from another and re-costs only the nodes whose gates changed.

    The graph is stored as flat per-node lists.  Node ``i`` is the
    ``i``-th node id in sort order, so ordering by index is ordering by
    id.  The lists are never changed after construction, which lets
    derived graphs share them.  :class:`TaskNode` objects exist only at
    the API edge (:attr:`nodes`, :meth:`topological_nodes`), built on
    first read.

    Attributes:
        netlist: the underlying circuit.
        report: its synthesis characterization.
        ids: node ids, sorted.
        gates: each node's gate tuple.
        order: node indices in the order the nodes were given (the
            order of :attr:`nodes`).
        pred: each node's predecessor indices, a sorted tuple.
        succ: each node's successor indices, a sorted tuple.
        topo: node indices in dependency order, ties broken by id.
        levels: node levels (sources at 1, as in the paper's figures).
        energies: energy of one evaluation of each node, joules.
        delays: critical-path delay through each node, seconds.
        fan_ins: nets each node reads from outside itself.
        fan_outs: nets each node drives that are observed outside it.

    Args:
        netlist: the underlying circuit.
        report: its synthesis characterization.
        nodes: the function nodes (a partition of the combinational
            gates), as :class:`TaskNode` objects or ``(id, gates)`` pairs.

    Raises:
        TreeError: if ``nodes`` violate an invariant.
    """

    def __init__(
        self,
        netlist: Netlist,
        report: SynthesisReport,
        nodes: Iterable[NodeSpec],
    ) -> None:
        self._build(netlist, report, nodes, None, None)

    def _build(
        self,
        netlist: Netlist,
        report: SynthesisReport,
        nodes: Iterable[NodeSpec],
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
        ids, gates = _unpack(nodes)
        self._check_partition(ids, gates)
        #: The replacement procedure's schedule order and live cut,
        #: memoized by :func:`repro.core.replacement.stage_schedule`.
        self._schedule: tuple | None = None
        self._view: dict[str, TaskNode] | None = None
        #: One slot for the per-index node objects, shared by graphs
        #: derived with nothing changed.
        self._objects: list[list[TaskNode] | None] = [None]
        if parent is None:
            self._structure = netlist.structure()
            self._outputs = set(netlist.outputs)
        else:
            self._structure, self._outputs = parent._structure, parent._outputs
        if parent is not None and absorbed_into is not None:
            source = self._contract(parent, ids, gates, absorbed_into)
            if source is None:
                return
        else:
            source = self._rank(ids, gates, parent)
            self._connect()
        self.topo, self.levels = self._sorted()
        self._cost(parent, source)

    def _rank(
        self,
        ids: list[str],
        gates: list[tuple[str, ...]],
        parent: "TaskGraph | None",
    ) -> list[int]:
        """Number the nodes by id; return each one's carried-over parent index.

        A node keeps the costs of the ``parent`` node with its id and
        gate tuple (-1: it is costed afresh).
        """
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = [ids[k] for k in by_id]
        self.gates = [gates[k] for k in by_id]
        order = [0] * len(ids)
        for i, k in enumerate(by_id):
            order[k] = i
        self.order = order
        if parent is None:
            return [-1] * len(ids)
        index, old_gates = parent.index, parent.gates
        return [
            p if p >= 0 and old_gates[p] == members else -1
            for p, members in zip(map(index.get, self.ids, repeat(-1)), self.gates)
        ]

    def _connect(self) -> None:
        """Predecessor and successor tuples built from gate fan-ins."""
        index, fanin = self._structure.index, self._structure.fanin
        owner = [-1] * len(fanin)  # nets no node owns map to -1
        for i, members in enumerate(self.gates):
            for gate in members:
                owner[index[gate]] = i
        pred: list[tuple[int, ...]] = []
        for i, members in enumerate(self.gates):
            if len(members) == 1:
                sources = set(map(owner.__getitem__, fanin[index[members[0]]]))
            else:
                sources = {owner[s] for gate in members for s in fanin[index[gate]]}
            sources.discard(i)
            sources.discard(-1)
            pred.append(tuple(sorted(sources)))
        succ: list[list[int]] = [[] for _ in pred]
        for i, preds in enumerate(pred):  # as i ascends, every list stays sorted
            for p in preds:
                succ[p].append(i)
        self.pred, self.succ = pred, list(map(tuple, succ))

    def _contract(
        self,
        parent: "TaskGraph",
        ids: list[str],
        gates: list[tuple[str, ...]],
        absorbed_into: Mapping[str, str],
    ) -> list[int] | None:
        """Copy ``parent``'s arrays, contracted through ``absorbed_into``.

        The nodes must be the parent's minus the absorbed ones, so node
        indices are the parent's with the absorbed ones left out (id order
        is kept).  An edge ``H1 -> H2`` exists iff some parent edge
        ``u -> v`` has ``u`` inside ``H1`` and ``v`` inside ``H2``
        (``H1 != H2``); only hosts and the neighbours of absorbed nodes
        are re-contracted, every other adjacency tuple is renumbered.

        Returns:
            Each node's carried-over parent index (-1 for a node whose
            gates changed), or None when nothing changed and every array,
            the node objects included, is the parent's.
        """
        index = parent.index
        try:
            absorbed = {index[a]: index[h] for a, h in absorbed_into.items()}
        except KeyError as exc:
            raise TreeError(f"node {exc.args[0]!r} is not in the parent graph") from None
        kept = [p for p in range(len(parent.ids)) if p not in absorbed]
        given = list(map(index.get, ids, repeat(-1)))
        if (
            len(given) != len(kept)
            or -1 in given
            or not absorbed.keys().isdisjoint(given)
            or not absorbed.keys().isdisjoint(absorbed.values())
        ):
            raise TreeError(
                "a contracted graph's nodes must be its parent's minus the "
                "absorbed ones, each absorbed into a node that is kept"
            )
        new_of = [0] * len(parent.ids)
        for k, p in enumerate(kept):
            new_of[p] = k
        for a, h in absorbed.items():
            new_of[a] = new_of[h]
        self.ids = list(map(parent.ids.__getitem__, kept))
        self.order = list(map(new_of.__getitem__, given))
        new_gates: list[tuple[str, ...]] = [()] * len(kept)
        self.gates = new_gates
        for k, members in zip(self.order, gates):
            new_gates[k] = members
        old_gates = parent.gates
        source = [p if new_gates[k] == old_gates[p] else -1 for k, p in enumerate(kept)]
        if not absorbed and -1 not in source:
            for name in ("index", "pred", "succ", "topo", "levels", "energies",
                         "delays", "fan_ins", "fan_outs", "_objects"):
                setattr(self, name, getattr(parent, name))
            return None
        members_of: dict[int, list[int]] = {}
        for a, h in absorbed.items():
            members_of.setdefault(new_of[h], [h]).append(a)
        remap = new_of.__getitem__
        for name, other in (("pred", parent.succ), ("succ", parent.pred)):
            old = getattr(parent, name)
            adjacency = [tuple(map(remap, old[p])) for p in kept]
            touched = set(members_of)
            for a in absorbed:
                touched.update(map(remap, other[a]))
            for k in touched:
                members = members_of.get(k) or (kept[k],)
                linked = set(map(remap, chain.from_iterable(map(old.__getitem__, members))))
                linked.discard(k)
                adjacency[k] = tuple(sorted(linked))
            setattr(self, name, adjacency)
        return source

    def derive(
        self,
        nodes: Iterable[NodeSpec],
        absorbed_into: Mapping[str, str] | None = None,
    ) -> "TaskGraph":
        """A new checked, costed graph over ``nodes`` that reuses this one.

        A new node with the id and gate tuple of a node here keeps that
        node's fan-in, fan-out, energy and delay; every other node is
        re-costed, and every level is re-derived.  This graph is never
        changed: the new graph copies what it keeps, and when nothing
        changes at all it shares this graph's arrays and node objects.
        The feature record on a :class:`TaskNode` passed in is never kept.

        Args:
            nodes: the new graph's nodes (TaskNodes or ``(id, gates)``
                pairs).
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
        self._check_partition(self.ids, self.gates)
        self._sorted()

    def _check_partition(self, ids: list[str], gates: list[tuple[str, ...]]) -> None:
        """Raise :class:`TreeError` unless ``gates`` own exactly the logic gates."""
        if self.report.netlist is self.netlist:
            comb = self.report.combinational_nets
        else:
            comb = frozenset(g.name for g in self.netlist.logic_gates)
        flat = list(chain.from_iterable(gates))
        owned = set(flat)
        if len(owned) == len(flat) and owned == comb:
            return
        if len(owned) != len(flat):
            owner: dict[str, str] = {}
            for nid, members in zip(ids, gates):
                for gate in members:
                    if gate in owner:
                        raise TreeError(
                            f"gate {gate!r} owned by both {owner[gate]!r} "
                            f"and {nid!r}"
                        )
                    owner[gate] = nid
        missing = comb - owned
        if missing:
            raise TreeError(f"gates not covered by any node: {sorted(missing)[:8]}")
        raise TreeError(f"nodes own non-combinational gates: {sorted(owned - comb)[:8]}")

    def _sorted(self) -> tuple[list[int], list[int]]:
        """Node indices in dependency order (ties broken by id), and levels.

        Raises:
            TreeError: if the node graph is cyclic.
        """
        succ = self.succ
        indeg = list(map(len, self.pred))
        levels = [1] * len(indeg)
        ready = [i for i, d in enumerate(indeg) if not d]
        order: list[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            level = levels[i] + 1
            for s in succ[i]:
                if levels[s] < level:
                    levels[s] = level
                indeg[s] -= 1
                if not indeg[s]:
                    ready.append(s)
        if len(order) != len(indeg):
            stuck = [self.ids[i] for i, d in enumerate(indeg) if d > 0][:8]
            raise TreeError(f"cycle among task nodes: {stuck}")
        return order, levels

    # -- annotations ------------------------------------------------------------

    def _cost(self, parent: "TaskGraph | None", source: list[int]) -> None:
        """Fan-in, fan-out, energy and delay of every node.

        They depend only on a node's gates, so a node with a ``source``
        index copies the ``parent`` node's; the rest (-1) are costed with
        the synthesis report's analytic model.
        """
        if parent is None:
            n = len(source)
            fan_ins, fan_outs = [0] * n, [0] * n
            energies, delays = [0.0] * n, [0.0] * n
        else:  # copy by index; the -1 entries are overwritten below
            fan_ins = list(map(parent.fan_ins.__getitem__, source))
            fan_outs = list(map(parent.fan_outs.__getitem__, source))
            energies = list(map(parent.energies.__getitem__, source))
            delays = list(map(parent.delays.__getitem__, source))
        structure = self._structure
        index, fanin, fanout = structure.index, structure.fanin, structure.fanout
        outputs = self._outputs
        report = self.report
        all_gates = self.gates
        for k in [k for k, p in enumerate(source) if p < 0]:
            gates = all_gates[k]
            if len(gates) == 1:  # a combinational gate never reads itself
                (gate,) = gates
                g = index[gate]
                fan_ins[k] = len(set(fanin[g]))
                fan_outs[k] = int(gate in outputs or bool(fanout[g]))
                energies[k], delays[k] = report.gate_cost(gate)
                continue
            inside = set(map(index.__getitem__, gates))
            external: set[int] = set()
            outs = 0
            for gate in gates:
                g = index[gate]
                external.update(fanin[g])
                if gate in outputs or not inside.issuperset(fanout[g]):
                    outs += 1
            fan_ins[k], fan_outs[k] = len(external - inside), outs
            energies[k], delays[k] = report.block_cost(gates)
        self.fan_ins, self.fan_outs = fan_ins, fan_outs
        self.energies, self.delays = energies, delays

    # -- API edge: string ids and node objects -------------------------------

    @cached_property
    def index(self) -> dict[str, int]:
        """Node id -> node index."""
        return {nid: i for i, nid in enumerate(self.ids)}

    def _node_objects(self) -> list[TaskNode]:
        """One :class:`TaskNode` per index, built on first read."""
        objects = self._objects[0]
        if objects is None:
            gates, levels = self.gates, self.levels
            fan_ins, fan_outs = self.fan_ins, self.fan_outs
            energies, delays = self.energies, self.delays
            objects = self._objects[0] = [
                TaskNode(
                    nid,
                    gates[i],
                    FeatureDict(
                        fan_ins[i], fan_outs[i], levels[i],
                        energies[i], delays[i], len(gates[i]),
                    ),
                )
                for i, nid in enumerate(self.ids)
            ]
        return objects

    @property
    def nodes(self) -> dict[str, TaskNode]:
        """Node id -> :class:`TaskNode`, in the order the nodes were given."""
        view = self._view
        if view is None:
            objects, ids = self._node_objects(), self.ids
            view = self._view = {ids[i]: objects[i] for i in self.order}
        return view

    @property
    def edges(self) -> dict[str, set[str]]:
        """Adjacency map: node id -> successor node ids."""
        ids, succ = self.ids, self.succ
        return {ids[i]: {ids[j] for j in succ[i]} for i in self.order}

    def successors(self, node_id: str) -> set[str]:
        """Successor node ids of ``node_id``."""
        ids = self.ids
        return {ids[j] for j in self.succ[self.index[node_id]]}

    def predecessors(self, node_id: str) -> set[str]:
        """Predecessor node ids of ``node_id``."""
        ids = self.ids
        return {ids[j] for j in self.pred[self.index[node_id]]}

    def topological_nodes(self) -> list[TaskNode]:
        """Nodes in dependency order.

        The order depends only on node ids and edges, never on node
        insertion order.
        """
        objects = self._node_objects()
        return [objects[i] for i in self.topo]

    def output_nets(self, node: TaskNode) -> set[str]:
        """Nets driven inside ``node`` that are observable outside it.

        These are the bits an NVM barrier at this node has to commit.
        """
        index, fanout = self._structure.index, self._structure.fanout
        inside = set(map(index.__getitem__, node.gates))
        outputs = self._outputs
        return {
            gate
            for gate in node.gates
            if gate in outputs or not inside.issuperset(fanout[index[gate]])
        }

    # -- aggregate views ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Maximum node level."""
        return max(self.levels, default=0)

    @property
    def total_energy_j(self) -> float:
        """Sum of node energies per full evaluation pass."""
        return sum(map(self.energies.__getitem__, self.order))

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph({self.netlist.name!r}, nodes={len(self.ids)}, "
            f"depth={self.depth})"
        )
