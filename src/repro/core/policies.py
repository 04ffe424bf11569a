"""Task-granularity policies — paper Section III-A and Fig. 2.

The tree generator emits an un-optimized tree; three policies reshape its
granularity against the harvester's characteristics:

* **Policy 1** — "Large components (functions) will be broken into smaller
  tasks with lower power to meet avg(F_power) < V_th << V_peak".  Best
  resiliency (small atomic units), worst performance (more boundaries).
* **Policy 2** — "Small components will be merged into larger components
  with a higher power to meet max(F_power) << V_th and
  min(F_power) = n% · Max".  Best performance, lowest resiliency.
* **Policy 3** — the hybrid: split everything above an upper energy bound,
  merge everything below a lower bound (the paper's worked example uses
  25 mJ / 20 mJ per operand).

All transforms preserve the two :class:`~repro.core.tree.TaskGraph`
invariants.  Safety arguments, used instead of expensive cycle checks:

* splitting one node into chunks that are contiguous in a global
  topological order can never create a cycle (any post-split cycle would
  collapse to a pre-split cycle);
* contracting an edge ``u → v`` is safe when ``u`` is ``v``'s only
  predecessor or ``v`` is ``u``'s only successor (no alternate path can
  exist);
* merging nodes of the *same level* is always safe, because every edge
  strictly increases the level, so no directed path connects two
  same-level nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.tree import TaskGraph, TaskNode, TreeError


#: The paper's "min(F_power) = n% · Max": Policy 2 keeps merging while
#: the smallest node is below this fraction of the largest.
MIN_FRACTION = 0.2

#: Termination guard on Policy 2's merge passes.  Merging also stops
#: at the first pass that merges nothing; this bound caps the rest.
MAX_MERGE_PASSES = 50


@dataclass(frozen=True)
class PolicyConfig:
    """Energy bounds steering the three policies.

    Attributes:
        split_threshold_j: upper bound; nodes above it are split
            (derived from V_th / the per-burst energy budget).  It is
            also the ceiling of a merged node ("max(F_power) << V_th").
        merge_threshold_j: lower bound; nodes below it are merge
            candidates.
    """

    split_threshold_j: float
    merge_threshold_j: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.split_threshold_j) and self.split_threshold_j > 0):
            raise ValueError(
                f"split_threshold_j must be finite and positive, "
                f"got {self.split_threshold_j!r}"
            )
        if not (math.isfinite(self.merge_threshold_j) and self.merge_threshold_j >= 0):
            raise ValueError(
                f"merge_threshold_j must be finite and >= 0, "
                f"got {self.merge_threshold_j!r}"
            )
        if self.merge_threshold_j > self.split_threshold_j:
            raise ValueError("merge threshold must not exceed split threshold")


def config_for_graph(
    graph: TaskGraph,
    split_fraction: float = 1.25,
    merge_fraction: float = 1.0,
) -> PolicyConfig:
    """Derive a :class:`PolicyConfig` from a graph's energy distribution.

    Bounds are expressed relative to the mean node energy, mirroring the
    paper's worked example where the upper/lower bounds bracket the typical
    operand cost (25 mJ / 20 mJ around ~22 mJ operands).
    """
    if not graph.nodes:
        raise TreeError("cannot derive a policy config for an empty graph")
    mean = graph.total_energy_j / len(graph.nodes)
    return PolicyConfig(
        split_threshold_j=split_fraction * mean,
        merge_threshold_j=merge_fraction * mean,
    )


# ---------------------------------------------------------------------------
# Policy 1 — split.
# ---------------------------------------------------------------------------


def apply_policy1(graph: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Split every node whose energy exceeds the split threshold.

    Chunks are contiguous runs of the node's gates in global topological
    order, greedily packed so each chunk stays at or under the threshold
    (single gates above the threshold become singleton chunks — gates are
    our atomic unit).  Nodes are emitted in topological order; when
    nothing is split the result shares every node and its adjacency.
    Unsplit nodes are handed over as they are; each chunk gets its source
    node's feature record as a placeholder, which
    :meth:`~repro.core.tree.TaskGraph.derive` replaces.

    Returns:
        A new checked graph; the input graph is not modified.
    """
    report = graph.report
    new_nodes: list[TaskNode] = []
    split = False
    for node in graph.topological_nodes():
        if node.feature.energy_j <= config.split_threshold_j or len(node.gates) == 1:
            new_nodes.append(node)
            continue
        split = True
        ordered = sorted(node.gates, key=report.topo_index.__getitem__)
        chunks: list[list[str]] = [[]]
        acc = 0.0
        for gate in ordered:
            cost = report.gate_cost(gate)[0]
            if chunks[-1] and acc + cost > config.split_threshold_j:
                chunks.append([])
                acc = 0.0
            chunks[-1].append(gate)
            acc += cost
        for i, chunk in enumerate(chunks):
            new_nodes.append(
                TaskNode(f"{node.node_id}.s{i}", tuple(chunk), node.feature)
            )
    return graph.derive(new_nodes, absorbed_into=None if split else {})


# ---------------------------------------------------------------------------
# Policy 2 — merge.
# ---------------------------------------------------------------------------


def _chain_merge_pass(
    graph: TaskGraph, threshold_j: float, cap_j: float
) -> tuple[list[TaskNode], dict[str, str]]:
    """One pass of safe edge contractions.

    Returns:
        The new nodes and the absorbed-node -> host map (empty when
        nothing merged).
    """
    merged_into: dict[str, str] = {}
    used: set[str] = set()
    energies = {nid: n.feature.energy_j for nid, n in graph.nodes.items()}
    order = sorted(graph.nodes, key=lambda nid: energies[nid])
    for nid in order:
        if nid in used or energies[nid] >= threshold_j:
            continue
        partner: str | None = None
        # Prefer contracting with the single predecessor or single successor.
        preds = graph.predecessors(nid)
        succs = graph.successors(nid)
        # Safe contractions: the single predecessor (no alternate path can
        # re-enter this node) or the single successor (no alternate path
        # can leave this node).
        candidates: list[str] = []
        if len(preds) == 1:
            candidates.append(next(iter(preds)))
        if len(succs) == 1:
            candidates.append(next(iter(succs)))
        for cand in candidates:
            if cand in used or cand == nid:
                continue
            if energies[nid] + energies[cand] <= cap_j:
                partner = cand
                break
        if partner is None:
            continue
        used.add(nid)
        used.add(partner)
        merged_into[partner] = nid
    if not merged_into:
        return [], merged_into
    absorbed_by = {host: absorbed for absorbed, host in merged_into.items()}
    nodes = []
    for nid, node in graph.nodes.items():
        if nid in merged_into:
            continue
        if nid in absorbed_by:
            gates = node.gates + graph.nodes[absorbed_by[nid]].gates
            node = TaskNode(nid, gates, node.feature)
        nodes.append(node)
    return nodes, merged_into


def _first_fit(sizes: list[float], cap_j: float) -> list[list[int]]:
    """First-fit bin packing of ``sizes``, in order, under ``cap_j``.

    Each size goes to the earliest-opened bin whose total ``t`` satisfies
    ``t + size <= cap_j``, else it opens a new bin; a bin's total grows as
    ``t + size``.  A min-tree over the bin totals finds that bin in
    O(log n) instead of scanning every open bin, and picks exactly the bin
    the scan would: round-to-nearest addition is monotone
    (``x <= y`` implies ``fl(x + e) <= fl(y + e)``), so
    ``min_total + size <= cap_j`` holds iff some bin in the subtree fits.

    Returns:
        The bins, in opening order, as lists of indices into ``sizes``.
    """
    bins: list[list[int]] = []
    width = 1
    while width < len(sizes):
        width *= 2
    # Leaves width.. hold bin totals (inf = not yet opened); node k holds
    # the minimum of nodes 2k and 2k+1.
    tree = [math.inf] * (2 * width)
    for i, size in enumerate(sizes):
        k = 1
        if tree[1] + size <= cap_j:
            while k < width:
                k *= 2
                if not tree[k] + size <= cap_j:
                    k += 1
        if 0 <= k - width < len(bins):
            bins[k - width].append(i)
            total = tree[k] + size
        else:
            k = width + len(bins)
            bins.append([i])
            total = size
        tree[k] = total
        k //= 2
        while k:
            left, right = tree[2 * k], tree[2 * k + 1]
            low = left if left <= right else right
            if tree[k] == low:
                break
            tree[k] = low
            k //= 2
    return bins


def _level_pack_pass(
    graph: TaskGraph, threshold_j: float, cap_j: float
) -> tuple[list[TaskNode], dict[str, str]]:
    """Bin-pack small same-level nodes together (first fit decreasing).

    Returns:
        The new nodes and the absorbed-node -> host map (empty when
        nothing merged).
    """
    absorbed_into: dict[str, str] = {}
    new_nodes: list[TaskNode] = []
    by_level: dict[int, list[TaskNode]] = {}
    for node in graph.nodes.values():
        by_level.setdefault(node.feature.level, []).append(node)
    for level in range(1, max(by_level, default=0) + 1):
        members = sorted(
            by_level.get(level, ()), key=lambda n: n.node_id
        )
        small = [n for n in members if n.feature.energy_j < threshold_j]
        new_nodes.extend(n for n in members if n.feature.energy_j >= threshold_j)
        small.sort(key=lambda n: n.feature.energy_j, reverse=True)
        sizes = [n.feature.energy_j for n in small]
        for packed in _first_fit(sizes, cap_j):
            host = small[packed[0]]
            if len(packed) > 1:
                for i in packed[1:]:
                    absorbed_into[small[i].node_id] = host.node_id
                gates = tuple(g for i in packed for g in small[i].gates)
                host = TaskNode(host.node_id, gates, host.feature)
            new_nodes.append(host)
    return new_nodes, absorbed_into


def apply_policy2(graph: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Merge small nodes into larger ones (paper Policy 2).

    Alternates same-level bin-packing with chain contractions until the
    smallest node reaches :data:`MIN_FRACTION` of the largest, nothing
    below the merge threshold remains, or no safe merge exists.  No
    merged node exceeds the split threshold.  Each merged graph is
    derived from the previous one: it shares the unchanged nodes and
    contracts the adjacency instead of rebuilding it.

    Returns:
        A new checked graph; the input graph is not modified.
    """
    current = graph
    cap = config.split_threshold_j
    for _pass in range(MAX_MERGE_PASSES):
        if not current.nodes:
            break
        energies = [n.feature.energy_j for n in current.nodes.values()]
        floor = max(config.merge_threshold_j, MIN_FRACTION * max(energies))
        nodes, packed = _level_pack_pass(current, floor, cap)
        if packed:
            current = current.derive(nodes, packed)
        nodes, chained = _chain_merge_pass(current, floor, cap)
        if chained:
            current = current.derive(nodes, chained)
        if not packed and not chained:
            break
    if current is graph:  # nothing merged: return a copy, never the input
        current = graph.derive(list(graph.nodes.values()), {})
    return current


# ---------------------------------------------------------------------------
# Policy 3 — hybrid.
# ---------------------------------------------------------------------------


def apply_policy3(graph: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Split above the upper bound, then merge below the lower bound.

    This is the paper's recommended operating point ("Policy3 ...
    simultaneously provides acceptable resiliency and efficiency", used for
    all Section IV results).
    """
    split_graph = apply_policy1(graph, config)
    return apply_policy2(split_graph, config)


def apply_policy(graph: TaskGraph, policy: int, config: PolicyConfig) -> TaskGraph:
    """Dispatch on policy number (1, 2 or 3)."""
    if policy == 1:
        return apply_policy1(graph, config)
    if policy == 2:
        return apply_policy2(graph, config)
    if policy == 3:
        return apply_policy3(graph, config)
    raise ValueError(f"unknown policy {policy!r}; expected 1, 2 or 3")
