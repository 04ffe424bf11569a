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

from repro.core.tree import NodePair, TaskGraph, TreeError


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
    if not len(graph):
        raise TreeError("cannot derive a policy config for an empty graph")
    mean = graph.total_energy_j / len(graph)
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
    nothing is split the result shares every array of the input.

    Returns:
        A new checked graph; the input graph is not modified.
    """
    report = graph.report
    threshold = config.split_threshold_j
    ids, gates, energies = graph.ids, graph.gates, graph.energies
    new_nodes: list[NodePair] = []
    split = False
    for i in graph.topo:
        members = gates[i]
        if energies[i] <= threshold or len(members) == 1:
            new_nodes.append((ids[i], members))
            continue
        split = True
        ordered = sorted(members, key=report.topo_index.__getitem__)
        chunks: list[list[str]] = [[]]
        acc = 0.0
        for gate in ordered:
            cost = report.gate_cost(gate)[0]
            if chunks[-1] and acc + cost > threshold:
                chunks.append([])
                acc = 0.0
            chunks[-1].append(gate)
            acc += cost
        for n, chunk in enumerate(chunks):
            new_nodes.append((f"{ids[i]}.s{n}", tuple(chunk)))
    return graph.derive(new_nodes, absorbed_into=None if split else {})


# ---------------------------------------------------------------------------
# Policy 2 — merge.
# ---------------------------------------------------------------------------

#: A pass's output: the new nodes as ``(id, gates)`` pairs and the
#: absorbed-node -> host id map (empty when nothing merged).
_Pass = tuple[list[NodePair], dict[str, str]]


def _chain_merge_pass(graph: TaskGraph, threshold_j: float, cap_j: float) -> _Pass:
    """One pass of safe edge contractions.

    Nodes are visited by ascending energy (ties in node order).  A node
    below ``threshold_j`` is contracted with its single predecessor (no
    alternate path can re-enter it) or else its single successor (none
    can leave it), when neither was merged in this pass and the pair
    stays within ``cap_j``.
    """
    energies, pred, succ = graph.energies, graph.pred, graph.succ
    used = bytearray(len(energies))
    merged_into: dict[int, int] = {}
    for i in sorted(graph.order, key=energies.__getitem__):
        energy = energies[i]
        if energy >= threshold_j:
            break  # every later node is at least as large
        if used[i]:
            continue
        for neighbours in (pred[i], succ[i]):
            if len(neighbours) == 1:
                (partner,) = neighbours
                if not used[partner] and energy + energies[partner] <= cap_j:
                    used[i] = used[partner] = 1
                    merged_into[partner] = i
                    break
    if not merged_into:
        return [], {}
    ids, gates = graph.ids, graph.gates
    absorbed_by = {host: absorbed for absorbed, host in merged_into.items()}
    nodes = []
    for i in graph.order:
        if i in merged_into:
            continue
        members = gates[i]
        if i in absorbed_by:
            members = members + gates[absorbed_by[i]]
        nodes.append((ids[i], members))
    return nodes, {ids[a]: ids[h] for a, h in merged_into.items()}


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


def _level_pack_pass(graph: TaskGraph, threshold_j: float, cap_j: float) -> _Pass:
    """Bin-pack small same-level nodes together (first fit decreasing).

    Each level's nodes are taken in id order; those below ``threshold_j``
    are packed by decreasing energy (ties in id order) under ``cap_j``.
    """
    ids, gates, energies = graph.ids, graph.gates, graph.energies
    by_level: dict[int, list[int]] = {}
    for i, level in enumerate(graph.levels):  # index order is id order
        by_level.setdefault(level, []).append(i)
    absorbed_into: dict[str, str] = {}
    new_nodes: list[NodePair] = []
    for level in sorted(by_level):
        members = by_level[level]
        small = [i for i in members if energies[i] < threshold_j]
        new_nodes.extend((ids[i], gates[i]) for i in members if energies[i] >= threshold_j)
        small.sort(key=energies.__getitem__, reverse=True)
        for packed in _first_fit([energies[i] for i in small], cap_j):
            host = small[packed[0]]
            merged = gates[host]
            if len(packed) > 1:
                for k in packed[1:]:
                    absorbed_into[ids[small[k]]] = ids[host]
                merged = tuple(g for k in packed for g in gates[small[k]])
            new_nodes.append((ids[host], merged))
    return new_nodes, absorbed_into


def apply_policy2(graph: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Merge small nodes into larger ones (paper Policy 2).

    Alternates same-level bin-packing with chain contractions until the
    smallest node reaches :data:`MIN_FRACTION` of the largest, nothing
    below the merge threshold remains, or no safe merge exists.  No
    merged node exceeds the split threshold.  Each merged graph is
    derived from the previous one by contracting its adjacency.

    Returns:
        A new checked graph; the input graph is not modified.
    """
    current = graph
    cap = config.split_threshold_j
    for _pass in range(MAX_MERGE_PASSES):
        if not len(current):
            break
        floor = max(config.merge_threshold_j, MIN_FRACTION * max(current.energies))
        nodes, packed = _level_pack_pass(current, floor, cap)
        if packed:
            current = current.derive(nodes, packed)
        nodes, chained = _chain_merge_pass(current, floor, cap)
        if chained:
            current = current.derive(nodes, chained)
        if not packed and not chained:
            break
    if current is graph:  # nothing merged: return a copy, never the input
        ids, gates = graph.ids, graph.gates
        current = graph.derive([(ids[i], gates[i]) for i in graph.order], {})
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
