"""Tree generator — paper Fig. 1, steps 1–3.

"The Tree Generator takes the high-level program, synthesizes it to
RTL-level HDL, SPICE netlists, etc., and generates an un-optimized tree,
where nodes contain functions and their power consumption, and edges
indicate their connections."

Our input is already a gate-level :class:`~repro.circuits.netlist.Netlist`
(the parsers and generators play the role of the high-level synthesis
front end).  This module characterizes the netlist through the synthesis
surrogate and produces the un-optimized :class:`~repro.core.tree.TaskGraph`
at a chosen initial granularity:

* ``gate`` — one node per combinational gate (the finest tree; policies
  then merge/split as needed),
* ``level`` — one node per (level, output-cone chunk), a coarser start
  that matches the paper's function-level illustrations.
"""

from __future__ import annotations

from repro.circuits.levelize import levelize
from repro.circuits.netlist import Netlist
from repro.core.tree import NodePair, TaskGraph
from repro.tech.synthesis import SynthesisReport, synthesize

#: Initial node granularities :func:`build_task_graph` accepts.
GRANULARITIES = ("gate", "level")


def build_task_graph(
    netlist: Netlist,
    report: SynthesisReport | None = None,
    granularity: str = "gate",
) -> TaskGraph:
    """Build the un-optimized task tree for ``netlist``.

    Args:
        netlist: circuit to convert.
        report: existing synthesis report; if omitted the netlist is
            synthesized here (paper step 2).
        granularity: ``"gate"`` or ``"level"`` initial node granularity.

    Returns:
        A checked, costed :class:`TaskGraph`.

    Raises:
        ValueError: for an unknown granularity.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if report is None:
        report = synthesize(netlist)
    if granularity == "gate":
        nodes = _gate_nodes(netlist)
    else:
        nodes = _level_nodes(netlist)
    return TaskGraph(netlist, report, nodes)


def _gate_nodes(netlist: Netlist) -> list[NodePair]:
    """One task node per combinational gate."""
    return [(g.name, (g.name,)) for g in netlist.logic_gates]


def _level_nodes(netlist: Netlist, max_gates_per_node: int = 8) -> list[NodePair]:
    """Group gates of the same level into chunks of bounded size.

    Produces the coarser "function"-style nodes of the paper's figures
    while keeping the partition/acyclicity invariants trivially true
    (grouping within a single level can never create cycles).
    """
    nodes: list[NodePair] = []
    for level, nets in enumerate(levelize(netlist)[1:], start=1):
        for chunk_no in range(0, len(nets), max_gates_per_node):
            chunk = nets[chunk_no : chunk_no + max_gates_per_node]
            nodes.append((f"L{level}_{chunk_no // max_gates_per_node}", tuple(chunk)))
    return nodes
