"""Structural levelization of a netlist's combinational core.

The DIAC tree generator (paper Fig. 1, step 3) can start from a
*levelized* view of the design: sources (primary inputs, constants,
flip-flop outputs) sit at level 0 and every combinational gate sits one
level above its deepest fan-in.
"""

from __future__ import annotations

from repro.circuits.netlist import Netlist


def levelize(netlist: Netlist) -> list[list[str]]:
    """Group every net of ``netlist`` by its ASAP level.

    Sources (primary inputs, constants, DFF outputs) are level 0.  A
    combinational gate's level is ``1 + max(level of fan-ins)``.  DFF cells
    themselves are placed at level 0 (their output is a source).

    Returns:
        ``by_level[k]`` lists the nets at level ``k`` in the netlist's
        topological order; ``len(by_level) - 1`` is the logic depth.
    """
    structure = netlist.structure()
    names, fanin = structure.names, structure.fanin
    gates = tuple(netlist.gates.values())
    levels = [0] * len(names)
    by_level: list[list[str]] = [[]]
    for i in structure.topo:
        if gates[i].is_combinational:
            level = levels[i] = 1 + max(map(levels.__getitem__, fanin[i]))
            if level == len(by_level):
                by_level.append([])
            by_level[level].append(names[i])
        else:
            by_level[0].append(names[i])
    return by_level
