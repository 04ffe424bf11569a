"""Synthesis-tool surrogate (Synopsys DC + HSPICE stand-in).

The DIAC flow (paper Fig. 1, step 2) feeds the generated netlist through a
commercial synthesis/characterization flow and consumes only its power and
timing tables.  This module is that flow's surrogate: it maps every gate of
a netlist onto the 45 nm cell library and produces a
:class:`SynthesisReport` with the per-gate tables plus the paper's analytic
energy model:

* dynamic energy of a block ``≈ 2 × Σ delay_i × dynamic_power_i``
  (Section IV-A; the delay is doubled for a conservative estimate),
* static energy ``≈ CDP × Σ static_power_i`` where CDP is the critical
  delay path of the block and the sum excludes the currently active gate.

:meth:`SynthesisReport.block_cost` evaluates both terms and the CDP in one
step; the report holds no per-block memo, since the task-graph policies
rarely cost the same multi-gate block twice.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from repro.calibration import DEFAULT_ACTIVITY
from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.tech.library import DEFAULT_LIBRARY, CellTiming, StandardCellLibrary


@dataclass
class SynthesisReport:
    """Characterization tables for one synthesized netlist.

    A block of gates is costed in one step by :meth:`block_cost` (one
    gate by :meth:`gate_cost`) and is not memoized; the whole circuit's
    pass energy is computed once per report, as :attr:`logic_energy_j`.

    Attributes:
        netlist: the synthesized circuit.
        timing: per-net cell characterization.
        critical_path_s: combinational critical path delay, seconds.
        activity: assumed switching activity for combinational gates.
    """

    netlist: Netlist
    timing: dict[str, CellTiming]
    critical_path_s: float
    activity: float
    library: StandardCellLibrary = field(default=DEFAULT_LIBRARY, repr=False)

    @cached_property
    def topo_index(self) -> dict[str, int]:
        """Net -> position in the netlist's topological order."""
        structure = self.netlist.structure()
        order = map(structure.names.__getitem__, structure.topo)
        return dict(zip(order, range(len(structure.topo))))

    @cached_property
    def combinational_nets(self) -> frozenset[str]:
        """Names of the netlist's combinational gates."""
        return frozenset(g.name for g in self.netlist.logic_gates)

    # -- per-gate views ------------------------------------------------------

    def delay_of(self, net: str) -> float:
        """Propagation delay of the gate driving ``net``, seconds."""
        return self.timing[net].delay_s

    def dynamic_power_of(self, net: str) -> float:
        """Dynamic power of the gate driving ``net``, watts."""
        return self.timing[net].dynamic_power_w

    def static_power_of(self, net: str) -> float:
        """Leakage power of the gate driving ``net``, watts."""
        return self.timing[net].static_power_w

    # -- block-level analytic model (paper Section IV-A) ----------------------

    def _dynamic_energy_j(self, block: Iterable[str]) -> float:
        """``2 Σ delay_i × dynamic_power_i``, scaled by the activity."""
        total = 0.0
        for net in block:
            cell = self.timing[net]
            total += 2.0 * cell.delay_s * cell.dynamic_power_w
        return total * self.activity

    def block_cost(self, nets: Iterable[str]) -> tuple[float, float]:
        """``(energy_j, critical_path_s)`` of one evaluation of a block.

        The critical delay path (CDP) is the longest chain of dependent
        gates *within* the block; fan-ins outside it are ready at time
        zero, so the cost is O(k log k) in the block size.  The energy is
        the dynamic term plus the static one, ``CDP × Σ static_power_i``
        over the inactive gates: while one gate switches the others leak
        for the duration of the CDP, so the active gate's share (the
        least leakage in the block) is excluded.
        """
        block = tuple(nets)
        members = set(block)
        arrival: dict[str, float] = {}
        cdp = 0.0
        gates, timing = self.netlist.gates, self.timing
        for name in sorted(block, key=self.topo_index.__getitem__):
            start = 0.0  # delays are positive: the latest member input
            for src in gates[name].inputs:
                if src in members and arrival.get(src, 0.0) > start:
                    start = arrival[src]
            end = arrival[name] = start + timing[name].delay_s
            if end > cdp:
                cdp = end
        leakages = [self.timing[n].static_power_w for n in block]
        leak = sum(leakages) - max(0.0, min(leakages, default=0.0))
        return self._dynamic_energy_j(block) + cdp * leak, cdp

    def gate_cost(self, net: str) -> tuple[float, float]:
        """``block_cost((net,))`` for one gate, without the path walk.

        The same float expressions as :meth:`block_cost`: a one-gate
        block's path is the gate's delay, and its leakage term excludes
        the gate itself as the active one.
        """
        cell = self.timing[net]
        delay = cell.delay_s
        leak = cell.static_power_w
        leak -= max(0.0, leak)
        dynamic = 2.0 * delay * cell.dynamic_power_w * self.activity
        return dynamic + delay * leak, delay

    # -- whole-circuit figures ------------------------------------------------

    @cached_property
    def logic_energy_j(self) -> float:
        """Energy of one full evaluation pass of the netlist's gates.

        ``block_cost`` of the whole netlist, walked in topological order
        on gate indices.  Every gate is a member, so a fan-in is read at
        its arrival time, or at 0.0 while it is not visited yet (a
        flip-flop's data input, whose driver comes later).
        """
        structure = self.netlist.structure()
        fanin, timing = structure.fanin, self.timing
        delays = [timing[net].delay_s for net in structure.names]
        arrival = [0.0] * len(delays)
        cdp = 0.0
        for i in structure.topo:
            end = arrival[i] = (
                max(map(arrival.__getitem__, fanin[i]), default=0.0) + delays[i]
            )
            if end > cdp:
                cdp = end
        leakages = [cell.static_power_w for cell in timing.values()]
        leak = sum(leakages) - max(0.0, min(leakages, default=0.0))
        return self._dynamic_energy_j(timing) + cdp * leak

    @property
    def total_dynamic_energy_j(self) -> float:
        """Dynamic energy of one full evaluation pass of the netlist."""
        return self._dynamic_energy_j(self.timing)

    @property
    def total_static_power_w(self) -> float:
        """Total leakage power of the netlist, watts."""
        return sum(cell.static_power_w for cell in self.timing.values())

    @property
    def ff_clock_energy_j(self) -> float:
        """Clocking energy of all flip-flops per cycle."""
        return self.netlist.num_ffs * self.library.ff_clock_energy_j()

    def summary(self) -> dict[str, float]:
        """Headline numbers, for reports and logs."""
        return {
            "gates": float(self.netlist.num_gates),
            "ffs": float(self.netlist.num_ffs),
            "critical_path_ns": self.critical_path_s * 1e9,
            "dynamic_energy_pj": self.total_dynamic_energy_j * 1e12,
            "static_power_uw": self.total_static_power_w * 1e6,
        }


def synthesize(
    netlist: Netlist,
    library: StandardCellLibrary | None = None,
    activity: float = DEFAULT_ACTIVITY,
) -> SynthesisReport:
    """Characterize ``netlist`` against ``library``.

    This is the surrogate for paper Fig. 1 step 2 ("calculate power
    consumption using the commercial synthesis tool, including Synopsys DC
    and HSPICE").

    Args:
        netlist: circuit to characterize (validated as a side effect).
        library: cell library; defaults to the nominal 45 nm library.
        activity: switching-activity factor applied to dynamic energy.

    Returns:
        A :class:`SynthesisReport`.
    """
    if library is None:
        library = DEFAULT_LIBRARY
    if not 0.0 < activity <= 1.0:
        raise ValueError("activity must be in (0, 1]")
    structure = netlist.structure()
    # A cell's figures depend only on its type and arity: characterize
    # each such pair once and share the frozen record.
    cells: dict[tuple[GateType, int], CellTiming] = {}
    timing: dict[str, CellTiming] = {}
    for name, gate in netlist.gates.items():
        key = (gate.gtype, len(gate.inputs))
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = library.characterize(gate)
        timing[name] = cell
    # Critical path: sources and flip-flops start at their own delay,
    # a combinational gate at its latest fan-in's arrival plus its own.
    gates = tuple(netlist.gates.values())
    delays = [cell.delay_s for cell in timing.values()]
    fanin = structure.fanin
    arrival = [0.0] * len(delays)
    cpd = 0.0
    for i in structure.topo:
        if gates[i].is_combinational:
            end = arrival[i] = delays[i] + max(map(arrival.__getitem__, fanin[i]))
        else:
            end = arrival[i] = delays[i]
        if end > cpd:
            cpd = end
    return SynthesisReport(
        netlist=netlist,
        timing=timing,
        critical_path_s=cpd,
        activity=activity,
        library=library,
    )

