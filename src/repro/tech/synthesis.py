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
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.calibration import DEFAULT_ACTIVITY
from repro.circuits.levelize import critical_path_delay
from repro.circuits.netlist import Netlist
from repro.tech.library import DEFAULT_LIBRARY, CellTiming, StandardCellLibrary

@dataclass
class SynthesisReport:
    """Characterization tables for one synthesized netlist.

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
    _topo_index: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )
    _comb_nets: frozenset[str] | None = field(
        default=None, repr=False, compare=False
    )
    #: Memoized per-block costing results, keyed on (kind, block key).
    #: The granularity policies re-cost the same blocks across every
    #: merge/split pass; the timing tables are immutable after synthesis,
    #: so a block's cost never changes.
    _cost_cache: dict[tuple, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    def topo_index(self) -> dict[str, int]:
        """Net -> position in a topological order (cached)."""
        if self._topo_index is None:
            self._topo_index = {
                g.name: i for i, g in enumerate(self.netlist.topological_order())
            }
        return self._topo_index

    def combinational_nets(self) -> frozenset[str]:
        """Names of the netlist's combinational gates (cached)."""
        if self._comb_nets is None:
            self._comb_nets = frozenset(
                g.name for g in self.netlist.logic_gates
            )
        return self._comb_nets

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

    #: Entry cap for the per-report cost memo.  Reports pinned by a
    #: long-lived SynthesisCache see many distinct intermediate blocks
    #: over a generational search; past the cap the memo resets rather
    #: than grow without bound (values are recomputed identically).
    _COST_CACHE_MAX = 100_000

    def _memo(self, key: tuple, compute, block) -> float:
        """Memoized ``compute(block)``.

        Single-gate blocks are never stored: computing one costs less
        than a memo lookup, and a gate-granularity tree has one per gate.
        """
        if len(block) == 1:
            return compute(block)
        value = self._cost_cache.get(key)
        if value is None:
            if len(self._cost_cache) >= self._COST_CACHE_MAX:
                self._cost_cache.clear()
            value = compute(block)
            self._cost_cache[key] = value
        return value

    def dynamic_energy_j(self, nets: Iterable[str] | None = None) -> float:
        """Dynamic energy of a block per evaluation pass.

        Implements the paper's estimate ``≈ 2 Σ delay_i × dynamic_power_i``
        scaled by the switching activity (not every gate toggles on every
        pass).

        Args:
            nets: nets (gates) in the block; defaults to the whole netlist.
        """
        if nets is None:
            block = tuple(self.timing)
        else:
            block = tuple(nets)
        return self._memo(("dyn", block), self._dynamic_energy_j, block)

    def _dynamic_energy_j(self, block: tuple[str, ...]) -> float:
        # gate_cost repeats this (and _block_leakage_w) for one gate.
        total = 0.0
        for net in block:
            cell = self.timing[net]
            total += 2.0 * cell.delay_s * cell.dynamic_power_w
        return total * self.activity

    def static_energy_j(
        self, nets: Iterable[str] | None = None, cdp_s: float | None = None
    ) -> float:
        """Static (leakage) energy of a block over one evaluation pass.

        Implements ``≈ CDP × Σ static_power_i`` over the inactive gates —
        the paper notes that while one gate switches the others leak for the
        duration of the critical delay path.
        """
        if nets is None:
            block = tuple(self.timing)
        else:
            block = tuple(nets)
        if cdp_s is None:
            cdp_s = self.block_critical_path_s(block)
        leak = self._memo(("leak", block), self._block_leakage_w, block)
        return cdp_s * leak

    def _block_leakage_w(self, block: tuple[str, ...]) -> float:
        leak = sum(self.timing[n].static_power_w for n in block)
        # Exclude the single active gate's leakage share, per the paper.
        if block:
            leak -= max(0.0, min(self.timing[n].static_power_w for n in block))
        return leak

    def block_critical_path_s(self, nets: Iterable[str]) -> float:
        """Critical delay path restricted to a block of nets.

        Computes the longest chain of dependent gates *within* the block
        (fan-ins outside the block are treated as ready at time zero).
        Cost is O(k log k) in the block size, not the netlist size.
        """
        block = tuple(nets)
        return self._memo(("cdp", block), self._block_critical_path_s, block)

    def _block_critical_path_s(self, block: tuple[str, ...]) -> float:
        if len(block) == 1:
            return self.timing[block[0]].delay_s
        index = self.topo_index()
        block = sorted(block, key=index.__getitem__)
        members = set(block)
        arrival: dict[str, float] = {}
        worst = 0.0
        for name in block:
            gate = self.netlist.gates[name]
            start = max(
                (arrival.get(src, 0.0) for src in gate.inputs if src in members),
                default=0.0,
            )
            arrival[name] = start + self.timing[name].delay_s
            worst = max(worst, arrival[name])
        return worst

    def block_energy_j(self, nets: Iterable[str]) -> float:
        """Total (dynamic + static) energy of one evaluation of a block."""
        nets = tuple(nets)
        return self.dynamic_energy_j(nets) + self.static_energy_j(nets)

    def gate_cost(self, net: str) -> tuple[float, float]:
        """``(block_energy_j((net,)), block_critical_path_s((net,)))``.

        The one-gate block's energy and critical path in one step, with
        the same float expressions as the block methods: a one-gate
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

    @property
    def total_dynamic_energy_j(self) -> float:
        """Dynamic energy of one full evaluation pass of the netlist."""
        return self.dynamic_energy_j()

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
    netlist.validate()
    timing = {g.name: library.characterize(g) for g in netlist.gates.values()}
    delays = {net: cell.delay_s for net, cell in timing.items()}
    cpd = critical_path_delay(netlist, delays)
    return SynthesisReport(
        netlist=netlist,
        timing=timing,
        critical_path_s=cpd,
        activity=activity,
        library=library,
    )

