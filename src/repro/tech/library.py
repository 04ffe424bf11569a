"""A 45 nm standard-cell characterization library.

The paper extracts per-gate delay, dynamic power and static power from
HSPICE runs against the 45 nm NCSU PDK.  This module plays that role with a
table of representative 45 nm figures (FO4-class delays in picoseconds,
femtojoule-scale switching energies, nanowatt-scale leakage), plus simple
fan-in derating.  DIAC only ever consumes the resulting
``(delay, dynamic power, static power)`` triples, so any self-consistent
library preserves the paper's relative comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.calibration import CLOCK_PERIOD_S, FF_CLOCK_ACTIVITY
from repro.circuits.gates import GateType
from repro.circuits.netlist import Gate


@dataclass(frozen=True, slots=True)
class CellTiming:
    """Characterized figures for one cell instance.

    Attributes:
        delay_s: propagation delay (input 50% to output 50%), seconds.
        dynamic_energy_j: energy of one output transition, joules.
        static_power_w: leakage power, watts.
    """

    delay_s: float
    dynamic_energy_j: float
    static_power_w: float

    @property
    def dynamic_power_w(self) -> float:
        """Average switching power over one transition (paper's model input)."""
        if self.delay_s <= 0.0:
            return 0.0
        return self.dynamic_energy_j / self.delay_s


#: Base 2-input (or natural-arity) characterization at 45 nm, 1.0 V, 25 C:
#: (delay ps, dynamic energy fJ, leakage nW).
_BASE_45NM: dict[GateType, tuple[float, float, float]] = {
    GateType.NOT: (12.0, 0.70, 9.0),
    GateType.BUF: (22.0, 1.10, 11.0),
    GateType.NAND: (16.0, 1.10, 12.0),
    GateType.NOR: (19.0, 1.25, 13.0),
    GateType.AND: (26.0, 1.60, 16.0),
    GateType.OR: (28.0, 1.70, 17.0),
    GateType.XOR: (34.0, 2.60, 22.0),
    GateType.XNOR: (35.0, 2.70, 22.0),
    GateType.MUX: (30.0, 2.20, 20.0),
    GateType.DFF: (48.0, 4.20, 42.0),
    GateType.CONST0: (0.0, 0.0, 0.5),
    GateType.CONST1: (0.0, 0.0, 0.5),
    GateType.INPUT: (0.0, 0.0, 0.0),
}

#: Per-extra-input derating beyond the base arity of 2 (stacked transistors).
_DELAY_PER_EXTRA_INPUT_PS = 5.0
_ENERGY_PER_EXTRA_INPUT_FACTOR = 0.30
_LEAKAGE_PER_EXTRA_INPUT_FACTOR = 0.35


class StandardCellLibrary:
    """Characterization source for every gate in a netlist.

    Args:
        voltage_scale: supply scaling factor; delay scales ~1/V, dynamic
            energy ~V^2, leakage ~V (first-order models, default 1.0).
        process_corner: multiplicative delay factor for slow/fast corners.
    """

    def __init__(
        self, voltage_scale: float = 1.0, process_corner: float = 1.0
    ) -> None:
        if voltage_scale <= 0:
            raise ValueError("voltage_scale must be positive")
        self.voltage_scale = voltage_scale
        self.process_corner = process_corner
        self.clock_period_s = CLOCK_PERIOD_S

    def characterize(self, gate: Gate) -> CellTiming:
        """Characterized timing/power for one gate instance."""
        base = _BASE_45NM[gate.gtype]
        delay_ps, energy_fj, leak_nw = base
        extra = max(0, len(gate.inputs) - 2)
        if extra and gate.gtype not in (GateType.NOT, GateType.BUF, GateType.DFF):
            delay_ps += extra * _DELAY_PER_EXTRA_INPUT_PS
            energy_fj *= 1.0 + extra * _ENERGY_PER_EXTRA_INPUT_FACTOR
            leak_nw *= 1.0 + extra * _LEAKAGE_PER_EXTRA_INPUT_FACTOR
        v = self.voltage_scale
        return CellTiming(
            delay_s=delay_ps * 1e-12 * self.process_corner / v,
            dynamic_energy_j=energy_fj * 1e-15 * v * v,
            static_power_w=leak_nw * 1e-9 * v,
        )

    def ff_clock_energy_j(self) -> float:
        """Energy a flip-flop burns per clock edge (clock tree + internal)."""
        ff = _BASE_45NM[GateType.DFF]
        return ff[1] * 1e-15 * FF_CLOCK_ACTIVITY * self.voltage_scale**2


#: A shared default library instance (nominal voltage, typical corner).
DEFAULT_LIBRARY = StandardCellLibrary()
