"""Scheme profile builders for the four Fig. 5 contenders.

All four schemes run the *same* workload — macro tasks of
``INSTANCE_CYCLES``-cycle instances of the benchmark circuit — on the same
harvest environment; they differ in how state is held and checkpointed:

* **NV-based** — every flip-flop (plus the registered primary outputs any
  conventional design carries) becomes an NV-FF: per-cycle dynamic/delay
  overhead on the state elements, in-situ parallel MTJ commit of the full
  state on every active-zone exit, zero re-execution.
* **NV-clustering** — the LE-FF approach of [7]: state elements are
  clustered into logic-embedded flip-flops (fewer of them), saving a bit
  of combinational energy and committing fewer bits, at a milder per-cycle
  overhead.
* **DIAC** — plain CMOS datapath (no per-cycle overhead); backups write
  the live cut of the last crossed barrier to a central NVM array,
  re-executing the in-flight partition tail; no safe zone.
* **Optimized DIAC** — DIAC plus the Th_SafeZone runtime, which skips the
  commit whenever harvesting recovers before Th_Bk.
"""

from __future__ import annotations

import math

from repro.calibration import (
    INSTANCE_CYCLES,
    LEFF_DELAY_OVERHEAD,
    LEFF_DYNAMIC_OVERHEAD,
    LEFF_LOGIC_SAVING,
    LEFF_STATE_RATIO,
    LEFF_STATIC_OVERHEAD,
    NVFF_DELAY_OVERHEAD,
    NVFF_DYNAMIC_OVERHEAD,
    NVFF_STATIC_OVERHEAD,
)
from repro.core.diac import DiacDesign
from repro.core.replacement import REG_FLAG_BITS
from repro.sim.intermittent import SchemeProfile
from repro.tech.nvm import NvmTechnology
from repro.tech.synthesis import SynthesisReport

#: Scheme display names, in the order Fig. 5 plots them.
SCHEME_ORDER = ("NV-based", "NV-clustering", "DIAC", "Optimized DIAC")


def _effective_state_bits(report: SynthesisReport) -> int:
    """State elements of a conventional design: FFs + registered outputs."""
    netlist = report.netlist
    return netlist.num_ffs + len(netlist.outputs)


def cycle_figures(report: SynthesisReport) -> tuple[float, float, float]:
    """(combinational energy, state-clock energy, cycle time) per cycle.

    The design is assumed clocked at its critical path (plus the scheme's
    state-element delay penalty, applied by the caller).
    """
    comb = report.logic_energy_j
    state_clock = _effective_state_bits(report) * report.library.ff_clock_energy_j()
    cycle_time = max(report.critical_path_s, 1e-12)
    return comb, state_clock, cycle_time


def profile_nv_based(
    report: SynthesisReport,
    technology: NvmTechnology,
    instance_cycles: int = INSTANCE_CYCLES,
) -> SchemeProfile:
    """Conventional NV-FF checkpointing (highest resiliency, most overhead)."""
    comb, state_clock, cycle_time = cycle_figures(report)
    bits = _effective_state_bits(report) + REG_FLAG_BITS
    # Logic is untouched; every state element pays the NV-FF penalties
    # (MTJ loading on the clock path and extra leakage).
    cycle_energy = comb + state_clock * (
        1.0 + NVFF_DYNAMIC_OVERHEAD + NVFF_STATIC_OVERHEAD
    )
    return SchemeProfile(
        name="NV-based",
        pass_energy_j=instance_cycles * cycle_energy,
        pass_time_s=instance_cycles * cycle_time * (1.0 + NVFF_DELAY_OVERHEAD),
        commit_bits=bits,
        restore_bits=bits,
        reexec_window_j=0.0,
        uses_safe_zone=False,
        technology=technology,
        # NV-FFs commit in situ, all bits in parallel.
        nvm_bus_bits=bits,
    )


def profile_nv_clustering(
    report: SynthesisReport,
    technology: NvmTechnology,
    instance_cycles: int = INSTANCE_CYCLES,
) -> SchemeProfile:
    """NV-clustering / LE-FF baseline ([7], Roohi & DeMara, IEEE TC'18)."""
    comb, state_clock, cycle_time = cycle_figures(report)
    full_state = _effective_state_bits(report)
    clustered = max(1, math.ceil(LEFF_STATE_RATIO * full_state))
    bits = clustered + REG_FLAG_BITS
    per_ff_clock = state_clock / max(full_state, 1)
    cycle_energy = comb * (1.0 - LEFF_LOGIC_SAVING) + (
        clustered
        * per_ff_clock
        * (1.0 + LEFF_DYNAMIC_OVERHEAD + LEFF_STATIC_OVERHEAD)
    )
    return SchemeProfile(
        name="NV-clustering",
        pass_energy_j=instance_cycles * cycle_energy,
        pass_time_s=instance_cycles * cycle_time * (1.0 + LEFF_DELAY_OVERHEAD),
        commit_bits=bits,
        restore_bits=bits,
        reexec_window_j=0.0,
        uses_safe_zone=False,
        technology=technology,
        nvm_bus_bits=bits,
    )


def profile_diac(
    design: DiacDesign,
    optimized: bool | None = None,
    instance_cycles: int = INSTANCE_CYCLES,
) -> SchemeProfile:
    """DIAC profile from a synthesized design.

    Commit opportunities exist at every cycle boundary (the architectural
    state) and at every intra-cycle barrier the replacement step placed;
    an emergency commits at the last crossed one.  A commit is never wider
    than the architectural snapshot — the backup unit "stores all the
    necessary intermediate registers based on the register flag".

    Args:
        design: output of :class:`~repro.core.diac.DiacSynthesizer`.
        optimized: override the design's safe-zone setting (None keeps it).
        instance_cycles: workload cycles per task instance.
    """
    report = design.report
    comb, state_clock, cycle_time = cycle_figures(report)
    partitions = design.plan.schedule()
    state_cap = design.state_bits
    cycle_energy = comb + state_clock
    total_e = sum(p.energy_j for p in partitions) or cycle_energy
    # Energy-weighted mean commit width: a random emergency lands in a
    # partition with probability proportional to its energy.
    mean_bits = (
        sum(min(p.commit_bits, state_cap) * p.energy_j for p in partitions)
        / total_e
        if total_e > 0
        else min(partitions[-1].commit_bits, state_cap)
    )
    # Re-execution window = spacing between commit opportunities: the
    # intra-cycle partitions when the budget placed barriers, otherwise a
    # full cycle.
    if len(partitions) > 1:
        window = max(p.energy_j for p in partitions)
    else:
        window = cycle_energy
    use_safe = design.config.use_safe_zone if optimized is None else optimized
    bits = max(1, int(round(mean_bits)))
    return SchemeProfile(
        name="Optimized DIAC" if use_safe else "DIAC",
        pass_energy_j=instance_cycles * cycle_energy,
        pass_time_s=instance_cycles * cycle_time,
        commit_bits=bits,
        restore_bits=bits,
        reexec_window_j=window,
        uses_safe_zone=use_safe,
        technology=design.config.technology,
        # DIAC distributes "multiple diminutive NVM arrays" at the cut
        # positions ([10]-style), so a commit latches in parallel.
        nvm_bus_bits=bits,
    )


def all_profiles(
    design: DiacDesign,
    technology: NvmTechnology | None = None,
    instance_cycles: int = INSTANCE_CYCLES,
) -> list[SchemeProfile]:
    """The four Fig. 5 schemes for one circuit, in plot order."""
    tech = technology or design.config.technology
    return [
        profile_nv_based(design.report, tech, instance_cycles),
        profile_nv_clustering(design.report, tech, instance_cycles),
        profile_diac(design, optimized=False, instance_cycles=instance_cycles),
        profile_diac(design, optimized=True, instance_cycles=instance_cycles),
    ]
