"""The system-level intermittent execution simulator.

This is the reproduction of the paper's "system-level in-house framework":
it executes a macro task (a benchmark circuit rerun until its energy
exceeds the storage capacity — Section IV-C assumption (1)) against a
cyclic harvest trace and a virtual capacitor, under one of the four
schemes Fig. 5 compares.  The execution model is *fluid*: forward progress
is measured in joules of useful work, and the simulator advances between
events (segment changes, threshold crossings, work completion) in closed
form, so macro tasks of thousands of passes cost only hundreds of events.

Scheme semantics (Section IV-B):

* Schemes without the safe zone (NV-based, NV-clustering, plain DIAC)
  back up *every time* the active zone exits at Th_SafeZone — the paper
  defines the safe zone as "a narrow range that lies between the exit
  points of Cp or Tr and the beginning of Bk", so removing it makes every
  exit a backup.
* Optimized DIAC sleeps through the zone: if harvesting recovers the
  energy before Th_Bk, the system resumes "fetching states directly from
  volatile storage" — no NVM write, no restore.  Only decays to Th_Bk
  commit.
* Checkpoint-granularity schemes (NV-FF / LE-FF) lose nothing on a power
  cycle; DIAC loses the work since the last crossed barrier and re-executes
  it after the restore.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.calibration import (
    INITIAL_ENERGY_FRACTION,
    MACRO_TASK_ENERGY_RATIO,
    REEXECUTION_FRACTION,
)
from repro.energy.harvester import HarvestTrace
from repro.energy.thresholds import ThresholdSet
from repro.tech.cacti import MemoryArrayModel, backup_array_for
from repro.tech.nvm import MRAM, NvmTechnology


@dataclass(frozen=True)
class SchemeProfile:
    """Everything the executor needs to know about one scheme's design.

    Attributes:
        name: scheme name ("NV-based", "NV-clustering", "DIAC",
            "Optimized DIAC").
        pass_energy_j: energy of one evaluation pass, including state-
            element clocking and any NV-FF/LE-FF overhead.
        pass_time_s: duration of one pass, including delay penalties.
        commit_bits: bits written per backup commit.
        restore_bits: bits read per restore.
        reexec_window_j: work lost per power cycle (half of it in
            expectation); zero for checkpoint-granularity schemes.
        uses_safe_zone: optimized-DIAC runtime when True.
        technology: NVM technology of the backup path.
        nvm_bus_bits: width of the datapath-to-array bus (NV-FFs write
            in situ and should pass ``commit_bits`` here).
    """

    name: str
    pass_energy_j: float
    pass_time_s: float
    commit_bits: int
    restore_bits: int
    reexec_window_j: float
    uses_safe_zone: bool
    technology: NvmTechnology = MRAM
    nvm_bus_bits: int | None = None

    def __post_init__(self) -> None:
        if self.pass_energy_j <= 0 or self.pass_time_s <= 0:
            raise ValueError("pass energy and time must be positive")
        if self.commit_bits < 1 or self.restore_bits < 1:
            raise ValueError("commit/restore bits must be >= 1")

    @property
    def active_power_w(self) -> float:
        """Power drawn while computing."""
        return self.pass_energy_j / self.pass_time_s

    def backup_array(self) -> MemoryArrayModel:
        """The backup array model used for commit/restore costing."""
        bits = max(self.commit_bits, self.restore_bits)
        array = backup_array_for(bits, technology=self.technology)
        if self.nvm_bus_bits is not None:
            from repro.tech.cacti import ArrayGeometry

            geometry = ArrayGeometry(
                capacity_bits=max(bits, self.nvm_bus_bits),
                width_bits=self.nvm_bus_bits,
            )
            array = MemoryArrayModel(geometry, technology=self.technology)
        return array


@dataclass
class ExecutionResult:
    """Outcome of one macro-task execution.

    Attributes:
        scheme: profile name.
        completed: whether the macro task finished within the time limit.
        work_target_j: useful work required.
        useful_energy_j: net useful work performed (== target on success).
        total_energy_j: all energy consumed (work + overheads + re-exec).
        active_time_s: busy time — compute + commit + restore (stall and
            charging time excluded).
        wall_time_s: total simulated time.  On completed runs this is the
            full simulated span of the macro task; a result constructed
            by hand mid-run (``completed`` False) carries whatever clock
            its builder recorded.
        n_dips / n_backups / n_restores / n_safe_recoveries: event counts.
        nvm_bits_written / nvm_bits_read: NVM traffic.
        reexec_energy_j: work redone after power cycles.
    """

    scheme: str
    completed: bool
    work_target_j: float
    useful_energy_j: float
    total_energy_j: float
    active_time_s: float
    wall_time_s: float
    n_dips: int = 0
    n_backups: int = 0
    n_restores: int = 0
    n_safe_recoveries: int = 0
    nvm_bits_written: int = 0
    nvm_bits_read: int = 0
    reexec_energy_j: float = 0.0

    @property
    def pdp_js(self) -> float:
        """Power-delay product: total consumed energy x active time
        (``total_energy_j * active_time_s``).  Any monotone consistent
        definition preserves the normalized comparison of Fig. 5."""
        return self.total_energy_j * self.active_time_s

    @property
    def energy_overhead(self) -> float:
        """Fraction of consumed energy that was not first-pass useful work."""
        if self.total_energy_j <= 0:
            return 0.0
        return 1.0 - self.useful_energy_j / self.total_energy_j


class TraceTooWeakError(RuntimeError):
    """Raised when the harvest trace cannot sustain the macro task."""


class IntermittentExecutor:
    """Fluid executor for one scheme on one harvest environment.

    Args:
        profile: the scheme under test.
        e_max_j: storage capacity of the evaluation capacitor.
        trace: cyclic harvest trace.
        thresholds: threshold set; derived from ``e_max_j`` when omitted.
        sleep_drain_w: standby drain while parked in the safe zone.
    """

    def __init__(
        self,
        profile: SchemeProfile,
        e_max_j: float,
        trace: HarvestTrace,
        thresholds: ThresholdSet | None = None,
        sleep_drain_w: float = 0.0,
    ) -> None:
        if e_max_j <= 0:
            raise ValueError("e_max_j must be positive")
        self.profile = profile
        self.e_max_j = e_max_j
        self.trace = trace
        self.thresholds = thresholds or ThresholdSet.from_e_max(e_max_j)
        self.sleep_drain_w = sleep_drain_w
        self._array = profile.backup_array()

    # -- cost helpers -----------------------------------------------------------

    def _commit_cost(self) -> tuple[float, float]:
        cost = self._array.write_cost(self.profile.commit_bits)
        return cost.energy_j, cost.latency_s

    def _restore_cost(self) -> tuple[float, float]:
        cost = self._array.read_cost(self.profile.restore_bits)
        return cost.energy_j, cost.latency_s

    # -- main loop ---------------------------------------------------------------

    def run(
        self,
        work_target_j: float | None = None,
        max_cycles: float = 400.0,
    ) -> ExecutionResult:
        """Execute a macro task of ``work_target_j`` useful joules.

        Defaults to the paper's assumption (1): the macro task is
        ``MACRO_TASK_ENERGY_RATIO x E_MAX`` of work.

        Raises:
            TraceTooWeakError: if the trace cannot deliver the work within
                ``max_cycles`` trace periods.
        """
        profile = self.profile
        th = self.thresholds
        if work_target_j is None:
            work_target_j = MACRO_TASK_ENERGY_RATIO * self.e_max_j
        commit_e, commit_t = self._commit_cost()
        restore_e, restore_t = self._restore_cost()
        p_active = profile.active_power_w
        # Hot-loop hoists: the event loop runs thousands of iterations per
        # macro task, so threshold levels, the trace accessor and the
        # result counters all live in locals and are written back once.
        # The trace lookup is this run's own cursor (the trace may be
        # shared by many runs).
        harvest_at = self.trace.cursor()
        safe_j = th.safe_j
        compute_j = th.compute_j
        backup_j = th.backup_j
        e_max = self.e_max_j
        sleep_drain = self.sleep_drain_w
        uses_safe_zone = profile.uses_safe_zone

        t = 0.0
        e = INITIAL_ENERGY_FRACTION * e_max
        work = 0.0
        #: Progress (in joules of work) already safe in NVM.
        committed_work = 0.0
        mode = "active" if e > compute_j else "charge"
        t_limit = max_cycles * self.trace.period_s
        eps = 1e-18

        total_energy = 0.0
        active_time = 0.0
        reexec_energy = 0.0
        n_dips = n_backups = n_restores = n_safe_recoveries = 0

        while work < work_target_j - eps:
            if t > t_limit:
                raise TraceTooWeakError(
                    f"{profile.name}: trace {self.trace.name!r} could not "
                    f"sustain the macro task within {max_cycles:g} cycles "
                    f"(work {work:.3e}/{work_target_j:.3e} J)"
                )
            p_in, seg_remaining = harvest_at(t)
            if t + seg_remaining == t:
                # The segment ends within rounding of ``t``, closer than
                # any step can reach: stepping would stall the clock for
                # good, so move on to the next segment.
                t = math.nextafter(t, math.inf)
                continue

            if mode == "active":
                p_net = p_in - p_active
                if p_net >= 0:
                    # Harvest covers computation: bounded by segment or work.
                    dt = min(seg_remaining, (work_target_j - work) / p_active)
                    e = min(e + p_net * dt, e_max)
                else:
                    t_deplete = max(0.0, e - safe_j) / (-p_net)
                    dt = min(
                        seg_remaining,
                        t_deplete,
                        (work_target_j - work) / p_active,
                    )
                    e += p_net * dt
                work += p_active * dt
                total_energy += p_active * dt
                active_time += dt
                t += dt
                if work >= work_target_j - eps:
                    break
                if e <= safe_j + eps:
                    # Active zone exited (dashed-blue arrow of Fig. 3).
                    n_dips += 1
                    if uses_safe_zone:
                        mode = "dip"
                    else:
                        n_backups += 1
                        total_energy += commit_e
                        active_time += commit_t
                        e = max(e - commit_e, 0.0)
                        committed_work = self._commit_point(work)
                        mode = "charge"
                continue

            if mode == "dip":
                # Parked in the safe zone: recover or decay (Fig. 4 event 5).
                p_net = p_in - sleep_drain
                if p_net > 0:
                    t_recover = (compute_j - e) / p_net
                    if t_recover <= seg_remaining:
                        e = compute_j
                        t += t_recover
                        n_safe_recoveries += 1
                        mode = "active"
                        continue
                    e = min(e + p_net * seg_remaining, e_max)
                    t += seg_remaining
                    continue
                t_decay = (e - backup_j) / (-p_net) if p_net < 0 else math.inf
                if t_decay <= seg_remaining:
                    # Decayed to Th_Bk: the power interrupt forces a backup.
                    t += t_decay
                    e = backup_j
                    n_backups += 1
                    total_energy += commit_e
                    active_time += commit_t
                    e = max(e - commit_e, 0.0)
                    committed_work = self._commit_point(work)
                    mode = "charge"
                    continue
                e += p_net * seg_remaining
                t += seg_remaining
                continue

            # mode == "charge": recharging after a backup (volatile lost).
            # The restore itself must be paid for: recharge past Th_Cp by
            # the restore energy (capped at capacity) so the system re-
            # enters the active zone at Th_Cp, never below Th_SafeZone —
            # otherwise t_deplete would go negative and regress time.
            if p_in > 0:
                resume_e = min(compute_j + restore_e, e_max)
                if resume_e - restore_e < safe_j:
                    # Even a full capacitor cannot pay the restore and
                    # leave the system inside the operating zone — fail
                    # loudly rather than conjure energy.
                    raise TraceTooWeakError(
                        f"{profile.name}: restore cost {restore_e:.3e} J "
                        f"cannot be paid from the {e_max:.3e} J "
                        f"capacitor without dropping below Th_SafeZone "
                        f"({safe_j:.3e} J)"
                    )
                t_resume = (resume_e - e) / p_in
                if t_resume <= seg_remaining:
                    t += t_resume
                    e = resume_e
                    # Restore + re-execute the uncommitted tail.
                    n_restores += 1
                    total_energy += restore_e
                    active_time += restore_t
                    e = e - restore_e
                    # The uncommitted tail re-executes: regressing `work`
                    # makes the active phase redo it, re-accounting both
                    # its energy and its time.
                    reexec_energy += work - committed_work
                    work = committed_work
                    mode = "active"
                    continue
                e = min(e + p_in * seg_remaining, e_max)
            t += seg_remaining

        return ExecutionResult(
            scheme=profile.name,
            completed=True,
            work_target_j=work_target_j,
            useful_energy_j=work_target_j,
            total_energy_j=total_energy,
            active_time_s=active_time,
            wall_time_s=t,
            n_dips=n_dips,
            n_backups=n_backups,
            n_restores=n_restores,
            n_safe_recoveries=n_safe_recoveries,
            nvm_bits_written=n_backups * profile.commit_bits,
            nvm_bits_read=n_restores * profile.restore_bits,
            reexec_energy_j=reexec_energy,
        )

    # -- event helpers ------------------------------------------------------------

    def _commit_point(self, work: float) -> float:
        """Work level of the last crossed barrier at a commit.

        Checkpoint-granularity schemes (``reexec_window_j == 0``) commit
        the exact progress; DIAC commits the last barrier, losing the
        in-flight partition tail (``REEXECUTION_FRACTION`` of a window in
        expectation).
        """
        window = self.profile.reexec_window_j
        if window <= 0.0:
            return work
        return max(0.0, work - REEXECUTION_FRACTION * window)

