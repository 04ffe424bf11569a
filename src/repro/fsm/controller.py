"""Time-stepped implementation of Algorithm 1 (the paper's state machine).

The controller advances in fixed steps ``dt``; each step harvests from the
trace, spends according to the current state, and applies the transition
rules of Algorithm 1 — including the two interrupt routines, the safe-zone
behaviour that distinguishes *optimized DIAC* from plain DIAC, and the
volatile-loss semantics below Th_Off.

The result object records a sampled (t, E, state) timeline — the data
behind Fig. 4 — plus event markers and operation counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.calibration import (
    E_COMPUTE_J,
    E_SENSE_J,
    E_TRANSMIT_J,
    OPERATION_UNCERTAINTY,
    SENSE_INTERVAL_S,
    SLEEP_LEAKAGE_W,
    T_COMPUTE_S,
    T_SENSE_S,
    T_TRANSMIT_S,
)
from repro.energy.capacitor import EnergyStorage
from repro.energy.harvester import HarvestTrace
from repro.energy.thresholds import ThresholdSet
from repro.fsm.interrupts import PowerInterrupt, TimerInterrupt
from repro.fsm.states import REG_FLAG_WIDTH, NodeState, RegFlag
from repro.tech.cacti import MemoryArrayModel, backup_array_for
from repro.tech.nvm import MRAM, NvmTechnology


@dataclass(frozen=True)
class OperationCosts:
    """Energy/duration of the node's atomic operations (Section IV-A).

    Attributes:
        sense_j / compute_j / transmit_j: nominal energies.
        sense_s / compute_s / transmit_s: nominal durations.
        uncertainty: relative half-width of the uniform cost jitter
            ("all with a +/-10% uncertainty").
        compute_chunks / transmit_chunks: number of atomic sub-operations
            each long operation is divided into ("all operations ... are
            divided into atomic operations, which are executed
            uninterrupted").
        transmit_probability: chance a finished computation requires
            transmission (Algorithm 1, line 20).
    """

    sense_j: float = E_SENSE_J
    compute_j: float = E_COMPUTE_J
    transmit_j: float = E_TRANSMIT_J
    sense_s: float = T_SENSE_S
    compute_s: float = T_COMPUTE_S
    transmit_s: float = T_TRANSMIT_S
    uncertainty: float = OPERATION_UNCERTAINTY
    compute_chunks: int = 8
    transmit_chunks: int = 6
    transmit_probability: float = 1.0


@dataclass
class FsmEvent:
    """A notable event on the timeline (used by the Fig. 4 narration)."""

    t_s: float
    kind: str
    detail: str = ""


@dataclass
class FsmResult:
    """Output of one controller run.

    Attributes:
        timeline: sampled (time, stored energy, state) tuples.
        events: notable events in chronological order.
        counters: operation/interrupt counters.
    """

    timeline: list[tuple[float, float, NodeState]]
    events: list[FsmEvent]
    counters: dict[str, int]

    def count(self, kind: str) -> int:
        """Counter accessor that defaults to zero."""
        return self.counters.get(kind, 0)

    def events_of(self, kind: str) -> list[FsmEvent]:
        """All events of one kind."""
        return [e for e in self.events if e.kind == kind]

    def energy_series(self) -> tuple[list[float], list[float]]:
        """(times, energies) vectors for plotting."""
        return (
            [t for t, _e, _s in self.timeline],
            [e for _t, e, _s in self.timeline],
        )


class IntermittentController:
    """Algorithm 1 over a virtual energy source.

    Args:
        storage: the capacitor ("virtual battery").
        thresholds: the six-threshold set.
        trace: harvesting trace driving the charging rate.
        costs: atomic operation costs.
        technology: NVM used by the Backup state.
        state_bits: register bits a backup must save (Reg_Flag included).
        sense_interval_s: timer-interrupt period.
        safe_zone_enabled: True = optimized DIAC (Th_SafeZone honoured);
            False = plain DIAC (backup as soon as the active zone exits).
        sleep_leakage_w: standby drain in Sleep.
        seed: seeds the +/-10% operation-cost jitter.
        dt_s: simulation step.
    """

    def __init__(
        self,
        storage: EnergyStorage,
        thresholds: ThresholdSet,
        trace: HarvestTrace,
        costs: OperationCosts | None = None,
        technology: NvmTechnology = MRAM,
        state_bits: int = 64,
        sense_interval_s: float = SENSE_INTERVAL_S,
        safe_zone_enabled: bool = True,
        sleep_leakage_w: float = SLEEP_LEAKAGE_W,
        seed: int = 0,
        dt_s: float = 0.05,
    ) -> None:
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if state_bits < REG_FLAG_WIDTH:
            raise ValueError("state_bits must cover at least the Reg_Flag")
        self.storage = storage
        self.thresholds = thresholds
        self.trace = trace
        self.costs = costs or OperationCosts()
        self.technology = technology
        self.state_bits = state_bits
        self.array: MemoryArrayModel = backup_array_for(state_bits, technology)
        self.timer = TimerInterrupt(sense_interval_s)
        self.power_irq = PowerInterrupt(thresholds.backup_j)
        self.safe_zone_enabled = safe_zone_enabled
        self.sleep_leakage_w = sleep_leakage_w
        self.dt_s = dt_s
        self._rng = random.Random(seed)

        self.state = NodeState.SLEEP
        self.reg = RegFlag.HALT
        self._op_progress_j = 0.0
        self._op_target_j = 0.0
        self._op_power_w = 0.0
        self._chunk_j = 0.0
        self._committed_chunks = 0
        self._backed_up = False
        self._was_active_before_dip = False
        self._pending_restore = False

    # -- helpers ---------------------------------------------------------------

    def _jitter(self, nominal: float) -> float:
        """Apply the +/-uncertainty jitter to a nominal cost."""
        u = self.costs.uncertainty
        return nominal * (1.0 + u * (2.0 * self._rng.random() - 1.0))

    def _begin_operation(self, state: NodeState) -> None:
        """Latch jittered cost/duration for the operation being entered."""
        costs = self.costs
        if state is NodeState.SENSE:
            energy, duration, chunks = costs.sense_j, costs.sense_s, 1
        elif state is NodeState.COMPUTE:
            energy, duration, chunks = (
                costs.compute_j,
                costs.compute_s,
                costs.compute_chunks,
            )
        else:
            energy, duration, chunks = (
                costs.transmit_j,
                costs.transmit_s,
                costs.transmit_chunks,
            )
        target = self._jitter(energy)
        self._op_target_j = target
        self._op_power_w = target / duration
        self._chunk_j = target / chunks
        # Resume from committed chunks when re-entering a paused operation.
        self._op_progress_j = self._committed_chunks * self._chunk_j

    # -- main loop ---------------------------------------------------------------

    def run(
        self, duration_s: float, sample_every: int = 4
    ) -> FsmResult:
        """Simulate ``duration_s`` seconds of node operation."""
        timeline: list[tuple[float, float, NodeState]] = []
        events: list[FsmEvent] = []
        counters: dict[str, int] = {
            "senses": 0,
            "computes": 0,
            "transmits": 0,
            "backups": 0,
            "restores": 0,
            "shutdowns": 0,
            "safe_zone_entries": 0,
            "safe_zone_recoveries": 0,
            "nvm_bits_written": 0,
            "nvm_bits_read": 0,
            "timer_interrupts": 0,
            "power_interrupts": 0,
            "reached_e_max": 0,
        }
        th = self.thresholds
        dt = self.dt_s
        n_steps = int(round(duration_s / dt))
        in_safe_dip = False
        emax_latched = False
        harvest_at = self.trace.cursor()

        for step in range(n_steps):
            t = step * dt
            # Harvest.
            self.storage.deposit(harvest_at(t)[0] * dt)
            if self.storage.is_full and not emax_latched:
                emax_latched = True
                counters["reached_e_max"] += 1
                events.append(FsmEvent(t, "e_max", "capacitor saturated"))
            elif emax_latched and self.storage.energy_j < 0.97 * self.storage.e_max_j:
                emax_latched = False

            # Timer interrupt (Algorithm 1 line 34).
            if self.timer.poll(t):
                counters["timer_interrupts"] += 1
                if self.reg is RegFlag.HALT and self.state in (
                    NodeState.SLEEP,
                    NodeState.OFF,
                ):
                    self.reg = RegFlag.SENSE

            e = self.storage.energy_j

            # Power-off handling (below Th_Off everything stops).
            if self.state is not NodeState.OFF and e < th.off_j:
                self.state = NodeState.OFF
                counters["shutdowns"] += 1
                events.append(FsmEvent(t, "shutdown", "E below Th_Off"))
                if not self._backed_up:
                    # Volatile contents are gone; uncommitted progress lost.
                    self._committed_chunks = 0
                    self.reg = RegFlag.HALT
                else:
                    self._pending_restore = True
                in_safe_dip = False
                continue
            if self.state is NodeState.OFF:
                if e >= th.safe_j:
                    self.state = NodeState.SLEEP
                    if self._pending_restore:
                        cost = self.array.read_cost(self.state_bits)
                        self.storage.drain(cost.energy_j)
                        counters["restores"] += 1
                        counters["nvm_bits_read"] += self.state_bits
                        events.append(FsmEvent(t, "restore", "state from NVM"))
                        self._pending_restore = False
                        self._backed_up = False
                    events.append(FsmEvent(t, "wakeup", "E recovered"))
                continue

            # Power interrupt (Algorithm 1 line 38): backup below Th_Bk.
            if self.power_irq.poll(e) and self.state in (
                NodeState.SLEEP,
                NodeState.SENSE,
                NodeState.COMPUTE,
                NodeState.TRANSMIT,
            ):
                counters["power_interrupts"] += 1
                if not self._backed_up:
                    self._do_backup(t, counters, events)
                in_safe_dip = False
                continue

            if self.state is NodeState.SLEEP:
                self.storage.drain(self.sleep_leakage_w * dt)
                e = self.storage.energy_j
                # Safe-zone bookkeeping (Fig. 4 event 5).
                if (self._was_active_before_dip and not in_safe_dip
                        and th.backup_j <= e < th.safe_j):
                    in_safe_dip = True
                    counters["safe_zone_entries"] += 1
                    events.append(FsmEvent(t, "safe_zone", "entered"))
                if not self.safe_zone_enabled and in_safe_dip:
                    # Plain DIAC: no safe zone — back up immediately.
                    self._do_backup(t, counters, events)
                    in_safe_dip = False
                    continue
                # Transitions out of Sleep (Algorithm 1 lines 6-11).
                nxt: NodeState | None = None
                if self.reg is RegFlag.SENSE and e > th.sense_j:
                    nxt = NodeState.SENSE
                elif self.reg is RegFlag.COMPUTE and e > th.compute_j:
                    nxt = NodeState.COMPUTE
                elif self.reg is RegFlag.TRANSMIT and e > th.transmit_j:
                    nxt = NodeState.TRANSMIT
                if nxt is not None:
                    if in_safe_dip:
                        counters["safe_zone_recoveries"] += 1
                        events.append(
                            FsmEvent(t, "safe_zone_recovery", "no NVM write")
                        )
                        in_safe_dip = False
                    self.state = nxt
                    self._begin_operation(nxt)

            elif self.state is NodeState.SENSE:
                done = self._advance_operation(dt)
                if done:
                    counters["senses"] += 1
                    self.reg = RegFlag.COMPUTE
                    self._finish_operation()
                    events.append(FsmEvent(t, "sense", "sample acquired"))

            elif self.state is NodeState.COMPUTE:
                if self.storage.energy_j <= th.safe_j:
                    self._pause_operation(t, events)
                    in_safe_dip = False
                    continue
                done = self._advance_operation(dt)
                if done:
                    counters["computes"] += 1
                    if self._rng.random() < self.costs.transmit_probability:
                        self.reg = RegFlag.TRANSMIT
                    else:
                        self.reg = RegFlag.HALT
                    self._finish_operation()
                    events.append(FsmEvent(t, "compute", "result ready"))

            elif self.state is NodeState.TRANSMIT:
                if self.storage.energy_j <= th.safe_j:
                    self._pause_operation(t, events)
                    in_safe_dip = False
                    continue
                done = self._advance_operation(dt)
                if done:
                    counters["transmits"] += 1
                    self.reg = RegFlag.HALT
                    self._finish_operation()
                    events.append(FsmEvent(t, "transmit", "packet sent"))

            if step % sample_every == 0:
                timeline.append((t, self.storage.energy_j, self.state))

        timeline.append((n_steps * dt, self.storage.energy_j, self.state))
        return FsmResult(timeline=timeline, events=events, counters=counters)

    # -- operation mechanics ---------------------------------------------------

    def _advance_operation(self, dt: float) -> bool:
        """Consume one step of the running operation; True when finished."""
        spend = min(self._op_power_w * dt, self._op_target_j - self._op_progress_j)
        spend = min(spend, self.storage.energy_j)
        self.storage.drain(spend)
        self._op_progress_j += spend
        self._committed_chunks = int(self._op_progress_j / self._chunk_j)
        # Any new activity invalidates the last backup image.
        self._backed_up = False
        return self._op_progress_j >= self._op_target_j - 1e-15

    def _pause_operation(self, t: float, events: list[FsmEvent]) -> None:
        """Exit an active state at Th_SafeZone (dashed-blue arrows)."""
        self.state = NodeState.SLEEP
        self._was_active_before_dip = True
        events.append(FsmEvent(t, "pause", "active state exited at Th_Safe"))

    def _finish_operation(self) -> None:
        """Reset per-operation bookkeeping and return to Sleep."""
        self.state = NodeState.SLEEP
        self._op_progress_j = 0.0
        self._op_target_j = 0.0
        self._committed_chunks = 0
        self._was_active_before_dip = False

    def _do_backup(
        self, t: float, counters: dict[str, int], events: list[FsmEvent]
    ) -> None:
        """Backup state: commit registers to NVM (Algorithm 1 lines 38-41)."""
        self.state = NodeState.BACKUP
        cost = self.array.write_cost(self.state_bits)
        self.storage.drain(cost.energy_j)
        counters["backups"] += 1
        counters["nvm_bits_written"] += self.state_bits
        events.append(FsmEvent(t, "backup", f"{self.state_bits} bits to NVM"))
        self._backed_up = True
        self.state = NodeState.SLEEP
