"""Interval bounds on intermittent execution — the static half of ETAP.

:func:`bounds_for_run` computes sound lower/upper bounds on everything
:class:`~repro.sim.intermittent.ExecutionResult` reports for a
*completed* macro-task run, without running the event loop.  The
derivation leans on exact invariants of the fluid executor
(:class:`~repro.sim.intermittent.IntermittentExecutor.run`):

* every backup is followed by exactly one restore before further
  progress, so ``n_restores == n_backups`` — plus one initial restore
  when the capacitor starts at or below Th_Cp (the executor pays a
  restore on its first resume even though nothing was committed);
* ``total_energy`` counts compute work (first-pass *and* re-executed),
  commit energy and restore energy — never sleep drain or charging;
* re-execution per restore is at most ``REEXECUTION_FRACTION`` of the
  scheme's re-execution window (the commit-point rule);
* a completed run's wall clock never exceeds ``t_limit`` plus one trace
  period: the time-limit check runs at the top of every iteration and
  one iteration advances at most one segment;
* energy is conserved up to the commit clamp (``max(e - commit_e, 0)``
  can conjure at most ``commit_e - Th_Bk`` per backup, and only when the
  commit costs more than the backup threshold — commits fire at or
  above Th_Bk).

The backup count is the one genuinely dynamic quantity; it is bracketed
by a harvest-budget argument (each backup/restore pair consumes real
energy, and a completed run only ever sees ``E_budget`` joules) and, for
schemes without the safe zone under a trace whose peak power cannot
cover computation, a forced-dip argument (each active stretch performs
a bounded amount of work before the capacitor hits Th_SafeZone).

Everything else follows arithmetically, in ``O(segments)`` time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.calibration import (
    INITIAL_ENERGY_FRACTION,
    MACRO_TASK_ENERGY_RATIO,
    REEXECUTION_FRACTION,
)
from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.dse.explorer import (
    DesignPoint,
    PreparedPoint,
    SynthesisCache,
    _prepare,
)
from repro.energy.harvester import HarvestTrace
from repro.energy.scenarios import ScenarioSpec
from repro.energy.thresholds import ThresholdSet
from repro.sim.intermittent import SchemeProfile


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` bounding one result quantity."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"interval hi {self.hi} below lo {self.lo}")

    def contains(
        self, value: float, rel_tol: float = 1e-9, abs_tol: float = 1e-15
    ) -> bool:
        """Whether ``value`` lies in the interval, up to float tolerance."""
        slack_lo = max(abs_tol, rel_tol * abs(self.lo))
        slack_hi = max(abs_tol, rel_tol * abs(self.hi))
        return self.lo - slack_lo <= value <= self.hi + slack_hi

    @property
    def width(self) -> float:
        """``hi - lo``."""
        return self.hi - self.lo


@dataclass(frozen=True)
class RunBounds:
    """Sound bounds on one (profile, environment, work target) run.

    Every interval brackets the corresponding
    :class:`~repro.sim.intermittent.ExecutionResult` field of any run
    the executor *completes*; when no completed run exists the
    intervals are vacuous (and :mod:`repro.analysis.feasibility` can
    often prove it).

    Attributes:
        scheme: profile name.
        work_target_j: useful work the macro task requires.
        energy_j: bounds on ``total_energy_j``.
        active_time_s: bounds on ``active_time_s``.
        wall_time_s: bounds on ``wall_time_s``.
        pdp_js: bounds on ``pdp_js``.
        n_backups: bounds on the backup count.
        budget_j: total energy a completed run can ever draw on —
            initial charge plus harvest over the time limit (plus one
            trailing segment).
        commit_energy_j / restore_energy_j: per-event NVM costs.
        initial_charge: the run provably starts in charge mode
            (``E_init <= Th_Cp``), which costs one extra restore.
        restore_payable: whether a restore can ever be paid without
            dropping below Th_SafeZone (the executor's hard error when
            it cannot).
        must_enter_charge: charge mode is provably entered at least
            once (initial charge, or a forced dip under a scheme
            without the safe zone).
        conservative_commit: the commit clamp can never conjure energy
            (``commit_e <= Th_Bk``), which is what makes the harvest
            budget a hard feasibility bound.
    """

    scheme: str
    work_target_j: float
    energy_j: Interval
    active_time_s: Interval
    wall_time_s: Interval
    pdp_js: Interval
    n_backups: Interval
    budget_j: float
    commit_energy_j: float
    restore_energy_j: float
    initial_charge: bool
    restore_payable: bool
    must_enter_charge: bool
    conservative_commit: bool


def bounds_for_run(
    profile: SchemeProfile,
    e_max_j: float,
    trace: HarvestTrace,
    thresholds: ThresholdSet | None = None,
    sleep_drain_w: float = 0.0,
    work_target_j: float | None = None,
    max_cycles: float = 400.0,
) -> RunBounds:
    """Bound one executor run; same signature defaults as the executor.

    Args:
        profile: the scheme under test.
        e_max_j: storage capacity of the evaluation capacitor.
        trace: cyclic harvest trace.
        thresholds: threshold set; derived from ``e_max_j`` when omitted.
        sleep_drain_w: safe-zone standby drain (only the sign matters to
            the bounds; drain never adds budget).
        work_target_j: useful work required (the paper's
            ``MACRO_TASK_ENERGY_RATIO x e_max`` when omitted).
        max_cycles: trace periods before the executor gives up.
    """
    if e_max_j <= 0:
        raise ValueError("e_max_j must be positive")
    th = thresholds or ThresholdSet.from_e_max(e_max_j)
    work = (
        work_target_j
        if work_target_j is not None
        else MACRO_TASK_ENERGY_RATIO * e_max_j
    )
    array = profile.backup_array()
    commit = array.write_cost(profile.commit_bits)
    restore = array.read_cost(profile.restore_bits)
    commit_e, commit_t = commit.energy_j, commit.latency_s
    restore_e, restore_t = restore.energy_j, restore.latency_s
    p_active = profile.active_power_w
    window_j = REEXECUTION_FRACTION * max(0.0, profile.reexec_window_j)

    e_init = INITIAL_ENERGY_FRACTION * e_max_j
    t_limit = max_cycles * trace.period_s
    # A completed run's clock never exceeds the limit by more than one
    # segment: the limit check guards every iteration, and an iteration
    # advances at most seg_remaining <= period.
    budget = e_init + trace.energy_between(0.0, t_limit + trace.period_s)

    initial_charge = not e_init > th.compute_j
    extra_restores = 1 if initial_charge else 0
    resume_floor = min(th.compute_j + restore_e, e_max_j) - restore_e
    restore_payable = resume_floor >= th.safe_j
    conservative_commit = commit_e <= th.backup_j

    # -- backup count ----------------------------------------------------------
    # Lower bound: without the safe zone, every dip is a backup, and when
    # the trace's peak power cannot cover computation each active stretch
    # drains the capacitor at >= (p_active - peak) W, bounding the work a
    # stretch can perform before Th_SafeZone forces the next dip.
    n_lb = 0
    must_dip = False
    peak = trace.peak_power_w
    if peak < p_active:
        drain = p_active - peak
        first_start = resume_floor if initial_charge else e_init
        w_first = p_active * max(0.0, first_start - th.safe_j) / drain
        w_next = p_active * max(0.0, resume_floor - th.safe_j) / drain
        # Strict margin: only claim a forced dip when the target clearly
        # exceeds what the most generous stretch could deliver.
        must_dip = work > w_first * (1.0 + 1e-9) + 1e-15
        if not profile.uses_safe_zone and must_dip and w_next > 0.0:
            n_lb = max(0, math.ceil((work - w_first) / w_next - 1e-9))

    # Upper bound: each backup/restore pair consumes at least
    # min(commit_e, Th_Bk) + restore_e real joules (the commit clamp can
    # conjure at most commit_e - Th_Bk), and a completed run has only
    # ``budget`` joules to spend after the work itself is paid for.
    pair_net = min(commit_e, th.backup_j) + restore_e
    headroom = budget - work - extra_restores * restore_e
    n_budget = int(headroom / pair_net + 1e-9) if headroom > 0.0 else 0
    n_ub = max(n_lb, n_budget)

    # -- result quantities -----------------------------------------------------
    pair_e = commit_e + restore_e
    pair_t = commit_t + restore_t
    # Re-execution per restore is capped by the commit-point rule and by
    # the work performed so far.
    reexec_ub = n_ub * min(window_j, work) if window_j > 0.0 else 0.0
    conjure_ub = n_ub * max(0.0, commit_e - th.backup_j)

    energy_lo = work + n_lb * pair_e + extra_restores * restore_e
    energy_hi = work + reexec_ub + n_ub * pair_e + extra_restores * restore_e
    # Conservation caps the ceiling too (total_energy excludes sleep
    # drain and charging, both non-negative draws on the same budget).
    energy_hi = max(energy_lo, min(energy_hi, budget + conjure_ub))

    active_lo = work / p_active + n_lb * pair_t + extra_restores * restore_t
    active_hi = (
        (work + reexec_ub) / p_active
        + n_ub * pair_t
        + extra_restores * restore_t
    )
    wall_lo = work / p_active
    wall_hi = t_limit + trace.period_s

    energy = Interval(energy_lo, energy_hi)
    active = Interval(active_lo, max(active_lo, active_hi))
    return RunBounds(
        scheme=profile.name,
        work_target_j=work,
        energy_j=energy,
        active_time_s=active,
        wall_time_s=Interval(wall_lo, max(wall_lo, wall_hi)),
        pdp_js=Interval(energy.lo * active.lo, energy.hi * active.hi),
        n_backups=Interval(float(n_lb), float(n_ub)),
        budget_j=budget,
        commit_energy_j=commit_e,
        restore_energy_j=restore_e,
        initial_charge=initial_charge,
        restore_payable=restore_payable,
        must_enter_charge=initial_charge
        or (not profile.uses_safe_zone and must_dip),
        conservative_commit=conservative_commit,
    )


def prepare_static(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None = None,
    cache: SynthesisCache | None = None,
    scenario: ScenarioSpec | None = None,
) -> PreparedPoint:
    """Derive a point's profile/environment without generating code.

    Runs the same front half as :func:`repro.dse.explorer.prepare_point`
    — the cached synthesis stage and plan, the budget derivation, the
    threshold knobs and the ``ValueError`` when Th_Cp exceeds the
    capacitor — minus HDL generation and its round-trip check, which
    only the simulation path needs; ``design.code`` is left unset.  The
    returned profile, environment and work target are therefore
    *identical* to the ones the simulator would run.

    Raises:
        ValueError: for the same threshold/criteria rejections
            :func:`~repro.dse.explorer.prepare_point` raises.
    """
    return _prepare(
        netlist, point, base_config, cache, scenario, with_code=False
    )


def bounds_for_point(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None = None,
    cache: SynthesisCache | None = None,
    scenario: ScenarioSpec | None = None,
) -> RunBounds:
    """Bound the run :func:`~repro.dse.explorer.evaluate_point` would make."""
    prepared = prepare_static(
        netlist,
        point,
        base_config=base_config,
        cache=cache,
        scenario=scenario,
    )
    env = prepared.environment
    return bounds_for_run(
        prepared.profile,
        e_max_j=env.e_max_j,
        trace=env.trace,
        thresholds=env.thresholds,
        sleep_drain_w=env.sleep_drain_w,
        work_target_j=prepared.work_target_j,
    )
