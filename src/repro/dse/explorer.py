"""Design-space exploration: points, records and pure point evaluation.

The paper motivates DIAC as a *design exploration* methodology:
"Incorporating tree-based representations, different designs, and power
failure scenarios will exponentially expand the design space.  This will
necessitate an efficient, precise, automated design tool."  This module
defines the design-space vocabulary — :class:`DesignPoint`,
:class:`ExplorationRecord` — and a *pure* evaluation function,
:func:`evaluate_point`, that maps (netlist, point) to a record without
mutating any shared state.  The parallel sweep machinery lives in
:mod:`repro.dse.engine`.

Evaluating a point runs the full DIAC pipeline, but most of it depends on
few of the point's knobs: synthesis characterization, tree generation and
policy shaping only on ``(netlist, policy, granularity, activity,
split/merge bounds)``; NVM replacement additionally on budget, technology
and criteria; code generation additionally on the target clock period.
None of them depends on the safe zone, the threshold or margin scales or
the harvest scenario.  :class:`SynthesisCache` memoizes the
:class:`~repro.core.diac.DiacSynthesizer` steps at all three levels, so
a sweep builds each distinct plan and its code bundle once instead of
once per point, and builds it exactly as ``DiacSynthesizer.run`` would.
No evaluation reads HDL, so a sweep never emits any.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TypeVar

from repro.baselines.schemes import profile_diac
from repro.circuits.netlist import Netlist
from repro.core.codegen import GeneratedCode
from repro.core.diac import DiacConfig, DiacDesign, DiacSynthesizer
from repro.core.replacement import NvmPlan, ReplacementCriteria
from repro.core.tree import TaskGraph
from repro.energy.scenarios import ScenarioSpec
from repro.evaluation import Environment, build_environment, execute_profile
from repro.sim.intermittent import SchemeProfile
from repro.tech.nvm import MRAM, NvmTechnology

_T = TypeVar("_T")


@dataclass(frozen=True)
class DesignPoint:
    """One configuration in the sweep.

    Attributes:
        policy: task-granularity policy (1, 2 or 3).
        budget_scale: barrier budget relative to the sweep's
            ``base_config.budget_j``, else to the default derived for the
            circuit and this point's technology.
        technology: NVM technology of the backup path.
        criteria: replacement criteria weights.
        use_safe_zone: optimized-DIAC runtime when True.
        threshold_scale: uniform scaling of the evaluation threshold set
            (applied via :meth:`~repro.energy.thresholds.ThresholdSet.scaled`).
        safe_margin_scale: safe-zone width relative to the derived
            default margin (``None`` keeps the default width; applied via
            :meth:`~repro.energy.thresholds.ThresholdSet.with_safe_margin`).
    """

    policy: int = 3
    budget_scale: float = 1.0
    technology: NvmTechnology = MRAM
    criteria: ReplacementCriteria = field(default_factory=ReplacementCriteria)
    use_safe_zone: bool = True
    threshold_scale: float = 1.0
    safe_margin_scale: float | None = None

    def identity(self) -> tuple:
        """Exact-value identity of this configuration.

        Unlike :meth:`label`, which rounds floats for display, this
        tuple preserves full precision — it is the key resume and
        deduplication rely on.
        """
        c = self.criteria
        return (
            self.policy,
            self.budget_scale,
            self.technology.name,
            c.level_weight,
            c.power_weight,
            c.fanio_weight,
            self.use_safe_zone,
            self.threshold_scale,
            self.safe_margin_scale,
        )

    def label(self) -> str:
        """Compact human-readable identifier (rounded for display)."""
        c = self.criteria
        parts = [
            f"P{self.policy}",
            f"b{self.budget_scale:g}",
            self.technology.name,
            "safe" if self.use_safe_zone else "nosafe",
            f"c{c.level_weight:g},{c.power_weight:g},{c.fanio_weight:g}",
        ]
        if self.threshold_scale != 1.0:
            parts.append(f"t{self.threshold_scale:g}")
        if self.safe_margin_scale is not None:
            parts.append(f"m{self.safe_margin_scale:g}")
        return "/".join(parts)


@dataclass
class ExplorationRecord:
    """Evaluation outcome of one design point in one environment.

    Attributes:
        point: the configuration.
        pdp_js: absolute PDP of the DIAC scheme at this point.
        energy_j: total energy.
        active_time_s: busy time.
        n_backups: commits performed (efficiency proxy).
        reexec_energy_j: re-executed work (resiliency proxy — lower means
            less progress is ever at risk).
        n_barriers: barriers the replacement step placed.
        circuit: name of the evaluated circuit.
        scenario: the harvest environment the point was evaluated under.
    """

    point: DesignPoint
    pdp_js: float
    energy_j: float
    active_time_s: float
    n_backups: int
    reexec_energy_j: float
    n_barriers: int
    circuit: str = ""
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)

    def key(self) -> tuple:
        """Identity inside a sweep: circuit + scenario + exact point.

        Built on :meth:`DesignPoint.identity` and
        :meth:`~repro.energy.scenarios.ScenarioSpec.identity` (full float
        precision), not the display labels, so near-identical axis values
        never collide.
        """
        return (
            self.circuit,
            *self.scenario.identity(),
            *self.point.identity(),
        )


#: Plans (and, separately, code bundles) one cache keeps; beyond this the
#: least recently used is dropped.  A grid reuses at most policies x
#: budgets x technologies x criteria plans per circuit, but a search
#: over continuous budgets proposes a new plan per point.  A plan shares
#: its stage's task graph, so a plan entry holds only its barrier overlay
#: and partitions; a code entry holds its pragma header and timing
#: report (and its HDL text only once something has read it).
PLAN_MEMO_SIZE = 64


def _recall(memo: dict, key: tuple, build: Callable[[], _T]) -> _T:
    """``memo[key]``, built on a miss; keeps ``memo`` an LRU of bounded size."""
    value = memo.pop(key, None)
    if value is None:
        value = build()
        if len(memo) >= PLAN_MEMO_SIZE:
            del memo[next(iter(memo))]
    memo[key] = value
    return value


class SynthesisCache:
    """Memoizes :class:`~repro.core.diac.DiacSynthesizer`'s steps, at three levels.

    * **Stage** — :meth:`~repro.core.diac.DiacSynthesizer.stage` (the
      shaped task graph and its report), keyed by :meth:`stage_key`.
    * **Plan** — :meth:`~repro.core.diac.DiacSynthesizer.plan` at the
      config's :meth:`~repro.core.diac.DiacSynthesizer.budget_j`, keyed by
      :meth:`plan_key`: the stage key plus budget, NVM technology and
      criteria.  A plan is a barrier overlay whose ``graph`` is the
      cached stage itself, not a copy.
    * **Code** — :meth:`~repro.core.diac.DiacSynthesizer.code`, keyed by
      the plan key plus the target clock period.

    The cache composes nothing itself, so its designs equal those
    :meth:`~repro.core.diac.DiacSynthesizer.run` builds.  A code bundle
    emits and checks its structural Verilog only when its HDL is read,
    which no evaluation does.  Plans and code bundles are frozen and
    nothing after the policy stage mutates a stage graph, so one entry
    is safely shared by every design built from it; each memo keeps its
    :data:`PLAN_MEMO_SIZE` most recently used entries.
    """

    def __init__(self) -> None:
        self._stages: dict[tuple, TaskGraph] = {}
        self._plans: dict[tuple, NvmPlan] = {}
        self._codes: dict[tuple, GeneratedCode] = {}
        #: Number of cache misses == actual ``synthesize`` invocations.
        self.synthesize_calls = 0

    def __len__(self) -> int:
        return len(self._stages)

    @staticmethod
    def stage_key(netlist: Netlist, config: DiacConfig) -> tuple:
        """The memoization key for one (netlist, config) combination."""
        return (
            netlist.name,
            config.policy,
            config.granularity,
            config.activity,
            config.split_fraction,
            config.merge_fraction,
        )

    @classmethod
    def plan_key(cls, netlist: Netlist, config: DiacConfig) -> tuple:
        """The plan memo key: stage key + budget, technology, criteria."""
        return (
            *cls.stage_key(netlist, config),
            config.budget_j,
            config.technology,
            config.criteria,
        )

    def stage_for(self, netlist: Netlist, config: DiacConfig) -> TaskGraph:
        """Return the cached front-half stage, computing it on a miss."""
        key = self.stage_key(netlist, config)
        stage = self._stages.get(key)
        if stage is None:
            self.synthesize_calls += 1
            stage = DiacSynthesizer(config).stage(netlist)
            self._stages[key] = stage
        return stage

    def plan_for(self, netlist: Netlist, config: DiacConfig) -> NvmPlan:
        """Return the cached NVM plan."""
        synth = DiacSynthesizer(config)
        return _recall(
            self._plans,
            self.plan_key(netlist, config),
            lambda: synth.plan(self.stage_for(netlist, config), synth.budget_j(netlist)),
        )

    def code_for(self, netlist: Netlist, config: DiacConfig) -> GeneratedCode:
        """Return the cached code bundle of :meth:`plan_for`'s plan."""
        return _recall(
            self._codes,
            (*self.plan_key(netlist, config), config.target_period_s),
            lambda: DiacSynthesizer(config).code(self.plan_for(netlist, config)),
        )


def _point_config(base: DiacConfig, point: DesignPoint, netlist: Netlist) -> DiacConfig:
    """The synthesis configuration a point resolves to.

    Its budget is ``point.budget_scale`` times the base budget:
    ``base.budget_j`` when set, else the default derived for ``netlist``
    and the point's technology.
    """
    config = replace(
        base,
        policy=point.policy,
        technology=point.technology,
        criteria=point.criteria,
        use_safe_zone=point.use_safe_zone,
    )
    budget = point.budget_scale * DiacSynthesizer(config).budget_j(netlist)
    return replace(config, budget_j=budget)


@dataclass(frozen=True)
class PreparedPoint:
    """The synthesis front half of one point evaluation, ready to run.

    Everything :func:`evaluate_point` computes before running the
    intermittent executor: the synthesized design, the (possibly
    threshold-scaled) environment, the single scheme profile the record
    reads, and the macro-task work target.  The static bounds of
    :mod:`repro.analysis` read the same object, so they bound exactly
    the inputs the executor would run on; ``design.code`` costs no HDL
    unless its text is read.
    """

    scenario: ScenarioSpec
    design: DiacDesign
    environment: Environment
    profile: SchemeProfile
    work_target_j: float


def prepare_point(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None = None,
    cache: SynthesisCache | None = None,
    scenario: ScenarioSpec | None = None,
) -> PreparedPoint:
    """Run the synthesis front half of :func:`evaluate_point`.

    Same contract (side-effect-free, cache-shared, seed-deterministic),
    stopping just short of executing the macro task.
    """
    scenario = scenario or ScenarioSpec()
    config = _point_config(base_config or DiacConfig(), point, netlist)
    if cache is None:  # NB: an empty cache is falsy (it has __len__).
        cache = SynthesisCache()
    design = DiacSynthesizer(config).assemble(
        cache.plan_for(netlist, config), cache.code_for(netlist, config)
    )

    env = build_environment(design, scenario=scenario)
    thresholds = env.thresholds
    # Knob semantics: ``safe_margin_scale`` is relative to the derived
    # default margin of whatever set it is applied to, and ``scaled``
    # multiplies every threshold (including that margin and the cascade
    # gap) uniformly.  Both operations are linear in energy, so the two
    # knobs compose commutatively — margin-then-scale and
    # scale-then-margin yield the same set (to float rounding); the
    # final margin is ``safe_margin_scale x default x threshold_scale``
    # either way, which is the intended meaning of "a relative width
    # under a uniformly rescaled threshold set".  Pinned by the
    # commutativity property test in tests/test_properties.py.
    if point.safe_margin_scale is not None:
        thresholds = thresholds.with_safe_margin(
            point.safe_margin_scale * thresholds.safe_zone_margin_j
        )
    if point.threshold_scale != 1.0:
        thresholds = thresholds.scaled(point.threshold_scale)
    if thresholds.compute_j > env.e_max_j:
        # The capacitor cannot reach Th_Cp: the executor would either
        # conjure energy past capacity or spin to a spurious trace
        # failure.  Reject the point instead.
        raise ValueError(
            f"threshold_scale {point.threshold_scale:g} puts Th_Cp "
            f"({thresholds.compute_j:.3e} J) above the capacitor "
            f"capacity ({env.e_max_j:.3e} J)"
        )
    if thresholds is not env.thresholds:
        env = replace(env, thresholds=thresholds)

    # Simulate only the scheme this record reads — the four-scheme
    # comparison is the evaluation harness's job, not the sweep's.
    profile = profile_diac(design, optimized=point.use_safe_zone)
    return PreparedPoint(
        scenario=scenario,
        design=design,
        environment=env,
        profile=profile,
        work_target_j=env.n_passes * profile.pass_energy_j,
    )


def evaluate_point(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None = None,
    cache: SynthesisCache | None = None,
    scenario: ScenarioSpec | None = None,
) -> ExplorationRecord:
    """Synthesize and execute one design point — side-effect-free.

    Neither ``netlist``, ``base_config`` nor any shared synthesizer state
    is mutated; repeated calls with the same arguments return identical
    records, which is what lets the sweep engine fan evaluations out over
    worker processes and compare serial and parallel runs bit-for-bit.
    Stochastic scenarios are seed-deterministic, so this holds across the
    scenario axis too.

    Args:
        netlist: the design under exploration.
        point: the configuration to evaluate.
        base_config: defaults shared by all points of a sweep.
        cache: optional synthesis-stage memo shared across points.
        scenario: harvest environment to evaluate under (the paper's
            Fig. 5 trace when omitted).  The scenario only changes the
            evaluation environment, never the synthesized design, so all
            scenarios of one policy share a cached synthesis stage.

    Returns:
        The :class:`ExplorationRecord` for ``(netlist, scenario, point)``.
    """
    prepared = prepare_point(
        netlist,
        point,
        base_config=base_config,
        cache=cache,
        scenario=scenario,
    )
    result = execute_profile(prepared.profile, prepared.environment)
    return ExplorationRecord(
        point=point,
        pdp_js=result.pdp_js,
        energy_j=result.total_energy_j,
        active_time_s=result.active_time_s,
        n_backups=result.n_backups,
        reexec_energy_j=result.reexec_energy_j,
        n_barriers=prepared.design.plan.n_barriers,
        circuit=netlist.name,
        scenario=prepared.scenario,
    )


def expand_points(
    policies: tuple[int, ...],
    budget_scales: tuple[float, ...],
    technologies: tuple[NvmTechnology, ...],
    criteria_sets: tuple[ReplacementCriteria, ...],
    safe_zones: tuple[bool, ...],
    threshold_scales: tuple[float, ...],
    safe_margin_scales: tuple[float | None, ...],
) -> list[DesignPoint]:
    """Full-factorial expansion of the design-point axes, in canonical order.

    The single expansion behind :meth:`repro.dse.engine.SweepSpec.points`,
    so a new design axis only ever needs threading through one product.
    Environment axes (circuits, scenarios) are not design-point fields;
    the engine crosses them with this product itself.
    """
    return [
        DesignPoint(
            policy=policy,
            budget_scale=scale,
            technology=tech,
            criteria=crit,
            use_safe_zone=safe,
            threshold_scale=th_scale,
            safe_margin_scale=margin,
        )
        for policy, scale, tech, crit, safe, th_scale, margin in (
            itertools.product(
                policies,
                budget_scales,
                technologies,
                criteria_sets,
                safe_zones,
                threshold_scales,
                safe_margin_scales,
            )
        )
    ]
