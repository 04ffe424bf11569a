"""The in-process sweep executor, and the types every sweep returns.

The paper frames DIAC as a design-exploration methodology whose space
"exponentially expands" with designs, policies and power-failure
scenarios.  :meth:`SweepEngine.submit` runs one
:class:`~repro.dse.request.SweepRequest` in this process or on local
worker processes.  *What* to evaluate — expansion, resume, pruning,
dedup, ask/tell and result assembly — is decided by
:mod:`repro.dse.planner`, which the queue-backed
:class:`repro.service.SweepCoordinator` shares; this module decides
*how*:

* **batching** — evaluation tasks are grouped by synthesis-stage key
  (circuit x policy), so every batch shares one policy-shaped stage via
  :class:`~repro.dse.explorer.SynthesisCache`, and the batches of one
  circuit share its characterization and un-optimized tree;
* **one parallel path** — with one worker each batch runs inline in
  this process on the submission's cache map (which the static screen
  and pruning share); with more, the engine runs the coordinator's
  executor (:meth:`repro.service.SweepCoordinator.session`) on a
  private queue file, whose forked workers take one whole stage per
  lease.  Point evaluation is pure, so both give identical records;
* **streaming** — records stream to any
  :class:`~repro.dse.store.ResultStore` backend (JSONL or SQLite/WAL)
  as batches complete, so a killed run loses at most its in-flight
  batches and resumes from the store;
* **fault tolerance** — execution runs under
  :class:`~repro.dse.resilience.ResilienceConfig`.  Either executor
  evaluates each task it is given once; the planner retries transient
  failures (worker crashes, injected chaos) with seeded backoff, so
  both paths share one retry loop and one attempt count per task.  On
  the parallel path a dead worker's lease fails ``transient`` at once,
  a worker past ``batch_timeout_s`` is killed, both are replaced within
  a budget, and once none is left this process drains the rest.
  Deterministic evaluation errors fail fast into a single
  :class:`SweepFailure`; *any* other exception becomes a recorded
  failure too, never a destroyed sweep (see ``docs/robustness.md``).
"""

from __future__ import annotations

import math
import tempfile
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from numbers import Real
from pathlib import Path
from typing import TYPE_CHECKING

from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.core.replacement import ReplacementCriteria
from repro.dse.explorer import (
    DesignPoint,
    ExplorationRecord,
    SynthesisCache,
    evaluate_point,
    expand_points,
)
from repro.dse.faults import FaultPlan, key_text
from repro.dse.pareto import record_front
from repro.dse.resilience import (
    ResilienceConfig,
    check_count,
    classify,
    describe_error,
)
from repro.dse.store import ResultStore
from repro.energy.scenarios import ScenarioSpec
from repro.tech.nvm import MRAM, NvmTechnology, get_technology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.planner import Execute
    from repro.dse.request import SweepRequest

#: A task key: ``(circuit, *scenario.identity(), *point.identity())`` —
#: the exact-precision identity resume, dedup and failure bookkeeping
#: share.
_TaskKey = tuple

#: One evaluation task: ``(key, circuit, scenario, point)``.
_Task = tuple[_TaskKey, str, ScenarioSpec, DesignPoint]


#: Failure ``kind`` for points the static analysis proved infeasible
#: and the engine therefore never simulated (``analysis_prune=True``).
PRUNED = "pruned"


def _task_key(
    circuit: str, scenario: ScenarioSpec, point: DesignPoint
) -> _TaskKey:
    return (circuit, *scenario.identity(), *point.identity())


def _spec_axes(spec: "SweepSpec") -> dict:
    """JSON-representable axes payload for the spec fingerprint."""
    return {
        "circuits": list(spec.circuits),
        "policies": list(spec.policies),
        "budget_scales": list(spec.budget_scales),
        "technologies": [t.name for t in spec.technologies],
        "criteria_sets": [
            [c.level_weight, c.power_weight, c.fanio_weight]
            for c in spec.criteria_sets
        ],
        "safe_zones": list(spec.safe_zones),
        "threshold_scales": list(spec.threshold_scales),
        "safe_margin_scales": list(spec.safe_margin_scales),
        "scenarios": [list(s.identity()) for s in spec.scenarios],
    }


def expand_tasks(spec: "SweepSpec") -> list[_Task]:
    """The spec's deduplicated evaluation tasks, in spec order.

    Repeated axis values (e.g. the same circuit listed twice) collapse
    to one task, so every consumer — the in-process engine and the
    :mod:`repro.service` coordinator alike — sees one evaluation, one
    record and consistent stats per distinct point.
    """
    tasks: list[_Task] = []
    seen: set[_TaskKey] = set()
    for circuit, scenario, point in spec.points():
        key = _task_key(circuit, scenario, point)
        if key not in seen:
            seen.add(key)
            tasks.append((key, circuit, scenario, point))
    return tasks


#: The full-factorial axes of a :class:`SweepSpec`, in expansion order.
_AXES = (
    "circuits",
    "policies",
    "budget_scales",
    "technologies",
    "criteria_sets",
    "safe_zones",
    "threshold_scales",
    "safe_margin_scales",
    "scenarios",
)


def _technology(value: object) -> NvmTechnology:
    """One ``technologies`` value: an :class:`NvmTechnology` or its name."""
    if isinstance(value, NvmTechnology):
        return value
    if isinstance(value, str):
        try:
            return get_technology(value)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
    raise TypeError(
        "technologies values must be NvmTechnology objects or names, "
        f"got {value!r}"
    )


def _scenario(value: object) -> ScenarioSpec:
    """One ``scenarios`` value: a :class:`ScenarioSpec` or a spec string."""
    if isinstance(value, ScenarioSpec):
        return value
    if isinstance(value, str):
        return ScenarioSpec.parse(value)
    raise TypeError(
        "scenarios values must be ScenarioSpec objects or spec strings, "
        f"got {value!r}"
    )


@dataclass(frozen=True)
class SweepSpec:
    """Full-factorial description of one exploration run.

    Every axis is coerced to a tuple and validated when the spec is
    built, so a malformed axis fails here with a clear error rather
    than deep inside a sweep.

    Attributes:
        circuits: roster names (or keys of the ``netlists`` mapping given
            to :meth:`SweepEngine.submit`) to explore in one run.
        policies: task-granularity policies (1, 2 or 3).
        budget_scales: barrier-budget multipliers (finite, positive) of
            the base budget: ``base_config.budget_j`` when set, else
            the derived default (see :class:`~repro.dse.explorer.DesignPoint`).
        technologies: NVM technologies, as objects or names
            :func:`~repro.tech.nvm.get_technology` knows.
        criteria_sets: replacement criteria weightings.
        safe_zones: safe-zone runtime on/off.
        threshold_scales: uniform threshold-set scalings (finite,
            positive).
        safe_margin_scales: safe-zone width multipliers (finite,
            positive; ``None`` keeps the derived default width).
        scenarios: harvest environments to evaluate every point under,
            as :class:`ScenarioSpec` objects or strings
            :meth:`ScenarioSpec.parse` accepts (see
            :mod:`repro.energy.scenarios`).
    """

    circuits: tuple[str, ...] = ("s27",)
    policies: tuple[int, ...] = (1, 2, 3)
    budget_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    technologies: tuple[NvmTechnology, ...] = (MRAM,)
    criteria_sets: tuple[ReplacementCriteria, ...] = (
        ReplacementCriteria(),
    )
    safe_zones: tuple[bool, ...] = (True, False)
    threshold_scales: tuple[float, ...] = (1.0,)
    safe_margin_scales: tuple[float | None, ...] = (None,)
    scenarios: tuple[ScenarioSpec, ...] = (ScenarioSpec(),)

    def __post_init__(self) -> None:
        for name in _AXES:
            values = getattr(self, name)
            # A bare string would sweep its characters.
            if isinstance(values, str) or not hasattr(values, "__iter__"):
                raise TypeError(
                    f"sweep axis {name!r} must be a sequence of values, "
                    f"got {values!r}"
                )
            values = tuple(values)
            if not values:
                raise ValueError(f"sweep axis {name!r} must be non-empty")
            object.__setattr__(self, name, values)
        object.__setattr__(
            self, "technologies", tuple(map(_technology, self.technologies))
        )
        object.__setattr__(
            self, "scenarios", tuple(map(_scenario, self.scenarios))
        )
        for circuit in self.circuits:
            if not isinstance(circuit, str):
                raise TypeError(
                    f"circuits must be circuit names, got {circuit!r}"
                )
        for policy in self.policies:
            # bool is an int subclass: True would quietly mean policy 1.
            if isinstance(policy, bool) or policy not in (1, 2, 3):
                raise ValueError(f"policy must be 1, 2 or 3, got {policy!r}")
        for axis in ("budget_scales", "threshold_scales", "safe_margin_scales"):
            for value in getattr(self, axis):
                if value is None and axis == "safe_margin_scales":
                    continue
                if isinstance(value, bool) or not isinstance(value, Real):
                    raise TypeError(
                        f"{axis} values must be numbers, got {value!r}"
                    )
                # NaN slips past a plain <= 0 check, and a NaN key never
                # equals itself, so resume could never match it.
                if not (math.isfinite(value) and value > 0):
                    raise ValueError(
                        f"{axis} values must be finite and positive, "
                        f"got {value!r}"
                    )

    def points(self) -> list[tuple[str, ScenarioSpec, DesignPoint]]:
        """The full-factorial (circuit, scenario, point) list, in axis order."""
        expanded = expand_points(
            self.policies,
            self.budget_scales,
            self.technologies,
            self.criteria_sets,
            self.safe_zones,
            self.threshold_scales,
            self.safe_margin_scales,
        )
        return [
            (circuit, scenario, point)
            for circuit in self.circuits
            for scenario in self.scenarios
            for point in expanded
        ]

    def __len__(self) -> int:
        return math.prod(len(getattr(self, name)) for name in _AXES)


@dataclass(frozen=True)
class SweepFailure:
    """One design point that could not be evaluated.

    Attributes:
        circuit: the sweep's name for the circuit.
        label: the failed point's display label.
        error: the exception message.
        scenario: display label of the environment the point failed
            under (a point may fail under one scenario and succeed
            under another — e.g. a trace too weak for its thresholds).
        kind: failure taxonomy bucket — ``terminal`` (deterministic
            evaluation error, failed fast exactly once), ``transient``
            (retryable error that exhausted its retry budget),
            ``unexpected`` (anything else; recorded instead of
            destroying the sweep), or ``pruned`` (the static analysis
            proved the simulator would raise; never evaluated, 0
            attempts).
        attempts: evaluation attempts this task consumed.
    """

    circuit: str
    label: str
    error: str
    scenario: str = ScenarioSpec().label()
    kind: str = "terminal"
    attempts: int = 1


@dataclass
class SweepStats:
    """Bookkeeping of one engine run.

    Attributes:
        n_points: distinct evaluation tasks planned (spec points for a
            grid request, unique proposed (circuit, scenario, point)
            keys for a search).
        n_evaluated: points evaluated this run.
        n_resumed: points skipped because the store already had them.
        n_failed: points that raised instead of producing a record
            (searches count screening-fidelity evaluations too; the
            result's ``failures`` list covers only requested
            scenarios).
        n_batches: synthesis-stage groups evaluated (enqueued, on the
            parallel path), each retry round's groups included.
        n_generations: strategy generations driven (0 for a grid).
        synthesize_calls: synthesis stages (circuit x policy) built in
            this process — static screening and pruning included;
            stages that worker processes built are not counted.
        workers: process count used (1 == inline, in-process).
        wall_s: wall-clock duration of the run.
        n_pruned: points the static analysis proved infeasible and
            skipped without simulating (``analysis_prune=True`` only;
            each appears in ``failures`` with ``kind="pruned"``).
        n_retries: task re-evaluations scheduled after transient
            failures (each retry of one task counts once).
        n_timeouts: workers killed for holding a lease past its
            deadline (the lease failed ``transient``).
        wait_s: seconds the coordinator slept waiting on the lease
            queue (0.0 on the serial path); timing, like ``wall_s``.
    """

    n_points: int = 0
    n_evaluated: int = 0
    n_resumed: int = 0
    n_failed: int = 0
    n_pruned: int = 0
    n_batches: int = 0
    n_generations: int = 0
    synthesize_calls: int = 0
    workers: int = 1
    wall_s: float = 0.0
    n_retries: int = 0
    n_timeouts: int = 0
    wait_s: float = 0.0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of synthesis-stage groups served without synthesizing.

        Each of the run's ``n_batches`` (circuit, policy) groups needs one
        stage when cold; every one the caches absorbed beyond
        the actual ``synthesize_calls`` was a hit.  0.0 on a fully cold
        run, approaching 1.0 when a long-lived cache (generational search,
        warm explorer) serves every stage.  Only meaningful when the
        batches ran in this process.
        """
        if self.n_batches <= 0:
            return 0.0
        return max(0.0, 1.0 - self.synthesize_calls / self.n_batches)

    @property
    def evals_per_s(self) -> float:
        """Fresh evaluations per wall-clock second (0.0 before timing)."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.n_evaluated / self.wall_s


@dataclass
class SweepResult:
    """Records plus run statistics.

    ``records`` contains every successful full-fidelity record of the
    run — freshly evaluated and resumed-from-store alike — in planned
    order: the spec's point order for a grid request, first-proposal
    order for a search.  ``failures`` lists, in the same order, the
    points that raised (an infeasible safe-margin, a trace too weak for
    the configuration, or a scenario that no longer resolves — e.g. a
    moved power-log file) so one bad point never aborts the sweep.

    Every aggregate below is computed from ``records``; to inspect a
    store far larger than the process should hold, stream it through
    :meth:`~repro.dse.aggregate.SweepAggregator.from_store` instead.
    """

    records: list[ExplorationRecord] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    failures: list[SweepFailure] = field(default_factory=list)

    def _require_single_scenario(self, what: str, instead: str) -> None:
        """Guard the cross-record aggregates against mixed groups.

        PDP values are only comparable inside one (scenario, circuit)
        pair — a stingy environment inflates every point's PDP, and a
        bigger circuit simply costs more — so aggregating records that
        mix scenarios *or* circuits would crown whichever record ran
        under the most generous scenario on the smallest circuit.
        """
        groups = {(r.scenario.label(), r.circuit) for r in self.records}
        if len(groups) > 1:
            names = ", ".join(
                f"{scenario}/{circuit}"
                for scenario, circuit in sorted(groups)
            )
            raise ValueError(
                f"{what}() is not meaningful across (scenario, circuit) "
                f"groups ({names}); use {instead}() or "
                "metrics.robustness_report()"
            )

    def best(self) -> ExplorationRecord:
        """The PDP-optimal record of a single-(scenario, circuit) sweep.

        Raises:
            ValueError: when the result holds no records, or records
                from more than one (scenario, circuit) group (use
                :meth:`best_by_scenario` /
                :func:`repro.metrics.robustness_report` instead).
        """
        if not self.records:
            raise ValueError("no records to choose from")
        self._require_single_scenario("best", "best_by_scenario")
        return min(self.records, key=lambda r: r.pdp_js)

    def front(self) -> list[ExplorationRecord]:
        """The Pareto front of a single-(scenario, circuit) sweep.

        Raises:
            ValueError: on records from more than one (scenario,
                circuit) group (use :meth:`fronts_by_scenario` instead).
        """
        self._require_single_scenario("front", "fronts_by_scenario")
        return record_front(self.records)

    def by_scenario(self) -> dict[tuple[str, str], list[ExplorationRecord]]:
        """Records grouped by (scenario label, circuit), first-seen order.

        PDP values are only comparable inside one (scenario, circuit)
        pair — a stingy scenario inflates every point's PDP, and a
        larger circuit's PDP dwarfs a smaller one's regardless of
        design quality — so this pair is the unit Pareto fronts and
        "best design" claims live at.
        """
        groups: dict[tuple[str, str], list[ExplorationRecord]] = {}
        for record in self.records:
            key = (record.scenario.label(), record.circuit)
            groups.setdefault(key, []).append(record)
        return groups

    def fronts_by_scenario(
        self,
    ) -> dict[tuple[str, str], list[ExplorationRecord]]:
        """Per-(scenario, circuit) efficiency/resiliency Pareto fronts."""
        return {
            key: record_front(records)
            for key, records in self.by_scenario().items()
        }

    def best_by_scenario(self) -> dict[tuple[str, str], ExplorationRecord]:
        """The PDP-optimal record of each (scenario, circuit) group."""
        return {
            key: min(records, key=lambda r: r.pdp_js)
            for key, records in self.by_scenario().items()
        }

    def robustness(self) -> list:
        """Cross-scenario robustness entries, most robust first.

        :func:`repro.metrics.robustness.robustness_report` over the
        records.
        """
        from repro.metrics.robustness import robustness_report

        return robustness_report(self.records)


#: Worker-process-global synthesis caches, keyed by the sweep's circuit
#: name.  Service workers (forked or ``repro worker``) keep every stage
#: they synthesized warm for the later leases they run, so a search's
#: generation N reuses the stages of generation 1.  A forked worker
#: clears it first; the engine's own process never uses it (its inline
#: batches run on the submission's cache map).
_PROCESS_CACHES: dict[str, SynthesisCache] = {}


def _evaluate_batch(
    circuit: str,
    netlist: Netlist,
    jobs: list[tuple[_TaskKey, ScenarioSpec, DesignPoint]],
    base_config: DiacConfig | None,
    fault_plan: FaultPlan | None = None,
    caches: dict[str, SynthesisCache] | None = None,
) -> tuple[
    list[tuple[_TaskKey, ExplorationRecord]],
    list[tuple[_TaskKey, SweepFailure]],
]:
    """Evaluate one synthesis-stage group: the only evaluator.

    Shared by the inline engine and every service worker; returns
    keyed records and any keyed per-job failures.  The group shares one
    shaped stage — scenarios too, since the environment never changes
    the synthesized design.  ``circuit`` is the sweep's name for the
    netlist, which wins over ``netlist.name`` so resume keys stay stable
    for file-loaded circuits.

    ``caches`` is the submitter's circuit -> cache map when the batch
    runs in the submitting process (the inline engine, or a drain once
    every worker is gone); injected crash faults then raise
    :class:`~repro.dse.resilience.WorkerCrashError` instead of exiting.
    Without it (a service worker) the batch uses :data:`_PROCESS_CACHES`,
    and a crash fault kills the process.

    Every per-job exception — deterministic, transient, or a genuine
    bug — becomes a classified :class:`SweepFailure` so one bad point
    never destroys its batch; the planner decides which kinds retry.
    ``fault_plan`` injects deterministic chaos just before each job.
    """
    inline = caches is not None
    cache = (_PROCESS_CACHES if caches is None else caches).setdefault(
        circuit, SynthesisCache()
    )
    records = []
    failures = []
    for key, scenario, point in jobs:
        try:
            if fault_plan is not None:
                fault_plan.fire(key_text(key), allow_exit=not inline)
            record = evaluate_point(
                netlist,
                point,
                base_config=base_config,
                cache=cache,
                scenario=scenario,
            )
        except Exception as error:
            failures.append(
                (
                    key,
                    SweepFailure(
                        circuit=circuit,
                        label=point.label(),
                        error=describe_error(error),
                        scenario=scenario.label(),
                        kind=classify(error),
                    ),
                )
            )
            continue
        record.circuit = circuit
        records.append((key, record))
    return records, failures


#: Supervision poll of the engine's parallel path.
_FLEET_POLL_S = 0.01

#: A lease size no stage reaches: every lease is one whole stage, so one
#: lease is one synthesis run.
_WHOLE_STAGE = 1 << 30

#: The lease lifetime standing in for "no deadline" (one year).
_NO_DEADLINE_S = 365 * 86400.0


class SweepEngine:
    """Executes sweeps in-process or on local worker processes.

    Args:
        workers: 1 (default) runs each stage batch inline in this
            process on the submission's synthesis caches; more runs
            :meth:`repro.service.SweepCoordinator.session` with that
            many forked workers on a private temporary queue file, one
            whole stage per lease.
        base_config: synthesis defaults shared by every point.
        store: optional streaming result store (any
            :class:`~repro.dse.store.ResultStore` backend); when given,
            records are appended as they are produced and a
            ``resume=True`` request skips points the store already
            holds — via the store's indexed ``keys()``, never a full
            ``load()``.
        resilience: retry/deadline configuration (default: the default
            :class:`~repro.dse.resilience.RetryPolicy`, no deadlines);
            ``retry`` goes to the planner, and ``batch_timeout_s`` is
            the lease deadline of the parallel path.
    """

    def __init__(
        self,
        workers: int = 1,
        base_config: DiacConfig | None = None,
        store: ResultStore | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        check_count("workers", workers, 1)
        self.workers = workers
        self.base_config = base_config
        self.store = store
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )

    def submit(
        self,
        request: "SweepRequest",
        netlists: dict[str, Netlist] | None = None,
    ) -> SweepResult:
        """Execute one :class:`~repro.dse.request.SweepRequest`.

        :func:`repro.dse.planner.plan_and_run` decides what to evaluate
        — a ``grid`` request walks its spec in one generation; any other
        strategy, named or instance, is asked and told generation by
        generation over ``spec.circuits`` x ``spec.scenarios`` — and
        this engine evaluates each generation's pending tasks.  The
        distributed :class:`repro.service.SweepCoordinator` plans through
        the same function, so moving between in-process and queue-backed
        execution never changes the result, only where the work runs.

        Args:
            request: what to explore and how.
            netlists: circuit name -> netlist mapping; roster names are
                loaded automatically when omitted.

        Returns:
            A :class:`SweepResult`: the full-fidelity records in planned
            order, their failures and the run's stats.

        Raises:
            KeyError: for a circuit neither in ``netlists`` nor on the
                benchmark roster.
        """
        # Imported here because the planner builds on this module.
        from repro.dse.planner import load_netlists, plan_and_run

        netlists = load_netlists(request.spec.circuits, dict(netlists or {}))
        stats = SweepStats(workers=self.workers)
        # One synthesis-cache map per submission: the static screen,
        # pruning and every in-process batch share it, so each circuit is
        # characterized, and each stage shaped, once in this process.
        caches: dict[str, SynthesisCache] = {}
        session: AbstractContextManager[Execute]
        if self.workers == 1:
            session = nullcontext(
                partial(
                    self._execute_tasks,
                    netlists=netlists,
                    stats=stats,
                    caches=caches,
                )
            )
        else:
            session = self._fleet(stats, netlists, caches)
        with session as execute:
            return plan_and_run(
                request,
                execute,
                stats,
                store=self.store,
                base_config=self.base_config,
                netlists=netlists,
                caches=caches,
                retry=self.resilience.retry,
            )

    @contextmanager
    def _fleet(
        self,
        stats: SweepStats,
        netlists: dict[str, Netlist],
        caches: dict[str, SynthesisCache],
    ) -> Iterator[Execute]:
        """The parallel executor: a coordinator session on a private file.

        Planning stays here, so strategy instances and in-memory
        netlists work unchanged: the workers are forked and inherit
        them.  Each poll commits the records finished since the last
        one to :attr:`store`, whatever its backend.
        """
        from repro.dse.sqlite_store import SqliteResultStore
        from repro.service.coordinator import SweepCoordinator

        cfg = self.resilience
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            path = Path(tmp) / "fleet.sqlite"
            coordinator = SweepCoordinator(
                path,
                workers=self.workers,
                lease_size=_WHOLE_STAGE,
                lease_timeout_s=cfg.batch_timeout_s or _NO_DEADLINE_S,
                poll_s=_FLEET_POLL_S,
                resilience=cfg,
                base_config=self.base_config,
            )
            store = SqliteResultStore(path)
            try:
                with coordinator.session(
                    stats, store, netlists=netlists, caches=caches,
                    commit=self._commit,
                ) as execute:
                    yield execute
            finally:
                store.close()

    def _commit(
        self,
        keyed_records: list[tuple[_TaskKey, ExplorationRecord]],
    ) -> None:
        """Persist finished records to the store, if there is one.

        The single exit point for produced records: every batch (or
        poll of the parallel path) hands its completions here as it
        finishes, so a killed run loses at most its in-flight batches.
        """
        if keyed_records and self.store is not None:
            self.store.extend([r for _k, r in keyed_records])

    def _execute_tasks(
        self,
        tasks: list[_Task],
        netlists: dict[str, Netlist],
        stats: SweepStats,
        caches: dict[str, SynthesisCache],
    ) -> tuple[
        dict[_TaskKey, ExplorationRecord], dict[_TaskKey, SweepFailure]
    ]:
        """Evaluate each task once, inline, and commit the records.

        The planner's executor for a one-worker :meth:`submit`.  Tasks
        are grouped by synthesis stage (circuit x policy), so each batch
        shares one shaped stage on ``caches``;
        scenarios ride in the same batch because they never change the
        synthesized design.  Each batch is evaluated and committed in
        turn; the planner decides which failures run again.
        """
        groups: dict[
            tuple[str, int],
            list[tuple[_TaskKey, ScenarioSpec, DesignPoint]],
        ] = {}
        for key, circuit, scenario, point in tasks:
            groups.setdefault((circuit, point.policy), []).append(
                (key, scenario, point)
            )
        stats.n_batches += len(groups)
        fresh: dict[_TaskKey, ExplorationRecord] = {}
        failures: dict[_TaskKey, SweepFailure] = {}
        for (circuit, _policy), jobs in groups.items():
            records, batch_failures = _evaluate_batch(
                circuit, netlists[circuit], jobs, self.base_config,
                self.resilience.fault_plan, caches,
            )
            fresh.update(records)
            failures.update(batch_failures)
            self._commit(records)
        return fresh, failures
