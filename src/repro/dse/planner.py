"""The one sweep planner behind every execution front end.

A :class:`~repro.dse.request.SweepRequest` is planned the same way
whether it runs in-process (:meth:`repro.dse.engine.SweepEngine.submit`)
or on the lease queue (:meth:`repro.service.SweepCoordinator.submit`):

* **expansion** — a ``grid`` request is a single generation holding the
  spec's deduplicated tasks; any other strategy is asked generation by
  generation, each proposal crossed with ``spec.circuits`` x
  ``spec.scenarios``;
* **store fingerprint** — :func:`sync_store_metadata` stamps the run's
  base-config and axes hashes and warns before mixing configurations;
* **indexed resume** — the store's ``keys()`` marks done work and only
  the hit records are fetched back, one ``iter_records`` query per
  (scenario, circuit) group; a key the index promised but the fetch
  did not deliver is evaluated again instead of silently dropped;
* **pruning** — ``analysis_prune`` grids skip provably infeasible
  points (:func:`prune_tasks`);
* **dedup** — a key planned in any earlier generation is never planned
  again, so a strategy re-proposing a point costs nothing;
* **retry** — the one retry loop: a transient failure the run's
  :class:`~repro.dse.resilience.RetryPolicy` still allows is handed to
  the executor again once its backoff has elapsed
  (:func:`execute_with_retries`);
* **full fidelity** — only keys under a requested scenario reach the
  result; screening evaluations are told to the strategy and streamed
  to the store, but stay out of ``records`` and ``failures``;
* **result** — records and failures in planned order (spec order for a
  grid, first-proposal order for a search).

A front end supplies only an :data:`Execute` callable that evaluates
each task it is given once, and keeps the execution counters it owns
(``n_batches``, ``synthesize_calls``, ``n_timeouts``).  Everything the
planner decides — retries and attempt counts included — is therefore
identical across execution paths.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.dse.engine import (
    PRUNED,
    SweepFailure,
    SweepResult,
    SweepSpec,
    SweepStats,
    _spec_axes,
    _Task,
    _task_key,
    _TaskKey,
    expand_tasks,
)
from repro.dse.explorer import ExplorationRecord, SynthesisCache
from repro.dse.faults import key_text
from repro.dse.resilience import RetryPolicy
from repro.dse.store import ResultStore, config_fingerprint, value_fingerprint
from repro.dse.strategies import EvalOutcome, Proposal
from repro.suite.registry import load_circuit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.request import SweepRequest

#: Evaluates each pending task once; returns ``(records_by_key,
#: failures_by_key)`` that together cover every task it was given.
Execute = Callable[
    [list[_Task]],
    tuple[dict[_TaskKey, ExplorationRecord], dict[_TaskKey, SweepFailure]],
]


def load_netlists(
    circuits: tuple[str, ...], netlists: dict[str, Netlist]
) -> dict[str, Netlist]:
    """Fill ``netlists`` in place with every missing roster circuit.

    Raises:
        KeyError: for a circuit neither in ``netlists`` nor on the
            benchmark roster.
    """
    for name in circuits:
        if name not in netlists:
            netlists[name] = load_circuit(name)
    return netlists


def sync_store_metadata(
    store: ResultStore | None,
    base_config: DiacConfig | None,
    axes: object,
    resume: bool,
) -> None:
    """Stamp the run's spec fingerprint; warn before mixing configs.

    Resume keys cover the circuit, scenario and exact design point but
    NOT ``base_config`` — two stores written under different base
    configurations hold records that are not comparable, and nothing in
    the records themselves says so.  The store metadata therefore
    carries a two-part fingerprint: the base-config hash (mismatch =
    the silent-mixing hazard, warned about loudly) and the axes hash
    (provenance only — growing a spec and resuming is a supported
    workflow, not a mistake).
    """
    if store is None:
        return
    current = {
        "base_config": config_fingerprint(base_config),
        "axes": value_fingerprint(axes),
    }
    stored = store.get_metadata().get("spec_fingerprint")
    if (
        isinstance(stored, dict)
        and stored.get("base_config") not in (None, current["base_config"])
    ):
        verb = "resuming" if resume else "appending"
        warnings.warn(
            f"{getattr(store, 'path', store)}: store was "
            f"written under base configuration "
            f"{stored['base_config']} but this run uses "
            f"{current['base_config']}; {verb} mixes records that "
            "are not comparable — keep one store per base "
            "configuration",
            stacklevel=4,
        )
    store.set_metadata(spec_fingerprint=current)


def fetch_records(
    store: ResultStore, tasks: list[_Task]
) -> dict[_TaskKey, ExplorationRecord]:
    """The stored records of ``tasks``, one indexed query per group.

    Each (scenario label, circuit) group is read with one
    ``iter_records(scenario=, circuit=)`` query — never a full
    ``load()``.  When a key appears more than once on disk (a torn write
    healed by re-evaluation), the last record wins — the same rule as
    store compaction.
    """
    by_group: dict[tuple[str, str], set[_TaskKey]] = {}
    for key, circuit, scenario, _point in tasks:
        by_group.setdefault((scenario.label(), circuit), set()).add(key)
    found: dict[_TaskKey, ExplorationRecord] = {}
    for (label, circuit), keys in by_group.items():
        for record in store.iter_records(scenario=label, circuit=circuit):
            key = record.key()
            if key in keys:
                found[key] = record
    return found


def prune_tasks(
    pending: list[_Task],
    netlists: dict[str, Netlist],
    caches: dict[str, SynthesisCache],
    base_config: DiacConfig | None = None,
) -> tuple[list[_Task], dict[_TaskKey, SweepFailure]]:
    """Split pending tasks into (simulate, provably-infeasible).

    ``caches`` is the submission's circuit -> synthesis-cache map, so
    the stages the analysis builds are the ones the simulation reuses.

    Uses only the ``INFEASIBLE`` verdict — ``DOMINATED`` points can
    still run, and pruning them would break record parity with a clean
    sweep.  Analysis errors downgrade to ``UNKNOWN`` inside
    :func:`~repro.analysis.assess_point`, so a point that cannot even
    be analysed still flows through the simulation path and fails with
    its canonical error.
    """
    from repro.analysis.feasibility import Verdict, assess_point

    remaining: list[_Task] = []
    pruned: dict[_TaskKey, SweepFailure] = {}
    for key, circuit, scenario, point in pending:
        report = assess_point(
            netlists[circuit],
            point,
            base_config=base_config,
            cache=caches.setdefault(circuit, SynthesisCache()),
            scenario=scenario,
        )
        if report.verdict is Verdict.INFEASIBLE:
            pruned[key] = SweepFailure(
                circuit=circuit,
                label=point.label(),
                error=report.reason,
                scenario=scenario.label(),
                kind=PRUNED,
                attempts=0,
            )
        else:
            remaining.append((key, circuit, scenario, point))
    return remaining, pruned


def _proposal_tasks(proposal: Proposal, spec: SweepSpec) -> list[_Task]:
    """One proposal crossed with ``spec.circuits`` x ``spec.scenarios``."""
    tasks: list[_Task] = []
    for circuit in spec.circuits:
        for base_scenario in spec.scenarios:
            scenario = proposal.scenario_for(base_scenario)
            key = _task_key(circuit, scenario, proposal.point)
            tasks.append((key, circuit, scenario, proposal.point))
    return tasks


def execute_with_retries(
    execute: Execute,
    tasks: list[_Task],
    retry: RetryPolicy,
    stats: SweepStats,
) -> tuple[dict[_TaskKey, ExplorationRecord], dict[_TaskKey, SweepFailure]]:
    """Evaluate ``tasks`` through ``execute``, retrying transient failures.

    Round ``n`` hands ``execute`` every task on its ``n``-th attempt, so
    the round number is each task's attempt number.  A failure that
    :meth:`~repro.dse.resilience.RetryPolicy.retry_delay_s` still allows
    joins the next round, which starts once the longest of its backoffs
    has elapsed; any other failure is final and records the attempts its
    task consumed.  Fills ``n_evaluated``, ``n_failed`` and
    ``n_retries``; a run with no failure makes exactly one call.
    """
    records: dict[_TaskKey, ExplorationRecord] = {}
    failures: dict[_TaskKey, SweepFailure] = {}
    attempt, due = 1, 0.0
    while tasks:
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        fresh, failed = execute(tasks)
        records.update(fresh)
        now = time.monotonic()
        again: set[_TaskKey] = set()
        for key, failure in failed.items():
            delay = retry.retry_delay_s(failure.kind, attempt, key_text(key))
            if delay is None:
                failures[key] = replace(failure, attempts=attempt)
            else:
                again.add(key)
                due = max(due, now + delay)
        stats.n_retries += len(again)
        tasks = [task for task in tasks if task[0] in again]
        attempt += 1
    stats.n_evaluated += len(records)
    stats.n_failed += len(failures)
    return records, failures


def plan_and_run(
    request: "SweepRequest",
    execute: Execute,
    stats: SweepStats,
    store: ResultStore | None = None,
    base_config: DiacConfig | None = None,
    netlists: dict[str, Netlist] | None = None,
    caches: dict[str, SynthesisCache] | None = None,
    retry: RetryPolicy | None = None,
) -> SweepResult:
    """Plan ``request`` and evaluate its pending tasks through ``execute``.

    Args:
        request: what to explore and how.
        execute: evaluates a round of one generation's pending tasks
            (see :data:`Execute`).
        stats: the run's statistics; the planner fills ``n_points``,
            ``n_resumed``, ``n_pruned``, ``n_generations``,
            ``n_evaluated``, ``n_failed``, ``n_retries`` and ``wall_s``
            and counts the ``synthesize_calls`` of its own pruning and
            screening; ``execute`` fills the rest.
        store: result store consulted for resume and stamped with the
            spec fingerprint.
        base_config: synthesis defaults (fingerprinted, and used by
            static pruning and the screener).
        netlists: circuit name -> netlist; roster circuits the planner
            itself needs (static pruning, strategy screeners) are
            loaded into it on demand.
        caches: circuit name -> synthesis cache that pruning and the
            screener fill; pass the map ``execute`` evaluates with so
            every stage is characterized once (default: a fresh map).
        retry: how transient failures are retried (default: the
            default :class:`~repro.dse.resilience.RetryPolicy`).

    Returns:
        The run's :class:`~repro.dse.engine.SweepResult`.
    """
    start = time.perf_counter()
    spec = request.spec
    netlists = netlists if netlists is not None else {}
    caches = caches if caches is not None else {}
    retry = retry if retry is not None else RetryPolicy()

    def synthesized() -> int:
        return sum(cache.synthesize_calls for cache in caches.values())

    strategy = None
    axes: object = _spec_axes(spec)
    if request.strategy_name != "grid":
        strategy = request.build_strategy(
            load_netlists(spec.circuits, netlists), base_config, caches
        )
        axes = {
            "search": type(strategy).__name__,
            "circuits": list(spec.circuits),
            "scenarios": [list(s.identity()) for s in spec.scenarios],
        }
    sync_store_metadata(store, base_config, axes, request.resume)
    on_disk = (
        store.keys() if request.resume and store is not None else set()
    )
    prune = strategy is None and request.analysis_prune

    # Every key ever planned, in first-planned order: the dedup set
    # across generations and the order of the result.
    planned: dict[_TaskKey, _Task] = {}
    records: dict[_TaskKey, ExplorationRecord] = {}
    failures: dict[_TaskKey, SweepFailure] = {}

    def run_generation(tasks: list[_Task]) -> None:
        new: list[_Task] = []
        for task in tasks:
            if task[0] not in planned:
                planned[task[0]] = task
                new.append(task)
        stats.n_points += len(new)
        hits = [task for task in new if task[0] in on_disk]
        if hits and store is not None:
            resumed = fetch_records(store, hits)
            records.update(resumed)
            stats.n_resumed += len(resumed)
        pending = [task for task in new if task[0] not in records]
        if prune and pending:
            before = synthesized()
            pending, pruned = prune_tasks(
                pending, load_netlists(spec.circuits, netlists), caches,
                base_config,
            )
            stats.synthesize_calls += synthesized() - before
            failures.update(pruned)
            stats.n_pruned += len(pruned)
        fresh, failed = execute_with_retries(execute, pending, retry, stats)
        records.update(fresh)
        failures.update(failed)

    if strategy is None:
        run_generation(expand_tasks(spec))
    else:
        for _generation in range(request.effective_max_generations()):
            before = synthesized()
            proposals = strategy.ask()
            stats.synthesize_calls += synthesized() - before
            if not proposals:
                break
            stats.n_generations += 1
            asked = [(p, _proposal_tasks(p, spec)) for p in proposals]
            run_generation([task for _p, tasks in asked for task in tasks])
            strategy.tell([
                EvalOutcome(
                    proposal=proposal,
                    records=[
                        records[key] for key, *_r in tasks if key in records
                    ],
                    failures=[
                        failures[key] for key, *_r in tasks if key in failures
                    ],
                )
                for proposal, tasks in asked
            ])

    # Screening evaluations (scaled scenarios the user never asked for)
    # count in the stats, but the result only covers the requested
    # scenarios — a point that failed only while screening is reported
    # once a later generation promotes it to full fidelity.
    requested = {scenario.identity() for scenario in spec.scenarios}
    full = [
        key
        for key, (_key, _circuit, scenario, _point) in planned.items()
        if scenario.identity() in requested
    ]
    ordered = [records[key] for key in full if key in records]
    stats.wall_s = time.perf_counter() - start
    return SweepResult(
        records=ordered,
        stats=stats,
        failures=[failures[key] for key in full if key in failures],
    )
