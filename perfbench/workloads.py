"""The benchmark's four end-to-end DIAC workloads.

Each workload drives the public API the way a user does:

* ``prepare(seed, tmp)`` is the untimed fixture step (only
  ``service-grid`` has one: a pre-seeded SQLite store);
* ``setup(seed, fixture)`` is what ``setup_s`` times in a fresh
  process: imports (done by importing this module), netlist loading and
  opening the store/queue;
* ``fresh(ctx, tmp)`` is the untimed reset before every timed call;
* ``run(ctx)`` is one timed call and returns what the API returned;
* ``finish(ctx)`` is the untimed wind-down after every timed call;
* ``outcome(result)`` turns that return value into an :class:`Outcome`
  (record dicts for the digest), untimed;
* ``oracle(ctx, outcome, rng)`` re-evaluates a seeded sample of the
  outcome through the scalar path and returns the mismatching items.

See ``README.md`` beside this file for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.api import (
    LeaseQueue,
    ScenarioSpec,
    SweepCoordinator,
    SweepEngine,
    SweepRequest,
    SweepSpec,
    evaluate_point,
    load_circuit,
    open_store,
    record_to_dict,
    run_worker,
)
from repro.dse.batch import batch_kernel_disabled
from repro.dse.engine import _PROCESS_CACHES, PRUNED
from repro.evaluation import evaluate_circuit, evaluate_suite
from repro.metrics import paper_vs_measured
from repro.suite.registry import ROSTER

#: Records re-evaluated through the scalar oracle per run (sweeps).
ORACLE_RECORDS = 8
#: Circuits re-evaluated through the scalar oracle per run (fig5-roster).
ORACLE_CIRCUITS = 2
#: The worker thread gives up after this long without work (a backstop
#: for a coordinator that died before closing the queue), seconds.
WORKER_IDLE_TIMEOUT_S = 30.0


@dataclass
class Outcome:
    """What one timed call produced.

    Attributes:
        records: canonical JSON-ready dicts, digested for cross-commit
            comparison.
        evaluations: fresh evaluations (``evals_per_s`` numerator).
        attempted: points this call tried (resumed points excluded).
        failed: non-``pruned`` failures among them.
        items: the objects the oracle samples from.
        extra: workload-specific figures (``pdp_gap_pp``).
    """

    records: list[dict]
    evaluations: int
    attempted: int
    failed: int
    items: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the sorted canonical record dumps."""
        lines = sorted(json.dumps(r, sort_keys=True) for r in self.records)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _scenarios(names: list[str], seed: int) -> tuple[ScenarioSpec, ...]:
    """Parse scenario specs, substituting ``{s}`` with the seed."""
    return tuple(ScenarioSpec.parse(n.format(s=seed)) for n in names)


def _sweep_outcome(result) -> Outcome:
    stats = result.stats
    return Outcome(
        records=[record_to_dict(r) for r in result.records],
        evaluations=stats.n_evaluated,
        attempted=stats.n_points - stats.n_resumed,
        failed=sum(f.kind != PRUNED for f in result.failures),
        items=list(result.records),
    )


def _record_oracle(netlists: dict, outcome: Outcome, rng) -> list[str]:
    """Re-evaluate sampled records with ``evaluate_point``; bit-equal?"""
    sample = rng.sample(
        outcome.items, min(ORACLE_RECORDS, len(outcome.items))
    )
    mismatches = []
    for record in sample:
        fresh = evaluate_point(
            netlists[record.circuit], record.point, scenario=record.scenario
        )
        fresh.circuit = record.circuit
        if record_to_dict(fresh) != record_to_dict(record):
            mismatches.append(
                f"{record.circuit} {record.scenario.label()} "
                f"{record.point.label()}"
            )
    return mismatches


class Workload:
    """Hooks shared by every workload; see the module docs."""

    name = ""
    circuits: tuple[str, ...] = ()
    oracle_note = f"{ORACLE_RECORDS} sampled records via evaluate_point"

    def prepare(self, seed: int, tmp: Path) -> Path | None:
        """Build the untimed fixture; ``None`` when there is none."""
        return None

    def setup(self, seed: int, fixture: Path | None) -> dict:
        """Load netlists (and open the store); returns the run context."""
        raise NotImplementedError

    def fresh(self, ctx: dict, tmp: Path) -> None:
        """Untimed reset before each timed call: every call starts cold.

        Netlists are reloaded so no cached property of a previous call
        carries over.
        """
        ctx["netlists"] = _load(self.circuits)

    def run(self, ctx: dict):
        raise NotImplementedError

    def finish(self, ctx: dict) -> None:
        """Untimed wind-down after each timed call (nothing by default)."""

    def outcome(self, result) -> Outcome:
        """The :class:`Outcome` of a ``SweepResult``."""
        return _sweep_outcome(result)

    def oracle(self, ctx: dict, outcome: Outcome, rng) -> list[str]:
        return _record_oracle(ctx["netlists"], outcome, rng)


def _load(circuits) -> dict:
    return {name: load_circuit(name) for name in circuits}


class Fig5Roster(Workload):
    """``evaluate_suite`` over the whole 24-circuit Fig. 5 roster."""

    name = "fig5-roster"
    circuits = tuple(info.name for info in ROSTER)
    oracle_note = (
        f"{ORACLE_CIRCUITS} sampled circuits via evaluate_circuit, "
        "batch kernel off"
    )

    def setup(self, seed: int, fixture: Path | None) -> dict:
        """Load the roster once; ``evaluate_suite`` loads its own copies."""
        _load(self.circuits)
        return {}

    def fresh(self, ctx: dict, tmp: Path) -> None:
        """Nothing to reset: ``evaluate_suite`` loads its own netlists."""

    def run(self, ctx: dict) -> list:
        return evaluate_suite(list(self.circuits))

    def outcome(self, evaluations: list) -> Outcome:
        rows = paper_vs_measured(evaluations)
        gap = sum(
            abs(row["measured_pct"] - row["paper_pct"]) for row in rows
        ) / len(rows)
        return Outcome(
            records=[_evaluation_dict(e) for e in evaluations],
            evaluations=len(evaluations),
            attempted=len(self.circuits),
            failed=0,
            items=evaluations,
            extra={"pdp_gap_pp": gap},
        )

    def oracle(self, ctx: dict, outcome: Outcome, rng) -> list[str]:
        sample = rng.sample(outcome.items, ORACLE_CIRCUITS)
        mismatches = []
        with batch_kernel_disabled():
            for evaluation in sample:
                fresh = evaluate_circuit(load_circuit(evaluation.name))
                if _evaluation_dict(fresh) != _evaluation_dict(evaluation):
                    mismatches.append(evaluation.name)
        return mismatches


def _evaluation_dict(evaluation) -> dict:
    return {
        "circuit": evaluation.name,
        "suite": evaluation.suite,
        "results": {
            scheme: asdict(result)
            for scheme, result in sorted(evaluation.results.items())
        },
    }


class SweepScenarios(Workload):
    """Serial grid: 2 circuits x 6 scenarios x the default 18 points."""

    name = "sweep-scenarios"
    circuits = ("s838", "b05")
    scenario_names = [
        "paper-fig5",
        "office-solar",
        "rf-markov@{s}",
        "rf-markov@{s}@0.5",
        "kinetic-shot@{s}",
        "solar-cloudy@{s}@0.5",
    ]

    def setup(self, seed: int, fixture: Path | None) -> dict:
        spec = SweepSpec(
            circuits=self.circuits,
            scenarios=_scenarios(self.scenario_names, seed),
        )
        return {
            "netlists": _load(self.circuits),
            "request": SweepRequest(spec=spec),
        }

    def run(self, ctx: dict):
        return SweepEngine().submit(
            ctx["request"], netlists=dict(ctx["netlists"])
        )


class SearchHalving(SweepScenarios):
    """Successive halving with the static screen (``analysis_prune``)."""

    name = "search-halving"
    scenario_names = ["paper-fig5", "rf-markov@{s}", "office-solar"]

    def setup(self, seed: int, fixture: Path | None) -> dict:
        spec = SweepSpec(
            circuits=self.circuits,
            scenarios=_scenarios(self.scenario_names, seed),
            threshold_scales=(0.8, 1.0, 1.25),
            safe_margin_scales=(0.5, 1.0, 2.0),
        )
        return {
            "netlists": _load(self.circuits),
            "request": SweepRequest(
                spec=spec,
                strategy="halving",
                search_seed=seed,
                analysis_prune=True,
            ),
        }


class ServiceGrid(Workload):
    """Coordinator + one in-process worker thread on a fresh SQLite file.

    The store is pre-seeded with every point at budget scale 1.0 (a
    third of the grid), so the run serves resume reads beside lease
    writes.
    """

    name = "service-grid"
    circuits = ("s27", "s298", "b02", "b09")
    scenario_names = SweepScenarios.scenario_names

    def _spec(self, seed: int, budget_scales=(0.5, 1.0, 2.0)) -> SweepSpec:
        return SweepSpec(
            circuits=self.circuits,
            scenarios=_scenarios(self.scenario_names, seed),
            budget_scales=budget_scales,
            threshold_scales=(1.0, 1.25),
            safe_margin_scales=(1.0, 2.0),
        )

    def prepare(self, seed: int, tmp: Path) -> Path:
        """Build the pre-seeded store (and queue tables) once, untimed."""
        path = tmp / "service-fixture.sqlite"
        store = open_store(path, backend="sqlite")
        try:
            preseed = SweepRequest(spec=self._spec(seed, budget_scales=(1.0,)))
            SweepEngine(store=store).submit(preseed)
            LeaseQueue(path).close()
        finally:
            store.close()
        return path

    def setup(self, seed: int, fixture: Path | None) -> dict:
        if fixture is None:
            raise ValueError("service-grid needs its pre-seeded store")
        store = open_store(fixture, backend="sqlite")
        queue = LeaseQueue(fixture)
        try:
            store.count()
            queue.state()
        finally:
            queue.close()
            store.close()
        return {
            "fixture": fixture,
            "netlists": _load(self.circuits),
            "request": SweepRequest(spec=self._spec(seed), resume=True),
        }

    def fresh(self, ctx: dict, tmp: Path) -> None:
        """A private copy of the fixture, and cold worker caches.

        Every timed call resumes the same share of the grid.  The
        worker's process-global synthesis caches are dropped so the
        in-process worker starts like a freshly spawned one.
        """
        super().fresh(ctx, tmp)
        path = tmp / "service-run.sqlite"
        for stale in tmp.glob("service-run.sqlite*"):
            stale.unlink()
        shutil.copyfile(ctx["fixture"], path)
        ctx["run_path"] = path
        _PROCESS_CACHES.clear()

    def run(self, ctx: dict):
        """One submission, timed until the coordinator returns.

        Coordinator and worker poll at their default interval.  The
        worker thread notices the closed queue on its next poll; that
        wind-down is :meth:`finish`, outside the timed call.
        """
        path = ctx["run_path"]
        errors: list[BaseException] = []

        def work() -> None:
            try:
                run_worker(
                    path, path, worker_id="bench-worker",
                    store_backend="sqlite",
                    idle_timeout_s=WORKER_IDLE_TIMEOUT_S,
                )
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)

        worker = threading.Thread(target=work, name="bench-worker")
        ctx["worker"], ctx["worker_errors"] = worker, errors
        worker.start()
        coordinator = SweepCoordinator(path, workers=0, store_backend="sqlite")
        return coordinator.submit(ctx["request"])

    def finish(self, ctx: dict) -> None:
        """Wait for the worker thread; re-raise what it raised."""
        worker = ctx.pop("worker", None)
        if worker is None:
            return
        worker.join()
        errors = ctx.pop("worker_errors")
        if errors:
            raise errors[0]


WORKLOADS = {
    w.name: w
    for w in (Fig5Roster(), SweepScenarios(), ServiceGrid(), SearchHalving())
}
