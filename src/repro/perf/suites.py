"""The timed suites of the perf harness.

Each suite times one hot path of the reproduction with everything else
(netlist loading, design synthesis where it is not the thing under test)
prepared outside the timed section:

* ``executor`` — :meth:`repro.sim.intermittent.IntermittentExecutor.run`
  event loops, per scheme and per harvest scenario;
* ``synthesis-quick`` / ``synthesis-full`` —
  :func:`repro.tech.synthesis.synthesize` plus whole-netlist
  :class:`~repro.tech.synthesis.SynthesisReport` costing over the
  benchmark roster;
* ``sweep-serial`` / ``sweep-warm`` / ``sweep-parallel`` —
  :class:`repro.dse.engine.SweepEngine` end-to-end throughput, cold
  versus warm synthesis cache and serial versus process-pool fan-out;
* ``static-analysis`` — the :mod:`repro.analysis` subsystem: interval
  bound computation rate, the measured speedup (and deterministic
  prune fraction) of an ``analysis_prune`` sweep over a grid with a
  provably-infeasible scenario, and the screened-halving acceptance
  counters (grid-front hypervolume ratio on strictly fewer simulated
  evaluations);
* ``store-backends`` — result-store throughput A/B: the same
  append/extend/keys/group-query/load workload against the SQLite
  backend (timed) and the JSONL backend (baseline), reporting the
  measured ``sqlite_vs_jsonl`` ratio;
* ``suite-eval-quick`` / ``suite-eval-full`` — the Fig. 5
  :func:`repro.evaluation.evaluate_suite` harness, including the
  measured speedup of the memoized block-costing path over the
  unmemoized baseline (the committed trajectory's headline number).

Suites report a :class:`SuiteResult` whose ``counters`` are fully
deterministic (they double as the workload fingerprint ``perf compare``
matches on) and whose ``rates`` are derived from the measured wall time.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.perf.timing import Timing, time_call

#: Roster subset used by the quick suite-eval workload: mid-size circuits
#: where block-costing dominates, small enough for CI shared runners.
QUICK_EVAL_ROSTER = (
    "s820", "s838", "s1196", "s1423", "b11", "b12", "seq", "b9ctrl",
)

#: Roster subset for the quick synthesis workload (drops the two giant
#: netlists, s15850 and s38584, plus the slow b14/i10 pair).
QUICK_SYNTH_ROSTER = (
    "s27", "s298", "s349", "s382", "s420", "s526", "s820", "s838",
    "s1196", "s1423", "b02", "b09", "b10", "b11", "b12", "b13",
)

#: Harvest environments the executor suite runs every scheme under.
EXECUTOR_SCENARIOS = ("paper-fig5", "rf-markov")

#: Circuit the executor and sweep suites are built around — large enough
#: for thousands of event-loop iterations, small enough to synthesize in
#: milliseconds.
EXECUTOR_CIRCUIT = "s838"
SWEEP_CIRCUIT = "s298"

#: Macro tasks this many times the paper's default, so one executor-suite
#: repeat spends tens of milliseconds inside the event loop — enough for
#: the repeat-min to be a stable gating signal on shared runners.
EXECUTOR_WORK_MULTIPLIER = 40


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one timed suite.

    Attributes:
        name: suite name (stable across releases; the compare key).
        timing: repeat-min wall-clock measurement.
        rates: throughput figures derived from ``timing`` (events/s,
            evals/s, speedup ratios) — *not* deterministic.
        counters: deterministic workload fingerprint and event counts;
            two runs of the same code on any host agree on these.
    """

    name: str
    timing: Timing
    rates: dict[str, float] = field(default_factory=dict)
    counters: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (grouped so timing fields are separable)."""
        return {
            "timing": self.timing.as_dict(),
            "rates": dict(self.rates),
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class SuiteSpec:
    """Registry entry: how to run one suite.

    Attributes:
        name: suite name.
        build: ``build(quick) -> SuiteResult`` runner.
        in_quick: whether ``perf run --quick`` includes the suite (full
            runs include every suite, so quick-workload results stay
            comparable against a committed full-run baseline).
    """

    name: str
    build: Callable[[int], SuiteResult]
    in_quick: bool = True


# ---------------------------------------------------------------------------
# executor — IntermittentExecutor.run event loops
# ---------------------------------------------------------------------------


def _executor_suite(repeats: int) -> SuiteResult:
    from repro.baselines.schemes import all_profiles
    from repro.core.diac import DiacSynthesizer
    from repro.energy.scenarios import ScenarioSpec
    from repro.evaluation import build_environment
    from repro.sim.intermittent import IntermittentExecutor
    from repro.suite import load_circuit

    design = DiacSynthesizer().run(load_circuit(EXECUTOR_CIRCUIT))
    profiles = all_profiles(design)
    environments = [
        (name, build_environment(design, scenario=ScenarioSpec(name=name)))
        for name in EXECUTOR_SCENARIOS
    ]

    def run_all() -> dict[str, int]:
        events = 0
        executions = 0
        backups = 0
        for _scenario, env in environments:
            for prof in profiles:
                executor = IntermittentExecutor(
                    prof,
                    e_max_j=env.e_max_j,
                    trace=env.trace,
                    thresholds=env.thresholds,
                    sleep_drain_w=env.sleep_drain_w,
                )
                result = executor.run(
                    work_target_j=(
                        EXECUTOR_WORK_MULTIPLIER
                        * env.n_passes
                        * prof.pass_energy_j
                    ),
                    max_cycles=400.0 * EXECUTOR_WORK_MULTIPLIER,
                )
                events += (
                    result.n_dips
                    + result.n_backups
                    + result.n_restores
                    + result.n_safe_recoveries
                )
                backups += result.n_backups
                executions += 1
        return {
            "events": events, "executions": executions, "backups": backups,
        }

    timing, counts = time_call(run_all, repeats=repeats)
    return SuiteResult(
        name="executor",
        timing=timing,
        rates={
            "events_per_s": counts["events"] / timing.wall_s,
            "executions_per_s": counts["executions"] / timing.wall_s,
        },
        counters={
            "circuit": EXECUTOR_CIRCUIT,
            "scenarios": list(EXECUTOR_SCENARIOS),
            "schemes": len(profiles),
            **counts,
        },
    )


# ---------------------------------------------------------------------------
# synthesis — synthesize + SynthesisReport costing over the roster
# ---------------------------------------------------------------------------


def _synthesis_suite(roster: tuple[str, ...], name: str, repeats: int) -> SuiteResult:
    from repro.suite import load_circuit
    from repro.tech.synthesis import synthesize

    netlists = [load_circuit(circuit) for circuit in roster]
    total_gates = sum(len(n.gates) for n in netlists)

    def run_all() -> int:
        costed = 0
        for netlist in netlists:
            report = synthesize(netlist)
            # Whole-netlist costing: the three figures every consumer
            # (scheme profiles, DSE budget derivation) reads.
            report.total_dynamic_energy_j
            report.static_energy_j()
            report.total_static_power_w
            costed += 1
        return costed

    timing, costed = time_call(run_all, repeats=repeats)
    return SuiteResult(
        name=name,
        timing=timing,
        rates={
            "circuits_per_s": costed / timing.wall_s,
            "gates_per_s": total_gates / timing.wall_s,
        },
        counters={
            "circuits": list(roster),
            "gates": total_gates,
            "costed": costed,
        },
    )


def _synthesis_quick(repeats: int) -> SuiteResult:
    return _synthesis_suite(QUICK_SYNTH_ROSTER, "synthesis-quick", repeats)


def _synthesis_full(repeats: int) -> SuiteResult:
    from repro.suite import ROSTER

    return _synthesis_suite(
        tuple(b.name for b in ROSTER), "synthesis-full", repeats
    )


# ---------------------------------------------------------------------------
# sweep — SweepEngine end-to-end throughput
# ---------------------------------------------------------------------------


def _sweep_spec():
    from repro.dse import SweepSpec

    return SweepSpec(
        circuits=(SWEEP_CIRCUIT,),
        policies=(1, 2, 3),
        budget_scales=(0.5, 1.0, 2.0),
        safe_zones=(True, False),
    )


def _sweep_counters(result) -> dict[str, object]:
    stats = result.stats
    return {
        "circuit": SWEEP_CIRCUIT,
        "points": stats.n_points,
        "evaluated": stats.n_evaluated,
        "failed": stats.n_failed,
        "batches": stats.n_batches,
        "synthesize_calls": stats.synthesize_calls,
        "cache_hit_ratio": round(stats.cache_hit_ratio, 6),
        "workers": stats.workers,
    }


def _sweep_engine_suite(name: str, workers: int, repeats: int) -> SuiteResult:
    from repro.dse import SweepEngine, SweepRequest
    from repro.suite import load_circuit

    request = SweepRequest(spec=_sweep_spec())
    netlists = {SWEEP_CIRCUIT: load_circuit(SWEEP_CIRCUIT)}

    def run_cold():
        return SweepEngine(workers=workers).submit(request, netlists=netlists)

    timing, result = time_call(run_cold, repeats=repeats)
    return SuiteResult(
        name=name,
        timing=timing,
        rates={"evals_per_s": result.stats.n_evaluated / timing.wall_s},
        counters=_sweep_counters(result),
    )


def _sweep_serial(repeats: int) -> SuiteResult:
    return _sweep_engine_suite("sweep-serial", 1, repeats)


def _sweep_parallel(repeats: int) -> SuiteResult:
    return _sweep_engine_suite("sweep-parallel", 2, repeats)


def _sweep_warm(repeats: int) -> SuiteResult:
    from repro.dse import SynthesisCache, evaluate_point
    from repro.suite import load_circuit

    netlist = load_circuit(SWEEP_CIRCUIT)
    jobs = _sweep_spec().points()
    cache = SynthesisCache()

    def run_warm():
        return [
            evaluate_point(netlist, point, cache=cache, scenario=scenario)
            for _circuit, scenario, point in jobs
        ]

    run_warm()  # populate the synthesis cache

    timing, records = time_call(run_warm, repeats=repeats)
    return SuiteResult(
        name="sweep-warm",
        timing=timing,
        rates={"evals_per_s": len(records) / timing.wall_s},
        counters={
            "circuit": SWEEP_CIRCUIT,
            "points": len(records),
            "cached_stages": len(cache),
            "synthesize_calls": cache.synthesize_calls,
        },
    )


# ---------------------------------------------------------------------------
# static-analysis — interval bounds, analysis pruning, screened halving
# ---------------------------------------------------------------------------

#: Harvest scale under which every point of the prune workload is
#: provably infeasible — the interval analysis proves it from the power
#: envelope alone, so ``analysis_prune`` skips the whole scenario
#: without simulating (the plain engine simulates every point to its
#: TraceTooWeakError).
PRUNE_WEAK_SCALE = 0.002


def _static_analysis(repeats: int) -> SuiteResult:
    """The static-analysis subsystem's three acceptance numbers.

    * **Timed section** — :func:`repro.analysis.bounds_for_point` over
      every (point, scenario) of the s298 sweep spec with a warm
      synthesis cache: the pure interval-computation hot path, reported
      as ``bounds_per_s``.
    * **Pruning A/B** — the same grid extended with a provably-weak
      scenario, swept with ``analysis_prune=True`` against the plain
      engine (interleaved so load drift cancels).  The pruned run must
      skip every infeasible task; ``prune_speedup_vs_plain`` is the
      measured payoff and ``prune_fraction`` the deterministic share of
      tasks never simulated.
    * **Screened halving** — SuccessiveHalvingStrategy with the
      :class:`~repro.analysis.StaticScreener` static round 0 against
      the plain strategy and the full grid.  The acceptance bar (see
      docs/analysis.md): ``hv_screened_vs_grid >= 0.9`` on strictly
      fewer simulated evaluations than either alternative.
    """
    from dataclasses import replace

    from repro.analysis import StaticScreener, bounds_for_point
    from repro.dse import SweepEngine, SweepRequest, SweepSpec
    from repro.dse.explorer import SynthesisCache
    from repro.dse.pareto import hypervolume_2d
    from repro.dse.strategies import DesignSpace, SuccessiveHalvingStrategy
    from repro.energy.scenarios import ScenarioSpec
    from repro.perf.timing import time_paired
    from repro.suite import load_circuit

    netlist = load_circuit(SWEEP_CIRCUIT)
    netlists = {SWEEP_CIRCUIT: netlist}
    spec = _sweep_spec()
    tasks = [(scenario, point) for _circuit, scenario, point in spec.points()]
    cache = SynthesisCache()

    def compute_bounds():
        return [
            bounds_for_point(netlist, point, cache=cache, scenario=scenario)
            for scenario, point in tasks
        ]

    timing, bounds = time_call(compute_bounds, repeats=repeats)

    # Pruning A/B: the weak scenario's tasks are all provably
    # infeasible, the default scenario's all complete — the pruned run
    # simulates exactly half the grid.
    weak_spec = replace(
        spec,
        scenarios=(ScenarioSpec(scale=PRUNE_WEAK_SCALE), ScenarioSpec()),
    )

    def run_pruned():
        return SweepEngine(workers=1).submit(
            SweepRequest(spec=weak_spec, analysis_prune=True),
            netlists=netlists,
        )

    def run_plain():
        return SweepEngine(workers=1).submit(
            SweepRequest(spec=weak_spec), netlists=netlists
        )

    prune_timing, plain_timing, pruned = time_paired(
        run_pruned, run_plain, repeats=repeats
    )

    # Screened halving vs the grid front.  The pruned run's records are
    # exactly the default-scenario grid (the weak scenario contributes
    # none), so they double as the grid-front reference.
    space = DesignSpace.from_spec(spec)

    def run_halving(screener=None):
        strategy = SuccessiveHalvingStrategy(
            space, pool=16, rounds=2, seed=0, screener=screener
        )
        request = SweepRequest(
            spec=SweepSpec(circuits=(SWEEP_CIRCUIT,)), strategy=strategy
        )
        return SweepEngine(workers=1).submit(request, netlists=netlists)

    halving = run_halving()
    screened = run_halving(
        StaticScreener(netlists=netlists, scenarios=spec.scenarios)
    )

    records = (
        list(pruned.records) + list(halving.records) + list(screened.records)
    )
    reference = (
        1.05 * max(r.pdp_js for r in records),
        1.05 * max(r.reexec_energy_j for r in records),
    )

    def hv(result) -> float:
        return hypervolume_2d(
            [(r.pdp_js, r.reexec_energy_j) for r in result.records], reference
        )

    hv_grid = hv(pruned)
    return SuiteResult(
        name="static-analysis",
        timing=timing,
        rates={
            "bounds_per_s": len(bounds) / timing.wall_s,
            "pruned_sweep_wall_s": prune_timing.wall_s,
            "plain_sweep_wall_s": plain_timing.wall_s,
            "prune_speedup_vs_plain": plain_timing.wall_s
            / prune_timing.wall_s,
        },
        counters={
            "circuit": SWEEP_CIRCUIT,
            "bounds": len(bounds),
            "prune_points": pruned.stats.n_points,
            "pruned": pruned.stats.n_pruned,
            "prune_fraction": round(
                pruned.stats.n_pruned / pruned.stats.n_points, 6
            ),
            "prune_evaluated": pruned.stats.n_evaluated,
            "grid_evaluations": len(pruned.records),
            "halving_evaluations": halving.stats.n_evaluated,
            "screened_evaluations": screened.stats.n_evaluated,
            "hv_halving_vs_grid": round(hv(halving) / hv_grid, 4),
            "hv_screened_vs_grid": round(hv(screened) / hv_grid, 4),
        },
    )


# ---------------------------------------------------------------------------
# store-backends — ResultStore throughput, SQLite vs JSONL
# ---------------------------------------------------------------------------

#: Records minted for the store workload (half batch-extended, half
#: appended one by one — the engine's two streaming shapes).
STORE_BENCH_RECORDS = 512


def _store_backends(repeats: int) -> SuiteResult:
    """Store throughput A/B: the SQLite backend against JSONL.

    One real evaluation is minted into ``STORE_BENCH_RECORDS`` distinct
    records (unique ``budget_scale`` -> unique resume keys) so the
    timed section measures the stores, not the simulator.  Each timed
    run exercises the protocol the engine and the CLI actually use:
    batch ``extend``, per-record ``append``, the indexed ``keys()``
    resume lookup, one ``iter_records`` group query, and a full
    ``load()``.  SQLite is the timed side, JSONL the interleaved
    baseline, so the recorded ``sqlite_vs_jsonl`` ratio stays stable
    under background load.
    """
    import shutil
    import tempfile
    from dataclasses import replace

    from repro.dse import DesignPoint, evaluate_point
    from repro.dse.sqlite_store import SqliteResultStore
    from repro.dse.store import JsonlResultStore
    from repro.perf.timing import time_paired
    from repro.suite import load_circuit

    base = evaluate_point(load_circuit("s27"), DesignPoint())
    base.circuit = "s27"
    scenario_label = base.scenario.label()
    records = [
        replace(
            base,
            point=replace(base.point, budget_scale=1.0 + i / 1024.0),
        )
        for i in range(STORE_BENCH_RECORDS)
    ]
    half = STORE_BENCH_RECORDS // 2

    def run_workload(make_store) -> dict[str, int]:
        tmpdir = tempfile.mkdtemp(prefix="repro-storebench-")
        try:
            store = make_store(tmpdir)
            store.extend(records[:half])
            for record in records[half:]:
                store.append(record)
            keys = store.keys()
            group = list(
                store.iter_records(scenario=scenario_label, circuit="s27")
            )
            loaded = store.load()
            if hasattr(store, "close"):
                store.close()
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        return {
            "records": len(loaded),
            "keys": len(keys),
            "group_rows": len(group),
        }

    def run_sqlite():
        return run_workload(
            lambda d: SqliteResultStore(f"{d}/bench.sqlite")
        )

    def run_jsonl():
        return run_workload(
            lambda d: JsonlResultStore(f"{d}/bench.jsonl")
        )

    timing, baseline, counts = time_paired(
        run_sqlite, run_jsonl, repeats=repeats
    )
    return SuiteResult(
        name="store-backends",
        timing=timing,
        rates={
            "records_per_s": STORE_BENCH_RECORDS / timing.wall_s,
            "jsonl_wall_s": baseline.wall_s,
            "sqlite_vs_jsonl": timing.wall_s / baseline.wall_s,
        },
        counters={
            "circuit": "s27",
            "appended": STORE_BENCH_RECORDS - half,
            "extended": half,
            **counts,
        },
    )


# ---------------------------------------------------------------------------
# suite-eval — the Fig. 5 evaluate_suite harness, memoized vs baseline
# ---------------------------------------------------------------------------


def _suite_eval(roster: tuple[str, ...], name: str, repeats: int) -> SuiteResult:
    from repro.evaluation import evaluate_suite
    from repro.perf.baseline import hot_path_caches_disabled
    from repro.perf.timing import time_paired

    names = list(roster)

    def run_suite():
        return evaluate_suite(names)

    def run_baseline():
        with hot_path_caches_disabled():
            return evaluate_suite(names)

    # Cached and uncached runs interleave (A/B/A/B) so background-load
    # drift hits both sides alike and the recorded speedup ratio stays
    # stable on busy machines (see time_paired).
    timing, baseline, evaluations = time_paired(
        run_suite, run_baseline, repeats=repeats
    )

    schemes = sorted(evaluations[0].results) if evaluations else []
    backups = sum(
        r.n_backups for ev in evaluations for r in ev.results.values()
    )
    return SuiteResult(
        name=name,
        timing=timing,
        rates={
            "circuits_per_s": len(names) / timing.wall_s,
            "baseline_wall_s": baseline.wall_s,
            "speedup_vs_uncached": baseline.wall_s / timing.wall_s,
        },
        counters={
            "circuits": names,
            "schemes": schemes,
            "backups": backups,
        },
    )


def _suite_eval_quick(repeats: int) -> SuiteResult:
    return _suite_eval(QUICK_EVAL_ROSTER, "suite-eval-quick", repeats)


def _suite_eval_full(repeats: int) -> SuiteResult:
    from repro.suite import ROSTER

    return _suite_eval(
        tuple(b.name for b in ROSTER), "suite-eval-full", repeats
    )


#: Suite registry, in report order.  Quick runs execute the ``in_quick``
#: subset; full runs execute everything, so a full-run baseline contains
#: every suite a quick CI run wants to compare against.
SUITES: tuple[SuiteSpec, ...] = (
    SuiteSpec("executor", _executor_suite),
    SuiteSpec("synthesis-quick", _synthesis_quick),
    SuiteSpec("synthesis-full", _synthesis_full, in_quick=False),
    SuiteSpec("sweep-serial", _sweep_serial),
    SuiteSpec("sweep-warm", _sweep_warm),
    SuiteSpec("sweep-parallel", _sweep_parallel),
    SuiteSpec("static-analysis", _static_analysis),
    SuiteSpec("store-backends", _store_backends),
    SuiteSpec("suite-eval-quick", _suite_eval_quick),
    SuiteSpec("suite-eval-full", _suite_eval_full, in_quick=False),
)

SUITE_NAMES: tuple[str, ...] = tuple(s.name for s in SUITES)


def run_suites(
    quick: bool = False,
    repeats: int | None = None,
    only: tuple[str, ...] | None = None,
) -> list[SuiteResult]:
    """Run the registered suites and return their results.

    Args:
        quick: run only the CI-sized ``in_quick`` workloads.
        repeats: timed repetitions per suite (default 3 — the repeat-min
            needs at least a few samples to dodge shared-host load
            spikes, quick and full alike).
        only: restrict to these suite names (after the quick filter).

    Raises:
        ValueError: for an unknown name in ``only``.
    """
    if only:
        unknown = set(only) - set(SUITE_NAMES)
        if unknown:
            raise ValueError(
                f"unknown suite(s): {', '.join(sorted(unknown))}; "
                f"available: {', '.join(SUITE_NAMES)}"
            )
    if repeats is None:
        repeats = 3
    results = []
    for spec in SUITES:
        if quick and not spec.in_quick:
            continue
        if only and spec.name not in only:
            continue
        results.append(spec.build(repeats))
    return results
