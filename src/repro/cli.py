"""Command-line interface — the "prototyped DIAC design tool".

Usage (after ``pip install -e .``)::

    python -m repro roster                         # list the Fig. 5 roster
    python -m repro synth s27                      # run the DIAC pipeline
    python -m repro synth path/to/design.bench     # ... on your own netlist
    python -m repro evaluate s298 --policy 3       # four-scheme comparison
    python -m repro sweep b10                      # design-space exploration
    python -m repro sweep s27 b02 --workers 4 \
        --results out.jsonl --resume               # parallel, resumable sweep
    python -m repro sweep s27 --scenario paper-fig5 rf-markov@7 \
        --safe-zone on                             # cross-environment sweep
    python -m repro sweep s27 --strategy random --samples 16 \
        --threshold-scales 0.9 1.2                 # adaptive search
    python -m repro sweep s27 --strategy halving --samples 24 \
        --generations 3                            # screen, then promote
    python -m repro sweep s27 --results out.sqlite \
        --store-backend sqlite                     # indexed SQLite store
    python -m repro store stats out.sqlite         # store summary
    python -m repro store migrate out.jsonl out.sqlite  # JSONL <-> SQLite
    python -m repro sweep s27 --strategy halving --samples 24 \
        --analysis-prune                           # static round 0
    python -m repro sweep --config sweep.toml s27  # flags > file > defaults
    python -m repro sweep b10 --dump-config        # print merged TOML
    python -m repro coordinator s27 --results svc.sqlite \
        --spawn-workers 4                          # distributed sweep
    python -m repro worker --results svc.sqlite    # extra worker, any host
    python -m repro view svc.sqlite --port 8750    # read-only HTTP view
    python -m repro lint                           # lint the full roster
    python -m repro lint my.bench bad.json --deep  # netlists + configs
    python -m repro scenarios list                 # harvest environments
    python -m repro scenarios show rf-markov --seed 7
    python -m repro scenarios plot office-solar    # ASCII power profile
    python -m repro fig4                           # the Fig. 4 timeline

Netlist arguments accept roster names, ``.bench`` files, or ``.blif``
files.  Scenario arguments accept registry names (``scenarios list``),
optionally seeded/scaled as ``name[@seed[@scale]]``, or paths to measured
``.csv``/``.jsonl`` power logs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.baselines import SCHEME_ORDER
from repro.circuits import NETLIST_SUFFIXES, netlist_parser
from repro.circuits.netlist import Netlist
from repro.core import DiacConfig, DiacSynthesizer
from repro.evaluation import evaluate_design
from repro.metrics import format_table
from repro.suite import BY_NAME, ROSTER, load_circuit
from repro.tech import get_technology

#: Mirrors :data:`repro.dse.strategies.STRATEGIES`; kept literal so the
#: parser builds without importing the (heavier) DSE package.
_STRATEGY_CHOICES = ("grid", "random", "lhs", "halving", "evolution")


def _resolve_netlist(spec: str) -> Netlist:
    """Roster name, .bench path, or .blif path -> netlist."""
    path = Path(spec)
    parser = netlist_parser(path)
    if parser is not None and path.exists():
        return parser(path)
    if spec in BY_NAME:
        return load_circuit(spec)
    raise SystemExit(
        f"error: {spec!r} is neither a roster circuit nor an existing "
        f"{NETLIST_SUFFIXES} file; roster: {', '.join(sorted(BY_NAME))}"
    )


def _config_from_args(args: argparse.Namespace) -> DiacConfig:
    return DiacConfig(
        policy=args.policy,
        technology=get_technology(args.nvm),
        use_safe_zone=not args.no_safe_zone,
    )


def cmd_roster(_args: argparse.Namespace) -> int:
    rows = [
        [b.name, b.suite, b.n_gates, b.function, b.style] for b in ROSTER
    ]
    print(
        format_table(
            ["circuit", "suite", "gates", "function", "style"],
            rows,
            title="Fig. 5 benchmark roster",
        )
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    netlist = _resolve_netlist(args.circuit)
    design = DiacSynthesizer(_config_from_args(args)).run(netlist)
    print(design.report_text())
    if args.emit_verilog:
        out = Path(args.emit_verilog)
        out.write_text(design.code.verilog)
        print(f"\nwrote NV-enhanced HDL to {out}")
    if not design.code.timing.passed:
        for violation in design.code.timing.violations:
            print(f"TIMING VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    netlist = _resolve_netlist(args.circuit)
    design = DiacSynthesizer(_config_from_args(args)).run(netlist)
    evaluation = evaluate_design(design)
    norm = evaluation.normalized_pdp()
    rows = [
        [
            scheme,
            f"{evaluation.results[scheme].total_energy_j:.3e}",
            f"{evaluation.results[scheme].active_time_s:.3e}",
            evaluation.results[scheme].n_backups,
            f"{norm[scheme]:.3f}",
        ]
        for scheme in SCHEME_ORDER
    ]
    print(
        format_table(
            ["scheme", "energy (J)", "busy time (s)", "backups", "norm. PDP"],
            rows,
            title=f"{netlist.name}: four-scheme comparison",
        )
    )
    return 0


def _scenario_exit(error: Exception) -> SystemExit:
    """A scenario lookup/parse error as a clean CLI exit."""
    message = error.args[0] if error.args else error
    return SystemExit(f"error: {message}")


#: ``(argparse dest, config section, config key)`` for every sweep
#: option that participates in the config-file merge.  Explicit CLI
#: values beat ``--config`` file values beat the defaults of
#: :data:`repro.dse.request.CONFIG_DEFAULTS` — which is why every
#: grouped flag below parses with ``default=None``: "not given" must
#: stay distinguishable from any real value.
_ARG_TO_CONFIG = (
    ("circuits", "space", "circuits"),
    ("policies", "space", "policies"),
    ("budget_scales", "space", "budget_scales"),
    ("nvm", "space", "technologies"),
    ("criteria", "space", "criteria"),
    ("safe_zone", "space", "safe_zone"),
    ("threshold_scales", "space", "threshold_scales"),
    ("safe_margin_scales", "space", "safe_margin_scales"),
    ("scenario", "scenarios", "scenarios"),
    ("strategy", "search", "strategy"),
    ("samples", "search", "samples"),
    ("generations", "search", "generations"),
    ("search_seed", "search", "seed"),
    ("analysis_prune", "analysis", "prune"),
    ("workers", "execution", "workers"),
    ("max_attempts", "execution", "max_attempts"),
    ("batch_timeout", "execution", "batch_timeout"),
    ("results", "store", "results"),
    ("store_backend", "store", "backend"),
    ("fsync_every", "store", "fsync_every"),
    ("resume", "store", "resume"),
)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The explicitly-given sweep flags, as nested config sections."""
    overrides: dict = {}
    for attr, section, key in _ARG_TO_CONFIG:
        value = getattr(args, attr, None)
        if value is None:
            continue
        if attr == "circuits" and not value:
            continue  # empty positional: let the config file name them
        overrides.setdefault(section, {})[key] = value
    return overrides


def _merged_sweep_config(args: argparse.Namespace) -> dict:
    """Layer CLI flags over ``--config`` (if any) over the defaults."""
    from repro.dse.request import load_config_file, merge_config

    try:
        file_config = (
            load_config_file(args.config) if args.config else {}
        )
        return merge_config(file_config, _overrides_from_args(args))
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _request_from_merged(merged: dict):
    """The :class:`~repro.dse.request.SweepRequest` a config describes."""
    from repro.dse.request import request_from_config

    try:
        return request_from_config(merged)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _parse_fault_plan(args: argparse.Namespace):
    """Build the chaos plan of ``--inject-faults``, or ``None``.

    The trip-state directory defaults to a fresh temp dir per run, so
    back-to-back chaos invocations re-arm their faults; pass
    ``--fault-dir`` to share state across runs on purpose.
    """
    import tempfile

    from repro.dse import FaultPlan

    if not args.inject_faults:
        return None
    state_dir = args.fault_dir or tempfile.mkdtemp(prefix="repro-faults-")
    try:
        plan = FaultPlan.parse(args.inject_faults, state_dir)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    print(
        f"injecting faults: {plan.describe()} (state: {plan.state_dir})",
        file=sys.stderr,
    )
    return plan


def _resilience_config(max_attempts: int, batch_timeout, fault_plan):
    from repro.dse import ResilienceConfig, RetryPolicy

    try:
        return ResilienceConfig(
            retry=RetryPolicy(max_attempts=max_attempts),
            batch_timeout_s=batch_timeout,
            fault_plan=fault_plan,
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None


def _validate_sweep_config(merged: dict) -> None:
    """Residual checks whose messages name the flags users typed.

    Shared by ``sweep`` and ``coordinator``, and run before the request
    is built so these messages win over the request's own.
    """
    store_cfg = merged["store"]
    if store_cfg["resume"] and not store_cfg["results"]:
        raise SystemExit("error: --resume requires --results")
    if merged["search"]["samples"] < 1:
        raise SystemExit("error: --samples must be >= 1")
    if merged["search"]["generations"] < 1:
        raise SystemExit("error: --generations must be >= 1")
    if store_cfg["fsync_every"] < 0:
        raise SystemExit("error: --fsync-every must be >= 0")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.dse import SweepEngine, open_store
    from repro.dse.request import dump_config

    merged = _merged_sweep_config(args)
    if args.dump_config:
        print(dump_config(merged), end="")
        return 0
    execution, store_cfg = merged["execution"], merged["store"]
    if execution["workers"] < 1:
        raise SystemExit("error: --workers must be >= 1")
    _validate_sweep_config(merged)
    request = _request_from_merged(merged)
    netlists = {
        name: _resolve_netlist(name) for name in request.spec.circuits
    }
    fault_plan = _parse_fault_plan(args)
    resilience = _resilience_config(
        execution["max_attempts"], execution["batch_timeout"], fault_plan
    )
    store = (
        open_store(
            store_cfg["results"],
            backend=store_cfg["backend"],
            fsync_every=store_cfg["fsync_every"],
            fault_plan=fault_plan,
        )
        if store_cfg["results"]
        else None
    )
    try:
        engine = SweepEngine(
            workers=execution["workers"], store=store, resilience=resilience
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None
    try:
        result = engine.submit(request, netlists=netlists)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    return _report_sweep(
        result, request, args.robustness_top,
        in_process=execution["workers"] == 1,
    )


def _report_sweep(
    result, request, robustness_top: int, in_process: bool
) -> int:
    """Render one sweep result; shared by ``sweep`` and ``coordinator``.

    ``in_process`` says every batch ran in this process, so the
    synthesis count covers all of them; otherwise worker processes
    synthesized stages this process never sees, and only the batch
    count is reported.
    """
    from repro.metrics import format_robustness

    spec = request.spec
    strategy_name = request.strategy_name or "custom"
    # Distinct environments, not raw spec count: equivalent specs
    # (e.g. 'rf-markov@7' and 'rf-markov@7x1.0') dedupe to one scenario,
    # and a one-environment "robustness" table would be meaningless.
    multi_scenario = len(set(spec.scenarios)) > 1
    rows = [
        [
            r.circuit,
            *([r.scenario.label()] if multi_scenario else []),
            r.point.label(),
            r.n_barriers,
            r.n_backups,
            f"{r.reexec_energy_j:.3e}",
            f"{r.pdp_js:.3e}",
        ]
        for r in sorted(result.records, key=lambda r: r.pdp_js)
    ]
    title = f"{', '.join(spec.circuits)}: design-space sweep"
    print(
        format_table(
            ["circuit",
             *(["scenario"] if multi_scenario else []),
             "design point", "barriers", "backups",
             "re-exec (J)", "PDP (Js)"],
            rows,
            title=title,
        )
    )

    if result.failures:
        print("\nfailed points (skipped):", file=sys.stderr)
        for failure in result.failures:
            marker = " [pruned]" if failure.kind == "pruned" else ""
            print(
                f"  {failure.circuit}/{failure.scenario}/{failure.label}"
                f"{marker}: {failure.error}",
                file=sys.stderr,
            )

    # PDP is only comparable inside one (scenario, circuit) pair — a
    # stingy environment inflates every PDP and a bigger circuit simply
    # costs more — so fronts and "best" are reported per pair.
    fronts = result.fronts_by_scenario()
    for (scenario_label, circuit), records in result.by_scenario().items():
        group = f"{scenario_label} · {circuit}"
        front = fronts[(scenario_label, circuit)]
        print(f"\n[{group}] pareto front (PDP x re-execution exposure):")
        for r in sorted(front, key=lambda r: r.pdp_js):
            print(
                f"  {r.point.label()}  "
                f"PDP={r.pdp_js:.3e} Js  reexec={r.reexec_energy_j:.3e} J"
            )
        best = min(records, key=lambda r: r.pdp_js)
        print(
            f"[{group}] best: {best.point.label()}  "
            f"PDP={best.pdp_js:.3e} Js"
        )

    if multi_scenario and result.records:
        entries = result.robustness()
        print()
        print(format_robustness(entries, limit=robustness_top))
        top = entries[0]
        print(
            f"\nrobust best: {top.circuit}/{top.label}  "
            f"worst-case degradation {top.worst:.3f} over "
            f"{top.coverage} scenario(s)"
        )
    stats = result.stats
    search = (
        f"{strategy_name} search, {stats.n_generations} generation(s); "
        if stats.n_generations
        else ""
    )
    pruned = f"{stats.n_pruned} pruned, " if stats.n_pruned else ""
    waited = (
        f" ({stats.wait_s:.2f} s waiting on the queue)" if stats.wait_s
        else ""
    )
    synthesis = (
        f"{stats.synthesize_calls} synthesis runs over " if in_process
        else ""
    )
    print(
        f"{search}{stats.n_points} points ({stats.n_resumed} resumed, "
        f"{pruned}{stats.n_failed} failed) in "
        f"{stats.wall_s:.2f} s{waited} with {stats.workers} worker(s); "
        f"{synthesis}{stats.n_batches} batches"
    )
    recovery = []
    if stats.n_retries:
        recovery.append(f"{stats.n_retries} retries")
    if stats.n_timeouts:
        recovery.append(f"{stats.n_timeouts} lease timeouts")
    if recovery:
        print(f"recovery: {', '.join(recovery)}")
    return 1 if result.failures and not result.records else 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.service import run_worker

    if args.lease_size < 1:
        raise SystemExit("error: --lease-size must be >= 1")
    fault_plan = _parse_fault_plan(args)
    try:
        summary = run_worker(
            args.results,
            worker_id=args.worker_id,
            lease_size=args.lease_size,
            poll_s=args.poll,
            drain=args.drain,
            idle_timeout_s=args.idle_timeout,
            fault_plan=fault_plan,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    print(
        f"worker {summary['worker']}: {summary['n_done']} done, "
        f"{summary['n_failed']} failed over {summary['n_leases']} lease(s)"
    )
    return 0


def cmd_coordinator(args: argparse.Namespace) -> int:
    from repro.dse.request import dump_config
    from repro.service import SweepCoordinator

    merged = _merged_sweep_config(args)
    if args.dump_config:
        print(dump_config(merged), end="")
        return 0
    store_cfg, execution = merged["store"], merged["execution"]
    if execution["batch_timeout"] is not None:
        raise SystemExit(
            "error: execution.batch_timeout applies to 'sweep' only; the "
            "coordinator's lease deadline is --lease-timeout"
        )
    if execution["workers"] != 1:
        raise SystemExit(
            "error: execution.workers applies to 'sweep' only; the "
            "coordinator's local worker count is --spawn-workers"
        )
    if store_cfg["fsync_every"]:
        raise SystemExit(
            "error: store.fsync_every applies to 'sweep' only; the "
            "coordinator's records commit with their lease, in one "
            "transaction synced at SQLite's synchronous=FULL"
        )
    _validate_sweep_config(merged)
    if not store_cfg["results"]:
        raise SystemExit(
            "error: the coordinator requires --results (a SQLite store "
            "shared with the workers)"
        )
    request = _request_from_merged(merged)
    circuits = request.spec.circuits
    netlists = {name: _resolve_netlist(name) for name in circuits}
    sources = {
        name: str(Path(name).resolve())
        for name in circuits
        if name not in BY_NAME
    }
    fault_plan = _parse_fault_plan(args)
    resilience = _resilience_config(
        execution["max_attempts"], None, fault_plan
    )
    try:
        coordinator = SweepCoordinator(
            store_cfg["results"],
            workers=args.spawn_workers,
            lease_size=args.lease_size,
            lease_timeout_s=args.lease_timeout,
            poll_s=args.poll,
            max_respawns=args.max_respawns,
            resilience=resilience,
            store_backend=store_cfg["backend"],
            http_port=args.http,
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None
    try:
        result = coordinator.submit(
            request, netlists=netlists, sources=sources
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    return _report_sweep(
        result, request, args.robustness_top, in_process=False
    )


def cmd_view(args: argparse.Namespace) -> int:
    from repro.service.view import SweepViewServer

    try:
        server = SweepViewServer(args.store, host=args.host, port=args.port)
    except OSError as error:
        raise SystemExit(f"error: cannot bind view server: {error}") from None
    print(
        f"serving sweep view on http://{args.host}:{server.port}/ "
        "(/stats /fronts /failures /workers; Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.lint import (
        ERROR,
        LINT_RULES,
        classify_netlist_error,
        filter_findings,
        lint_netlist,
        lint_plan,
        lint_thresholds,
    )

    if args.rules:
        rows = [
            [rule.rule_id, rule.severity, rule.summary]
            for rule in LINT_RULES.values()
        ]
        print(format_table(["rule", "severity", "summary"], rows,
                           title="lint rules"))
        return 0

    targets = args.targets or sorted(BY_NAME)
    findings = []
    for spec in targets:
        path = Path(spec)
        if path.suffix == ".json":
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError) as error:
                raise SystemExit(f"error: {spec}: {error}") from None
            if isinstance(payload, dict) and isinstance(
                payload.get("thresholds"), dict
            ):
                payload = payload["thresholds"]
            if not isinstance(payload, dict):
                raise SystemExit(
                    f"error: {spec}: expected a JSON object of "
                    "threshold levels"
                )
            findings.extend(lint_thresholds(payload, source=spec))
            continue
        try:
            netlist = _resolve_netlist(spec)
        except SystemExit:
            raise
        except Exception as error:
            findings.append(classify_netlist_error(error, source=spec))
            continue
        netlist_findings = lint_netlist(netlist)
        findings.extend(netlist_findings)
        if args.deep and not any(
            f.severity == ERROR for f in netlist_findings
        ):
            from repro.dse.explorer import DesignPoint, prepare_point

            point = DesignPoint(
                policy=args.policy, budget_scale=args.budget_scale
            )
            try:
                prepared = prepare_point(netlist, point)
            except Exception as error:
                print(
                    f"{spec}: deep lint skipped ({error})", file=sys.stderr
                )
                continue
            findings.extend(
                lint_plan(
                    prepared.design.plan,
                    thresholds=prepared.environment.thresholds,
                )
            )
            findings.extend(
                lint_thresholds(
                    prepared.environment.thresholds, source=spec
                )
            )

    findings = filter_findings(
        findings, select=args.select, ignore=args.ignore
    )
    for finding in findings:
        print(finding.render())
    errors = sum(1 for f in findings if f.severity == ERROR)
    warnings_ = len(findings) - errors
    print(
        f"{len(targets)} target(s): {errors} error(s), "
        f"{warnings_} warning(s)"
    )
    return 1 if errors else 0


def _resolved_scenario(args: argparse.Namespace):
    """``(scenario, spec)`` for a scenarios show/plot invocation.

    Accepts the sweep axis' ``name[@seed[@scale]]`` spec form too, so
    labels printed by ``sweep`` paste straight into ``show``/``plot``;
    an explicit ``--seed``/``--scale`` flag wins over a spec component
    (the flags default to ``None``, so even ``--seed 0`` overrides).
    """
    from repro.energy.scenarios import ScenarioSpec, resolve_scenario

    try:
        spec = ScenarioSpec(
            name=args.name,
            seed=args.seed if args.seed is not None else 0,
            scale=args.scale if args.scale is not None else 1.0,
        )
        try:
            scenario = resolve_scenario(spec.name)
        except KeyError:
            if "@" not in args.name:
                raise
            parsed = ScenarioSpec.parse(args.name)
            spec = ScenarioSpec(
                name=parsed.name,
                seed=args.seed if args.seed is not None else parsed.seed,
                scale=(
                    args.scale if args.scale is not None else parsed.scale
                ),
            )
            scenario = resolve_scenario(spec.name)
    except (ValueError, KeyError) as error:
        raise _scenario_exit(error) from None
    return scenario, spec


def cmd_scenarios_list(_args: argparse.Namespace) -> int:
    from repro.energy.scenarios import list_scenarios

    rows = []
    for scenario in list_scenarios():
        trace = scenario.build()
        rows.append(
            [
                scenario.name,
                scenario.kind,
                len(trace.segments),
                f"{trace.period_s:.1f}",
                f"{trace.mean_power_w:.2f}",
                f"{trace.peak_power_w:.2f}",
                scenario.description,
            ]
        )
    print(
        format_table(
            ["scenario", "kind", "segments", "period (t_ref)",
             "mean P (p_ref)", "peak P (p_ref)", "description"],
            rows,
            title="harvest-environment scenarios",
        )
    )
    return 0


def cmd_scenarios_show(args: argparse.Namespace) -> int:
    scenario, spec = _resolved_scenario(args)
    trace = scenario.build(spec.scale, 1.0, spec.seed)
    print(f"{spec.label()} ({scenario.kind}): {scenario.description}")
    print(
        f"  period: {trace.period_s:.2f} t_ref over "
        f"{len(trace.segments)} segments"
    )
    print(
        f"  power: mean {trace.mean_power_w:.3f} p_ref, "
        f"peak {trace.peak_power_w:.3f} p_ref, "
        f"{trace.cycle_energy_j:.2f} p_ref*t_ref per cycle"
    )
    if args.segments:
        for i, seg in enumerate(trace.segments):
            print(
                f"  [{i:3d}] {seg.duration_s:8.3f} t_ref @ "
                f"{seg.power_w:.3f} p_ref"
            )
    return 0


def cmd_scenarios_plot(args: argparse.Namespace) -> int:
    from repro.viz import line_plot

    scenario, spec = _resolved_scenario(args)
    trace = scenario.build(spec.scale, 1.0, spec.seed)
    # Sample densely enough that every segment shows at plot resolution.
    n_samples = max(args.width * 2, 4 * len(trace.segments))
    dt = trace.period_s / n_samples
    times = [i * dt for i in range(n_samples + 1)]
    powers = [trace.power_at(t) for t in times]
    print(
        line_plot(
            times,
            powers,
            width=args.width,
            height=args.height,
            title=f"{spec.label()}: harvest power (p_ref) over one cycle "
            "(t_ref)",
            y_markers={"mean": trace.mean_power_w},
        )
    )
    return 0


def cmd_fig4(_args: argparse.Namespace) -> int:
    from repro.energy import ThresholdSet, fig4_trace
    from repro.fsm import IntermittentSensorNode, SensorNodeConfig
    from repro.viz import line_plot

    trace = fig4_trace()
    node = IntermittentSensorNode(trace, SensorNodeConfig(seed=3))
    result = node.run(trace.period_s)
    times, energies = result.energy_series()
    th = ThresholdSet.paper_defaults()
    print(
        line_plot(
            times,
            [e * 1e3 for e in energies],
            width=100,
            height=18,
            title="Fig. 4: E_batt (mJ)",
            y_markers={
                "Th_Tr": th.transmit_j * 1e3,
                "Th_Cp": th.compute_j * 1e3,
                "Th_Safe": th.safe_j * 1e3,
                "Th_Bk": th.backup_j * 1e3,
                "Th_Off": th.off_j * 1e3,
            },
        )
    )
    print({k: v for k, v in result.counters.items() if v})
    return 0


def _add_sweep_config_args(
    p: argparse.ArgumentParser, *, engine_execution: bool
) -> None:
    """The config-file-mergeable sweep options, in argument groups.

    Shared by ``sweep`` and ``coordinator``.  Every option parses with
    ``default=None`` so :func:`_overrides_from_args` can tell "not
    given" from any real value when layering flags over ``--config``;
    the true defaults live in :data:`repro.dse.request.CONFIG_DEFAULTS`
    and are cited in the help text instead.
    """
    p.add_argument(
        "circuits", nargs="*",
        help="roster names or .bench/.blif paths (may also come from "
        "--config [space] circuits)",
    )
    p.add_argument(
        "--config", metavar="FILE",
        help="TOML sweep config file; explicit flags override its "
        "values (write a starting point with --dump-config)",
    )
    p.add_argument(
        "--dump-config", action="store_true",
        help="print the merged sweep config as TOML and exit",
    )
    space = p.add_argument_group(
        "design space", "the axes the sweep spans"
    )
    space.add_argument(
        "--policies", nargs="+", type=int, default=None,
        choices=(1, 2, 3), help="(default: 1 2 3)",
    )
    space.add_argument(
        "--budget-scales", nargs="+", type=float, default=None,
        metavar="SCALE", help="(default: 0.5 1.0 2.0)",
    )
    space.add_argument(
        "--nvm", nargs="+", default=None,
        help="mram|reram|feram|pcm (default: mram)",
    )
    space.add_argument(
        "--criteria", nargs="+", default=None, metavar="L,P,F",
        help="replacement criteria weight triples (level,power,fanio; "
        "default: 1,1,1)",
    )
    space.add_argument(
        "--safe-zone", choices=("both", "on", "off"), default=None,
        help="(default: both)",
    )
    space.add_argument(
        "--threshold-scales", nargs="+", type=float, default=None,
        metavar="FACTOR", help="(default: 1.0)",
    )
    space.add_argument(
        "--safe-margin-scales", nargs="+", type=float, default=None,
        metavar="FACTOR",
        help="safe-zone widths relative to the derived default",
    )
    scen = p.add_argument_group(
        "scenarios", "harvest environments to sweep under"
    )
    scen.add_argument(
        "--scenario", nargs="+", default=None,
        metavar="NAME[@SEED[@SCALE]]",
        help="registry names from 'scenarios list' or .csv/.jsonl "
        "power-log paths (default: paper-fig5)",
    )
    search = p.add_argument_group(
        "search", "adaptive strategies over the spanned space"
    )
    search.add_argument(
        "--strategy", choices=_STRATEGY_CHOICES, default=None,
        help="grid walks the spec full-factorially (default); "
        "random/lhs sample the spanned space; halving screens a pool "
        "under a cheap generous scenario then promotes; evolution "
        "mutates around the Pareto front",
    )
    search.add_argument(
        "--samples", type=int, default=None, metavar="N",
        help="candidate budget per generation for non-grid strategies "
        "(random sample count / halving pool / evolution population; "
        "default: 24)",
    )
    search.add_argument(
        "--generations", type=int, default=None, metavar="N",
        help="adaptive rounds for halving/evolution strategies "
        "(default: 4)",
    )
    search.add_argument(
        "--search-seed", type=int, default=None, metavar="SEED",
        help="RNG seed of the search strategy (deterministic per "
        "seed; default: 0)",
    )
    analysis = p.add_argument_group(
        "analysis", "static checks before simulation"
    )
    analysis.add_argument(
        "--analysis-prune", action="store_true", default=None,
        help="static interval analysis before simulating: grid sweeps "
        "skip points proven infeasible (recorded as kind='pruned' "
        "failures, never silently dropped); halving searches cut the "
        "opening pool with a zero-cost static round 0",
    )
    execution = p.add_argument_group(
        "execution", "parallelism and retry behaviour"
    )
    if engine_execution:
        execution.add_argument(
            "--workers", type=int, default=None,
            help="worker processes (default: 1 = serial)",
        )
        execution.add_argument(
            "--batch-timeout", type=float, default=None, metavar="SECONDS",
            help="with --workers > 1, the deadline of each stage lease: a "
            "worker still holding it is killed and replaced, and the "
            "lease retried (default: no deadline)",
        )
    execution.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="evaluation attempts per task before a transient failure "
        "becomes permanent (1 disables retries; default: 3)",
    )
    store = p.add_argument_group("result store", "persistence and resume")
    store.add_argument(
        "--results", metavar="FILE", default=None,
        help="stream records to this result store (JSON lines or "
        "SQLite)",
    )
    store.add_argument(
        "--store-backend", choices=("auto", "jsonl", "sqlite"),
        default=None,
        help="result-store backend; auto (default) detects an existing "
        "file's format, else picks sqlite for .sqlite/.sqlite3/.db "
        "extensions and jsonl otherwise",
    )
    store.add_argument(
        "--resume", action="store_true", default=None,
        help="skip points already present in --results (indexed key "
        "lookup; warns if the store's base configuration differs)",
    )
    if engine_execution:
        store.add_argument(
            "--fsync-every", type=int, default=None, metavar="N",
            help="fsync --results after every N records (default: 0 = "
            "leave flushing to the OS)",
        )


def _add_chaos_args(p: argparse.ArgumentParser) -> None:
    """The fault-injection options (not part of the config file)."""
    chaos = p.add_argument_group("chaos", "deterministic fault injection")
    chaos.add_argument(
        "--inject-faults", metavar="SPEC",
        help="chaos testing: semicolon-separated faults of the form "
        "action[(seconds)][xN][@match] with action one of crash, hang, "
        "transient, corrupt — e.g. 'crash;hang(2.5)@b02;transientx2'",
    )
    chaos.add_argument(
        "--fault-dir", metavar="DIR",
        help="shared trip-state directory for --inject-faults "
        "(default: a fresh temp dir, so each run re-arms its plan)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DIAC design tool (DATE 2024 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("roster", help="list the benchmark roster").set_defaults(
        func=cmd_roster
    )

    def add_design_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("circuit", help="roster name or .bench/.blif path")
        p.add_argument("--policy", type=int, default=3, choices=(1, 2, 3))
        p.add_argument("--nvm", default="mram", help="mram|reram|feram|pcm")
        p.add_argument("--no-safe-zone", action="store_true")

    p_synth = sub.add_parser("synth", help="run the DIAC pipeline")
    add_design_args(p_synth)
    p_synth.add_argument("--emit-verilog", metavar="FILE")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("evaluate", help="four-scheme comparison")
    add_design_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser(
        "sweep",
        help="design-space exploration (parallel, cached, resumable)",
    )
    _add_sweep_config_args(p_sweep, engine_execution=True)
    _add_chaos_args(p_sweep)
    p_sweep.add_argument(
        "--robustness-top", type=int, default=10, metavar="N",
        help="rows of the cross-scenario robustness table to print",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_coord = sub.add_parser(
        "coordinator",
        help="shard one sweep across queue-fed worker processes",
    )
    _add_sweep_config_args(p_coord, engine_execution=False)
    service = p_coord.add_argument_group(
        "service", "queue, worker fleet and view wiring"
    )
    service.add_argument(
        "--spawn-workers", type=int, default=2, metavar="N",
        help="local worker processes to fork (0 = rely on external "
        "'repro worker' processes pointed at the same --results)",
    )
    service.add_argument(
        "--lease-size", type=int, default=8, metavar="N",
        help="max tasks per worker lease (one synthesis stage each)",
    )
    service.add_argument(
        "--lease-timeout", type=float, default=60.0, metavar="SECONDS",
        help="lease lifetime before a silent worker is presumed dead "
        "(a local one still running is killed); must exceed the "
        "worst-case wall time of one lease",
    )
    service.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="coordinator supervision interval, and the longest idle "
        "wait (waits back off from SECONDS/32)",
    )
    service.add_argument(
        "--max-respawns", type=int, default=4, metavar="N",
        help="replacement local workers allowed after crashes and "
        "lease-deadline kills",
    )
    service.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve the read-only sweep view on this port for the "
        "duration of the run (0 = ephemeral port)",
    )
    _add_chaos_args(p_coord)
    p_coord.add_argument(
        "--robustness-top", type=int, default=10, metavar="N",
        help="rows of the cross-scenario robustness table to print",
    )
    p_coord.set_defaults(func=cmd_coordinator)

    p_worker = sub.add_parser(
        "worker",
        help="evaluate leases from a coordinator's queue until drained",
    )
    p_worker.add_argument(
        "--results", metavar="FILE", required=True,
        help="the coordinator's SQLite result store, which holds the "
        "lease queue",
    )
    p_worker.add_argument(
        "--worker-id", metavar="NAME", default=None,
        help="queue-visible identity (default: host-pid)",
    )
    p_worker.add_argument(
        "--lease-size", type=int, default=8, metavar="N",
        help="max tasks per claim",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="longest idle sleep between empty claims (sleeps back "
        "off from SECONDS/32)",
    )
    p_worker.add_argument(
        "--drain", action="store_true",
        help="exit once the queue is empty even if it is still open",
    )
    p_worker.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="exit after this much continuous idleness "
        "(default: wait for the queue to close)",
    )
    _add_chaos_args(p_worker)
    p_worker.set_defaults(func=cmd_worker)

    p_view = sub.add_parser(
        "view",
        help="read-only HTTP JSON view over a sweep store",
    )
    p_view.add_argument(
        "store", metavar="STORE",
        help="result store to render; a lease queue in the same file "
        "feeds /failures, /workers and the queue stats",
    )
    p_view.add_argument("--host", default="127.0.0.1")
    p_view.add_argument(
        "--port", type=int, default=8750,
        help="bind port (0 = ephemeral)",
    )
    p_view.set_defaults(func=cmd_view)

    p_scen = sub.add_parser(
        "scenarios", help="inspect the harvest-environment registry"
    )
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser(
        "list", help="list registered scenarios"
    ).set_defaults(func=cmd_scenarios_list)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "name", help="registry name or .csv/.jsonl power-log path"
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="RNG seed (stochastic scenarios; default 0)",
        )
        p.add_argument(
            "--scale", type=float, default=None,
            help="harvest-power multiplier (default 1.0)",
        )

    p_show = scen_sub.add_parser(
        "show", help="print a scenario's trace statistics"
    )
    add_scenario_args(p_show)
    p_show.add_argument(
        "--segments", action="store_true", help="dump every segment"
    )
    p_show.set_defaults(func=cmd_scenarios_show)

    p_plot = scen_sub.add_parser(
        "plot", help="ASCII plot of one scenario cycle"
    )
    add_scenario_args(p_plot)
    p_plot.add_argument("--width", type=int, default=100)
    p_plot.add_argument("--height", type=int, default=16)
    p_plot.set_defaults(func=cmd_scenarios_plot)

    p_lint = sub.add_parser(
        "lint",
        help="static design checks: netlists, task graphs, thresholds",
    )
    p_lint.add_argument(
        "targets", nargs="*",
        help="roster names, .bench/.blif netlists, or .json threshold "
        "configs (default: the full roster)",
    )
    p_lint.add_argument(
        "--deep", action="store_true",
        help="also synthesize each netlist and lint its NVM plan and "
        "derived thresholds (slower)",
    )
    p_lint.add_argument(
        "--policy", type=int, default=3, choices=(1, 2, 3),
        help="tree-construction policy for --deep synthesis",
    )
    p_lint.add_argument(
        "--budget-scale", type=float, default=1.0, metavar="SCALE",
        help="per-burst budget scale for --deep synthesis",
    )
    p_lint.add_argument(
        "--select", nargs="+", metavar="RULE",
        help="only report rules matching these IDs/prefixes (e.g. N C001)",
    )
    p_lint.add_argument(
        "--ignore", nargs="+", metavar="RULE",
        help="suppress rules matching these IDs/prefixes",
    )
    p_lint.add_argument(
        "--rules", action="store_true", help="list every rule and exit"
    )
    p_lint.set_defaults(func=cmd_lint)

    sub.add_parser("fig4", help="render the Fig. 4 timeline").set_defaults(
        func=cmd_fig4
    )

    from repro.dse.store_cli import register_store_parser

    register_store_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
