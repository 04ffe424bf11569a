"""Run one end-to-end DIAC workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload sweep-scenarios --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing
off.  ``--trace 1`` alternates untraced and traced calls and prints the
per-layer metrics of the traced ones, the tracing overhead and the
share of wall time the layer spans cover.  Times are reported in
reference seconds: the host's speed is sampled all through every timed
call and set-up probe, and each time is rescaled to a quiet reference
host (see ``hostspeed.py``).  Every run checks a seeded sample of its
records against the scalar oracle and prints a digest of the record
set.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, metrics and the layer table are described in ``README.md``
beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import CAL_REFERENCE_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Fresh processes timed per run for ``setup_s`` (the median is kept).
SETUP_PROBES = 5
#: Seconds a set-up probe may take to get ready before the run fails.
PROBE_TIMEOUT_S = 120.0
#: Minimum share of wall time the top-level layer spans must cover.
MIN_COVERAGE = 0.90

#: The workload names, in ``BENCHMARK.json`` order.
WORKLOAD_NAMES = (
    "fig5-roster", "sweep-scenarios", "service-grid", "search-halving",
)

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio", "coverage")):
        return "ratio"
    return "count"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", type=Path, default=None,
        help="with --trace 1, also write every span to this file as "
        "Chrome trace-event JSON",
    )
    return parser.parse_args(argv)


def host_stamp() -> dict:
    """What the figures were measured on."""
    import numpy

    from repro.dse.batch import batch_routing_enabled

    commit = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "batch_routing_enabled": batch_routing_enabled(),
        "commit": commit,
        "machine": platform.machine(),
    }


def _run_child(argv: list[str]) -> tuple[str, float]:
    """First output line of a child process and seconds until it came.

    The child must exit with 0.
    """
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"probe.py {' '.join(argv[2:4])} failed (exit {proc.returncode})"
        )
    return line.strip(), elapsed


def prepare_fixture(name: str, seed: int, tmp: Path) -> Path | None:
    """Build the workload's fixture in a child process (untimed)."""
    line, _ = _run_child(
        [sys.executable, str(HERE / "probe.py"), "prepare", name,
         str(seed), str(tmp)]
    )
    return Path(line) if line else None


def time_setup(name: str, seed: int, fixture: Path | None,
               tmp: Path) -> tuple[list[float], list[float]]:
    """Process start to ready for each set-up probe: raw, reference s.

    A probe samples the host's speed over its own set-up and reports
    that stretch raw and in reference seconds; the interpreter start
    before it is counted raw.
    """
    walls, refs = [], []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "probe.py"), "setup", name,
                str(seed)]
        if fixture is not None:
            probe_store = tmp / "probe.sqlite"
            for stale in tmp.glob("probe.sqlite*"):
                stale.unlink()
            shutil.copyfile(fixture, probe_store)
            argv.append(str(probe_store))
        line, wall = _run_child(argv)
        word, *times = line.split()
        if word != "ready" or len(times) != 2:
            raise RuntimeError(f"set-up probe printed {line!r}")
        inner_wall, inner_ref = map(float, times)
        walls.append(wall)
        refs.append(wall - inner_wall + inner_ref)
    return walls, refs


@dataclass
class Measured:
    """What :func:`measure` saw.

    ``calls`` holds ``(digest, attempted, failed, evaluations)`` of every
    call and ``last`` the final :class:`~workloads.Outcome` (only it is
    kept, so earlier results do not inflate ``peak_rss_mb``).  Per call,
    untraced and traced: the raw wall time, the reference time
    (:meth:`HostSpeed.reference_seconds`) and the median calibration
    sample.  ``windows`` are the traced calls' ``(start, end)``.
    """

    calls: list = field(default_factory=list)
    last: object = None
    walls: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    traced_refs: list[float] = field(default_factory=list)
    cal_s: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    tracer: object = None


def measure(workload, ctx: dict, tmp: Path, seconds: float,
            trace: bool) -> Measured:
    """Timed calls until together they have taken ``seconds``.

    With ``trace`` the calls alternate untraced and traced, so the
    overhead compares calls made under the same conditions.
    """
    out = Measured()
    if trace:
        from tracer import Tracer

        out.tracer = Tracer()
    spent = 0.0
    while True:
        for traced in (False, True) if trace else (False,):
            out.last = None  # free the previous call's result first
            workload.fresh(ctx, tmp)
            # Start every call from a collected heap, as a fresh process
            # would: the previous call's cyclic garbage is not its cost.
            gc.collect()
            if traced:
                out.tracer.install()
            try:
                with HostSpeed() as speed:
                    start = time.perf_counter()
                    try:
                        result = workload.run(ctx)
                    finally:
                        end = time.perf_counter()
            finally:
                if traced:
                    out.tracer.uninstall()
                workload.finish(ctx)
            out.last = workload.outcome(result)
            del result
            wall = end - start
            ref = speed.reference_seconds(wall)
            out.cal_s.append(statistics.median(speed.samples))
            if traced:
                out.traced_walls.append(wall)
                out.traced_refs.append(ref)
                out.windows.append((start, end))
            else:
                out.walls.append(wall)
                out.refs.append(ref)
            out.calls.append((
                out.last.digest(), out.last.attempted, out.last.failed,
                out.last.evaluations,
            ))
            spent += wall
        if spent >= seconds:
            return out


def layer_metrics(m: Measured) -> dict[str, float]:
    """Per-layer figures per traced call, plus coverage and overhead.

    Seconds are reference seconds, like the end-to-end ones: span times
    are rescaled by the traced calls' median reference/raw ratio.
    """
    from tracer import LAYERS

    scale = statistics.median(
        ref / wall for ref, wall in zip(m.traced_refs, m.traced_walls)
    )
    fold = m.tracer.fold(m.windows)
    n = len(m.windows)
    counts = fold.counters
    wall = fold.wall_s
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = counts[f"{layer}.calls"] / n
        values[f"{layer}.self_s"] = fold.self_s[layer] * scale / n
        values[f"{layer}.share"] = fold.self_s[layer] / wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["dse.synth_cache.hit_ratio"] = ratio(
        counts["dse.synth_cache.hits"], counts["dse.synth_cache.calls"]
    )
    values["sim.executor.lanes"] = counts["sim.executor.lanes"] / n
    values["analysis.screen.keep_ratio"] = ratio(
        counts["analysis.screen.points_kept"],
        counts["analysis.screen.points_in"],
    )
    for kind in ("write", "read"):
        for what in ("calls", "records", "s"):
            name = f"dse.store.{kind}_{what}"
            values[name] = counts[name] * (scale if what == "s" else 1) / n
    values["service.queue.tasks_per_lease"] = ratio(
        counts["service.queue.leased_tasks"], counts["service.queue.leases"]
    )
    values["service.queue.empty_claim_ratio"] = ratio(
        counts["service.queue.claims"] - counts["service.queue.leases"],
        counts["service.queue.claims"],
    )
    values["unattributed.self_s"] = (wall - fold.covered_s) * scale / n
    values["unattributed.share"] = 1.0 - fold.covered_s / wall
    values["tracing.coverage"] = fold.covered_s / wall
    values["tracing.overhead_ratio"] = (
        statistics.median(m.traced_refs) / statistics.median(m.refs)
    )
    return values


def run(args: argparse.Namespace) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("host " + json.dumps(host_stamp(), sort_keys=True), flush=True)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        fixture = prepare_fixture(args.workload, args.seed, tmp)
        setup_walls, setups = time_setup(args.workload, args.seed, fixture,
                                         tmp)
        ctx = workload.setup(args.seed, fixture)
        m = measure(workload, ctx, tmp, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        last = m.last
        mismatches = workload.oracle(ctx, last, random.Random(args.seed))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    calls = m.calls
    digests = {digest for digest, *_rest in calls}
    attempted = sum(call[1] for call in calls)
    failed_points = sum(call[2] for call in calls)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(m.walls)} untraced + {len(m.traced_walls)} traced calls, "
        f"{len(last.records)} records, {last.evaluations} evaluations each"
    )

    def listing(values: list[float]) -> str:
        return " ".join(f"{v:.4f}" for v in values)

    print(f"calls wall_s {listing(m.walls)}"
          + (f" traced {listing(m.traced_walls)}" if m.traced_walls else ""))
    print(f"calls reference s {listing(m.refs)}"
          + (f" traced {listing(m.traced_refs)}" if m.traced_refs else ""))
    print(f"calls calibration median ms {listing(c * 1e3 for c in m.cal_s)}"
          f" (reference {CAL_REFERENCE_S * 1e3:.3f})")
    print(f"setup wall_s per probe {listing(setup_walls)}; reference s "
          f"{listing(setups)}")
    print(f"records digest sha256:{sorted(digests)[0]}"
          + ("" if len(digests) == 1 else f" (+{len(digests) - 1} differing)"))
    print(f"oracle {workload.oracle_note}: "
          + ("bit-identical" if not mismatches
             else "MISMATCH " + ", ".join(mismatches)))
    for key, value in last.extra.items():
        print(f"info {key} {value:.4f} pp (paper vs measured, model unvalidated)")

    if args.trace:
        metrics = layer_metrics(m)
        units = {name: layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"layer {name} {value:.6g} {units[name]}")
        if args.spans is not None:
            args.spans.write_text(json.dumps(m.tracer.chrome_trace()))
        if metrics["tracing.coverage"] < MIN_COVERAGE:
            print(
                f"warning: layer spans cover {metrics['tracing.coverage']:.1%}"
                f" of wall time (< {MIN_COVERAGE:.0%}); "
                f"{metrics['unattributed.self_s']:.3f} s per call is "
                "outside every span, so an entry-point binding is missing"
            )
    else:
        metrics = {
            "wall_s": statistics.median(m.refs),
            "evals_per_s": statistics.median(
                call[3] / ref for call, ref in zip(calls, m.refs)
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed_points) / attempted,
        }
        units = END_TO_END
        counts = {
            "wall_s": len(m.refs), "evals_per_s": len(m.refs),
            "setup_s": len(setups),
        }
        for name, value in metrics.items():
            note = f" (median of {counts[name]})" if name in counts else ""
            print(f"metric {name} {value:.6g} {units[name]}{note}")

    failed = failed_points + len(mismatches) + (len(digests) - 1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run the "
            "benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # One computing thread: keep BLAS pools from spawning more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
