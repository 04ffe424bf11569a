"""SWEEP ENGINE — serial-vs-parallel and cached-vs-uncached throughput.

The paper's design space "exponentially expands" with circuits, policies
and power-failure scenarios; the sweep engine keeps that tractable two
ways, and this bench quantifies both on a 36-point multi-circuit sweep:

* **synthesis memoization** — the budget/safe-zone variants of one
  (circuit, policy) group share a single characterization/tree/policy run
  instead of re-synthesizing per point (the seed explorer's behavior);
* **process parallelism** — synthesis-stage batches fan out to forked
  workers as whole-stage leases on the lease queue.  The measured ratio
  is hardware-honest: on a quota-limited CI box it can be modest, so it
  is reported, not asserted.
"""

from __future__ import annotations

import random
import time

from repro.dse import (
    SweepEngine,
    SweepRequest,
    SweepSpec,
    SynthesisCache,
    evaluate_point,
    pareto_front,
)
from repro.suite import load_circuit

SPEC = SweepSpec(
    circuits=("s838", "s1196", "s1423"),
    policies=(1, 2, 3),
    budget_scales=(0.5, 1.0),
    safe_zones=(True, False),
)

WORKERS = 4


def fingerprint(records):
    return sorted(
        (r.circuit, r.point.label(), r.pdp_js, r.n_backups) for r in records
    )


def test_sweep_engine_parallel_vs_serial():
    """36 points, 9 synthesis groups: serial baseline vs forked workers."""
    assert len(SPEC) == 36

    start = time.perf_counter()
    serial = SweepEngine(workers=1).submit(SweepRequest(spec=SPEC))
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = SweepEngine(workers=WORKERS).submit(SweepRequest(spec=SPEC))
    parallel_s = time.perf_counter() - start

    assert fingerprint(parallel.records) == fingerprint(serial.records)
    # One synthesize call per (circuit, policy) group; in parallel each
    # group is one whole-stage lease, synthesized in a worker process,
    # and nothing is synthesized in this one.
    assert serial.stats.synthesize_calls == 9
    assert parallel.stats.n_batches == 9
    assert parallel.stats.synthesize_calls == 0

    ratio = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(
        f"\nsweep of {len(SPEC)} points over {len(SPEC.circuits)} circuits:"
        f"\n  serial   ({serial.stats.n_batches} groups, 1 worker): "
        f"{serial_s:.2f} s"
        f"\n  parallel ({WORKERS} workers): {parallel_s:.2f} s"
        f"\n  serial/parallel wall-clock ratio: {ratio:.2f}x"
    )


def test_synthesis_cache_vs_per_point_resynthesis():
    """The memoized stage vs the seed explorer's synthesize-every-point."""
    netlist = load_circuit("s1423")
    points = [
        point
        for _circuit, _scenario, point in SweepSpec(
            circuits=("s1423",),
            policies=(3,),
            budget_scales=(0.5, 1.0, 2.0),
            safe_zones=(True, False),
        ).points()
    ]

    start = time.perf_counter()
    cold_records = []
    for point in points:  # fresh cache per point == re-synthesize each time
        cold_records.append(evaluate_point(netlist, point))
    cold_s = time.perf_counter() - start

    cache = SynthesisCache()
    start = time.perf_counter()
    warm_records = [
        evaluate_point(netlist, point, cache=cache) for point in points
    ]
    warm_s = time.perf_counter() - start

    assert cache.synthesize_calls == 1
    assert fingerprint(warm_records) == fingerprint(cold_records)
    ratio = cold_s / warm_s if warm_s > 0 else float("inf")
    print(
        f"\n{len(points)} points of one (circuit, policy) group on s1423:"
        f"\n  re-synthesize per point: {cold_s:.2f} s"
        f"\n  shared synthesis stage:  {warm_s:.2f} s  ({ratio:.2f}x)"
    )


def test_pareto_front_sort_based_vs_quadratic():
    """The 2-objective O(n log n) sweep vs the generic O(n²) filter.

    Large sweeps call ``record_front`` once per (scenario, circuit)
    group and evolutionary strategies call it every generation, so the
    front filter sits on a warm path; at 20k points the quadratic
    filter is already seconds while the sweep stays milliseconds.
    """
    rng = random.Random(0)
    points = [
        (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(20_000)
    ]
    objectives = [lambda p: p[0], lambda p: p[1]]

    start = time.perf_counter()
    fast = pareto_front(points, objectives)
    fast_s = time.perf_counter() - start

    def dominates(a, b):
        return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])

    # The generic quadratic filter on a 10x smaller sample (it would
    # take minutes at 20k); correctness parity is asserted on that
    # sample, throughput is compared per point.
    sample = points[:2_000]
    start = time.perf_counter()
    brute = [
        p
        for i, p in enumerate(sample)
        if not any(dominates(sample[j], p) for j in range(len(sample))
                   if j != i)
    ]
    brute_s = time.perf_counter() - start

    assert pareto_front(sample, objectives) == brute
    # The quadratic cost per point grows with n, so extrapolate the
    # brute filter to the full size for an apples-to-apples ratio.
    scale = len(points) / len(sample)
    brute_full_s = brute_s * scale * scale
    print(
        f"\npareto front of {len(points)} random 2-objective points:"
        f"\n  sort-based sweep: {fast_s * 1e3:.1f} ms "
        f"({len(fast)} on the front)"
        f"\n  quadratic filter, measured on {len(sample)}: "
        f"{brute_s * 1e3:.1f} ms "
        f"(~{brute_full_s:.1f} s extrapolated to {len(points)})"
        f"\n  speedup at {len(points)} points: "
        f"~{brute_full_s / fast_s:.0f}x"
    )
