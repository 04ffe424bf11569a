"""Path equivalence: where a sweep runs never changes what it returns.

Every front end plans through :mod:`repro.dse.planner` and differs only
in how pending tasks are evaluated — in-process, or by workers pulling
leases from the queue.  Each cell of {grid, random, halving +
analysis_prune, a barrier-placing grid} x {engine with 1 worker,
engine with 2 forked workers,
the same with one worker killed mid-lease, coordinator + thread worker}
x {fresh store, half-filled store resumed} must return the serial
engine's ordered records, planner stats, failures and aggregates
exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dse import (
    FaultPlan,
    ResilienceConfig,
    SweepEngine,
    SweepRequest,
    SweepSpec,
    open_store,
    record_to_dict,
)
from repro.energy.scenarios import ScenarioSpec
from repro.service import SweepCoordinator, run_worker

SPEC = SweepSpec(
    circuits=("s27",),
    policies=(2, 3),
    budget_scales=(0.5, 1.0),
    safe_zones=(True,),
    # A harvest too weak to finish on, so every path must also agree on
    # which points fail (or, under analysis_prune, are screened out).
    scenarios=(ScenarioSpec(), ScenarioSpec(scale=0.002)),
)

#: Budgets tight enough that DIAC's replacement step places 1-6 NVM
#: barriers in every record (the default budgets place none).
BARRIER_SPEC = SweepSpec(
    circuits=("s838", "b05"),
    policies=(1, 2, 3),
    budget_scales=(0.01, 0.005, 0.0025),
    scenarios=(ScenarioSpec(), ScenarioSpec.parse("rf-markov@1")),
)

#: sha256 of the serial engine's ordered barrier-grid records (one
#: sorted-key JSON line each), pinned so a change to barrier placement
#: shows up end to end.
BARRIER_DIGEST = (
    "fe56f18808171e6d22e7f549362c7a74c52b6d326d9e70d8b241b1c63b91906b"
)

REQUESTS = {
    "grid": SweepRequest(spec=SPEC),
    "random": SweepRequest(
        spec=SPEC, strategy="random", samples=3, search_seed=1
    ),
    "halving-prune": SweepRequest(
        spec=SPEC, strategy="halving", samples=4, generations=2,
        search_seed=2, analysis_prune=True,
    ),
    "barriers": SweepRequest(spec=BARRIER_SPEC),
}
PATHS = ("engine-1", "engine-2", "engine-2-crash", "coordinator")
STATES = ("fresh", "resume")


def run_path(path, request, store_path):
    """Submit ``request`` through one execution path onto ``store_path``."""
    if path == "coordinator":
        worker = threading.Thread(
            target=run_worker,
            args=(store_path, store_path),
            kwargs={"poll_s": 0.01, "store_backend": "sqlite"},
            daemon=True,
        )
        worker.start()
        try:
            result = SweepCoordinator(
                store_path, workers=0, poll_s=0.01, store_backend="sqlite"
            ).submit(request)
        finally:
            worker.join(timeout=30)
        assert not worker.is_alive()
        return result
    resilience = None
    if path.endswith("-crash"):
        # The first task a forked worker evaluates kills it.
        plan = FaultPlan.parse("crash", Path(store_path).parent / "faults")
        resilience = ResilienceConfig(fault_plan=plan)
    store = open_store(store_path, backend="sqlite")
    try:
        workers = int(path.split("-")[1])
        return SweepEngine(
            workers=workers, store=store, resilience=resilience
        ).submit(request)
    finally:
        store.close()


def run_cell(path, name, state, store_path, half_filled):
    request = REQUESTS[name]
    if state == "resume":
        shutil.copyfile(half_filled[name], store_path)
        request = replace(request, resume=True)
    return run_path(path, request, store_path)


@pytest.fixture(scope="module")
def half_filled(tmp_path_factory):
    """Per request: a store holding every other record of a clean run."""
    root = tmp_path_factory.mktemp("half-filled")
    paths = {}
    for name, request in REQUESTS.items():
        full = root / f"{name}-full.sqlite"
        run_path("engine-1", request, full)
        store = open_store(full, backend="sqlite")
        records = store.load()
        store.close()
        paths[name] = root / f"{name}.sqlite"
        store = open_store(paths[name], backend="sqlite")
        store.extend(records[::2])
        store.close()
    return paths


@pytest.fixture(scope="module")
def reference(tmp_path_factory, half_filled):
    """The serial engine's result per (request, state), computed once."""
    results = {}

    def get(name, state):
        if (name, state) not in results:
            store_path = tmp_path_factory.mktemp("reference") / "run.sqlite"
            results[name, state] = run_cell(
                "engine-1", name, state, store_path, half_filled
            )
        return results[name, state]

    return get


def summary(result):
    """Everything the execution path must not change."""
    stats = result.stats
    return {
        "records": [
            json.dumps(record_to_dict(r), sort_keys=True)
            for r in result.records
        ],
        "stats": (
            stats.n_points, stats.n_resumed, stats.n_pruned,
            stats.n_generations,
        ),
        "failures": [
            (f.circuit, f.scenario, f.label, f.kind) for f in result.failures
        ],
        "best": {
            group: record_to_dict(record)
            for group, record in result.best_by_scenario().items()
        },
        "fronts": {
            group: [record_to_dict(record) for record in front]
            for group, front in result.fronts_by_scenario().items()
        },
    }


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", list(REQUESTS))
def test_path_is_invisible(name, path, state, tmp_path, reference, half_filled):
    result = run_cell(path, name, state, tmp_path / "run.sqlite", half_filled)
    assert summary(result) == summary(reference(name, state))
    # The matrix exercises what it claims: records, failures (placed
    # barriers, for the barrier grid), resume.
    assert result.records
    if name == "barriers":
        assert all(record.n_barriers >= 1 for record in result.records)
    else:
        assert result.failures
    assert (result.stats.n_resumed > 0) == (state == "resume")
    if path.endswith("-crash"):
        assert result.stats.n_retries >= 1  # the killed worker's lease


def test_barrier_records_are_pinned(reference):
    rows = summary(reference("barriers", "fresh"))["records"]
    assert len(rows) == len(BARRIER_SPEC) == 72
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == BARRIER_DIGEST


#: One job, digested: a grid at 1 and at 2 workers and a suite
#: evaluation.  Printed as JSON {job: [records, sha256]}.
HASHSEED_JOB = """
import hashlib, json
from dataclasses import asdict
from repro.dse import SweepEngine, SweepRequest, SweepSpec, record_to_dict
from repro.energy.scenarios import ScenarioSpec
from repro.evaluation import evaluate_suite

def digest(rows):
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return [len(lines), hashlib.sha256("\\n".join(lines).encode()).hexdigest()]

spec = SweepSpec(
    circuits=("s27", "b02"),
    scenarios=(ScenarioSpec(), ScenarioSpec.parse("rf-markov@7")),
)
out = {}
for workers in (1, 2):
    result = SweepEngine(workers=workers).submit(SweepRequest(spec=spec))
    out[f"grid-{workers}"] = digest(record_to_dict(r) for r in result.records)
out["suite"] = digest(
    {"circuit": e.name, "scheme": scheme, **asdict(result)}
    for e in evaluate_suite(["s27", "s298"])
    for scheme, result in e.results.items()
)
print(json.dumps(out))
"""


def test_records_independent_of_hash_seed():
    """Set and dict iteration order never reaches a record.

    The same job runs in fresh interpreters under three
    ``PYTHONHASHSEED`` values; grid records at 1 and 2 workers and the
    suite evaluation must digest identically in all of them.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", HASHSEED_JOB],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1", "777")
    ]
    outputs = []
    for proc in procs:
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        outputs.append(json.loads(stdout.splitlines()[-1]))
    assert outputs[0]["grid-1"] == outputs[0]["grid-2"]
    assert outputs[0]["grid-1"][0] > 0 and outputs[0]["suite"][0] > 0
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
