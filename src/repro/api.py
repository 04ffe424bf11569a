"""The curated public API of the DIAC reproduction.

One import surface for the workflows the README walks through —
synthesis, evaluation, sweeps (in-process or distributed), stores and
scenarios — so downstream code never reaches into submodules whose
layout may shift::

    from repro.api import SweepEngine, SweepRequest, SweepSpec

    request = SweepRequest(spec=SweepSpec(circuits=("s27",)))
    result = SweepEngine().submit(request)

Everything here is re-exported from its home module; the home modules
stay importable directly when finer-grained access is wanted.
"""

from repro.core.diac import DiacConfig, DiacSynthesizer
from repro.dse.engine import (
    SweepEngine,
    SweepFailure,
    SweepResult,
    SweepSpec,
    SweepStats,
)
from repro.dse.explorer import (
    DesignPoint,
    ExplorationRecord,
    evaluate_point,
)
from repro.dse.request import (
    SweepRequest,
    dump_config,
    load_config_file,
    merge_config,
    request_from_config,
    request_to_config,
)
from repro.dse.resilience import ResilienceConfig, RetryPolicy
from repro.dse.store import (
    ResultStore,
    open_store,
    record_from_dict,
    record_to_dict,
)
from repro.energy.scenarios import ScenarioSpec, resolve_scenario
from repro.evaluation import evaluate_design
from repro.service import LeaseQueue, SweepCoordinator, run_worker
from repro.service.view import SweepViewServer
from repro.suite import load_circuit

__all__ = [
    "DesignPoint",
    "DiacConfig",
    "DiacSynthesizer",
    "ExplorationRecord",
    "LeaseQueue",
    "ResilienceConfig",
    "ResultStore",
    "RetryPolicy",
    "ScenarioSpec",
    "SweepCoordinator",
    "SweepEngine",
    "SweepFailure",
    "SweepRequest",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "SweepViewServer",
    "dump_config",
    "evaluate_design",
    "evaluate_point",
    "load_circuit",
    "load_config_file",
    "merge_config",
    "open_store",
    "record_from_dict",
    "record_to_dict",
    "request_from_config",
    "request_to_config",
    "resolve_scenario",
    "run_worker",
]
