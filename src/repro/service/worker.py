"""The sweep-service worker loop behind ``repro worker``.

A worker is a plain process pointed at one path: the SQLite result
store that holds the lease queue.  It claims one stage-batch lease at
a time, evaluates it through *exactly* the engine's batch path
(:func:`repro.dse.engine._evaluate_batch`, under the base configuration
the coordinator persisted in the queue, with the process-global
synthesis cache so repeated leases of one stage stay warm), and hands
the records to :meth:`~repro.service.queue.LeaseQueue.resolve`, which
writes them in the same transaction as the lease's ``done`` marks.  A
crash before that commit costs a re-evaluation and stores nothing; a
late report from a worker whose lease was reclaimed is dropped, since
only the lease holder's report counts.  :func:`run_lease` is that one
step; a coordinator whose local workers are all gone runs it in its
own process to drain the rest.

A worker evaluates each task it claims once and never retries: per-job
exceptions arrive pre-classified by the engine's taxonomy and are
reported with the lease's records in the same ``resolve``, landing in
``failed`` whatever their kind; a worker death mid-lease is caught by
its coordinator reaping the process, or by lease expiry (the next claim
reclaims it), and fails the lease ``transient``.  Whether a failed task
runs again is the coordinator's planner's decision, made by enqueueing
it anew.  An idle worker heartbeats and exits once the queue is drained
*and* closed (or after ``idle_timeout_s``, or immediately in ``drain``
mode).  Its idle sleeps back off from ``poll_s / 32`` to ``poll_s``
(:func:`~repro.service.queue.idle_waits`), so work enqueued just after
it went idle waits milliseconds, not a whole ``poll_s``.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path

from repro.circuits import NETLIST_SUFFIXES, netlist_parser
from repro.circuits.netlist import Netlist
from repro.dse.engine import _evaluate_batch
from repro.dse.explorer import SynthesisCache
from repro.dse.faults import FaultPlan
from repro.dse.resilience import check_count, check_duration
from repro.dse.store import detect_backend
from repro.service.queue import LeaseQueue, idle_waits
from repro.suite.registry import load_circuit


def _load_netlist(circuit: str, source: str | None) -> Netlist:
    """Resolve one lease's netlist: explicit file path, else roster."""
    if source is None:
        return load_circuit(circuit)
    parser = netlist_parser(source)
    if parser is None:
        raise ValueError(
            f"cannot load netlist {source!r}: expected {NETLIST_SUFFIXES}"
        )
    return parser(source)


def run_lease(
    queue: LeaseQueue,
    worker: str,
    lease_size: int,
    netlists: dict[str, Netlist],
    fault_plan: FaultPlan | None = None,
    caches: dict[str, SynthesisCache] | None = None,
) -> tuple[int, int] | None:
    """Claim one lease and run it: evaluate, then resolve with the records.

    ``netlists`` is filled in place with every circuit a lease loads.
    ``caches`` selects :func:`~repro.dse.engine._evaluate_batch`'s
    inline path (crash faults raise instead of exiting), for a
    coordinator draining its queue in its own process.  Returns
    ``(n_done, n_failed)``, or ``None`` when nothing was claimable.
    """
    # The claim reads the base config in its own transaction: a stored
    # config this version cannot read raises there, leaving every task
    # pending.
    lease = queue.claim(worker, limit=lease_size)
    if not lease:
        return None
    circuit = lease[0].circuit
    if circuit not in netlists:
        netlists[circuit] = _load_netlist(circuit, lease[0].source)
    jobs = [(task.key, task.scenario, task.point) for task in lease]
    # Without caches a crash fault exits the process here, leaving the
    # lease to its coordinator or its deadline — the real death path.
    records, failures = _evaluate_batch(
        circuit, netlists[circuit], jobs, lease.base_config, fault_plan,
        caches,
    )
    queue.resolve(
        worker, records, [(key, f.error, f.kind) for key, f in failures]
    )
    return len(records), len(failures)


def run_worker(
    path: str | Path,
    store_path: str | Path | None = None,
    worker_id: str | None = None,
    lease_size: int = 8,
    poll_s: float = 0.2,
    drain: bool = False,
    idle_timeout_s: float | None = None,
    fault_plan: FaultPlan | None = None,
    store_backend: str = "auto",
    netlists: dict[str, Netlist] | None = None,
) -> dict:
    """Claim, evaluate and resolve leases until the queue winds down.

    Args:
        path: the SQLite result store holding the
            :class:`~repro.service.queue.LeaseQueue`; records are
            written there, with their leases' ``done`` marks.
        store_path: accepted for callers that name the store apart
            from the queue; it must be ``path`` itself.
        worker_id: queue-visible identity; default ``host-pid``.
        lease_size: max tasks per claim (one synthesis stage each).
        poll_s: the longest idle sleep between empty claims; the
            sleeps follow :func:`~repro.service.queue.idle_waits`,
            from its start in every idle spell.
        drain: exit as soon as nothing is left to resolve, even while
            the queue is still ``open`` (one-shot helpers and tests).
            Failed tasks stay failed: a drain evaluates each pending
            task once.
        idle_timeout_s: give up after this much continuous idleness
            (``None`` = wait for the queue to close).
        fault_plan: deterministic chaos (``repro worker
            --inject-faults``); crash faults kill this process outright,
            exercising the dead-worker path for real.
        store_backend: how ``path`` is to be read, as in
            :func:`~repro.dse.store.open_store`; it must resolve to
            ``sqlite``.
        netlists: circuit name -> netlist used instead of loading by
            name (a coordinator's forked workers inherit its in-memory
            netlists this way); other circuits load from the lease's
            source path or the roster.

    Returns:
        ``{"worker", "n_done", "n_failed", "n_leases"}`` totals.

    Raises:
        TypeError: when ``lease_size`` is not an ``int``.
        ValueError: when ``store_path`` is another file, ``path`` does
            not resolve to SQLite, or ``lease_size``, ``poll_s`` or
            ``idle_timeout_s`` is out of range (all checked before any
            file is opened or created).
    """
    check_count("lease_size", lease_size, 1)
    check_duration("poll_s", poll_s)
    if idle_timeout_s is not None:
        check_duration("idle_timeout_s", idle_timeout_s, allow_zero=True)
    if store_path is not None and Path(store_path).resolve() != Path(path).resolve():
        raise ValueError(
            f"service workers store records in the queue's own SQLite "
            f"file {path}; store_path {store_path} is another file"
        )
    backend = detect_backend(path) if store_backend == "auto" else store_backend
    if backend != "sqlite":
        raise ValueError(
            f"service workers require the SQLite store backend; "
            f"{path} resolved to {backend}"
        )
    queue = LeaseQueue(path)
    worker = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    queue.register_worker(worker, os.getpid())
    netlists = dict(netlists or {})
    n_done = n_failed = n_leases = 0
    idle_since: float | None = None
    try:
        while True:
            ran = run_lease(queue, worker, lease_size, netlists, fault_plan)
            if ran is not None:
                idle_since = None
                n_leases += 1
                n_done += ran[0]
                n_failed += ran[1]
                continue
            queue.heartbeat(worker)
            # Drain mode still waits out foreign leases — "drained"
            # means resolved, not merely unclaimable.
            if queue.unfinished() == 0 and (
                drain or queue.state() == "closed"
            ):
                break
            now = time.time()
            if idle_since is None:
                idle_since = now
                waits = idle_waits(poll_s)
            if (
                idle_timeout_s is not None
                and now - idle_since >= idle_timeout_s
            ):
                break
            time.sleep(next(waits))
    finally:
        queue.worker_exited(worker)
        queue.close()
    return {
        "worker": worker,
        "n_done": n_done,
        "n_failed": n_failed,
        "n_leases": n_leases,
    }
