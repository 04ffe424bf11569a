"""The sweep-service worker loop behind ``repro worker``.

A worker is a plain process pointed at two paths — the lease queue and
the SQLite result store (often the same file).  It claims one
stage-batch lease at a time, evaluates it through *exactly* the
engine's batch path (:func:`repro.dse.engine._evaluate_batch`, under the
base configuration the coordinator persisted in the queue, with the
process-global synthesis cache so repeated leases of one stage stay
warm), upserts the records into the store, and only then resolves the
lease — so a crash between the store write and the completion mark
costs a redundant re-evaluation, never a lost or duplicated record.
:func:`run_lease` is that one step; a coordinator whose local workers
are all gone runs it in its own process to drain the rest.

A worker evaluates each task it claims once and never retries: per-job
exceptions arrive pre-classified by the engine's taxonomy and are
reported with the lease's records in one
:meth:`~repro.service.queue.LeaseQueue.resolve`, landing in ``failed``
whatever their kind; a worker death mid-lease is caught by its
coordinator reaping the process, or by lease expiry (the next claim
reclaims it), and fails the lease ``transient``.  Whether a failed task
runs again is the coordinator's planner's decision, made by enqueueing
it anew.  An idle worker heartbeats and exits once the queue is drained
*and* closed (or after ``idle_timeout_s``, or immediately in ``drain``
mode).
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path

from repro.circuits.netlist import Netlist
from repro.dse.engine import _evaluate_batch
from repro.dse.explorer import SynthesisCache
from repro.dse.faults import FaultPlan
from repro.dse.resilience import check_count, check_duration
from repro.dse.sqlite_store import SqliteResultStore
from repro.dse.store import open_store
from repro.service.queue import LeaseQueue
from repro.suite.registry import load_circuit


def _load_netlist(circuit: str, source: str | None) -> Netlist:
    """Resolve one lease's netlist: explicit file path, else roster."""
    if source is not None:
        suffix = Path(source).suffix.lower()
        if suffix == ".bench":
            from repro.circuits.bench_parser import load_bench

            return load_bench(source)
        if suffix in (".blif", ".mcnc"):
            from repro.circuits.blif_parser import load_blif

            return load_blif(source)
        raise ValueError(
            f"cannot load netlist {source!r}: expected .bench or .blif"
        )
    return load_circuit(circuit)


def run_lease(
    queue: LeaseQueue,
    store: SqliteResultStore,
    worker: str,
    lease_size: int,
    netlists: dict[str, Netlist],
    fault_plan: FaultPlan | None = None,
    caches: dict[str, SynthesisCache] | None = None,
) -> tuple[int, int, int] | None:
    """Claim one lease and run it: evaluate, store, then resolve.

    ``netlists`` is filled in place with every circuit a lease loads.
    ``caches`` selects :func:`~repro.dse.engine._evaluate_batch`'s
    inline path (crash faults raise instead of exiting), for a
    coordinator draining its queue in its own process.  Returns
    ``(n_done, n_failed, synthesize_calls)``, or ``None`` when nothing
    was claimable.
    """
    # Read before claiming: a stored config this version cannot read
    # raises here, leaving every task pending.
    base_config = queue.base_config
    lease = queue.claim(worker, limit=lease_size)
    if not lease:
        return None
    circuit = lease[0].circuit
    if circuit not in netlists:
        netlists[circuit] = _load_netlist(circuit, lease[0].source)
    jobs = [(task.key, task.scenario, task.point) for task in lease]
    # Without caches a crash fault exits the process here, leaving the
    # lease to its coordinator or its deadline — the real death path.
    records, calls, failures = _evaluate_batch(
        circuit, netlists[circuit], jobs, base_config, fault_plan,
        caches,
    )
    # Store first, then resolve: a death in between re-runs the point,
    # and the store upsert absorbs the duplicate.
    store.extend([record for _key, record in records])
    queue.resolve(
        worker,
        [key for key, _record in records],
        [(key, f.error, f.kind) for key, f in failures],
    )
    return len(records), len(failures), calls


def run_worker(
    queue_path: str | Path,
    store_path: str | Path,
    worker_id: str | None = None,
    lease_size: int = 8,
    poll_s: float = 0.2,
    drain: bool = False,
    idle_timeout_s: float | None = None,
    fault_plan: FaultPlan | None = None,
    store_backend: str = "auto",
    fsync_every: int = 0,
    netlists: dict[str, Netlist] | None = None,
) -> dict:
    """Claim, evaluate and resolve leases until the queue winds down.

    Args:
        queue_path: the :class:`~repro.service.queue.LeaseQueue` file.
        store_path: the shared result store; must resolve to the SQLite
            backend (concurrent writers need WAL + upserts).
        worker_id: queue-visible identity; default ``host-pid``.
        lease_size: max tasks per claim (one synthesis stage each).
        poll_s: idle sleep between empty claims.
        drain: exit as soon as nothing is left to resolve, even while
            the queue is still ``open`` (one-shot helpers and tests).
            Failed tasks stay failed: a drain evaluates each pending
            task once.
        idle_timeout_s: give up after this much continuous idleness
            (``None`` = wait for the queue to close).
        fault_plan: deterministic chaos (``repro worker
            --inject-faults``); crash faults kill this process outright,
            exercising the dead-worker path for real.
        store_backend: forwarded to :func:`~repro.dse.store.open_store`.
        fsync_every: forwarded to :func:`~repro.dse.store.open_store`.
        netlists: circuit name -> netlist used instead of loading by
            name (a coordinator's forked workers inherit its in-memory
            netlists this way); other circuits load from the lease's
            source path or the roster.

    Returns:
        ``{"worker", "n_done", "n_failed", "n_leases"}`` totals.

    Raises:
        TypeError: when ``lease_size`` is not an ``int``.
        ValueError: when ``store_path`` does not resolve to SQLite, or
            ``lease_size``, ``poll_s`` or ``idle_timeout_s`` is out of
            range (checked before the store or queue is touched).
    """
    check_count("lease_size", lease_size, 1)
    check_duration("poll_s", poll_s)
    if idle_timeout_s is not None:
        check_duration("idle_timeout_s", idle_timeout_s, allow_zero=True)
    store = open_store(
        store_path, backend=store_backend, fsync_every=fsync_every
    )
    if not isinstance(store, SqliteResultStore):
        raise ValueError(
            f"service workers require the SQLite store backend; "
            f"{store_path} resolved to {type(store).__name__}"
        )
    queue = LeaseQueue(queue_path)
    worker = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    queue.register_worker(worker, os.getpid())
    netlists = dict(netlists or {})
    n_done = n_failed = n_leases = 0
    idle_since: float | None = None
    try:
        while True:
            ran = run_lease(
                queue, store, worker, lease_size, netlists, fault_plan
            )
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
            if (
                idle_timeout_s is not None
                and now - idle_since >= idle_timeout_s
            ):
                break
            time.sleep(poll_s)
    finally:
        queue.worker_exited(worker)
        queue.close()
        store.close()
    return {
        "worker": worker,
        "n_done": n_done,
        "n_failed": n_failed,
        "n_leases": n_leases,
    }
