"""Sweep-as-a-service: queue-backed sharding plus a read-only view.

The in-process :class:`~repro.dse.engine.SweepEngine` tops out at one
host's process pool; this package shards the same work across plain
worker *processes* coordinated through a SQLite-backed lease queue:

* :class:`~repro.service.queue.LeaseQueue` — the durable work queue
  (leases, heartbeats, expiry + reclaim-on-death, the retry taxonomy
  and backoff of :mod:`repro.dse.resilience` applied per lease);
* :func:`~repro.service.worker.run_worker` — the worker loop behind
  ``repro worker``, pulling leases and evaluating them through the
  exact batch path the engine uses;
* :class:`~repro.service.coordinator.SweepCoordinator` — shards one
  :class:`~repro.dse.request.SweepRequest` (grid or generational) into
  the queue, tends/respawns workers, and returns the same
  :class:`~repro.dse.engine.SweepResult` the engine would;
* :class:`~repro.service.view.SweepViewServer` — a read-only HTTP JSON
  view (``/stats``, ``/fronts``, ``/failures``, ``/workers``) over a
  live or finished store.

Everything is stdlib-only: the queue colocates with the SQLite result
store (WAL admits concurrent writers), so a distributed sweep needs no
infrastructure beyond one shared file path.
"""

from repro.service.coordinator import SweepCoordinator
from repro.service.queue import LeaseQueue, LeaseTask
from repro.service.view import SweepViewServer
from repro.service.worker import run_worker

__all__ = [
    "LeaseQueue",
    "LeaseTask",
    "SweepCoordinator",
    "SweepViewServer",
    "run_worker",
]
