"""Sweep-as-a-service: queue-backed sharding plus a read-only view.

This package shards sweep work across plain worker *processes*, forked
locally or started on other hosts, coordinated through a SQLite-backed
lease queue; it is also the only parallel path of the in-process
:class:`~repro.dse.engine.SweepEngine`:

* :class:`~repro.service.queue.LeaseQueue` — the durable work queue
  (leases, heartbeats, expiry + reclaim-on-death; each task runs once
  per enqueue, and the planner decides what is enqueued again);
* :func:`~repro.service.worker.run_worker` — the worker loop behind
  ``repro worker`` and every forked local worker, pulling leases and
  evaluating them through the exact batch path the engine uses;
* :class:`~repro.service.coordinator.SweepCoordinator` — shards one
  :class:`~repro.dse.request.SweepRequest` (grid or generational) into
  the queue, forks and tends its local workers, and returns the same
  :class:`~repro.dse.engine.SweepResult` the engine would; its
  ``session`` is the executor ``SweepEngine(workers>1)`` runs;
* :class:`~repro.service.view.SweepViewServer` — a read-only HTTP JSON
  view (``/stats``, ``/fronts``, ``/failures``, ``/workers``) over a
  live or finished store; import it from :mod:`repro.service.view`, so
  the engine's parallel path does not load ``http.server``.

Everything is stdlib-only: the queue colocates with the SQLite result
store (WAL admits concurrent writers), so a distributed sweep needs no
infrastructure beyond one shared file path.
"""

from repro.service.coordinator import SweepCoordinator
from repro.service.queue import LeaseQueue, LeaseTask
from repro.service.worker import run_worker

__all__ = [
    "LeaseQueue",
    "LeaseTask",
    "SweepCoordinator",
    "run_worker",
]
