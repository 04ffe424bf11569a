"""The coordinator that shards one SweepRequest across worker processes.

:class:`SweepCoordinator` is the distributed twin of
:meth:`repro.dse.engine.SweepEngine.submit`: same
:class:`~repro.dse.request.SweepRequest` in, same
:class:`~repro.dse.engine.SweepResult` out, planned by the same
:func:`repro.dse.planner.plan_and_run`.  Only the evaluation differs.
The planner hands the coordinator each generation's pending tasks (a
grid is one generation), which it enqueues on a
:class:`~repro.service.queue.LeaseQueue` inside the shared SQLite
store; workers claim stage-batch leases and resolve each one in a
single transaction that writes its records and marks its tasks done,
and the coordinator polls the queue down to zero, reading each record
once as it is written.  Workers — and their process-global synthesis
caches — stay alive across a search's generations.

:meth:`SweepCoordinator.session` is that executor on its own, and the
only parallel path there is: ``SweepEngine(workers>1)`` runs it on a
private queue file.  Local workers are forked from the submitting
process (:func:`~repro.service.worker.run_worker` with the submitter's
netlists and fault plan as objects); ``repro worker`` processes on
other hosts join the same queue by path.

Every poll also tends the local fleet: a worker that exited non-zero
has its leases failed ``transient`` at once, a live worker holding an
expired lease is a straggler and is killed, both are replaced up to a
respawn budget, and once no local worker is left the submitter drains
the rest in its own process.  The executor evaluates each task once;
which failures run again is the planner's decision, the same retry loop
the in-process engine uses.  Determinism carries through: point
evaluation is pure, and only a lease's holder can resolve it, so each
key is written at most once per enqueue — the final record set is
bit-identical to a single-process run of the same request, however
leases interleave or workers die (``tests/test_paths.py`` pins this).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import socket
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.dse.engine import (
    _PROCESS_CACHES,
    SweepFailure,
    SweepResult,
    SweepStats,
    _Task,
    _TaskKey,
)
from repro.dse.explorer import ExplorationRecord, SynthesisCache
from repro.dse.planner import Execute, plan_and_run
from repro.dse.request import SweepRequest
from repro.dse.resilience import ResilienceConfig, check_count, check_duration
from repro.dse.sqlite_store import SqliteResultStore
from repro.dse.store import open_store
from repro.service.queue import LeaseQueue, idle_waits
from repro.service.worker import run_lease, run_worker

#: Numbers the local workers this process forks: ``host-pid-wN``.
_WORKER_NUMBERS = itertools.count()

#: Receives each poll's newly stored records, keyed (see ``session``).
Commit = Callable[[list[tuple[_TaskKey, ExplorationRecord]]], None]


def _forked_worker(**kwargs) -> None:
    """A local worker's entry point: cold synthesis caches, then the loop.

    A fork inherits whatever its parent left in the process-global
    caches; a worker starts cold, like one started on another host.
    """
    _PROCESS_CACHES.clear()
    run_worker(**kwargs)


class _Fleet:
    """One session's local worker processes, forked from the submitter.

    Forks happen on the submitting thread only, between queue
    transactions: at session start, and when :meth:`reap` replaces a
    dead worker.
    """

    def __init__(
        self, size: int, respawns: int, queue: LeaseQueue, **worker_kwargs
    ) -> None:
        self.queue = queue
        self.respawns_left = respawns
        self.worker_kwargs = worker_kwargs
        self.procs: dict[str, multiprocessing.process.BaseProcess] = {}
        for _ in range(size):
            self.fork()

    def fork(self) -> None:
        number = next(_WORKER_NUMBERS)
        worker = f"{socket.gethostname()}-{os.getpid()}-w{number}"
        proc = multiprocessing.get_context("fork").Process(
            target=_forked_worker,
            kwargs={**self.worker_kwargs, "worker_id": worker},
            daemon=True,
        )
        proc.start()
        # Registered here as well, so the next poll already knows it.
        self.queue.register_worker(worker, proc.pid)
        self.procs[worker] = proc

    def reap(self) -> list[str]:
        """Forget exited workers and replace the dead within budget.

        Returns the workers that exited non-zero (crashed, or killed as
        stragglers), whose leases the caller releases.  A clean exit
        only follows a closed queue and is not replaced.
        """
        dead = []
        for worker, proc in list(self.procs.items()):
            if proc.exitcode is None:
                continue
            del self.procs[worker]
            if proc.exitcode != 0:
                dead.append(worker)
                if self.respawns_left > 0:
                    self.respawns_left -= 1
                    self.fork()
        return dead

    def kill_stragglers(self) -> int:
        """Kill live workers the queue presumed dead; return how many.

        The queue presumes a worker dead when a lease it holds expires
        (or its heartbeat goes stale), so a live one is hung or too
        slow: its lease is already back in the queue.
        """
        presumed = {
            entry["worker"]
            for entry in self.queue.workers()
            if entry["status"] == "dead"
        }
        stragglers = [
            proc
            for worker, proc in self.procs.items()
            if worker in presumed and proc.exitcode is None
        ]
        for proc in stragglers:
            proc.kill()
            proc.join()
        return len(stragglers)

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Wait for the workers to see the closed queue; kill holdouts."""
        deadline = time.monotonic() + timeout_s
        for proc in self.procs.values():
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        self.procs = {}


class SweepCoordinator:
    """Shards :class:`SweepRequest` s over queue-fed worker processes.

    Args:
        store_path: the shared result store, which also holds the lease
            queue; must resolve to the SQLite backend (WAL admits the
            concurrent writers).
        workers: local worker processes to fork per session.  0 forks
            none — external workers (``repro worker``) pointed at the
            same queue/store do the evaluating (multi-host mode, and
            what the in-process service tests use).
        lease_size: max tasks per worker claim.
        lease_timeout_s: lease lifetime; must exceed the worst-case
            wall time of one lease, since workers heartbeat *between*
            leases (see docs/service.md).  A local worker still
            holding an expired lease is killed.
        poll_s: supervision interval, and the longest idle wait of
            the local workers and of the coordinator between two
            supervision passes (see
            :func:`~repro.service.queue.idle_waits`).
        max_respawns: replacement local workers allowed per session
            after deaths and straggler kills.
        resilience: the planner's retry policy (``resilience.retry``)
            and the fault plan handed to the forked workers.
        base_config: synthesis defaults, identical to the engine's;
            persisted in the queue, which is where workers read it.
        store_backend: forwarded to :func:`~repro.dse.store.open_store`.
        http_port: when not ``None``, serve the read-only
            :class:`~repro.service.view.SweepViewServer` on this port
            for the duration of :meth:`submit` (0 = ephemeral port),
            from a process of its own.
    """

    def __init__(
        self,
        store_path: str | Path,
        workers: int = 2,
        lease_size: int = 8,
        lease_timeout_s: float = 60.0,
        poll_s: float = 0.2,
        max_respawns: int = 4,
        resilience: ResilienceConfig | None = None,
        base_config: DiacConfig | None = None,
        store_backend: str = "auto",
        http_port: int | None = None,
    ) -> None:
        check_count("workers", workers, 0)
        check_count("lease_size", lease_size, 1)
        check_count("max_respawns", max_respawns, 0)
        check_duration("lease_timeout_s", lease_timeout_s)
        check_duration("poll_s", poll_s)
        self.store_path = Path(store_path)
        self.workers = workers
        self.lease_size = lease_size
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.max_respawns = max_respawns
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.base_config = base_config
        self.store_backend = store_backend
        self.http_port = http_port

    def submit(
        self,
        request: SweepRequest,
        netlists: dict[str, Netlist] | None = None,
        sources: dict[str, str] | None = None,
    ) -> SweepResult:
        """Execute one request across the worker fleet.

        Mirrors :meth:`SweepEngine.submit
        <repro.dse.engine.SweepEngine.submit>`: both plan through
        :func:`repro.dse.planner.plan_and_run`, so the result carries the
        engine's records in the engine's order (spec order for grids,
        first-proposal order for searches), read back from the shared
        store.

        Args:
            request: what to explore and how.  Strategy *instances* are
                rejected — only named strategies describe work a
                ``repro worker`` on another host could join.
            netlists: circuit name -> netlist mapping used by the
                coordinator itself (static pruning, search screeners)
                and handed to its forked workers.
            sources: circuit name -> netlist file path for non-roster
                circuits, forwarded through the queue payloads so
                external workers can load them (roster names need no
                entry).

        Returns:
            A :class:`~repro.dse.engine.SweepResult` over the shared
            store's records.

        Raises:
            ValueError: for a strategy instance, or a store path that
                does not resolve to the SQLite backend.
        """
        if request.strategy_name is None:
            raise ValueError(
                "the coordinator needs a named strategy; strategy "
                "instances cannot cross process boundaries"
            )
        store = open_store(self.store_path, backend=self.store_backend)
        if not isinstance(store, SqliteResultStore):
            raise ValueError(
                f"the sweep service requires the SQLite store backend; "
                f"{self.store_path} resolved to {type(store).__name__}"
            )
        stats = SweepStats(workers=self.workers)
        netlists = dict(netlists or {})
        caches: dict[str, SynthesisCache] = {}
        try:
            with self.session(
                stats, store, netlists=netlists, sources=sources,
                caches=caches,
            ) as execute:
                return plan_and_run(
                    request,
                    execute,
                    stats,
                    store=store,
                    base_config=self.base_config,
                    netlists=netlists,
                    caches=caches,
                    retry=self.resilience.retry,
                )
        finally:
            store.close()

    @contextmanager
    def session(
        self,
        stats: SweepStats,
        store: SqliteResultStore,
        netlists: dict[str, Netlist] | None = None,
        sources: dict[str, str] | None = None,
        caches: dict[str, SynthesisCache] | None = None,
        commit: Commit | None = None,
    ) -> Iterator[Execute]:
        """Open the queue, fork the local fleet, yield the executor.

        The yielded :data:`~repro.dse.planner.Execute` enqueues one
        round of tasks, polls the queue down to zero while tending the
        fleet, and returns that round's records and failures.  When the
        session ends the queue closes, the fleet winds down and the view
        process (``http_port``) stops.

        Args:
            stats: receives the execution counters — ``n_batches``
                (stage groups enqueued), ``n_timeouts`` (stragglers
                killed) and ``wait_s`` (time spent waiting on the
                queue).
            store: the SQLite store at ``store_path``, which holds the
                queue and receives the records as leases resolve.
            netlists: circuit name -> netlist, handed to the forked
                workers and to an in-process drain.
            sources: circuit name -> netlist file path for non-roster
                circuits, carried in the queue payloads.
            caches: the synthesis-cache map of an in-process drain
                (the planner counts the stages built on it).
            commit: called on each poll that finds new records, with
                those records, so the caller can stream them on.
        """
        queue = LeaseQueue(self.store_path, lease_timeout_s=self.lease_timeout_s)
        netlists = netlists if netlists is not None else {}
        caches = caches if caches is not None else {}
        inline = f"{socket.gethostname()}-{os.getpid()}-inline"
        fleet: _Fleet | None = None
        view: multiprocessing.process.BaseProcess | None = None
        cursor = store.last_rowid()
        # Every record written this session: a key is written once per
        # enqueue, and only by the lease that marks its task done.
        streamed: dict[_TaskKey, ExplorationRecord] = {}

        def execute(tasks: list[_Task]) -> tuple[
            dict[_TaskKey, ExplorationRecord], dict[_TaskKey, SweepFailure]
        ]:
            """Enqueue, poll the queue down to zero, collect.

            Waiting on :meth:`~repro.service.queue.LeaseQueue.unfinished`
            is exact because the queue holds only this round's tasks and
            resolved ones: the session cleared it, and every earlier
            round was resolved before this one came.  Each poll reaps
            dead local workers (failing their leases, replacing them
            within budget), reclaims expired leases, kills stragglers
            and reads the records written since the last poll; once the
            fleet is gone for good, this process runs one lease per poll
            itself.  Between two polls, ``poll_s`` apart,
            :meth:`_await_drain` waits on the queue.
            """
            nonlocal cursor
            stats.n_batches += len(
                {(circuit, point.policy) for _k, circuit, _s, point in tasks}
            )
            queue.enqueue(tasks, sources=sources)
            failed: list[dict] = []
            while True:
                queue.reclaim_expired(dead=fleet.reap() if fleet else ())
                if fleet is not None:
                    # Killed here, reaped (and replaced) next poll; its
                    # lease failed when the queue marked it dead.
                    stats.n_timeouts += fleet.kill_stragglers()
                # A task's record commits with its done mark, so once
                # the queue is seen drained the read below finds every
                # record of this round.
                drained = queue.unfinished() == 0
                if drained:
                    failed = queue.failures()
                records, cursor = store.records_after(cursor)
                fresh = [(record.key(), record) for record in records]
                streamed.update(fresh)
                if commit is not None and fresh:
                    commit(fresh)
                if drained:
                    break
                if fleet is not None and not fleet.procs:
                    if run_lease(
                        queue, inline, self.lease_size, netlists,
                        self.resilience.fault_plan, caches,
                    ) is not None:
                        continue
                stats.wait_s += self._await_drain(queue)
            wanted = {key for key, *_rest in tasks}
            failures = {
                tuple(entry["key"]): SweepFailure(
                    circuit=entry["circuit"],
                    label=entry["label"],
                    error=entry["error"],
                    scenario=entry["scenario"],
                    kind=entry["kind"],
                )
                for entry in failed
                if tuple(entry["key"]) in wanted
            }
            return {
                key: streamed[key]
                for key, *_rest in tasks
                if key not in failures
            }, failures

        try:
            queue.configure(
                lease_timeout_s=self.lease_timeout_s,
                base_config=self.base_config or DiacConfig(),
            )
            queue.clear_tasks()
            queue.set_state("open")
            if self.workers:
                fleet = _Fleet(
                    self.workers, self.max_respawns, queue,
                    path=self.store_path,
                    lease_size=self.lease_size,
                    poll_s=self.poll_s,
                    fault_plan=self.resilience.fault_plan,
                    netlists=netlists,
                )
            if self.http_port is not None:
                view = self._fork_view()
            yield execute
        finally:
            if view is not None:
                view.kill()
                view.join()
            queue.set_state("closed")
            if fleet is not None:
                fleet.shutdown()
            queue.close()

    def _await_drain(self, queue: LeaseQueue) -> float:
        """Wait up to ``poll_s`` for the round to drain; return the seconds.

        The sleeps follow :func:`~repro.service.queue.idle_waits`, cut
        to ``poll_s`` in total, and each but the last is followed by
        one indexed :meth:`~repro.service.queue.LeaseQueue.unfinished`
        read, so no write transaction runs between two polls and a
        drained round goes to its final poll at once.
        """
        start = time.perf_counter()
        left = self.poll_s
        for wait in idle_waits(self.poll_s):
            time.sleep(min(wait, left))
            left -= wait
            if left <= 0 or queue.unfinished() == 0:
                break
        return time.perf_counter() - start

    def _fork_view(self) -> multiprocessing.process.BaseProcess:
        """Serve the read-only view from a process of its own.

        The socket is bound here, so a bad port fails the session, and
        then handed to the forked server.  This process keeps no server
        thread: a worker forked later cannot inherit a lock one held.
        """
        from repro.service.view import SweepViewServer

        server = SweepViewServer(self.store_path, port=self.http_port or 0)
        proc = multiprocessing.get_context("fork").Process(
            target=server.serve_forever, daemon=True
        )
        proc.start()
        server.server_close()
        return proc
