"""The coordinator that shards one SweepRequest across worker processes.

:class:`SweepCoordinator` is the distributed twin of
:meth:`repro.dse.engine.SweepEngine.submit`: same
:class:`~repro.dse.request.SweepRequest` in, same
:class:`~repro.dse.engine.SweepResult` out, planned by the same
:func:`repro.dse.planner.plan_and_run`.  Only the evaluation differs.
The planner hands the coordinator each generation's pending tasks (a
grid is one generation), which it enqueues on a
:class:`~repro.service.queue.LeaseQueue`; plain worker processes
(``repro worker``) claim stage-batch leases and upsert into the shared
SQLite store, and the coordinator polls the queue down to zero and
reads the records back.  Workers — and their process-global synthesis
caches — stay alive across a search's generations.

The coordinator also tends its fleet: expired leases are reclaimed, dead
worker processes are respawned up to a budget, and when no worker is
left the remaining tasks are failed instead of polling forever.
Determinism carries through: point evaluation is pure, stores upsert
on the engine's resume keys, and lease retries reuse the engine's
taxonomy/backoff — so the final record set is bit-identical to a
single-process run of the same request, however leases interleave or
workers die (``tests/test_paths.py`` pins this).
"""

from __future__ import annotations

import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.dse.engine import (
    SweepFailure,
    SweepResult,
    SweepStats,
    _Task,
    _TaskKey,
)
from repro.dse.explorer import ExplorationRecord
from repro.dse.planner import fetch_records, plan_and_run
from repro.dse.request import SweepRequest
from repro.dse.resilience import ResilienceConfig, check_count, check_duration
from repro.dse.sqlite_store import SqliteResultStore
from repro.dse.store import open_store
from repro.service.queue import LeaseQueue


class SweepCoordinator:
    """Shards :class:`SweepRequest` s over queue-fed worker processes.

    Args:
        store_path: the shared result store; must resolve to the SQLite
            backend (WAL + upserts admit the concurrent writers).
        queue_path: the lease-queue database.  Defaults to
            ``store_path`` — the queue tables are ``svc_``-prefixed, so
            store and queue colocate in one file and a whole
            distributed sweep shares a single path.
        workers: worker processes to spawn (``repro worker``
            subprocesses).  0 spawns none — external workers pointed at
            the same queue/store do the evaluating (multi-host mode,
            and what the in-process service tests use).
        lease_size: max tasks per worker claim.
        lease_timeout_s: lease lifetime; must exceed the worst-case
            wall time of one lease, since workers heartbeat *between*
            leases (see docs/service.md).
        poll_s: coordinator supervision interval.
        max_respawns: replacement workers allowed after deaths.
        resilience: retry policy source (``resilience.retry`` is
            persisted into the queue) and fault plan forwarded to
            spawned workers via ``--inject-faults``/``--fault-dir``.
        base_config: synthesis defaults, identical to the engine's;
            persisted in the queue, which is where workers read it.
        store_backend: forwarded to :func:`~repro.dse.store.open_store`.
        fsync_every: forwarded to :func:`~repro.dse.store.open_store`.
        http_port: when not ``None``, serve the read-only
            :class:`~repro.service.view.SweepViewServer` on this port
            for the duration of :meth:`submit` (0 = ephemeral port).
    """

    def __init__(
        self,
        store_path: str | Path,
        queue_path: str | Path | None = None,
        workers: int = 2,
        lease_size: int = 8,
        lease_timeout_s: float = 60.0,
        poll_s: float = 0.2,
        max_respawns: int = 4,
        resilience: ResilienceConfig | None = None,
        base_config: DiacConfig | None = None,
        store_backend: str = "auto",
        fsync_every: int = 0,
        http_port: int | None = None,
    ) -> None:
        check_count("workers", workers, 0)
        check_count("lease_size", lease_size, 1)
        check_count("max_respawns", max_respawns, 0)
        check_duration("lease_timeout_s", lease_timeout_s)
        check_duration("poll_s", poll_s)
        self.store_path = Path(store_path)
        self.queue_path = (
            Path(queue_path) if queue_path is not None else self.store_path
        )
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
        self.fsync_every = fsync_every
        self.http_port = http_port
        self._procs: list[subprocess.Popen] = []
        self._respawns_left = max_respawns

    # -- worker process management --------------------------------------

    def _worker_argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro", "worker",
            "--queue", str(self.queue_path),
            "--results", str(self.store_path),
            "--store-backend", self.store_backend,
            "--lease-size", str(self.lease_size),
            "--poll", str(self.poll_s),
            "--fsync-every", str(self.fsync_every),
        ]
        plan = self.resilience.fault_plan
        if plan is not None:
            # describe() round-trips through FaultPlan.parse, and the
            # shared state dir keeps trip markers global to the fleet —
            # a crash fault fires once per run, not once per worker.
            argv += [
                "--inject-faults", plan.describe(),
                "--fault-dir", str(plan.state_dir),
            ]
        return argv

    def _spawn_worker(self) -> None:
        import os

        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._procs.append(
            subprocess.Popen(self._worker_argv(), env=env)
        )

    def _tend_workers(self, queue: LeaseQueue) -> bool:
        """Reap dead workers, respawn within budget; False = none left.

        A worker that exited *cleanly* (code 0) is not replaced — clean
        exits only happen when the queue told it to stop.  Spawning no
        workers at all (``workers=0``) always returns True: liveness is
        someone else's job then.
        """
        if self.workers == 0:
            return True
        for proc in list(self._procs):
            code = proc.poll()
            if code is not None and code != 0 and self._respawns_left > 0:
                self._respawns_left -= 1
                queue.reclaim_expired()
                self._spawn_worker()
        self._procs = [p for p in self._procs if p.poll() is None]
        return bool(self._procs)

    def _shutdown_workers(self, timeout_s: float = 30.0) -> None:
        deadline = time.time() + timeout_s
        for proc in self._procs:
            remaining = max(0.1, deadline - time.time())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._procs = []

    # -- submission -----------------------------------------------------

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
                rejected — only named strategies describe work that can
                cross a process boundary.
            netlists: circuit name -> netlist mapping used by the
                coordinator itself (static pruning, search screeners);
                workers load their own copies.
            sources: circuit name -> netlist file path for non-roster
                circuits, forwarded through the queue payloads so
                workers can load them (roster names need no entry).

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
        store = open_store(
            self.store_path,
            backend=self.store_backend,
            fsync_every=self.fsync_every,
        )
        if not isinstance(store, SqliteResultStore):
            raise ValueError(
                f"the sweep service requires the SQLite store backend; "
                f"{self.store_path} resolved to {type(store).__name__}"
            )
        queue = LeaseQueue(
            self.queue_path,
            retry=self.resilience.retry,
            lease_timeout_s=self.lease_timeout_s,
        )
        view = None
        stats = SweepStats(workers=self.workers)
        try:
            queue.configure(
                retry=self.resilience.retry,
                lease_timeout_s=self.lease_timeout_s,
                base_config=self.base_config or DiacConfig(),
            )
            if self.http_port is not None:
                from repro.service.view import SweepViewServer

                view = SweepViewServer(
                    self.store_path,
                    queue_path=self.queue_path,
                    port=self.http_port,
                )
                view.start_background()
            queue.clear_tasks()
            queue.set_state("open")
            for _ in range(self.workers):
                self._spawn_worker()
            execute = partial(
                self._execute,
                queue=queue,
                store=store,
                stats=stats,
                sources=sources,
            )
            return plan_and_run(
                request,
                execute,
                stats,
                store=store,
                base_config=self.base_config,
                netlists=dict(netlists or {}),
            )
        finally:
            if view is not None:
                view.shutdown()
            queue.set_state("closed")
            self._shutdown_workers()
            queue.close()
            store.close()

    def _await_queue(self, queue: LeaseQueue) -> None:
        """Poll until every queued task is resolved (or nobody can).

        Waiting on :meth:`~repro.service.queue.LeaseQueue.unfinished`
        is exact because the queue holds only the current generation's
        tasks and their resolved predecessors: ``submit`` clears it
        first, and every earlier generation was fully resolved before
        the next one was enqueued.

        The supervision loop: reclaim expired leases, respawn dead
        workers within budget, and — when the fleet is gone for good —
        fail the stragglers rather than wait forever.
        """
        while True:
            queue.reclaim_expired()
            if queue.unfinished() == 0:
                return
            if not self._tend_workers(queue):
                queue.reclaim_expired()
                queue.fail_unfinished(
                    "no live workers remain and the respawn budget "
                    f"({self.max_respawns}) is spent"
                )
                return
            time.sleep(self.poll_s)

    def _execute(
        self,
        tasks: list[_Task],
        queue: LeaseQueue,
        store: SqliteResultStore,
        stats: SweepStats,
        sources: dict[str, str] | None,
    ) -> tuple[
        dict[_TaskKey, ExplorationRecord], dict[_TaskKey, SweepFailure]
    ]:
        """The planner's executor: enqueue, await the queue, read back.

        The queue's counters feed the execution stats (claims beyond a
        task's first count as retries).  Only tasks that did not fail
        are read back from the shared store, so a stale on-disk record
        from an earlier run never stands in for a point this run failed.
        """
        if not tasks:
            return {}, {}
        keys = [key for key, *_rest in tasks]
        queue.enqueue(tasks, sources=sources)
        self._await_queue(queue)
        counts = queue.counts_for(keys)
        stats.n_evaluated += counts["n_done"]
        stats.n_failed += counts["n_failed"]
        stats.n_retries += counts["n_retries"]
        wanted = set(keys)
        failures = {
            tuple(entry["key"]): SweepFailure(
                circuit=entry["circuit"],
                label=entry["label"],
                error=entry["error"],
                scenario=entry["scenario"],
                kind=entry["kind"],
                attempts=entry["attempts"],
            )
            for entry in queue.failures()
            if tuple(entry["key"]) in wanted
        }
        done = [task for task in tasks if task[0] not in failures]
        return fetch_records(store, done), failures
