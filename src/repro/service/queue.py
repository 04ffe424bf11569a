"""The SQLite-backed lease queue behind the sweep service.

The queue lives in the SQLite result store's own file (WAL), as three
``svc_``-prefixed tables beside the store's ``records`` and ``meta``, so
a distributed sweep needs exactly one shared path:

* ``svc_tasks`` — one row per evaluation task, keyed by the engine's
  resume key.  Lifecycle: ``pending`` -> ``leased`` (claimed by a
  worker, deadline attached) -> ``done`` | ``failed``.  Each task is
  evaluated once per enqueue: a ``transient`` failure lands in
  ``failed`` like any other, and so does a lease whose worker died or
  hung past its deadline (the next :meth:`LeaseQueue.claim` reclaims
  it; a coordinator that sees its own worker process exit reclaims the
  lease at once with :meth:`LeaseQueue.reclaim_expired`), with kind
  ``transient``.  Only :meth:`LeaseQueue.enqueue` makes a task
  ``pending``: retrying is the planner's decision
  (:func:`repro.dse.planner.execute_with_retries`), and a retry is the
  coordinator enqueueing the task again.
* ``svc_workers`` — registration + heartbeats, feeding the
  ``/workers`` view and dead-worker detection.
* ``svc_meta`` — queue schema version, the lease timeout and synthesis
  base configuration (persisted by the coordinator so every worker
  applies identical semantics), and the ``open``/``closed`` queue state
  that tells idle workers whether more work may still arrive.

Claims batch by *stage* (circuit x policy) — the synthesis-sharing
group of :func:`repro.dse.engine._evaluate_batch` — so a lease is one
warm-cache batch, not a grab-bag of unrelated synthesis runs.  The
lease is also the unit of commit: :meth:`LeaseQueue.claim` (reclaim
included) and :meth:`LeaseQueue.resolve` are one transaction each, and
``resolve`` writes the lease's records in the same transaction as its
``done`` marks, so a task is either done with its record stored or not
done and without one.

Only the lease holder's report counts.  A worker whose lease was
reclaimed reports into nothing: its late records are not written and
its tasks are not marked, so each key is written at most once per
enqueue.
"""

from __future__ import annotations

import json
import sqlite3
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.core.diac import DiacConfig
from repro.dse.explorer import DesignPoint, ExplorationRecord
from repro.dse.resilience import TRANSIENT
from repro.dse.sqlite_store import (
    create_schema,
    decode_key,
    enable_wal,
    encode_key,
    read_or_stamp,
    write_records,
)
from repro.dse.store import (
    config_from_dict,
    config_to_dict,
    point_from_dict,
    point_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.energy.scenarios import ScenarioSpec

#: Queue layout version, independent of the record-store schema; a
#: newer-versioned queue is refused rather than misread.  A version-1
#: file differs only by retry columns this build never reads, so it
#: opens as version 2.
QUEUE_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS svc_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS svc_tasks (
    task_key TEXT PRIMARY KEY,
    stage TEXT NOT NULL,
    payload TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    worker TEXT,
    lease_deadline REAL,
    error TEXT,
    kind TEXT
);
CREATE INDEX IF NOT EXISTS idx_svc_tasks_claim
    ON svc_tasks (status, stage);
CREATE INDEX IF NOT EXISTS idx_svc_tasks_lease
    ON svc_tasks (status, lease_deadline);
CREATE TABLE IF NOT EXISTS svc_workers (
    worker TEXT PRIMARY KEY,
    pid INTEGER,
    started REAL NOT NULL,
    last_seen REAL NOT NULL,
    n_done INTEGER NOT NULL DEFAULT 0,
    n_failed INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT 'active'
);
"""


def idle_waits(longest_s: float) -> Iterator[float]:
    """The idle backoff shared by workers and the coordinator.

    The first wait is ``longest_s / 32``; each one doubles the last,
    up to ``longest_s``, which repeats from then on.  Work that arrives
    just after a waiter goes idle is picked up within a few
    milliseconds, and a long idle spell still polls only once per
    ``longest_s``.
    """
    wait = longest_s / 32
    while True:
        yield wait
        wait = min(2 * wait, longest_s)


@dataclass(frozen=True)
class LeaseTask:
    """One claimed evaluation task, decoded back to engine objects.

    Attributes:
        key: the engine's resume/task key.
        circuit: the sweep's name for the circuit.
        scenario: harvest environment to evaluate under.
        point: the design point.
        source: optional netlist file path for non-roster circuits.
    """

    key: tuple
    circuit: str
    scenario: ScenarioSpec
    point: DesignPoint
    source: str | None


class Lease(list[LeaseTask]):
    """The tasks one :meth:`LeaseQueue.claim` leased, in claim order.

    Attributes:
        base_config: the synthesis base configuration persisted in the
            queue, read in the claim's own transaction, so it is the
            one the coordinator stored before enqueueing these tasks
            (``None``: defaults).
    """

    def __init__(
        self,
        tasks: Iterable[LeaseTask] = (),
        base_config: DiacConfig | None = None,
    ) -> None:
        super().__init__(tasks)
        self.base_config = base_config


class LeaseQueue:
    """Durable lease queue inside a SQLite result store (see module docs).

    Args:
        path: the :class:`~repro.dse.sqlite_store.SqliteResultStore`
            file; its record tables are created here if absent, since
            :meth:`resolve` writes the records.
        lease_timeout_s: fallback lease lifetime, same rule.
        busy_timeout_s: how long concurrent openers wait on a locked
            database before erroring.

    Opening a file that already holds a stamped queue writes nothing,
    so a reader (the view) never waits on a running transaction.

    Raises:
        ValueError: for a file written under a newer store schema or
            queue layout version, before anything is written to it.
    """

    def __init__(
        self,
        path: str | Path,
        lease_timeout_s: float = 60.0,
        busy_timeout_s: float = 5.0,
    ) -> None:
        self.path = Path(path)
        self._lease_timeout_s = lease_timeout_s
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        # Explicit BEGIN IMMEDIATE transactions (claims must serialize
        # across processes), so autocommit between them.
        self._conn.isolation_level = None
        enable_wal(self._conn, busy_timeout_s)
        create_schema(self._conn, self.path)
        self._conn.executescript(_SCHEMA)
        stored = read_or_stamp(
            self._conn, "svc_meta", "queue_schema_version",
            QUEUE_SCHEMA_VERSION,
        )
        if not isinstance(stored, int) or stored > QUEUE_SCHEMA_VERSION:
            raise ValueError(
                f"{self.path} was written under queue schema {stored}; "
                f"this build reads up to {QUEUE_SCHEMA_VERSION}"
            )
        if stored < QUEUE_SCHEMA_VERSION:
            # An older file's extra columns are never read.  Restamped,
            # it is refused by the older builds that would retry tasks
            # on their own.
            self._meta_set("queue_schema_version", QUEUE_SCHEMA_VERSION)

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """One ``BEGIN IMMEDIATE`` transaction: commit, or roll back on error."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    # -- metadata -------------------------------------------------------

    def _meta_get(self, key: str) -> object:
        row = self._conn.execute(
            "SELECT value FROM svc_meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def _meta_set(self, key: str, value: object) -> None:
        self._conn.execute(
            "INSERT INTO svc_meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, json.dumps(value, sort_keys=True)),
        )

    def configure(
        self,
        lease_timeout_s: float | None = None,
        base_config: DiacConfig | None = None,
    ) -> None:
        """Persist run-wide semantics into the queue metadata.

        The coordinator calls this once; every worker that opens the
        queue afterwards applies the *same* lease lifetime and synthesis
        base configuration, however its own constructor was defaulted —
        they are properties of the run, not of whoever happens to claim.
        ``None`` leaves a setting as it is.
        """
        if lease_timeout_s is not None:
            self._meta_set("lease_timeout_s", lease_timeout_s)
        if base_config is not None:
            self._meta_set("base_config", config_to_dict(base_config))

    @property
    def lease_timeout_s(self) -> float:
        """The effective lease lifetime (persisted, else the fallback)."""
        stored = self._meta_get("lease_timeout_s")
        if isinstance(stored, (int, float)):
            return float(stored)
        return self._lease_timeout_s

    @property
    def base_config(self) -> DiacConfig | None:
        """The persisted synthesis base configuration (``None``: defaults)."""
        stored = self._meta_get("base_config")
        return config_from_dict(stored) if isinstance(stored, dict) else None

    def state(self) -> str:
        """``open`` (more work may arrive) or ``closed``."""
        stored = self._meta_get("queue_state")
        return stored if isinstance(stored, str) else "open"

    def set_state(self, state: str) -> None:
        """Flip the queue state idle workers key their exit off.

        Raises:
            ValueError: for anything but ``open``/``closed``.
        """
        if state not in ("open", "closed"):
            raise ValueError(f"queue state must be open or closed, got {state!r}")
        self._meta_set("queue_state", state)

    # -- producing ------------------------------------------------------

    def clear_tasks(self) -> None:
        """Drop every task row (a fresh submission owns the queue)."""
        self._conn.execute("DELETE FROM svc_tasks")

    def enqueue(
        self,
        tasks: list[tuple[tuple, str, ScenarioSpec, DesignPoint]],
        sources: dict[str, str] | None = None,
    ) -> int:
        """Insert evaluation tasks as ``pending`` rows.

        ``tasks`` are the engine's ``(key, circuit, scenario, point)``
        tuples (see :func:`repro.dse.engine.expand_tasks`); ``sources``
        optionally maps non-roster circuit names to netlist file paths
        workers can load.  Re-enqueueing an existing key resets it to
        ``pending`` — the one way a task becomes pending, so an enqueue
        always means "run this once" (a first attempt, or a retry the
        planner decided on).  Returns the number of rows written.
        """
        sources = sources or {}
        rows = []
        for key, circuit, scenario, point in tasks:
            payload = {
                "circuit": circuit,
                "scenario": scenario_to_dict(scenario),
                "point": point_to_dict(point),
            }
            if circuit in sources:
                payload["source"] = sources[circuit]
            rows.append(
                (
                    encode_key(key),
                    f"{circuit}|{point.policy}",
                    json.dumps(payload, sort_keys=True),
                )
            )
        with self._transaction():
            self._conn.executemany(
                "INSERT INTO svc_tasks (task_key, stage, payload) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(task_key) DO UPDATE SET "
                "stage = excluded.stage, payload = excluded.payload, "
                "status = 'pending', "
                "worker = NULL, lease_deadline = NULL, "
                "error = NULL, kind = NULL",
                rows,
            )
        return len(rows)

    # -- claiming and resolving -----------------------------------------

    def _decode_task(self, key_text: str, payload_text: str) -> LeaseTask:
        payload = json.loads(payload_text)
        return LeaseTask(
            key=decode_key(key_text),
            circuit=payload["circuit"],
            scenario=scenario_from_dict(payload["scenario"]),
            point=point_from_dict(payload["point"]),
            source=payload.get("source"),
        )

    def claim(self, worker: str, limit: int = 8) -> Lease:
        """Lease up to ``limit`` tasks of one stage to ``worker``.

        One ``BEGIN IMMEDIATE`` transaction reads the base
        configuration, reclaims expired leases (see
        :meth:`reclaim_expired`), then picks the oldest ``pending``
        stage and leases its oldest ``pending`` tasks together, so a
        lease shares one synthesis run exactly like an engine batch.
        The configuration comes back with the tasks: a coordinator
        stores it before it enqueues, so a task is never seen without
        it.  Returns an empty lease when nothing is claimable right now.

        Raises:
            ValueError: for a stored configuration this build cannot
                read, before any task is leased.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        now = time.time()
        with self._transaction():
            base_config = self.base_config
            self._reclaim(now)
            row = self._conn.execute(
                "SELECT stage FROM svc_tasks "
                "WHERE status = 'pending' ORDER BY rowid LIMIT 1"
            ).fetchone()
            if row is None:
                return Lease(base_config=base_config)
            rows = self._conn.execute(
                "SELECT task_key, payload FROM svc_tasks "
                "WHERE status = 'pending' AND stage = ? "
                "ORDER BY rowid LIMIT ?",
                (row[0], limit),
            ).fetchall()
            deadline = now + self.lease_timeout_s
            self._conn.executemany(
                "UPDATE svc_tasks SET status = 'leased', worker = ?, "
                "lease_deadline = ? WHERE task_key = ?",
                [(worker, deadline, key) for key, _p in rows],
            )
        return Lease(
            (self._decode_task(key, payload) for key, payload in rows),
            base_config,
        )

    def resolve(
        self,
        worker: str,
        done: Iterable[tuple[tuple, ExplorationRecord]],
        failed: Iterable[tuple[tuple, str, str]] = (),
    ) -> None:
        """Resolve one lease's outcomes in one transaction.

        ``done`` holds ``(key, record)`` pairs: each record is written
        to the store's ``records`` table and its task marked ``done``.
        ``failed`` holds ``(key, error, kind)`` entries, each landing in
        ``failed`` whatever its kind — the planner decides what runs
        again.  Only tasks ``worker`` still holds are resolved: a report
        on a task that was reclaimed (or resolved) since writes no
        record and changes no row.  The worker's ``n_done``/``n_failed``
        counters and ``last_seen`` move in the same transaction.
        """
        now = time.time()
        with self._transaction():
            held = {
                row[0]
                for row in self._conn.execute(
                    "SELECT task_key FROM svc_tasks "
                    "WHERE status = 'leased' AND worker = ?",
                    (worker,),
                )
            }
            finished = [
                (encoded, record)
                for key, record in done
                if (encoded := encode_key(key)) in held
            ]
            lost = [
                (error, kind, encoded)
                for key, error, kind in failed
                if (encoded := encode_key(key)) in held
            ]
            write_records(self._conn, (record for _k, record in finished))
            self._conn.executemany(
                "UPDATE svc_tasks SET status = 'done', "
                "lease_deadline = NULL WHERE task_key = ?",
                [(encoded,) for encoded, _record in finished],
            )
            self._conn.executemany(
                "UPDATE svc_tasks SET status = 'failed', "
                "lease_deadline = NULL, error = ?, kind = ? "
                "WHERE task_key = ?",
                lost,
            )
            self._conn.execute(
                "UPDATE svc_workers SET n_done = n_done + ?, "
                "n_failed = n_failed + ?, last_seen = ?, status = 'active' "
                "WHERE worker = ?",
                (len(finished), len(lost), now, worker),
            )

    def reclaim_expired(self, dead: Iterable[str] = ()) -> int:
        """Recover leases whose worker died or hung past its deadline.

        Expired leases land in ``failed`` with kind ``transient`` — a
        crash IS a transient failure in the taxonomy, and the planner
        retries it like any other.  ``dead`` names workers known to have
        exited mid-lease (a coordinator reaping its own processes):
        their leases fail the same way at once, without waiting for the
        deadline.  Holders of expired leases, the ``dead`` workers and
        workers whose heartbeat went stale are marked ``dead``.  Returns
        the number of leases reclaimed.
        :meth:`claim` runs the same reclaim inside its own transaction.
        """
        with self._transaction():
            return self._reclaim(time.time(), tuple(dead))

    def _reclaim(self, now: float, dead: tuple[str, ...] = ()) -> int:
        """:meth:`reclaim_expired`'s body, inside the caller's transaction."""
        query = (
            "SELECT task_key, worker FROM svc_tasks "
            "WHERE status = 'leased' AND (lease_deadline < ?"
        )
        if dead:
            query += f" OR worker IN ({','.join('?' * len(dead))})"
        rows = self._conn.execute(query + ")", (now, *dead)).fetchall()
        self._conn.executemany(
            "UPDATE svc_tasks SET status = 'failed', lease_deadline = NULL, "
            "error = ?, kind = ? WHERE task_key = ?",
            [
                (
                    f"worker {worker} exited mid-lease" if worker in dead
                    else f"lease expired; worker {worker} presumed dead",
                    TRANSIENT,
                    encoded,
                )
                for encoded, worker in rows
            ],
        )
        if rows or dead:
            self._conn.executemany(
                "UPDATE svc_workers SET status = 'dead' WHERE worker = ?",
                [(worker,) for worker in {*dead, *(row[1] for row in rows)}],
            )
        self._conn.execute(
            "UPDATE svc_workers SET status = 'dead' "
            "WHERE status = 'active' AND last_seen < ?",
            (now - self.lease_timeout_s,),
        )
        return len(rows)

    # -- workers --------------------------------------------------------

    def register_worker(self, worker: str, pid: int) -> None:
        """Register (or re-register) one worker as active."""
        now = time.time()
        self._conn.execute(
            "INSERT INTO svc_workers (worker, pid, started, last_seen) "
            "VALUES (?, ?, ?, ?) "
            "ON CONFLICT(worker) DO UPDATE SET pid = excluded.pid, "
            "last_seen = excluded.last_seen, status = 'active'",
            (worker, pid, now, now),
        )

    def heartbeat(self, worker: str) -> None:
        """Refresh ``worker``'s liveness and extend its lease deadlines.

        Idle workers heartbeat between empty claims, and a busy worker's
        :meth:`resolve` refreshes ``last_seen`` after each lease, so
        ``lease_timeout_s`` must cover the worst-case wall time of one
        lease — the deadline is the detector for a worker that died
        *inside* a batch.
        """
        now = time.time()
        self._conn.execute(
            "UPDATE svc_workers SET last_seen = ?, status = 'active' "
            "WHERE worker = ?",
            (now, worker),
        )
        self._conn.execute(
            "UPDATE svc_tasks SET lease_deadline = ? "
            "WHERE status = 'leased' AND worker = ?",
            (now + self.lease_timeout_s, worker),
        )

    def worker_exited(self, worker: str) -> None:
        """Record a clean worker exit."""
        self._conn.execute(
            "UPDATE svc_workers SET status = 'exited', last_seen = ? "
            "WHERE worker = ?",
            (time.time(), worker),
        )

    def workers(self) -> list[dict]:
        """Every registered worker as a JSON-friendly dict."""
        rows = self._conn.execute(
            "SELECT worker, pid, started, last_seen, n_done, n_failed, "
            "status FROM svc_workers ORDER BY started"
        ).fetchall()
        names = (
            "worker", "pid", "started", "last_seen", "n_done",
            "n_failed", "status",
        )
        return [dict(zip(names, row)) for row in rows]

    # -- introspection --------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Task counts by status (absent statuses count 0)."""
        counts = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
        for status, count in self._conn.execute(
            "SELECT status, COUNT(*) FROM svc_tasks GROUP BY status"
        ):
            counts[status] = count
        counts["total"] = sum(counts.values())
        return counts

    def unfinished(self) -> int:
        """Tasks not yet resolved (``pending`` + ``leased``)."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM svc_tasks "
            "WHERE status IN ('pending', 'leased')"
        ).fetchone()[0]

    def failures(self) -> list[dict]:
        """Every ``failed`` task as a JSON-friendly dict.

        Each entry carries the task key (as a list — JSON-friendly),
        circuit, scenario label, point label, error text and taxonomy
        kind — the fields a :class:`~repro.dse.engine.SweepFailure`
        needs, with labels rebuilt from the task payload (the planner,
        not the queue, counts attempts).
        """
        out = []
        for key_text_, payload_text, error, kind in self._conn.execute(
            "SELECT task_key, payload, error, kind "
            "FROM svc_tasks WHERE status = 'failed' ORDER BY rowid"
        ):
            payload = json.loads(payload_text)
            out.append(
                {
                    "key": list(decode_key(key_text_)),
                    "circuit": payload["circuit"],
                    "scenario": scenario_from_dict(
                        payload["scenario"]
                    ).label(),
                    "label": point_from_dict(payload["point"]).label(),
                    "error": error or "",
                    "kind": kind or "unexpected",
                }
            )
        return out
