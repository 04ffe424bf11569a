"""SQLite/WAL result store: the indexed backend for large sweeps.

Same :class:`~repro.dse.store.ResultStore` contract as the JSONL
reference backend, different scaling behavior: resume keys, counts
and per-(scenario, circuit) group queries are index reads instead of
full-file scans, and a batch write is one transaction instead of N
line writes.

Durability parity with the JSONL torn-tail guarantees (docs/store.md
has the full matrix):

* the database runs in **WAL mode** — a SIGKILL mid-append rolls the
  tail of the write-ahead log back to the last committed transaction,
  the structural analogue of JSONL's "torn final line is skipped";
* ``fsync_every>=1`` maps to ``synchronous=FULL`` (every commit is
  fsynced before ``extend`` returns); the default 0 maps to
  ``synchronous=NORMAL``, WAL's standard setting, where a power cut may
  lose the most recent commits but never corrupts the database;
* every write is a **new row**: ``INSERT OR REPLACE`` on the resume key
  deletes the key's old row and appends the new one with the next
  rowid, so the re-evaluation a crash forces replaces rather than
  duplicates — JSONL's "last record per key wins" compaction rule,
  enforced at write time — and rowid order is write order, which is
  what lets :meth:`SqliteResultStore.records_after` follow writers;
* a ``busy_timeout`` makes concurrent openers (a `repro store stats`
  against a live sweep) wait instead of failing.

The schema is versioned via :data:`~repro.dse.store.STORE_SCHEMA_VERSION`;
opening a database written by a newer layout raises instead of
misreading it.
"""

from __future__ import annotations

import json
import sqlite3
import time
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.faults import FaultPlan

from repro.dse.explorer import ExplorationRecord
from repro.dse.store import (
    STORE_SCHEMA_VERSION,
    record_from_dict,
    record_to_dict,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    point_key TEXT PRIMARY KEY,
    scenario TEXT NOT NULL,
    circuit TEXT NOT NULL,
    pdp_js REAL NOT NULL,
    reexec_energy_j REAL NOT NULL,
    data TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_group
    ON records (scenario, circuit, point_key);
"""

# REPLACE deletes the key's old row and inserts a fresh one, which
# SQLite numbers max(rowid) + 1 even when the old row was the newest.
_WRITE = """
INSERT OR REPLACE INTO records
    (point_key, scenario, circuit, pdp_js, reexec_energy_j, data)
VALUES (?, ?, ?, ?, ?, ?)
"""


def encode_key(key: tuple) -> str:
    """Resume key -> canonical JSON text (floats round-trip via repr)."""
    return json.dumps(list(key))


def decode_key(text: str) -> tuple:
    """Inverse of :func:`encode_key`."""
    return tuple(json.loads(text))


def enable_wal(conn: sqlite3.Connection, busy_timeout_s: float) -> None:
    """Set the busy timeout, then switch ``conn`` to WAL journaling.

    Several processes or threads may open one fresh file at once (a
    coordinator and its workers do).  The timeout goes first so every
    later statement waits out a concurrent opener's lock; the WAL
    switch itself can still report ``database is locked`` without
    waiting, so it is retried until the same timeout runs out.
    """
    conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
    deadline = time.monotonic() + busy_timeout_s
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def _row(record: ExplorationRecord) -> tuple:
    """:data:`_WRITE` parameters for one record."""
    return (
        encode_key(record.key()),
        record.scenario.label(),
        record.circuit,
        record.pdp_js,
        record.reexec_energy_j,
        json.dumps(record_to_dict(record), sort_keys=True),
    )


class SqliteResultStore:
    """Indexed, transactional result store on a single SQLite file.

    Args:
        path: database file (created, with schema, on open).
        fsync_every: 0 (default) runs ``synchronous=NORMAL`` — commits
            may be lost to a power cut until the next WAL sync; any
            value >= 1 runs ``synchronous=FULL`` so every append is
            durable when it returns.  The same knob as the JSONL
            backend, collapsed to SQLite's two meaningful positions.
        fault_plan: optional chaos plan; a matching ``corrupt`` fault
            drops that record's write before commit, simulating a power
            cut whose transaction never landed (the WAL analogue of a
            torn JSONL line — resume re-evaluates exactly that point).
        busy_timeout_s: how long concurrent openers wait on a locked
            database before erroring.

    Raises:
        ValueError: for a negative ``fsync_every`` or a database
            written under a newer schema version.
    """

    def __init__(
        self,
        path: str | Path,
        fsync_every: int = 0,
        fault_plan: "FaultPlan | None" = None,
        busy_timeout_s: float = 5.0,
    ) -> None:
        if fsync_every < 0:
            raise ValueError("fsync_every must be >= 0")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.fault_plan = fault_plan
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        enable_wal(self._conn, busy_timeout_s)
        self._conn.execute(
            "PRAGMA synchronous="
            + ("FULL" if fsync_every >= 1 else "NORMAL")
        )
        with self._conn:
            self._conn.executescript(_SCHEMA)
            # Insert-if-absent, then read back: a read-then-insert races
            # a concurrent first opener into a UNIQUE violation.
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO NOTHING",
                ("schema_version", json.dumps(STORE_SCHEMA_VERSION)),
            )
            stored = json.loads(
                self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()[0]
            )
            if stored > STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path} was written under store schema "
                    f"{stored}; this build reads up to "
                    f"{STORE_SCHEMA_VERSION}"
                )

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    # -- writes ---------------------------------------------------------

    def extend(self, records: list[ExplorationRecord]) -> None:
        """Write a batch of records in a single transaction."""
        if self.fault_plan is not None:
            from repro.dse.faults import key_text

            # Simulated power cut: a corrupted record's transaction
            # never commits.  WAL recovery discards it wholesale, so —
            # unlike a torn JSONL line — there is nothing to skip on
            # reload; resume just re-evaluates the point.
            records = [
                r for r in records
                if not self.fault_plan.corrupt_append(key_text(r.key()))
            ]
        if records:
            with self._conn:
                self._conn.executemany(_WRITE, map(_row, records))

    def rewrite(self, records: list[ExplorationRecord]) -> None:
        """Replace the whole record set in one transaction.

        Bypasses fault injection, like the JSONL backend's atomic
        rewrite: a rewrite models compaction/migration, not the
        crash-prone streaming write path.  Row numbering restarts, so
        a :meth:`records_after` cursor taken before it is stale.
        """
        with self._conn:
            self._conn.execute("DELETE FROM records")
            self._conn.executemany(_WRITE, map(_row, records))

    def compact(self) -> int:
        """Checkpoint the WAL back into the main database file.

        A write replaces its key's row, so unlike JSONL compaction
        there are never stale rows to drop — this reclaims the
        write-ahead log instead.  Returns 0.
        """
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return 0

    # -- reads ----------------------------------------------------------

    def load(self) -> list[ExplorationRecord]:
        """Every record, in write order (a re-written key comes last)."""
        return [
            record_from_dict(json.loads(row[0]))
            for row in self._conn.execute(
                "SELECT data FROM records ORDER BY rowid"
            )
        ]

    def keys(self) -> set[tuple]:
        """Resume keys via an index-only scan — no record JSON touched."""
        return {
            decode_key(row[0])
            for row in self._conn.execute("SELECT point_key FROM records")
        }

    def count(self) -> int:
        """Number of records (SQL count, no rows materialized)."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM records"
        ).fetchone()[0]

    def last_rowid(self) -> int:
        """The newest row's rowid (0 when empty): a cursor at "now"."""
        return self._conn.execute(
            "SELECT COALESCE(MAX(rowid), 0) FROM records"
        ).fetchone()[0]

    def records_after(self, rowid: int) -> tuple[list[ExplorationRecord], int]:
        """Records written after row ``rowid``, and the new cursor.

        A cursor for a reader following writers in other processes:
        every write is a new row, so a key written again after the
        cursor comes back again, with its newest data.
        """
        rows = self._conn.execute(
            "SELECT rowid, data FROM records WHERE rowid > ? ORDER BY rowid",
            (rowid,),
        ).fetchall()
        if not rows:
            return [], rowid
        records = [record_from_dict(json.loads(data)) for _id, data in rows]
        return records, rows[-1][0]

    def iter_records(
        self, scenario: str | None = None, circuit: str | None = None
    ) -> Iterator[ExplorationRecord]:
        """Stream records matching the indexed group filters."""
        clauses, params = [], []
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        if circuit is not None:
            clauses.append("circuit = ?")
            params.append(circuit)
        query = "SELECT data FROM records"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY rowid"
        for row in self._conn.execute(query, params):
            yield record_from_dict(json.loads(row[0]))

    # -- metadata -------------------------------------------------------

    def get_metadata(self) -> dict:
        """The meta table as a dict (JSON-decoded values)."""
        return {
            row[0]: json.loads(row[1])
            for row in self._conn.execute("SELECT key, value FROM meta")
        }

    def set_metadata(self, **entries: object) -> None:
        """Merge ``entries`` into the meta table in one transaction."""
        with self._conn:
            self._conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                [(k, json.dumps(v, sort_keys=True)) for k, v in entries.items()],
            )
