"""Tests for the sweep service: request API, queue, workers, view.

The load-bearing guarantee is *bit-identical distribution*: a sweep
sharded across worker processes through the
:class:`~repro.service.queue.LeaseQueue` — including one whose worker
is killed mid-lease — produces exactly the records a single-process
:meth:`~repro.dse.engine.SweepEngine.submit` of the same request
would.  Everything else (lease lifecycle, retry taxonomy, the HTTP
view) exists to make that guarantee operable.
"""

from __future__ import annotations

import json
import re
import sqlite3
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.core import DiacConfig
from repro.dse import (
    SweepEngine,
    SweepRequest,
    SweepSpec,
    dump_config,
    load_config_file,
    merge_config,
    open_store,
    record_to_dict,
    request_from_config,
    request_to_config,
)
from repro.dse.engine import SweepStats, expand_tasks
from repro.dse.store import config_to_dict
from repro.dse.faults import FaultPlan
from repro.dse.resilience import (
    TERMINAL,
    TRANSIENT,
    ResilienceConfig,
    RetryPolicy,
)
from repro.dse.strategies import RandomStrategy
from repro.service import LeaseQueue, SweepCoordinator, run_worker
from repro.service import coordinator as coordinator_module
from repro.service import worker as worker_module
from repro.service.view import SweepViewServer
from repro.tech import RERAM

SPEC = SweepSpec(
    circuits=("s27",),
    policies=(1, 2, 3),
    budget_scales=(0.5, 1.0),
    safe_zones=(True,),
)

#: A non-default base config whose records differ from the defaults':
#: at this budget s27 gets barriers, placed differently on the
#: level-granularity tree.
OTHER_BASE = DiacConfig(granularity="level", budget_j=1e-15)

FAST_RETRY = RetryPolicy(
    max_attempts=2, backoff_base_s=0.01, backoff_max_s=0.02
)


class _AfterBegin:
    """A connection proxy that runs ``hook`` once, right after the first
    ``BEGIN IMMEDIATE`` it executes — inside the transaction, before any
    of its writes."""

    def __init__(self, conn, hook):
        self._conn = conn
        self._hook = hook
        self.fired = False

    def execute(self, sql, *args):
        cursor = self._conn.execute(sql, *args)
        if not self.fired and sql == "BEGIN IMMEDIATE":
            self.fired = True
            self._hook()
        return cursor

    def __getattr__(self, name):
        return getattr(self._conn, name)


class _FailAfterRecordWrite:
    """A connection proxy that raises on the first ``executemany`` after
    the one writing records — inside the transaction, once the records
    are in place."""

    def __init__(self, conn):
        self._conn = conn
        self.wrote = False

    def executemany(self, sql, rows):
        if self.wrote:
            (n_records,) = self._conn.execute(
                "SELECT COUNT(*) FROM records"
            ).fetchone()
            assert n_records == 1  # the insert landed, uncommitted
            raise RuntimeError("power cut inside resolve")
        cursor = self._conn.executemany(sql, rows)
        self.wrote = "INTO records" in sql
        return cursor

    def __getattr__(self, name):
        return getattr(self._conn, name)


def fingerprints(records):
    return sorted(
        json.dumps(record_to_dict(r), sort_keys=True) for r in records
    )


@pytest.fixture(scope="module")
def reference():
    """The single-process ground truth every service run must match."""
    return SweepEngine(workers=1).submit(SweepRequest(spec=SPEC))


@pytest.fixture(scope="module")
def record_of(reference):
    """Task key -> its reference record, for resolving leases by hand."""
    return {record.key(): record for record in reference.records}


# ---------------------------------------------------------------------------
# SweepRequest: the one submission API.
# ---------------------------------------------------------------------------

#: (keyword, bad value, expected error).  Each was accepted once and
#: either failed deep inside a strategy or silently changed the run
#: (``resume="no"`` is truthy).
BAD_REQUEST_KNOBS = [
    ("samples", 0, ValueError),
    ("generations", 0, ValueError),
    ("samples", 2.5, TypeError),
    ("samples", True, TypeError),
    ("generations", 2.0, TypeError),
    ("max_generations", float("nan"), TypeError),
    ("search_seed", 1.5, TypeError),
    ("search_seed", True, TypeError),
    ("resume", "no", TypeError),
    ("resume", 1, TypeError),
    ("analysis_prune", 1, TypeError),
]


class TestSweepRequest:
    def test_defaults_are_grid(self):
        request = SweepRequest()
        assert request.strategy_name == "grid"
        assert not request.resume and not request.analysis_prune

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SweepRequest(strategy="annealing")

    @pytest.mark.parametrize(
        "key, value, error",
        BAD_REQUEST_KNOBS,
        ids=[f"{k}={v!r}" for k, v, _e in BAD_REQUEST_KNOBS],
    )
    def test_bad_knobs_rejected(self, key, value, error):
        with pytest.raises(error, match=key):
            SweepRequest(**{key: value})

    def test_analysis_prune_gated_to_prunable_strategies(self):
        SweepRequest(strategy="halving", analysis_prune=True)
        with pytest.raises(ValueError, match="analysis_prune"):
            SweepRequest(strategy="random", analysis_prune=True)

    def test_instance_max_generations_is_exact(self):
        space_request = SweepRequest(
            strategy=RandomStrategy.__new__(RandomStrategy),
            max_generations=3,
        )
        assert space_request.effective_max_generations() == 3
        named = SweepRequest(strategy="evolution", generations=70)
        assert named.effective_max_generations() == 70


# ---------------------------------------------------------------------------
# Config round-trip: TOML file <-> SweepRequest.
# ---------------------------------------------------------------------------


class TestSweepConfig:
    def test_round_trip(self, tmp_path):
        request = SweepRequest(
            spec=SPEC, strategy="halving", samples=8, generations=2
        )
        path = tmp_path / "sweep.toml"
        path.write_text(dump_config(request_to_config(request)))
        merged = merge_config(load_config_file(path), {})
        assert request_from_config(merged) == request

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(dump_config(request_to_config(SweepRequest(spec=SPEC))))
        merged = merge_config(
            load_config_file(path),
            {"space": {"policies": [3]}, "search": {"strategy": "random"}},
        )
        request = request_from_config(merged)
        assert request.spec.policies == (3,)
        assert request.strategy_name == "random"
        assert request.spec.budget_scales == SPEC.budget_scales  # from file

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown config section"):
            merge_config({"spaces": {}}, {})
        with pytest.raises(ValueError, match="unknown config key"):
            merge_config({"space": {"polices": [1]}}, {})

    def test_strategy_instance_has_no_file_form(self):
        request = SweepRequest(
            strategy=RandomStrategy.__new__(RandomStrategy)
        )
        with pytest.raises(ValueError, match="instance"):
            request_to_config(request)


# ---------------------------------------------------------------------------
# LeaseQueue lifecycle.
# ---------------------------------------------------------------------------


class TestLeaseQueue:
    def make_queue(self, tmp_path, **kwargs):
        return LeaseQueue(tmp_path / "queue.sqlite", **kwargs)

    @staticmethod
    def row(queue):
        return queue._conn.execute(
            "SELECT status, worker, kind FROM svc_tasks"
        ).fetchone()

    @staticmethod
    def record_rows(queue):
        return queue._conn.execute(
            "SELECT COUNT(*), MAX(rowid) FROM records"
        ).fetchone()

    def test_claims_batch_by_stage(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC))
        lease = queue.claim("w1", limit=8)
        # 6 tasks over 3 stages (policy groups): one claim = one stage.
        assert len(lease) == 2
        assert {t.point.policy for t in lease} == {lease[0].point.policy}
        other = queue.claim("w2", limit=8)
        assert {t.key for t in other}.isdisjoint({t.key for t in lease})
        queue.close()

    def test_complete_is_idempotent(self, tmp_path, record_of):
        """A second report of a resolved lease writes no second row."""
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC))
        task = queue.claim("w1", limit=1)[0]
        queue.resolve("w1", [(task.key, record_of[task.key])])
        first = self.record_rows(queue)
        assert first[0] == 1
        queue.resolve("w1", [(task.key, record_of[task.key])])
        assert self.record_rows(queue) == first
        assert queue.stats()["done"] == 1
        queue.close()

    def test_resolve_commits_records_and_marks_together(
        self, tmp_path, record_of
    ):
        """An error inside resolve's transaction, after the record
        insert, leaves neither the record nor the done mark."""
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC)[:1])
        queue.register_worker("w1", 0)
        task = queue.claim("w1", limit=1)[0]
        conn = queue._conn
        queue._conn = _FailAfterRecordWrite(conn)
        with pytest.raises(RuntimeError, match="power cut"):
            queue.resolve("w1", [(task.key, record_of[task.key])])
        assert queue._conn.wrote
        queue._conn = conn
        assert self.record_rows(queue) == (0, None)
        assert self.row(queue) == ("leased", "w1", None)
        assert queue.workers()[0]["n_done"] == 0
        queue.close()

    def test_transient_failure_waits_for_enqueue(self, tmp_path):
        """The queue never retries: only an enqueue makes a task pending."""
        queue = self.make_queue(tmp_path)
        tasks = expand_tasks(SPEC)[:1]
        queue.enqueue(tasks)
        task = queue.claim("w1", limit=1)[0]
        queue.resolve("w1", [], [(task.key, "flaky", TRANSIENT)])
        assert queue.stats()["failed"] == 1
        assert queue.claim("w1", limit=1) == []
        queue.enqueue(tasks)  # the planner's retry
        assert queue.failures() == []
        assert queue.claim("w1", limit=1)[0].key == task.key
        queue.close()

    def test_terminal_failure_never_retries(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC)[:1])
        task = queue.claim("w1", limit=1)[0]
        queue.resolve("w1", [], [(task.key, "infeasible margin", TERMINAL)])
        (entry,) = queue.failures()
        assert entry["kind"] == TERMINAL
        assert entry["circuit"] == "s27"
        queue.close()

    def test_expired_lease_reclaimed_for_next_claimer(self, tmp_path):
        queue = self.make_queue(tmp_path, lease_timeout_s=0.05)
        tasks = expand_tasks(SPEC)[:1]
        queue.enqueue(tasks)
        task = queue.claim("dying-worker", limit=1)[0]
        assert queue.claim("w2", limit=1) == []  # still leased
        time.sleep(0.1)
        assert queue.reclaim_expired() == 1
        assert self.row(queue) == ("failed", "dying-worker", TRANSIENT)
        (entry,) = queue.failures()
        assert "presumed dead" in entry["error"]
        queue.enqueue(tasks)  # the planner's retry
        assert queue.claim("w2", limit=1)[0].key == task.key
        queue.close()

    def test_claim_reclaims_expired_leases_itself(self, tmp_path):
        """No separate ``reclaim_expired`` call: the claim recovers it."""
        queue = self.make_queue(tmp_path, lease_timeout_s=0.05)
        queue.enqueue(expand_tasks(SPEC)[:1])
        queue.claim("dying-worker", limit=1)
        time.sleep(0.1)
        assert queue.claim("w2", limit=1) == []
        assert self.row(queue) == ("failed", "dying-worker", TRANSIENT)
        assert queue.reclaim_expired() == 0
        queue.close()

    def test_dead_worker_leases_released_at_once(self, tmp_path):
        """A reaped worker's lease fails without waiting out expiry."""
        queue = self.make_queue(tmp_path, lease_timeout_s=60.0)
        queue.enqueue(expand_tasks(SPEC)[:2])
        queue.register_worker("crashed", 1)
        crashed = queue.claim("crashed", limit=1)[0]
        kept = queue.claim("alive", limit=1)[0]
        assert queue.reclaim_expired(dead=["crashed"]) == 1
        (entry,) = queue.failures()
        assert tuple(entry["key"]) == crashed.key != kept.key
        assert entry["kind"] == TRANSIENT
        assert entry["error"] == "worker crashed exited mid-lease"
        assert queue.stats()["leased"] == 1  # the live worker's lease
        assert {w["worker"]: w["status"] for w in queue.workers()} == {
            "crashed": "dead"
        }
        queue.close()

    def test_resolve_moves_worker_counters_and_last_seen(
        self, tmp_path, record_of
    ):
        queue = self.make_queue(tmp_path)
        spec = SweepSpec(circuits=("s27",), policies=(1,), safe_zones=(True,))
        queue.enqueue(expand_tasks(spec))
        queue.register_worker("w1", 0)
        (before,) = queue.workers()
        first, second, third = queue.claim("w1", limit=8)
        time.sleep(0.01)
        queue.resolve(
            "w1",
            [(task.key, record_of[task.key]) for task in (first, second)],
            [(third.key, "boom", TERMINAL)],
        )
        (after,) = queue.workers()
        assert (after["n_done"], after["n_failed"]) == (2, 1)
        assert after["last_seen"] > before["last_seen"]
        assert queue.stats()["done"] == 2
        assert queue.stats()["failed"] == 1
        queue.close()

    @pytest.mark.parametrize("kind", [TRANSIENT, TERMINAL])
    def test_stale_fail_leaves_a_reclaimed_lease_alone(
        self, tmp_path, kind, record_of
    ):
        """A failure or a completion reported after a reclaim and
        re-claim is a no-op: no record row, no mark, no counter."""
        queue = self.make_queue(tmp_path)
        tasks = expand_tasks(SPEC)[:1]
        queue.enqueue(tasks)
        for worker in ("stale", "fresh"):
            queue.register_worker(worker, 0)
        task = queue.claim("stale", limit=1)[0]
        queue._conn.execute("UPDATE svc_tasks SET lease_deadline = 0")
        assert queue.reclaim_expired() == 1
        queue.enqueue(tasks)  # the planner's retry
        assert queue.claim("fresh", limit=1)[0].key == task.key
        queue.resolve("stale", [], [(task.key, "late report", kind)])
        queue.resolve("stale", [(task.key, record_of[task.key])], [])
        assert self.row(queue) == ("leased", "fresh", None)
        assert self.record_rows(queue) == (0, None)
        assert {
            w["worker"]: (w["n_done"], w["n_failed"]) for w in queue.workers()
        } == {"stale": (0, 0), "fresh": (0, 0)}
        queue.close()

    @pytest.mark.parametrize("kind", [TRANSIENT, TERMINAL])
    def test_resolve_leaves_no_window_between_read_and_write(
        self, tmp_path, kind
    ):
        """``resolve`` writes inside one transaction no writer enters."""
        import sqlite3

        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC)[:1])
        task = queue.claim("w1", limit=1)[0]
        other = self.make_queue(tmp_path, busy_timeout_s=0.05)

        def try_to_reclaim():
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                other.reclaim_expired()

        queue._conn = _AfterBegin(queue._conn, try_to_reclaim)
        queue.resolve("w1", [], [(task.key, "report", kind)])
        assert queue._conn.fired
        assert queue.stats()["failed"] == 1
        other.close()
        queue.close()

    def test_configure_persists_run_semantics(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.configure(lease_timeout_s=7.5)
        queue.close()
        reopened = LeaseQueue(tmp_path / "queue.sqlite")
        assert reopened.lease_timeout_s == 7.5
        assert reopened.state() == "open"
        reopened.set_state("closed")
        assert reopened.state() == "closed"
        reopened.close()

    def test_configure_persists_base_config(self, tmp_path):
        queue = self.make_queue(tmp_path)
        assert queue.base_config is None
        base = DiacConfig(granularity="level", technology=RERAM)
        queue.configure(base_config=base)
        queue.close()
        reopened = LeaseQueue(tmp_path / "queue.sqlite")
        assert reopened.base_config == base
        reopened.close()

    def test_newer_schema_version_refused(self, tmp_path):
        import sqlite3

        queue = self.make_queue(tmp_path)
        queue.close()
        conn = sqlite3.connect(tmp_path / "queue.sqlite")
        conn.execute(
            "UPDATE svc_meta SET value = '99' "
            "WHERE key = 'queue_schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="queue schema 99"):
            LeaseQueue(tmp_path / "queue.sqlite")

    def test_newer_store_schema_refused_before_any_write(self, tmp_path):
        """The queue opens the store's schema first: a store written
        under a newer schema is refused before a queue table exists."""
        import sqlite3

        from repro.dse.sqlite_store import SqliteResultStore

        path = tmp_path / "svc.sqlite"
        SqliteResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        conn.commit()
        with pytest.raises(ValueError, match="store schema 99"):
            LeaseQueue(path)
        tables = {
            name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        conn.close()
        assert tables == {"meta", "records"}

    def test_concurrent_first_open_never_races(self, tmp_path):
        """Stores and queues opening one fresh file at once all succeed.

        A coordinator and its in-process workers do exactly this; a
        read-then-insert schema stamp, or switching to WAL before the
        busy timeout is set, fails some openers.
        """
        from repro.dse.sqlite_store import SqliteResultStore

        for trial in range(20):
            path = tmp_path / f"race-{trial}.sqlite"
            barrier = threading.Barrier(6)
            errors: list[BaseException] = []

            def open_one(index, path=path, barrier=barrier, errors=errors):
                barrier.wait(timeout=30)
                try:
                    opener = SqliteResultStore if index % 2 else LeaseQueue
                    opener(path).close()
                except Exception as error:  # reported on the main thread
                    errors.append(error)

            threads = [
                threading.Thread(target=open_one, args=(index,))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [], f"trial {trial}: {errors!r}"


# ---------------------------------------------------------------------------
# Worker + coordinator: distribution must be invisible in the records.
# ---------------------------------------------------------------------------


class TestWorkerParity:
    def test_drain_worker_matches_engine(self, tmp_path, reference):
        path = tmp_path / "svc.sqlite"
        queue = LeaseQueue(path)
        queue.enqueue(expand_tasks(SPEC))
        queue.close()
        summary = run_worker(path, path, drain=True, poll_s=0.01)
        assert summary["n_done"] == 6
        store = open_store(path)
        assert fingerprints(store.iter_records()) == fingerprints(
            reference.records
        )
        store.close()

    def test_worker_applies_the_config_stored_with_its_tasks(
        self, tmp_path, monkeypatch
    ):
        """A worker started before the coordinator configures the queue
        evaluates the tasks it claims under the configuration stored
        with them, never under defaults it read before they existed."""
        from repro.service.worker import run_lease

        path = tmp_path / "svc.sqlite"
        base = OTHER_BASE
        claim = LeaseQueue.claim

        def coordinator_lands_first(queue, worker, limit=8):
            # The coordinator configures and enqueues from its own
            # connection just before this worker's claim runs.
            coordinator = LeaseQueue(path)
            coordinator.configure(base_config=base)
            coordinator.enqueue(expand_tasks(SPEC))
            coordinator.close()
            monkeypatch.setattr(LeaseQueue, "claim", claim)
            return claim(queue, worker, limit)

        monkeypatch.setattr(LeaseQueue, "claim", coordinator_lands_first)
        queue = LeaseQueue(path)
        try:
            assert run_lease(queue, "w1", 8, {}, caches={})[:2] == (2, 0)
        finally:
            queue.close()
        store = open_store(path)
        stored = list(store.iter_records())
        store.close()
        expected = SweepEngine(workers=1, base_config=base).submit(
            SweepRequest(spec=SPEC)
        )
        assert len(stored) == 2
        assert set(fingerprints(stored)) <= set(fingerprints(expected.records))

    def test_worker_requires_sqlite_store(self, tmp_path):
        with pytest.raises(ValueError, match="SQLite"):
            run_worker(
                tmp_path / "queue.sqlite",
                tmp_path / "results.jsonl",
                drain=True,
            )
        with pytest.raises(ValueError, match="SQLite"):
            run_worker(tmp_path / "results.jsonl", drain=True)
        assert list(tmp_path.iterdir()) == []

    def test_worker_refuses_a_store_apart_from_its_queue(self, tmp_path):
        """Records commit with their lease, so they go to the queue's
        own file; a second path naming another file is refused before
        either file is created."""
        path, other = tmp_path / "svc.sqlite", tmp_path / "other.sqlite"
        with pytest.raises(ValueError, match="another file"):
            run_worker(path, other, drain=True, store_backend="sqlite")
        assert not path.exists() and not other.exists()
        LeaseQueue(path).close()
        alias = tmp_path / "alias.sqlite"
        alias.symlink_to(path)
        assert run_worker(path, alias, drain=True)["n_leases"] == 0

    @pytest.mark.parametrize(
        "knobs, error, match",
        [
            ({"idle_timeout_s": float("nan")}, ValueError, "idle_timeout_s"),
            ({"idle_timeout_s": -1.0}, ValueError, "idle_timeout_s"),
            ({"poll_s": float("nan")}, ValueError, "poll_s"),
            ({"poll_s": 0.0}, ValueError, "poll_s"),
            ({"lease_size": 2.5}, TypeError, "lease_size"),
            ({"lease_size": True}, TypeError, "lease_size"),
            ({"lease_size": 0}, ValueError, "lease_size"),
        ],
    )
    def test_worker_rejects_malformed_knobs_before_opening(
        self, tmp_path, knobs, error, match
    ):
        path = tmp_path / "svc.sqlite"
        with pytest.raises(error, match=match):
            run_worker(path, path, drain=True, **knobs)
        assert not path.exists()  # neither store nor queue was opened

    def test_worker_refuses_a_stale_base_config_before_claiming(
        self, tmp_path
    ):
        path = tmp_path / "svc.sqlite"
        queue = LeaseQueue(path)
        queue.enqueue(expand_tasks(SPEC))
        stale = {**config_to_dict(DiacConfig()), "validate": True}
        queue._meta_set("base_config", stale)
        queue.close()
        with pytest.raises(ValueError, match=r"unknown keys \['validate'\]"):
            run_worker(path, path, drain=True, poll_s=0.01)
        queue = LeaseQueue(path)
        assert queue.stats()["leased"] == 0
        queue.close()

    def test_worker_accepts_zero_idle_timeout(self, tmp_path):
        path = tmp_path / "svc.sqlite"
        LeaseQueue(path).close()
        summary = run_worker(path, path, idle_timeout_s=0.0, poll_s=0.01)
        assert summary["n_leases"] == 0

    @pytest.mark.parametrize("flag", ["--idle-timeout", "--poll"])
    def test_worker_cli_rejects_nan_duration(self, tmp_path, flag):
        from repro.cli import main

        path = str(tmp_path / "svc.sqlite")
        with pytest.raises(SystemExit, match=r"^error: .*must be finite"):
            main(["worker", "--results", path, "--drain", flag, "nan"])


class TestCoordinator:
    def coordinator(self, tmp_path, workers=0, **kwargs):
        kwargs.setdefault("poll_s", 0.02)
        kwargs.setdefault("store_backend", "sqlite")
        kwargs.setdefault("resilience", ResilienceConfig(retry=FAST_RETRY))
        return SweepCoordinator(
            tmp_path / "svc.sqlite", workers=workers, **kwargs
        )

    def run_with_thread_worker(self, coordinator, request, path):
        """workers=0 + an in-process worker thread: fast and portable."""
        worker = threading.Thread(
            target=run_worker,
            args=(path, path),
            kwargs={"poll_s": 0.01, "store_backend": "sqlite"},
            daemon=True,
        )
        worker.start()
        try:
            return coordinator.submit(request)
        finally:
            worker.join(timeout=30)

    def test_grid_parity_across_worker_processes(self, tmp_path, reference):
        coordinator = self.coordinator(tmp_path, workers=2, lease_size=2)
        result = coordinator.submit(SweepRequest(spec=SPEC))
        assert not result.failures
        assert fingerprints(result.records) == fingerprints(
            reference.records
        )

    def test_worker_killed_mid_lease_is_reclaimed(self, tmp_path, reference):
        """A crash fault exits a worker with the lease unresolved.

        The coordinator reaps its own worker and releases the lease at
        once: a long lease timeout costs nothing.
        """
        plan = FaultPlan.parse("crash", tmp_path / "faults")
        coordinator = self.coordinator(
            tmp_path,
            workers=2,
            lease_size=1,
            lease_timeout_s=30.0,
            resilience=ResilienceConfig(retry=FAST_RETRY, fault_plan=plan),
        )
        start = time.monotonic()
        result = coordinator.submit(SweepRequest(spec=SPEC))
        assert time.monotonic() - start < 5.0
        assert not result.failures
        assert result.stats.n_retries >= 1  # the reclaimed lease
        assert fingerprints(result.records) == fingerprints(
            reference.records
        )

    def test_view_thread_never_meets_a_fork(
        self, tmp_path, reference, monkeypatch
    ):
        """The view serves from its own process, so every worker fork —
        the replacement of a crashed worker included — happens in a
        single-threaded coordinator and inherits no lock a view thread
        holds."""
        from repro.service import coordinator as module

        threads_at_fork, views = [], []
        fork, fork_view = module._Fleet.fork, module.SweepCoordinator._fork_view

        def counting_fork(fleet):
            threads_at_fork.append(threading.active_count())
            fork(fleet)

        def recording_fork_view(coordinator):
            views.append(fork_view(coordinator))
            return views[-1]

        monkeypatch.setattr(module._Fleet, "fork", counting_fork)
        monkeypatch.setattr(
            module.SweepCoordinator, "_fork_view", recording_fork_view
        )
        plan = FaultPlan.parse("crash", tmp_path / "faults")
        coordinator = self.coordinator(
            tmp_path,
            workers=1,
            lease_size=1,
            http_port=0,
            resilience=ResilienceConfig(retry=FAST_RETRY, fault_plan=plan),
        )
        result = coordinator.submit(SweepRequest(spec=SPEC))
        assert fingerprints(result.records) == fingerprints(
            reference.records
        )
        assert len(threads_at_fork) >= 2  # the crashed worker's replacement
        assert threads_at_fork == [1] * len(threads_at_fork)
        (view,) = views
        assert view.exitcode is not None  # stopped with the session

    def test_resume_skips_on_disk_records(self, tmp_path, reference):
        path = tmp_path / "svc.sqlite"
        first = self.run_with_thread_worker(
            self.coordinator(tmp_path), SweepRequest(spec=SPEC), path
        )
        assert first.stats.n_evaluated == 6
        assert 0.0 < first.stats.wait_s <= first.stats.wall_s
        again = self.run_with_thread_worker(
            self.coordinator(tmp_path),
            SweepRequest(spec=SPEC, resume=True),
            path,
        )
        assert again.stats.n_resumed == 6
        assert again.stats.n_evaluated == 0
        assert fingerprints(again.records) == fingerprints(
            reference.records
        )

    def test_base_config_reaches_the_workers(self, tmp_path, reference):
        base = OTHER_BASE
        result = self.run_with_thread_worker(
            self.coordinator(tmp_path, base_config=base),
            SweepRequest(spec=SPEC),
            tmp_path / "svc.sqlite",
        )
        expected = SweepEngine(workers=1, base_config=base).submit(
            SweepRequest(spec=SPEC)
        )
        assert not result.failures
        assert fingerprints(result.records) == fingerprints(expected.records)
        assert fingerprints(expected.records) != fingerprints(
            reference.records
        )

    def test_rerun_reads_every_rewritten_key(self, tmp_path):
        """A second run on the same store, without resume, writes every
        key again under another base config.  Each write is a new row
        after the session's cursor, so each record is read back."""
        path = tmp_path / "svc.sqlite"
        first = self.run_with_thread_worker(
            self.coordinator(tmp_path), SweepRequest(spec=SPEC), path
        )
        assert not first.failures
        # The first session closed the queue, and a worker that finds
        # it closed exits at once.
        queue = LeaseQueue(path)
        queue.set_state("open")
        queue.close()
        with pytest.warns(UserWarning, match="not comparable"):
            second = self.run_with_thread_worker(
                self.coordinator(tmp_path, base_config=OTHER_BASE),
                SweepRequest(spec=SPEC),
                path,
            )
        expected = SweepEngine(base_config=OTHER_BASE).submit(
            SweepRequest(spec=SPEC)
        )
        assert not second.failures
        assert fingerprints(second.records) == fingerprints(expected.records)

    @pytest.mark.parametrize("streamed", [False, True], ids=["read-back", "streamed"])
    def test_records_stored_elsewhere_fail_loudly(
        self, tmp_path, reference, streamed
    ):
        """A worker pointed at another store is refused before it
        creates either file, so no record can land apart from the
        coordinator's store: a worker on the queue's own file then
        brings every record there, whether the round reads its records
        back or streams them on."""
        path, other = tmp_path / "svc.sqlite", tmp_path / "other.sqlite"
        with pytest.raises(ValueError, match="another file"):
            run_worker(path, other, poll_s=0.01, store_backend="sqlite")
        assert not path.exists() and not other.exists()
        coordinator = self.coordinator(tmp_path)
        if streamed:
            worker = threading.Thread(
                target=run_worker,
                args=(path, path),
                kwargs={"poll_s": 0.01, "store_backend": "sqlite"},
                daemon=True,
            )
            worker.start()
            store, streamed_records = open_store(path, backend="sqlite"), []
            try:
                with coordinator.session(
                    SweepStats(), store, commit=streamed_records.extend
                ) as execute:
                    by_key, failed = execute(expand_tasks(SPEC))
            finally:
                store.close()
                worker.join(timeout=30)
            records, failures = list(by_key.values()), list(failed.values())
            assert sorted(key for key, _record in streamed_records) == sorted(
                by_key
            )
        else:
            result = self.run_with_thread_worker(
                coordinator, SweepRequest(spec=SPEC), path
            )
            records, failures = result.records, result.failures
        assert not failures
        assert fingerprints(records) == fingerprints(reference.records)
        assert not other.exists()

    def test_strategy_instances_rejected(self, tmp_path):
        coordinator = self.coordinator(tmp_path)
        request = SweepRequest(
            strategy=RandomStrategy.__new__(RandomStrategy)
        )
        with pytest.raises(ValueError, match="named strategy"):
            coordinator.submit(request)

    def test_jsonl_store_rejected(self, tmp_path):
        coordinator = SweepCoordinator(tmp_path / "svc.jsonl", workers=0)
        with pytest.raises(ValueError, match="SQLite"):
            coordinator.submit(SweepRequest(spec=SPEC))


class TestCoordinatorCli:
    def test_batch_timeout_is_engine_only(self, tmp_path):
        from repro.cli import main

        results = str(tmp_path / "svc.sqlite")
        with pytest.raises(SystemExit) as exit_info:
            main(["coordinator", "s27", "--results", results,
                  "--batch-timeout", "3"])
        assert exit_info.value.code == 2  # argparse: unknown option
        config = tmp_path / "sweep.toml"
        config.write_text("[execution]\nbatch_timeout = 3.0\n")
        with pytest.raises(SystemExit, match="--lease-timeout"):
            main(["coordinator", "s27", "--results", results,
                  "--config", str(config)])
        assert not (tmp_path / "svc.sqlite").exists()

    def test_fsync_every_is_engine_only(self, tmp_path):
        from repro.cli import main

        results = str(tmp_path / "svc.sqlite")
        with pytest.raises(SystemExit) as exit_info:
            main(["coordinator", "s27", "--results", results,
                  "--fsync-every", "1"])
        assert exit_info.value.code == 2  # argparse: unknown option
        config = tmp_path / "sweep.toml"
        config.write_text("[store]\nfsync_every = 1\n")
        with pytest.raises(
            SystemExit, match="fsync_every applies to 'sweep' only.*commit "
            "with their lease"
        ):
            main(["coordinator", "s27", "--results", results,
                  "--config", str(config)])
        assert not (tmp_path / "svc.sqlite").exists()

    def test_config_workers_is_engine_only(self, tmp_path):
        from repro.cli import main

        results = str(tmp_path / "svc.sqlite")
        config = tmp_path / "sweep.toml"
        config.write_text("[execution]\nworkers = 4\n")
        with pytest.raises(SystemExit, match="--spawn-workers"):
            main(["coordinator", "s27", "--results", results,
                  "--config", str(config), "--spawn-workers", "1"])
        assert not (tmp_path / "svc.sqlite").exists()

    def test_dumped_config_runs_under_the_coordinator(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        assert main(["sweep", "s27", "--policies", "3", "--budget-scales",
                     "1.0", "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        assert "workers = 1" in dumped
        config = tmp_path / "sweep.toml"
        config.write_text(dumped)
        assert main([
            "coordinator", "--config", str(config), "s27", "--results",
            str(tmp_path / "svc.sqlite"), "--store-backend", "sqlite",
            "--spawn-workers", "1", "--poll", "0.02",
        ]) == 0
        assert "with 1 worker(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "coordinator"])
    @pytest.mark.parametrize("flag", ["--samples", "--generations"])
    def test_search_budgets_checked_before_the_request(self, command, flag):
        from repro.cli import main

        with pytest.raises(SystemExit, match=f"^error: {flag} must be >= 1"):
            main([command, "s27", "--strategy", "random", flag, "0"])

    def test_stats_line_counts_batches_not_remote_synthesis(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        assert main([
            "coordinator", "s27", "--policies", "3", "--results",
            str(tmp_path / "svc.sqlite"), "--spawn-workers", "2",
            "--poll", "0.02",
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"s \(\d+\.\d\d s waiting on the queue\) with 2 worker\(s\); "
            r"1 batches", out
        )
        assert "synthesis runs" not in out


# ---------------------------------------------------------------------------
# Idle waits: one backoff schedule, recorded instead of slept.
# ---------------------------------------------------------------------------

#: A poll interval whose schedule steps are exact binary fractions of it.
POLL = 0.32


def schedule(n):
    """The first ``n`` idle waits at :data:`POLL`."""
    return [min(POLL / 32 * 2**i, POLL) for i in range(n)]


class TestIdleBackoff:
    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "svc.sqlite"
        LeaseQueue(path).close()
        return path

    @staticmethod
    def close_queue(path):
        queue = LeaseQueue(path)
        queue.set_state("closed")
        queue.close()

    def test_worker_waits_double_up_to_poll(self, path, monkeypatch):
        waits = []

        def sleep(seconds):
            waits.append(seconds)
            if len(waits) == 8:
                self.close_queue(path)

        monkeypatch.setattr(worker_module.time, "sleep", sleep)
        assert run_worker(path, poll_s=POLL)["n_leases"] == 0
        assert waits == schedule(8)
        assert waits[-3:] == [POLL] * 3

    def test_claimed_lease_restarts_the_schedule(self, path, monkeypatch):
        waits = []

        def sleep(seconds):
            waits.append(seconds)
            if len(waits) == 3:
                queue = LeaseQueue(path)
                queue.enqueue(expand_tasks(SPEC)[:1])
                queue.close()
            elif len(waits) == 5:
                self.close_queue(path)

        monkeypatch.setattr(worker_module.time, "sleep", sleep)
        assert run_worker(path, poll_s=POLL)["n_leases"] == 1
        assert waits == schedule(3) + schedule(2)

    def test_idle_timeout_counts_from_the_first_empty_claim(
        self, path, monkeypatch
    ):
        """A fake clock advanced only by the recorded sleeps: the
        timeout (2 x poll) ends the worker after the first sleep that
        crosses it, however the waits are split."""
        clock = [1000.0]
        waits = []

        def sleep(seconds):
            waits.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(worker_module.time, "sleep", sleep)
        monkeypatch.setattr(worker_module.time, "time", lambda: clock[0])
        run_worker(path, poll_s=POLL, idle_timeout_s=2 * POLL)
        assert waits == schedule(7)

    @pytest.mark.parametrize(
        "knobs", [{"idle_timeout_s": 0.0}, {"drain": True}],
        ids=["zero-idle-timeout", "drain"],
    )
    def test_worker_exits_without_waiting(self, path, monkeypatch, knobs):
        waits = []
        monkeypatch.setattr(worker_module.time, "sleep", waits.append)
        assert run_worker(path, poll_s=POLL, **knobs)["n_leases"] == 0
        assert waits == []

    def test_coordinator_reads_only_unfinished_between_tends(
        self, path, monkeypatch, reference
    ):
        """Every statement on the coordinator's queue connection, and
        every sleep, in order.  A worker drains the round during the
        8th sleep: the second wait of the round ends there, after
        poll/32 + poll/16, and the final tend follows at once."""
        log = []

        class TracedQueue(LeaseQueue):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._conn.set_trace_callback(log.append)

        def sleep(seconds):
            log.append(seconds)
            if sum(isinstance(entry, float) for entry in log) == 8:
                run_worker(path, drain=True, worker_id="drainer")

        monkeypatch.setattr(coordinator_module, "LeaseQueue", TracedQueue)
        monkeypatch.setattr(coordinator_module.time, "sleep", sleep)
        result = SweepCoordinator(
            path, workers=0, poll_s=POLL, store_backend="sqlite"
        ).submit(SweepRequest(spec=SPEC))
        assert fingerprints(result.records) == fingerprints(
            reference.records
        )
        waits, between = [], []
        for entry in log[next(
            i for i, entry in enumerate(log) if isinstance(entry, float)
        ):]:
            if isinstance(entry, float):
                waits.append(entry)
                between.append([])
            else:
                between[-1].append(entry)
        # Six sleeps of poll_s in total, a tend, then two more.
        assert waits == pytest.approx(schedule(5) + [POLL / 32] + schedule(2))
        assert sum(waits[:6]) == pytest.approx(POLL)
        unfinished = "SELECT COUNT(*) FROM svc_tasks WHERE status IN"
        # Inside a wait: one read of unfinished() per sleep, no writes.
        for statements in between[:5] + between[6:7]:
            assert len(statements) == 1
            assert statements[0].startswith(unfinished)
        # A tend is one write transaction: reclaim_expired.
        assert between[5].count("BEGIN IMMEDIATE") == 1
        # The read that saw 0, then straight to the final tend.
        assert between[7][0].startswith(unfinished)
        assert between[7].count("BEGIN IMMEDIATE") == 1


# ---------------------------------------------------------------------------
# The read-only HTTP view.
# ---------------------------------------------------------------------------


class TestSweepView:
    @pytest.fixture()
    def store_path(self, tmp_path, reference):
        path = tmp_path / "view.sqlite"
        store = open_store(path, backend="sqlite")
        store.extend(reference.records)
        store.close()
        return path

    def get(self, port, endpoint):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{endpoint}", timeout=10
        ) as response:
            return response.status, json.loads(response.read())

    @contextmanager
    def serving(self, server):
        """Serve ``server`` from a thread for the block; yield its port."""
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.port
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_endpoints_agree_with_store(self, store_path, reference):
        with self.serving(SweepViewServer(store_path)) as port:
            status, stats = self.get(port, "/stats")
            assert status == 200
            assert stats["n_records"] == len(reference.records)
            assert stats["groups"] == [
                {"scenario": "paper-fig5", "circuit": "s27", "count": 6}
            ]

            _status, fronts = self.get(port, "/fronts")
            (group,) = fronts["groups"]
            expected = reference.fronts_by_scenario()[("paper-fig5", "s27")]
            assert sorted(
                json.dumps(r, sort_keys=True) for r in group["front"]
            ) == sorted(
                json.dumps(record_to_dict(r), sort_keys=True)
                for r in expected
            )
            best = min(reference.records, key=lambda r: r.pdp_js)
            assert group["best"] == record_to_dict(best)

            _status, failures = self.get(port, "/failures")
            assert failures == {"failures": []}
            _status, workers = self.get(port, "/workers")
            assert workers == {"workers": []}

    def test_unknown_endpoint_404s(self, store_path):
        with self.serving(SweepViewServer(store_path)) as port:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.get(port, "/nope")
            assert excinfo.value.code == 404

    def test_queue_tables_surface(self, store_path, reference):
        queue = LeaseQueue(store_path)
        queue.enqueue(expand_tasks(SPEC)[:2])
        queue.register_worker("w1", 4242)
        task = queue.claim("w1", limit=1)[0]
        queue.resolve("w1", [], [(task.key, "boom", TERMINAL)])
        queue.close()
        with self.serving(SweepViewServer(store_path)) as port:
            _status, stats = self.get(port, "/stats")
            assert stats["n_records"] == len(reference.records)
            assert stats["queue"]["tasks"]["failed"] == 1
            assert stats["queue"]["state"] == "open"
            _status, failures = self.get(port, "/failures")
            assert failures["failures"][0]["error"] == "boom"
            _status, workers = self.get(port, "/workers")
            assert workers["workers"][0]["worker"] == "w1"

    def test_view_never_waits_on_a_writer(self, store_path):
        """The view reads beside another connection's open write
        transaction, well inside the 5 s busy timeout: opening the
        store or the queue of a set-up file writes nothing."""
        queue = LeaseQueue(store_path)
        queue.register_worker("w1", 4242)
        queue.close()
        writer = sqlite3.connect(store_path, isolation_level=None)
        writer.execute("BEGIN IMMEDIATE")
        try:
            with self.serving(SweepViewServer(store_path)) as port:
                start = time.monotonic()
                for endpoint in ("/stats", "/fronts", "/failures", "/workers"):
                    status, payload = self.get(port, endpoint)
                    assert status == 200, payload
                assert time.monotonic() - start < 2.0
                assert payload["workers"][0]["worker"] == "w1"
        finally:
            writer.execute("ROLLBACK")
            writer.close()
