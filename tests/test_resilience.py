"""Tests for fault-tolerant sweep execution.

Covers the failure taxonomy, the deterministic retry policy, the fault
injection harness, crash/hang/transient recovery on every execution
path (serial, forked workers on the lease queue, a search's long-lived
fleet), the recovery ladder down to the in-process drain, and the
crash-safe result store.

The recurring assertion is *recovery parity*: a seeded fault plan run
must finish with the exact record set of its fault-free twin.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.cli import main
from repro.dse import (
    DesignSpace,
    FaultPlan,
    FaultSpec,
    JsonlResultStore,
    make_strategy,
    open_store,
    ResilienceConfig,
    RetryPolicy,
    SweepEngine,
    SweepRequest,
    SweepSpec,
    TransientEvalError,
    WorkerCrashError,
)
from repro.dse.faults import InjectedTransientError
from repro.dse.resilience import (
    TERMINAL,
    TRANSIENT,
    UNEXPECTED,
    classify,
    describe_error,
)
from repro.sim.intermittent import TraceTooWeakError
from repro.suite import load_circuit


def fingerprint(record):
    return (
        record.circuit,
        record.scenario.label(),
        record.point.label(),
        record.pdp_js,
        record.energy_j,
        record.n_backups,
    )


def fingerprints(result):
    return sorted(fingerprint(r) for r in result.records)


#: Small two-point spec every recovery test sweeps.
RES_SPEC = SweepSpec(
    circuits=("s27",),
    policies=(3,),
    budget_scales=(0.5, 1.0),
    safe_zones=(True,),
)

#: Fast backoff so chaos tests spend milliseconds, not seconds, waiting.
FAST_RETRY = RetryPolicy(
    max_attempts=4, backoff_base_s=0.005, backoff_max_s=0.02
)


@pytest.fixture(scope="module")
def netlists():
    return {"s27": load_circuit("s27")}


@pytest.fixture(scope="module")
def clean_fingerprints(netlists):
    """The fault-free truth the recovery tests must reproduce exactly."""
    return fingerprints(SweepEngine(workers=1).submit(
        SweepRequest(spec=RES_SPEC),
        netlists=netlists
    ))


def plan(tmp_path, text):
    return FaultPlan.parse(text, tmp_path / "faults")


def die_once_before_resolving(tmp_path, monkeypatch):
    """Make the first forked worker to finish a lease exit before it
    resolves the lease, after storing its records; returns the marker
    file that worker leaves."""
    from repro.service.queue import LeaseQueue

    parent = os.getpid()
    marker = tmp_path / "died-before-resolve"
    resolve = LeaseQueue.resolve

    def die_once(queue, *args, **kwargs):
        if os.getpid() != parent:
            try:
                marker.touch(exist_ok=False)
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return resolve(queue, *args, **kwargs)

    monkeypatch.setattr(LeaseQueue, "resolve", die_once)
    return marker


def engine(workers, fault_plan=None, **cfg):
    cfg.setdefault("retry", FAST_RETRY)
    return SweepEngine(
        workers=workers,
        resilience=ResilienceConfig(fault_plan=fault_plan, **cfg),
    )


class TestTaxonomy:
    def test_classify_kinds(self):
        assert classify(TransientEvalError("x")) == TRANSIENT
        assert classify(WorkerCrashError("x")) == TRANSIENT
        assert classify(MemoryError()) == TRANSIENT
        assert classify(TraceTooWeakError("weak")) == TERMINAL
        assert classify(ValueError("bad")) == TERMINAL
        assert classify(RuntimeError("bug")) == UNEXPECTED

    def test_transient_wins_over_runtime_error(self):
        # TransientEvalError IS a RuntimeError; it must not classify
        # as unexpected.
        assert issubclass(TransientEvalError, RuntimeError)
        assert classify(InjectedTransientError("x")) == TRANSIENT

    def test_describe_error_tags_unexpected_with_type(self):
        assert describe_error(ValueError("margin too wide")) == (
            "margin too wide"
        )
        assert describe_error(RuntimeError("bug")) == "RuntimeError: bug"
        assert describe_error(RuntimeError()) == "RuntimeError"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay_s(0)
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=nan)
        with pytest.raises(ValueError, match="backoff_base_s"):
            RetryPolicy(backoff_base_s=nan)
        with pytest.raises(ValueError, match="backoff_max_s"):
            RetryPolicy(backoff_max_s=inf)
        for bad in (2.5, True, "2"):
            with pytest.raises(TypeError, match="max_attempts"):
                RetryPolicy(max_attempts=bad)
        # A NaN deadline never fires (SQLite stores it as NULL).
        for bad in (nan, inf, -inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="batch_timeout_s"):
                ResilienceConfig(batch_timeout_s=bad)
        assert ResilienceConfig(batch_timeout_s=30.0).batch_timeout_s == 30.0
        assert RetryPolicy(backoff_base_s=0.0).delay_s(1) == 0.0

    def test_delay_is_deterministic_and_seeded(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_s(1, "task") == policy.delay_s(1, "task")
        assert policy.delay_s(1, "task") != policy.delay_s(2, "task")
        assert policy.delay_s(1, "task") != policy.delay_s(1, "other")
        assert policy.delay_s(1, "task") != RetryPolicy(seed=8).delay_s(
            1, "task"
        )

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3,
            jitter=0.0,
        )
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(5) == pytest.approx(0.3)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.25)
        for token in ("a", "b", "c", "d"):
            delay = policy.delay_s(1, token)
            assert 0.075 <= delay <= 0.125

    @pytest.mark.parametrize(
        "kind, attempt, retries",
        [
            (TERMINAL, 1, False),
            ("unexpected", 1, False),
            (TRANSIENT, 3, False),
            (TRANSIENT, 1, True),
            (TRANSIENT, 2, True),
        ],
    )
    def test_retry_delay_is_the_one_retry_decision(self, kind, attempt, retries):
        policy = RetryPolicy(max_attempts=3, seed=5)
        expected = policy.delay_s(attempt, "task") if retries else None
        assert policy.retry_delay_s(kind, attempt, "task") == expected


#: (constructor, keyword, bad value, expected error).  A NaN lease
#: deadline binds as SQLite NULL and could never be reclaimed.
BAD_KNOBS = [
    ("engine", "workers", 2.5, TypeError),
    ("engine", "workers", True, TypeError),
    ("coordinator", "workers", 1.0, TypeError),
    ("coordinator", "lease_size", 2.5, TypeError),
    ("coordinator", "lease_size", False, TypeError),
    ("coordinator", "max_respawns", 1.5, TypeError),
    ("coordinator", "max_respawns", -1, ValueError),
    ("coordinator", "lease_timeout_s", float("nan"), ValueError),
    ("coordinator", "lease_timeout_s", float("inf"), ValueError),
    ("coordinator", "poll_s", float("nan"), ValueError),
]


@pytest.mark.parametrize(
    "target, key, value, error",
    BAD_KNOBS,
    ids=[f"{t}-{k}={v!r}" for t, k, v, _e in BAD_KNOBS],
)
def test_engine_and_coordinator_reject_bad_knobs(target, key, value, error):
    from repro.service import SweepCoordinator

    kwargs = {key: value}
    with pytest.raises(error, match=key):
        if target == "engine":
            SweepEngine(**kwargs)
        else:
            SweepCoordinator("unused.sqlite", **{"workers": 0, **kwargs})


class TestFaultSpecParse:
    def test_forms(self):
        assert FaultSpec.parse("crash") == FaultSpec("crash")
        assert FaultSpec.parse("hang(2.5)@b02") == FaultSpec(
            "hang", match="b02", hang_s=2.5
        )
        assert FaultSpec.parse("transientx2@s27") == FaultSpec(
            "transient", match="s27", times=2
        )
        assert FaultSpec.parse("corrupt@P3") == FaultSpec(
            "corrupt", match="P3"
        )

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultSpec.parse("explode")
        with pytest.raises(ValueError, match="only hang"):
            FaultSpec.parse("crash(2.0)")
        with pytest.raises(ValueError, match="times"):
            FaultSpec("crash", times=0)
        with pytest.raises(ValueError, match="empty"):
            FaultPlan.parse(" ; ", "unused")

    def test_plan_describe_round_trips(self, tmp_path):
        text = "crash; hang(2.5)@b02; transientx2@s27"
        assert plan(tmp_path, text).describe() == (
            "crash; hang(2.5)@b02; transientx2@s27"
        )

    def test_trips_are_bounded_and_shared(self, tmp_path):
        fp = plan(tmp_path, "transientx2")
        for _ in range(2):
            with pytest.raises(InjectedTransientError):
                fp.fire("anything", allow_exit=False)
        fp.fire("anything", allow_exit=False)  # disarmed: no raise
        # A second plan over the same state dir sees the spent trips.
        again = FaultPlan.parse("transientx2", tmp_path / "faults")
        again.fire("anything", allow_exit=False)

    def test_match_predicate_addresses_tasks(self, tmp_path):
        fp = plan(tmp_path, "transientx9@b02")
        fp.fire("s27|paper-fig5|...", allow_exit=False)  # no match
        with pytest.raises(InjectedTransientError):
            fp.fire("b02|paper-fig5|...", allow_exit=False)

    def test_crash_without_exit_raises(self, tmp_path):
        with pytest.raises(WorkerCrashError):
            plan(tmp_path, "crash").fire("x", allow_exit=False)


class TestSerialRecovery:
    def test_transient_retries_exactly_n_times(
        self, tmp_path, netlists, clean_fingerprints
    ):
        result = engine(1, plan(tmp_path, "transientx2")).submit(
            SweepRequest(spec=RES_SPEC),
            netlists=netlists
        )
        assert result.stats.n_retries == 2
        assert result.stats.n_failed == 0
        assert fingerprints(result) == clean_fingerprints

    def test_crash_fault_is_survivable_in_process(
        self, tmp_path, netlists, clean_fingerprints
    ):
        result = engine(1, plan(tmp_path, "crash")).submit(
            SweepRequest(spec=RES_SPEC),
            netlists=netlists
        )
        assert result.stats.n_retries == 1
        assert fingerprints(result) == clean_fingerprints

    def test_transient_exhaustion_fails_with_attempt_count(
        self, tmp_path, netlists
    ):
        result = engine(1, plan(tmp_path, "transientx99")).submit(
            SweepRequest(spec=RES_SPEC),
            netlists=netlists
        )
        assert result.stats.n_failed == 2
        for failure in result.failures:
            assert failure.kind == TRANSIENT
            assert failure.attempts == FAST_RETRY.max_attempts

    def test_terminal_failure_fails_fast_once(self, netlists):
        spec = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,), safe_margin_scales=(15.0,),
        )
        result = engine(1).submit(SweepRequest(spec=spec), netlists=netlists)
        assert result.stats.n_retries == 0
        assert result.stats.n_failed == 1
        assert result.failures[0].kind == TERMINAL
        assert result.failures[0].attempts == 1

    def test_unexpected_exception_becomes_failure(
        self, netlists, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise ArithmeticError("synthesizer bug")

        # evaluate_point runs prepare_point first, so patching it breaks
        # every point evaluation before the executor is reached.
        monkeypatch.setattr("repro.dse.explorer.prepare_point", explode)
        result = engine(1).submit(
            SweepRequest(spec=RES_SPEC),
            netlists=netlists
        )
        assert result.stats.n_retries == 0
        assert result.stats.n_failed == 2
        for failure in result.failures:
            assert failure.kind == UNEXPECTED
            assert "ArithmeticError" in failure.error

    def test_transient_tasks_run_exactly_max_attempts(
        self, netlists, monkeypatch
    ):
        # Every transient task gets exactly max_attempts tries, however
        # many tasks the serial sweep holds.
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args[1])
            raise TransientEvalError("flaky")

        monkeypatch.setattr("repro.dse.explorer.prepare_point", flaky)
        spec = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(0.5, 1.0),
            safe_zones=(True, False),
        )
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0)
        result = SweepEngine(
            workers=1, resilience=ResilienceConfig(retry=policy)
        ).submit(SweepRequest(spec=spec), netlists=netlists)
        n_tasks = len(spec)
        assert n_tasks == 4
        assert len(calls) == n_tasks * policy.max_attempts
        for _circuit, _scenario, point in spec.points():
            assert calls.count(point) == policy.max_attempts
        assert result.stats.n_retries == n_tasks * (policy.max_attempts - 1)
        assert result.stats.n_failed == n_tasks
        for failure in result.failures:
            assert failure.kind == TRANSIENT
            assert failure.attempts == policy.max_attempts

    def test_single_attempt_policy_never_retries(self, tmp_path, netlists):
        fault_plan = plan(tmp_path, "transientx1")
        result = SweepEngine(
            workers=1,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),
                fault_plan=fault_plan,
            ),
        ).submit(SweepRequest(spec=RES_SPEC), netlists=netlists)
        assert result.stats.n_retries == 0
        assert result.stats.n_failed == 1


class TestParallelRecovery:
    """Forked workers on the engine's private lease queue."""

    def test_crash_and_transients_recover_to_parity(
        self, tmp_path, netlists, clean_fingerprints
    ):
        result = engine(2, plan(tmp_path, "crash;transientx2")).submit(
            SweepRequest(spec=RES_SPEC),
            netlists=netlists
        )
        assert result.stats.n_failed == 0
        # The crash loses the whole-stage lease (both tasks claimed
        # again); each transient costs its task one more claim.
        assert result.stats.n_retries == 4
        assert result.stats.n_timeouts == 0
        assert fingerprints(result) == clean_fingerprints

    def test_hang_trips_batch_deadline(
        self, tmp_path, netlists, clean_fingerprints
    ):
        result = engine(
            2, plan(tmp_path, "hang(15)"), batch_timeout_s=0.5
        ).submit(SweepRequest(spec=RES_SPEC), netlists=netlists)
        assert result.stats.n_timeouts == 1
        assert result.stats.n_failed == 0
        assert result.stats.wall_s < 10  # the hung worker was killed
        assert fingerprints(result) == clean_fingerprints

    def test_repeated_deaths_degrade_to_serial(
        self, tmp_path, netlists, clean_fingerprints
    ):
        # Ten crashes outlast two workers and four respawns; the rest
        # is drained in this process, where crash faults raise.
        result = engine(
            2,
            plan(tmp_path, "crashx10"),
            retry=RetryPolicy(
                max_attempts=12, backoff_base_s=0.001, backoff_max_s=0.005
            ),
        ).submit(SweepRequest(spec=RES_SPEC), netlists=netlists)
        assert result.stats.synthesize_calls >= 1  # drained in-process
        assert result.stats.n_failed == 0
        assert fingerprints(result) == clean_fingerprints

    def test_deadline_starts_at_dispatch(self, tmp_path):
        # Nine single-job stage leases, each slowed to 0.25 s by a
        # hang that never overruns: far inside the 0.7 s deadline, but
        # five waves on two workers.  A lease's deadline starts when a
        # worker claims it, so waiting in the queue costs nothing.
        spec = SweepSpec(
            circuits=("s27", "b02", "s298"),
            budget_scales=(1.0,),
            safe_zones=(True,),
        )
        result = engine(
            2, plan(tmp_path, "hang(0.25)x9"), batch_timeout_s=0.7
        ).submit(SweepRequest(spec=spec))
        assert result.stats.n_batches == 9
        assert result.stats.n_timeouts == 0
        assert result.stats.n_retries == 0
        assert result.stats.n_failed == 0

    def test_degrading_keeps_retry_budget(self, tmp_path, netlists):
        # Six tries kill two workers and their four replacements; the
        # in-process drain continues the same budget, so the task gets
        # exactly max_attempts tries in all, each a tripped crash fault.
        spec = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,),
        )
        result = engine(
            2,
            plan(tmp_path, "crashx99"),
            retry=RetryPolicy(max_attempts=8, backoff_base_s=0),
        ).submit(SweepRequest(spec=spec), netlists=netlists)
        # Only six processes could die, so two trips raised in-process.
        assert len(list((tmp_path / "faults").glob("fault-0-*"))) == 8
        [failure] = result.failures
        assert failure.kind == TRANSIENT
        assert failure.attempts == 8

    def test_record_stored_before_a_failed_lease_is_returned(
        self, tmp_path, netlists, clean_fingerprints, monkeypatch
    ):
        # The first worker to finish a lease stores its records and dies
        # before resolving it, so the lease fails transient.  The retry
        # round re-stores the same keys, each write a new row after the
        # session's cursor, so the stream reads them again.
        marker = die_once_before_resolving(tmp_path, monkeypatch)
        result = engine(2).submit(SweepRequest(spec=RES_SPEC), netlists=netlists)
        assert marker.exists()
        assert result.stats.n_retries == 2  # the whole-stage lease
        assert result.stats.n_failed == 0
        assert fingerprints(result) == clean_fingerprints

    def test_record_written_twice_is_committed_once(
        self, tmp_path, netlists, monkeypatch
    ):
        # The retry round writes the failed lease's records again,
        # unchanged; the engine's store receives each of them once.
        die_once_before_resolving(tmp_path, monkeypatch)
        path = tmp_path / "r.jsonl"
        result = SweepEngine(
            workers=2,
            store=JsonlResultStore(path),
            resilience=ResilienceConfig(retry=FAST_RETRY),
        ).submit(SweepRequest(spec=RES_SPEC), netlists=netlists)
        assert result.stats.n_retries == 2
        assert len(path.read_text("utf-8").splitlines()) == 2

    def test_run_search_survives_killed_worker(self, tmp_path, netlists):
        space = DesignSpace(
            policies=(3,), safe_zones=(True,),
        )

        def search(fault_plan=None):
            eng = SweepEngine(
                workers=2,
                resilience=ResilienceConfig(
                    retry=FAST_RETRY, fault_plan=fault_plan
                ),
            )
            return eng.submit(
                SweepRequest(
                    spec=SweepSpec(circuits=("s27",)),
                    strategy=make_strategy("random", space, samples=4, seed=3)
                ),
                netlists=netlists
            )

        clean = search()
        chaotic = search(plan(tmp_path, "crash"))
        assert chaotic.stats.n_retries >= 1
        assert chaotic.stats.n_failed == 0
        assert fingerprints(chaotic) == fingerprints(clean)


#: Both result-store backends; backend-neutral tests run against each.
BACKENDS = ("jsonl", "sqlite")


def make_store(tmp_path, backend, **kwargs):
    return open_store(tmp_path / f"r.{backend}", backend=backend, **kwargs)


class TestCrashSafeStore:
    def run_with_store(self, store, netlists, fault_plan=None, resume=False):
        return SweepEngine(
            workers=1,
            store=store,
            resilience=ResilienceConfig(
                retry=FAST_RETRY, fault_plan=fault_plan
            ),
        ).submit(SweepRequest(spec=RES_SPEC, resume=resume), netlists=netlists)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fsync_every_validation(self, tmp_path, backend):
        with pytest.raises(ValueError, match="fsync_every"):
            make_store(tmp_path, backend, fsync_every=-1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fsync_every_appends_durably(self, tmp_path, backend, netlists):
        store = make_store(tmp_path, backend, fsync_every=1)
        result = self.run_with_store(store, netlists)
        assert len(store.load()) == len(result.records) == 2

    def test_appends_are_whole_lines(self, tmp_path, netlists):
        store = JsonlResultStore(tmp_path / "r.jsonl")
        self.run_with_store(store, netlists)
        lines = (tmp_path / "r.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_fault_tears_write_and_resume_heals(
        self, tmp_path, backend, netlists, clean_fingerprints
    ):
        # Keys render as raw parts (s27|paper-fig5|...|3|0.5|MRAM|...),
        # so |0.5| addresses exactly the budget-0.5 point.  JSONL tears
        # the line mid-write; SQLite models the same power cut as a
        # dropped transaction — either way one record survives.
        fault_plan = plan(tmp_path, "corrupt@|0.5|")
        store = make_store(tmp_path, backend, fault_plan=fault_plan)
        self.run_with_store(store, netlists, fault_plan=fault_plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert len(make_store(tmp_path, backend).load()) == 1
        # Resume re-evaluates only the damaged point and completes the
        # set.  Only JSONL leaves a torn line behind to warn about.
        healed = make_store(tmp_path, backend)
        if backend == "jsonl":
            with pytest.warns(UserWarning, match="malformed"):
                result = self.run_with_store(healed, netlists, resume=True)
        else:
            result = self.run_with_store(healed, netlists, resume=True)
        assert result.stats.n_resumed == 1
        assert fingerprints(result) == clean_fingerprints
        dropped = healed.compact()
        assert dropped == (1 if backend == "jsonl" else 0)
        assert sorted(fingerprint(r) for r in healed.load()) == (
            clean_fingerprints
        )

    def test_torn_tail_never_merges_with_next_record(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"torn": ')
        store = JsonlResultStore(path)
        store._append_bytes(b'{"whole": 1}\n', 1)
        lines = path.read_text().splitlines()
        assert lines == ['{"torn": ', '{"whole": 1}']

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rewrite_is_atomic_and_resets_tail(
        self, tmp_path, backend, netlists
    ):
        path = tmp_path / f"r.{backend}"
        store = make_store(tmp_path, backend)
        result = self.run_with_store(store, netlists)
        store.rewrite(result.records)
        assert not path.with_name(path.name + ".rewrite.tmp").exists()
        assert len(store.load()) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_keys_collapse_to_last_record(
        self, tmp_path, backend, netlists
    ):
        # JSONL appends duplicates and compact() drops them; an SQLite
        # write replaces its key's row, so there is never anything to drop.
        store = make_store(tmp_path, backend)
        result = self.run_with_store(store, netlists)
        store.extend(result.records)  # duplicate every key
        assert store.compact() == (2 if backend == "jsonl" else 0)
        assert len(store.load()) == 2


class TestCli:
    def test_inject_faults_smoke_matches_clean_run(self, tmp_path, capsys):
        clean, faulty = tmp_path / "clean.jsonl", tmp_path / "faulty.jsonl"
        base = [
            "sweep", "s27", "--policies", "3",
            "--budget-scales", "0.5", "1.0", "--safe-zone", "on",
            "--workers", "2",
        ]
        assert main([*base, "--results", str(clean)]) == 0
        assert main([
            *base, "--results", str(faulty),
            "--inject-faults", "crash;transientx2",
            "--fault-dir", str(tmp_path / "faultstate"),
            "--fsync-every", "1",
        ]) == 0
        captured = capsys.readouterr()
        assert "injecting faults: crash; transientx2" in captured.err
        assert "recovery:" in captured.out

        def lines(path):
            return sorted(
                json.dumps(json.loads(line), sort_keys=True)
                for line in path.read_text().splitlines()
            )

        assert lines(faulty) == lines(clean)

    def test_bad_fault_spec_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="bad fault spec"):
            main([
                "sweep", "s27", "--inject-faults", "explode",
                "--fault-dir", str(tmp_path),
            ])

    def test_bad_resilience_knobs_rejected(self):
        with pytest.raises(SystemExit, match="max_attempts"):
            main(["sweep", "s27", "--max-attempts", "0"])
        with pytest.raises(SystemExit, match="fsync-every"):
            main(["sweep", "s27", "--fsync-every", "-1"])

    def test_nan_batch_timeout_rejected(self):
        with pytest.raises(SystemExit, match="^error: batch_timeout_s"):
            main(["sweep", "s27", "--batch-timeout", "nan"])
