"""Fault-tolerant sweep execution: taxonomy, retries, pool supervision.

The paper's whole premise is computation that survives arbitrary power
failures; this module gives the sweep engine the same property at the
process level.  A long multi-circuit, multi-scenario sweep must not die
because one worker was OOM-killed, one batch hung, or one evaluation hit
a transient hiccup — in the spirit of DiCA-style checkpointing, the
sweep checkpoints (the JSONL store) and the execution layer restores
cheaply (retry, pool rebuild, inline degradation).

Three pieces live here:

* the **failure taxonomy** — every exception a worker can raise is
  classified as *terminal* (deterministic evaluation errors: an
  infeasible margin, a trace too weak for the configuration — retrying
  cannot help, fail fast exactly once), *transient* (worker crashes,
  broken pools, injected chaos — retrying usually helps), or
  *unexpected* (anything else — recorded, never retried, never allowed
  to destroy the sweep's in-memory results);
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic seeded jitter*, so two runs of the same seeded plan
  wait the same milliseconds;
* :class:`PoolSupervisor` — owns the :class:`ProcessPoolExecutor`,
  rebuilds it after a death (terminating any hung workers), and tracks
  consecutive deaths so the engine can degrade to inline execution
  instead of thrashing a pool that keeps dying.

See ``docs/robustness.md`` for the full degradation ladder and
semantics.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from collections.abc import Callable
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.intermittent import TraceTooWeakError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.dse.faults import FaultPlan

#: Failure kinds recorded on :class:`~repro.dse.engine.SweepFailure`.
TRANSIENT = "transient"
TERMINAL = "terminal"
UNEXPECTED = "unexpected"


class TransientEvalError(RuntimeError):
    """A retryable evaluation failure (the transient taxonomy root)."""


class WorkerCrashError(TransientEvalError):
    """A (simulated) worker-process death surfaced as an exception.

    Raised by the fault harness when a crash fault fires somewhere a
    real ``os._exit`` would take the whole sweep down (inline,
    in-process execution); classified transient like the genuine
    :class:`~concurrent.futures.BrokenExecutor` it stands in for.
    """


#: Deterministic evaluation errors: the same point fails the same way
#: every time, so they fail fast into a single recorded SweepFailure.
TERMINAL_ERRORS: tuple[type[BaseException], ...] = (
    ValueError,
    KeyError,
    TraceTooWeakError,
)

#: Errors worth retrying: injected/derived transients, worker and pool
#: deaths, OOM kills and pickling/IPC hiccups.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    TransientEvalError,
    BrokenExecutor,
    MemoryError,
    ConnectionError,
    EOFError,
)


def classify(error: BaseException) -> str:
    """Map an exception to its failure kind.

    Transient wins over terminal (``TransientEvalError`` subclasses
    ``RuntimeError``, and a broken pool must never be mistaken for a bad
    design point); anything matching neither tuple is ``unexpected``.
    """
    if isinstance(error, TRANSIENT_ERRORS):
        return TRANSIENT
    if isinstance(error, TERMINAL_ERRORS):
        return TERMINAL
    return UNEXPECTED


def describe_error(error: BaseException) -> str:
    """Failure message for a :class:`SweepFailure`.

    Terminal/transient messages stay bare (tests and users match on
    them); unexpected ones carry the exception type, which is usually
    the only clue to a bug.
    """
    text = str(error)
    if classify(error) == UNEXPECTED or not text:
        return f"{type(error).__name__}: {text}" if text else (
            type(error).__name__
        )
    return text


def check_count(name: str, value: object, minimum: int) -> None:
    """Reject a count that is a bool, not an ``int``, or below ``minimum``.

    Raises:
        TypeError: for a bool or a non-``int`` (``2.5``, ``"2"``).
        ValueError: for an ``int`` below ``minimum``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_duration(name: str, value: float, allow_zero: bool = False) -> None:
    """Reject a NaN, infinite, negative or (unless allowed) zero duration.

    A NaN deadline never fires and SQLite stores it as ``NULL``, so
    non-finite durations are refused where they enter, not where they
    stop supervision from working.

    Raises:
        ValueError: on any of the above.
    """
    bound = "must be finite and " + (">= 0" if allow_zero else "positive")
    if not (math.isfinite(value) and (value > 0 or allow_zero and value == 0)):
        raise ValueError(f"{name} {bound}, got {value!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Attributes:
        max_attempts: total tries per task (1 == never retry).  Batch
            resubmissions after a pool death share the same bound.
        backoff_base_s: wait before the second attempt.
        backoff_factor: multiplier per further attempt.
        backoff_max_s: backoff ceiling.
        jitter: +/- fraction applied to each wait.  The jitter is drawn
            from a hash of ``(seed, token, attempt)`` — not from a
            global RNG — so a seeded run waits identical durations on
            every execution, which keeps chaos tests reproducible.
        seed: jitter seed.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("max_attempts", self.max_attempts, 1)
        check_duration("backoff_base_s", self.backoff_base_s, allow_zero=True)
        check_duration("backoff_max_s", self.backoff_max_s, allow_zero=True)
        if not (math.isfinite(self.backoff_factor) and self.backoff_factor >= 1):
            raise ValueError("backoff_factor must be finite and >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Backoff before retrying after ``attempt`` failures (>= 1)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if not self.jitter or not base:
            return base
        digest = hashlib.sha256(
            f"{self.seed}|{token}|{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def retry_delay_s(
        self, kind: str, attempt: int, token: str = ""
    ) -> float | None:
        """Backoff before retrying a ``kind`` failure of try ``attempt``.

        ``None`` means the failure is final: it is not ``transient``, or
        ``attempt`` already spent the ``max_attempts`` budget.  The one
        retry decision of the engine's stage-batch loop and the lease
        queue.
        """
        if kind != TRANSIENT or attempt >= self.max_attempts:
            return None
        return self.delay_s(attempt, token)


@dataclass(frozen=True)
class ResilienceConfig:
    """How resilient one :class:`~repro.dse.engine.SweepEngine` run is.

    Attributes:
        retry: retry/backoff policy for transient failures.
        batch_timeout_s: per-batch deadline of pool batches, counted
            from dispatch to a free worker; an overdue batch is treated
            as a straggler — the pool is rebuilt and the batch resubmits
            to fresh workers.  ``None`` disables deadlines.
        max_pool_deaths: consecutive pool deaths (crash or timeout)
            tolerated before the engine runs the rest of the sweep
            inline, in-process.
        fault_plan: optional deterministic chaos plan (tests and
            ``sweep --inject-faults``); ``None`` in production.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    batch_timeout_s: float | None = None
    max_pool_deaths: int = 2
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.batch_timeout_s is not None:
            check_duration("batch_timeout_s", self.batch_timeout_s)
        check_count("max_pool_deaths", self.max_pool_deaths, 1)


class PoolSupervisor:
    """Owns a worker pool across deaths and rebuilds.

    The engine never touches a raw :class:`ProcessPoolExecutor`: it
    asks the supervisor for ``pool``, reports
    deaths/successes, and the supervisor decides whether the next
    incarnation exists at all (see :meth:`should_degrade`).

    Args:
        workers: process count per pool incarnation.
        initializer: run once in every new worker process (the engine
            clears the worker-global synthesis caches with it).
    """

    def __init__(
        self, workers: int, initializer: Callable[[], None] | None = None
    ) -> None:
        self.workers = workers
        self.initializer = initializer
        self.consecutive_deaths = 0
        self._pool: ProcessPoolExecutor | None = None

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The live pool, created lazily (and again after a shutdown)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=self.initializer
            )
        return self._pool

    def note_success(self) -> None:
        """A batch completed: the current pool is evidently healthy."""
        self.consecutive_deaths = 0

    def note_death(self) -> None:
        """A crash or deadline overrun killed trust in the pool."""
        self.consecutive_deaths += 1

    def should_degrade(self, max_pool_deaths: int) -> bool:
        """Whether rebuilding again would just thrash."""
        return self.consecutive_deaths >= max_pool_deaths

    def shutdown(self) -> None:
        """Tear the pool down, terminating hung workers.

        Called after a death and at the end of a run; the next
        :attr:`pool` access builds a fresh pool.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        # A hung worker ignores shutdown(); terminate it so a straggler
        # cannot hold a process slot (or the test suite) hostage.  The
        # _processes mapping is stdlib-internal, hence the defensive
        # getattr — losing the terminate only leaks a sleeping process.
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            with contextlib.suppress(Exception):  # pragma: no cover
                process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
