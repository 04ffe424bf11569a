"""Fault-tolerant sweep execution: taxonomy, retries, configuration.

The paper's whole premise is computation that survives arbitrary power
failures; this module gives the sweep engine the same property at the
process level.  A long multi-circuit, multi-scenario sweep must not die
because one worker was OOM-killed, one batch hung, or one evaluation hit
a transient hiccup — in the spirit of DiCA-style checkpointing, the
sweep checkpoints (the result store) and the execution layer restores
cheaply (the planner's retry, lease reclaim and respawn, in-process
drain).

Three pieces live here:

* the **failure taxonomy** — every exception a worker can raise is
  classified as *terminal* (deterministic evaluation errors: an
  infeasible margin, a trace too weak for the configuration — retrying
  cannot help, fail fast exactly once), *transient* (worker crashes,
  injected chaos — retrying usually helps), or *unexpected* (anything
  else — recorded, never retried, never allowed to destroy the sweep's
  in-memory results);
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic seeded jitter*, so two runs of the same seeded plan
  wait the same milliseconds;
* :class:`ResilienceConfig` — the retry policy, the lease deadline of
  the engine's parallel path and the chaos plan of one run.

The planner (:mod:`repro.dse.planner`) applies the retry policy; the
worker fleet that applies the rest lives in
:mod:`repro.service.coordinator`.  See ``docs/robustness.md`` for the
full recovery ladder and semantics.
"""

from __future__ import annotations

import hashlib
import math
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
    in-process execution); classified transient like the worker death
    it stands in for.
    """


#: Deterministic evaluation errors: the same point fails the same way
#: every time, so they fail fast into a single recorded SweepFailure.
TERMINAL_ERRORS: tuple[type[BaseException], ...] = (
    ValueError,
    KeyError,
    TraceTooWeakError,
)

#: Errors worth retrying: injected/derived transients, simulated worker
#: deaths, OOM kills and IPC hiccups.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    TransientEvalError,
    MemoryError,
    ConnectionError,
    EOFError,
)


def classify(error: BaseException) -> str:
    """Map an exception to its failure kind.

    Transient wins over terminal (``TransientEvalError`` subclasses
    ``RuntimeError``, and a worker death must never be mistaken for a
    bad design point); anything matching neither tuple is ``unexpected``.
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
        max_attempts: total tries per task (1 == never retry).  Leases
            lost to a worker death or deadline fail ``transient`` and
            share the same bound.
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
        retry decision, called only by the planner's retry loop
        (:func:`repro.dse.planner.execute_with_retries`); executors and
        the lease queue evaluate each task they are given once.
        """
        if kind != TRANSIENT or attempt >= self.max_attempts:
            return None
        return self.delay_s(attempt, token)


@dataclass(frozen=True)
class ResilienceConfig:
    """How resilient one :class:`~repro.dse.engine.SweepEngine` run is.

    Attributes:
        retry: retry/backoff policy for transient failures.
        batch_timeout_s: lease deadline of the engine's parallel path,
            counted from the claim: a worker still holding a lease past
            it is a straggler — it is killed, the lease fails
            ``transient`` (so the planner retries it) and a fresh worker
            replaces it.  ``None`` (default) sets no deadline; inline
            batches never have one.
        fault_plan: optional deterministic chaos plan (tests and
            ``sweep --inject-faults``); ``None`` in production.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    batch_timeout_s: float | None = None
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.batch_timeout_s is not None:
            check_duration("batch_timeout_s", self.batch_timeout_s)
