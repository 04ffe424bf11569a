"""Energy-harvesting source models.

The paper powers its node from RFID ("our research focused on designing a
specialized architecture using RFID sources") and models intermittency as
"a predetermined sequence of voltage levels that cyclically repeat".  A
:class:`HarvestTrace` is exactly that: a cyclic list of
(duration, power) segments, with helpers to integrate harvested energy over
arbitrary windows.  Generators for RFID-, solar- and kinetic-like traces
produce deterministic traces from a seed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class HarvestSegment:
    """A constant-power stretch of the harvest trace."""

    duration_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if self.power_w < 0:
            raise ValueError("harvest power cannot be negative")


class HarvestTrace:
    """A cyclically repeating sequence of constant-power segments.

    A trace is immutable once built: a cached environment's trace is
    shared by every design of a circuit, and by threads.  A run that
    walks it forward keeps its position in its own :meth:`cursor`.
    """

    def __init__(self, segments: list[HarvestSegment], name: str = "trace") -> None:
        if not segments:
            raise ValueError("a trace needs at least one segment")
        self.segments = list(segments)
        self.name = name
        self._starts: list[float] = []
        self._ends: list[float] = []
        t = 0.0
        for seg in self.segments:
            self._starts.append(t)
            self._ends.append(t + seg.duration_s)
            t += seg.duration_s
        self.period_s = t

    @property
    def cycle_energy_j(self) -> float:
        """Energy delivered over one full cycle."""
        return sum(s.duration_s * s.power_w for s in self.segments)

    @property
    def mean_power_w(self) -> float:
        """Long-run average harvest power."""
        return self.cycle_energy_j / self.period_s

    @property
    def peak_power_w(self) -> float:
        """The paper's V_peak analogue: the strongest segment."""
        return max(s.power_w for s in self.segments)

    def _index_at(self, local_s: float) -> int:
        """Index of the segment containing cycle-local time ``local_s``."""
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= local_s + 1e-15:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _locate(self, t_s: float) -> tuple[int, float]:
        """Index of the segment active at absolute ``t_s`` and time left in it."""
        if t_s < 0:
            raise ValueError("time must be non-negative")
        local = math.fmod(t_s, self.period_s)
        idx = self._index_at(local)
        return idx, max(self._ends[idx] - local, 1e-15)

    def segment_at(self, t_s: float) -> tuple[HarvestSegment, float]:
        """Segment active at absolute time ``t_s`` and time left in it."""
        idx, remaining = self._locate(t_s)
        return self.segments[idx], remaining

    def cursor(self) -> Callable[[float], tuple[float, float]]:
        """A lookup ``t -> (power_w, remaining)`` that remembers its place.

        Answers exactly as :meth:`segment_at` does.  A run steps forward
        with ``t += remaining``, so a query mostly lands in the segment
        last served or the one after it (wrapping at the period); both
        are tried before the binary search.  Either is accepted only as
        the largest index whose start is ``<= local + 1e-15`` -- the
        index :meth:`_index_at` returns -- so a tied start falls through
        to the search.  The position lives in the closure, not on the
        trace, so runs sharing a trace never disturb one another.
        """
        # An infinite sentinel start closes the last segment's interval.
        starts = [*self._starts, math.inf]
        ends, period, fmod = self._ends, self.period_s, math.fmod
        powers = [seg.power_w for seg in self.segments]
        last = len(ends) - 1
        idx = 0

        def lookup(t_s: float) -> tuple[float, float]:
            nonlocal idx
            if t_s < 0:
                raise ValueError("time must be non-negative")
            local = fmod(t_s, period)
            bound = local + 1e-15
            i = idx
            if not starts[i] <= bound < starts[i + 1]:
                i = i + 1 if i < last else 0
                if not starts[i] <= bound < starts[i + 1]:
                    i = self._index_at(local)
                idx = i
            remaining = ends[i] - local
            return powers[i], 1e-15 if remaining < 1e-15 else remaining

        return lookup

    def power_at(self, t_s: float) -> float:
        """Instantaneous harvest power at ``t_s``."""
        seg, _remaining = self.segment_at(t_s)
        return seg.power_w

    def energy_between(self, t0_s: float, t1_s: float) -> float:
        """Harvested energy over ``[t0, t1]`` (exact piecewise integral).

        Integrates whole cycles in closed form and walks the segment list
        by index for the remainder, so the iteration count is bounded by
        the segment count.  (A time-stepping loop is not safe here: near a
        segment boundary the residual ``remaining`` can round below one
        ulp of ``t`` and ``t += remaining`` stops advancing.)
        """
        if t1_s < t0_s:
            raise ValueError("t1 must be >= t0")
        span = t1_s - t0_s
        if span <= 0.0:
            return 0.0
        full_cycles = math.floor(span / self.period_s)
        total = full_cycles * self.cycle_energy_j
        span -= full_cycles * self.period_s
        idx, available = self._locate(t0_s)
        while span > 1e-15:
            dt = min(available, span)
            total += self.segments[idx].power_w * dt
            span -= dt
            idx = (idx + 1) % len(self.segments)
            available = self.segments[idx].duration_s
        return total

    def scaled(self, power_factor: float = 1.0, time_factor: float = 1.0) -> "HarvestTrace":
        """Return a copy with powers and durations scaled."""
        return HarvestTrace(
            [
                HarvestSegment(s.duration_s * time_factor, s.power_w * power_factor)
                for s in self.segments
            ],
            name=self.name,
        )


def rfid_trace(
    reader_period_s: float = 2.0,
    burst_power_w: float = 120e-6,
    duty: float = 0.45,
    jitter: float = 0.3,
    n_periods: int = 16,
    seed: int = 7,
    name: str = "rfid",
) -> HarvestTrace:
    """An RFID-reader-like trace: powered bursts separated by dead time.

    The reader energizes the tag while interrogating; between reads the
    field collapses.  Jitter varies both burst length and amplitude so the
    safe-zone dynamics (recover vs. decay) are exercised.
    """
    if not 0 < duty < 1:
        raise ValueError("duty must be in (0, 1)")
    rng = random.Random(seed)
    segments: list[HarvestSegment] = []
    for _ in range(n_periods):
        on = reader_period_s * duty * (1.0 + jitter * (rng.random() - 0.5))
        off = reader_period_s * (1.0 - duty) * (1.0 + jitter * (rng.random() - 0.5))
        power = burst_power_w * (1.0 + jitter * (rng.random() - 0.5))
        weak = burst_power_w * 0.12 * rng.random()
        segments.append(HarvestSegment(on, power))
        if rng.random() < 0.5:
            segments.append(HarvestSegment(off * 0.5, weak))
            segments.append(HarvestSegment(off * 0.5, 0.0))
        else:
            segments.append(HarvestSegment(off, 0.0))
    return HarvestTrace(segments, name=name)


def solar_trace(
    day_period_s: float = 600.0,
    peak_power_w: float = 200e-6,
    n_steps: int = 24,
    cloud_factor: float = 0.35,
    seed: int = 11,
    name: str = "solar",
) -> HarvestTrace:
    """A solar-like trace: sinusoidal envelope with random cloud dips."""
    rng = random.Random(seed)
    dt = day_period_s / n_steps
    segments = []
    for i in range(n_steps):
        phase = math.pi * i / (n_steps - 1)
        power = peak_power_w * max(math.sin(phase), 0.0)
        if rng.random() < cloud_factor:
            power *= rng.uniform(0.05, 0.4)
        segments.append(HarvestSegment(dt, power))
    return HarvestTrace(segments, name=name)


def kinetic_trace(
    step_period_s: float = 1.0,
    impulse_power_w: float = 300e-6,
    activity: float = 0.5,
    n_steps: int = 40,
    seed: int = 13,
    name: str = "kinetic",
) -> HarvestTrace:
    """A kinetic/vibration trace: short random impulses, long gaps."""
    rng = random.Random(seed)
    segments = []
    for _ in range(n_steps):
        if rng.random() < activity:
            segments.append(
                HarvestSegment(step_period_s * 0.25, impulse_power_w * rng.uniform(0.6, 1.4))
            )
            segments.append(HarvestSegment(step_period_s * 0.75, 0.0))
        else:
            segments.append(HarvestSegment(step_period_s, impulse_power_w * 0.02))
    return HarvestTrace(segments, name=name)


def steady_trace(power_w: float, name: str = "steady") -> HarvestTrace:
    """A constant source (degenerate case; useful in tests)."""
    return HarvestTrace([HarvestSegment(1.0, power_w)], name=name)
