"""Regression and property tests for executor time/work monotonicity.

The seed executor had a latent numerical bug: after a charge-mode restore
it re-entered the active zone at ``Th_Cp - restore_e``, which can lie
*below* ``Th_SafeZone``; the depletion solve ``(e - safe_j) / (-p_net)``
then goes negative and a negative ``dt`` regresses both simulated time and
accomplished work — in the worst case livelocking the run, because the
time limit is never reached.  These tests pin the fix.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.harvester import HarvestSegment, HarvestTrace
from repro.sim.intermittent import (
    IntermittentExecutor,
    SchemeProfile,
    TraceTooWeakError,
)
from repro.tech import MRAM


class QueryBudgetExceeded(RuntimeError):
    """The executor consulted the trace far more often than any sane run."""


class MonotonicProbeTrace(HarvestTrace):
    """Trace wrapper recording every simulation time the executor visits.

    The executor looks the trace up through a :meth:`cursor` with its
    clock on every event-loop iteration, so the recorded sequence is a
    faithful sample of simulated time.  A query budget bounds livelocked
    runs (the seed bug regressed time, so the executor's own time limit
    never fired).
    """

    def __init__(
        self, segments: list[HarvestSegment], limit: int = 50_000
    ) -> None:
        super().__init__(segments, name="probe")
        self.times: list[float] = []
        self.limit = limit

    def cursor(self):
        lookup = super().cursor()

        def probed(t_s: float):
            self.times.append(t_s)
            if len(self.times) > self.limit:
                raise QueryBudgetExceeded(
                    f"{self.limit} trace queries without finishing"
                )
            return lookup(t_s)

        return probed

    def assert_time_monotonic(self) -> None:
        assert self.times, "the executor never queried the trace"
        regressions = [
            (earlier, later)
            for earlier, later in zip(self.times, self.times[1:])
            if later < earlier - 1e-18
        ]
        assert not regressions, (
            f"simulated time regressed {len(regressions)} time(s), "
            f"first: {regressions[0][0]!r} -> {regressions[0][1]!r}"
        )


def restore_heavy_profile(window: float = 0.0) -> SchemeProfile:
    """A profile whose restore cost exceeds the Th_Cp - Th_SafeZone gap.

    With a tiny capacitor the 256-bit restore costs more than the energy
    between the compute and safe-zone thresholds, which is exactly the
    configuration that drove the seed executor's post-restore energy below
    Th_SafeZone.
    """
    return SchemeProfile(
        name="restore-heavy",
        pass_energy_j=1e-9,
        pass_time_s=1e-3,
        commit_bits=256,
        restore_bits=256,
        reexec_window_j=window,
        uses_safe_zone=False,
        technology=MRAM,
    )


class TestNegativeDtRegression:
    """Pins the charge-mode restore scenario that regressed time on seed."""

    E_MAX_J = 5e-11

    def run_scenario(self, window: float = 0.0):
        trace = MonotonicProbeTrace(
            [HarvestSegment(0.5, 2e-7), HarvestSegment(0.5, 0.0)]
        )
        executor = IntermittentExecutor(
            restore_heavy_profile(window), self.E_MAX_J, trace
        )
        result = executor.run(work_target_j=2e-9, max_cycles=200)
        return result, trace

    def test_restore_below_safe_zone_completes(self):
        # Seed code livelocked here: every restore re-entered the active
        # zone below Th_SafeZone and the negative dt regressed the clock.
        result, trace = self.run_scenario()
        assert result.completed
        trace.assert_time_monotonic()

    def test_restore_is_paid_for(self):
        result, trace = self.run_scenario()
        assert result.n_restores > 0
        # Every consumed joule is accounted forward, never un-spent.
        assert result.total_energy_j >= result.useful_energy_j - 1e-18
        assert result.active_time_s >= 0.0
        assert result.wall_time_s > 0.0

    def test_unpayable_restore_fails_loudly(self):
        # A capacitor too small to pay the restore and stay inside the
        # operating zone must raise, not conjure energy from nowhere.
        trace = MonotonicProbeTrace(
            [HarvestSegment(0.5, 2e-7), HarvestSegment(0.5, 0.0)]
        )
        executor = IntermittentExecutor(
            restore_heavy_profile(), 1e-11, trace
        )
        with pytest.raises(TraceTooWeakError, match="cannot be paid"):
            executor.run(work_target_j=2e-9, max_cycles=200)
        trace.assert_time_monotonic()

    def test_windowed_profile_never_regresses_time(self):
        # With a re-execution window the same configuration is genuinely
        # too weak (each power cycle loses more than it gains), so the run
        # may grind toward TraceTooWeakError — but the clock must advance
        # monotonically the whole way.  On seed code it regressed.
        trace = MonotonicProbeTrace(
            [HarvestSegment(0.5, 2e-7), HarvestSegment(0.5, 0.0)],
            limit=20_000,
        )
        executor = IntermittentExecutor(
            restore_heavy_profile(window=0.2e-9), self.E_MAX_J, trace
        )
        with pytest.raises((TraceTooWeakError, QueryBudgetExceeded)):
            executor.run(work_target_j=2e-9, max_cycles=30)
        trace.assert_time_monotonic()


class TestClockResolution:
    """A segment end closer to ``t`` than ``t`` can resolve stalled the clock."""

    def test_segment_end_below_clock_resolution_does_not_stall(self):
        # Found by the property below: near t = 16.1 s the trace reports
        # 1.25e-15 s left in a segment, under half an ulp of t, so
        # ``t += remaining`` left t where it was on every iteration.
        profile = SchemeProfile(
            name="prop",
            pass_energy_j=1e-10,
            pass_time_s=0.009765625,
            commit_bits=8,
            restore_bits=8,
            reexec_window_j=0.0,
            uses_safe_zone=False,
            technology=MRAM,
        )
        duration = 0.24083351884203316
        trace = MonotonicProbeTrace(
            [
                HarvestSegment(duration, 0.0625 * profile.active_power_w),
                HarvestSegment(duration, 0.0),
            ]
        )
        e_max = 9.86454093176968e-09
        executor = IntermittentExecutor(profile, e_max, trace)
        with pytest.raises(TraceTooWeakError):
            executor.run(work_target_j=e_max, max_cycles=40.0)
        trace.assert_time_monotonic()


@st.composite
def executor_configs(draw):
    """Random (profile, e_max, trace, work target) executor setups."""
    e_max = draw(
        st.floats(min_value=2e-11, max_value=1e-8, allow_nan=False)
    )
    pass_energy = draw(
        st.floats(min_value=1e-10, max_value=5e-9, allow_nan=False)
    )
    pass_time = draw(
        st.floats(min_value=1e-4, max_value=1e-2, allow_nan=False)
    )
    bits = draw(st.integers(min_value=8, max_value=512))
    window_frac = draw(
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False)
    )
    safe_zone = draw(st.booleans())
    profile = SchemeProfile(
        name="prop",
        pass_energy_j=pass_energy,
        pass_time_s=pass_time,
        commit_bits=bits,
        restore_bits=bits,
        reexec_window_j=window_frac * pass_energy,
        uses_safe_zone=safe_zone,
        technology=MRAM,
    )
    p_active = profile.active_power_w
    n_segments = draw(st.integers(min_value=1, max_value=4))
    t_ref = 0.25 * e_max / max(p_active, 1e-12)
    segments = [
        HarvestSegment(
            duration_s=draw(
                st.floats(min_value=0.1, max_value=2.0, allow_nan=False)
            )
            * t_ref,
            power_w=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            )
            * p_active,
        )
        for _ in range(n_segments)
    ]
    if all(segment.power_w == 0.0 for segment in segments):
        segments[0] = HarvestSegment(segments[0].duration_s, 0.5 * p_active)
    work_target = draw(
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False)
    ) * e_max
    drain = draw(
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False)
    ) * p_active
    return profile, e_max, segments, work_target, drain


class TestMonotonicityProperty:
    @settings(max_examples=40, deadline=None)
    @given(config=executor_configs())
    def test_time_and_work_never_regress(self, config):
        profile, e_max, segments, work_target, drain = config
        trace = MonotonicProbeTrace(segments)
        executor = IntermittentExecutor(
            profile, e_max, trace, sleep_drain_w=drain
        )
        completed = False
        try:
            result = executor.run(work_target_j=work_target, max_cycles=40.0)
            completed = True
        except TraceTooWeakError:
            result = None
        # Simulated time is monotonically non-decreasing whether or not
        # the run finished.
        trace.assert_time_monotonic()
        if completed:
            # Work accounting: useful work hits the target exactly, and
            # every re-executed joule was consumed *in addition to* it —
            # a negative dt would un-spend energy and break this.
            assert result.useful_energy_j == pytest.approx(work_target)
            assert (
                result.total_energy_j
                >= result.useful_energy_j + result.reexec_energy_j - 1e-15
            )
            assert result.reexec_energy_j >= 0.0
            assert result.active_time_s >= 0.0
            assert result.wall_time_s >= 0.0
            assert result.n_backups >= 0
            assert result.n_restores <= result.n_backups
