"""Host-speed sampling, so timings read as they would on a quiet host.

On a shared VM each vCPU runs pure-Python code up to 1.6 times slower
for seconds at a time while a neighbour is busy, independently of the
other vCPU, and no clock the guest can read leaves that time out.  So
while a timed region runs, :class:`HostSpeed` times a small fixed job
every ``CAL_PERIOD_S`` from a ``SIGALRM`` handler, on the thread and
CPU that run the region, and rescales the region's wall time to the
reference host.  Only the standard library is imported here, so the
set-up probes can start sampling before they import anything else.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of the calibration job, and how often it runs.
CAL_ITERATIONS = 5_000
CAL_PERIOD_S = 0.05
#: Seconds one calibration job takes on the reference host: a quiet
#: 2-vCPU x86_64 VM, Python 3.11.
CAL_REFERENCE_S = 0.00103


def calibration_job(n: int) -> int:
    """Fixed pure-Python work: integer, float and string operations.

    It uses nothing from ``repro``, so no change to the program can
    change how long it takes, and it allocates no container the cyclic
    collector tracks, so it never sets off a collection.
    """
    acc, mix = 0.0, 0
    for i in range(n):
        mix = (mix * 31 + len(str(i))) & 0xFFFF
        acc += (i % 13) * 0.5
    return mix + int(acc)


class HostSpeed:
    """Samples how fast the host runs while a ``with`` block runs.

    Use it from the main thread (signal handlers run there).  The block
    must last longer than ``CAL_PERIOD_S``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> HostSpeed:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        calibration_job(CAL_ITERATIONS)
        self.samples.append(time.perf_counter() - start)

    def reference_seconds(self, wall: float) -> float:
        """``wall`` as it would read on the reference host.

        The handler's own time is taken out first.  Work done at speed
        ``1/s`` over wall time ``dt`` takes ``dt/s`` on the reference
        host, and the samples are evenly spaced in wall time, so the
        mean of ``reference/sample`` over them is the factor.
        """
        busy = wall - sum(self.samples)
        return busy * statistics.fmean(
            CAL_REFERENCE_S / sample for sample in self.samples
        )
