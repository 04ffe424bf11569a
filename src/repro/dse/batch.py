"""Import stub kept for the repository benchmark (``perfbench/``).

Every executor run goes through the scalar
:class:`~repro.sim.intermittent.IntermittentExecutor`; nothing in the
package calls this module.  ``perfbench`` still imports the two toggles
below and traces :func:`run_batch`, so they stay until a benchmark
change drops those references, when this module can be deleted.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager

from repro.sim.intermittent import ExecutionResult, IntermittentExecutor


def batch_routing_enabled() -> bool:
    """Always ``False``: there is no batched route."""
    return False


@contextmanager
def batch_kernel_disabled() -> Iterator[None]:
    """No-op: the scalar executor is the only path."""
    yield


def run_batch(
    runs: Sequence[tuple[IntermittentExecutor, float | None]],
) -> list[ExecutionResult]:
    """Run each ``(executor, work_target_j)`` pair in order."""
    return [executor.run(work_target_j=work) for executor, work in runs]
