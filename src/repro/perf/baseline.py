"""The unoptimized-baseline switch for speedup measurement.

Two hot-path caches — memoized block costing and netlist
topological-order caching — are individually toggleable and each pinned
bit-identical to its uncached path by the equivalence tests.  This
module composes the toggles so the ``suite-eval`` perf suites can measure the *same code* in
its cached and uncached configurations back to back in one process,
which cancels host / load variance out of the recorded
``speedup_vs_unmemoized`` ratio (comparing two separate checkouts on a
busy machine measures the machine, not the code).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.circuits.netlist import topo_order_cache_disabled
from repro.tech.synthesis import block_cost_memo_disabled


@contextmanager
def hot_path_caches_disabled() -> Iterator[None]:
    """Disable every *toggleable* hot-path cache for the block.

    Covers the block-cost memo and the netlist topological-order/fanout
    caches.  The other hot-path optimizations have no off switch
    (incremental task-graph passes, the ``Gate.is_*`` predicates, the
    trace fast path, the executor-locals rewrite), so a ratio measured
    over this baseline *understates* their contribution relative to an
    older checkout.  Numbers produced inside the block are
    bit-identical to numbers produced outside it; only the wall clock
    differs.
    """
    with block_cost_memo_disabled(), topo_order_cache_disabled():
        yield

