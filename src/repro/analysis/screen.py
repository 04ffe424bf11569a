"""Zero-cost static round 0 for successive halving.

The halving strategy's opening pool is its whole simulation bill: every
sampled candidate is simulated at least once (at screening fidelity).
:class:`StaticScreener` shrinks that pool *before the first simulation*
using only the interval analysis:

* candidates proven ``INFEASIBLE`` in **every** (circuit, scenario)
  group are dropped outright — no simulation can produce a record for
  them;
* candidates whose best-case PDP is provably beaten by another
  candidate's worst-case PDP in every group are bound-dominated and
  dropped;
* the rest are ranked by their optimistic (lower-bound) PDP, averaged
  over groups, and the pool is cut to a ``keep`` fraction.

Dropping candidates from a *sampled* pool needs no soundness argument
beyond the verdicts themselves — the strategy was free to sample any
pool, so a smaller, better-ranked one is just a better prior.  The
parity guarantees live in the sweep engine, which only ever prunes
``INFEASIBLE`` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.feasibility import Verdict, assess_run
from repro.analysis.intervals import RunBounds, bounds_for_point
from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.dse.explorer import DesignPoint, SynthesisCache
from repro.energy.scenarios import ScenarioSpec


@dataclass
class StaticScreener:
    """Rank and cut a candidate pool with interval bounds only.

    Args:
        netlists: circuit name -> netlist, the groups candidates will
            be simulated under.
        scenarios: scenario axis of the search.
        base_config: synthesis defaults shared by every point (must
            match the engine's, or the ranking screens for the wrong
            sweep).
        caches: circuit name -> synthesis cache; pass the sweep's map
            so the simulations reuse the stages the screen built.
        keep: fraction of analysable candidates kept after ranking.
        min_keep: never cut the pool below this many candidates (the
            halving strategy needs at least 2).
    """

    netlists: dict[str, Netlist]
    scenarios: tuple[ScenarioSpec, ...] = (ScenarioSpec(),)
    base_config: DiacConfig | None = None
    keep: float = 0.5
    min_keep: int = 2
    caches: dict[str, SynthesisCache] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if not self.netlists:
            raise ValueError("screener needs at least one circuit")
        if not 0.0 < self.keep <= 1.0:
            raise ValueError("keep must be in (0, 1]")
        if self.min_keep < 2:
            raise ValueError("min_keep must be >= 2")

    def _bounds(self, point: DesignPoint) -> list[RunBounds | None]:
        """Per-(circuit, scenario) bounds; None where analysis fails."""
        rows: list[RunBounds | None] = []
        for circuit, netlist in self.netlists.items():
            cache = self.caches.setdefault(circuit, SynthesisCache())
            for scenario in self.scenarios:
                try:
                    rows.append(
                        bounds_for_point(
                            netlist,
                            point,
                            base_config=self.base_config,
                            cache=cache,
                            scenario=scenario,
                        )
                    )
                except Exception:
                    # Unanalysable points keep a seat: only a proof may
                    # cost a candidate its simulation.
                    rows.append(None)
        return rows

    def screen(self, points: list[DesignPoint]) -> list[DesignPoint]:
        """Return the kept candidates, best (optimistic PDP) first.

        Never returns fewer than ``min_keep`` candidates (unless given
        fewer); candidates the analysis could not bound rank last but
        are never dropped by a *proof* (only by the ranking cut).
        """
        if len(points) <= self.min_keep:
            return list(points)
        all_bounds = [self._bounds(point) for point in points]
        survivors: list[int] = []
        for index, rows in enumerate(all_bounds):
            feasible_somewhere = any(
                row is None
                or assess_run(row).verdict is not Verdict.INFEASIBLE
                for row in rows
            )
            if feasible_somewhere:
                survivors.append(index)
        if len(survivors) < self.min_keep:
            # Everything proved infeasible: screening cannot help, and
            # the caller still needs a pool to fail loudly with.
            return list(points)

        def dominated(a: int, b: int) -> bool:
            """Whether candidate ``b`` provably beats ``a`` everywhere."""
            strict = False
            for row_a, row_b in zip(all_bounds[a], all_bounds[b]):
                if row_a is None or row_b is None:
                    return False
                if row_b.pdp_js.hi > row_a.pdp_js.lo:
                    return False
                strict = strict or row_b.pdp_js.hi < row_a.pdp_js.lo
            return strict

        undominated = [
            a
            for a in survivors
            if not any(b != a and dominated(a, b) for b in survivors)
        ]
        if len(undominated) >= self.min_keep:
            survivors = undominated

        def score(index: int) -> float:
            total, groups = 0.0, 0
            for row in all_bounds[index]:
                if row is None:
                    continue
                groups += 1
                if assess_run(row).verdict is Verdict.INFEASIBLE:
                    total += math.inf
                else:
                    total += row.pdp_js.lo
            return total / groups if groups else math.inf

        ranked = sorted(survivors, key=score)
        cut = max(self.min_keep, math.ceil(len(ranked) * self.keep))
        return [points[index] for index in ranked[:cut]]
