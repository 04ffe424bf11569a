"""Incremental sweep aggregation: fronts, winners and robustness.

The batch aggregates on :class:`~repro.dse.engine.SweepResult` need
every record in memory; a sweep big enough to need the SQLite store is
big enough that this stops being acceptable.  This module is the
streaming alternative: a :class:`SweepAggregator` consumes records
batch by batch — fed by the engine as batches complete, or replayed
from any :class:`~repro.dse.store.ResultStore` — and maintains, per
(scenario label, circuit) group:

* the running record **count**;
* the running **best** (PDP-minimal) record, first winner kept on ties
  like ``min()``;
* the running **Pareto front** over (PDP, re-execution energy), folded
  through :func:`~repro.dse.pareto.record_front` — removing dominated
  points early never changes final front membership, so the streamed
  front equals the batch-computed front (pinned by the parity tests);

plus the cross-group accumulators
:meth:`~SweepAggregator.robustness` needs (per-design PDP profiles,
floats only — not records).  Everything PDP-comparable stays inside one
group, the invariant from :mod:`repro.dse.scoring`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.store import ResultStore

from repro.dse.explorer import ExplorationRecord
from repro.dse.pareto import record_front
from repro.dse.scoring import pdp_degradation
from repro.metrics.robustness import RobustnessEntry

#: Records folded into the running fronts per batch when replaying a
#: store (amortizes the per-fold sort without holding the store).
_REPLAY_BATCH = 256


@dataclass
class GroupAggregate:
    """Streaming aggregates of one (scenario label, circuit) group.

    Attributes:
        scenario: the group's scenario display label.
        circuit: the group's circuit name.
        count: records folded in so far.
        best: the PDP-minimal record so far (``None`` before any).
        front: the running (PDP, re-execution energy) Pareto front.
    """

    scenario: str
    circuit: str
    count: int = 0
    best: ExplorationRecord | None = None
    front: list[ExplorationRecord] = field(default_factory=list)


class SweepAggregator:
    """Folds exploration records into per-group running aggregates.

    Feed it incrementally (:meth:`add` / :meth:`add_many`) or replay a
    whole store (:meth:`from_store`); read the aggregate views
    (:meth:`fronts`, :meth:`best`, :meth:`counts`,
    :meth:`robustness`) at any point.  The views match their batch
    equivalents on :class:`~repro.dse.engine.SweepResult` /
    :func:`repro.metrics.robustness.robustness_report` exactly — the
    parity is pinned by tests, not hoped for.
    """

    def __init__(self) -> None:
        self.groups: dict[tuple[str, str], GroupAggregate] = {}
        # Robustness accumulators: per (circuit, point identity), the
        # raw PDP under each scenario label — floats, not records, so
        # memory stays proportional to designs x scenarios.
        self._profiles: dict[tuple, dict[str, float]] = {}
        self._labels: dict[tuple, tuple[str, str]] = {}
        # Record keys folded so far: a JSONL store may hold a key twice
        # (a re-evaluation before ``compact``), and a point counts once.
        self._keys: set[tuple] = set()

    @classmethod
    def from_store(cls, store: "ResultStore") -> "SweepAggregator":
        """Aggregate a whole result store without retaining its records."""
        return cls.from_records(store.iter_records())

    @classmethod
    def from_records(
        cls, records: Iterable[ExplorationRecord]
    ) -> "SweepAggregator":
        """Aggregate a record stream, folding it in batches."""
        aggregator = cls()
        batch: list[ExplorationRecord] = []
        for record in records:
            batch.append(record)
            if len(batch) >= _REPLAY_BATCH:
                aggregator.add_many(batch)
                batch = []
        aggregator.add_many(batch)
        return aggregator

    @property
    def n_records(self) -> int:
        """Total records folded in across every group."""
        return sum(group.count for group in self.groups.values())

    def add(self, record: ExplorationRecord) -> None:
        """Fold one record in."""
        self.add_many([record])

    def add_many(self, records: Iterable[ExplorationRecord]) -> None:
        """Fold a batch in (one front update per touched group).

        Each record key is folded once; a later record with a key
        already folded is skipped.
        """
        by_group: dict[tuple[str, str], list[ExplorationRecord]] = {}
        for record in records:
            key = record.key()
            if key in self._keys:
                continue
            self._keys.add(key)
            label = record.scenario.label()
            by_group.setdefault((label, record.circuit), []).append(record)
            point_key = (record.circuit, *record.point.identity())
            self._profiles.setdefault(point_key, {})[label] = record.pdp_js
            self._labels[point_key] = (record.circuit, record.point.label())
        for (label, circuit), group_records in by_group.items():
            group = self.groups.setdefault(
                (label, circuit),
                GroupAggregate(scenario=label, circuit=circuit),
            )
            group.count += len(group_records)
            for record in group_records:
                # Strict < keeps the first winner on ties, matching
                # min() over the full list and scoring.best_pdp_by_group.
                if group.best is None or record.pdp_js < group.best.pdp_js:
                    group.best = record
            # Dominated points can be dropped as soon as their dominator
            # arrives; they could never re-enter a later front.
            group.front = record_front(group.front + group_records)

    def counts(self) -> dict[tuple[str, str], int]:
        """Record count per (scenario label, circuit) group."""
        return {key: group.count for key, group in self.groups.items()}

    def best(self) -> dict[tuple[str, str], ExplorationRecord]:
        """The PDP-optimal record of each group."""
        return {
            key: group.best
            for key, group in self.groups.items()
            if group.best is not None
        }

    def fronts(self) -> dict[tuple[str, str], list[ExplorationRecord]]:
        """The running Pareto front of each group (copies, safe to keep)."""
        return {
            key: list(group.front) for key, group in self.groups.items()
        }

    def robustness(self) -> list[RobustnessEntry]:
        """Cross-scenario degradation report from the running state.

        Same normalization, entries and ``(-coverage, worst, mean)``
        ranking as :func:`repro.metrics.robustness.robustness_report`,
        computed from the streamed accumulators instead of a record
        list.
        """
        best = {
            (group.scenario, group.circuit): group.best.pdp_js
            for group in self.groups.values()
            if group.best is not None
        }
        entries = []
        for point_key, pdps in self._profiles.items():
            circuit, label = self._labels[point_key]
            degradation = {
                scenario: pdp_degradation(pdp, best[(scenario, circuit)])
                for scenario, pdp in pdps.items()
            }
            values = list(degradation.values())
            entries.append(
                RobustnessEntry(
                    circuit=circuit,
                    label=label,
                    degradation=degradation,
                    worst=max(values),
                    mean=sum(values) / len(values),
                    coverage=len(values),
                )
            )
        entries.sort(key=lambda e: (-e.coverage, e.worst, e.mean))
        return entries
