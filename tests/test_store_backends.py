"""Cross-backend tests for the result-store protocol.

The contract under test: ``JsonlResultStore`` and ``SqliteResultStore``
are interchangeable behind :class:`repro.dse.store.ResultStore` — same
records, same keys, same resume behavior, same answers out of the
incremental aggregation layer — and the engine consumes only the
protocol (indexed ``keys()`` + group ``iter_records()``, never a full
``load()``).
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import warnings

import pytest

from repro.cli import main
from repro.core.diac import DiacConfig
from repro.dse import (
    DesignPoint,
    evaluate_point,
    migrate_store,
    open_store,
    record_to_dict,
    ResultStore,
    SweepEngine,
    SweepRequest,
    SweepSpec,
)
from repro.dse.aggregate import SweepAggregator
from repro.dse.pareto import record_front
from repro.dse.planner import fetch_records
from repro.dse.scoring import best_pdp_by_group
from repro.dse.sqlite_store import SqliteResultStore
from repro.dse.store import JsonlResultStore, detect_backend
from repro.energy.scenarios import ScenarioSpec
from repro.metrics.robustness import robustness_report
from repro.suite import load_circuit

BACKENDS = ("jsonl", "sqlite")

#: Two-point, one-scenario spec most tests sweep.
SMALL_SPEC = SweepSpec(
    circuits=("s27",), policies=(3,), budget_scales=(0.5, 1.0),
    safe_zones=(True,),
)

#: The same axes grown by one budget scale (a supported resume shape).
GROWN_SPEC = SweepSpec(
    circuits=("s27",), policies=(3,), budget_scales=(0.5, 1.0, 2.0),
    safe_zones=(True,),
)


def make_store(tmp_path, backend, **kwargs):
    return open_store(
        tmp_path / f"results.{backend}", backend=backend, **kwargs
    )


def sorted_dicts(records):
    """Canonical byte-level view used for bit-identity assertions."""
    return sorted(
        json.dumps(record_to_dict(r), sort_keys=True) for r in records
    )


@pytest.fixture(scope="module")
def netlists():
    return {"s27": load_circuit("s27")}


@pytest.fixture(scope="module")
def base_record(netlists):
    record = evaluate_point(netlists["s27"], DesignPoint())
    record.circuit = "s27"
    return record


def mint_records(base_record, n):
    """Clone one real evaluation into ``n`` records with distinct keys.

    Budget scales start at 3.0 so minted keys never collide with the
    sweep specs above (0.5 / 1.0 / 2.0).
    """
    return [
        dataclasses.replace(
            base_record,
            point=dataclasses.replace(
                base_record.point, budget_scale=3.0 + i / 4096.0
            ),
        )
        for i in range(n)
    ]


class TestProtocolConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_store_satisfies_protocol(self, tmp_path, backend):
        assert isinstance(make_store(tmp_path, backend), ResultStore)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_surface(self, tmp_path, backend, base_record):
        records = mint_records(base_record, 8)
        store = make_store(tmp_path, backend)
        store.extend(records[:4])
        for record in records[4:]:
            store.extend([record])
        assert store.count() == 8
        assert store.keys() == {r.key() for r in records}
        label = base_record.scenario.label()
        group = list(store.iter_records(scenario=label, circuit="s27"))
        assert len(group) == 8
        assert list(store.iter_records(circuit="not-a-circuit")) == []
        fronts = SweepAggregator.from_store(store).fronts()
        assert fronts[(label, "s27")] == record_front(records)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_key_queries_last_write(
        self, tmp_path, backend, base_record
    ):
        first, second = mint_records(base_record, 1)[0], None
        second = dataclasses.replace(first, pdp_js=first.pdp_js * 2)
        store = make_store(tmp_path, backend)
        store.extend([first])
        store.extend([second])
        task = (first.key(), first.circuit, first.scenario, first.point)
        assert fetch_records(store, [task])[first.key()].pdp_js == (
            second.pdp_js
        )
        assert store.load()[-1].pdp_js == second.pdp_js

    def test_keys_identical_across_backends(self, tmp_path, base_record):
        records = mint_records(base_record, 16)
        stores = [make_store(tmp_path, b) for b in BACKENDS]
        for store in stores:
            store.extend(records)
        assert stores[0].keys() == stores[1].keys()
        assert sorted_dicts(stores[0].load()) == sorted_dicts(
            stores[1].load()
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metadata_round_trip(self, tmp_path, backend):
        store = make_store(tmp_path, backend)
        store.set_metadata(spec_fingerprint={"axes": "abc"})
        meta = make_store(tmp_path, backend).get_metadata()
        assert meta["spec_fingerprint"] == {"axes": "abc"}
        assert meta["schema_version"] == 1


class TestBackendDetection:
    def test_extension_detection(self, tmp_path):
        assert detect_backend(tmp_path / "r.jsonl") == "jsonl"
        for suffix in (".sqlite", ".sqlite3", ".db"):
            assert detect_backend(tmp_path / f"r{suffix}") == "sqlite"

    def test_magic_bytes_beat_extension(self, tmp_path, base_record):
        # A JSONL store that merely *looks* like a database must not be
        # handed to sqlite3 (and vice versa): content wins over name.
        disguised = tmp_path / "r.db"
        JsonlResultStore(disguised).extend([base_record])
        assert detect_backend(disguised) == "jsonl"
        actual = tmp_path / "r.jsonl"
        SqliteResultStore(actual).close()
        assert detect_backend(actual) == "sqlite"
        assert isinstance(open_store(disguised), JsonlResultStore)
        assert isinstance(open_store(actual), SqliteResultStore)


class TestMigrate:
    def test_round_trip_is_exact(self, tmp_path, base_record):
        records = mint_records(base_record, 12)
        source = JsonlResultStore(tmp_path / "a.jsonl")
        source.extend(records)
        source.set_metadata(spec_fingerprint={"axes": "deadbeef"})

        db = SqliteResultStore(tmp_path / "b.sqlite")
        assert migrate_store(source, db) == 12
        back = JsonlResultStore(tmp_path / "c.jsonl")
        assert migrate_store(db, back) == 12

        assert sorted_dicts(back.load()) == sorted_dicts(records)
        assert db.get_metadata()["spec_fingerprint"] == {"axes": "deadbeef"}
        assert back.get_metadata()["spec_fingerprint"] == {
            "axes": "deadbeef"
        }

    def test_cli_migrate_and_stats(self, tmp_path, base_record, capsys):
        path = tmp_path / "r.jsonl"
        store = JsonlResultStore(path)
        store.extend(mint_records(base_record, 5))
        dest = tmp_path / "r.sqlite"
        assert main(["store", "migrate", str(path), str(dest)]) == 0
        assert "migrated 5 record(s)" in capsys.readouterr().out

        assert main(["store", "stats", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "(sqlite)" in out
        assert "records: 5" in out
        assert "schema version: 1" in out

        assert main(["store", "compact", str(dest)]) == 0
        assert "5 records kept" in capsys.readouterr().out

    def test_cli_stats_scans_a_damaged_store_once(
        self, tmp_path, base_record, capsys
    ):
        # The aggregates and the record count come from one scan, so a
        # torn middle line is warned about once, not once per read.
        path = tmp_path / "r.jsonl"
        JsonlResultStore(path).extend(mint_records(base_record, 3))
        lines = path.read_text("utf-8").splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        path.write_text("".join(lines), "utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["store", "stats", str(path)]) == 0
        torn = [
            w for w in caught if "skipped 1 malformed line(s)" in str(w.message)
        ]
        assert len(torn) == 1
        out = capsys.readouterr().out
        assert "records: 2" in out
        assert "malformed lines skipped: 1" in out

    def test_cli_migrate_refuses_same_file(self, tmp_path, base_record):
        path = tmp_path / "r.jsonl"
        JsonlResultStore(path).extend([base_record])
        with pytest.raises(SystemExit, match="same file"):
            main(["store", "migrate", str(path), str(path)])


class TestSqliteDurability:
    def test_wal_tail_torn_by_crash_is_discarded(
        self, tmp_path, base_record
    ):
        # Committed transactions live in the WAL until checkpoint; a
        # power cut mid-append leaves a torn frame after them.  SQLite's
        # recovery must replay the committed frames and ignore the tear
        # — the analogue of the JSONL torn-tail guarantee.
        path = tmp_path / "r.sqlite"
        store = SqliteResultStore(path, fsync_every=1)
        records = mint_records(base_record, 6)
        store.extend(records)
        wal = path.with_name(path.name + "-wal")
        assert wal.exists() and wal.stat().st_size > 0
        with wal.open("ab") as handle:
            handle.write(b"\x00\x17torn frame from a power cut")
        reopened = SqliteResultStore(path)
        assert sorted_dicts(reopened.load()) == sorted_dicts(records)
        assert reopened.keys() == {r.key() for r in records}

    def test_newer_schema_version_refused(self, tmp_path):
        path = tmp_path / "r.sqlite"
        SqliteResultStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
            )
        with pytest.raises(ValueError, match="schema"):
            SqliteResultStore(path)

    def test_compact_truncates_wal(self, tmp_path, base_record):
        path = tmp_path / "r.sqlite"
        store = SqliteResultStore(path)
        store.extend(mint_records(base_record, 6))
        wal = path.with_name(path.name + "-wal")
        assert wal.stat().st_size > 0
        assert store.compact() == 0
        assert wal.stat().st_size == 0
        assert store.count() == 6

    def test_rewritten_key_is_the_newest_row(self, tmp_path, base_record):
        # Every write is a new row, so a cursor taken before a key is
        # written again reads that write — also when the key's old row
        # was the newest one.
        store = SqliteResultStore(tmp_path / "r.sqlite")
        records = mint_records(base_record, 3)
        store.extend(records)
        cursor = store.last_rowid()
        again = [
            dataclasses.replace(r, pdp_js=r.pdp_js * 2)
            for r in (records[2], records[0])
        ]
        for record in again:
            store.extend([record])
        fresh, after = store.records_after(cursor)
        assert [r.pdp_js for r in fresh] == [r.pdp_js for r in again]
        assert store.records_after(after) == ([], after)
        assert store.count() == 3
        assert [r.key() for r in store.load()] == [
            records[1].key(), records[2].key(), records[0].key()
        ]


class TestEngineResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_uses_index_not_full_load(
        self, tmp_path, backend, netlists, base_record, monkeypatch
    ):
        # A 10k-record store: if resume loaded it wholesale this test
        # would still pass timing-wise, so the load path is poisoned
        # outright — the acceptance is "never calls load()".
        store = make_store(tmp_path, backend)
        first = SweepEngine(workers=1, store=store).submit(
            SweepRequest(spec=SMALL_SPEC),
            netlists=netlists
        )
        assert first.stats.n_evaluated == 2
        store.extend(mint_records(base_record, 10_000))

        resumed_store = make_store(tmp_path, backend)

        def poisoned_load():
            raise AssertionError("resume must not call store.load()")

        monkeypatch.setattr(resumed_store, "load", poisoned_load)
        result = SweepEngine(workers=1, store=resumed_store).submit(
            SweepRequest(spec=GROWN_SPEC, resume=True),
            netlists=netlists
        )
        assert result.stats.n_resumed == 2
        assert result.stats.n_evaluated == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_search_resume_uses_index_not_full_load(
        self, tmp_path, backend, netlists, monkeypatch
    ):
        from repro.dse import DesignSpace, make_strategy

        space = DesignSpace(policies=(3,), safe_zones=(True,))
        store = make_store(tmp_path, backend)
        engine = SweepEngine(workers=1, store=store)
        first = engine.submit(
            SweepRequest(
                spec=SweepSpec(circuits=("s27",)),
                strategy=make_strategy("random", space, samples=4, seed=7)
            ),
            netlists=netlists
        )
        assert first.records

        resumed_store = make_store(tmp_path, backend)

        def poisoned_load():
            raise AssertionError("search resume must not call store.load()")

        monkeypatch.setattr(resumed_store, "load", poisoned_load)
        second = SweepEngine(workers=1, store=resumed_store).submit(
            SweepRequest(
                spec=SweepSpec(circuits=("s27",)),
                strategy=make_strategy("random", space, samples=4, seed=7),
                resume=True
            ),
            netlists=netlists
        )
        assert second.stats.n_resumed == len(first.records)
        assert second.stats.n_evaluated == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_under_other_base_config_warns(
        self, tmp_path, backend, netlists
    ):
        store = make_store(tmp_path, backend)
        SweepEngine(workers=1, store=store).submit(
            SweepRequest(spec=SMALL_SPEC),
            netlists=netlists
        )
        other = SweepEngine(
            workers=1,
            base_config=DiacConfig(granularity="level"),
            store=make_store(tmp_path, backend),
        )
        with pytest.warns(UserWarning, match="base configuration"):
            other.submit(
                SweepRequest(spec=SMALL_SPEC, resume=True),
                netlists=netlists
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grown_spec_resume_does_not_warn(
        self, tmp_path, backend, netlists
    ):
        store = make_store(tmp_path, backend)
        SweepEngine(workers=1, store=store).submit(
            SweepRequest(spec=SMALL_SPEC),
            netlists=netlists
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = SweepEngine(
                workers=1, store=make_store(tmp_path, backend)
            ).submit(
                SweepRequest(spec=GROWN_SPEC, resume=True),
                netlists=netlists
            )
        assert result.stats.n_resumed == 2


class TestAggregation:
    @pytest.fixture(scope="class")
    def scenario_records(self, netlists):
        spec = SweepSpec(
            circuits=("s27",), policies=(1, 3), budget_scales=(0.5, 1.0),
            safe_zones=(True,),
            scenarios=(ScenarioSpec(), ScenarioSpec(name="office-solar")),
        )
        return SweepEngine(workers=1).submit(
            SweepRequest(spec=spec),
            netlists=netlists
        ).records

    def test_incremental_matches_batch(self, scenario_records):
        aggregator = SweepAggregator()
        # Uneven chunks so batches straddle group boundaries.
        for start in range(0, len(scenario_records), 3):
            aggregator.add_many(scenario_records[start:start + 3])
        assert aggregator.n_records == len(scenario_records)

        assert {
            group: r.pdp_js for group, r in aggregator.best().items()
        } == best_pdp_by_group(scenario_records)

        for (scenario, circuit), front in aggregator.fronts().items():
            batch = record_front([
                r for r in scenario_records
                if r.scenario.label() == scenario and r.circuit == circuit
            ])
            assert [r.key() for r in front] == [r.key() for r in batch]

        incremental = aggregator.robustness()
        batch_entries = robustness_report(scenario_records)
        assert [
            (e.circuit, e.label, e.degradation, e.worst, e.mean, e.coverage)
            for e in incremental
        ] == [
            (e.circuit, e.label, e.degradation, e.worst, e.mean, e.coverage)
            for e in batch_entries
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_from_store_matches_in_memory(
        self, tmp_path, backend, scenario_records
    ):
        store = make_store(tmp_path, backend)
        store.extend(scenario_records)
        aggregator = SweepAggregator.from_store(store)
        direct = SweepAggregator()
        direct.add_many(scenario_records)
        assert aggregator.counts() == direct.counts()
        assert {
            g: r.key() for g, r in aggregator.best().items()
        } == {g: r.key() for g, r in direct.best().items()}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_store_backed_sweep_result_view(
        self, tmp_path, backend, netlists
    ):
        store = make_store(tmp_path, backend)
        live = SweepEngine(workers=1, store=store).submit(
            SweepRequest(spec=SMALL_SPEC),
            netlists=netlists
        )
        view = SweepAggregator.from_store(make_store(tmp_path, backend))
        assert {g: r.key() for g, r in view.best().items()} == {
            g: r.key() for g, r in live.best_by_scenario().items()
        }
        assert {
            g: [r.key() for r in front] for g, front in view.fronts().items()
        } == {
            g: [r.key() for r in front]
            for g, front in live.fronts_by_scenario().items()
        }


class TestCliParity:
    def test_sqlite_sweep_bit_identical_to_jsonl(self, tmp_path):
        base = [
            "sweep", "s27", "--policies", "3",
            "--budget-scales", "0.5", "1.0", "--safe-zone", "on",
        ]
        jsonl_path = tmp_path / "r.jsonl"
        sqlite_path = tmp_path / "r.sqlite"
        assert main([*base, "--results", str(jsonl_path)]) == 0
        assert main([
            *base, "--results", str(sqlite_path),
            "--store-backend", "sqlite",
        ]) == 0
        assert sorted_dicts(open_store(jsonl_path).load()) == sorted_dicts(
            open_store(sqlite_path).load()
        )

    def test_sqlite_chaos_sweep_matches_clean_jsonl(self, tmp_path):
        base = [
            "sweep", "s27", "--policies", "3",
            "--budget-scales", "0.5", "1.0", "--safe-zone", "on",
            "--workers", "2",
        ]
        clean = tmp_path / "clean.jsonl"
        chaotic = tmp_path / "chaotic.sqlite"
        assert main([*base, "--results", str(clean)]) == 0
        assert main([
            *base, "--results", str(chaotic), "--store-backend", "sqlite",
            "--fsync-every", "1",
            "--inject-faults", "crash;transientx2",
            "--fault-dir", str(tmp_path / "faultstate"),
        ]) == 0
        assert sorted_dicts(open_store(clean).load()) == sorted_dicts(
            open_store(chaotic).load()
        )
