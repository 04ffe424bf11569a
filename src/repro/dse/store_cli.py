"""The ``repro store`` subcommands: stats, compact, migrate.

Operational tooling for result stores that outgrow "just cat the
JSONL": inspect a store's backend/schema/groups without loading it into
a sweep, reclaim space after crash-heals, and move records between the
JSONL and SQLite backends (both directions) without losing the spec
fingerprint.  :func:`register_store_parser` adds them to the main
parser.
"""

from __future__ import annotations

import argparse
from pathlib import Path

_BACKEND_CHOICES = ("auto", "jsonl", "sqlite")


def _open(path: str, backend: str, fsync_every: int = 0):
    """Open a store CLI-style: unknown backends exit cleanly."""
    from repro.dse.store import open_store

    try:
        return open_store(path, backend=backend, fsync_every=fsync_every)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def cmd_store_stats(args: argparse.Namespace) -> int:
    """Summarize one store: backend, metadata, per-group aggregates."""
    from repro.dse.aggregate import SweepAggregator
    from repro.dse.store import detect_backend
    from repro.metrics import format_table

    if not Path(args.store).exists():
        raise SystemExit(f"error: no store at {args.store}")
    backend = (
        args.backend if args.backend != "auto" else detect_backend(args.store)
    )
    store = _open(args.store, backend)
    meta = store.get_metadata()
    keys: set[tuple] = set()

    def scanned():
        """The store's records in one scan, collecting their keys."""
        for record in store.iter_records():
            keys.add(record.key())
            yield record

    aggregator = SweepAggregator.from_records(scanned())
    counts = aggregator.counts()
    best = aggregator.best()
    fronts = aggregator.fronts()

    print(f"store: {args.store} ({backend})")
    print(f"schema version: {meta.get('schema_version', 'unrecorded')}")
    fingerprint = meta.get("spec_fingerprint")
    if isinstance(fingerprint, dict):
        print(
            f"spec fingerprint: base-config {fingerprint.get('base_config')}"
            f", axes {fingerprint.get('axes')}"
        )
    print(f"records: {len(keys)}")
    skipped = getattr(store, "last_load_skipped", 0)
    if skipped:
        print(
            f"malformed lines skipped: {skipped} "
            "(run 'repro store compact' to drop them)"
        )
    if counts:
        rows = [
            [
                scenario,
                circuit,
                counts[(scenario, circuit)],
                len(fronts[(scenario, circuit)]),
                f"{best[(scenario, circuit)].pdp_js:.3e}",
                best[(scenario, circuit)].point.label(),
            ]
            for scenario, circuit in counts
        ]
        print()
        print(
            format_table(
                ["scenario", "circuit", "records", "front", "best PDP (Js)",
                 "best design"],
                rows,
                title="per-(scenario, circuit) aggregates",
            )
        )
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Compact one store (drop stale/damaged entries, reclaim space)."""
    if not Path(args.store).exists():
        raise SystemExit(f"error: no store at {args.store}")
    store = _open(args.store, args.backend)
    dropped = store.compact()
    print(
        f"{args.store}: compacted, {dropped} stale/damaged "
        f"entr{'y' if dropped == 1 else 'ies'} dropped, "
        f"{store.count()} records kept"
    )
    return 0


def cmd_store_migrate(args: argparse.Namespace) -> int:
    """Copy a store to another backend (JSONL <-> SQLite)."""
    from repro.dse.store import migrate_store

    if not Path(args.source).exists():
        raise SystemExit(f"error: no store at {args.source}")
    if Path(args.source).resolve() == Path(args.dest).resolve():
        raise SystemExit("error: source and destination are the same file")
    source = _open(args.source, args.from_backend)
    dest = _open(args.dest, args.to_backend)
    n_records = migrate_store(source, dest)
    print(f"migrated {n_records} record(s): {args.source} -> {args.dest}")
    return 0


def register_store_parser(sub) -> None:
    """Attach the ``store`` subcommand tree to the main CLI parser."""
    p_store = sub.add_parser(
        "store", help="inspect and manage sweep result stores"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_stats = store_sub.add_parser(
        "stats", help="backend, metadata and per-group aggregates"
    )
    p_stats.add_argument("store", help="result store file")
    p_stats.add_argument(
        "--backend", choices=_BACKEND_CHOICES, default="auto",
        help="force the backend instead of auto-detecting",
    )
    p_stats.set_defaults(func=cmd_store_stats)

    p_compact = store_sub.add_parser(
        "compact",
        help="drop stale/damaged entries (JSONL) or checkpoint the WAL "
        "(SQLite)",
    )
    p_compact.add_argument("store", help="result store file")
    p_compact.add_argument(
        "--backend", choices=_BACKEND_CHOICES, default="auto",
        help="force the backend instead of auto-detecting",
    )
    p_compact.set_defaults(func=cmd_store_compact)

    p_migrate = store_sub.add_parser(
        "migrate", help="copy records between backends (JSONL <-> SQLite)"
    )
    p_migrate.add_argument("source", help="store to read")
    p_migrate.add_argument("dest", help="store to (re)write")
    p_migrate.add_argument(
        "--from-backend", choices=_BACKEND_CHOICES, default="auto",
        help="source backend (default: auto-detect)",
    )
    p_migrate.add_argument(
        "--to-backend", choices=_BACKEND_CHOICES, default="auto",
        help="destination backend (default: auto-detect by extension)",
    )
    p_migrate.set_defaults(func=cmd_store_migrate)
