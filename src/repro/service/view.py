"""Read-only HTTP JSON view over a (running or finished) sweep store.

Pure stdlib (:mod:`http.server`), pure reads: every request opens the
store fresh, replays it through
:meth:`~repro.dse.aggregate.SweepAggregator.from_store`, and renders
JSON — the server never writes, so it can watch a live sweep without
perturbing it (SQLite WAL readers do not block the writers).

Endpoints:

* ``/`` — endpoint index;
* ``/stats`` — record counts per (scenario, circuit) group, plus the
  queue's task-status and state summary when a queue is attached;
* ``/fronts`` — the per-group Pareto front and PDP-best record, as the
  store wire dicts (:func:`~repro.dse.store.record_to_dict`);
* ``/failures`` — the queue's failed-task table (empty without one);
* ``/workers`` — the queue's worker registry (empty without one).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.dse.aggregate import SweepAggregator
from repro.dse.store import open_store, record_to_dict
from repro.service.queue import LeaseQueue


def _stats_payload(store_path: Path, queue_path: Path | None) -> dict:
    """The ``/stats`` document: store group counts + queue summary."""
    store = open_store(store_path)
    try:
        aggregator = SweepAggregator.from_store(store)
    finally:
        _close(store)
    payload: dict = {
        "n_records": aggregator.n_records,
        "groups": [
            {"scenario": scenario, "circuit": circuit, "count": count}
            for (scenario, circuit), count in sorted(
                aggregator.counts().items()
            )
        ],
    }
    if queue_path is not None:
        queue = LeaseQueue(queue_path)
        try:
            payload["queue"] = {
                "tasks": queue.stats(),
                "state": queue.state(),
            }
        finally:
            queue.close()
    return payload


def _fronts_payload(store_path: Path) -> dict:
    """The ``/fronts`` document: per-group front + best, wire-encoded."""
    store = open_store(store_path)
    try:
        aggregator = SweepAggregator.from_store(store)
    finally:
        _close(store)
    best = aggregator.best()
    return {
        "groups": [
            {
                "scenario": scenario,
                "circuit": circuit,
                "best": record_to_dict(best[(scenario, circuit)]),
                "front": [record_to_dict(r) for r in front],
            }
            for (scenario, circuit), front in sorted(
                aggregator.fronts().items()
            )
        ]
    }


def _queue_payload(queue_path: Path | None, table: str) -> dict:
    """``/failures`` or ``/workers``: queue tables, or empty lists."""
    if queue_path is None:
        return {table: []}
    queue = LeaseQueue(queue_path)
    try:
        rows = (
            queue.failures() if table == "failures" else queue.workers()
        )
    finally:
        queue.close()
    return {table: rows}


def _close(store: object) -> None:
    close = getattr(store, "close", None)
    if callable(close):
        close()


class _ViewHandler(BaseHTTPRequestHandler):
    """GET-only JSON dispatch; state lives on the server object."""

    server: "SweepViewServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve one endpoint, 404 anything unknown."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/":
                payload: dict = {
                    "endpoints": [
                        "/stats", "/fronts", "/failures", "/workers",
                    ]
                }
            elif path == "/stats":
                payload = _stats_payload(
                    self.server.store_path, self.server.queue_path
                )
            elif path == "/fronts":
                payload = _fronts_payload(self.server.store_path)
            elif path in ("/failures", "/workers"):
                payload = _queue_payload(
                    self.server.queue_path, path.lstrip("/")
                )
            else:
                self._reply(404, {"error": f"unknown endpoint {path}"})
                return
        except Exception as error:  # never kill the serving thread
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._reply(200, payload)

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr chatter."""


class SweepViewServer(ThreadingHTTPServer):
    """The read-only sweep view server.

    Args:
        store_path: result store to render (any backend; SQLite in
            service deployments).
        queue_path: optional :class:`~repro.service.queue.LeaseQueue`
            for the ``/failures``/``/workers`` endpoints and the queue
            block of ``/stats``.
        host: bind address (default loopback).
        port: bind port; 0 picks an ephemeral one (read it back via
            :attr:`port`).
    """

    def __init__(
        self,
        store_path: str | Path,
        queue_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.store_path = Path(store_path)
        self.queue_path = (
            Path(queue_path) if queue_path is not None else None
        )
        super().__init__((host, port), _ViewHandler)

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0``)."""
        return self.server_address[1]
