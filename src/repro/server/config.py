"""Configuration surface of the HTTP sketch server.

One frozen dataclass carries the knobs of the HTTP layer itself — bind
address, ingest concurrency, backpressure bounds, request-size limits,
the graceful-shutdown snapshot path and the observability surface — so
the programmatic API (:class:`repro.server.SketchServer`), the CLI
(``python -m repro.service serve``), and tests all configure the server
the same way.  The write-ahead log that backs the store is not server
configuration: the caller attaches it to the
:class:`repro.service.SketchStore` before handing it over and closes it
after shutdown (the ``serve`` CLI does so for ``--wal-dir``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import InvalidParameterError

__all__ = ["ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """Operational knobs of a :class:`repro.server.SketchServer`.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` asks the OS for an ephemeral port
        (the bound port is reported by ``SketchServer.port``).
    ingest_threads:
        Size of the thread-pool executor that runs store ingests,
        snapshots, merges, replication and the health/metrics pages,
        keeping engine-lock waits off the event loop.  Queries the result
        cache cannot answer run on the event loop when their engine is
        free, and otherwise on a separate one-thread query lane.
    max_pending_batches:
        Per-engine bound on ingest batches that may be queued or running
        at once.  Requests beyond the bound are rejected with ``503`` and
        a ``Retry-After`` header — the backpressure signal.  A
        server-wide bound of ``max_pending_batches * ingest_threads``
        additionally engages *before* request parsing, keeping executor
        queue depth and parsed-row memory bounded even when the engine
        name is not known yet.
    max_body_bytes:
        Largest accepted request body; larger payloads get ``413``.
    max_batch_rows:
        Largest accepted number of update rows in one ingest request;
        larger batches get ``413`` (split the batch instead).
    snapshot_path:
        Where :meth:`~repro.server.SketchServer.shutdown` (and ``POST
        /snapshot`` without an explicit path) persists the store.
        ``None`` disables both.  Its directory doubles as the server's
        *data directory*: network-supplied ``/snapshot`` and ``/merge``
        paths are confined to it (and rejected with ``403`` when no
        snapshot path is configured).  A graceful shutdown snapshots
        the engines that changed since the last snapshot.
    slow_request_ms:
        Requests slower than this are logged through the structured
        slow-request log (and counted in ``/metrics``).  ``0`` disables
        the log.
    log_json:
        Route the ``repro`` loggers through one-JSON-object-per-line
        formatting with request-ID correlation
        (:func:`repro.obs.configure_json_logging`).
    series_interval:
        Seconds between samples of the in-process metrics time series
        (:class:`repro.obs.SeriesCollector`) that backs ``GET
        /metrics/history`` and the ``/statusz`` sparklines.  ``0``
        disables the background sampler.
    health_target_p99:
        Target p99 request latency, in seconds, that the
        ``route_p99_burn`` health rule compares the observed merged p99
        against (burn = observed / target).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    ingest_threads: int = 4
    max_pending_batches: int = 32
    max_body_bytes: int = 8 * 1024 * 1024
    max_batch_rows: int = 100_000
    snapshot_path: str | Path | None = None
    slow_request_ms: float = 500.0
    log_json: bool = False
    series_interval: float = 1.0
    health_target_p99: float = 1.0

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise InvalidParameterError(f"port must be in [0, 65535], got {self.port}")
        for attribute in (
            "ingest_threads",
            "max_pending_batches",
            "max_body_bytes",
            "max_batch_rows",
        ):
            value = getattr(self, attribute)
            if int(value) <= 0:
                raise InvalidParameterError(
                    f"{attribute} must be positive, got {value}"
                )
        # each check is written so that NaN fails it too
        if not self.slow_request_ms >= 0:
            raise InvalidParameterError(
                "slow_request_ms must be >= 0 (0 disables the slow log), "
                f"got {self.slow_request_ms}"
            )
        if not self.series_interval >= 0:
            raise InvalidParameterError(
                "series_interval must be >= 0 (0 disables the series "
                f"sampler), got {self.series_interval}"
            )
        if not self.health_target_p99 > 0:
            raise InvalidParameterError(
                "health_target_p99 must be positive, got "
                f"{self.health_target_p99}"
            )
