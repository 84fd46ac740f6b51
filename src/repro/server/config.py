"""Configuration surface of the HTTP sketch server.

One frozen dataclass carries every operational knob — bind address,
ingest concurrency, backpressure bounds, request-size limits, and the
graceful-shutdown snapshot path — so the programmatic API
(:class:`repro.server.SketchServer`), the CLI (``python -m repro.service
serve``), and tests all configure the server the same way.
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
        keeping shard-lock waits off the event loop.  Queries the result
        cache cannot answer run on a separate one-thread query lane.
    workers:
        Number of shard-worker *processes* the store fans ingest out to
        (``repro.cluster.ShardWorkerPool``).  ``0`` — the default —
        keeps the classic single-process threaded backend.  With
        ``workers=N`` each worker owns the shards ``s`` where ``s %
        N == worker``; the parent routes every batch once and pipes
        each worker only the rows it owns, and reads fold worker deltas
        back through the associative sketch merge.  WAL appends stay in
        the parent (append-before-dispatch) so durability semantics are
        unchanged.
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
    parse_inline_bytes:
        Ingest bodies up to this size are parsed on the event loop;
        larger bodies are parsed on the executor so a big JSON/CSV/binary
        payload cannot stall concurrent requests.
    max_cache_entries:
        LRU bound of the shared query-result cache.
    snapshot_path:
        Where :meth:`~repro.server.SketchServer.shutdown` (and ``POST
        /snapshot`` without an explicit path) persists the store.
        ``None`` disables both.  Its directory doubles as the server's
        *data directory*: network-supplied ``/snapshot`` and ``/merge``
        paths are confined to it (and rejected with ``403`` when no
        snapshot path is configured).
    snapshot_on_shutdown:
        Snapshot engines that changed since the last snapshot when the
        server shuts down gracefully (requires ``snapshot_path``).
    slow_request_ms:
        Requests slower than this are logged through the structured
        slow-request log (and counted in ``/metrics``).  ``0`` disables
        the log.
    log_json:
        Route the ``repro`` loggers through one-JSON-object-per-line
        formatting with request-ID correlation
        (:func:`repro.obs.configure_json_logging`).
    trace_capacity:
        Size of the in-memory span ring buffer the serving layers
        record into.
    trace_jsonl_path:
        When set, every finished span is additionally appended to this
        JSONL file (offline trace analysis).
    wal_dir:
        When set, the server opens (or resumes) a
        :class:`repro.wal.WriteAheadLog` in this directory and attaches
        it to the store, so every acknowledged ingest batch is appended
        to the log before it is applied, ``GET /replicate`` serves the
        log tail to followers, and snapshots checkpoint the log.
        ``None`` (the default) disables the durability layer.
    wal_fsync:
        Fsync policy of the log: ``"always"`` (fsync per append),
        ``"interval"`` (flush per append, fsync at most every
        ``wal_fsync_interval`` seconds — the default), or ``"off"``.
    wal_fsync_interval:
        Seconds between fsyncs under the ``interval`` policy.
    wal_segment_bytes:
        Segment-rotation size cap of the log.
    series_interval:
        Seconds between samples of the in-process metrics time series
        (:class:`repro.obs.SeriesCollector`) that backs ``GET
        /metrics/history`` and the ``/statusz`` sparklines.  ``0``
        disables the background sampler.
    series_capacity:
        Ring-buffer capacity of each metric's time series (how many
        samples of history are retained).
    health_target_p99:
        Target p99 request latency, in seconds, that the
        ``route_p99_burn`` health rule compares the observed merged p99
        against (burn = observed / target).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    ingest_threads: int = 4
    workers: int = 0
    max_pending_batches: int = 32
    max_body_bytes: int = 8 * 1024 * 1024
    max_batch_rows: int = 100_000
    parse_inline_bytes: int = 64 * 1024
    max_cache_entries: int = 1024
    snapshot_path: str | Path | None = None
    snapshot_on_shutdown: bool = True
    slow_request_ms: float = 500.0
    log_json: bool = False
    trace_capacity: int = 2048
    trace_jsonl_path: str | Path | None = None
    wal_dir: str | Path | None = None
    wal_fsync: str = "interval"
    wal_fsync_interval: float = 0.05
    wal_segment_bytes: int = 64 * 1024 * 1024
    series_interval: float = 1.0
    series_capacity: int = 512
    health_target_p99: float = 1.0

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise InvalidParameterError(f"port must be in [0, 65535], got {self.port}")
        for attribute in (
            "ingest_threads",
            "max_pending_batches",
            "max_body_bytes",
            "max_batch_rows",
            "parse_inline_bytes",
            "max_cache_entries",
            "trace_capacity",
        ):
            value = getattr(self, attribute)
            if int(value) <= 0:
                raise InvalidParameterError(
                    f"{attribute} must be positive, got {value}"
                )
        if int(self.workers) < 0:
            raise InvalidParameterError(
                "workers must be >= 0 (0 keeps the in-process backend), "
                f"got {self.workers}"
            )
        if self.slow_request_ms < 0:
            raise InvalidParameterError(
                "slow_request_ms must be >= 0 (0 disables the slow log), "
                f"got {self.slow_request_ms}"
            )
        # literal tuple rather than repro.wal.FSYNC_POLICIES: importing
        # repro.wal here would cycle through repro.server.wire
        if self.wal_fsync not in ("always", "interval", "off"):
            raise InvalidParameterError(
                "wal_fsync must be 'always', 'interval' or 'off', got "
                f"{self.wal_fsync!r}"
            )
        if self.wal_fsync_interval < 0:
            raise InvalidParameterError(
                "wal_fsync_interval must be >= 0, got "
                f"{self.wal_fsync_interval}"
            )
        if int(self.wal_segment_bytes) <= 0:
            raise InvalidParameterError(
                "wal_segment_bytes must be positive, got "
                f"{self.wal_segment_bytes}"
            )
        if self.series_interval < 0:
            raise InvalidParameterError(
                "series_interval must be >= 0 (0 disables the series "
                f"sampler), got {self.series_interval}"
            )
        if int(self.series_capacity) <= 0:
            raise InvalidParameterError(
                "series_capacity must be positive, got "
                f"{self.series_capacity}"
            )
        if self.health_target_p99 <= 0:
            raise InvalidParameterError(
                "health_target_p99 must be positive, got "
                f"{self.health_target_p99}"
            )
