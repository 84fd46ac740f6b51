"""The asyncio HTTP front-end of the sketch service.

:class:`SketchServer` turns a :class:`repro.service.SketchStore` into a
long-lived network service using nothing but the standard library: an
``asyncio`` accept loop speaking the minimal HTTP/1.1 of
:mod:`repro.server.protocol`, with every store operation — ingest,
query, snapshot, merge — pushed onto a thread-pool executor so the event
loop never blocks on shard locks or estimator math.

Endpoints
---------
Every endpoint lives under the versioned ``/v1`` prefix; any other path
is ``404``.  The whole table is generated from one route spec
(:data:`ROUTE_SPEC`).

=======  ===============  =================================================
method   path             action
=======  ===============  =================================================
POST     /v1/engines      create a named engine (JSON config)
POST     /v1/ingest       ingest a JSON, CSV or binary update batch (bounded
                          per-engine backpressure; oversized batches 413)
GET      /v1/query        distinct / sum / dominance / l1 through the
                          version-cached :class:`QueryPlanner`
POST     /v1/snapshot     persist the store through the binary codec
POST     /v1/merge        fold a peer snapshot file into the store
GET      /v1/replicate    WAL tail (or full store delta) since
                          ?since=<lsn> for follower catch-up (requires
                          ``wal_dir``); ``?follower=<id>`` opts into lag
                          tracking
GET      /v1/healthz      liveness + uptime; ``?verbose=1`` adds the
                          health rule engine's verdict with reasons
GET      /v1/statusz      human-readable status page (uptime, engines,
                          worker probes, sparklines, health reasons)
GET      /v1/metrics      throughput, cache hit rate, per-engine and
                          per-worker probes
GET      /v1/metrics/history  ring-buffered time series of one metric
                          (``?metric=<name>&window=<seconds>``)
=======  ===============  =================================================

Concurrency model
-----------------
The event loop parses requests and serializes responses; ingest and
query handlers ``await`` the executor.  Per-engine in-flight ingest
batches are bounded by ``ServerConfig.max_pending_batches`` — beyond the
bound the server answers ``503`` with ``Retry-After`` instead of letting
queues grow without bound.  Because the store's per-shard locking makes
concurrent ingest of pre-aggregated updates equal to serial ingest, any
interleaving of HTTP clients yields bit-identical sketches.

Graceful shutdown drains in-flight requests, closes idle keep-alive
connections, and — when ``snapshot_path`` is configured — writes a final
snapshot if any engine changed since the last one (the engines' cheap
``probe``/version counters are the dirty check).
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import html
import io
import logging
import math
import signal
import socket
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    UnknownStoreError,
)
from repro import __version__
from repro.obs import (
    HealthMonitor,
    HealthRule,
    SeriesCollector,
    SlowRequestLog,
    configure_json_logging,
    default_recorder,
    new_request_id,
    prom,
    request_context,
    span,
)
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    HttpError,
    Request,
    json_response_bytes,
    read_request,
    response_bytes,
)
from repro.server.routing import Router
from repro.server.wire import (
    REPLICA_CONTENT_TYPE,
    REPLICA_MODE_STORE,
    REPLICA_MODE_WAL,
    decode_batches,
    encode_replica,
)
from repro.service.queries import Query, query_value_json
from repro.service.store import (
    INGEST_FORMATS,
    IngestRequest,
    SketchStore,
    group_rows,
    json_columns,
    json_rows,
)

__all__ = ["ROUTE_SPEC", "RawResponse", "SketchServer"]

#: The one route spec the dispatch table is generated from: ``(method,
#: path, handler attribute)``.  :meth:`Router.from_spec` mounts each
#: entry under ``/v1``.
ROUTE_SPEC: tuple[tuple[str, str, str], ...] = (
    ("GET", "/healthz", "_handle_healthz"),
    ("GET", "/statusz", "_handle_statusz"),
    ("GET", "/metrics", "_handle_metrics"),
    ("GET", "/metrics/history", "_handle_metrics_history"),
    ("POST", "/engines", "_handle_create_engine"),
    ("POST", "/ingest", "_handle_ingest"),
    ("GET", "/query", "_handle_query"),
    ("POST", "/snapshot", "_handle_snapshot"),
    ("POST", "/merge", "_handle_merge"),
    ("GET", "/replicate", "_handle_replicate"),
)

#: query kinds reachable over HTTP — ``custom`` needs a Python callable
#: and is therefore CLI/API-only
_HTTP_QUERY_KINDS = ("distinct", "sum", "dominance", "l1")

_TRUE_VALUES = ("1", "true", "yes")

#: the ingest formats served over HTTP, keyed by ``Content-Type``
_HTTP_FORMAT_BY_CONTENT_TYPE = {
    fmt.content_type: name
    for name, fmt in INGEST_FORMATS.items()
    if fmt.content_type is not None
}


#: incoming ``X-Request-Id`` values are adopted only when they look
#: like header-safe tokens of sane length; anything else gets a fresh ID
_MAX_REQUEST_ID_CHARS = 128


class RawResponse(NamedTuple):
    """A handler payload serialized verbatim instead of as JSON.

    Carries the body bytes and their ``Content-Type`` — the Prometheus
    exposition endpoint returns one of these.
    """

    body: bytes
    content_type: str


def _flag(params: dict[str, str], name: str) -> bool:
    return params.get(name, "").lower() in _TRUE_VALUES


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float]) -> str:
    """A unicode sparkline of ``values`` for the ``/statusz`` page."""
    finite = [value for value in values if math.isfinite(value)]
    if not finite:
        return ""
    low, high = min(finite), max(finite)
    span_width = high - low
    chars = []
    for value in values:
        if not math.isfinite(value):
            chars.append(" ")
        elif span_width <= 0.0:
            chars.append(_SPARK_CHARS[0])
        else:
            index = int((value - low) / span_width * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[index])
    return "".join(chars)


def _adopt_request_id(raw: str | None) -> str:
    """The client's request ID when usable, else a fresh one.

    Propagating the caller's ID keeps one logical request correlated
    across hops (client -> server -> logs/traces); bounding and
    vetting it keeps log/trace fields single-line and printable.
    """
    if raw:
        candidate = raw.strip()
        if (
            candidate
            and len(candidate) <= _MAX_REQUEST_ID_CHARS
            and candidate.isprintable()
        ):
            return candidate
    return new_request_id()


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on the connection.

    Request/response round-trips are single small writes in each
    direction; letting Nagle batch them against delayed ACKs costs
    milliseconds per request and caps a keep-alive connection at a few
    hundred requests/second.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        with contextlib.suppress(OSError):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class SketchServer:
    """Asyncio HTTP server over one :class:`SketchStore`.

    Examples
    --------
    Programmatic use (tests, benchmarks, embedding)::

        server = SketchServer(store, ServerConfig(port=0))
        await server.start()          # server.port is now bound
        ...
        await server.shutdown()

    Blocking use (the ``python -m repro.service serve`` CLI)::

        SketchServer(store, config).run()   # returns after SIGINT/SIGTERM
    """

    def __init__(self, store: SketchStore, config: ServerConfig | None = None) -> None:
        if not isinstance(store, SketchStore):
            raise InvalidParameterError(
                f"expected a SketchStore, got {type(store).__name__}"
            )
        self.store = store
        self.config = config if config is not None else ServerConfig()
        self.planner = store.planner()
        self.planner.resize(self.config.max_cache_entries)
        self.metrics = ServerMetrics()
        if self.config.log_json:
            configure_json_logging()
        self.slow_log = SlowRequestLog(
            self.config.slow_request_ms,
            logger=logging.getLogger("repro.server"),
        )
        # the process-wide recorder: the service layers underneath span
        # into it too, so one ring holds a request's full story
        self.trace = default_recorder()
        self.trace.configure(
            capacity=self.config.trace_capacity,
            jsonl_path=self.config.trace_jsonl_path,
        )
        self.port: int | None = None
        self.router = Router.from_spec(
            (method, path, getattr(self, attribute))
            for method, path, attribute in ROUTE_SPEC
        )

        # durability: open (or resume) the write-ahead log and attach it
        # before serving, so the very first acknowledged ingest is
        # logged.  Imported lazily — repro.wal pulls in the wire module,
        # a module-level import here would cycle.
        self._owns_wal = False
        if self.config.wal_dir is not None and self.store.wal is None:
            from repro.wal import WriteAheadLog

            self.store.attach_wal(
                WriteAheadLog(
                    self.config.wal_dir,
                    fsync=self.config.wal_fsync,
                    fsync_interval=self.config.wal_fsync_interval,
                    segment_bytes=self.config.wal_segment_bytes,
                )
            )
            self._owns_wal = True

        # multiprocess ingest plane: fan shard groups out to worker
        # processes (repro.cluster).  Started after the WAL attach so a
        # worker killed later can be replayed from the log tail.
        self._owns_pool = False
        if self.config.workers > 0 and not self.store.has_workers:
            self.store.start_workers(self.config.workers)
            self._owns_pool = True

        self._executor = ThreadPoolExecutor(
            max_workers=self.config.ingest_threads,
            thread_name_prefix="sketch-server",
        )
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._shutdown_done = False
        #: engine name -> in-flight ingest batches (event-loop only)
        self._pending: dict[str, int] = {}
        #: server-wide ingest requests being parsed or applied
        self._ingest_requests = 0
        self._active_requests = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        #: engine name -> (version, change_tick) at the last snapshot
        self._clean_marks: dict[str, tuple[int, int]] = {}
        self.last_shutdown_snapshot: Path | None = None

        # fleet-health observability: the metrics time series behind
        # /metrics/history and /statusz, the follower positions the WAL
        # lag rules read, and the health rule engine itself (built last
        # so its probes can close over everything above, including an
        # attached WAL)
        self.series = SeriesCollector(
            interval=self.config.series_interval or 1.0,
            capacity=self.config.series_capacity,
        )
        #: follower id -> {"position": lsn, "last_poll": monotonic}
        self._followers: dict[str, dict] = {}
        self.health = HealthMonitor(self._build_health_rules())
        self._series_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SketchServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise InvalidParameterError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.series_interval > 0:
            self._series_task = asyncio.get_running_loop().create_task(
                self._series_ticker()
            )
        return self

    async def shutdown(self, drain_seconds: float = 10.0) -> None:
        """Stop accepting, drain in-flight requests, snapshot if dirty.

        Idempotent: the second call returns immediately.
        """
        if self._shutdown_done:
            return
        self._closing = True
        if self._series_task is not None:
            self._series_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._series_task
            self._series_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_seconds
        while self._active_requests and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # idle keep-alive connections sit in read_request(); closing the
        # transport unblocks them with a clean EOF
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=drain_seconds)
        self._executor.shutdown(wait=True)
        if self._owns_pool:
            # fold outstanding worker deltas into the parent before the
            # final snapshot looks at engine state
            self.store.stop_workers()
            self._owns_pool = False
        if (
            self.config.snapshot_on_shutdown
            and self.config.snapshot_path is not None
            and self._dirty_engines()
        ):
            path = Path(self.config.snapshot_path)
            _, marks = self.store.snapshot_marked(path)
            self._clean_marks = dict(marks)
            self.last_shutdown_snapshot = path
        if self._owns_wal and self.store.wal is not None:
            # after the final snapshot: a clean shutdown leaves a
            # checkpointed log, so the next boot replays (almost) nothing
            self.store.wal.close()
        if self.config.trace_jsonl_path is not None:
            # stop the live JSONL export this server attached to the
            # process-wide recorder (and close its file handle)
            self.trace.configure(jsonl_path="")
        self._shutdown_done = True

    async def serve_forever(self, on_ready=None) -> None:
        """Start (if needed), run until SIGINT/SIGTERM, shut down."""
        if self._server is None:
            await self.start()
        if on_ready is not None:
            on_ready(self)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signal_number, stop.set)
                installed.append(signal_number)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        finally:
            for signal_number in installed:
                loop.remove_signal_handler(signal_number)
            await self.shutdown()

    def run(self, on_ready=None) -> None:
        """Blocking entry point: serve until SIGINT/SIGTERM."""
        asyncio.run(self.serve_forever(on_ready=on_ready))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        _set_nodelay(writer)
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                request = await read_request(reader, self.config.max_body_bytes)
            except HttpError as error:
                # framing is unreliable after a parse error: answer and
                # close rather than misinterpret the rest of the stream
                self.metrics.record_response(error.status)
                writer.write(
                    json_response_bytes(
                        error.status,
                        {"error": error.message},
                        keep_alive=False,
                        extra_headers=error.extra_headers
                        + (("X-Request-Id", new_request_id()),),
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            status, payload, extra_headers = await self._dispatch(request)
            keep_alive = request.keep_alive and not self._closing
            if isinstance(payload, RawResponse):
                response = response_bytes(
                    status,
                    payload.body,
                    content_type=payload.content_type,
                    keep_alive=keep_alive,
                    extra_headers=extra_headers,
                )
            else:
                response = json_response_bytes(
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=extra_headers,
                )
            writer.write(response)
            await writer.drain()
            if not keep_alive:
                return

    async def _dispatch(self, request: Request) -> tuple[int, object, tuple]:
        request_id = _adopt_request_id(request.headers.get("x-request-id"))
        # bounded-cardinality label: the registered route, or one
        # shared label for every unknown path or method
        route = self.router.label(request.method, request.path)
        self.metrics.record_request(route)
        self._active_requests += 1
        extra_headers: tuple = ()
        started = time.perf_counter()
        with request_context(request_id), span(
            "http.request", route=route
        ) as span_attrs:
            try:
                handler = self.router.resolve(request.method, request.path)
                status, payload = await handler(request)
            except HttpError as error:
                status, payload = error.status, {"error": error.message}
                extra_headers = error.extra_headers
            except UnknownStoreError as error:
                # KeyError subclass: str() would repr-quote the message
                status, payload = 404, {"error": error.args[0]}
            except FileNotFoundError as error:
                status, payload = 404, {"error": str(error)}
            except (ReproError, ValueError, TypeError, KeyError) as error:
                status, payload = 400, {"error": f"{error}"}
            except Exception as error:  # noqa: BLE001 - last-resort 500
                traceback.print_exc(file=sys.stderr)
                status, payload = 500, {"error": f"internal error: {error!r}"}
            finally:
                self._active_requests -= 1
            span_attrs["status"] = status
        elapsed = time.perf_counter() - started
        self.metrics.record_duration(route, elapsed)
        if self.slow_log.observe(route, elapsed, status=status, request_id=request_id):
            self.metrics.record_slow_request()
        self.metrics.record_response(status)
        return status, payload, extra_headers + (("X-Request-Id", request_id),)

    async def _in_executor(self, fn, *args, **kwargs):
        # copy_context() carries the request ID and open-span contextvars
        # onto the executor thread, so spans recorded there still
        # correlate with the request that caused them
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        return await loop.run_in_executor(
            self._executor, partial(context.run, partial(fn, *args, **kwargs))
        )

    # ------------------------------------------------------------------
    # Time series + health rules
    # ------------------------------------------------------------------
    async def _series_ticker(self) -> None:
        """Background sampler feeding the metrics time series.

        Runs on the event loop — one :meth:`ServerMetrics.series_sample`
        per interval is a handful of lock-protected reads, far cheaper
        than an executor hop.  A failing sample is logged and skipped;
        the ticker itself must survive anything short of cancellation.
        """
        logger = logging.getLogger("repro.server")
        while True:
            await asyncio.sleep(self.config.series_interval)
            try:
                self.series.collect(
                    self.metrics.series_sample(
                        self.store, self.planner, dict(self._pending)
                    )
                )
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - sampler must keep ticking
                logger.exception("metrics series sample failed")

    def _build_health_rules(self) -> tuple[HealthRule, ...]:
        """The serving stack's declarative health rules.

        Each probe returns a *badness* (higher is worse) or ``None``
        for "no data" — a freshly started server with no followers and
        no traffic is healthy, not unknown.  Thresholds are deliberately
        conservative defaults; the sketch-shape rules are informational
        (they describe estimate quality drift, which has no universal
        bad threshold).
        """
        return (
            HealthRule(
                "wal_follower_lag",
                self._probe_follower_lag,
                warn=64,
                fail=4096,
                hysteresis=2,
                description=(
                    "records the furthest-behind registered follower "
                    "still has to replay (LSNs)"
                ),
            ),
            HealthRule(
                "wal_follower_idle",
                self._probe_follower_idle,
                warn=30.0,
                fail=300.0,
                hysteresis=2,
                description=(
                    "seconds since the quietest registered follower "
                    "last polled /replicate"
                ),
            ),
            HealthRule(
                "wal_checkpoint_age",
                self._probe_checkpoint_age,
                warn=600.0,
                fail=3600.0,
                description=(
                    "seconds of un-checkpointed WAL history a crash "
                    "would replay (0 while fully checkpointed)"
                ),
            ),
            HealthRule(
                "wal_fsync_p99",
                self._probe_fsync_p99,
                warn=0.1,
                fail=1.0,
                description="p99 of WAL fsync wall time (seconds)",
            ),
            HealthRule(
                "backpressure_503",
                self._probe_backpressure,
                warn=0.05,
                fail=0.25,
                description=(
                    "fraction of responses rejected with 503 "
                    "backpressure"
                ),
            ),
            HealthRule(
                "route_p99_burn",
                self._probe_p99_burn,
                warn=1.0,
                fail=4.0,
                description=(
                    "merged request p99 as a multiple of the "
                    "configured health_target_p99"
                ),
            ),
            HealthRule(
                "cache_miss_rate",
                self._probe_cache_miss_rate,
                warn=0.95,
                description="fraction of query-cache lookups that miss",
            ),
            HealthRule(
                "sketch_fill_ratio",
                self._probe_sketch_fill,
                description=(
                    "lowest bottom-k fill ratio (retained keys / k per "
                    "shard) across engines; informational"
                ),
            ),
            HealthRule(
                "sketch_threshold_drift",
                self._probe_threshold_drift,
                description=(
                    "worst relative spread of per-shard rank "
                    "thresholds within one instance; informational"
                ),
            ),
            HealthRule(
                "sketch_discard_ratio",
                self._probe_discard_ratio,
                description=(
                    "discarded keys as a fraction of updates across "
                    "engines; informational"
                ),
            ),
        )

    # -- probes (each returns badness or None for "no data") -----------
    def _probe_follower_lag(self) -> float | None:
        wal = self.store.wal
        if wal is None or not self._followers:
            return None
        last = wal.last_lsn
        return float(
            max(
                max(0, last - entry["position"])
                for entry in self._followers.values()
            )
        )

    def _probe_follower_idle(self) -> float | None:
        if not self._followers:
            return None
        now = time.monotonic()
        return max(
            now - entry["last_poll"] for entry in self._followers.values()
        )

    def _probe_checkpoint_age(self) -> float | None:
        wal = self.store.wal
        if wal is None:
            return None
        if wal.last_lsn <= wal.checkpoint_lsn:
            # nothing to replay: an idle, fully-checkpointed log does
            # not get older
            return 0.0
        return wal.checkpoint_age_seconds

    def _probe_fsync_p99(self) -> float | None:
        wal = self.store.wal
        if wal is None:
            return None
        p99 = wal.fsync_histogram.quantile(0.99)
        return p99 if math.isfinite(p99) else None

    def _probe_backpressure(self) -> float | None:
        responses, rejected = self.metrics.response_counts()
        if responses < 100:
            return None
        return rejected / responses

    def _probe_p99_burn(self) -> float | None:
        merged = self.metrics.merged_histogram()
        if merged.count < 100:
            return None
        return merged.quantile(0.99) / self.config.health_target_p99

    def _probe_cache_miss_rate(self) -> float | None:
        stats = self.planner.cache_stats()
        if stats["hits"] + stats["misses"] < 100:
            return None
        return 1.0 - stats["hit_rate"]

    def _bottom_k_probes(self):
        """Yield ``(engine name, probe dict, k)`` for bottom-k engines."""
        for name in self.store.names():
            try:
                engine = self.store.engine(name)
                config = engine.sketch_config or {}
                if config.get("kind") != "bottom_k":
                    continue
                yield name, engine.probe(), int(config["k"])
            except (UnknownStoreError, KeyError):
                continue

    def _probe_sketch_fill(self) -> float | None:
        fills = []
        for _, probe, k in self._bottom_k_probes():
            capacity = k * probe["n_shards"] * max(1, probe["n_instances"])
            if capacity > 0 and probe["n_updates"] > 0:
                fills.append(min(1.0, probe["retained_keys"] / capacity))
        return min(fills) if fills else None

    def _probe_threshold_drift(self) -> float | None:
        drifts = []
        for name in self.store.names():
            try:
                engine = self.store.engine(name)
                labels = engine.instance_labels
            except (UnknownStoreError, AttributeError):
                continue
            for label in labels:
                try:
                    thresholds = [
                        sketch.threshold
                        for sketch in engine.shard_sketches(label)
                    ]
                except (InvalidParameterError, AttributeError):
                    continue
                finite = [
                    threshold
                    for threshold in thresholds
                    if math.isfinite(threshold) and threshold > 0
                ]
                if len(finite) == len(thresholds) and len(finite) > 1:
                    drifts.append((max(finite) - min(finite)) / min(finite))
        return max(drifts) if drifts else None

    def _probe_discard_ratio(self) -> float | None:
        discarded = 0
        updates = 0
        for name in self.store.names():
            try:
                engine = self.store.engine(name)
                probe = engine.probe()
                labels = engine.instance_labels
            except (UnknownStoreError, AttributeError):
                continue
            updates += int(probe.get("n_updates", 0))
            for label in labels:
                try:
                    sketches = engine.shard_sketches(label)
                except (InvalidParameterError, AttributeError):
                    continue
                discarded += sum(
                    int(getattr(sketch, "n_discarded_keys", 0))
                    for sketch in sketches
                )
        if updates == 0:
            return None
        return discarded / updates

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> tuple[int, dict]:
        payload = {
            "status": "closing" if self._closing else "ok",
            "uptime_seconds": self.metrics.uptime_seconds(),
            "engines": len(self.store.names()),
        }
        if _flag(request.params, "verbose"):
            report = await self._in_executor(self.health.evaluate)
            payload["health"] = report.to_json()
        return 200, payload

    async def _handle_metrics(self, request: Request) -> tuple[int, object]:
        fmt = request.params.get("format", "json")
        if fmt == "prometheus":
            pending = dict(self._pending)
            text = await self._in_executor(self._render_prometheus, pending)
            return 200, RawResponse(text.encode("utf-8"), prom.CONTENT_TYPE)
        if fmt != "json":
            raise HttpError(
                400,
                f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'",
            )
        payload = await self._in_executor(
            self.metrics.snapshot,
            self.store,
            self.planner,
            dict(self._pending),
        )
        return 200, payload

    def _render_prometheus(self, pending: dict) -> str:
        # evaluated on the executor: one scrape carries the health
        # verdict too, so an external TSDB alerts on the same rules
        # /healthz reports
        return self.metrics.prometheus(
            self.store,
            self.planner,
            pending,
            health=self.health.evaluate(),
        )

    async def _handle_metrics_history(
        self, request: Request
    ) -> tuple[int, dict]:
        metric = request.params.get("metric")
        if not metric:
            raise HttpError(
                400,
                "metrics history requires ?metric=<name>; known metrics: "
                f"{self.series.names()}",
            )
        raw_window = request.params.get("window")
        window = None
        if raw_window is not None:
            try:
                window = float(raw_window)
            except ValueError:
                raise HttpError(
                    400,
                    f"?window must be a number of seconds, got "
                    f"{raw_window!r}",
                ) from None
            if window < 0:
                raise HttpError(400, f"?window must be >= 0, got {window}")
        # unknown metrics raise InvalidParameterError -> 400 (with the
        # known-name list in the message) via the dispatch error mapping
        return 200, self.series.history(metric, window=window)

    async def _handle_statusz(self, request: Request) -> tuple[int, object]:
        page = await self._in_executor(self._statusz_html)
        return 200, RawResponse(
            page.encode("utf-8"), "text/html; charset=utf-8"
        )

    def _statusz_html(self) -> str:
        """The human-readable ``/statusz`` page.

        Deliberately dependency-free HTML: uptime and version, the
        health verdict with its active reasons, per-engine probes, and
        unicode sparklines of the recent metric series — the
        at-a-glance page an operator opens before reaching for the
        Prometheus console.
        """
        report = self.health.evaluate()
        uptime = self.metrics.uptime_seconds()
        lines = [
            "<!DOCTYPE html>",
            "<html><head><title>repro statusz</title>",
            "<style>body{font-family:monospace;margin:2em;}"
            "table{border-collapse:collapse;}"
            "td,th{padding:2px 12px;text-align:left;}"
            ".healthy{color:#0a0;}.degraded{color:#c80;}"
            ".unhealthy{color:#c00;}</style></head><body>",
            "<h1>repro sketch server</h1>",
            "<p>version {} &middot; uptime {:.1f}s &middot; "
            "{} engines &middot; health <b class={!r}>{}</b></p>".format(
                html.escape(__version__),
                uptime,
                len(self.store.names()),
                report.status,
                report.status,
            ),
        ]
        if report.reasons:
            lines.append("<h2>active reasons</h2><ul>")
            for reason in report.reasons:
                lines.append(
                    "<li><b class={!r}>{}</b> {}: value={} warn={} "
                    "fail={}</li>".format(
                        reason["status"],
                        reason["status"],
                        html.escape(str(reason["rule"])),
                        html.escape(str(reason.get("value"))),
                        html.escape(str(reason.get("warn"))),
                        html.escape(str(reason.get("fail"))),
                    )
                )
            lines.append("</ul>")
        lines.append("<h2>health rules</h2><table>")
        lines.append(
            "<tr><th>rule</th><th>status</th><th>value</th>"
            "<th>warn</th><th>fail</th></tr>"
        )
        for name, detail in sorted(report.rules.items()):
            value = detail.get("value")
            lines.append(
                "<tr><td>{}</td><td class={!r}>{}</td><td>{}</td>"
                "<td>{}</td><td>{}</td></tr>".format(
                    html.escape(name),
                    detail["status"],
                    detail["status"],
                    "-" if value is None else f"{value:.6g}",
                    html.escape(str(detail.get("warn"))),
                    html.escape(str(detail.get("fail"))),
                )
            )
        lines.append("</table>")
        lines.append("<h2>recent series</h2><table>")
        lines.append(
            "<tr><th>metric</th><th>last</th><th>recent</th></tr>"
        )
        for name in self.series.names():
            series = self.series.series(name)
            points = series.points()
            if not points:
                continue
            values = [point.value for point in points[-60:]]
            lines.append(
                "<tr><td>{}</td><td>{:.6g}</td><td>{}</td></tr>".format(
                    html.escape(name),
                    values[-1],
                    html.escape(_sparkline(values)),
                )
            )
        lines.append("</table>")
        lines.append("<h2>engines</h2><table>")
        lines.append(
            "<tr><th>engine</th><th>version</th><th>updates</th>"
            "<th>retained keys</th></tr>"
        )
        for name in sorted(self.store.names()):
            try:
                probe = self.store.engine(name).probe()
                version, _ = self.store.state_hint(name)
            except UnknownStoreError:
                continue
            lines.append(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td>"
                "</tr>".format(
                    html.escape(str(name)),
                    version,
                    probe.get("n_updates", 0),
                    probe.get("retained_keys", 0),
                )
            )
        lines.append("</table>")
        worker_probes = self.store.worker_probes()
        if worker_probes:
            lines.append("<h2>shard workers</h2><table>")
            lines.append(
                "<tr><th>worker</th><th>pid</th><th>alive</th>"
                "<th>transport</th><th>queue depth</th><th>batches</th>"
                "<th>restarts</th></tr>"
            )
            for probe in worker_probes:
                lines.append(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td>"
                    "<td>{}</td><td>{}</td><td>{}</td></tr>".format(
                        probe.get("worker"),
                        probe.get("pid"),
                        probe.get("alive"),
                        html.escape(str(probe.get("transport"))),
                        probe.get("queue_depth"),
                        probe.get("batches"),
                        probe.get("restarts"),
                    )
                )
            lines.append("</table>")
        lines.append("</body></html>")
        return "\n".join(lines)

    async def _handle_create_engine(self, request: Request) -> tuple[int, dict]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "engine config must be a JSON object")
        # deliberately NOT marked clean afterwards: a freshly created
        # engine has never been snapshotted, so shutdown must persist it
        self.store.create_from_config(payload)
        return 201, {
            "name": payload["name"],
            "kind": payload.get("kind", "bottom_k"),
            "created": True,
        }

    async def _handle_ingest(self, request: Request) -> tuple[int, dict]:
        # The per-engine bound needs the parsed engine name, so a
        # server-wide cap engages first — before any parse work or
        # parsed rows can queue on the executor without bound.
        server_bound = self.config.max_pending_batches * self.config.ingest_threads
        if self._ingest_requests >= server_bound:
            raise HttpError(
                503,
                f"{self._ingest_requests} ingest requests in flight "
                f"(server bound {server_bound}); retry later",
                extra_headers=(("Retry-After", "1"),),
            )
        self._ingest_requests += 1
        try:
            return await self._ingest_bounded(request)
        finally:
            self._ingest_requests -= 1

    async def _ingest_bounded(self, request: Request) -> tuple[int, dict]:
        # small payloads parse faster than an executor hop costs; large
        # ones would stall every other connection, so they hop
        if len(request.body) > self.config.parse_inline_bytes:
            ingest, n_rows = await self._in_executor(self._parse_ingest, request)
        else:
            ingest, n_rows = self._parse_ingest(request)
        name = ingest.engine
        if name not in self.store:
            raise UnknownStoreError(
                f"unknown store {name!r}; create it first via POST /v1/engines"
            )
        if n_rows > self.config.max_batch_rows:
            raise HttpError(
                413,
                f"batch of {n_rows} rows exceeds the "
                f"{self.config.max_batch_rows}-row limit; split the batch",
            )
        pending = self._pending.get(name, 0)
        if pending >= self.config.max_pending_batches:
            raise HttpError(
                503,
                f"engine {name!r} has {pending} ingest batches in flight "
                f"(bound {self.config.max_pending_batches}); retry later",
                extra_headers=(("Retry-After", "1"),),
            )
        self._pending[name] = pending + 1
        started = time.perf_counter()
        try:
            version = await self._in_executor(self.store.submit, ingest)
        finally:
            remaining = self._pending.get(name, 1) - 1
            if remaining > 0:
                self._pending[name] = remaining
            else:
                self._pending.pop(name, None)
        self.metrics.record_ingest(n_rows, time.perf_counter() - started)
        return 200, {
            "name": name,
            "rows": n_rows,
            "batches": len(ingest.batches),
            "version": version,
        }

    def _parse_ingest(self, request: Request) -> tuple[IngestRequest, int]:
        """Parse an ingest body into its store-ready
        :class:`IngestRequest` plus the row count.

        ``?format=``, or else the ``Content-Type``, picks the format from
        :data:`repro.service.store.INGEST_FORMATS` (JSON by default).  A
        JSON body names its engine (``{"name", "instance", "keys",
        "values"}`` or ``{"name", "rows"}``); CSV and binary bodies name
        it in ``?name=``.  The store's decoders reject a bad row before
        any engine changes.
        """
        fmt = request.params.get("format")
        if fmt is None:
            content_type = (
                request.headers.get("content-type", "").split(";")[0].strip().lower()
            )
            fmt = _HTTP_FORMAT_BY_CONTENT_TYPE.get(content_type, "json")
        elif fmt not in _HTTP_FORMAT_BY_CONTENT_TYPE.values():
            served = ", ".join(map(repr, _HTTP_FORMAT_BY_CONTENT_TYPE.values()))
            raise HttpError(400, f"unknown ingest format {fmt!r}; use {served}")
        with span("ingest.decode", fmt=fmt, bytes=len(request.body)):
            if fmt == "json":
                name, batches = self._parse_ingest_json(request)
            else:
                name = request.params.get("name", "")
                if not name:
                    raise HttpError(400, f"{fmt} ingest requires ?name=<engine>")
                rows = INGEST_FORMATS[fmt].rows
                if rows is None:  # binary: columnar batches, decoded whole
                    batches = tuple(decode_batches(request.body))
                else:
                    text = io.StringIO(request.text(), newline="")
                    int_keys = _flag(request.params, "int_keys")
                    batches = group_rows(rows(text, int_keys=int_keys))
        n_rows = sum(len(values) for _, _, values in batches)
        return IngestRequest(engine=name, batches=batches), n_rows

    def _parse_ingest_json(self, request: Request) -> tuple[str, tuple]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "ingest body must be a JSON object")
        name = payload.get("name", request.params.get("name"))
        if not isinstance(name, str) or not name:
            raise HttpError(400, "ingest requires a string 'name'")
        if "rows" in payload:
            rows = payload["rows"]
            if not isinstance(rows, list):
                raise HttpError(400, "'rows' must be a list of triples")
            return name, group_rows(json_rows(rows))
        if "keys" in payload:
            if "instance" not in payload:
                raise HttpError(400, "column-style ingest requires an 'instance'")
            keys, values = payload["keys"], payload.get("values")
            if not isinstance(keys, list) or not isinstance(values, list):
                raise HttpError(400, "'keys' and 'values' must be JSON arrays")
            if len(keys) != len(values):
                raise HttpError(400, f"{len(keys)} keys but {len(values)} values")
            return name, (json_columns(payload["instance"], keys, values),)
        raise HttpError(400, "ingest body needs either 'rows' or 'instance'+'keys'")

    async def _handle_query(self, request: Request) -> tuple[int, dict]:
        params = request.params
        name = params.get("name")
        if not name:
            raise HttpError(400, "query requires ?name=<engine>")
        kind = params.get("kind")
        if kind not in _HTTP_QUERY_KINDS:
            raise HttpError(
                400,
                f"query kind must be one of {_HTTP_QUERY_KINDS}, "
                f"got {kind!r}",
            )
        raw_instances = params.get("instances", "")
        labels = [label for label in raw_instances.split(",") if label]
        if not labels:
            raise HttpError(
                400,
                "query requires ?instances=<label>[,<label>...]",
            )
        instances: list[object] = (
            [int(label) for label in labels]
            if _flag(params, "int_instances")
            else list(labels)
        )
        query = Query(
            kind,
            tuple(instances),
            variant=params.get("variant", "l"),
            confidence=_flag(params, "confidence"),
        )
        # cache probes are cheap enough for the event loop; only pay the
        # executor hop when the result actually needs recomputing
        result = self.planner.peek(name, query)
        if result is None:
            result = await self._in_executor(self.planner.run, name, query)
        payload = {
            "name": name,
            "kind": kind,
            "instances": labels,
            "version": result.version,
            "from_cache": result.from_cache,
            "value": query_value_json(result.value),
        }
        if result.confidence is not None:
            payload["confidence"] = result.confidence
            cv = result.confidence.get("cv")
            # fresh computations only: a cache hit re-serving the same
            # estimate must not re-weight the accuracy distribution
            if cv is not None and not result.from_cache:
                self.metrics.record_accuracy(kind, cv)
        return 200, payload

    def _resolve_data_path(self, raw: object) -> Path:
        """Confine a network-supplied snapshot/merge path.

        Network clients may only read and write inside the server's data
        directory — the directory of the configured snapshot file.
        Relative paths resolve against it; absolute paths must stay
        inside it.  Without a configured ``snapshot_path`` there is no
        data directory and caller-supplied paths are rejected, so an
        exposed server never hands out an arbitrary file-write/read
        primitive.
        """
        if self.config.snapshot_path is None:
            raise HttpError(
                403,
                "network-supplied paths are disabled: the server has no "
                "data directory (snapshot_path is not configured)",
            )
        base = Path(self.config.snapshot_path).resolve().parent
        candidate = Path(str(raw))
        if not candidate.is_absolute():
            candidate = base / candidate
        resolved = candidate.resolve()
        if not resolved.is_relative_to(base):
            raise HttpError(
                403,
                f"path {str(raw)!r} is outside the server data "
                f"directory {str(base)!r}",
            )
        return resolved

    async def _handle_snapshot(self, request: Request) -> tuple[int, dict]:
        explicit = None
        if request.body:
            payload = request.json()
            if not isinstance(payload, dict):
                raise HttpError(400, "snapshot body must be a JSON object")
            explicit = payload.get("path")
        if explicit is not None:
            target = self._resolve_data_path(explicit)
        elif self.config.snapshot_path is not None:
            target = Path(self.config.snapshot_path)
        else:
            raise HttpError(
                400,
                'no snapshot path: pass {"path": ...} or configure snapshot_path',
            )
        # Only a snapshot of the configured store file makes the engines
        # "clean" — a backup elsewhere must not suppress the shutdown
        # snapshot that keeps --store current.  The marks were captured
        # inside each engine's quiescent read, so an ingest that landed
        # while a later engine was being serialized still reads dirty.
        # The same primary/backup distinction gates WAL checkpointing:
        # an ad-hoc backup copy must not truncate the recovery log.
        is_primary = (
            self.config.snapshot_path is not None
            and target.resolve() == Path(self.config.snapshot_path).resolve()
        )
        written, marks = await self._in_executor(
            self.store.snapshot_marked, target, checkpoint_wal=is_primary
        )
        if is_primary:
            self._clean_marks = dict(marks)
        return 200, {
            "path": str(written),
            "bytes": written.stat().st_size,
            "engines": self.store.names(),
        }

    async def _handle_replicate(self, request: Request) -> tuple[int, object]:
        if self.store.wal is None:
            raise HttpError(
                400,
                "replication requires a write-ahead log; start the "
                "server with wal_dir / --wal-dir",
            )
        raw_since = request.params.get("since", "0")
        try:
            since = int(raw_since)
        except ValueError:
            raise HttpError(
                400, f"?since must be an integer LSN, got {raw_since!r}"
            ) from None
        if since < 0:
            raise HttpError(400, f"?since must be >= 0, got {since}")
        follower = request.params.get("follower")
        if follower:
            # register at the *requested* position first — a crash
            # mid-build must not leave the follower looking current
            self._followers[follower] = {
                "position": since,
                "last_poll": time.monotonic(),
            }
        body, last_lsn = await self._in_executor(self._build_replica, since)
        if follower:
            entry = self._followers.get(follower)
            if entry is not None:
                # optimistic: the shipped cursor is what the follower
                # will replay to; its next poll re-asserts the truth
                entry["position"] = max(entry["position"], last_lsn)
                entry["last_poll"] = time.monotonic()
        return 200, RawResponse(body, REPLICA_CONTENT_TYPE)

    def _build_replica(self, since: int) -> tuple[bytes, int]:
        """One ``/replicate`` body plus its shipped cursor: WAL tail, or
        full store delta when the requested tail was checkpointed away.
        Runs on the executor (segment reads + possible full-store
        serialization)."""
        wal = self.store.wal
        tail = wal.tail_since(since)
        if tail is not None:
            blob, last_lsn = tail
            return encode_replica(REPLICA_MODE_WAL, last_lsn, blob), last_lsn
        # Capture the cursor BEFORE serializing: a batch ingested during
        # serialization may or may not be in the blob, and a too-small
        # cursor only makes the follower re-fetch records its version
        # checks then skip — a too-large one would silently lose data.
        last_lsn = wal.last_lsn
        body = encode_replica(
            REPLICA_MODE_STORE, last_lsn, self.store.to_bytes()
        )
        return body, last_lsn

    async def _handle_merge(self, request: Request) -> tuple[int, dict]:
        payload = request.json()
        if not isinstance(payload, dict) or "path" not in payload:
            raise HttpError(400, 'merge requires a JSON body {"path": <snapshot>}')
        path = self._resolve_data_path(payload["path"])
        await self._in_executor(self.store.merge_snapshot, path)
        describe = await self._in_executor(self.store.describe)
        return 200, {"merged": str(path), "engines": describe}

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------
    def _mark_clean_name(self, name: str) -> None:
        self._clean_marks[name] = (
            self.store.version(name),
            self.store.engine(name).change_tick,
        )

    def mark_clean(self) -> None:
        """Record the current state of every engine as "snapshotted".

        Called after writing the configured snapshot file; callers that
        hand the server a store whose exact state is already on disk
        (e.g. the ``serve`` CLI right after ``SketchStore.restore``)
        call it up front so an idle server does not rewrite an unchanged
        snapshot at shutdown.
        """
        for name in self.store.names():
            self._mark_clean_name(name)

    def _dirty_engines(self) -> list[str]:
        """Engines that changed since the last snapshot (or were never
        snapshotted)."""
        dirty = []
        for name in self.store.names():
            mark = (
                self.store.version(name),
                self.store.engine(name).change_tick,
            )
            if self._clean_marks.get(name) != mark:
                dirty.append(name)
        return dirty
