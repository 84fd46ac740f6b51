"""Serving metrics of the HTTP sketch server.

:class:`ServerMetrics` is a thread-safe metric bag — the HTTP handlers
run on the event loop but ingest work lands on executor threads, so
every mutation takes the lock.  Alongside the request/response/ingest
counters it owns one :class:`~repro.obs.LatencyHistogram` per route
(mergeable, quantile-queryable), so ``/metrics`` reports where time
goes, not just how often.

Two reporting surfaces share the same state:

* :meth:`snapshot` — the JSON ``GET /v1/metrics`` payload: counters,
  ingest throughput, per-route latency quantiles, the query planner's
  cache hit rate, and a per-engine block built from the engines' cheap
  :meth:`~repro.streaming.StreamEngine.probe`;
* :meth:`prometheus` — the same state in Prometheus text exposition
  (``GET /v1/metrics?format=prometheus``), with the route histograms
  rendered as cumulative ``_bucket`` series.

A third, *derived* surface feeds the time-series layer:
:meth:`series_sample` flattens the live counters, cache gauges, merged
latency quantiles and WAL state into one ``name -> (kind, value)``
mapping that the server's background ticker hands to a
:class:`repro.obs.SeriesCollector` every ``series_interval`` seconds —
the data behind ``GET /v1/metrics/history`` and the ``/statusz``
sparklines.  :meth:`record_accuracy` additionally folds each confident
query's estimated coefficient of variation into a per-query-kind
histogram, so ``/metrics`` reports not just how fast queries are but
how *tight* their estimates run.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter

from repro.exceptions import UnknownStoreError
from repro.obs import LatencyHistogram, prom

__all__ = ["ServerMetrics"]

#: rate denominators are floored here: a server a few hundred
#: microseconds old reporting a handful of rows must not extrapolate
#: them into a six-figure rows/s claim
_MIN_RATE_SECONDS = 1e-3


def _rate(n: int, seconds: float) -> float:
    """A robust ``n / seconds`` throughput: 0 for nothing observed, and
    never divided by a sub-millisecond denominator."""
    if n <= 0:
        return 0.0
    return n / max(float(seconds), _MIN_RATE_SECONDS)


class ServerMetrics:
    """Thread-safe counters and latency histograms plus the
    ``/metrics`` payload builders."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        self._requests_by_route: Counter[str] = Counter()
        self._responses_by_status: Counter[int] = Counter()
        self._route_histograms: dict[str, LatencyHistogram] = {}
        self._ingested_rows = 0
        self._ingested_batches = 0
        self._ingest_seconds = 0.0
        self._rejected_oversized = 0
        self._rejected_backpressure = 0
        self._slow_requests = 0
        self._accuracy_histograms: dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, route: str) -> None:
        """Count one request under ``route``, a bounded-cardinality
        route label (see :meth:`record_duration`)."""
        with self._lock:
            self._requests_by_route[route] += 1

    def record_response(self, status: int) -> None:
        with self._lock:
            self._responses_by_status[int(status)] += 1
            if status == 413:
                self._rejected_oversized += 1
            elif status == 503:
                self._rejected_backpressure += 1

    def record_ingest(self, n_rows: int, seconds: float) -> None:
        with self._lock:
            self._ingested_rows += int(n_rows)
            self._ingested_batches += 1
            self._ingest_seconds += float(seconds)

    def record_duration(self, route: str, seconds: float) -> None:
        """Time one request into the route's latency histogram.

        ``route`` must be bounded-cardinality (a registered route label,
        not a raw request path) — each distinct value owns a histogram.
        """
        histogram = self._route_histograms.get(route)
        if histogram is None:
            with self._lock:
                histogram = self._route_histograms.setdefault(route, LatencyHistogram())
        histogram.observe(seconds)

    def record_slow_request(self) -> None:
        with self._lock:
            self._slow_requests += 1

    def record_accuracy(self, kind: str, cv: float) -> None:
        """Fold one confident query's estimated coefficient of
        variation into the per-query-kind accuracy histogram.

        ``kind`` must be bounded-cardinality (a query kind, not a query
        name).  The histogram machinery is unit-agnostic — a cv is a
        dimensionless ratio on the same 1e-4..60 log grid.
        """
        cv = float(cv)
        if not math.isfinite(cv):
            return
        histogram = self._accuracy_histograms.get(kind)
        if histogram is None:
            with self._lock:
                histogram = self._accuracy_histograms.setdefault(
                    kind, LatencyHistogram()
                )
        histogram.observe(cv)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    def response_counts(self) -> tuple[int, int]:
        """``(total responses, 503 backpressure rejections)`` — the
        health rules' backpressure-rate feed."""
        with self._lock:
            return (
                sum(self._responses_by_status.values()),
                self._rejected_backpressure,
            )

    def route_histogram(self, route: str) -> LatencyHistogram | None:
        """The live latency histogram of one route label, if any."""
        with self._lock:
            return self._route_histograms.get(route)

    def merged_histogram(self) -> LatencyHistogram:
        """All route histograms folded into one (merge is associative
        and commutative, so the fold order is irrelevant)."""
        merged = LatencyHistogram()
        with self._lock:
            histograms = list(self._route_histograms.values())
        for histogram in histograms:
            merged.merge_from(histogram)
        return merged

    def series_sample(
        self, store, planner, pending: dict
    ) -> dict[str, tuple[str, float]]:
        """One flattened ``name -> (kind, value)`` sample for the
        metrics time series.

        Unlike :meth:`snapshot` this is label-free — every entry is one
        scalar a ring buffer can hold — and intentionally cheap: the
        per-route breakdown folds to totals, the engines contribute one
        summed gauge, and the WAL contributes its cursor positions and
        fsync tail.  Counter entries get their per-second rates derived
        by :class:`~repro.obs.MetricSeries` on read.
        """
        with self._lock:
            requests = sum(self._requests_by_route.values())
            responses = sum(self._responses_by_status.values())
            ingested_rows = self._ingested_rows
            ingested_batches = self._ingested_batches
            rejected_backpressure = self._rejected_backpressure
            rejected_oversized = self._rejected_oversized
            slow_requests = self._slow_requests
        cache = planner.cache_stats()
        sample: dict[str, tuple[str, float]] = {
            "repro_requests_total": ("counter", float(requests)),
            "repro_responses_total": ("counter", float(responses)),
            "repro_ingest_rows_total": ("counter", float(ingested_rows)),
            "repro_ingest_batches_total": (
                "counter",
                float(ingested_batches),
            ),
            "repro_rejected_backpressure_total": (
                "counter",
                float(rejected_backpressure),
            ),
            "repro_rejected_oversized_total": (
                "counter",
                float(rejected_oversized),
            ),
            "repro_slow_requests_total": ("counter", float(slow_requests)),
            "repro_query_cache_hits_total": (
                "counter",
                float(cache["hits"]),
            ),
            "repro_query_cache_misses_total": (
                "counter",
                float(cache["misses"]),
            ),
            "repro_query_cache_entries": ("gauge", float(cache["entries"])),
            "repro_query_cache_hit_rate": ("gauge", float(cache["hit_rate"])),
        }
        merged = self.merged_histogram()
        if merged.count:
            for name, value in merged.quantiles().items():
                sample[f"repro_request_{name}_seconds"] = ("gauge", value)
        retained = 0
        for name in store.names():
            try:
                retained += int(
                    store.engine(name).probe().get("retained_keys", 0)
                )
            except UnknownStoreError:
                continue
        sample["repro_engine_retained_keys"] = ("gauge", float(retained))
        sample["repro_engine_pending_batches"] = (
            "gauge",
            float(sum(pending.values())),
        )
        wal = getattr(store, "wal", None)
        if wal is not None:
            stats = wal.stats()
            sample["repro_wal_last_lsn"] = ("gauge", float(stats["last_lsn"]))
            sample["repro_wal_checkpoint_lsn"] = (
                "gauge",
                float(stats["checkpoint_lsn"]),
            )
            sample["repro_wal_segments"] = ("gauge", float(stats["segments"]))
            fsync_p99 = wal.fsync_histogram.quantile(0.99)
            if math.isfinite(fsync_p99):
                sample["repro_wal_fsync_p99_seconds"] = ("gauge", fsync_p99)
        return sample

    def _engine_block(self, store, pending: dict) -> dict[str, dict]:
        """Per-engine probes, defensively iterated.

        ``store.names()`` is a point-in-time snapshot; engines can be
        created or removed (e.g. by a concurrent merge/restore swap)
        while this loop runs, so a vanished name is skipped rather than
        failing the whole scrape.  ``state_hint`` is deliberately the
        lock-free read: a metrics scrape must not queue behind in-flight
        ingest batches for a number that is stale a moment later anyway.
        """
        engines: dict[str, dict] = {}
        for name in store.names():
            try:
                probe = store.engine(name).probe()
                version, _ = store.state_hint(name)
            except UnknownStoreError:
                continue
            engines[name] = {
                "version": version,
                "pending_batches": int(pending.get(name, 0)),
                **probe,
            }
        return engines

    def snapshot(self, store, planner, pending: dict) -> dict:
        """The full JSON ``/metrics`` payload.

        ``pending`` maps engine names to their in-flight ingest batch
        counts (the server's backpressure state).
        """
        uptime = self.uptime_seconds()
        with self._lock:
            requests = dict(self._requests_by_route)
            responses = {
                str(status): count
                for status, count in self._responses_by_status.items()
            }
            histograms = dict(self._route_histograms)
            ingested_rows = self._ingested_rows
            ingested_batches = self._ingested_batches
            ingest_seconds = self._ingest_seconds
            rejected_oversized = self._rejected_oversized
            rejected_backpressure = self._rejected_backpressure
            slow_requests = self._slow_requests
            accuracy = dict(self._accuracy_histograms)

        return {
            "started_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self._started_wall)
            ),
            "uptime_seconds": uptime,
            "requests": requests,
            "responses": responses,
            "latency": {
                route: histograms[route].to_dict() for route in histograms
            },
            "slow_requests": slow_requests,
            "ingest": {
                "rows": ingested_rows,
                "batches": ingested_batches,
                "busy_seconds": ingest_seconds,
                # sustained throughput over the server lifetime ...
                "rows_per_second": _rate(ingested_rows, uptime),
                # ... and while actually ingesting
                "rows_per_busy_second": _rate(ingested_rows, ingest_seconds),
                "rejected_oversized": rejected_oversized,
                "rejected_backpressure": rejected_backpressure,
            },
            "query_cache": planner.cache_stats(),
            # per-query-kind distribution of the estimated coefficient
            # of variation reported by confident queries
            "accuracy": {
                kind: accuracy[kind].to_dict() for kind in sorted(accuracy)
            },
            "engines": self._engine_block(store, pending),
            # getattr: duck-typed store stand-ins in tests predate .wal
            "wal": wal.stats() if (wal := getattr(store, "wal", None)) else None,
        }

    def prometheus(self, store, planner, pending: dict, health=None) -> str:
        """The same state as :meth:`snapshot`, in Prometheus text
        exposition format (0.0.4).

        ``health`` is an optional :class:`repro.obs.HealthReport`; when
        given it is rendered as the ``repro_health_status`` gauge family
        (0 healthy, 1 degraded, 2 unhealthy) with the unlabelled sample
        carrying the overall verdict and one ``rule``-labelled sample
        per rule.
        """
        payload = self.snapshot(store, planner, pending)
        with self._lock:
            histograms = dict(self._route_histograms)
            accuracy = dict(self._accuracy_histograms)
        cache = payload["query_cache"]
        ingest = payload["ingest"]
        engines = payload["engines"]
        families = [
            prom.gauge(
                "repro_uptime_seconds",
                "Seconds since the server started.",
                [({}, payload["uptime_seconds"])],
            ),
            prom.counter(
                "repro_requests_total",
                "Requests received, by route.",
                [
                    ({"route": route}, count)
                    for route, count in sorted(payload["requests"].items())
                ],
            ),
            prom.counter(
                "repro_responses_total",
                "Responses sent, by status code.",
                [
                    ({"status": status}, count)
                    for status, count in sorted(payload["responses"].items())
                ],
            ),
            prom.histogram(
                "repro_request_duration_seconds",
                "Request wall time by route.",
                {route: histograms[route] for route in sorted(histograms)},
            ),
            prom.counter(
                "repro_slow_requests_total",
                "Requests logged beyond the slow-request threshold.",
                [({}, payload["slow_requests"])],
            ),
            prom.counter(
                "repro_ingest_rows_total",
                "Update rows ingested over HTTP.",
                [({}, ingest["rows"])],
            ),
            prom.counter(
                "repro_ingest_batches_total",
                "Ingest batches applied.",
                [({}, ingest["batches"])],
            ),
            prom.counter(
                "repro_ingest_busy_seconds_total",
                "Executor seconds spent applying ingest batches.",
                [({}, ingest["busy_seconds"])],
            ),
            prom.counter(
                "repro_ingest_rejected_total",
                "Ingest requests rejected, by reason.",
                [
                    ({"reason": "oversized"}, ingest["rejected_oversized"]),
                    (
                        {"reason": "backpressure"},
                        ingest["rejected_backpressure"],
                    ),
                ],
            ),
            prom.histogram(
                "repro_query_cv",
                "Estimated coefficient of variation of confident query "
                "results, by query kind.",
                {kind: accuracy[kind] for kind in sorted(accuracy)},
                label="kind",
            ),
            prom.counter(
                "repro_query_cache_requests_total",
                "Query-planner cache lookups, by outcome.",
                [
                    ({"outcome": "hit"}, cache["hits"]),
                    ({"outcome": "miss"}, cache["misses"]),
                ],
            ),
            prom.gauge(
                "repro_query_cache_entries",
                "Entries currently held by the query-result cache.",
                [({}, cache["entries"])],
            ),
            prom.gauge(
                "repro_engine_version",
                "Monotone ingest version, by engine.",
                [
                    ({"engine": name}, engines[name]["version"])
                    for name in sorted(engines)
                ],
            ),
            prom.counter(
                "repro_engine_updates_total",
                "Updates applied, by engine.",
                [
                    ({"engine": name}, engines[name]["n_updates"])
                    for name in sorted(engines)
                ],
            ),
            prom.gauge(
                "repro_engine_retained_keys",
                "Keys currently retained across shards, by engine.",
                [
                    ({"engine": name}, engines[name]["retained_keys"])
                    for name in sorted(engines)
                ],
            ),
            prom.gauge(
                "repro_engine_pending_batches",
                "In-flight ingest batches, by engine.",
                [
                    ({"engine": name}, engines[name]["pending_batches"])
                    for name in sorted(engines)
                ],
            ),
            prom.counter(
                "repro_engine_shard_updates_total",
                "Updates routed to each shard, by engine.",
                [
                    ({"engine": name, "shard": shard}, count)
                    for name in sorted(engines)
                    for shard, count in enumerate(
                        engines[name].get("shard_updates", ())
                    )
                ],
            ),
        ]
        wal = getattr(store, "wal", None)
        if wal is not None:
            stats = payload["wal"]
            families.extend(
                [
                    prom.counter(
                        "repro_wal_appended_records_total",
                        "Records appended to the write-ahead log.",
                        [({}, stats["appended_records"])],
                    ),
                    prom.counter(
                        "repro_wal_appended_bytes_total",
                        "Bytes appended to the write-ahead log.",
                        [({}, stats["appended_bytes"])],
                    ),
                    prom.histogram(
                        "repro_wal_fsync_seconds",
                        "Wall time of write-ahead-log fsync calls.",
                        {stats["fsync_policy"]: wal.fsync_histogram},
                        label="policy",
                    ),
                    prom.gauge(
                        "repro_wal_replay_seconds",
                        "Wall time of the recovery replay that produced "
                        "this store (0 when the process did not recover).",
                        [({}, stats["replay_seconds"] or 0.0)],
                    ),
                    prom.gauge(
                        "repro_wal_last_lsn",
                        "Log sequence number of the newest WAL record.",
                        [({}, stats["last_lsn"])],
                    ),
                    prom.gauge(
                        "repro_wal_segments",
                        "Write-ahead-log segment files on disk.",
                        [({}, stats["segments"])],
                    ),
                    prom.gauge(
                        "repro_wal_checkpoint_lsn",
                        "Log sequence number covered by the last "
                        "checkpoint.",
                        [({}, stats["checkpoint_lsn"])],
                    ),
                    prom.gauge(
                        "repro_wal_checkpoint_age_seconds",
                        "Seconds since the write-ahead log last "
                        "checkpointed.",
                        [({}, stats["checkpoint_age_seconds"])],
                    ),
                ]
            )
        if health is not None:
            from repro.obs.health import STATUSES

            families.append(
                prom.gauge(
                    "repro_health_status",
                    "Health verdict (0 healthy, 1 degraded, "
                    "2 unhealthy); the unlabelled sample is the overall "
                    "verdict, rule-labelled samples break it down.",
                    [({}, health.severity)]
                    + [
                        ({"rule": name}, STATUSES.index(detail["status"]))
                        for name, detail in sorted(health.rules.items())
                    ],
                )
            )
        return prom.render(families)
