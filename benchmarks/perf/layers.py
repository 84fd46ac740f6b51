"""The per-layer ledger's table: what the traced run records, and what
each per-layer metric is expected to move.

Each :class:`Layer` is one span: the module (layer) it measures, the
callables the traced server wraps with it, and the prediction written
down before any optimisation — the end-to-end metrics a faster layer
should move, the workload it should move them on, and the workloads on
which it should leave them unchanged.  :class:`Extra` carries the same
declaration for the ledger's metrics that are not a span's four.

The run refuses to start when a per-layer metric of ``BENCHMARK.json``
has no declaration here (see :mod:`schema`).
"""

from __future__ import annotations

from dataclasses import dataclass

INGEST = ("ingest-binary", "ingest-durable")


@dataclass(frozen=True)
class Layer:
    """One span of the traced run.

    ``wraps`` lists ``"module:qualified.name"`` targets; the traced
    server replaces each at the place the program looks it up.
    ``query_kind`` restricts a wrapped query dispatcher to one kind.
    ``boot`` spans run while the server starts, so their share is of
    ``setup_s`` instead of request time.
    """

    span: str
    module: str
    wraps: tuple[str, ...]
    moves: tuple[str, ...]
    on: str
    unchanged_on: tuple[str, ...]
    boot: bool = False
    query_kind: str | None = None


@dataclass(frozen=True)
class Extra:
    """A ledger metric that is not one of a span's four."""

    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    on: str
    unchanged_on: tuple[str, ...]
    definition: str


LAYERS: tuple[Layer, ...] = (
    Layer("http.read", "repro.server.protocol",
          ("repro.server.app:read_request",),
          ("requests_per_s",), "mixed", ("query-cold",)),
    Layer("http.encode", "repro.server.protocol",
          ("repro.server.app:json_response_bytes",
           "repro.server.app:response_bytes"),
          ("requests_per_s", "latency_p50_ms"), "mixed", ("ingest-binary",)),
    Layer("decode.json", "repro.server.protocol",
          ("repro.server.protocol:Request.json",),
          ("latency_p50_ms",), "mixed", ("ingest-binary",)),
    Layer("decode.rbat", "repro.server.wire",
          ("repro.server.app:decode_batches",),
          ("requests_per_s",), "ingest-binary", ("mixed", "query-cold")),
    Layer("store.submit", "repro.service.store",
          ("repro.service.store:SketchStore.submit",),
          ("requests_per_s",), "ingest-binary", ("query-cold",)),
    Layer("streaming.plan", "repro.streaming",
          ("repro.streaming.engine:StreamEngine.ingest_jobs",),
          ("requests_per_s",), "ingest-binary", ("query-cold",)),
    Layer("streaming.apply", "repro.streaming",
          ("repro.streaming.engine:StreamEngine.run_job",),
          ("requests_per_s",), "ingest-binary", ("query-cold",)),
    Layer("wal.append", "repro.wal",
          ("repro.wal.log:WriteAheadLog.append_batch",
           "repro.wal.log:WriteAheadLog.append_batch_blob"),
          ("requests_per_s", "latency_p99_ms"), "ingest-durable",
          ("ingest-binary",)),
    Layer("wal.recover", "repro.wal",
          ("repro.wal:recover_store",),
          ("setup_s",), "ingest-durable",
          ("mixed", "ingest-binary", "query-cold"), boot=True),
    Layer("codec.decode", "repro.service.codec",
          ("repro.service.codec:from_bytes",),
          ("setup_s",), "query-cold", ("ingest-binary",), boot=True),
    Layer("planner.peek", "repro.service.queries",
          ("repro.service.queries:QueryPlanner.peek",),
          ("latency_p50_ms",), "mixed", INGEST),
    Layer("planner.run", "repro.service.queries",
          ("repro.service.queries:QueryPlanner.run",),
          ("latency_p50_ms",), "query-cold", INGEST),
    Layer("store.view", "repro.service.store",
          ("repro.service.store:SketchStore.snapshot_view",),
          ("latency_p50_ms",), "query-cold", INGEST),
    Layer("estimate.distinct", "repro.streaming.query",
          ("repro.service.queries:distinct_count",),
          ("latency_p50_ms", "latency_p99_ms", "requests_per_s"),
          "query-cold", INGEST),
    Layer("estimate.l1", "repro.streaming.query",
          ("repro.service.queries:l1_distance",),
          ("latency_p50_ms", "latency_p99_ms", "requests_per_s"),
          "query-cold", INGEST),
    Layer("estimate.dominance", "repro.streaming.query",
          ("repro.service.queries:max_dominance",),
          ("latency_p50_ms", "latency_p99_ms", "requests_per_s"),
          "query-cold", INGEST),
    # the sum path has no single estimator function: bottom-k rank
    # conditioning, estimator-weighted sums and the Poisson
    # ``to_sample().horvitz_thompson_total`` all branch inside the
    # planner's dispatcher, so the span wraps the dispatch of sum queries
    Layer("estimate.sum", "repro.streaming.query",
          ("repro.service.queries:QueryPlanner._dispatch",),
          ("latency_p50_ms", "requests_per_s"), "mixed",
          INGEST + ("query-cold",), query_kind="sum"),
    Layer("confidence", "repro.service.confidence",
          ("repro.service.queries:query_confidence",),
          ("latency_p50_ms",), "query-cold", INGEST),
    Layer("obs.series", "repro.server.metrics",
          ("repro.server.metrics:ServerMetrics.series_sample",),
          ("requests_per_s",), "mixed", ()),
)

EXTRAS: tuple[Extra, ...] = (
    Extra("http.request.calls", "count", "higher",
          ("requests_per_s",), "mixed", (),
          "requests the server finished in the traced window"),
    Extra("http.request.p50_us", "us", "lower",
          ("latency_p50_ms",), "mixed", (),
          "median server-side request time (the program's own span)"),
    Extra("http.request.p99_us", "us", "lower",
          ("latency_p99_ms",), "mixed", (),
          "p99 server-side request time (the program's own span)"),
    Extra("unattributed_share", "fraction", "lower",
          ("requests_per_s",), "mixed", (),
          "share of http.request time no child span covers: executor "
          "queueing, the event loop and sockets"),
    Extra("planner.cache_hit_ratio", "fraction", "higher",
          ("latency_p50_ms",), "mixed", ("query-cold",),
          "query-cache hits / lookups in the window, from /v1/metrics"),
    Extra("wal.fsync.calls", "count", "lower",
          ("latency_p99_ms",), "ingest-durable", ("ingest-binary",),
          "fsyncs in the window, from the /v1/metrics WAL block"),
    Extra("wal.fsync.p99_us", "us", "lower",
          ("latency_p99_ms",), "ingest-durable", ("ingest-binary",),
          "p99 fsync time in the window, from the Prometheus histogram"),
    Extra("wal.bytes_per_row", "B/row", "lower",
          ("requests_per_s",), "ingest-durable", ("ingest-binary",),
          "WAL bytes appended in the window / rows acknowledged"),
    Extra("trace_overhead", "fraction", "lower",
          ("requests_per_s",), "mixed", (),
          "1 - traced / untraced requests_per_s: how far the wrappers "
          "themselves distort the ledger"),
)

#: ``(suffix, unit, better)`` of the four metrics every span reports
SPAN_METRICS = (
    ("calls", "count", "higher"),
    ("self_share", "fraction", "lower"),
    ("p50_us", "us", "lower"),
    ("p99_us", "us", "lower"),
)


def declared_metrics() -> dict[str, tuple[str, str, tuple[str, ...], str]]:
    """Every per-layer metric the ledger can report:
    ``name -> (unit, better, moves, on)``."""
    declared = {}
    for layer in LAYERS:
        for suffix, unit, better in SPAN_METRICS:
            declared[f"{layer.span}.{suffix}"] = (
                unit, better, layer.moves, layer.on
            )
    for extra in EXTRAS:
        declared[extra.name] = (extra.unit, extra.better, extra.moves, extra.on)
    return declared
