"""Observability primitives for the serving stack.

Dependency-free (standard library only) building blocks that every
serving layer shares:

* :mod:`repro.obs.hist` — :class:`LatencyHistogram`: lock-cheap,
  fixed-log-bucket latency histograms whose merge is associative and
  commutative (mirroring the repository's sketch-merge algebra) and
  whose p50/p95/p99 reads stay within one bucket of the exact
  percentile;
* :mod:`repro.obs.trace` — contextvar-based request IDs and nested
  :func:`span` timing into a bounded :class:`TraceRecorder` ring
  buffer, with optional JSONL export;
* :mod:`repro.obs.logtools` — structured JSON logging correlated by
  request ID, and the :class:`SlowRequestLog` tail-latency tattler;
* :mod:`repro.obs.prom` — Prometheus text exposition (0.0.4) for
  counters, gauges and histogram series;
* :mod:`repro.obs.series` — :class:`MetricSeries` /
  :class:`SeriesCollector`: bounded in-process metrics time series
  (monotonic timestamps, counter→rate derivation) behind
  ``GET /metrics/history``;
* :mod:`repro.obs.health` — :class:`HealthRule` / :class:`HealthMonitor`:
  declarative health rules with asymmetric hysteresis folding into one
  ``healthy`` / ``degraded`` / ``unhealthy`` verdict.

The package deliberately imports nothing from the serving layers, so
``repro.service`` and ``repro.server`` can instrument themselves with
it without cycles.
"""

from repro.obs.health import HealthMonitor, HealthReport, HealthRule
from repro.obs.hist import LatencyHistogram
from repro.obs.logtools import (
    JsonLogFormatter,
    SlowRequestLog,
    configure_json_logging,
)
from repro.obs.series import MetricPoint, MetricSeries, SeriesCollector
from repro.obs.trace import (
    SpanRecord,
    TraceRecorder,
    current_request_id,
    current_span_name,
    default_recorder,
    new_request_id,
    request_context,
    set_default_recorder,
    span,
)

__all__ = [
    "HealthMonitor",
    "HealthReport",
    "HealthRule",
    "JsonLogFormatter",
    "LatencyHistogram",
    "MetricPoint",
    "MetricSeries",
    "SeriesCollector",
    "SlowRequestLog",
    "SpanRecord",
    "TraceRecorder",
    "configure_json_logging",
    "current_request_id",
    "current_span_name",
    "default_recorder",
    "new_request_id",
    "request_context",
    "set_default_recorder",
    "span",
]
