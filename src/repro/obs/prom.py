"""Prometheus text exposition (format version 0.0.4).

Small, dependency-free renderers for the three shapes the serving stack
exports: counters, gauges, and :class:`~repro.obs.hist.LatencyHistogram`
series.  Each helper returns the ``# HELP`` / ``# TYPE`` header plus its
samples as text lines; :func:`render` joins metric blocks into one
scrape body.  Label values are escaped per the exposition format
(backslash, double-quote and newline).

The assembly of the serving stack's concrete metric families lives with
the metric state (:meth:`repro.server.metrics.ServerMetrics.
prometheus`); this module knows only the wire format.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from repro.obs.hist import LatencyHistogram

__all__ = [
    "CONTENT_TYPE",
    "counter",
    "gauge",
    "histogram",
    "render",
]

#: the scrape response Content-Type Prometheus expects
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: one metric family: (name, type, help, sample lines)
_Samples = Iterable[tuple[Mapping[str, object], float]]


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    # the 0.0.4 text format escapes backslash and line feed in HELP —
    # not double quotes, unlike label values; an unescaped newline
    # would truncate the comment and feed the rest to the sample
    # parser, corrupting the whole scrape
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def sample_line(name: str, labels: Mapping[str, object] | None, value: float) -> str:
    """One exposition sample, e.g. ``name{route="GET /v1/query"} 3``."""
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(labels[key])}"' for key in sorted(labels)
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _family(name: str, kind: str, help_text: str, lines: list[str]) -> str:
    header = [
        f"# HELP {name} {_escape_help(help_text)}",
        f"# TYPE {name} {kind}",
    ]
    return "\n".join(header + lines)


def counter(name: str, help_text: str, samples: _Samples) -> str:
    """A counter family from ``(labels, value)`` samples."""
    lines = [sample_line(name, labels, value) for labels, value in samples]
    return _family(name, "counter", help_text, lines)


def gauge(name: str, help_text: str, samples: _Samples) -> str:
    """A gauge family from ``(labels, value)`` samples."""
    lines = [sample_line(name, labels, value) for labels, value in samples]
    return _family(name, "gauge", help_text, lines)


def histogram(
    name: str,
    help_text: str,
    series: Mapping[str, LatencyHistogram],
    label: str = "route",
) -> str:
    """A histogram family with one ``label``-labelled series per key.

    Renders the cumulative ``_bucket`` samples (``le`` upper bounds,
    ending in ``+Inf``), ``_sum`` and ``_count`` for every series — the
    exposition shape Prometheus turns into ``histogram_quantile()``
    queries.
    """
    lines: list[str] = []
    for key in series:
        hist = series[key]
        base = {label: key}
        for bound, cumulative_count in hist.cumulative():
            lines.append(
                sample_line(
                    f"{name}_bucket",
                    {**base, "le": _format_value(bound)},
                    cumulative_count,
                )
            )
        lines.append(sample_line(f"{name}_sum", base, hist.sum_seconds))
        lines.append(sample_line(f"{name}_count", base, hist.count))
    return _family(name, "histogram", help_text, lines)


def render(families: Iterable[str]) -> str:
    """Join metric families into one scrape body (trailing newline)."""
    body = "\n".join(block for block in families if block)
    return body + "\n" if body else ""
