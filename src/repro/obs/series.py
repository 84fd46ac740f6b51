"""Fixed-capacity in-process metrics time series.

A scrape (``GET /metrics``) is a snapshot; trends — is follower lag
growing, did the p99 jump after the last deploy — normally need an
external TSDB.  This module keeps a bounded window of history inside
the process instead: a :class:`SeriesCollector` samples a flat
``name -> (kind, value)`` mapping on a fixed interval into per-metric
:class:`MetricSeries` ring buffers, so ``GET /metrics/history`` can
answer trend questions with zero external infrastructure.

Design points:

* **Monotonic timestamps.**  Every point carries both a monotonic
  timestamp (windowing, rate derivation — immune to wall-clock steps)
  and a wall timestamp (display).
* **Counter -> rate derivation.**  Counters are stored as their raw
  cumulative values; :meth:`MetricSeries.rates` derives per-second
  rates between consecutive points on read, clamping negative deltas
  (a counter reset) to zero.
* **Fixed capacity.**  Each series holds at most ``capacity`` points;
  retention is ``capacity * interval`` seconds and memory is bounded
  no matter how long the process lives.

The module is standard-library only and imports nothing from the
serving layers, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping
from typing import NamedTuple

from repro.exceptions import InvalidParameterError

__all__ = ["MetricPoint", "MetricSeries", "SeriesCollector"]

SERIES_KINDS = ("counter", "gauge")


class MetricPoint(NamedTuple):
    """One sampled value of one metric."""

    monotonic: float
    wall: float
    value: float


class MetricSeries:
    """A bounded ring of :class:`MetricPoint` samples of one metric."""

    def __init__(self, name: str, kind: str, capacity: int = 512) -> None:
        if kind not in SERIES_KINDS:
            raise InvalidParameterError(
                f"series kind must be one of {SERIES_KINDS}, got {kind!r}"
            )
        if int(capacity) <= 0:
            raise InvalidParameterError(
                f"capacity must be positive, got {capacity}"
            )
        self.name = name
        self.kind = kind
        self._lock = threading.Lock()
        self._points: deque[MetricPoint] = deque(maxlen=int(capacity))

    @property
    def capacity(self) -> int:
        return self._points.maxlen or 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    def record(
        self,
        value: float,
        monotonic: float | None = None,
        wall: float | None = None,
    ) -> None:
        """Append one sample (timestamps default to "now")."""
        point = MetricPoint(
            monotonic=time.monotonic() if monotonic is None else float(monotonic),
            wall=time.time() if wall is None else float(wall),
            value=float(value),
        )
        with self._lock:
            self._points.append(point)

    def points(
        self, window: float | None = None, now: float | None = None
    ) -> list[MetricPoint]:
        """Samples, oldest first; ``window`` keeps only the last
        ``window`` seconds (by monotonic timestamp, against ``now``)."""
        with self._lock:
            points = list(self._points)
        if window is None:
            return points
        if window < 0:
            raise InvalidParameterError(f"window must be >= 0, got {window}")
        cutoff = (time.monotonic() if now is None else float(now)) - float(window)
        return [point for point in points if point.monotonic >= cutoff]

    def last(self) -> MetricPoint | None:
        with self._lock:
            return self._points[-1] if self._points else None

    def rates(
        self, window: float | None = None, now: float | None = None
    ) -> list[MetricPoint]:
        """Per-second rates between consecutive counter samples.

        Each returned point carries the rate over the interval *ending*
        at its timestamp; a negative delta (counter reset) clamps to
        zero rather than reporting a huge negative rate.  Gauge series
        are rejected — their derivative is not a rate.
        """
        if self.kind != "counter":
            raise InvalidParameterError(
                f"rates are derived for counters; {self.name!r} is a "
                f"{self.kind}"
            )
        points = self.points(window=window, now=now)
        rates: list[MetricPoint] = []
        for previous, current in zip(points, points[1:]):
            elapsed = current.monotonic - previous.monotonic
            if elapsed <= 0.0:
                continue
            delta = max(0.0, current.value - previous.value)
            rates.append(
                MetricPoint(current.monotonic, current.wall, delta / elapsed)
            )
        return rates

    def to_dict(self, window: float | None = None) -> dict:
        """JSON-encodable snapshot (the ``/metrics/history`` payload)."""
        points = self.points(window=window)
        payload: dict = {
            "metric": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "points": [[point.wall, point.value] for point in points],
        }
        if self.kind == "counter":
            payload["rates"] = [
                [point.wall, point.value]
                for point in self.rates(window=window)
            ]
        return payload


class SeriesCollector:
    """Samples a flat metrics mapping into per-metric ring buffers.

    The caller (the server's background ticker) calls :meth:`collect`
    with a ``name -> (kind, value)`` mapping every ``interval``
    seconds; every metric in the mapping gets one point with a shared
    timestamp, so cross-metric comparisons line up.  Unknown metrics
    create their series lazily; a metric that disappears from the
    mapping simply stops growing.
    """

    def __init__(self, interval: float = 1.0, capacity: int = 512) -> None:
        if float(interval) <= 0:
            raise InvalidParameterError(
                f"interval must be positive, got {interval}"
            )
        if int(capacity) <= 0:
            raise InvalidParameterError(
                f"capacity must be positive, got {capacity}"
            )
        self.interval = float(interval)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._series: dict[str, MetricSeries] = {}
        self.n_samples = 0

    def collect(
        self,
        sample: Mapping[str, tuple[str, float]],
        monotonic: float | None = None,
        wall: float | None = None,
    ) -> None:
        """Record one ``name -> (kind, value)`` sample at one timestamp."""
        stamp_monotonic = (
            time.monotonic() if monotonic is None else float(monotonic)
        )
        stamp_wall = time.time() if wall is None else float(wall)
        for name, (kind, value) in sample.items():
            series = self.series(name, kind)
            series.record(value, monotonic=stamp_monotonic, wall=stamp_wall)
        with self._lock:
            self.n_samples += 1

    def series(self, name: str, kind: str | None = None) -> MetricSeries:
        """The series of ``name``, created on first use when ``kind``
        is given; raises for unknown metrics otherwise."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                if kind is None:
                    raise InvalidParameterError(
                        f"unknown metric {name!r}; known: "
                        f"{sorted(self._series)}"
                    )
                series = MetricSeries(name, kind, capacity=self.capacity)
                self._series[name] = series
            elif kind is not None and series.kind != kind:
                raise InvalidParameterError(
                    f"metric {name!r} is a {series.kind}, not a {kind}"
                )
        return series

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def history(self, metric: str, window: float | None = None) -> dict:
        """The ``/metrics/history`` payload of one metric."""
        payload = self.series(metric).to_dict(window=window)
        payload["interval_seconds"] = self.interval
        return payload
