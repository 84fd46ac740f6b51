"""Metrics time series: ring bounds and rate derivation."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import InvalidParameterError
from repro.obs import MetricPoint, MetricSeries, SeriesCollector


class TestMetricSeries:
    def test_records_and_reads_in_order(self):
        series = MetricSeries("m", "gauge")
        for i in range(5):
            series.record(float(i), monotonic=float(i), wall=100.0 + i)
        points = series.points()
        assert [point.value for point in points] == [0, 1, 2, 3, 4]
        assert [point.wall for point in points] == [100, 101, 102, 103, 104]
        assert series.last() == MetricPoint(4.0, 104.0, 4.0)
        assert len(series) == 5

    def test_capacity_bounds_the_ring(self):
        series = MetricSeries("m", "gauge", capacity=3)
        for i in range(10):
            series.record(float(i), monotonic=float(i))
        assert [point.value for point in series.points()] == [7, 8, 9]
        assert series.capacity == 3

    def test_window_filters_by_monotonic_time(self):
        series = MetricSeries("m", "gauge")
        for i in range(10):
            series.record(float(i), monotonic=float(i))
        recent = series.points(window=3.0, now=9.0)
        assert [point.value for point in recent] == [6, 7, 8, 9]
        assert series.points(window=0.0, now=9.0) == [
            MetricPoint(9.0, recent[-1].wall, 9.0)
        ]
        with pytest.raises(InvalidParameterError):
            series.points(window=-1.0)

    def test_rejects_unknown_kind_and_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            MetricSeries("m", "summary")
        with pytest.raises(InvalidParameterError):
            MetricSeries("m", "gauge", capacity=0)

    def test_counter_rates_between_consecutive_points(self):
        series = MetricSeries("m", "counter")
        series.record(0.0, monotonic=0.0)
        series.record(10.0, monotonic=2.0)
        series.record(10.0, monotonic=4.0)
        series.record(16.0, monotonic=7.0)
        rates = series.rates()
        assert [point.value for point in rates] == [5.0, 0.0, 2.0]
        # rates carry the timestamp of the interval's *end* point
        assert [point.monotonic for point in rates] == [2.0, 4.0, 7.0]

    def test_counter_reset_clamps_to_zero_rate(self):
        series = MetricSeries("m", "counter")
        series.record(100.0, monotonic=0.0)
        series.record(3.0, monotonic=1.0)  # process restart
        series.record(6.0, monotonic=2.0)
        assert [point.value for point in series.rates()] == [0.0, 3.0]

    def test_zero_elapsed_intervals_are_skipped(self):
        series = MetricSeries("m", "counter")
        series.record(1.0, monotonic=5.0)
        series.record(2.0, monotonic=5.0)
        series.record(4.0, monotonic=6.0)
        assert [point.value for point in series.rates()] == [2.0]

    def test_rates_rejected_for_gauges(self):
        series = MetricSeries("m", "gauge")
        with pytest.raises(InvalidParameterError, match="counter"):
            series.rates()

    def test_to_dict_shape(self):
        series = MetricSeries("m", "counter")
        series.record(0.0, monotonic=0.0, wall=100.0)
        series.record(4.0, monotonic=2.0, wall=102.0)
        payload = series.to_dict()
        assert payload["metric"] == "m"
        assert payload["kind"] == "counter"
        assert payload["points"] == [[100.0, 0.0], [102.0, 4.0]]
        assert payload["rates"] == [[102.0, 2.0]]
        gauge = MetricSeries("g", "gauge")
        gauge.record(1.0)
        assert "rates" not in gauge.to_dict()


class TestSeriesCollector:
    def test_collect_shares_one_timestamp_across_metrics(self):
        collector = SeriesCollector(interval=0.5)
        collector.collect(
            {"a_total": ("counter", 1.0), "b": ("gauge", 2.0)},
            monotonic=10.0,
            wall=1000.0,
        )
        collector.collect(
            {"a_total": ("counter", 3.0), "b": ("gauge", 1.0)},
            monotonic=11.0,
            wall=1001.0,
        )
        assert collector.names() == ["a_total", "b"]
        assert collector.n_samples == 2
        a = collector.series("a_total")
        assert [point.monotonic for point in a.points()] == [10.0, 11.0]
        assert [point.value for point in a.rates()] == [2.0]

    def test_unknown_metric_lists_known_names(self):
        collector = SeriesCollector()
        collector.collect({"known": ("gauge", 1.0)})
        with pytest.raises(InvalidParameterError, match="known"):
            collector.series("missing")

    def test_kind_mismatch_rejected(self):
        collector = SeriesCollector()
        collector.collect({"m": ("gauge", 1.0)})
        with pytest.raises(InvalidParameterError, match="gauge"):
            collector.series("m", "counter")

    def test_history_payload_carries_interval(self):
        collector = SeriesCollector(interval=0.25)
        collector.collect({"m": ("counter", 5.0)}, monotonic=1.0, wall=50.0)
        payload = collector.history("m")
        assert payload["interval_seconds"] == 0.25
        assert payload["points"] == [[50.0, 5.0]]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SeriesCollector(interval=0.0)
        with pytest.raises(InvalidParameterError):
            SeriesCollector(capacity=0)

    def test_concurrent_collect_is_safe(self):
        collector = SeriesCollector(capacity=4096)

        def worker(offset: int) -> None:
            for i in range(200):
                collector.collect(
                    {"m": ("counter", float(offset + i))},
                    monotonic=float(offset + i),
                )

        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in (0, 1000, 2000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(collector.series("m")) == 600
        assert collector.n_samples == 600
