"""Unit tests of :class:`repro.server.metrics.ServerMetrics`.

Exercises the metric bag away from the HTTP stack: robust throughput
rates (no sub-millisecond-uptime blowups), defensive per-engine
iteration when engines vanish mid-scrape, per-route latency histograms,
the Prometheus exposition, and a thread-pool hammer asserting counter
conservation under concurrent mutation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import UnknownStoreError
from repro.sampling.seeds import SeedAssigner
from repro.server.metrics import _MIN_RATE_SECONDS, ServerMetrics, _rate
from repro.service import QueryPlanner, SketchStore


def make_store() -> SketchStore:
    store = SketchStore()
    store.create(
        "traffic",
        "bottom_k",
        k=16,
        seed_assigner=SeedAssigner(salt=7),
        n_shards=2,
    )
    return store


class VanishingStore:
    """A store whose engines disappear between ``names()`` and the
    probe — the race a concurrent restore/merge swap produces."""

    def __init__(self, inner: SketchStore, vanished: str) -> None:
        self._inner = inner
        self._vanished = vanished

    def names(self) -> list[str]:
        return sorted(set(self._inner.names()) | {self._vanished})

    def engine(self, name: str):
        return self._inner.engine(name)

    def state_hint(self, name: str) -> tuple[int, int]:
        return self._inner.state_hint(name)


class TestRate:
    def test_zero_observations_is_zero(self):
        assert _rate(0, 0.0) == 0.0
        assert _rate(0, 100.0) == 0.0
        assert _rate(-1, 1.0) == 0.0

    def test_sub_millisecond_denominator_floored(self):
        # a server microseconds old must not extrapolate 10 rows into
        # millions of rows/s
        assert _rate(10, 1e-7) == pytest.approx(10 / _MIN_RATE_SECONDS)
        assert _rate(10, 0.0) == pytest.approx(10 / _MIN_RATE_SECONDS)

    def test_normal_rate(self):
        assert _rate(500, 2.0) == pytest.approx(250.0)

    def test_fresh_metrics_snapshot_rates_are_finite_and_modest(self):
        metrics = ServerMetrics()
        store, planner = make_store(), None

        class NullPlanner:
            @staticmethod
            def cache_stats():
                return {
                    "hits": 0,
                    "misses": 0,
                    "hit_rate": 0.0,
                    "entries": 0,
                    "max_entries": 1,
                }

        payload = metrics.snapshot(store, NullPlanner(), {})
        assert payload["ingest"]["rows_per_second"] == 0.0
        assert payload["ingest"]["rows_per_busy_second"] == 0.0
        # a handful of rows at near-zero uptime stays bounded
        metrics.record_ingest(5, 0.0)
        payload = metrics.snapshot(store, NullPlanner(), {})
        assert payload["ingest"]["rows_per_busy_second"] <= 5 / _MIN_RATE_SECONDS
        assert payload["ingest"]["rows_per_second"] > 0.0
        del planner


class MetricsHarness:
    """A ServerMetrics wired to a tiny real store and planner."""

    def __init__(self) -> None:
        self.metrics = ServerMetrics()
        self.store = make_store()
        self.planner = QueryPlanner(self.store, max_cache_entries=8)

    def snapshot(self, pending: dict | None = None) -> dict:
        return self.metrics.snapshot(self.store, self.planner, pending or {})

    def prometheus(self, pending: dict | None = None) -> str:
        return self.metrics.prometheus(self.store, self.planner, pending or {})


class TestSnapshot:
    def test_engine_block_probes_and_pending(self):
        harness = MetricsHarness()
        payload = harness.snapshot(pending={"traffic": 3})
        engine = payload["engines"]["traffic"]
        assert engine["pending_batches"] == 3
        assert engine["version"] == harness.store.version("traffic")
        assert engine["n_updates"] == 0
        assert "shard_updates" in engine

    def test_vanished_engine_skipped_not_fatal(self):
        harness = MetricsHarness()
        store = VanishingStore(harness.store, vanished="ghost")
        payload = harness.metrics.snapshot(store, harness.planner, {})
        assert set(payload["engines"]) == {"traffic"}

    def test_vanished_engine_skipped_in_prometheus(self):
        harness = MetricsHarness()
        store = VanishingStore(harness.store, vanished="ghost")
        text = harness.metrics.prometheus(store, harness.planner, {})
        assert 'engine="traffic"' in text
        assert "ghost" not in text

    def test_latency_block_per_route(self):
        harness = MetricsHarness()
        harness.metrics.record_duration("GET /v1/query", 0.002)
        harness.metrics.record_duration("GET /v1/query", 0.004)
        harness.metrics.record_duration("POST /v1/ingest", 0.050)
        payload = harness.snapshot()
        latency = payload["latency"]
        assert latency["GET /v1/query"]["count"] == 2
        assert latency["POST /v1/ingest"]["count"] == 1
        assert 0.001 <= latency["GET /v1/query"]["p50_seconds"] <= 0.006
        merged = harness.metrics.merged_histogram()
        assert merged.count == 3

    def test_slow_request_counter(self):
        harness = MetricsHarness()
        harness.metrics.record_slow_request()
        assert harness.snapshot()["slow_requests"] == 1


class TestPrometheus:
    def test_exposition_contains_expected_families(self):
        harness = MetricsHarness()
        harness.metrics.record_request("GET /v1/query")
        harness.metrics.record_response(200)
        harness.metrics.record_duration("GET /v1/query", 0.002)
        harness.metrics.record_ingest(100, 0.01)
        text = harness.prometheus(pending={"traffic": 1})
        assert text.endswith("\n")
        for family in (
            "repro_uptime_seconds",
            'repro_requests_total{route="GET /v1/query"} 1',
            'repro_responses_total{status="200"} 1',
            "repro_request_duration_seconds_bucket",
            "repro_ingest_rows_total 100",
            'repro_ingest_rejected_total{reason="backpressure"} 0',
            'repro_query_cache_requests_total{outcome="hit"} 0',
            'repro_engine_version{engine="traffic"}',
            'repro_engine_pending_batches{engine="traffic"} 1',
            'repro_engine_shard_updates_total{engine="traffic",shard="0"}',
        ):
            assert family in text, family

    def test_bucket_series_cumulative_per_route(self):
        harness = MetricsHarness()
        for seconds in (0.001, 0.002, 0.004):
            harness.metrics.record_duration("GET /v1/query", seconds)
        text = harness.prometheus()
        bucket_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_request_duration_seconds_bucket")
            and 'route="GET /v1/query"' in line
        ]
        values = [float(line.rpartition(" ")[2]) for line in bucket_lines]
        assert values == sorted(values)
        assert values[-1] == 3  # the +Inf bucket equals the count


class TestConcurrency:
    def test_concurrent_mutation_conserves_counters(self):
        harness = MetricsHarness()
        per_thread, n_threads = 300, 8

        def hammer(worker: int) -> None:
            for index in range(per_thread):
                harness.metrics.record_request("GET /v1/query")
                harness.metrics.record_response(200 if index % 2 else 503)
                harness.metrics.record_duration(f"route-{worker % 2}", index / 1e5)
                harness.metrics.record_ingest(2, 1e-4)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for future in [pool.submit(hammer, worker) for worker in range(n_threads)]:
                future.result()

        total = per_thread * n_threads
        payload = harness.snapshot()
        assert payload["requests"]["GET /v1/query"] == total
        assert sum(payload["responses"].values()) == total
        assert payload["ingest"]["rows"] == 2 * total
        assert payload["ingest"]["batches"] == total
        assert (
            payload["ingest"]["rejected_backpressure"]
            == payload["responses"]["503"]
        )
        merged = harness.metrics.merged_histogram()
        assert merged.count == total
        assert sum(merged.bucket_counts()) == total
        by_route = [
            harness.metrics.route_histogram(f"route-{index}").count
            for index in (0, 1)
        ]
        assert sum(by_route) == total
