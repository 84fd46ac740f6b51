"""Fleet-health observability over HTTP.

``/healthz?verbose=1`` exposes the declarative health-rule engine,
``/statusz`` renders the operator page, ``/metrics/history`` serves the
ring-buffered time series the ticker samples, and ``?confidence=1``
queries carry the paper's estimate-quality payload.  The WAL
follower-lag scenario at the bottom is the integration test the rules
exist for: a held-back follower flips the server to degraded and a
catch-up recovers it through hysteresis.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import InvalidParameterError
from repro.server import ClientResponseError, ServerConfig
from repro.service import SketchStore, codec

# independently seeded (oblivious) instances: the cross-instance
# estimators behind distinct/l1 reject coordinated sketches
BOTTOM_K_CONFIG = {"k": 64, "salt": 3}
# distinct/l1 additionally need weight-oblivious (uniform-rank) sketches
POISSON_CONFIG = {"threshold": 0.5, "salt": 11, "n_shards": 2}


def sample_series(server) -> None:
    """One manual ticker sample — deterministic, no sleeping."""
    server.series.collect(
        server.metrics.series_sample(
            server.store, server.planner, dict(server._pending)
        )
    )


async def fill_engine(client, n: int = 40) -> None:
    await client.create_engine("t", "bottom_k", **BOTTOM_K_CONFIG)
    for day in ("mon", "tue"):
        await client.ingest(
            "t",
            day,
            [f"user-{day}-{i}" for i in range(n)],
            [float(i % 7 + 1) for i in range(n)],
        )


class TestHealthz:
    def test_plain_healthz_is_unchanged(self, run_scenario):
        async def scenario(server, client):
            payload = await client.healthz()
            assert payload["status"] == "ok"
            assert "health" not in payload

        run_scenario(scenario)

    def test_verbose_carries_the_rule_report(self, run_scenario):
        async def scenario(server, client):
            payload = await client.healthz(verbose=True)
            report = payload["health"]
            assert report["status"] == "healthy"
            assert report["severity"] == 0
            assert report["reasons"] == []
            for name in (
                "wal_follower_lag",
                "wal_checkpoint_age",
                "backpressure_503",
                "route_p99_burn",
                "cache_miss_rate",
                "sketch_fill_ratio",
            ):
                assert name in report["rules"], name
            # an idle WAL-less server has no data for the WAL probes
            assert report["rules"]["wal_follower_lag"]["value"] is None

        run_scenario(scenario)

    def test_sketch_probes_report_when_engines_exist(self, run_scenario):
        async def scenario(server, client):
            await fill_engine(client, n=200)
            payload = await client.healthz(verbose=True)
            rules = payload["health"]["rules"]
            fill = rules["sketch_fill_ratio"]["value"]
            assert fill is not None
            assert 0.0 < fill <= 1.0
            # informational probes never degrade the verdict
            assert payload["health"]["status"] == "healthy"
            assert rules["sketch_discard_ratio"]["value"] is not None

        run_scenario(scenario)


class TestStatusz:
    def test_statusz_renders_html(self, run_scenario):
        async def scenario(server, client):
            await fill_engine(client)
            sample_series(server)
            status, page = await client.request("GET", "/v1/statusz")
            assert status == 200
            assert isinstance(page, str)
            assert page.startswith("<!DOCTYPE html>")
            assert "healthy" in page
            assert "repro sketch server" in page
            assert "t" in page  # the engine table

        run_scenario(scenario)

    def test_client_statusz_helper(self, run_scenario):
        async def scenario(server, client):
            page = await client.statusz()
            assert isinstance(page, str)
            assert "uptime" in page

        run_scenario(scenario)


class TestMetricsHistory:
    def test_requires_metric_and_knows_its_names(self, run_scenario):
        async def scenario(server, client):
            sample_series(server)
            status, payload = await client.request("GET", "/v1/metrics/history")
            assert status == 400
            assert "repro_requests_total" in payload["error"]

        run_scenario(scenario)

    def test_unknown_metric_is_400(self, run_scenario):
        async def scenario(server, client):
            sample_series(server)
            with pytest.raises(ClientResponseError) as err:
                await client.metrics_history("no_such_metric")
            assert err.value.status == 400

        run_scenario(scenario)

    def test_bad_window_is_400(self, run_scenario):
        async def scenario(server, client):
            sample_series(server)
            for window in ("abc", "-1", "nan"):
                status, payload = await client.request(
                    "GET",
                    "/v1/metrics/history",
                    params={
                        "metric": "repro_requests_total",
                        "window": window,
                    },
                )
                assert status == 400
                assert "window" in payload["error"]

        run_scenario(scenario)

    def test_history_returns_sampled_points_and_rates(self, run_scenario):
        async def scenario(server, client):
            await client.healthz()
            sample_series(server)
            await client.healthz()
            sample_series(server)
            payload = await client.metrics_history("repro_requests_total")
            assert payload["metric"] == "repro_requests_total"
            assert payload["kind"] == "counter"
            assert len(payload["points"]) == 2
            values = [value for _, value in payload["points"]]
            assert values[1] > values[0]  # the second healthz was counted
            assert len(payload["rates"]) == 1
            gauge = await client.metrics_history("repro_query_cache_entries")
            assert gauge["kind"] == "gauge"
            assert "rates" not in gauge

        run_scenario(scenario)

    def test_ticker_samples_in_the_background(self, run_scenario):
        async def scenario(server, client):
            deadline = asyncio.get_running_loop().time() + 5.0
            while server.series.n_samples < 2:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            payload = await client.metrics_history(
                "repro_requests_total", window=60.0
            )
            assert len(payload["points"]) >= 2
            assert payload["interval_seconds"] == pytest.approx(0.05)

        run_scenario(scenario, series_interval=0.05)

    def test_interval_zero_disables_the_ticker(self, run_scenario):
        async def scenario(server, client):
            assert server._series_task is None
            await asyncio.sleep(0.05)
            assert server.series.n_samples == 0

        run_scenario(scenario, series_interval=0.0)


class TestServerConfigBounds:
    @pytest.mark.parametrize(
        "field", ["slow_request_ms", "series_interval", "health_target_p99"]
    )
    def test_nan_setting_is_refused(self, field):
        with pytest.raises(InvalidParameterError, match=field):
            ServerConfig(**{field: float("nan")})

    def test_infinite_settings_are_accepted(self):
        inf = float("inf")
        config = ServerConfig(
            slow_request_ms=inf, series_interval=inf, health_target_p99=inf
        )
        assert config.health_target_p99 == inf


class TestQueryConfidence:
    def test_sum_confidence_over_http(self, run_scenario):
        async def scenario(server, client):
            await fill_engine(client, n=200)
            payload = await client.query(
                "t", "sum", ["mon"], confidence=True
            )
            confidence = payload["confidence"]
            assert confidence["variance"] >= 0.0
            assert confidence["cv"] is None or confidence["cv"] >= 0.0
            assert confidence["ci90"]["confidence"] == pytest.approx(0.90)
            assert confidence["ci90"]["lower"] <= confidence["ci90"]["upper"]
            assert confidence["cv_bound"] == pytest.approx(
                1.0 / (BOTTOM_K_CONFIG["k"] - 2) ** 0.5
            )
            # an estimate, so slack rather than the bound itself
            assert confidence["cv"] < 3.0 * confidence["cv_bound"]

        run_scenario(scenario)

    def test_distinct_confidence_over_http(self, run_scenario):
        async def scenario(server, client):
            await client.create_engine("p", "poisson", **POISSON_CONFIG)
            for day in ("mon", "tue"):
                await client.ingest(
                    "p",
                    day,
                    [f"user-{i}" for i in range(300)],
                    [1.0] * 300,
                )
            payload = await client.query(
                "p", "distinct", ["mon", "tue"], confidence=True
            )
            confidence = payload["confidence"]
            assert confidence["variance"] > 0.0
            assert confidence["ci90"]["lower"] <= confidence["ci90"]["upper"]

        run_scenario(scenario)

    def test_unconfident_query_has_no_payload(self, run_scenario):
        async def scenario(server, client):
            await fill_engine(client)
            payload = await client.query("t", "sum", ["mon"])
            assert "confidence" not in payload

        run_scenario(scenario)

    def test_refusal_is_a_400(self, run_scenario):
        async def scenario(server, client):
            await client.create_engine("p", "poisson", **POISSON_CONFIG)
            for day in ("mon", "tue"):
                await client.ingest("p", day, ["a", "b", "c"], [1.0] * 3)
            # the same l1 query answers fine without the quality request
            await client.query("p", "l1", ["mon", "tue"])
            with pytest.raises(ClientResponseError) as err:
                await client.query(
                    "p", "l1", ["mon", "tue"], confidence=True
                )
            assert err.value.status == 400
            assert "no variance estimator" in str(err.value)

        run_scenario(scenario)

    def test_accuracy_histogram_in_metrics(self, run_scenario):
        async def scenario(server, client):
            await fill_engine(client, n=200)
            await client.query("t", "sum", ["mon"], confidence=True)
            # the cached re-run must not re-weight the distribution
            await client.query("t", "sum", ["mon"], confidence=True)
            snapshot = await client.metrics()
            accuracy = snapshot["accuracy"]
            assert accuracy["sum"]["count"] == 1
            assert accuracy["sum"]["p50_seconds"] >= 0.0

        run_scenario(scenario)

    def test_prometheus_scrape_has_health_and_cv_families(
        self, run_scenario
    ):
        async def scenario(server, client):
            await fill_engine(client, n=200)
            await client.query("t", "sum", ["mon"], confidence=True)
            status, payload = await client.request(
                "GET", "/v1/metrics", params={"format": "prometheus"}
            )
            assert status == 200
            text = (
                payload
                if isinstance(payload, str)
                else bytes(payload).decode("utf-8")
            )
            assert "# TYPE repro_health_status gauge" in text
            assert "repro_health_status 0" in text
            assert 'repro_health_status{rule="wal_follower_lag"} 0' in text
            assert "# TYPE repro_query_cv histogram" in text
            assert 'repro_query_cv_count{kind="sum"} 1' in text

        run_scenario(scenario)


class TestFollowerLagHealth:
    def test_lagging_follower_degrades_then_recovers(
        self, run_scenario, tmp_path
    ):
        async def scenario(server, client):
            await client.create_engine("t", "bottom_k", **BOTTOM_K_CONFIG)
            await client.ingest("t", "mon", ["a", "b"], [1.0, 2.0])
            replica = SketchStore()
            cursor = await client.catch_up(replica, follower="replica-1")
            report = (await client.healthz(verbose=True))["health"]
            assert report["status"] == "healthy"
            # the primary races ahead: 70 single-record batches, each
            # one LSN, past the 64-LSN warn threshold
            for i in range(70):
                await client.ingest("t", "mon", [f"late-{i}"], [1.0])
            report = (await client.healthz(verbose=True))["health"]
            assert report["status"] == "degraded"
            assert [r["rule"] for r in report["reasons"]] == [
                "wal_follower_lag"
            ]
            assert report["rules"]["wal_follower_lag"]["value"] >= 64
            # the follower catches up ...
            cursor = await client.catch_up(
                replica, cursor, follower="replica-1"
            )
            # ... but recovery waits for hysteresis consecutive healthy
            # evaluations: the first one still reports degraded
            report = (await client.healthz(verbose=True))["health"]
            assert report["status"] == "degraded"
            assert report["rules"]["wal_follower_lag"]["value"] == 0.0
            report = (await client.healthz(verbose=True))["health"]
            assert report["status"] == "healthy"
            assert report["reasons"] == []
            # and the replica really is caught up, bit-exact
            assert codec.to_bytes(replica.engine("t")) == codec.to_bytes(
                server.store.engine("t")
            )

        run_scenario(scenario, wal_dir=tmp_path / "wal", wal_fsync="off")

    def test_unregistered_replication_tracks_nothing(
        self, run_scenario, tmp_path
    ):
        async def scenario(server, client):
            await client.create_engine("t", "bottom_k", **BOTTOM_K_CONFIG)
            replica = SketchStore()
            await client.catch_up(replica)  # no follower id
            assert server._followers == {}
            report = (await client.healthz(verbose=True))["health"]
            assert report["rules"]["wal_follower_lag"]["value"] is None

        run_scenario(scenario, wal_dir=tmp_path / "wal", wal_fsync="off")
