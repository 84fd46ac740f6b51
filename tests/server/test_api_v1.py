"""The versioned ``/v1`` API surface.

Every endpoint in :data:`repro.server.app.ROUTE_SPEC` serves under
``/v1`` and nowhere else: a bare path is ``404``, whatever the method.
Also covers the client's single keyword-only constructor.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.server import AsyncSketchClient
from repro.server.app import ROUTE_SPEC
from repro.server.routing import V1_PREFIX

from test_app import make_columns, make_store, raw_request


async def raw_post(
    port: int, target: str, body: bytes, content_type: str = "application/json"
) -> tuple[int, dict, bytes]:
    """One raw POST round-trip exposing the response headers."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"POST {target} HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{port}\r\n"
            "Connection: close\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()
        raw_head = await reader.readuntil(b"\r\n\r\n")
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        payload = await reader.read()
        return status, headers, payload
    finally:
        writer.close()
        await writer.wait_closed()


class TestV1Surface:
    def test_route_table_mounts_every_spec_entry_under_v1(self, run_scenario):
        async def scenario(server, client):
            assert server.router.routes() == sorted(
                ((method, V1_PREFIX + path) for method, path, _ in ROUTE_SPEC),
                key=lambda key: (key[1], key[0]),
            )

        run_scenario(scenario)

    def test_client_traffic_flows_through_v1(self, run_scenario):
        async def scenario(server, client):
            keys, values = make_columns(120)
            await client.ingest("traffic", "monday", keys, values)
            result = await client.query("traffic", "sum", ["monday"])
            assert result["version"] == 1
            assert result["value"] is not None
            health = await client.healthz()
            assert health["status"] == "ok"
            metrics = await client.metrics()
            assert metrics["ingest"]["rows"] == 120
            server.series.collect(
                server.metrics.series_sample(
                    server.store, server.planner, dict(server._pending)
                )
            )
            history = await client.metrics_history("repro_ingest_rows_total")
            assert history["metric"] == "repro_ingest_rows_total"
            page = await client.statusz()
            assert "<html" in page.lower()
            # the route labels prove the requests really hit /v1 paths
            labels = set(metrics["requests"])
            assert "POST /v1/ingest" in labels
            assert "GET /v1/query" in labels

        run_scenario(scenario, store=make_store())

    def test_unprefixed_get_is_404_and_v1_unchanged(self, run_scenario):
        async def scenario(server, client):
            keys, values = make_columns(150)
            await client.ingest("traffic", "monday", keys, values)
            target = "/query?name=traffic&kind=sum&instances=monday&variant=l"
            status, _headers, _body = await raw_request(
                server.port, "GET", target
            )
            assert status == 404
            status, headers, body = await raw_request(
                server.port, "GET", V1_PREFIX + target
            )
            assert status == 200
            assert "deprecation" not in headers
            assert json.loads(body)["version"] == 1

        run_scenario(scenario, store=make_store())

    def test_unprefixed_post_ingest_is_404_and_applies_nothing(
        self, run_scenario
    ):
        async def scenario(server, client):
            keys, values = make_columns(40)
            body = json.dumps(
                {
                    "name": "traffic",
                    "instance": "monday",
                    "keys": keys,
                    "values": values,
                }
            ).encode()
            status, _headers, _payload = await raw_post(
                server.port, "/ingest", body
            )
            assert status == 404
            assert server.store.version("traffic") == 0
            status, _headers, payload = await raw_post(
                server.port, "/v1/ingest", body
            )
            assert status == 200
            assert json.loads(payload)["version"] == 1

        run_scenario(scenario, store=make_store())

    def test_wrong_method_is_405_only_on_v1_paths(self, run_scenario):
        async def scenario(server, client):
            status, _headers, _body = await raw_request(
                server.port, "DELETE", "/ingest"
            )
            assert status == 404
            status, headers, _body = await raw_request(
                server.port, "DELETE", "/v1/ingest"
            )
            assert status == 405
            assert headers["allow"] == "POST"

        run_scenario(scenario)

    @pytest.mark.parametrize(
        "method, path, attribute",
        ROUTE_SPEC,
        ids=[f"{method} {path}" for method, path, _ in ROUTE_SPEC],
    )
    def test_every_bare_spec_path_is_404(
        self, run_scenario, method, path, attribute
    ):
        async def scenario(server, client):
            status, headers, _body = await raw_request(
                server.port, method, path
            )
            assert status == 404
            assert "deprecation" not in headers and "link" not in headers
            assert server.router.resolve(method, V1_PREFIX + path) == getattr(
                server, attribute
            )
            assert server.router.label(method, path) == "(unmatched)"

        run_scenario(scenario)

    def test_unknown_version_prefix_is_404(self, run_scenario):
        async def scenario(server, client):
            status, _headers, _body = await raw_request(
                server.port, "GET", "/v2/healthz"
            )
            assert status == 404

        run_scenario(scenario)


class TestClientConstruction:
    def test_host_and_port_are_keyword_only(self):
        with pytest.raises(TypeError):
            AsyncSketchClient("127.0.0.1", 8080)  # type: ignore[misc]
        client = AsyncSketchClient(host="127.0.0.1", port=8080)
        assert (client.host, client.port) == ("127.0.0.1", 8080)

    @pytest.mark.parametrize(
        "removed",
        [{"base_url": "http://127.0.0.1:8080"}, {"api_prefix": "/v1"}],
        ids=["base_url", "api_prefix"],
    )
    def test_removed_constructor_keywords_are_rejected(self, removed):
        with pytest.raises(TypeError, match=next(iter(removed))):
            AsyncSketchClient(host="127.0.0.1", port=8080, **removed)

    def test_missing_endpoint_arguments(self):
        with pytest.raises(TypeError, match="host"):
            AsyncSketchClient()  # type: ignore[call-arg]
