"""Endpoint behaviour of :class:`repro.server.SketchServer`.

Covers the happy paths of every route plus the error surface the issue
calls out: malformed requests (400), unknown engines/paths (404),
oversized bodies and batches (413), per-engine backpressure (503), and
the graceful-shutdown snapshot of dirty engines.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

import json
import struct

from repro.sampling.seeds import SeedAssigner
from repro.server import AsyncSketchClient, ClientResponseError
from repro.server.wire import BATCH_CONTENT_TYPE, encode_batches
from repro.service import Query, SketchStore

from ingest_helper import ingest

SALT = 7


def make_store(kind: str = "poisson") -> SketchStore:
    store = SketchStore()
    if kind == "poisson":
        store.create(
            "traffic",
            "poisson",
            threshold=0.4,
            seed_assigner=SeedAssigner(salt=SALT),
            n_shards=4,
        )
    else:
        store.create(
            "traffic",
            "bottom_k",
            k=64,
            seed_assigner=SeedAssigner(salt=SALT),
            n_shards=4,
        )
    return store


def make_columns(n: int, seed: int = 0):
    generator = np.random.default_rng(seed)
    keys = [f"user{k}" for k in generator.choice(10**6, n, replace=False)]
    values = (generator.random(n) * 4 + 0.1).tolist()
    return keys, values


class TestBasics:
    def test_healthz_and_metrics(self, run_scenario):
        async def scenario(server, client):
            health = await client.healthz()
            assert health["status"] == "ok"
            assert health["engines"] == 1
            keys, values = make_columns(200)
            await client.ingest("traffic", "monday", keys, values)
            await client.query("traffic", "sum", ["monday"])
            await client.query("traffic", "sum", ["monday"])
            metrics = await client.metrics()
            assert metrics["ingest"]["rows"] == 200
            assert metrics["ingest"]["batches"] == 1
            assert metrics["query_cache"]["hits"] == 1
            assert metrics["query_cache"]["misses"] == 1
            engine = metrics["engines"]["traffic"]
            assert engine["version"] == 1
            assert engine["n_updates"] == 200
            assert engine["change_tick"] == 1
            assert metrics["responses"]["200"] >= 4

        run_scenario(scenario, store=make_store())

    def test_create_engine_then_ingest(self, run_scenario):
        async def scenario(server, client):
            created = await client.create_engine(
                "fresh", "bottom_k", k=32, salt=3, coordinated=True
            )
            assert created == {
                "name": "fresh",
                "kind": "bottom_k",
                "created": True,
            }
            keys, values = make_columns(50)
            report = await client.ingest("fresh", "day", keys, values)
            assert report["version"] == 1
            # duplicate creation is a client error
            with pytest.raises(ClientResponseError) as excinfo:
                await client.create_engine("fresh", "bottom_k", k=32)
            assert excinfo.value.status == 400
            # poisson without threshold is a client error
            status, payload = await client.request(
                "POST",
                "/v1/engines",
                json_body={"name": "p", "kind": "poisson"},
            )
            assert status == 400
            assert "threshold" in payload["error"]

        run_scenario(scenario)

    def test_ingest_shapes_and_query_parity(self, run_scenario):
        store = make_store()
        reference = make_store()
        keys, values = make_columns(600)

        async def scenario(server, client):
            # column style for monday, row style for tuesday
            await client.ingest("traffic", "monday", keys[:400], values[:400])
            status, _ = await client.request(
                "POST",
                "/v1/ingest",
                json_body={
                    "name": "traffic",
                    "rows": [
                        ["tuesday", key, value]
                        for key, value in zip(keys[200:], values[200:])
                    ],
                },
            )
            assert status == 200
            result = await client.query("traffic", "distinct", ["monday", "tuesday"])
            assert not result["from_cache"]
            again = await client.query("traffic", "distinct", ["monday", "tuesday"])
            assert again["from_cache"]
            assert again["value"] == result["value"]
            return result

        result = run_scenario(scenario, store=store)
        ingest(reference, "traffic", "monday", keys[:400], values[:400])
        ingest(reference, "traffic", "tuesday", keys[200:], values[200:])
        assert store.engine("traffic") == reference.engine("traffic")
        expected = reference.query("traffic", Query.distinct("monday", "tuesday"))
        assert result["value"]["estimate"] == float(expected.value.estimate)
        assert result["value"]["counts"] == {
            key: int(count)
            for key, count in expected.value.counts.items()
        }

    def test_csv_ingest_matches_json_ingest(self, run_scenario):
        json_store = make_store()
        csv_store = make_store()
        keys, values = make_columns(300)
        lines = "".join(f"monday,{key},{value!r}\n" for key, value in zip(keys, values))

        async def json_scenario(server, client):
            await client.ingest("traffic", "monday", keys, values)

        async def csv_scenario(server, client):
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": "traffic"},
                body=lines.encode(),
                content_type="text/csv",
            )
            assert status == 200
            assert payload["rows"] == 300

        run_scenario(json_scenario, store=json_store)
        run_scenario(csv_scenario, store=csv_store)
        assert json_store.engine("traffic") == csv_store.engine("traffic")


class TestBinaryIngest:
    def test_binary_ingest_matches_json_bit_exactly(self, run_scenario):
        json_store = make_store()
        binary_store = make_store()
        generator = np.random.default_rng(3)
        keys = generator.choice(10**6, 400, replace=False).astype(np.int64)
        values = generator.random(400) + 0.05
        batches = [
            (
                "monday" if index % 2 else "tuesday",
                keys[index * 100 : (index + 1) * 100],
                values[index * 100 : (index + 1) * 100],
            )
            for index in range(4)
        ]

        async def json_scenario(server, client):
            for instance, batch_keys, batch_values in batches:
                await client.ingest(
                    "traffic",
                    instance,
                    [int(key) for key in batch_keys],
                    batch_values.tolist(),
                )

        async def binary_scenario(server, client):
            report = await client.ingest_binary("traffic", batches)
            assert report["rows"] == 400
            assert report["batches"] == 4
            assert report["version"] >= 1

        run_scenario(json_scenario, store=json_store)
        run_scenario(binary_scenario, store=binary_store)
        assert json_store.engine("traffic") == binary_store.engine("traffic")

    def test_binary_ingest_string_and_mixed_keys(self, run_scenario):
        store = make_store()
        reference = make_store()
        str_keys, values = make_columns(120, seed=9)

        async def scenario(server, client):
            await client.ingest_binary(
                "traffic",
                [
                    ("monday", str_keys, values),
                    ("tuesday", [1, (2, "x"), None], [1.0, 2.0, 3.0]),
                ],
            )

        run_scenario(scenario, store=store)
        ingest(reference, "traffic", "monday", str_keys, values)
        ingest(
            reference, "traffic", "tuesday", [1, (2, "x"), None], [1.0, 2.0, 3.0]
        )
        assert store.engine("traffic") == reference.engine("traffic")

    def test_binary_ingest_requires_name(self, run_scenario):
        async def scenario(server, client):
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                body=encode_batches([("d", [1], [1.0])]),
                content_type=BATCH_CONTENT_TYPE,
            )
            assert status == 400
            assert "?name=" in payload["error"]

        run_scenario(scenario, store=make_store())

    def test_binary_garbage_is_400_not_500(self, run_scenario):
        async def scenario(server, client):
            for body in (b"", b"junk", b"RBAT" + b"\xff" * 20):
                status, payload = await client.request(
                    "POST",
                    "/v1/ingest",
                    params={"name": "traffic"},
                    body=body,
                    content_type=BATCH_CONTENT_TYPE,
                )
                assert status == 400, (body, payload)
                assert "error" in payload
            # nothing reached the engine
            assert server.store.version("traffic") == 0

        run_scenario(scenario, store=make_store())

    def test_binary_row_limit_applies_across_pipelined_batches(
        self, run_scenario
    ):
        async def scenario(server, client):
            batches = [
                ("d", np.arange(8, dtype=np.int64) + shift * 8, np.ones(8))
                for shift in range(3)
            ]
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": "traffic"},
                body=encode_batches(batches),
                content_type=BATCH_CONTENT_TYPE,
            )
            assert status == 413
            assert "24 rows" in payload["error"]
            assert server.store.version("traffic") == 0

        run_scenario(scenario, store=make_store(), max_batch_rows=20)


class TestNonFiniteRejection:
    """A NaN/Infinity body must get a 400 on every ingest format and
    never touch a sketch."""

    @staticmethod
    async def assert_rejected(server, client, *, body, content_type, params=None):
        status, payload = await client.request(
            "POST",
            "/v1/ingest",
            params=params or {"name": "traffic"},
            body=body,
            content_type=content_type,
        )
        assert status == 400, payload
        assert "error" in payload
        assert server.store.version("traffic") == 0
        assert server.store.engine("traffic").n_updates == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_json_literals_rejected(self, run_scenario, literal):
        async def scenario(server, client):
            # json.dumps(allow_nan=True) emits these bare literals, and
            # json.loads accepts them by default — the server must not
            body = (
                '{"name":"traffic","instance":"d","keys":["a"],'
                f'"values":[{literal}]}}'
            ).encode()
            await self.assert_rejected(
                server, client, body=body, content_type="application/json"
            )

        run_scenario(scenario, store=make_store())

    def test_json_overflow_number_rejected(self, run_scenario):
        async def scenario(server, client):
            # 1e999 is a spec-legal JSON number that parses to inf
            body = json.dumps(
                {
                    "name": "traffic",
                    "rows": [["d", "a", 1.0]],
                }
            ).replace("1.0", "1e999").encode()
            await self.assert_rejected(
                server, client, body=body, content_type="application/json"
            )

        run_scenario(scenario, store=make_store())

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NAN"])
    def test_csv_rejected_with_line_context(self, run_scenario, bad):
        async def scenario(server, client):
            body = f"d,a,1.0\nd,b,{bad}\n".encode()
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": "traffic"},
                body=body,
                content_type="text/csv",
            )
            assert status == 400
            assert "line 2" in payload["error"]
            assert server.store.engine("traffic").n_updates == 0

        run_scenario(scenario, store=make_store())

    def test_binary_smuggled_nan_rejected(self, run_scenario):
        async def scenario(server, client):
            blob = bytearray(encode_batches([("d", [1, 2], [1.0, 2.0])]))
            blob[-8:] = struct.pack("<d", float("nan"))
            await self.assert_rejected(
                server,
                client,
                body=bytes(blob),
                content_type=BATCH_CONTENT_TYPE,
            )

        run_scenario(scenario, store=make_store())


class TestBadJsonLabels:
    def test_list_or_object_labels_rejected_before_any_state_changes(
        self, run_scenario
    ):
        """Regression: a list/dict key used to get its 400 only after the
        engine version had advanced and the instance had been created."""

        async def scenario(server, client):
            bodies = [
                (
                    {"name": "traffic", "rows": [["d", "a", 1.0], ["d", [1], 2.0]]},
                    "rows[1]",
                ),
                (
                    {
                        "name": "traffic",
                        "instance": "e",
                        "keys": ["a", {"k": 1}],
                        "values": [1.0, 2.0],
                    },
                    "keys[1]",
                ),
                (
                    {"name": "traffic", "rows": [[["d"], "a", 1.0]]},
                    "rows[0]",
                ),
                (
                    {
                        "name": "traffic",
                        "instance": {"i": 1},
                        "keys": ["a"],
                        "values": [1.0],
                    },
                    "instance",
                ),
            ]
            for body, position in bodies:
                status, payload = await client.request(
                    "POST", "/v1/ingest", json_body=body
                )
                assert status == 400, payload
                assert payload["error"].startswith(f"{position}: "), payload
                assert "list or object" in payload["error"]
                assert server.store.version("traffic") == 0
                assert server.store.engine("traffic").instance_labels == []

        run_scenario(scenario, store=make_store())


class TestCsvHeaderHandling:
    def test_header_after_leading_blank_lines_is_skipped(self, run_scenario):
        """Regression: a leading blank line used to demote the header to
        a data row, failing with a confusing 'bad update row'."""
        store = make_store()

        async def scenario(server, client):
            body = b"\n\ninstance,key,value\nd,a,1.0\nd,b,2.0\n"
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": "traffic"},
                body=body,
                content_type="text/csv",
            )
            assert status == 200, payload
            assert payload["rows"] == 2

        run_scenario(scenario, store=store)
        assert store.engine("traffic").n_updates == 2

    def test_error_lines_count_non_empty_rows(self, run_scenario):
        async def scenario(server, client):
            body = b"\nd,a,1.0\n\n\nd,b,bogus\n"
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                params={"name": "traffic"},
                body=body,
                content_type="text/csv",
            )
            assert status == 400
            # 'd,b,bogus' is the second non-empty row
            assert "line 2" in payload["error"]

        run_scenario(scenario, store=make_store())


class TestErrorPaths:
    def test_malformed_requests_are_400(self, run_scenario):
        async def scenario(server, client):
            checks = [
                ("POST", "/v1/ingest", {"body": b"not json"}),
                ("POST", "/v1/ingest", {"json_body": ["not", "an", "object"]}),
                ("POST", "/v1/ingest", {"json_body": {"instance": "d"}}),
                (
                    "POST",
                    "/v1/ingest",
                    {"json_body": {"name": "traffic", "instance": "d"}},
                ),
                (
                    "POST",
                    "/v1/ingest",
                    {
                        "json_body": {
                            "name": "traffic",
                            "instance": "d",
                            "keys": ["a", "b"],
                            "values": [1.0],
                        }
                    },
                ),
                (
                    "POST",
                    "/v1/ingest",
                    {
                        "json_body": {
                            "name": "traffic",
                            "rows": [["d", "a", 1.0], ["d", "b"]],
                        }
                    },
                ),
                (
                    "POST",
                    "/v1/ingest",
                    {
                        "json_body": {
                            "name": "traffic",
                            "instance": "d",
                            "keys": ["a"],
                            "values": ["NaN-ish"],
                        }
                    },
                ),
                (
                    "POST",
                    "/v1/ingest",
                    {
                        "json_body": {
                            "name": "traffic",
                            "instance": "d",
                            "keys": ["a"],
                            "values": [-1.0],
                        }
                    },
                ),
                ("GET", "/v1/query", {"params": {"name": "traffic"}}),
                (
                    "GET",
                    "/v1/query",
                    {
                        "params": {
                            "name": "traffic",
                            "kind": "custom",
                            "instances": "a,b",
                        }
                    },
                ),
                (
                    "GET",
                    "/v1/query",
                    {"params": {"name": "traffic", "kind": "distinct"}},
                ),
                ("POST", "/v1/merge", {"json_body": {}}),
                ("POST", "/v1/snapshot", {"json_body": {}}),
            ]
            for method, path, kwargs in checks:
                status, payload = await client.request(method, path, **kwargs)
                assert status == 400, (method, path, kwargs, payload)
                assert "error" in payload

        run_scenario(scenario, store=make_store())

    def test_query_variant_validated_before_any_work(self, run_scenario):
        store = make_store()
        keys, values = make_columns(300)
        ingest(store, "traffic", "monday", keys[:200], values[:200])
        ingest(store, "traffic", "tuesday", keys[100:], values[100:])
        # every store read a query can make: the pair kinds read the
        # memoised column views, the others fresh merged sketches
        views = []

        def spy(reader):
            read = getattr(store, reader)

            def spied(name, instances):
                views.append((reader, name, tuple(instances)))
                return read(name, instances)

            return spied

        for reader in ("column_view", "snapshot_view"):
            setattr(store, reader, spy(reader))
        pair = {"name": "traffic", "instances": "monday,tuesday"}

        async def scenario(server, client):
            for kind in ("distinct", "l1"):
                status, payload = await client.request(
                    "GET",
                    "/v1/query",
                    params={**pair, "kind": kind, "variant": "xyz"},
                )
                assert status == 400, payload
                assert "variant" in payload["error"]
            assert views == []
            # the variant is case-insensitive: one computation, one entry
            first = await client.query(
                "traffic", "distinct", ["monday", "tuesday"], variant="HT"
            )
            second = await client.query(
                "traffic", "distinct", ["monday", "tuesday"], variant="ht"
            )
            assert not first["from_cache"] and second["from_cache"]
            assert second["value"]["estimator"] == "HT"
            # non-distinct kinds ignore the variant, so it splits no entry
            await client.query("traffic", "l1", ["monday", "tuesday"])
            again = await client.query(
                "traffic", "l1", ["monday", "tuesday"], variant="ht"
            )
            assert again["from_cache"]
            pair_read = ("column_view", "traffic", ("monday", "tuesday"))
            assert views == [pair_read, pair_read]

        run_scenario(scenario, store=store)

    def test_unknown_targets_are_404(self, run_scenario, tmp_path):
        async def scenario(server, client):
            status, _ = await client.request("GET", "/nope")
            assert status == 404
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                json_body={
                    "name": "ghost",
                    "instance": "d",
                    "keys": ["a"],
                    "values": [1.0],
                },
            )
            assert status == 404
            assert "ghost" in payload["error"]
            status, _ = await client.request(
                "GET",
                "/v1/query",
                params={
                    "name": "ghost",
                    "kind": "sum",
                    "instances": "d",
                },
            )
            assert status == 404
            # a missing-but-confined peer file is 404
            status, _ = await client.request(
                "POST",
                "/v1/merge",
                json_body={"path": "missing-peer.bin"},
            )
            assert status == 404

        run_scenario(
            scenario,
            store=make_store(),
            snapshot_path=tmp_path / "store.bin",
        )

    def test_network_paths_are_confined_to_the_data_dir(self, run_scenario, tmp_path):
        """/v1/snapshot and /v1/merge must never become an arbitrary
        file-write/read primitive for network clients."""

        async def scenario(server, client):
            for path in ("/etc/passwd", "../outside.bin"):
                status, payload = await client.request(
                    "POST", "/v1/snapshot", json_body={"path": path}
                )
                assert status == 403, (path, payload)
                status, payload = await client.request(
                    "POST", "/v1/merge", json_body={"path": path}
                )
                assert status == 403, (path, payload)

        run_scenario(
            scenario,
            store=make_store(),
            snapshot_path=tmp_path / "store.bin",
        )
        assert not (tmp_path.parent / "outside.bin").exists()

    def test_network_paths_rejected_without_data_dir(self, run_scenario):
        async def scenario(server, client):
            status, payload = await client.request(
                "POST", "/v1/snapshot", json_body={"path": "anywhere.bin"}
            )
            assert status == 403
            assert "data directory" in payload["error"]
            status, _ = await client.request(
                "POST", "/v1/merge", json_body={"path": "anywhere.bin"}
            )
            assert status == 403

        run_scenario(scenario, store=make_store())

    def test_wrong_method_is_405(self, run_scenario):
        async def scenario(server, client):
            status, _ = await client.request("DELETE", "/v1/query")
            assert status == 405
            status, _ = await client.request("GET", "/v1/ingest")
            assert status == 405

        run_scenario(scenario)

    def test_oversized_batch_is_413(self, run_scenario):
        async def scenario(server, client):
            keys, values = make_columns(21)
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                json_body={
                    "name": "traffic",
                    "instance": "d",
                    "keys": keys,
                    "values": values,
                },
            )
            assert status == 413
            assert "21 rows" in payload["error"]
            # nothing was ingested
            assert server.store.version("traffic") == 0

        run_scenario(scenario, store=make_store(), max_batch_rows=20)

    def test_oversized_body_is_413(self, run_scenario):
        async def scenario(server, client):
            status, payload = await client.request(
                "POST",
                "/v1/ingest",
                body=b"x" * 4096,
                content_type="text/csv",
                params={"name": "traffic"},
            )
            assert status == 413
            assert "exceeds" in payload["error"]

        run_scenario(scenario, store=make_store(), max_body_bytes=1024)


class GatedStore(SketchStore):
    """A store whose ingests block until the test opens the gate."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()

    def submit(self, request):
        assert self.gate.wait(timeout=30), "test gate never opened"
        return super().submit(request)


class TestBackpressure:
    def test_excess_ingest_is_rejected_503(self, run_scenario):
        store = GatedStore()
        store.create(
            "traffic",
            "bottom_k",
            k=16,
            seed_assigner=SeedAssigner(salt=SALT),
            n_shards=2,
        )

        async def scenario(server, client):
            blocked = AsyncSketchClient(host="127.0.0.1", port=server.port)
            async with blocked:
                first = asyncio.ensure_future(
                    blocked.ingest("traffic", "d", ["a"], [1.0])
                )
                # wait until the first batch occupies the engine's slot
                for _ in range(500):
                    if server._pending.get("traffic"):
                        break
                    await asyncio.sleep(0.01)
                assert server._pending.get("traffic") == 1
                status, payload = await client.request(
                    "POST",
                    "/v1/ingest",
                    json_body={
                        "name": "traffic",
                        "instance": "d",
                        "keys": ["b"],
                        "values": [1.0],
                    },
                )
                assert status == 503
                assert "in flight" in payload["error"]
                store.gate.set()
                report = await first
                assert report["version"] == 1
            metrics = await client.metrics()
            assert metrics["ingest"]["rejected_backpressure"] == 1

        run_scenario(
            scenario,
            store=store,
            max_pending_batches=1,
            ingest_threads=2,
        )


class TestShutdown:
    def test_shutdown_snapshots_dirty_engines(self, run_scenario, tmp_path):
        snapshot_path = tmp_path / "store.bin"
        store = make_store()

        async def scenario(server, client):
            keys, values = make_columns(150)
            await client.ingest("traffic", "monday", keys, values)

        run_scenario(scenario, store=store, snapshot_path=snapshot_path)
        assert snapshot_path.exists()
        restored = SketchStore.restore(snapshot_path)
        assert restored.engine("traffic") == store.engine("traffic")
        assert restored.version("traffic") == store.version("traffic")

    def test_shutdown_persists_http_created_engine(self, run_scenario, tmp_path):
        """An engine created over HTTP but never ingested into is still
        new state: shutdown must persist its definition (regression —
        creation used to mark the engine clean)."""
        snapshot_path = tmp_path / "store.bin"

        async def scenario(server, client):
            await client.create_engine("fresh", "poisson", threshold=0.5, salt=3)

        run_scenario(scenario, snapshot_path=snapshot_path)
        assert snapshot_path.exists()
        assert "fresh" in SketchStore.restore(snapshot_path).names()

    def test_backup_snapshot_does_not_suppress_shutdown_snapshot(
        self, run_scenario, tmp_path
    ):
        """POST /snapshot to a path other than the configured store file
        is a backup: the engines stay dirty and shutdown still persists
        the store file (regression — any snapshot used to mark clean)."""
        snapshot_path = tmp_path / "store.bin"

        async def scenario(server, client):
            keys, values = make_columns(60)
            await client.ingest("traffic", "monday", keys, values)
            await client.snapshot(tmp_path / "backup.bin")

        run_scenario(scenario, store=make_store(), snapshot_path=snapshot_path)
        assert (tmp_path / "backup.bin").exists()
        assert snapshot_path.exists()

    def test_config_cache_bound_reaches_planner(self, run_scenario):
        async def scenario(server, client):
            assert server.planner.max_cache_entries == 2

        run_scenario(scenario, max_cache_entries=2)

    def test_clean_engines_are_not_resnapshotted(self, run_scenario, tmp_path):
        snapshot_path = tmp_path / "store.bin"

        async def scenario(server, client):
            keys, values = make_columns(50)
            await client.ingest("traffic", "monday", keys, values)
            await client.snapshot()
            # drop the file: shutdown must NOT rewrite it, because no
            # engine changed since the explicit snapshot
            snapshot_path.unlink()

        run_scenario(scenario, store=make_store(), snapshot_path=snapshot_path)
        assert not snapshot_path.exists()

    def test_explicit_snapshot_and_merge_round_trip(self, run_scenario, tmp_path):
        peer_store = make_store()
        keys, values = make_columns(400, seed=5)
        ingest(peer_store, "traffic", "monday", keys[:250], values[:250])
        peer_path = peer_store.snapshot(tmp_path / "peer.bin")
        main_store = make_store()

        async def scenario(server, client):
            await client.ingest("traffic", "monday", keys[250:], values[250:])
            report = await client.merge(peer_path)
            assert report["engines"]["traffic"]["n_updates"] == 400
            saved = await client.snapshot(tmp_path / "merged.bin")
            assert saved["engines"] == ["traffic"]
            return saved

        saved = run_scenario(
            scenario,
            store=main_store,
            snapshot_path=tmp_path / "live.bin",
        )
        merged = SketchStore.restore(saved["path"])
        reference = make_store()
        ingest(reference, "traffic", "monday", keys, values)
        assert merged.engine("traffic") == reference.engine("traffic")


async def raw_request(
    port: int, method: str, target: str, headers: tuple = ()
) -> tuple[int, dict, bytes]:
    """One raw HTTP round-trip exposing the response headers."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{port}\r\n"
            "Connection: close\r\n"
        )
        for name, value in headers:
            head += f"{name}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n")
        await writer.drain()
        raw_head = await reader.readuntil(b"\r\n\r\n")
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        response_headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return status, response_headers, body
    finally:
        writer.close()


class TestObservability:
    def test_request_id_echoed_when_supplied(self, run_scenario):
        async def scenario(server, client):
            status, headers, _ = await raw_request(
                server.port,
                "GET",
                "/v1/healthz",
                headers=(("X-Request-Id", "trace-me-42"),),
            )
            assert status == 200
            assert headers["x-request-id"] == "trace-me-42"

        run_scenario(scenario)

    def test_request_id_generated_when_missing_or_bogus(self, run_scenario):
        async def scenario(server, client):
            _, headers, _ = await raw_request(server.port, "GET", "/v1/healthz")
            generated = headers["x-request-id"]
            assert len(generated) == 16
            int(generated, 16)
            # an unreasonable id (too long) is replaced, not echoed
            _, headers, _ = await raw_request(
                server.port,
                "GET",
                "/v1/healthz",
                headers=(("X-Request-Id", "x" * 300),),
            )
            assert headers["x-request-id"] != "x" * 300

        run_scenario(scenario)

    def test_request_id_present_on_error_responses(self, run_scenario):
        async def scenario(server, client):
            status, headers, _ = await raw_request(server.port, "GET", "/nope")
            assert status == 404
            assert "x-request-id" in headers

        run_scenario(scenario)

    def test_client_propagates_and_records_request_id(self, run_scenario):
        async def scenario(server, client):
            await client.healthz()
            first = client.last_request_id
            assert first is not None
            status, _ = await client.request("GET", "/v1/healthz", request_id="pinned-id")
            assert status == 200
            assert client.last_request_id == "pinned-id"

        run_scenario(scenario)

    def test_prometheus_exposition(self, run_scenario):
        async def scenario(server, client):
            keys, values = make_columns(100)
            await client.ingest("traffic", "monday", keys, values)
            await client.query("traffic", "sum", ["monday"])
            status, headers, body = await raw_request(
                server.port, "GET", "/v1/metrics?format=prometheus"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain; version=0.0.4")
            text = body.decode()
            assert text.endswith("\n")
            assert "repro_request_duration_seconds_bucket" in text
            assert 'repro_requests_total{route="POST /v1/ingest"} 1' in text
            assert 'repro_engine_version{engine="traffic"} 1' in text
            assert "repro_ingest_rows_total 100" in text

        run_scenario(scenario, store=make_store())

    def test_metrics_unknown_format_rejected(self, run_scenario):
        async def scenario(server, client):
            status, payload = await client.request(
                "GET", "/v1/metrics", params={"format": "xml"}
            )
            assert status == 400
            assert "format" in payload["error"]

        run_scenario(scenario)

    def test_unmatched_requests_share_one_label(self, run_scenario):
        async def scenario(server, client):
            # twice, so the metrics route itself is in both snapshots
            await client.metrics()
            before = await client.metrics()
            for index in range(200):
                status, _ = await client.request("GET", f"/v1/nope-{index}")
                assert status == 404
            for index in range(20):
                status, _ = await client.request(f"JUNK{index}", "/v1/query")
                assert status == 405
            after = await client.metrics()
            for family in ("requests", "latency"):
                assert set(after[family]) - set(before[family]) == {
                    "(unmatched)"
                }
            assert after["requests"]["(unmatched)"] == 220
            assert after["latency"]["(unmatched)"]["count"] == 220

        run_scenario(scenario)

    def test_spans_recorded_through_the_stack(self, run_scenario):
        async def scenario(server, client):
            server.trace.clear()
            keys, values = make_columns(50)
            await client.ingest("traffic", "monday", keys, values)
            await client.query("traffic", "sum", ["monday"])
            http_spans = server.trace.recent(name="http.request")
            assert len(http_spans) >= 2
            (ingest_span,) = server.trace.recent(name="store.ingest")
            (query_span,) = server.trace.recent(name="planner.query")
            assert query_span.attrs["cache"] == "miss"
            # spans executed on worker threads still carry the request
            # id of the HTTP request that triggered them
            assert ingest_span.trace_id is not None
            routes = {span.attrs.get("route") for span in http_spans}
            assert "POST /v1/ingest" in routes

        run_scenario(scenario, store=make_store())

    def test_slow_request_log_counts(self, run_scenario):
        async def scenario(server, client):
            keys, values = make_columns(50)
            await client.ingest("traffic", "monday", keys, values)
            metrics = await client.metrics()
            # every request is beyond a 1e-9 ms threshold
            assert metrics["slow_requests"] >= 1
            assert server.slow_log.n_slow >= 1

        run_scenario(scenario, store=make_store(), slow_request_ms=1e-9)
