"""The ``/replicate`` endpoint and the client's follower-side loop.

A WAL-attached server ships its log tail (or a full store delta once
the tail was checkpointed away); :meth:`AsyncSketchClient.catch_up`
must bring a follower to bit-exact parity in both modes, and the WAL
Prometheus families must show up on the metrics scrape.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server import (
    REPLICA_MODE_STORE,
    REPLICA_MODE_WAL,
    ClientResponseError,
)
from repro.service import SketchStore, codec

from ingest_helper import ingest

ENGINE_CONFIG = {
    "threshold": 0.05,
    "salt": 7,
    "coordinated": True,
    "n_shards": 4,
}


def engine_bytes(store, name: str = "t") -> bytes:
    return codec.to_bytes(store.engine(name))


def batch(i: int) -> tuple[str, list[str], list[float]]:
    return (
        f"day-{i % 2}",
        [f"user-{i}-{j}" for j in range(5)],
        [float(j + 1) for j in range(5)],
    )


async def create_and_fill(client, n: int, start: int = 0) -> None:
    if start == 0:
        await client.create_engine("t", "poisson", **ENGINE_CONFIG)
    for i in range(start, start + n):
        instance, keys, values = batch(i)
        await client.ingest("t", instance, keys, values)


class TestReplicateEndpoint:
    def test_requires_a_wal(self, run_scenario):
        async def scenario(server, client):
            with pytest.raises(ClientResponseError) as err:
                await client.replicate()
            assert err.value.status == 400
            assert "write-ahead log" in str(err.value)

        run_scenario(scenario)

    def test_rejects_bad_cursors(self, run_scenario, tmp_path):
        async def scenario(server, client):
            for since in ("-1", "abc"):
                status, payload = await client.request(
                    "GET", "/v1/replicate", params={"since": since}
                )
                assert status == 400, payload
                assert "since" in payload["error"]

        run_scenario(scenario, wal_dir=tmp_path / "wal", wal_fsync="off")

    def test_tail_mode_until_checkpoint_then_store_mode(
        self, run_scenario, tmp_path
    ):
        async def scenario(server, client):
            await create_and_fill(client, 3)
            mode, last_lsn, _ = await client.replicate()
            assert mode == REPLICA_MODE_WAL
            assert last_lsn == 4  # engine create + 3 batches
            # the primary snapshot checkpoints the log away
            await client.snapshot()
            mode, last_lsn, _ = await client.replicate()
            assert mode == REPLICA_MODE_STORE
            assert last_lsn == 4
            # a follower that is already past the checkpoint still gets
            # an (empty) tail, not a full delta
            mode, _, payload = await client.replicate(since=4)
            assert mode == REPLICA_MODE_WAL
            assert payload == b""

        run_scenario(
            scenario,
            wal_dir=tmp_path / "wal",
            wal_fsync="off",
            snapshot_path=tmp_path / "store.bin",
        )


class TestFollowerCatchUp:
    def test_wal_tail_catch_up_is_incremental(self, run_scenario, tmp_path):
        async def scenario(server, client):
            await create_and_fill(client, 4)
            follower = SketchStore()
            cursor = await client.catch_up(follower)
            assert cursor == 5
            assert follower.version("t") == 4
            # incremental: only the new records ship past the cursor
            await create_and_fill(client, 2, start=4)
            cursor = await client.catch_up(follower, cursor)
            assert cursor == 7
            assert engine_bytes(follower) == engine_bytes(server.store)
            # catching up again from the same cursor is a no-op
            assert await client.catch_up(follower, cursor) == cursor
            assert engine_bytes(follower) == engine_bytes(server.store)

        run_scenario(scenario, wal_dir=tmp_path / "wal", wal_fsync="off")

    def test_full_store_mode_replaces_after_checkpoint(
        self, run_scenario, tmp_path
    ):
        async def scenario(server, client):
            await create_and_fill(client, 4)
            await client.snapshot()
            follower = SketchStore()
            cursor = await client.catch_up(follower)
            assert cursor == 5
            assert engine_bytes(follower) == engine_bytes(server.store)
            assert follower.version("t") == 4

        run_scenario(
            scenario,
            wal_dir=tmp_path / "wal",
            wal_fsync="off",
            snapshot_path=tmp_path / "store.bin",
        )

    def test_full_store_mode_can_merge_disjoint_followers(
        self, run_scenario, tmp_path
    ):
        local = ("local-day", [f"edge-{j}" for j in range(6)], [2.0] * 6)
        follower = _local_store()
        ingest(follower, "t", *local)
        expected = _local_store()
        ingest(expected, "t", *local)

        async def scenario(server, client):
            await create_and_fill(client, 3)
            await client.snapshot()
            mode, _, _ = await client.replicate()
            assert mode == REPLICA_MODE_STORE
            await client.catch_up(follower, on_full="merge")
            return engine_bytes(server.store)

        primary_bytes = run_scenario(
            scenario,
            wal_dir=tmp_path / "wal",
            wal_fsync="off",
            snapshot_path=tmp_path / "store.bin",
        )
        peer = SketchStore()
        peer.register("t", codec.from_bytes(primary_bytes))
        expected.merge_store(peer)
        assert engine_bytes(follower) == engine_bytes(expected)

    def test_catch_up_rejects_unknown_on_full(self, run_scenario, tmp_path):
        async def scenario(server, client):
            with pytest.raises(ValueError, match="on_full"):
                await client.catch_up(SketchStore(), on_full="panic")

        run_scenario(scenario, wal_dir=tmp_path / "wal", wal_fsync="off")

    def test_follow_loop_tracks_the_primary(self, run_scenario, tmp_path):
        async def scenario(server, client):
            await create_and_fill(client, 2)
            follower = SketchStore()
            client._sleep = lambda _delay: asyncio.sleep(0)
            cursor = await client.follow(follower, max_rounds=2)
            assert cursor == 3
            assert engine_bytes(follower) == engine_bytes(server.store)
            # a stop event ends the loop promptly
            stop = asyncio.Event()
            stop.set()
            cursor = await client.follow(follower, since=cursor, stop=stop)
            assert cursor == 3

        run_scenario(scenario, wal_dir=tmp_path / "wal", wal_fsync="off")


class TestWalMetrics:
    def test_json_and_prometheus_families(self, run_scenario, tmp_path):
        async def scenario(server, client):
            await create_and_fill(client, 3)
            payload = await client.metrics()
            wal_stats = payload["wal"]
            assert wal_stats is not None
            assert wal_stats["appended_records"] == 4
            assert wal_stats["last_lsn"] == 4
            assert wal_stats["fsync_policy"] == "interval"
            status, text = await client.request(
                "GET", "/v1/metrics", params={"format": "prometheus"}
            )
            assert status == 200
            for family in (
                "repro_wal_appended_records_total 4",
                "repro_wal_appended_bytes_total",
                "repro_wal_fsync_seconds_bucket",
                'repro_wal_fsync_seconds_count{policy="interval"}',
                "repro_wal_replay_seconds",
                "repro_wal_last_lsn 4",
                "repro_wal_segments 1",
            ):
                assert family in text, f"missing family line: {family}"

        run_scenario(scenario, wal_dir=tmp_path / "wal")

    def test_no_wal_means_null_stats_and_no_families(self, run_scenario):
        async def scenario(server, client):
            payload = await client.metrics()
            assert payload["wal"] is None
            _, text = await client.request(
                "GET", "/v1/metrics", params={"format": "prometheus"}
            )
            assert "repro_wal_" not in text

        run_scenario(scenario)


def _local_store() -> SketchStore:
    """A follower-side store whose engine config matches the primary's."""
    from repro.sampling.seeds import SeedAssigner

    store = SketchStore()
    store.create(
        "t",
        "poisson",
        threshold=0.05,
        n_shards=4,
        seed_assigner=SeedAssigner(salt=7, coordinated=True),
    )
    return store
