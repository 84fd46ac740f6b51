"""Per-instance cache keys: a write invalidates exactly what it changes.

The store records, per instance, the engine version that last changed
its sample.  A submit (live or replayed), a merge (in process or ``POST
/v1/merge``) and a replica catch-up move the instances they write, but
a submit whose every row the sample discards moves none; an adoption
moves the engine's epoch, which drops everything, and a restored store
starts with nothing cached.  Each case reads every
instance's column view and runs every query of three instances, makes
one write, then checks which views survive, which answers still hit
the cache, and that every answer, cached or not, equals
``planner.execute``.
"""

from __future__ import annotations

import itertools

from repro.sampling.seeds import SeedAssigner
from repro.service import SketchStore, codec
from repro.service.queries import Query
from repro.service.store import IngestRequest
from repro.wal import WriteAheadLog, apply_records, decode_tail

from ingest_helper import ingest

NAME = "traffic"
DAYS = ("mon", "tue", "wed")
CONFIG = {"threshold": 0.5, "seed_assigner": SeedAssigner(salt=11), "n_shards": 4}


def create(store: SketchStore) -> SketchStore:
    store.create(NAME, "poisson", **CONFIG)
    return store


def fill(store: SketchStore, day: str, start: int, count: int = 300) -> int:
    keys = list(range(start, start + count))
    return ingest(store, NAME, day, keys, [1.0 + key % 5 for key in keys])


def make_store(store: SketchStore | None = None) -> SketchStore:
    store = create(store if store is not None else SketchStore())
    for index, day in enumerate(DAYS):
        fill(store, day, index * 150)
    return store


def queries() -> list[Query]:
    return [Query.sum(day) for day in DAYS] + [
        Query.distinct(first, second)
        for first, second in itertools.combinations(DAYS, 2)
    ]


def warm(store: SketchStore) -> dict:
    """Read every instance's view and cache every answer; returns the
    views by instance."""
    _, views = store.column_view(NAME, DAYS)
    for query in queries():
        store.query(NAME, query)
    return dict(zip(DAYS, views))


def assert_invalidated(store: SketchStore, before: dict, changed: set) -> None:
    """The cached answers and views of exactly ``changed`` are gone, and
    every answer equals a recomputation."""
    planner = store.planner()
    for query in queries():
        reads_changed = bool(changed & set(query.instances))
        assert (planner.peek(NAME, query) is None) == reads_changed, query
        result = planner.run(NAME, query)
        assert result.from_cache != reads_changed, query
        assert result.value == planner.execute(NAME, query), query
    _, views = store.column_view(NAME, DAYS)
    kept = {day for day, view in zip(DAYS, views) if view is before[day]}
    assert kept == set(DAYS) - changed


class TestInstanceTicks:
    def test_tick_001_ingest_keeps_the_other_instances_view_and_answer(self):
        store = make_store()
        before = warm(store)
        cached = store.query(NAME, Query.sum("tue"))
        version = fill(store, "mon", 5000, 20)
        _, (tue,) = store.column_view(NAME, ("tue",))
        assert tue is before["tue"]
        result = store.query(NAME, Query.sum("tue"))
        assert result.from_cache and result.value is cached.value
        # a cached answer keeps the version it was computed at, a
        # version where it is still exact
        assert result.version == cached.version < version

    def test_tick_002_the_written_instances_queries_miss_and_recompute(self):
        store = make_store()
        before = warm(store)
        version = fill(store, "mon", 5000, 20)
        planner = store.planner()
        for query in (Query.sum("mon"), Query.distinct("mon", "tue")):
            assert planner.peek(NAME, query) is None
            result = planner.run(NAME, query)
            assert not result.from_cache and result.version == version
            assert result.value == planner.execute(NAME, query)
        _, (mon,) = store.column_view(NAME, ("mon",))
        assert mon is not before["mon"]

    def test_tick_003_a_request_moves_each_instance_it_writes(self):
        store = make_store()
        before = warm(store)
        store.submit(
            IngestRequest(
                engine=NAME,
                batches=(
                    ("mon", list(range(7000, 7020)), [2.0] * 20),
                    ("wed", list(range(7100, 7120)), [3.0] * 20),
                ),
            )
        )
        assert_invalidated(store, before, {"mon", "wed"})

    def test_tick_004_merge_moves_the_instances_the_peer_holds(self):
        store = make_store()
        before = warm(store)
        peer = create(SketchStore())
        fill(peer, "tue", 9000, 40)
        store.merge_store(peer)
        assert_invalidated(store, before, {"tue"})

    def test_tick_005_adopt_moves_the_epoch(self):
        store = make_store()
        before = warm(store)
        store.adopt(NAME, codec.from_bytes(codec.to_bytes(store.engine(NAME))))
        assert store.state_hint(NAME, DAYS) == (3, (1, (0, 0, 0)))
        assert_invalidated(store, before, set(DAYS))

    def test_tick_006_restore_starts_empty_then_ticks_per_instance(self, tmp_path):
        store = make_store()
        warm(store)
        restored = SketchStore.restore(store.snapshot(tmp_path / "store.bin"))
        assert restored.state_hint(NAME, DAYS) == (3, (0, (0, 0, 0)))
        for query in queries():
            assert restored.planner().peek(NAME, query) is None
            assert restored.query(NAME, query).value == store.query(NAME, query).value
        before = warm(restored)
        fill(restored, "wed", 5000, 20)
        assert_invalidated(restored, before, {"wed"})

    def test_tick_007_wal_replay_moves_the_replayed_instance(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        primary = SketchStore()
        primary.attach_wal(wal)
        try:
            make_store(primary)
            follower = SketchStore()
            blob, cursor = wal.tail_since(0)
            apply_records(follower, decode_tail(blob))
            before = warm(follower)
            fill(primary, "wed", 5000, 20)
            blob, _ = wal.tail_since(cursor)
            apply_records(follower, decode_tail(blob))
        finally:
            wal.close()
        assert follower.version(NAME) == primary.version(NAME)
        assert_invalidated(follower, before, {"wed"})

    def test_tick_008_catch_up_moves_the_instances_of_the_tail(
        self, run_scenario, tmp_path
    ):
        async def scenario(server, client):
            follower = SketchStore()
            cursor = await client.catch_up(follower)
            before = warm(follower)
            await client.ingest(NAME, "tue", list(range(8000, 8020)), [1.0] * 20)
            await client.catch_up(follower, cursor)
            assert follower.version(NAME) == server.store.version(NAME)
            assert_invalidated(follower, before, {"tue"})

        run_scenario(
            lambda server, client: _filled(server, client, scenario),
            wal_dir=tmp_path / "wal",
            wal_fsync="off",
        )

    def test_tick_009_full_store_catch_up_replaces_every_instance(
        self, run_scenario, tmp_path
    ):
        async def scenario(server, client):
            follower = SketchStore()
            cursor = await client.catch_up(follower)
            before = warm(follower)
            await client.ingest(NAME, "tue", [8001], [1.0])
            await client.snapshot()  # checkpoints the tail away
            await client.catch_up(follower, cursor)
            assert_invalidated(follower, before, set(DAYS))

        run_scenario(
            lambda server, client: _filled(server, client, scenario),
            wal_dir=tmp_path / "wal",
            wal_fsync="off",
            snapshot_path=tmp_path / "store.bin",
        )

    def test_tick_010_served_merge_moves_the_instances_of_the_peer_file(
        self, run_scenario, tmp_path
    ):
        peer = create(SketchStore())
        fill(peer, "wed", 9000, 40)
        peer.snapshot(tmp_path / "peer.bin")
        store = make_store()

        async def scenario(server, client):
            before = warm(store)
            await client.merge("peer.bin")
            assert_invalidated(store, before, {"wed"})

        run_scenario(scenario, store=store, snapshot_path=tmp_path / "store.bin")

    def test_tick_011_rows_the_sample_discards_move_no_instance(self):
        store = make_store()
        before = warm(store)
        seeds, threshold = CONFIG["seed_assigner"], CONFIG["threshold"]
        keys = [
            key for key in range(20000, 20100)
            if seeds.seed(key, instance="mon") > threshold
        ]
        engine = codec.to_bytes(store.engine(NAME))
        version = ingest(store, NAME, "mon", keys, [1.0] * len(keys))
        # the version and the update counters move, the sample does not
        assert version == 4 and codec.to_bytes(store.engine(NAME)) != engine
        assert store.state_hint(NAME, DAYS) == (4, (0, (1, 2, 3)))
        assert_invalidated(store, before, set())


async def _filled(server, client, scenario):
    """Fill the served store's three instances through HTTP, so the WAL
    holds them, then run ``scenario``."""
    await client.create_engine(NAME, "poisson", threshold=0.5, salt=11, n_shards=4)
    for index, day in enumerate(DAYS):
        keys = list(range(index * 150, index * 150 + 300))
        await client.ingest(NAME, day, keys, [1.0 + key % 5 for key in keys])
    return await scenario(server, client)
