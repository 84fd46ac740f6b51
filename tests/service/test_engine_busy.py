"""Non-waiting reads and submits: ``wait=False`` refuses a held engine
lock.

``SketchStore.column_view`` and ``QueryPlanner.run`` take the engine's
lock only when it is free; otherwise they raise ``EngineBusyError``
before they touch the view memo, the miss counter or the result cache.
``SketchStore.submit`` likewise raises before any version, WAL record or
sketch changes.  In every case a second thread holds the lock while the
test runs.
"""

from __future__ import annotations

import pytest

from repro.exceptions import EngineBusyError
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.service.queries import Query, QueryPlanner
from repro.service.store import IngestRequest, SketchStore
from repro.wal import WriteAheadLog

from ingest_helper import HeldLock, ingest

QUERY = Query.distinct("mon", "tue")


@pytest.fixture
def store() -> SketchStore:
    return fill(SketchStore())


def fill(store: SketchStore) -> SketchStore:
    store.create(
        "traffic",
        "poisson",
        threshold=0.5,
        seed_assigner=SeedAssigner(salt=11),
        n_shards=4,
    )
    keys = list(range(600))
    ingest(store, "traffic", "mon", keys[:400], [1.0 + key % 5 for key in keys[:400]])
    ingest(store, "traffic", "tue", keys[200:], [2.0 + key % 3 for key in keys[200:]])
    return store


def memo(store: SketchStore) -> tuple:
    entry = store._entry("traffic")
    views = entry.columns
    return entry.state.epoch, {label: id(view) for label, view in views.items()}


class TestEngineBusy:
    def test_busy_001_column_view_leaves_the_memo_unchanged(self, store):
        store.column_view("traffic", ("mon",))
        before = memo(store)
        with HeldLock(store, "traffic"):
            with pytest.raises(EngineBusyError):
                store.column_view("traffic", ("mon", "tue"), wait=False)
            after = memo(store)
        assert after == before

    def test_busy_002_run_leaves_misses_and_cache_unchanged(self, store):
        planner = QueryPlanner(store)
        planner.run("traffic", Query.l1("mon", "tue"))
        before = planner.cache_stats()
        with HeldLock(store, "traffic"):
            with pytest.raises(EngineBusyError):
                planner.run("traffic", QUERY, wait=False)
            after = planner.cache_stats()
        assert after == before

    def test_busy_003_released_lock_gives_the_execute_value(self, store):
        planner = QueryPlanner(store)
        with HeldLock(store, "traffic") as lock:
            with pytest.raises(EngineBusyError):
                planner.run("traffic", QUERY, wait=False)
            lock.release()
            value = planner.run("traffic", QUERY, wait=False).value
        assert value == planner.execute("traffic", QUERY)

    def test_busy_004_submit_changes_no_version_record_or_sketch(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        store = SketchStore()
        store.attach_wal(wal)
        try:
            fill(store)
            request = IngestRequest(
                engine="traffic",
                batches=(("mon", [9001], [1.0]), ("wed", [9002], [2.0])),
            )

            def state():
                return (
                    store._entry("traffic").version,
                    store.state_hint("traffic", ("mon", "tue", "wed")),
                    wal.last_lsn,
                    codec.to_bytes(store.engine("traffic")),
                )

            before = state()
            with HeldLock(store, "traffic") as lock:
                with pytest.raises(EngineBusyError):
                    store.submit(request, wait=False)
                lock.release()
                after = state()
                version = store.submit(request, wait=False)
        finally:
            wal.close()
        assert after == before
        assert version == before[0] + 2
