"""The store's column-view memo and the query caches keyed per instance
on the engine's epoch and each instance's last change: which views a
write keeps, how a view it makes stale is rebuilt, and what concurrent
reads see.  That every read equals a fresh copy's answer after every
kind of write is the read-path oracle's
(tests/conformance/test_read_paths.py)."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.obs import TraceRecorder, set_default_recorder
from repro.sampling.ranks import PpsRanks
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query
from repro.service.store import SketchStore
from repro.streaming import StreamEngine
from repro.streaming import engine as engine_module
from repro.streaming import query as query_module
from repro.streaming.query import SketchColumns
from repro.streaming.sketch import StreamingPoisson

from ingest_helper import assert_fresh_view, ingest

INSTANCES = ("a", "b", "c")
PAIRS = (("a", "b"), ("b", "c"), ("a", "c"))
#: engine name -> config
ENGINES = {
    "uni": {"threshold": 0.5, "seed_assigner": SeedAssigner(salt=3)},
    "pps": {
        "threshold": 0.4,
        "rank_family": PpsRanks(),
        "seed_assigner": SeedAssigner(salt=5),
    },
}


def new_engine(name: str) -> StreamEngine:
    return StreamEngine.poisson(n_shards=2, **ENGINES[name])


def new_store(instances: tuple = INSTANCES) -> SketchStore:
    store = SketchStore()
    for name in ENGINES:
        store.register(name, new_engine(name))
        for offset, label in enumerate(instances):
            keys = list(range(offset * 5, offset * 5 + 12))
            ingest(store, name, label, keys, np.linspace(0.5, 3.0, 12))
    return store


def memo(store: SketchStore, name: str):
    """The entry's epoch and memo: ``(epoch, {instance: (tick, view)})``."""
    entry = store._entry(name)
    return entry.state.epoch, entry.columns


def memo_ticks(store: SketchStore, name: str) -> dict:
    """The memo's ``{instance: tick}``."""
    return {label: tick for label, (tick, _) in memo(store, name)[1].items()}


class TestColumnView:
    def test_memo_reuses_views_until_the_state_moves(self):
        store = new_store()
        recorder = TraceRecorder()
        previous = set_default_recorder(recorder)
        try:
            _, first = store.column_view("uni", ("a", "b"))
            _, again = store.column_view("uni", ("b", "a"))
            assert again == [first[1], first[0]]
            assert len(recorder.recent(name="store.columns")) == 1
            # a write to another instance keeps both views
            ingest(store, "uni", "c", [999], [1.0])
            _, kept = store.column_view("uni", ("a", "b"))
            assert all(new is old for new, old in zip(kept, first))
            assert len(recorder.recent(name="store.columns")) == 1
            # a write to "a" rebuilds its view only
            _, (_, (_, b_tick)) = store.state_hint("uni", ("a", "b"))
            version = ingest(store, "uni", "a", [999], [1.0])
            _, moved = store.column_view("uni", ("a", "b"))
            assert moved[0] is not first[0] and moved[1] is first[1]
            assert memo(store, "uni")[0] == 0
            assert memo_ticks(store, "uni") == {"a": version, "b": b_tick}
            assert store.state_hint("uni", ("a", "b")) == (
                version, (0, (version, b_tick))
            )
        finally:
            set_default_recorder(previous)

    def test_views_are_read_only(self):
        store = new_store()
        _, (view,) = store.column_view("uni", ("a",))
        assert isinstance(view, SketchColumns)
        with pytest.raises(ValueError):
            view.values[0] = 1.0
        with pytest.raises(ValueError):
            view.hashes[0] = 1
        order, ordered = view.join_index
        for memoised in (order, ordered):
            with pytest.raises(ValueError):
                memoised[0] = 0

    def test_queries_share_the_join_memo_until_an_ingest(self):
        store = new_store()
        store.query("pps", Query("dominance", ("a", "b")))
        _, views = store.column_view("pps", ("a", "b"))
        # the query filled the memo: each view's sorted hashes and its
        # self-selected flag, the candidate join's precondition, plus
        # the key span where keys matched; no column but the sorted
        # hashes.  The test reads it, computes nothing
        columns = {field.name for field in dataclasses.fields(SketchColumns)}
        filled = [set(vars(view)) - columns for view in views]
        assert all(
            {"join_index", "self_selected"} <= names
            <= {"join_index", "self_selected", "int_span"}
            for names in filled
        )
        assert [vars(view)["self_selected"] for view in views] == [True, True]
        memoised = [view.join_index for view in views]
        store.query("pps", Query("dominance", ("b", "a")))
        _, again = store.column_view("pps", ("a", "b"))
        for view, index in zip(again, memoised):
            assert view.join_index is index
        ingest(store, "pps", "a", [999], [2.0])
        store.query("pps", Query("dominance", ("a", "b")))
        _, moved = store.column_view("pps", ("a", "b"))
        assert moved[0].join_index[1] is not memoised[0][1]
        assert len(moved[0].join_index[1]) == len(moved[0].keys)

    def test_adopt_replaces_the_memo(self):
        store = new_store()
        store.column_view("uni", ("a", "b"))
        replacement = new_engine("uni")
        replacement.ingest("a", list(range(100, 160)), np.full(60, 9.0))
        store.adopt("uni", replacement, version=0)
        assert memo(store, "uni") == (1, {})
        _, (view,) = store.column_view("uni", ("a",))
        assert memo(store, "uni")[0] == 1
        assert memo_ticks(store, "uni") == {"a": 0}
        assert store.state_hint("uni", ("a", "b")) == (3, (1, (0, 0)))
        assert view.keys == tuple(replacement.sketch("a").entries)

    def test_concurrent_reads_and_ingests_see_their_own_version(self):
        # threshold 1 retains every key, so the view of "c" at version v
        # holds exactly the keys ingested by then: a view filled into a
        # replaced memo, or served across a version, breaks the count
        store = SketchStore()
        store.create("all", "poisson", threshold=1.0, n_shards=2)
        for label in INSTANCES:
            ingest(store, "all", label, [-1], [1.0])
        base = store.version("all")
        rounds, errors = 150, []

        def writer():
            for key in range(rounds):
                ingest(store, "all", "c", [key], [1.0])

        def reader(pair):
            try:
                for _ in range(rounds):
                    version, views = store.column_view("all", pair)
                    for label, view in zip(pair, views):
                        expected = 1 + (version - base if label == "c" else 0)
                        assert len(view.keys) == expected, (version, label)
            except AssertionError as error:
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(pair,)) for pair in PAIRS
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        version, (view,) = store.column_view("all", ("c",))
        assert version == base + rounds and len(view.keys) == rounds + 1

    def test_concurrent_ingests_into_each_instance_never_serve_stale_sums(self):
        # threshold 1 retains every key at probability 1, so sum(label)
        # is the number of its keys: an answer computed at version v
        # counts the writes to label acknowledged at v, and is no older
        # than the writes acknowledged before the query was issued
        store = SketchStore()
        store.create("all", "poisson", threshold=1.0, n_shards=2)
        for label in INSTANCES:
            ingest(store, "all", label, [-1], [1.0])
        planner = store.planner()
        rounds, answers = 100, []
        acked: dict = {label: [] for label in INSTANCES}

        def writer(label):
            for key in range(rounds):
                acked[label].append(ingest(store, "all", label, [key], [1.0]))

        def reader():
            for step in range(3 * rounds):
                label = INSTANCES[step % len(INSTANCES)]
                floor = len(acked[label])
                query = Query("sum", (label,))
                result = planner.peek("all", query) or planner.run("all", query)
                answers.append((label, floor, result))

        threads = [
            threading.Thread(target=writer, args=(label,)) for label in INSTANCES
        ] + [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert planner.hits > 0
        for label, floor, result in answers:
            counted = sum(version <= result.version for version in acked[label])
            assert float(result.value) == 1 + counted >= 1 + floor, (label, result)


def eight_shards(keys) -> SketchStore:
    """An 8-shard engine keeping every key, its instance "a" holding
    ``keys`` at value 1, its memoised view read and queried once."""
    store = SketchStore()
    store.create("all", "poisson", threshold=1.0, n_shards=8)
    ingest(store, "all", "a", keys, np.ones(len(keys)))
    ingest(store, "all", "b", keys[::2], np.ones(len(keys[::2])))
    store.query("all", Query("distinct", ("a", "b")))
    return store


@pytest.fixture
def merges(monkeypatch) -> list:
    """The labels of every merge of an instance's shards."""
    merged, merge = [], engine_module.merge_sketches

    def spy(sketches):
        sketches = list(sketches)
        merged.append(sketches[0].instance)
        return merge(sketches)

    monkeypatch.setattr(engine_module, "merge_sketches", spy)
    return merged


class TestViewRebuild:
    """A stale Poisson view is rebuilt from the memoised one and the rows
    its shards changed; only keys that are not canonical merge again."""

    def test_view_001_one_new_key_is_the_only_key_hashed(self, merges, monkeypatch):
        store = eight_shards(list(range(200)))
        merges.clear()  # the first builds merge
        hashed, hash_column = [], query_module.hash_key_column

        def spy(keys):
            keys = list(keys)
            hashed.append(keys)
            return hash_column(keys)

        monkeypatch.setattr(query_module, "hash_key_column", spy)
        ingest(store, "all", "a", [10_000], [2.0])
        _, (view, _) = store.column_view("all", ("a", "b"))
        assert merges == [] and hashed == [[10_000]]
        assert len(view.keys) == 201
        assert {"join_index", "self_selected"} <= set(vars(view))  # carried
        assert_fresh_view(store, "all", "a", view)

    def test_view_002_a_repeated_key_rereads_only_its_shards_values(
        self, merges, monkeypatch
    ):
        store = eight_shards(list(range(200)))
        merges.clear()
        reads, changes_since = [], StreamingPoisson.changes_since

        def spy(sketch, mark):
            keys, values, moved = changes_since(sketch, mark)
            reads.append((7 in sketch, len(values)))
            return keys, values, moved

        monkeypatch.setattr(StreamingPoisson, "changes_since", spy)
        ingest(store, "all", "a", [7], [2.0])
        _, (view,) = store.column_view("all", ("a",))
        shard = next(s for s in store.engine("all").shard_sketches("a") if 7 in s)
        assert merges == []
        assert sorted(reads) == [(False, 0)] * 7 + [(True, len(shard))]
        assert view.values[view.keys.index(7)] == 3.0
        assert_fresh_view(store, "all", "a", view)

    def test_view_003_a_mixed_int_and_str_instance_merges_its_shards(self, merges):
        store = eight_shards([*range(100), *map(str, range(100))])
        _, (view,) = store.column_view("all", ("a",))
        assert not view.canonical and view.shard_marks is None
        merges.clear()
        ingest(store, "all", "a", [10_000, "new"], [2.0, 2.0])
        _, (view,) = store.column_view("all", ("a",))
        assert merges == ["a"]
        assert_fresh_view(store, "all", "a", view)

    def test_view_004_a_key_failing_its_rank_test_passes_once_its_value_grows(self):
        # a hand-built state holds key 7 at a value its rank test fails,
        # so the view is not self-selected until 7's value grows
        engine = StreamEngine.poisson(0.5, rank_family=PpsRanks(), n_shards=4)
        engine.ingest("a", list(range(50)), np.full(50, 100.0))
        (shard,) = [s for s in engine.shard_sketches("a") if 7 in s]
        shard._values[7] = 1e-9
        store = SketchStore()
        store.register("pps", engine)
        _, (view,) = store.column_view("pps", ("a",))
        assert view.join_index is not None and not view.self_selected
        ingest(store, "pps", "a", [7], [100.0])
        _, (view,) = store.column_view("pps", ("a",))
        assert view.self_selected
        assert_fresh_view(store, "pps", "a", view)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_view_005_an_empty_view_grows_its_memo(self, engine, merges):
        store = SketchStore()
        store.register(engine, new_engine(engine))
        ingest(store, engine, "a", [5], [0.0])  # the instance retains nothing
        _, (view,) = store.column_view(engine, ("a",))
        assert view.keys == () and view.join_index is not None
        assert view.int_span is None and view.self_selected
        merges.clear()
        ingest(store, engine, "a", list(range(40)), np.full(40, 50.0))
        _, (view,) = store.column_view(engine, ("a",))
        assert merges == [] and view.keys
        assert {"join_index", "self_selected"} <= set(vars(view))
        assert_fresh_view(store, engine, "a", view)

    def test_view_006_a_merge_may_bring_a_key_failing_its_rank_test(self):
        store = new_store()
        store.query("pps", Query("dominance", ("a", "b")))
        peer = SketchStore()
        peer.register("pps", new_engine("pps"))
        ingest(peer, "pps", "a", [500, 501], [100.0, 100.0])
        (shard,) = [s for s in peer.engine("pps").shard_sketches("a") if 500 in s]
        shard._values[500] = 1e-9  # a hand-built state: 500 fails its test
        store.merge_store(peer)
        _, (view,) = store.column_view("pps", ("a",))
        assert "self_selected" in vars(view) and not view.self_selected
        assert_fresh_view(store, "pps", "a", view)
