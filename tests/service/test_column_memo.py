"""The store's column-view memo and the query caches keyed per instance
on the engine's epoch and each instance's last change: which views a
write keeps, and what concurrent reads see.  That every read equals a
fresh copy's answer after every kind of write is the read-path oracle's
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
from repro.streaming.query import SketchColumns

from ingest_helper import ingest

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
    """The entry's memo: ``(epoch or None, {instance: (tick, view)})``."""
    return store._entry(name).columns


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
        assert memo(store, "uni") == (None, {})
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
