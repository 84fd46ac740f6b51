"""The store's column-view memo and the query caches keyed on engine
state: replacement invalidation and coherence under interleaving."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfidenceUnavailableError, InvalidParameterError
from repro.obs import TraceRecorder, set_default_recorder
from repro.sampling.ranks import PpsRanks
from repro.sampling.seeds import SeedAssigner
from repro.service import codec
from repro.service.confidence import query_confidence
from repro.service.queries import Query, query_value_json
from repro.service.store import SketchStore
from repro.streaming import StreamEngine
from repro.streaming.query import (
    SketchColumns,
    distinct_count,
    l1_distance,
    max_dominance,
)

from ingest_helper import ingest

INSTANCES = ("a", "b", "c")
PAIRS = (("a", "b"), ("b", "c"), ("a", "c"))
#: engine name -> (config, the pair kinds it serves)
ENGINES = {
    "uni": (
        {"threshold": 0.5, "seed_assigner": SeedAssigner(salt=3)},
        ("distinct", "l1"),
    ),
    "pps": (
        {
            "threshold": 0.4,
            "rank_family": PpsRanks(),
            "seed_assigner": SeedAssigner(salt=5),
        },
        ("dominance",),
    ),
}


def new_engine(name: str) -> StreamEngine:
    return StreamEngine.poisson(n_shards=2, **ENGINES[name][0])


def new_store() -> SketchStore:
    store = SketchStore()
    for name in ENGINES:
        store.register(name, new_engine(name))
        for offset, label in enumerate(INSTANCES):
            keys = list(range(offset * 5, offset * 5 + 12))
            ingest(store, name, label, keys, np.linspace(0.5, 3.0, 12))
    return store


def memo(store: SketchStore, name: str):
    """The entry's memo: ``((version, epoch) or None, {instance: view})``."""
    return store._entry(name).columns


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
            ingest(store, "uni", "c", [999], [1.0])
            version, moved = store.column_view("uni", ("a", "b"))
            assert all(new is not old for new, old in zip(moved, first))
            assert memo(store, "uni")[0] == (version, 0)
            assert set(memo(store, "uni")[1]) == {"a", "b"}
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
        assert memo(store, "uni")[0] == (3, 1) == store.state_hint("uni")
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

    def test_unknown_instance_leaves_no_view(self):
        store = new_store()
        with pytest.raises(InvalidParameterError, match="unknown instance"):
            store.column_view("uni", ("a", "zzz"))
        assert set(memo(store, "uni")[1]) == {"a"}


# ----------------------------------------------------------------------
# Coherence under interleaving
# ----------------------------------------------------------------------
_values = st.lists(
    st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=6
)
_rows = st.tuples(
    st.sampled_from(INSTANCES),
    st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
    _values,
)
_steps = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(sorted(ENGINES)), _rows),
    st.tuples(
        st.just("query"),
        st.sampled_from(sorted(ENGINES)),
        st.sampled_from(PAIRS),
    ),
    st.tuples(
        st.just("adopt"),
        st.sampled_from(sorted(ENGINES)),
        st.integers(-3, 3),
        st.lists(_rows, max_size=3),
    ),
    st.tuples(
        st.just("merge"),
        st.sampled_from(sorted(ENGINES)),
        st.lists(_rows, min_size=1, max_size=3),
    ),
)


def _apply_rows(target, rows) -> None:
    """Ingest ``(instance, keys, values)`` rows into an engine or (via
    ``submit``) into engine ``target = (store, name)``."""
    for instance, keys, values in rows:
        values = (values * len(keys))[: len(keys)]
        if isinstance(target, StreamEngine):
            target.ingest(instance, keys, values)
        else:
            ingest(*target, instance, keys, values)


def _pair_queries(name: str, pair: tuple) -> list[Query]:
    queries = []
    for kind in ENGINES[name][1]:
        if kind == "distinct":
            for variant in ("l", "ht"):
                queries.append(
                    Query(kind, pair, variant=variant, confidence=True)
                )
        else:
            queries.append(Query(kind, pair))
    return queries


def _fresh_result(engine: StreamEngine, query: Query) -> dict:
    """The query's estimator run on the merged sketches of a copy of
    the engine that has never been memoised."""
    copy = codec.from_bytes(codec.to_bytes(engine))
    sketches = [copy.sketch(label) for label in query.instances]
    if query.kind == "distinct":
        value = distinct_count(*sketches, variant=query.variant)
    elif query.kind == "l1":
        value = l1_distance(*sketches)
    else:
        value = max_dominance(*sketches)
    confidence = (
        query_confidence(sketches, query, value) if query.confidence else None
    )
    return {"value": query_value_json(value), "confidence": confidence}


def _check_coherent(store: SketchStore) -> None:
    for name in ENGINES:
        engine = store.engine(name)
        for pair in PAIRS:
            for query in _pair_queries(name, pair):
                served = store.query(name, query)
                expected = _fresh_result(engine, query)
                assert {
                    "value": query_value_json(served.value),
                    "confidence": served.confidence,
                } == expected
        # one state at most, and it is the current one
        key, views = memo(store, name)
        assert key == store.state_hint(name)
        copy = codec.from_bytes(codec.to_bytes(engine))
        for label, view in views.items():
            fresh = SketchColumns.of(copy.sketch(label))
            assert view.keys == fresh.keys
            assert np.array_equal(view.hashes, fresh.hashes)
            assert np.array_equal(view.values, fresh.values)


class TestMemoCoherence:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_steps, min_size=1, max_size=6))
    def test_served_results_match_a_fresh_copy(self, steps):
        store = new_store()
        _check_coherent(store)
        for step in steps:
            op, name = step[0], step[1]
            if op == "submit":
                _apply_rows((store, name), [step[2]])
            elif op == "query":
                for query in _pair_queries(name, step[2]):
                    store.query(name, query)
            elif op == "adopt":
                replacement = codec.from_bytes(
                    codec.to_bytes(store.engine(name))
                )
                _apply_rows(replacement, step[3])
                store.adopt(
                    name,
                    replacement,
                    version=max(0, store.version(name) + step[2]),
                )
            else:
                peer = SketchStore()
                peer.register(name, new_engine(name))
                _apply_rows((peer, name), step[2])
                store.merge_store(peer)
            _check_coherent(store)

    def test_confidence_still_refused_for_memoised_kinds(self):
        store = new_store()
        with pytest.raises(ConfidenceUnavailableError):
            store.query("uni", Query("l1", ("a", "b"), confidence=True))
