"""The store's column-view memo and the query caches keyed per instance
on the engine's epoch and each instance's last change: invalidation and
coherence under interleaving."""

from __future__ import annotations

import dataclasses
import itertools
import json
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
from repro.service.store import IngestRequest, SketchStore
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

    def test_unknown_instance_leaves_no_view(self):
        store = new_store()
        with pytest.raises(InvalidParameterError, match="unknown instance"):
            store.column_view("uni", ("a", "zzz"))
        assert set(memo(store, "uni")[1]) == {"a"}


# ----------------------------------------------------------------------
# Coherence under interleaving
# ----------------------------------------------------------------------
#: the coherence sweep's instances: each example keeps the first 2-4
LABELS = ("a", "b", "c", "d")

_values = st.lists(
    st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=6
)
#: one instance's rows; the instance is an index into the example's labels
_rows = st.tuples(
    st.integers(0, len(LABELS) - 1),
    st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
    _values,
)
_engines = st.sampled_from(sorted(ENGINES))
_steps = st.one_of(
    st.tuples(st.just("submit"), _engines, _rows),
    st.tuples(st.just("replay"), _engines, _rows, st.integers(1, 3)),
    st.tuples(st.just("query"), _engines, st.integers(0, 10**6)),
    st.tuples(
        st.just("adopt"),
        _engines,
        st.integers(-3, 3),
        st.lists(_rows, max_size=3),
    ),
    st.tuples(st.just("merge"), _engines, st.lists(_rows, min_size=1, max_size=3)),
)


def _rows_of(labels: tuple, rows) -> list[tuple]:
    """``(instance, keys, values)`` batches of drawn rows, each instance
    one of ``labels`` and each value list as long as its keys."""
    return [
        (labels[index % len(labels)], keys, (values * len(keys))[: len(keys)])
        for index, keys, values in rows
    ]


def _apply_rows(target, rows) -> None:
    """Ingest ``(instance, keys, values)`` batches into an engine or (via
    ``submit``) into engine ``target = (store, name)``."""
    for instance, keys, values in rows:
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


def _queries(name: str, labels: tuple) -> list[Query]:
    """Every query the sweep serves: a sum of each instance, with and
    without confidence, and each pair kind of each pair."""
    queries = [
        Query("sum", (label,), confidence=confidence)
        for label in labels
        for confidence in (False, True)
    ]
    for pair in itertools.combinations(labels, 2):
        queries += _pair_queries(name, pair)
    return queries


def _fresh_result(copy: StreamEngine, query: Query) -> str:
    """The query's estimator run on the merged sketches of ``copy``, a
    codec copy of the engine that has never been memoised, as canonical
    JSON: equal texts are equal payloads bit for bit."""
    sketches = [copy.sketch(label) for label in query.instances]
    if query.kind == "sum":
        value = sketches[0].to_sample().horvitz_thompson_total()
    elif query.kind == "distinct":
        value = distinct_count(*sketches, variant=query.variant)
    elif query.kind == "l1":
        value = l1_distance(*sketches)
    else:
        value = max_dominance(*sketches)
    confidence = (
        query_confidence(sketches, query, value) if query.confidence else None
    )
    return _payload(value, confidence)


def _payload(value, confidence) -> str:
    return json.dumps(
        {"value": query_value_json(value), "confidence": confidence},
        sort_keys=True,
    )


def _check_coherent(store: SketchStore, labels: tuple) -> None:
    """Every answer the planner gives — a cache probe's and a run's — is
    a fresh copy's, and reports a version where it is exact: no later
    than now, no earlier than the last change of an instance it read."""
    planner = store.planner()
    for name in ENGINES:
        version = store.version(name)
        copy = codec.from_bytes(codec.to_bytes(store.engine(name)))
        for query in _queries(name, labels):
            expected = _fresh_result(copy, query)
            (_, ticks) = store.state_hint(name, query.instances)[1]
            for served in (planner.peek(name, query), planner.run(name, query)):
                if served is None:
                    continue
                assert _payload(served.value, served.confidence) == expected
                assert max(ticks) <= served.version <= version
        # every instance was just read: each memoised view is the fresh
        # copy's, at its instance's current tick
        epoch, ticks = store.state_hint(name, labels)[1]
        key, views = memo(store, name)
        assert key == epoch
        assert memo_ticks(store, name) == dict(zip(labels, ticks))
        for label, (_, view) in views.items():
            fresh = SketchColumns.of(copy.sketch(label))
            assert view.keys == fresh.keys
            assert np.array_equal(view.hashes, fresh.hashes)
            assert np.array_equal(view.values, fresh.values)


def _run_coherence_sweep(n_labels: int, steps) -> None:
    labels = LABELS[:n_labels]
    store = new_store(labels)
    _check_coherent(store, labels)
    for step in steps:
        op, name = step[0], step[1]
        if op == "submit":
            _apply_rows((store, name), _rows_of(labels, [step[2]]))
        elif op == "replay":
            # a logged batch replayed past a gap, as WAL recovery does
            (batch,) = _rows_of(labels, [step[2]])
            store.submit(
                IngestRequest(
                    engine=name,
                    batches=(batch,),
                    version=store.version(name) + step[3],
                )
            )
        elif op == "query":
            queries = _queries(name, labels)
            store.query(name, queries[step[2] % len(queries)])
        elif op == "adopt":
            replacement = codec.from_bytes(codec.to_bytes(store.engine(name)))
            _apply_rows(replacement, _rows_of(labels, step[3]))
            store.adopt(
                name,
                replacement,
                version=max(0, store.version(name) + step[2]),
            )
        else:
            peer = SketchStore()
            peer.register(name, new_engine(name))
            _apply_rows((peer, name), _rows_of(labels, step[2]))
            store.merge_store(peer)
        _check_coherent(store, labels)


class TestMemoCoherence:
    """Ingests, replays, merges and adoptions, each into some of 2-4
    instances, interleaved with queries: no cached answer or view
    outlives the state of the instances it read."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, len(LABELS)), st.lists(_steps, min_size=1, max_size=6))
    def test_served_results_match_a_fresh_copy(self, n_labels, steps):
        _run_coherence_sweep(n_labels, steps)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(st.integers(2, len(LABELS)), st.lists(_steps, min_size=1, max_size=6))
    def test_served_results_match_a_fresh_copy_long_sweep(self, n_labels, steps):
        _run_coherence_sweep(n_labels, steps)

    def test_confidence_still_refused_for_memoised_kinds(self):
        store = new_store()
        with pytest.raises(ConfidenceUnavailableError):
            store.query("uni", Query("l1", ("a", "b"), confidence=True))
