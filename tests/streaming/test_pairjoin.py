"""The candidate join of the pair queries, pinned to the full join.

A pair of self-selected views (every key a view holds passes its own
retention rule) looks for the keys both retain only among the first
view's keys the second view's rule could keep.  Each numbered case
runs a pair query both ways, with the candidate join and with the full
join forced by patching the precondition, and requires the same answer
bit for bit, and the answer ``reference_pair_query`` recomputes from
the union-dict join.  The Hypothesis sweep checks the sorted-hash
matches themselves against the dict join over engine-built, restored
and adopted views.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.distinct import distinct_estimate
from repro.sampling.ranks import PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner, uniform_cutoff
from repro.service import codec
from repro.service.store import SketchStore
from repro.streaming import query as query_module
from repro.streaming.query import (
    SketchColumns,
    distinct_count,
    l1_distance,
    max_dominance,
)
from repro.streaming.sketch import StreamingPoisson

from ingest_helper import ingest
from test_join import (  # noqa: F401 (join_paths is a fixture)
    JOIN_CASES,
    join_paths,
    reference_pair_query,
    sketch_of,
)

ASSIGNER = SeedAssigner(salt=29)


def answer(kind, pair, predicate=None):
    """A pair query's answer, every float as its bytes (NaN included)."""
    if kind == "distinct":
        result = distinct_count(*pair, predicate=predicate)
        return dict(result.counts), np.float64(result.estimate).tobytes()
    if kind == "l1":
        return np.float64(l1_distance(*pair, predicate=predicate)).tobytes()
    result = max_dominance(*pair, predicate=predicate)
    return (
        np.float64(result.ht).tobytes(),
        np.float64(result.l).tobytes(),
        result.n_sampled_keys,
    )


def reference_answer(kind, pair, predicate=None):
    """:func:`answer`'s shape of ``reference_pair_query``."""
    expected = reference_pair_query(kind, pair, predicate)
    if kind == "distinct":
        p1, p2 = (sketch.threshold for sketch in pair)
        estimate = distinct_estimate(expected, p1, p2, "l").estimate
        return expected, np.float64(estimate).tobytes()
    if kind == "l1":
        return np.float64(expected).tobytes()
    ht, max_l, n = expected
    return np.float64(ht).tobytes(), np.float64(max_l).tobytes(), n


def full_join_answer(kind, pair, predicate=None):
    """:func:`answer` with every view failing the precondition."""
    with mock.patch.object(
        SketchColumns, "self_selected", property(lambda view: False)
    ):
        return answer(kind, pair, predicate)


def traced_answer(join_paths, kind, pair, predicate=None):
    """``(joins, answer)``: the joins the pair query took, as the
    ``join_paths`` fixture records them, and :func:`answer`."""
    join_paths.clear()
    result = answer(kind, pair, predicate)
    return list(join_paths), result


def pair_kinds(family) -> tuple:
    return ("dominance",) if isinstance(family, PpsRanks) else ("distinct", "l1")


def kept(instance, keys, values, threshold, family):
    """A sketch of pre-aggregated ``keys``: exactly the keys its rule
    keeps, so its view is self-selected."""
    sketch = StreamingPoisson(
        threshold, instance=instance, rank_family=family, seed_assigner=ASSIGNER
    )
    sketch.update_many(keys, values)
    return sketch


def both_ways(pair):
    return (pair, pair[::-1])


class TestPairJoin:
    def test_pairjoin_001_store_views_of_int64_columns_join_by_candidates(
        self, join_paths
    ):
        store = SketchStore()
        store.create("hours", "poisson", threshold=0.2, n_shards=4)
        store.create(
            "hours_pps", "poisson", threshold=0.1, rank_family=PpsRanks(),
            n_shards=4,
        )
        rng = np.random.default_rng(11)
        shared = np.cumsum(rng.integers(1, 1 << 16, 600, dtype=np.int64))
        for hour in range(3):
            own = (np.int64(hour + 1) << np.int64(40)) + np.arange(600)
            keys = np.concatenate([shared, own])
            values = 1.0 + 9.0 * rng.random(1200) ** 2
            for name in ("hours", "hours_pps"):
                ingest(store, name, f"h{hour}", keys, values)
        labels = ("h0", "h1", "h2")
        report, expected = [], []
        for name in ("hours", "hours_pps"):
            _, views = store.column_view(name, labels)
            _, sketches = store.snapshot_view(name, labels)
            for i, j in ((0, 1), (1, 0), (1, 2), (2, 0)):
                for kind in pair_kinds(views[i].rank_family):
                    pair = (views[i], views[j])
                    report.append(traced_answer(join_paths, kind, pair))
                    expected.append(
                        (["candidate"], full_join_answer(kind, pair))
                    )
                    report.append(answer(kind, pair))
                    expected.append(
                        reference_answer(kind, (sketches[i], sketches[j]))
                    )
        assert report == expected

    def test_pairjoin_002_a_view_failing_the_precondition_takes_the_full_join(
        self, join_paths
    ):
        keys = np.arange(200, dtype=np.int64)
        values = 1.0 + np.arange(200) % 7
        good_uniform = kept("y", keys, values, 0.4, UniformRanks())
        # a restored state whose rank column is not its keys' seeds: it
        # claims keys the threshold would not keep
        restored = sketch_of(
            "x", {key: 2.0 for key in range(0, 400, 3)}, threshold=0.4
        )
        good_pps = kept("y", keys, values, 0.3, PpsRanks())
        # a PPS state holding a key whose rank fails: its value is tiny
        state = kept("x", keys, values, 0.3, PpsRanks()).state_dict()
        failing = StreamingPoisson.from_state(
            {
                **{name: column for name, column in state.items() if name != "entries"},
                "keys": [*state["keys"], 10_000],
                "values": [*state["values"], 1e-9],
                "ranks": [*state["ranks"], 0.0],
            }
        )
        report, expected = [], []
        for pair in (*both_ways((restored, good_uniform)), *both_ways((failing, good_pps))):
            for kind in pair_kinds(pair[0].rank_family):
                report.append(traced_answer(join_paths, kind, pair))
                expected.append(
                    (["full", "candidate"], reference_answer(kind, pair))
                )
        assert report == expected

    def test_pairjoin_003_a_pps_key_at_the_view_maximum_is_matched(
        self, join_paths
    ):
        top = 8.0
        key = next(
            key for key in range(1000) if ASSIGNER.seed(key, instance="y") > 0.5
        )
        seed = ASSIGNER.seed(key, instance="y")
        # the least threshold that keeps ``key`` at value ``top``
        threshold = float(np.nextafter(seed / top, np.inf))
        others = [
            other for other in range(1000, 3000)
            if ASSIGNER.seed(other, instance="y") < 0.99 * seed
        ]
        second = kept(
            "y", [key, *others], [top] + [0.999 * top] * len(others),
            threshold, PpsRanks(),
        )
        first = kept(
            "x", [key, *others[::2], *range(5000, 5100)],
            np.linspace(1.0, top, 1 + len(others[::2]) + 100), 50.0, PpsRanks(),
        )
        pairs = both_ways((first, second))
        report = [
            (key in second.entries and key in first.entries, len(others) > 0),
            *(traced_answer(join_paths, "dominance", pair) for pair in pairs),
        ]
        assert report == [
            (True, True),
            *(
                (["candidate"], reference_answer("dominance", pair))
                for pair in pairs
            ),
        ]

    def test_pairjoin_004_a_threshold_below_every_seed_and_an_empty_view(
        self, join_paths
    ):
        keys = np.arange(300, dtype=np.int64)
        values = 1.0 + np.arange(300) % 5
        below = 1e-320
        pairs = [
            (kept("x", keys, values, 0.3, UniformRanks()),
             kept("y", keys, values, below, UniformRanks())),
            (kept("x", keys, values, 0.3, UniformRanks()),
             kept("y", [], [], 0.3, UniformRanks())),
            (kept("x", keys, values, 0.3, PpsRanks()),
             kept("y", [], [], 0.3, PpsRanks())),
        ]
        report = [uniform_cutoff(below), len(pairs[0][1].entries)]
        expected = [-1, 0]
        for pair in pairs:
            for ordered in both_ways(pair):
                for kind in pair_kinds(pair[0].rank_family):
                    report.append(traced_answer(join_paths, kind, ordered))
                    expected.append(
                        (["candidate"], full_join_answer(kind, ordered))
                    )
                    report.append(answer(kind, ordered))
                    expected.append(reference_answer(kind, ordered))
        assert report == expected

    @pytest.mark.parametrize(
        "family", [UniformRanks(), PpsRanks()], ids=["uniform", "pps"]
    )
    def test_pairjoin_005_collisions_and_non_canonical_keys_answer_right(
        self, family
    ):
        # thresholds that keep every positive key, so both views of a
        # canonical case are self-selected and meet the candidate join
        threshold = 1.0 if isinstance(family, UniformRanks) else 1e6
        cases = [
            (case.first, case.second, case.predicate) for case in JOIN_CASES
        ]
        # np.int64(-1) and 2**64 - 1 share a hash
        cases.append(({np.int64(-1): 1.0, 3: 2.0}, {2**64 - 1: 4.0, 3: 0.5}, None))
        report, expected = [], []
        for first, second, predicate in cases:
            pair = (
                sketch_of("x", first, threshold=threshold, rank_family=family),
                sketch_of("y", second, threshold=threshold, rank_family=family),
            )
            for ordered in both_ways(pair):
                for kind in pair_kinds(family):
                    candidate = answer(kind, ordered, predicate)
                    report.append((candidate, candidate))
                    expected.append(
                        (
                            full_join_answer(kind, ordered, predicate),
                            reference_answer(kind, ordered, predicate),
                        )
                    )
        assert report == expected


# ----------------------------------------------------------------------
# Hypothesis: candidate matches == the full join's, on engine views
# ----------------------------------------------------------------------
INT_POOL = list(range(-4, 36))
STR_POOL = [f"k{index}" for index in range(40)]
FAMILIES = {
    "uniform": (UniformRanks, [0.2, 0.5, 0.9, 1.0]),
    "pps": (PpsRanks, [0.05, 0.3, 2.0]),
}


@st.composite
def pair_engines(draw):
    """``(family name, threshold, n_shards, key kind, source, batches)``:
    two instances' additive streams over one key pool, read live, from
    a restored snapshot or from an adopted decoded engine."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    threshold = draw(st.sampled_from(FAMILIES[family][1]))
    key_kind = draw(st.sampled_from(["int", "int64", "str"]))
    pool = STR_POOL if key_kind == "str" else INT_POOL
    batches = [
        (
            label,
            draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(pool),
                        st.sampled_from([0.0, 0.5, 1.0, 3.0, 8.0]),
                    ),
                    max_size=40,
                )
            ),
        )
        for label in ("a", "b")
    ]
    return (
        family,
        threshold,
        draw(st.sampled_from([1, 3])),
        key_kind,
        draw(st.sampled_from(["live", "restored", "adopted"])),
        batches,
    )


def _pair_views(family, threshold, n_shards, key_kind, source, batches):
    store = SketchStore()
    store.create(
        "e", "poisson", threshold=threshold, rank_family=FAMILIES[family][0](),
        seed_assigner=SeedAssigner(salt=31), n_shards=n_shards,
    )
    for label, rows in batches:
        keys = [key for key, _ in rows]
        if key_kind == "int64":
            keys = np.array(keys, dtype=np.int64)
        ingest(store, "e", label, keys, [value for _, value in rows])
    if source == "restored":
        with tempfile.TemporaryDirectory() as directory:
            path = store.snapshot(Path(directory) / "store.bin")
            store = SketchStore.restore(path)
    elif source == "adopted":
        engine = codec.from_bytes(codec.to_bytes(store.engine("e")))
        store = SketchStore()
        store.adopt("e", engine)
    return store.column_view("e", ("a", "b"))[1]


def _assert_candidate_join_matches_full_join(case):
    found = []
    candidate_matches = query_module._candidate_matches

    def spy(*args):
        found.append(candidate_matches(*args))
        return found[-1]

    for first, second in both_ways(_pair_views(*case)):
        index = dict(zip(first.keys, range(len(first.keys))))
        rows = query_module._dict_rows(index, second)
        theirs = np.flatnonzero(rows >= 0)
        full = sorted(zip(rows[theirs].tolist(), theirs.tolist()))
        # one search per query: the candidate join of self-selected
        # views, else the full join's search over every row (the pools
        # hold no colliding keys, so no search falls back to the dict)
        indexed = first.join_index is not None and second.join_index is not None
        expected = [full] if indexed else []
        for kind in pair_kinds(first.rank_family):
            found.clear()
            with mock.patch.object(query_module, "_candidate_matches", spy):
                candidate = answer(kind, (first, second))
            matched = [
                None if pairs is None else sorted(zip(*(a.tolist() for a in pairs)))
                for pairs in found
            ]
            assert (matched, candidate) == (
                expected,
                full_join_answer(kind, (first, second)),
            )


@settings(max_examples=25, deadline=None)
@given(pair_engines())
def test_candidate_join_matches_the_full_join(case):
    _assert_candidate_join_matches_full_join(case)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(pair_engines())
def test_candidate_join_matches_the_full_join_long_sweep(case):
    _assert_candidate_join_matches_full_join(case)
