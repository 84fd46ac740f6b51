"""The column-view join behind the multi-instance adapters, pinned
against the union-dict join it replaced.

``reference_outcome_columns`` is that earlier implementation, kept here
verbatim in behaviour: build the union with ``dict.update``, hash it
once, and fill membership and value columns per sketch from the entry
dicts.  Every edge case below must give the same union key order,
masks, values and seeds, on the live sketches and on copies restored
through the binary codec.

A pair of views joins on sorted hashes unless only the dict join is
exact; the numbered cases also pin which of the two joins ran.
"""

from __future__ import annotations

import dataclasses
from itertools import repeat
from typing import NamedTuple

import numpy as np
import pytest

from repro.batch.outcome_batch import OutcomeBatch
from repro.core.max_oblivious import MaxObliviousL
from repro.core.or_estimators import OrObliviousL
from repro.sampling.ranks import PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner, key_hashes
from repro.service import codec
from repro.service.store import SketchStore
from repro.streaming import query as query_module
from repro.streaming.query import (
    SketchColumns,
    _outcome_columns,
    distinct_count,
    l1_distance,
    max_dominance,
    outcome_batch,
    sum_aggregate,
)
from repro.streaming.sketch import StreamingPoisson

from ingest_helper import ingest


def reference_outcome_columns(sketches, predicate, include_seeds):
    """The union-dict join: ``(keys, retained, batch)``."""
    entry_maps = [sketch.entries for sketch in sketches]
    union: dict[object, object] = {}
    for entries in entry_maps:
        union.update(entries)
    keys = list(union) if predicate is None else list(filter(predicate, union))
    n, r = len(keys), len(sketches)
    retained = np.empty((n, r), dtype=bool)
    values = np.empty((n, r), dtype=np.float64)
    sampled = np.empty((n, r), dtype=bool)
    seeds = np.empty((n, r), dtype=np.float64) if include_seeds else None
    hashes = key_hashes(keys)
    for index, (sketch, entries) in enumerate(zip(sketches, entry_maps)):
        retained[:, index] = np.fromiter(
            map(entries.__contains__, keys), dtype=bool, count=n
        )
        values[:, index] = np.fromiter(
            map(entries.get, keys, repeat(0.0)), dtype=np.float64, count=n
        )
        oblivious = isinstance(sketch.rank_family, UniformRanks)
        if include_seeds or oblivious:
            seed_column = sketch.seed_assigner.seeds_from_hashes(
                hashes, instance=sketch.instance
            )
            if seeds is not None:
                seeds[:, index] = seed_column
        sampled[:, index] = retained[:, index]
        if oblivious:
            sampled[:, index] |= seed_column <= sketch.threshold
    return keys, retained, OutcomeBatch(values=values, sampled=sampled, seeds=seeds)


ASSIGNER = SeedAssigner(salt=29)


def sketch_of(instance, entries, threshold=0.5, rank_family=None):
    """A Poisson sketch retaining exactly ``entries`` (in order), built
    from state so values the update path rejects (NaN) can appear."""
    family = rank_family if rank_family is not None else UniformRanks()
    return StreamingPoisson.from_state(
        {
            "instance": instance,
            "rank_family": family,
            "salt": ASSIGNER.salt,
            "coordinated": False,
            "n_updates": len(entries),
            "n_discarded_keys": 0,
            "threshold": threshold,
            "keys": list(entries),
            "values": list(entries.values()),
            "ranks": [0.0] * len(entries),
        }
    )


def restored(sketch):
    return codec.from_bytes(codec.to_bytes(sketch))


def restored_type(key):
    """The type ``key`` has after a codec round-trip, which restores
    NumPy integer keys as Python ints."""
    return int if isinstance(key, np.integer) else type(key)


def assert_same_join(sketches, predicate=None):
    for family, key_type in (
        (sketches, type),
        ([restored(sketch) for sketch in sketches], restored_type),
    ):
        for include_seeds in (True, False):
            expected_keys, expected_retained, expected = (
                reference_outcome_columns(sketches, predicate, include_seeds)
            )
            keys, retained, batch = _outcome_columns(
                family, predicate, include_seeds, with_keys=True
            )
            assert keys == expected_keys
            assert [type(key) for key in keys] == [
                key_type(key) for key in expected_keys
            ]
            assert np.array_equal(retained, expected_retained)
            assert np.array_equal(batch.sampled, expected.sampled)
            assert np.array_equal(batch.values, expected.values, equal_nan=True)
            if include_seeds:
                assert np.array_equal(batch.seeds, expected.seeds)
            else:
                assert batch.seeds is None
            # views join exactly like the sketches they were built from
            views = [SketchColumns.of(sketch) for sketch in family]
            assert outcome_batch(views, predicate, include_seeds)[0] == keys


class TestJoinEdgeCases:
    def test_three_sketches_with_pairwise_only_keys(self):
        # keys 10-14 live in sketches 1 & 3 only, keys 20-24 in 2 & 3 only
        shared13 = {key: 1.0 + key for key in range(10, 15)}
        shared23 = {key: 2.0 + key for key in range(20, 25)}
        s1 = sketch_of("x", {0: 1.5, **shared13, 1: 2.5})
        s2 = sketch_of("y", {**shared23, 2: 0.5})
        s3 = sketch_of("z", {3: 4.0, **shared23, **shared13, 0: 1.0})
        sketches = [s1, s2, s3]
        assert_same_join(sketches)
        assert_same_join(sketches, predicate=lambda key: key % 2 == 0)
        # OR acts on the Boolean domain: the same keys, all valued 1
        indicators = [
            sketch_of(sketch.instance, dict.fromkeys(sketch.entries, 1.0))
            for sketch in sketches
        ]
        for estimator, family in (
            (MaxObliviousL((0.5, 0.5, 0.5)), sketches),
            (OrObliviousL((0.5, 0.5, 0.5)), indicators),
        ):
            _, _, batch = reference_outcome_columns(family, None, True)
            expected = float(estimator.estimate_batch(batch).sum())
            assert sum_aggregate(family, estimator) == expected
            assert sum_aggregate(
                [restored(sketch) for sketch in family], estimator
            ) == expected

    @pytest.mark.parametrize("empty_side", [0, 1])
    def test_empty_sketch_on_either_side(self, empty_side):
        full = sketch_of("x", {key: 1.0 + key for key in range(8)})
        empty = sketch_of("y", {})
        pair = [full, empty] if empty_side else [empty, full]
        assert_same_join(pair)
        assert_same_join([empty, sketch_of("z", {})])
        assert l1_distance(*pair) == l1_distance(*map(restored, pair))
        assert distinct_count(*pair).counts == distinct_count(
            *map(restored, pair)
        ).counts

    def test_predicate_rejecting_every_key(self):
        s1 = sketch_of("x", {key: 1.0 for key in range(6)})
        s2 = sketch_of("y", {key: 2.0 for key in range(3, 9)})
        reject = lambda key: False  # noqa: E731
        assert_same_join([s1, s2], predicate=reject)
        keys, batch = outcome_batch([s1, s2], predicate=reject)
        assert keys == [] and batch.values.shape == (0, 2)
        assert l1_distance(s1, s2, predicate=reject) == 0.0
        assert distinct_count(s1, s2, predicate=reject).estimate == 0.0

    def test_nan_valued_retained_entry_stays_sampled(self):
        s1 = sketch_of("x", {0: float("nan"), 1: 1.0, 2: 3.0})
        s2 = sketch_of("y", {1: 2.0, 0: 1.0}, threshold=1e-300)
        assert_same_join([s1, s2])
        keys, retained, batch = _outcome_columns(
            [s1, s2], None, True, with_keys=True
        )
        row = keys.index(0)
        assert retained[row, 0] and batch.sampled[row, 0]
        assert np.isnan(batch.values[row, 0])
        assert np.isnan(l1_distance(s1, s2))

    @pytest.mark.parametrize("ranks", [UniformRanks(), PpsRanks()])
    def test_mixed_str_int_negative_and_huge_keys(self, ranks):
        huge = [2**64, 2**64 + 7, 2**70]
        s1 = sketch_of(
            "x",
            {"a": 1.0, -1: 2.0, huge[0]: 3.0, 5: 4.0, "b": 0.5, -(2**63): 1.5},
            threshold=0.6,
            rank_family=ranks,
        )
        s2 = sketch_of(
            "y",
            {huge[1]: 2.0, "b": 1.0, -1: 7.0, huge[2]: 0.25, 6: 3.0},
            threshold=0.4,
            rank_family=ranks,
        )
        assert_same_join([s1, s2])
        assert_same_join([s2, s1], predicate=lambda key: key != "b")
        if isinstance(ranks, PpsRanks):
            assert max_dominance(s1, s2) == max_dominance(
                restored(s1), restored(s2)
            )
        else:
            assert l1_distance(s1, s2) == l1_distance(
                restored(s1), restored(s2)
            )


# ----------------------------------------------------------------------
# Sorted-hash join or dict join: numbered cases
# ----------------------------------------------------------------------
@pytest.fixture
def join_paths(monkeypatch):
    """The join each pair of views took, in call order: ``"sorted"``,
    or ``"dict"`` when the sorted join left the pair to the dict."""
    paths = []
    sorted_rows = query_module._sorted_rows

    def spy(first, second):
        rows = sorted_rows(first, second)
        paths.append("dict" if rows is None else "sorted")
        return rows

    monkeypatch.setattr(query_module, "_sorted_rows", spy)
    return paths


class JoinCase(NamedTuple):
    id: str
    first: dict
    second: dict
    #: the join the live pair takes
    path: str
    predicate: object = None
    rank_family: object = None


JOIN_CASES = [
    JoinCase(
        "join_001_numpy_and_python_ints_join_as_one_key",
        {np.int64(5): 1.0, 6: 2.0, np.int64(-3): 0.5, 2**63: 1.5},
        {5: 3.0, np.int64(6): 0.25, 7: 1.0, np.uint64(2**63): 2.0},
        "sorted",
    ),
    JoinCase(
        "join_002_cross_view_hash_collision_falls_back",
        # 2**64 and 0 both hash 0 & MASK
        {0: 1.0, 1: 2.0, 9: 0.5},
        {2**64: 3.0, 1: 1.0, 8: 4.0},
        "dict",
    ),
    JoinCase(
        "join_003_within_view_duplicate_hash_falls_back",
        {0: 1.0, 2**64: 2.0, 5: 1.0},
        {5: 2.0, 7: 1.0, 2**64: 0.5},
        "dict",
    ),
    JoinCase(
        "join_004_bool_equal_to_int_falls_back",
        {True: 1.0, 2: 1.0, 3: 4.0},
        {1: 2.0, 2: 3.0, 0: 1.0},
        "dict",
    ),
    JoinCase(
        "join_005_float_equal_to_int_falls_back",
        {1: 1.0, 2: 2.0},
        {1.0: 3.0, 2.5: 1.0, 3: 1.0},
        "dict",
    ),
    JoinCase(
        "join_006_str_keys_join_sorted",
        {"a": 1.0, "b": 2.0, "c": 3.0},
        {"b": 1.0, "d": 2.0, "a": 0.5},
        "sorted",
    ),
    JoinCase(
        "join_007_str_subclass_equal_to_str_falls_back",
        {"a": 1.0, "b": 2.0},
        {np.str_("a"): 3.0, "c": 1.0},
        "dict",
    ),
    JoinCase(
        "join_008_empty_first_view",
        {},
        {key: 1.0 + key for key in range(6)},
        "sorted",
    ),
    JoinCase(
        "join_009_empty_second_view",
        {key: 1.0 + key for key in range(6)},
        {},
        "sorted",
    ),
    JoinCase(
        "join_010_predicate_over_a_sorted_pair_fills_own_seeds",
        {key: 0.5 + key for key in range(0, 40, 2)},
        {key: 2.0 + key for key in range(0, 60, 3)},
        "sorted",
        predicate=lambda key: key % 4 != 0,
        rank_family=PpsRanks(),
    ),
]


@pytest.mark.parametrize("case", JOIN_CASES, ids=[case.id for case in JOIN_CASES])
def test_join_case(case, join_paths):
    pair = [
        sketch_of("x", case.first, threshold=0.6, rank_family=case.rank_family),
        sketch_of("y", case.second, threshold=0.4, rank_family=case.rank_family),
    ]
    assert_same_join(pair, predicate=case.predicate)
    join_paths.clear()
    _outcome_columns(pair, case.predicate, include_seeds=True)
    assert join_paths == [case.path]


def test_view_built_from_columns_joins_by_dict(join_paths):
    """Only ``SketchColumns.of``, which hashes the keys itself, marks a
    view canonical; a view built from given columns cannot claim it."""
    pair = [
        SketchColumns.of(sketch_of(name, {1: 1.0, 2: 2.0})) for name in "xy"
    ]
    with pytest.raises(ValueError):
        dataclasses.replace(pair[0], canonical=True)
    direct = [dataclasses.replace(view) for view in pair]
    assert not any(view.canonical for view in direct)
    assert outcome_batch(direct, None, True)[0] == [1, 2]
    assert join_paths == ["dict"]


def test_store_views_of_integer_columns_join_sorted(join_paths):
    """The served shape: NumPy int64 key columns ingested through the
    store, read as memoised column views.  A silent fall back to the
    dict join here would cost the pair queries their speed."""
    store = SketchStore()
    store.create("hours", "poisson", threshold=0.3, n_shards=4)
    rng = np.random.default_rng(5)
    shared = np.cumsum(rng.integers(1, 1 << 16, 400, dtype=np.int64))
    for hour in range(2):
        own = (np.int64(hour + 1) << np.int64(40)) + np.arange(400)
        ingest(
            store, "hours", f"h{hour}",
            np.concatenate([shared, own]), rng.random(800) + 0.5,
        )
    _, views = store.column_view("hours", ("h0", "h1"))
    assert all(view.join_index is not None for view in views)
    value = distinct_count(*views)
    assert join_paths == ["sorted"]
    _, sketches = store.snapshot_view("hours", ("h0", "h1"))
    assert value == distinct_count(*sketches)
    assert_same_join(sketches)
