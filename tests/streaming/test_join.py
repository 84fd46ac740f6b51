"""The column-view join behind the multi-instance adapters, pinned
against the union-dict join it replaced.

``reference_outcome_columns`` is that earlier implementation, kept here
verbatim in behaviour: build the union with ``dict.update``, hash it
once, and fill membership and value columns per sketch from the entry
dicts.  Every edge case below must give the same union key order,
masks, values and seeds, on the live sketches and on copies restored
through the binary codec.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
import pytest

from repro.batch.outcome_batch import OutcomeBatch
from repro.core.max_oblivious import MaxObliviousL
from repro.core.or_estimators import OrObliviousL
from repro.sampling.ranks import PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner, key_hashes
from repro.service import codec
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
            "entries": tuple(
                (key, value, 0.0) for key, value in entries.items()
            ),
        }
    )


def restored(sketch):
    return codec.from_bytes(codec.to_bytes(sketch))


def assert_same_join(sketches, predicate=None):
    for family in (sketches, [restored(sketch) for sketch in sketches]):
        for include_seeds in (True, False):
            expected_keys, expected_retained, expected = (
                reference_outcome_columns(sketches, predicate, include_seeds)
            )
            keys, retained, batch = _outcome_columns(
                family, predicate, include_seeds, with_keys=True
            )
            assert keys == expected_keys
            assert [type(key) for key in keys] == [
                type(key) for key in expected_keys
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
