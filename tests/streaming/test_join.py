"""The column-view join behind the multi-instance adapters, pinned
against the union-dict join it replaced.

``reference_outcome_columns`` is that earlier implementation, kept here
verbatim in behaviour: build the union with ``dict.update``, hash it
once, and fill membership and value columns per sketch from the entry
dicts.  Every edge case below must give the same union key order,
masks, values and seeds, on the live sketches and on copies restored
through the binary codec.

A pair of views joins on sorted hashes, the candidate search with
every row a candidate, unless only the dict join is exact; the
numbered cases also pin which of the two joins ran, and that the pair
queries, which read the join rather than an outcome batch, return what
``reference_pair_query`` recomputes from the reference join.  A pair
query over two self-selected views searches fewer candidates
(``test_pairjoin.py``).  Its dominance scores come from the two known-seed PPS
kernels the fused ``pps_max_r2_kernel`` replaced, frozen below; a
Hypothesis test pins the fused kernel to them bit for bit.
"""

from __future__ import annotations

import dataclasses
from itertools import repeat
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.distinct import CATEGORY_NAMES
from repro.batch.kernels import (
    masked_row_max,
    pps_determining_vector,
    pps_max_r2_kernel,
)
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.max_oblivious import MaxObliviousL
from repro.core.or_estimators import OrObliviousL
from repro.exceptions import InvalidOutcomeError
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


# ----------------------------------------------------------------------
# Frozen oracle: the known-seed PPS kernels before the fused r = 2 kernel
# ----------------------------------------------------------------------
def pps_max_ht_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    seeds: np.ndarray,
    tau_star: np.ndarray,
) -> np.ndarray:
    """Inverse-probability max estimator for PPS samples with known seeds.

    Positive only when every unsampled entry's seed bound lies below the
    largest sampled value; the estimate is then
    ``M / prod_i min(1, M / tau_star_i)``.
    """
    tau_star = np.asarray(tau_star, dtype=np.float64)
    top = masked_row_max(values, sampled)
    if len(tau_star) == 2:
        bound_ok = (
            (sampled[:, 0] | (seeds[:, 0] * tau_star[0] <= top))
            & (sampled[:, 1] | (seeds[:, 1] * tau_star[1] <= top))
        )
        in_s_star = (top > 0.0) & bound_ok
        safe_top = np.where(in_s_star, top, 1.0)
        probability = np.minimum(1.0, safe_top / tau_star[0]) * np.minimum(
            1.0, safe_top / tau_star[1]
        )
    else:
        bound_ok = sampled | (seeds * tau_star[None, :] <= top[:, None])
        in_s_star = (top > 0.0) & bound_ok.all(axis=1)
        safe_top = np.where(in_s_star, top, 1.0)
        probability = np.minimum(
            1.0, safe_top[:, None] / tau_star[None, :]
        ).prod(axis=1)
    return np.where(in_s_star, safe_top / probability, 0.0)


def pps_max_l_r2_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    seeds: np.ndarray,
    tau1: float,
    tau2: float,
) -> np.ndarray:
    """The known-seed PPS ``max^(L)`` for ``r = 2`` (Figure 3 closed forms).

    The determining vector pairs each sampled value with the seed bound of
    the unsampled entry, and the piecewise closed forms (Eqs. (25), (26),
    (29), (30) with the corrected log argument, see
    :class:`repro.core.max_weighted.MaxPpsL`) are applied after sorting.
    """
    v1, v2 = values[:, 0], values[:, 1]
    s1, s2 = sampled[:, 0], sampled[:, 1]
    nonempty = s1 | s2

    # Determining vector: a sampled entry keeps its value, the unsampled
    # entry of a single-sampled row gets min(seed bound, sampled value),
    # empty rows get (0, 0).
    phi1 = np.where(
        s1, v1, np.where(s2, np.minimum(seeds[:, 0] * tau1, v2), 0.0)
    )
    phi2 = np.where(
        s2, v2, np.where(s1, np.minimum(seeds[:, 1] * tau2, v1), 0.0)
    )
    if np.any((phi1 < 0.0) | (phi2 < 0.0)):
        raise InvalidOutcomeError("determining vector must be nonnegative")
    both_zero = (phi1 == 0.0) & (phi2 == 0.0)
    if np.any(~both_zero & (np.minimum(phi1, phi2) <= 0.0)):
        raise InvalidOutcomeError(
            "determining vector entries must be positive unless both are zero"
        )

    first_larger = phi1 >= phi2
    a = np.where(first_larger, phi1, phi2)
    b = np.where(first_larger, phi2, phi1)
    tau_a = np.where(first_larger, tau1, tau2)
    tau_b = np.where(first_larger, tau2, tau1)
    total = tau_a + tau_b

    estimates = np.zeros(len(a), dtype=np.float64)
    remaining = nonempty & ~both_zero

    # Eq. (25): equal entries.  Most rows of a served pair fall here, so
    # the form is evaluated on the full columns and kept where it holds;
    # the empty and both-zero rows it also visits divide 0 by 0.
    case = remaining & (a == b)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_a = np.minimum(1.0, a / tau_a)
        q_b = np.minimum(1.0, a / tau_b)
        np.copyto(estimates, a / (q_a + (1.0 - q_a) * q_b), where=case)
    remaining &= ~case

    # Eq. (26): the smaller entry is certain (b >= tau_b).
    case = remaining & (b >= tau_b)
    if np.any(case):
        estimates[case] = b[case] + (a[case] - b[case]) / np.minimum(
            1.0, a[case] / tau_a[case]
        )
        remaining &= ~case

    # v >= tau_1: the estimate equals the larger entry.
    case = remaining & (a >= tau_a)
    if np.any(case):
        estimates[case] = a[case]
        remaining &= ~case

    # Eq. (29): both entries below both thresholds.
    case = remaining & (a <= tau_b)
    if np.any(case):
        a_c, b_c = a[case], b[case]
        ta, tb, tt = tau_a[case], tau_b[case], total[case]
        estimates[case] = (
            ta * tb / (tt - a_c)
            + ta * tb * (ta - a_c) / (a_c * tt)
            * np.log((tt - b_c) * a_c / (b_c * (tt - a_c)))
            + (a_c - b_c) * ta * tb * (ta - a_c)
            / (a_c * (tt - b_c) * (tt - a_c))
        )
        remaining &= ~case

    # Eq. (30), corrected log argument: b <= tau_b <= a <= tau_a.
    if np.any(remaining):
        a_c, b_c = a[remaining], b[remaining]
        ta, tb, tt = tau_a[remaining], tau_b[remaining], total[remaining]
        estimates[remaining] = (
            ta + tb - ta * tb / a_c
            + ta * tb * (ta - a_c) / (a_c * tt)
            * np.log((tt - b_c) * tb / (b_c * ta))
            + tb * (ta - a_c) * (tb - b_c) / ((tt - b_c) * a_c)
        )
    return estimates


def reference_pair_query(kind, pair, predicate=None):
    """A pair query recomputed from the reference join: the distinct
    counts, the L1 total, or the dominance ``(ht, l, n_sampled_keys)``,
    each as the outcome-batch implementation computed it."""
    sketch1, sketch2 = pair
    _, retained, batch = reference_outcome_columns(
        pair, predicate, include_seeds=kind == "dominance"
    )
    if kind == "distinct":
        in1, in2 = retained[:, 0], retained[:, 1]
        sampled1, sampled2 = batch.sampled[:, 0], batch.sampled[:, 1]
        only1, only2 = in1 & ~in2, in2 & ~in1
        masks = (
            in1 & in2,
            only1 & ~sampled2,
            only1 & sampled2,
            only2 & ~sampled1,
            only2 & sampled1,
        )
        return {
            name: int(np.count_nonzero(mask))
            for name, mask in zip(CATEGORY_NAMES, masks)
        }
    if kind == "l1":
        p1, p2 = sketch1.threshold, sketch2.threshold
        values = batch.values[batch.all_sampled()]
        terms = np.abs(values[:, 0] - values[:, 1]) / (p1 * p2)
        return float(np.cumsum(terms)[-1]) if terms.size else 0.0
    tau_star = (1.0 / sketch1.threshold, 1.0 / sketch2.threshold)
    ht = pps_max_ht_kernel(
        batch.values, batch.sampled, batch.seeds, np.asarray(tau_star)
    )
    max_l = pps_max_l_r2_kernel(
        batch.values, batch.sampled, batch.seeds, *tau_star
    )
    return float(ht.sum()), float(max_l.sum()), batch.values.shape[0]


def served_pair_query(kind, pair, predicate=None):
    """The same query through the streaming pair estimators."""
    if kind == "distinct":
        return dict(distinct_count(*pair, predicate=predicate).counts)
    if kind == "l1":
        return l1_distance(*pair, predicate=predicate)
    result = max_dominance(*pair, predicate=predicate)
    return result.ht, result.l, result.n_sampled_keys


def pair_kinds(pair) -> tuple:
    """The pair queries a pair's rank family admits."""
    if isinstance(pair[0].rank_family, PpsRanks):
        return ("dominance",)
    return ("distinct", "l1")




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
    """The joins each pair of views took, in call order: ``"full"`` when
    the pair took the full join, then how its matches were found:
    ``"candidate"`` by the sorted-hash search, ``"dict"`` by the dict
    join.  A self-selected pair's candidate join records
    ``"candidate"`` alone; one that meets a collision records the full
    join that replaced it."""
    paths = []
    join_rows = query_module._join_rows
    candidate_matches = query_module._candidate_matches
    dict_rows = query_module._dict_rows

    def join_spy(first, second):
        paths.append("full")
        return join_rows(first, second)

    def candidate_spy(first, second, candidates=None):
        matches = candidate_matches(first, second, candidates)
        if matches is not None:
            paths.append("candidate")
        return matches

    def dict_spy(index, view):
        paths.append("dict")
        return dict_rows(index, view)

    monkeypatch.setattr(query_module, "_join_rows", join_spy)
    monkeypatch.setattr(query_module, "_candidate_matches", candidate_spy)
    monkeypatch.setattr(query_module, "_dict_rows", dict_spy)
    return paths


class JoinCase(NamedTuple):
    id: str
    first: dict
    second: dict
    #: how the live pair's full join finds its matches
    path: str
    predicate: object = None
    rank_family: object = None


JOIN_CASES = [
    JoinCase(
        "join_001_numpy_and_python_ints_join_as_one_key",
        {np.int64(5): 1.0, 6: 2.0, np.int64(-3): 0.5, 2**63: 1.5},
        {5: 3.0, np.int64(6): 0.25, 7: 1.0, np.uint64(2**63): 2.0},
        "candidate",
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
        "candidate",
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
        "candidate",
    ),
    JoinCase(
        "join_009_empty_second_view",
        {key: 1.0 + key for key in range(6)},
        {},
        "candidate",
    ),
    JoinCase(
        "join_010_predicate_over_a_sorted_pair_fills_own_seeds",
        {key: 0.5 + key for key in range(0, 40, 2)},
        {key: 2.0 + key for key in range(0, 60, 3)},
        "candidate",
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
    assert join_paths == ["full", case.path]
    # the pair queries read the same join, and agree with the reference
    for kind in pair_kinds(pair):
        join_paths.clear()
        assert served_pair_query(kind, pair, case.predicate) == (
            reference_pair_query(kind, pair, case.predicate)
        )
        assert join_paths == ["full", case.path]
        restored_pair = [restored(sketch) for sketch in pair]
        assert served_pair_query(kind, restored_pair, case.predicate) == (
            reference_pair_query(kind, pair, case.predicate)
        )


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
    assert join_paths == ["full", "dict"]


def test_store_views_of_integer_columns_join_sorted(join_paths, monkeypatch):
    """The served shape: NumPy int64 key columns ingested through the
    store, read as memoised column views.  A silent fall back to the
    full join here would cost the pair queries their speed, and so would
    a detour through the ``(n, 2)`` outcome batch: every pair query
    takes the candidate join and builds no batch, and an outcome batch
    over the same views takes the full join's sorted-hash search, not
    the dict."""
    store = SketchStore()
    store.create("hours", "poisson", threshold=0.3, n_shards=4)
    store.create(
        "hours_pps", "poisson", threshold=0.2, rank_family=PpsRanks(), n_shards=4
    )
    rng = np.random.default_rng(5)
    shared = np.cumsum(rng.integers(1, 1 << 16, 400, dtype=np.int64))
    for hour in range(2):
        own = (np.int64(hour + 1) << np.int64(40)) + np.arange(400)
        keys = np.concatenate([shared, own])
        values = rng.random(800) * 9.0 + 0.5
        for name in ("hours", "hours_pps"):
            ingest(store, name, f"h{hour}", keys, values)

    def no_batch(*args, **kwargs):
        raise AssertionError("a pair query built an outcome batch")

    for name in ("hours", "hours_pps"):
        _, views = store.column_view(name, ("h0", "h1"))
        _, sketches = store.snapshot_view(name, ("h0", "h1"))
        assert all(view.join_index is not None for view in views)
        for kind in pair_kinds(views):
            expected = reference_pair_query(kind, sketches)
            with monkeypatch.context() as patch:
                patch.setattr(query_module, "_outcome_columns", no_batch)
                join_paths.clear()
                assert served_pair_query(kind, views) == expected
            assert join_paths == ["candidate"]
            assert served_pair_query(kind, sketches) == expected
        join_paths.clear()
        _outcome_columns(views, None, include_seeds=True)
        assert join_paths == ["full", "candidate"]
        assert_same_join(sketches)


# ----------------------------------------------------------------------
# The fused r = 2 PPS kernel against the frozen kernels
# ----------------------------------------------------------------------
TAUS = st.sampled_from([0.5, 2.0, 5.0, 10.0, 20.0])
#: multiples of a threshold: the threshold itself (a >= tau and
#: b >= tau at equality) and values on both sides of it
FACTORS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(0.01, 3.0)
)
#: inclusion patterns, both-sampled rows (the only ones Eq. (26) takes)
#: twice as often as the others
PATTERNS = st.sampled_from(
    [(True, True), (True, True), (True, False), (False, True), (False, False)]
)
PPS_SEEDS = st.one_of(st.sampled_from([0.1, 0.25, 0.5]), st.floats(1e-9, 0.999999))


@st.composite
def pps_batches(draw):
    """``(taus, values, sampled, seeds)``: one to 24 rows, each entry a
    multiple of either threshold, each row plain, a tie (the first entry
    copied over the second) or zero, and one draw in six with a sampled
    zero beside a positive value, which the frozen ``max^(L)`` refuses."""
    taus = draw(st.tuples(TAUS, TAUS))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(taus), FACTORS, st.sampled_from(taus), FACTORS,
                PATTERNS, PPS_SEEDS, PPS_SEEDS,
                st.sampled_from(["plain", "plain", "tie", "tie", "zero"]),
            ),
            min_size=1,
            max_size=24,
        )
    )
    shapes = {
        "plain": lambda v1, v2: (v1, v2),
        "tie": lambda v1, v2: (v1, v1),
        "zero": lambda v1, v2: (0.0, 0.0),
    }
    values = np.array(
        [shapes[row[-1]](row[0] * row[1], row[2] * row[3]) for row in rows]
    )
    sampled = np.array([row[4] for row in rows])
    seeds = np.array([row[5:7] for row in rows])
    if draw(st.integers(0, 5)) == 0:
        values[0], sampled[0] = (values[0, 0], 0.0), (True, True)
    return taus, np.where(sampled, values, 0.0), sampled, seeds


@settings(max_examples=300, deadline=None)
@given(pps_batches())
def test_fused_kernel_matches_the_frozen_kernels_bitwise(batch):
    """Both columns of ``pps_max_r2_kernel`` equal the frozen kernels'
    bit for bit on finite, nonnegative draws covering every Figure 3
    case: ties, entries at and above the thresholds, single,
    both-sampled, zero and empty rows, and unequal thresholds.  Where
    the frozen ``max^(L)`` refuses a draw, the fused kernel refuses it
    with the same text."""
    taus, values, sampled, seeds = batch
    expected_ht = pps_max_ht_kernel(values, sampled, seeds, np.asarray(taus))
    try:
        expected_l = pps_max_l_r2_kernel(values, sampled, seeds, *taus)
    except InvalidOutcomeError as refusal:
        with pytest.raises(InvalidOutcomeError) as fused:
            pps_max_r2_kernel(
                *pps_determining_vector(values, sampled, seeds, *taus), *taus
            )
        assert str(fused.value) == str(refusal)
        return
    ht, max_l = pps_max_r2_kernel(
        *pps_determining_vector(values, sampled, seeds, *taus), *taus
    )
    assert ht.tobytes() == expected_ht.tobytes()
    assert max_l.tobytes() == expected_l.tobytes()
