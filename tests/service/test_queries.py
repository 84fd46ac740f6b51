"""Query planner: routing parity with the streaming adapters and the
version-keyed result cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.max_oblivious import MaxObliviousL
from repro.exceptions import InvalidParameterError, UnknownStoreError
from repro.sampling.ranks import PpsRanks
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query, QueryPlanner
from repro.service.store import SketchStore
from repro.streaming import query as streaming_query

from ingest_helper import ingest


def make_columns(n=2500, seed=3):
    generator = np.random.default_rng(seed)
    return (
        generator.choice(10**6, size=n, replace=False),
        generator.random(n) * 5.0 + 0.01,
    )


@pytest.fixture
def oblivious_store():
    store = SketchStore()
    store.create(
        "traffic", "poisson", threshold=0.5,
        seed_assigner=SeedAssigner(salt=11), n_shards=4,
    )
    keys, values = make_columns()
    ingest(store, "traffic", "mon", keys[:1800], values[:1800])
    ingest(store, "traffic", "tue", keys[900:], values[900:])
    return store


@pytest.fixture
def pps_store():
    store = SketchStore()
    store.create(
        "flows", "poisson", threshold=10.0, rank_family=PpsRanks(),
        seed_assigner=SeedAssigner(salt=4), n_shards=2,
    )
    keys, values = make_columns(800, seed=5)
    ingest(store, "flows", "mon", keys[:600], values[:600] / 100.0)
    ingest(store, "flows", "tue", keys[300:], values[300:] / 100.0)
    return store


class TestRouting:
    def test_distinct_matches_streaming_adapter(self, oblivious_store):
        result = oblivious_store.query(
            "traffic", Query.distinct("mon", "tue")
        )
        sketches = [
            oblivious_store.merged_sketch("traffic", label)
            for label in ("mon", "tue")
        ]
        direct = streaming_query.distinct_count(*sketches, variant="l")
        assert result.value == direct
        ht = oblivious_store.query(
            "traffic", Query.distinct("mon", "tue", variant="ht")
        )
        assert ht.value == streaming_query.distinct_count(
            *sketches, variant="ht"
        )

    def test_l1_matches_streaming_adapter(self, oblivious_store):
        result = oblivious_store.query("traffic", Query.l1("mon", "tue"))
        sketches = [
            oblivious_store.merged_sketch("traffic", label)
            for label in ("mon", "tue")
        ]
        assert result.value == streaming_query.l1_distance(*sketches)

    def test_sum_with_estimator_matches_sum_aggregate(self, oblivious_store):
        estimator = MaxObliviousL((0.5, 0.5))
        result = oblivious_store.query(
            "traffic", Query.sum("mon", "tue", estimator=estimator)
        )
        sketches = [
            oblivious_store.merged_sketch("traffic", label)
            for label in ("mon", "tue")
        ]
        assert result.value == streaming_query.sum_aggregate(
            sketches, estimator
        )

    def test_single_instance_sum_poisson_is_horvitz_thompson(
        self, oblivious_store
    ):
        result = oblivious_store.query("traffic", Query.sum("mon"))
        sample = oblivious_store.sample("traffic", "mon")
        assert result.value == sample.horvitz_thompson_total()

    def test_single_instance_sum_bottom_k_is_rank_conditioning(self):
        store = SketchStore()
        store.create(
            "bk", "bottom_k", k=64, seed_assigner=SeedAssigner(salt=2),
        )
        keys, values = make_columns(1200, seed=9)
        ingest(store, "bk", "d", keys, values)
        result = store.query("bk", Query.sum("d"))
        assert result.value == store.sample(
            "bk", "d"
        ).rank_conditioning_total()

    def test_dominance_matches_streaming_adapter(self, pps_store):
        result = pps_store.query("flows", Query.dominance("mon", "tue"))
        sketches = [
            pps_store.merged_sketch("flows", label)
            for label in ("mon", "tue")
        ]
        assert result.value == streaming_query.max_dominance(*sketches)

    def test_custom_query_runs_fn(self, oblivious_store):
        query = Query.custom(
            "mon", fn=lambda sketches: len(sketches[0].entries)
        )
        result = oblivious_store.query("traffic", query)
        assert result.value == len(
            oblivious_store.merged_sketch("traffic", "mon").entries
        )

    def test_predicate_restricts_aggregate(self, oblivious_store):
        even = Query.distinct(
            "mon", "tue", predicate=lambda key: key % 2 == 0
        )
        full = oblivious_store.query(
            "traffic", Query.distinct("mon", "tue")
        )
        restricted = oblivious_store.query("traffic", even)
        assert restricted.value.estimate < full.value.estimate

    def test_invalid_queries(self, oblivious_store):
        with pytest.raises(InvalidParameterError, match="kind"):
            Query("nonsense", ("mon",))
        with pytest.raises(InvalidParameterError, match="two instances"):
            oblivious_store.query("traffic", Query("distinct", ("mon",)))
        with pytest.raises(InvalidParameterError, match="estimator"):
            oblivious_store.query("traffic", Query.sum("mon", "tue"))
        with pytest.raises(InvalidParameterError, match="fn"):
            oblivious_store.query("traffic", Query("custom", ("mon",)))
        with pytest.raises(UnknownStoreError):
            oblivious_store.query("nope", Query.sum("mon"))
        with pytest.raises(InvalidParameterError, match="variant"):
            Query.distinct("mon", "tue", variant="xyz")

    def test_variant_is_normalised(self):
        assert Query.distinct("mon", "tue", variant="HT").variant == "ht"
        assert Query("l1", ("mon", "tue"), variant="ht") == Query.l1(
            "mon", "tue"
        )


class TestCache:
    def test_second_run_is_served_from_cache(self, oblivious_store):
        query = Query.distinct("mon", "tue")
        first = oblivious_store.query("traffic", query)
        second = oblivious_store.query("traffic", query)
        assert not first.from_cache
        assert second.from_cache
        assert second.value is first.value
        assert second.version == first.version
        # an equal (not identical) query also hits
        third = oblivious_store.query("traffic", Query.distinct("mon", "tue"))
        assert third.from_cache

    def test_ingest_invalidates_cache(self, oblivious_store):
        query = Query.distinct("mon", "tue")
        first = oblivious_store.query("traffic", query)
        ingest(oblivious_store, "traffic", "mon", [123456789], [1.0])
        after = oblivious_store.query("traffic", query)
        assert not after.from_cache
        assert after.version == first.version + 1

    def test_predicate_queries_cache_by_identity(self, oblivious_store):
        query = Query.distinct("mon", "tue", predicate=lambda key: True)
        first = oblivious_store.query("traffic", query)
        second = oblivious_store.query("traffic", query)
        assert not first.from_cache and second.from_cache

    def test_distinct_custom_callables_never_collide(self, oblivious_store):
        """Regression: the cache used to key on ``Query`` equality alone,
        so two *distinct* custom callables that compare equal (a user
        ``__eq__`` coarser than the callable's behaviour, equal bound
        methods, ...) shared one cache entry at the same store version.
        Parameters must key by identity."""

        class CutoffQuery:
            def __init__(self, cutoff):
                self.cutoff = cutoff

            def __call__(self, sketches):
                return self.cutoff

            def __eq__(self, other):  # deliberately coarser than behaviour
                return isinstance(other, CutoffQuery)

            def __hash__(self):
                return hash(CutoffQuery)

        low, high = CutoffQuery(1.0), CutoffQuery(2.0)
        query_low = Query.custom("mon", fn=low)
        query_high = Query.custom("mon", fn=high)
        assert query_low == query_high  # the collision precondition
        first = oblivious_store.query("traffic", query_low)
        second = oblivious_store.query("traffic", query_high)
        assert not second.from_cache
        assert (first.value, second.value) == (1.0, 2.0)
        # the same callable object still hits
        assert oblivious_store.query("traffic", query_low).from_cache
        assert (
            oblivious_store.query("traffic", Query.custom("mon", fn=high))
            .value
            == 2.0
        )

    def test_cache_is_bounded_lru(self, oblivious_store):
        planner = QueryPlanner(oblivious_store, max_cache_entries=2)
        queries = [
            Query.sum("mon"),
            Query.sum("tue"),
            Query.distinct("mon", "tue"),
        ]
        for query in queries:
            planner.run("traffic", query)
        assert len(planner._cache) == 2
        # the oldest entry was evicted, the newest two still hit
        assert planner.run("traffic", queries[2]).from_cache
        assert not planner.run("traffic", queries[0]).from_cache

    def test_resize_shrinks_lru(self, oblivious_store):
        planner = QueryPlanner(oblivious_store)
        queries = [
            Query.sum("mon"),
            Query.sum("tue"),
            Query.distinct("mon", "tue"),
        ]
        for query in queries:
            planner.run("traffic", query)
        planner.resize(1)
        assert len(planner._cache) == 1
        # the newest entry survives the shrink
        assert planner.run("traffic", queries[2]).from_cache
        assert not planner.run("traffic", queries[0]).from_cache
        with pytest.raises(InvalidParameterError, match="positive"):
            planner.resize(0)

    def test_execute_bypasses_cache(self, oblivious_store):
        planner = QueryPlanner(oblivious_store)
        query = Query.sum("mon")
        cached = planner.run("traffic", query)
        assert planner.execute("traffic", query) == cached.value
        assert planner.hits == 0 and planner.misses == 1

    def test_float_protocol(self, oblivious_store):
        result = oblivious_store.query("traffic", Query.sum("mon"))
        assert float(result) == float(result.value)
