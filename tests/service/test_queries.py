"""Query planner: estimator-weighted sums, custom and predicate queries,
and the version-keyed result cache.  Served query kinds are checked
against the offline estimators by tests/conformance/test_write_paths.py."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.max_oblivious import MaxObliviousL
from repro.exceptions import InvalidParameterError, UnknownStoreError
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query, QueryPlanner
from repro.service.store import SketchStore
from repro.streaming import StreamEngine
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


class TestRouting:
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

    @pytest.mark.parametrize("version", [0, 2])
    def test_adopt_without_version_move_invalidates(
        self, oblivious_store, version
    ):
        """Regression: ``adopt`` at a version <= the current one swaps the
        engine without moving the version, and the version-keyed cache
        kept serving the old engine's results."""
        store = oblivious_store
        queries = (
            Query.sum("mon"),
            Query("distinct", ("mon", "tue"), confidence=True),
            Query.l1("mon", "tue"),
        )
        before = [store.query("traffic", query) for query in queries]
        replacement = StreamEngine.poisson(
            threshold=0.5, seed_assigner=SeedAssigner(salt=11), n_shards=4
        )
        keys, values = make_columns(1500, seed=8)
        replacement.ingest("mon", keys[:1000], values[:1000])
        replacement.ingest("tue", keys[500:], values[500:])
        store.adopt("traffic", replacement, version=version)
        assert store.version("traffic") == 2
        planner = QueryPlanner(store)
        for query, old in zip(queries, before):
            after = store.query("traffic", query)
            assert not after.from_cache
            assert after.version == old.version
            assert after.value == planner.execute("traffic", query)
            assert after.value != old.value
            assert store.query("traffic", query).from_cache

    def test_execute_bypasses_cache(self, oblivious_store):
        planner = QueryPlanner(oblivious_store)
        query = Query.sum("mon")
        cached = planner.run("traffic", query)
        assert planner.execute("traffic", query) == cached.value
        assert planner.hits == 0 and planner.misses == 1

    def test_uncacheable_runs_count_as_misses(self, oblivious_store):
        """Regression: ``run`` counted a miss only when it stored the
        result, so a query whose cache key is unhashable was recomputed
        on every call without ever showing in the miss rate."""

        class EveryKey:
            __hash__ = None  # a predicate that cannot key the cache

            def __call__(self, key):
                return True

        planner = QueryPlanner(oblivious_store)
        query = Query.distinct("mon", "tue", predicate=EveryKey())
        for _ in range(2):
            assert not planner.run("traffic", query).from_cache
        stats = planner.cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 2, 0)
        assert stats["hit_rate"] == 0.0

    def test_float_protocol(self, oblivious_store):
        result = oblivious_store.query("traffic", Query.sum("mon"))
        assert float(result) == float(result.value)
