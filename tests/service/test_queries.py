"""Query planner: construction-time validation of the plain-data
``Query``, and the result cache's hits, invalidation, bound, counters
and uncached paths.  Every served value, cached or not, and every
refusal are checked by the read-path oracle
(tests/conformance/test_read_paths.py), and the Poisson ``sum`` path by
tests/service/test_query_confidence.py."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, UnknownStoreError
from repro.sampling.seeds import SeedAssigner
from repro.service.queries import Query, QueryPlanner, query_value_json
from repro.service.store import SketchStore
from repro.streaming import StreamEngine

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
    def test_invalid_queries(self, oblivious_store):
        for kind in ("nonsense", "custom"):
            with pytest.raises(InvalidParameterError, match="kind"):
                Query(kind, ("mon",))
        with pytest.raises(InvalidParameterError, match="exactly two instances"):
            Query("distinct", ("mon",))
        with pytest.raises(InvalidParameterError, match="exactly one instance"):
            Query("sum", ("mon", "tue"))
        with pytest.raises(InvalidParameterError, match="hashable"):
            Query("l1", ("mon", ["tue"]))
        with pytest.raises(UnknownStoreError):
            oblivious_store.query("nope", Query.sum("mon"))
        with pytest.raises(InvalidParameterError, match="variant"):
            Query.distinct("mon", "tue", variant="xyz")

    @pytest.mark.parametrize("kind", ["distinct", "l1", "dominance"])
    def test_pair_query_on_bottom_k_is_refused(self, kind):
        store = SketchStore()
        store.create("bk", "bottom_k", k=8, seed_assigner=SeedAssigner(salt=1))
        ingest(store, "bk", "mon", [1, 2, 3], [1.0, 2.0, 3.0])
        ingest(store, "bk", "tue", [2, 3, 4], [1.0, 1.0, 1.0])
        with pytest.raises(InvalidParameterError, match="take Poisson sketches"):
            store.query("bk", Query(kind, ("mon", "tue")))

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
        """An ingest invalidates the cached answers that read the
        instance it wrote, and only those."""
        store = oblivious_store
        queries = (Query.distinct("mon", "tue"), Query.sum("mon"), Query.sum("tue"))
        first = [store.query("traffic", query) for query in queries]
        version = ingest(store, "traffic", "mon", [123456789], [1.0])
        pair, mon, tue = (store.query("traffic", query) for query in queries)
        assert not pair.from_cache and not mon.from_cache
        assert pair.version == mon.version == version == first[0].version + 1
        # tue's answer keeps the version it was computed at
        assert tue.from_cache and tue.version == first[2].version

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
        for query, old in zip(queries, before):
            after = store.query("traffic", query)
            assert not after.from_cache
            assert after.version == old.version
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
        result.  A result an engine replacement raced is returned but
        not cached, and it still counts as a miss."""
        store = oblivious_store
        planner = QueryPlanner(store)
        read = store.keyed_view

        def adopt_after_read(name, instances, **kwargs):
            view = read(name, instances, **kwargs)
            store.adopt(name, store.engine(name))  # the epoch moves
            return view

        store.keyed_view = adopt_after_read
        query = Query.distinct("mon", "tue")
        assert not planner.run("traffic", query).from_cache
        stats = planner.cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 1, 0)
        assert stats["hit_rate"] == 0.0
        assert planner.peek("traffic", query) is None
        store.keyed_view = read
        assert not planner.run("traffic", query).from_cache
        assert planner.run("traffic", query).from_cache

    def test_float_protocol(self, oblivious_store):
        result = oblivious_store.query("traffic", Query.sum("mon"))
        assert float(result) == float(result.value)


def test_value_json_refuses_an_unknown_type():
    with pytest.raises(TypeError, match="bytes"):
        query_value_json(b"not a query value")
