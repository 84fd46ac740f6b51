"""Per-query estimate quality (``cv`` / ``ci90``).

The payloads are pinned against the paper's variance estimators computed
by hand on the same merged sketches the planner queried.  The numbered
``sum`` cases pin the served Poisson subset sum and its variance bit for
bit against a per-key loop over the merged sketch's offline sample.
Every confidence payload of every served kind at every state, its
refusals, and the payload riding the result cache with its value, are
the read-path oracle's (tests/conformance/test_read_paths.py).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.aggregates.distinct import (
    distinct_ht_variance,
    distinct_l_variance,
)
from repro.obs import TraceRecorder, set_default_recorder
from repro.sampling.ranks import ExpRanks, PpsRanks, UniformRanks
from repro.sampling.seeds import SeedAssigner
from repro.service.confidence import CONFIDENCE_LEVEL, query_confidence
from repro.service.queries import Query
from repro.service.store import SketchStore

from ingest_helper import ingest


def make_columns(n=2000, seed=13):
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
    ingest(store, "traffic", "mon", keys[:1400], values[:1400])
    ingest(store, "traffic", "tue", keys[700:], values[700:])
    return store


@pytest.fixture
def bottom_k_store():
    store = SketchStore()
    store.create(
        "bk", "bottom_k", k=64, seed_assigner=SeedAssigner(salt=2),
    )
    keys, values = make_columns(1200, seed=9)
    ingest(store, "bk", "d", keys, values)
    return store


def confident(store, name, query):
    """Run ``query`` with the quality request switched on."""
    from dataclasses import replace

    return store.query(name, replace(query, confidence=True))


class TestDistinctConfidence:
    def test_ht_variant_uses_exact_ht_variance(self, oblivious_store):
        result = confident(
            oblivious_store,
            "traffic",
            Query.distinct("mon", "tue", variant="ht"),
        )
        sketches = [
            oblivious_store.merged_sketch("traffic", label)
            for label in ("mon", "tue")
        ]
        p1, p2 = sketches[0].threshold, sketches[1].threshold
        expected = distinct_ht_variance(result.value.estimate, p1, p2)
        confidence = result.confidence
        assert confidence["variance"] == pytest.approx(expected)
        assert confidence["cv"] == pytest.approx(
            math.sqrt(expected) / result.value.estimate
        )
        assert confidence["ci90"]["confidence"] == CONFIDENCE_LEVEL

    def test_l_variant_uses_plugin_jaccard(self, oblivious_store):
        result = confident(
            oblivious_store, "traffic", Query.distinct("mon", "tue")
        )
        sketches = [
            oblivious_store.merged_sketch("traffic", label)
            for label in ("mon", "tue")
        ]
        p1, p2 = sketches[0].threshold, sketches[1].threshold
        estimate = result.value.estimate
        intersection = result.value.counts["F11"] / (p1 * p2)
        jaccard = min(1.0, max(0.0, intersection / estimate))
        expected = distinct_l_variance(estimate, jaccard, p1, p2)
        assert result.confidence["variance"] == pytest.approx(expected)
        # the L estimator dominates HT: its variance is never larger
        assert expected <= distinct_ht_variance(estimate, p1, p2)

    def test_interval_brackets_the_estimate(self, oblivious_store):
        result = confident(
            oblivious_store, "traffic", Query.distinct("mon", "tue")
        )
        interval = result.confidence["ci90"]
        assert interval["lower"] <= result.value.estimate <= interval["upper"]
        assert interval["lower"] >= 0.0


class TestSumConfidence:
    def test_bottom_k_plugin_variance_and_cv_bound(self, bottom_k_store):
        result = confident(bottom_k_store, "bk", Query.sum("d"))
        sample = bottom_k_store.sample("bk", "d")
        expected = sum(
            value * value * (1.0 - p) / (p * p)
            for value, p in (
                (
                    value,
                    sample.conditional_inclusion_probability(key),
                )
                for key, value in sample.entries.items()
            )
        )
        confidence = result.confidence
        assert confidence["variance"] == pytest.approx(expected)
        assert confidence["cv_bound"] == pytest.approx(
            1.0 / math.sqrt(sample.k - 2)
        )
        # the realized cv should respect the paper's bound in spirit;
        # it is an estimate, so allow slack rather than asserting <=
        assert confidence["cv"] < 3.0 * confidence["cv_bound"]

    def test_poisson_plugin_variance(self, oblivious_store):
        result = confident(oblivious_store, "traffic", Query.sum("mon"))
        sample = oblivious_store.sample("traffic", "mon")
        probabilities = sample.inclusion_probabilities
        expected = sum(
            value * value * (1.0 - probabilities[key])
            / (probabilities[key] ** 2)
            for key, value in sample.entries.items()
        )
        confidence = result.confidence
        assert confidence["variance"] == pytest.approx(expected)
        assert "cv_bound" not in confidence  # bottom-k only
        assert confidence["ci90"]["upper"] >= result.value


def sequential_sum(store, name, instance) -> tuple[float, float]:
    """The Horvitz-Thompson total and plug-in variance of one Poisson
    instance, one key at a time in the sample's order."""
    sample = store.merged_sketch(name, instance).to_sample()
    total = variance = 0.0
    for key, value in sample.entries.items():
        p = sample.inclusion_probabilities[key]
        total += value / p
        variance += value * value * (1.0 - p) / (p * p)
    return total, variance


def poisson_store(threshold, rank_family, values, salt=7) -> SketchStore:
    store = SketchStore()
    store.create(
        "p", "poisson", threshold=threshold, rank_family=rank_family,
        seed_assigner=SeedAssigner(salt=salt), n_shards=4,
    )
    keys = np.random.default_rng(salt).choice(10**6, size=len(values), replace=False)
    ingest(store, "p", "mon", keys, values)
    ingest(store, "p", "tue", keys[::2], values[::2] + 1.0)
    return store


def served_sum(store) -> tuple[float, float]:
    result = store.query("p", Query("sum", ("mon",), confidence=True))
    return result.value, result.confidence["variance"]


class TestPoissonSum:
    @pytest.mark.parametrize(
        "rank_family, threshold",
        [(UniformRanks(), 0.3), (UniformRanks(), 0.005)],
    )
    def test_sum_001_uniform_ranks_match_the_per_key_loop(
        self, rank_family, threshold
    ):
        _, values = make_columns(3000, seed=21)
        store = poisson_store(threshold, rank_family, values)
        assert served_sum(store) == sequential_sum(store, "p", "mon")

    @pytest.mark.parametrize("threshold", [0.02, 3.0])
    def test_sum_002_pps_ranks_match_the_per_key_loop(self, threshold):
        _, values = make_columns(3000, seed=22)
        store = poisson_store(threshold, PpsRanks(), values)
        assert served_sum(store) == sequential_sum(store, "p", "mon")

    @pytest.mark.parametrize("threshold", [0.02, 2.0])
    def test_sum_003_exp_ranks_match_the_per_key_loop(self, threshold):
        _, values = make_columns(3000, seed=23)
        store = poisson_store(threshold, ExpRanks(), values)
        assert served_sum(store) == sequential_sum(store, "p", "mon")

    @pytest.mark.parametrize(
        "rank_family, threshold",
        [(UniformRanks(), 0.5), (PpsRanks(), 3.0), (ExpRanks(), 2.0)],
    )
    def test_sum_004_subnormal_and_tied_values(self, rank_family, threshold):
        values = np.full(2000, 1.25)  # ties
        values[:600] = 5e-324 * np.arange(1, 601)  # subnormals
        values[600:900] = np.linspace(0.01, 9.0, 300)
        store = poisson_store(threshold, rank_family, values, salt=3)
        assert served_sum(store) == sequential_sum(store, "p", "mon")

    def test_sum_005_no_retained_key_has_no_cv(self, oblivious_store):
        # zero values make an instance that retains no key
        ingest(oblivious_store, "traffic", "empty", [1, 2, 3], [0.0] * 3)
        result = confident(oblivious_store, "traffic", Query.sum("empty"))
        assert len(oblivious_store.merged_sketch("traffic", "empty")) == 0
        assert result.value == 0.0
        assert result.confidence["variance"] == 0.0
        assert result.confidence["cv"] is None

    def test_sum_006_reuses_the_pair_querys_view(self, oblivious_store):
        engine = oblivious_store.engine("traffic")
        merge, merged = engine.sketch, []
        engine.sketch = lambda label: merged.append(label) or merge(label)
        recorder = TraceRecorder()
        previous = set_default_recorder(recorder)
        try:
            confident(oblivious_store, "traffic", Query.distinct("mon", "tue"))
            for instance in ("mon", "tue"):
                result = confident(oblivious_store, "traffic", Query.sum(instance))
                assert not result.from_cache
        finally:
            set_default_recorder(previous)
        (read,) = recorder.recent(name="store.columns")
        assert read.attrs["instances"] == 2
        assert merged == ["mon", "tue"]  # the sums fold no shard
        assert (result.value, result.confidence["variance"]) == sequential_sum(
            oblivious_store, "traffic", "tue"
        )


class TestDirectPayload:
    def test_payload_shape(self, oblivious_store):
        query = Query("sum", ("mon",), confidence=True)
        _, sketches = oblivious_store.snapshot_view(
            "traffic", query.instances
        )
        value = oblivious_store.query("traffic", query).value
        payload = query_confidence(sketches, query, value)
        assert set(payload) == {"cv", "variance", "ci90"}
        assert set(payload["ci90"]) == {
            "lower", "upper", "confidence", "method",
        }
        assert payload["ci90"]["method"] == "normal"
