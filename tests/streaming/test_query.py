"""Unit tests for the sketch query adapters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregates.dataset import MultiInstanceDataset
from repro.aggregates.distance import l1_distance_ht
from repro.aggregates.distinct import distinct_count_ht, distinct_count_l
from repro.aggregates.dominance import max_dominance_estimates
from repro.aggregates.sum_estimator import sum_aggregate_oblivious
from repro.core.max_oblivious import MaxObliviousL
from repro.core.or_estimators import OrObliviousL
from repro.exceptions import InvalidParameterError
from repro.sampling.ranks import PpsRanks
from repro.sampling.seeds import SeedAssigner
from repro.streaming.query import (
    dataset_view,
    distinct_count,
    l1_distance,
    max_dominance,
    rank_conditioning_total,
    sum_aggregate,
    vector_outcomes,
)
from repro.streaming.sketch import StreamingBottomK, StreamingPoisson


def two_instances(n: int = 300, seed: int = 0):
    generator = np.random.default_rng(seed)
    keys = [int(k) for k in generator.choice(10**6, size=n, replace=False)]
    day1 = {k: float(v) for k, v in
            zip(keys[: 2 * n // 3], generator.random(2 * n // 3) * 8 + 0.1)}
    day2 = {k: float(v) for k, v in
            zip(keys[n // 3:], generator.random(n - n // 3) * 8 + 0.1)}
    return day1, day2


def uniform_sketches(day1, day2, p1=0.5, p2=0.4, salt=17):
    assigner = SeedAssigner(salt=salt)
    s1 = StreamingPoisson(p1, instance="day1", seed_assigner=assigner)
    s2 = StreamingPoisson(p2, instance="day2", seed_assigner=assigner)
    s1.update_many(list(day1), list(day1.values()), chunk_size=len(day1))
    s2.update_many(list(day2), list(day2.values()), chunk_size=len(day2))
    return s1, s2, assigner


class TestVectorOutcomes:
    def test_outcomes_match_sampling_state(self):
        day1, day2 = two_instances()
        s1, s2, assigner = uniform_sketches(day1, day2)
        outcomes = vector_outcomes((s1, s2))
        assert set(outcomes) == set(s1.entries) | set(s2.entries)
        for key, outcome in outcomes.items():
            assert outcome.r == 2
            assert outcome.knows_seeds
            assert outcome.seeds[0] == assigner.seed(key, instance="day1")
            if 0 in outcome.sampled:
                # either retained with its value, or seed-selected and
                # thereby observed to be zero in day1
                assert outcome.values[0] == day1.get(key, 0.0)
                if key not in day1:
                    assert outcome.seeds[0] < 0.5

    def test_distinct_instances_required(self):
        day1, _ = two_instances()
        assigner = SeedAssigner()
        s1 = StreamingPoisson(0.5, instance="x", seed_assigner=assigner)
        with pytest.raises(InvalidParameterError):
            vector_outcomes((s1, s1))


class TestSumAggregate:
    def test_max_oblivious_matches_offline_pipeline(self):
        day1, day2 = two_instances()
        s1, s2, assigner = uniform_sketches(day1, day2)
        estimator = MaxObliviousL([0.5, 0.4])
        streaming = sum_aggregate((s1, s2), estimator, include_seeds=False)
        dataset = MultiInstanceDataset({"day1": day1, "day2": day2})
        offline = sum_aggregate_oblivious(
            dataset, ["day1", "day2"], [0.5, 0.4], estimator, assigner,
            true_function=max,
        )
        assert streaming == pytest.approx(offline.estimate)

    def test_or_estimator_runs_unchanged(self):
        # OR acts on the Boolean domain: sketch the membership indicators
        day1, day2 = two_instances()
        ones1 = {key: 1.0 for key in day1}
        ones2 = {key: 1.0 for key in day2}
        s1, s2, _ = uniform_sketches(ones1, ones2)
        estimate = sum_aggregate(
            (s1, s2), OrObliviousL((0.5, 0.4)), include_seeds=False
        )
        distinct = len(set(day1) | set(day2))
        assert estimate == pytest.approx(distinct, rel=0.35)

    def test_estimator_arity_checked(self):
        day1, day2 = two_instances(60)
        s1, s2, _ = uniform_sketches(day1, day2)
        with pytest.raises(InvalidParameterError):
            sum_aggregate((s1,), MaxObliviousL([0.5, 0.4]))


class TestDistinctCount:
    def test_matches_offline_estimators(self):
        day1, day2 = two_instances()
        s1, s2, assigner = uniform_sketches(day1, day2)
        seeds1 = {k: assigner.seed(k, instance="day1")
                  for k in set(day1) | set(day2)}
        seeds2 = {k: assigner.seed(k, instance="day2")
                  for k in set(day1) | set(day2)}
        offline_l = distinct_count_l(
            s1.entries, s2.entries, 0.5, 0.4, seeds1, seeds2
        )
        offline_ht = distinct_count_ht(
            s1.entries, s2.entries, 0.5, 0.4, seeds1, seeds2
        )
        assert distinct_count(s1, s2, "l").estimate == pytest.approx(
            offline_l.estimate
        )
        assert distinct_count(s1, s2, "ht").estimate == pytest.approx(
            offline_ht.estimate
        )
        assert distinct_count(s1, s2, "l").counts == offline_l.counts

    def test_requires_uniform_sketches(self):
        assigner = SeedAssigner()
        pps = StreamingPoisson(0.1, instance="a", rank_family=PpsRanks(),
                               seed_assigner=assigner)
        uni = StreamingPoisson(0.5, instance="b", seed_assigner=assigner)
        with pytest.raises(InvalidParameterError):
            distinct_count(pps, uni)

    def test_unknown_variant(self):
        day1, day2 = two_instances(60)
        s1, s2, _ = uniform_sketches(day1, day2)
        with pytest.raises(InvalidParameterError):
            distinct_count(s1, s2, "nope")


class TestL1Distance:
    def test_matches_offline_pipeline(self):
        day1, day2 = two_instances()
        s1, s2, assigner = uniform_sketches(day1, day2)
        dataset = MultiInstanceDataset({"day1": day1, "day2": day2})
        offline = l1_distance_ht(
            dataset, ["day1", "day2"], [0.5, 0.4], assigner
        )
        assert l1_distance(s1, s2) == pytest.approx(offline.estimate)


class TestMaxDominance:
    def test_matches_offline_pipeline(self):
        day1, day2 = two_instances()
        assigner = SeedAssigner(salt=23)
        tau_star = (12.0, 15.0)
        s1 = StreamingPoisson(1.0 / tau_star[0], instance="day1",
                              rank_family=PpsRanks(), seed_assigner=assigner)
        s2 = StreamingPoisson(1.0 / tau_star[1], instance="day2",
                              rank_family=PpsRanks(), seed_assigner=assigner)
        s1.update_many(list(day1), list(day1.values()), chunk_size=len(day1))
        s2.update_many(list(day2), list(day2.values()), chunk_size=len(day2))
        dataset = MultiInstanceDataset({"day1": day1, "day2": day2})
        offline = max_dominance_estimates(
            dataset, ["day1", "day2"], tau_star, assigner
        )
        streaming = max_dominance(s1, s2)
        assert streaming.ht == pytest.approx(offline.ht)
        assert streaming.l == pytest.approx(offline.l)

    def test_requires_pps_sketches(self):
        day1, day2 = two_instances(60)
        s1, s2, _ = uniform_sketches(day1, day2)
        with pytest.raises(InvalidParameterError):
            max_dominance(s1, s2)


class TestDatasetView:
    def test_view_exposes_retained_entries(self):
        day1, day2 = two_instances()
        s1, s2, _ = uniform_sketches(day1, day2)
        view = dataset_view((s1, s2))
        assert isinstance(view, MultiInstanceDataset)
        assert view.instance(s1.instance) == s1.entries
        assert view.distinct_count() == len(set(s1.entries) | set(s2.entries))

    def test_bottom_k_view_uses_sample_entries(self):
        day1, _ = two_instances(80)
        assigner = SeedAssigner(salt=2)
        sketch = StreamingBottomK(k=10, instance="day1",
                                  seed_assigner=assigner)
        sketch.update_many(list(day1), list(day1.values()), chunk_size=len(day1))
        view = dataset_view((sketch,))
        assert view.instance("day1") == sketch.to_sample().entries


class TestRankConditioning:
    def test_subset_sum_with_predicate(self):
        day1, _ = two_instances(200)
        sketch = StreamingBottomK(k=80, instance="day1",
                                  seed_assigner=SeedAssigner(salt=5))
        sketch.update_many(list(day1), list(day1.values()), chunk_size=len(day1))
        even = lambda key: key % 2 == 0  # noqa: E731
        estimate = rank_conditioning_total(sketch, even)
        truth = sum(v for k, v in day1.items() if even(k))
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_requires_bottom_k(self):
        with pytest.raises(InvalidParameterError):
            rank_conditioning_total(
                StreamingPoisson(0.5, seed_assigner=SeedAssigner())
            )


class TestIndependenceRequirement:
    """Coordinated (shared-seed) sketches break the independent-sampling
    assumption of the Section 8 estimators and must be rejected."""

    def make_coordinated_pair(self):
        assigner = SeedAssigner(salt=1, coordinated=True)
        s1 = StreamingPoisson(0.5, instance="a", seed_assigner=assigner)
        s2 = StreamingPoisson(0.4, instance="b", seed_assigner=assigner)
        keys = [f"k{i}" for i in range(20)]
        s1.update_many(keys, np.ones(20), chunk_size=len(keys))
        s2.update_many(keys, np.full(20, 2.0), chunk_size=len(keys))
        return s1, s2

    def test_adapters_reject_coordinated_sketches(self):
        s1, s2 = self.make_coordinated_pair()
        with pytest.raises(InvalidParameterError, match="independent"):
            distinct_count(s1, s2)
        with pytest.raises(InvalidParameterError, match="independent"):
            l1_distance(s1, s2)
        with pytest.raises(InvalidParameterError, match="independent"):
            sum_aggregate((s1, s2), MaxObliviousL([0.5, 0.4]))
        with pytest.raises(InvalidParameterError, match="independent"):
            max_dominance(s1, s2)

    def test_coordination_agnostic_adapters_still_work(self):
        s1, s2 = self.make_coordinated_pair()
        view = dataset_view((s1, s2))
        assert isinstance(view, MultiInstanceDataset)
        assert vector_outcomes((s1, s2))
