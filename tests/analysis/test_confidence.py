"""Tests for the confidence-interval helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.analysis.confidence import (
    _Z90,
    _normal_quantile,
    chebyshev_interval,
    normal_interval,
)
from repro.aggregates.distinct import distinct_count_l, distinct_l_variance
from repro.datasets.synthetic import set_pair_with_jaccard
from repro.exceptions import InvalidParameterError
from repro.sampling.seeds import SeedAssigner
from repro.service.confidence import CONFIDENCE_LEVEL
from repro.service.queries import Query
from repro.service.store import SketchStore

from ingest_helper import ingest


class TestIntervalConstruction:
    def test_normal_interval_symmetric(self):
        interval = normal_interval(100.0, 25.0, confidence=0.95)
        assert interval.lower == pytest.approx(100.0 - 1.96 * 5.0, abs=0.01)
        assert interval.upper == pytest.approx(100.0 + 1.96 * 5.0, abs=0.01)
        assert interval.contains(100.0)
        assert interval.method == "normal"

    def test_chebyshev_wider_than_normal(self):
        normal = normal_interval(50.0, 16.0, confidence=0.9)
        chebyshev = chebyshev_interval(50.0, 16.0, confidence=0.9)
        assert chebyshev.width > normal.width

    def test_lower_clipped_at_zero(self):
        interval = normal_interval(1.0, 100.0)
        assert interval.lower == 0.0

    def test_zero_variance(self):
        interval = normal_interval(10.0, 0.0)
        assert interval.lower == interval.upper == 10.0
        assert interval.width == 0.0

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_cached_quantile_is_scipys_bit_for_bit(self, confidence):
        """0.90 is served from the ``_Z90`` constant, every other level
        from the lazily imported ``scipy.stats``; both are scipy's."""
        assert _Z90 == float(stats.norm.ppf(0.95))
        expected = float(stats.norm.ppf(0.5 + confidence / 2))
        _normal_quantile.cache_clear()
        for _ in range(2):  # the computing call, then the cached one
            assert _normal_quantile(confidence) == expected
        interval = normal_interval(0.0, 1.0, confidence)
        assert interval.upper == expected

    def test_served_ci90_payload_uses_scipys_quantile(self):
        store = SketchStore()
        store.create("t", "poisson", threshold=0.5,
                     seed_assigner=SeedAssigner(salt=3), n_shards=2)
        generator = np.random.default_rng(4)
        ingest(store, "t", "mon", np.arange(2000),
               generator.random(2000) * 5.0 + 0.01)
        result = store.query("t", Query("sum", ("mon",), confidence=True))
        value, payload = result.value, result.confidence
        margin = float(stats.norm.ppf(0.95)) * math.sqrt(payload["variance"])
        assert value - margin > 0.0  # the lower end is not clipped
        assert payload["ci90"] == {
            "lower": value - margin,
            "upper": value + margin,
            "confidence": CONFIDENCE_LEVEL,
            "method": "normal",
        }

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            normal_interval(1.0, -1.0)
        with pytest.raises(InvalidParameterError):
            chebyshev_interval(1.0, 1.0, confidence=1.0)
        with pytest.raises(InvalidParameterError):
            normal_interval(1.0, 1.0, confidence=0.0)


class TestEmpiricalCoverage:
    def test_normal_interval_coverage_for_distinct_count(self):
        set1, set2 = set_pair_with_jaccard(3000, 0.5)
        truth = len(set1 | set2)
        probability = 0.2
        variance = distinct_l_variance(truth, 0.5, probability, probability)
        all_keys = sorted(set1 | set2)
        covered = 0
        n_trials = 60
        for salt in range(n_trials):
            seeds = SeedAssigner(salt=salt)
            seeds1 = seeds.seed_map(all_keys, instance=1)
            seeds2 = seeds.seed_map(all_keys, instance=2)
            sample1 = {k for k in set1 if seeds1[k] <= probability}
            sample2 = {k for k in set2 if seeds2[k] <= probability}
            estimate = distinct_count_l(
                sample1, sample2, probability, probability, seeds1, seeds2
            ).estimate
            if normal_interval(estimate, variance, 0.95).contains(truth):
                covered += 1
        # Nominal coverage 95%; allow binomial slack for 60 trials.
        assert covered / n_trials >= 0.85

    def test_chebyshev_interval_always_covers_more(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            estimate = float(rng.uniform(10, 1000))
            variance = float(rng.uniform(1, 500))
            normal = normal_interval(estimate, variance, 0.9)
            chebyshev = chebyshev_interval(estimate, variance, 0.9)
            assert chebyshev.lower <= normal.lower
            assert chebyshev.upper >= normal.upper
