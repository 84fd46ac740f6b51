"""Tests for the Boolean OR estimators (Sections 4.3 and 5.1)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.batch import OutcomeBatch
from repro.batch.kernels import known_seed_or_mapping
from repro.core.or_estimators import (
    OrKnownSeedsHT,
    OrKnownSeedsL,
    OrKnownSeedsU,
    OrObliviousHT,
    OrObliviousL,
    OrObliviousU,
)
from repro.core.variance import (
    exact_moments,
    exact_variance,
    or_ht_variance,
    or_l_variance,
    or_u_variance,
)
from repro.exceptions import InvalidOutcomeError
from repro.sampling.dispersed import ObliviousPoissonScheme, PpsPoissonScheme
from repro.sampling.outcomes import VectorOutcome

BINARY_R2 = list(itertools.product((0.0, 1.0), repeat=2))


class TestObliviousOr:
    @pytest.mark.parametrize("probabilities", [(0.5, 0.5), (0.3, 0.7), (0.9, 0.1)])
    @pytest.mark.parametrize("values", BINARY_R2)
    def test_unbiased(self, probabilities, values):
        scheme = ObliviousPoissonScheme(probabilities)
        for estimator in (
            OrObliviousHT(probabilities),
            OrObliviousL(probabilities),
            OrObliviousU(probabilities),
        ):
            mean, _ = exact_moments(estimator, scheme, values)
            expected = 1.0 if any(values) else 0.0
            assert mean == pytest.approx(expected, abs=1e-10)

    def test_variance_closed_forms(self):
        p1, p2 = 0.35, 0.6
        scheme = ObliviousPoissonScheme((p1, p2))
        assert exact_variance(OrObliviousHT((p1, p2)), scheme, (1.0, 1.0)) == \
            pytest.approx(or_ht_variance((p1, p2)))
        assert exact_variance(OrObliviousL((p1, p2)), scheme, (1.0, 1.0)) == \
            pytest.approx(or_l_variance(p1, p2, (1, 1)))
        assert exact_variance(OrObliviousL((p1, p2)), scheme, (1.0, 0.0)) == \
            pytest.approx(or_l_variance(p1, p2, (1, 0)))
        assert exact_variance(OrObliviousU((p1, p2)), scheme, (1.0, 0.0)) == \
            pytest.approx(or_u_variance(p1, p2, (1, 0)))

    def test_l_and_u_dominate_ht(self):
        for p in (0.2, 0.5, 0.8):
            scheme = ObliviousPoissonScheme((p, p))
            ht = OrObliviousHT((p, p))
            for estimator in (OrObliviousL((p, p)), OrObliviousU((p, p))):
                for values in BINARY_R2:
                    assert exact_variance(estimator, scheme, values) <= \
                        exact_variance(ht, scheme, values) + 1e-12

    def test_small_p_asymptotics(self):
        # Paper: for small p, Var[OR^L | (1,1)] ~ 1/(2p) while
        # Var[OR^HT] ~ 1/p^2, and Var[OR^L | (1,0)] ~ 1/(4 p^2).
        p = 0.001
        assert or_l_variance(p, p, (1, 1)) == pytest.approx(1.0 / (2 * p),
                                                            rel=0.01)
        assert or_ht_variance((p, p)) == pytest.approx(1.0 / p ** 2, rel=0.01)
        assert or_l_variance(p, p, (1, 0)) == pytest.approx(
            1.0 / (4 * p ** 2), rel=0.01
        )

    def test_non_binary_values_rejected(self):
        estimator = OrObliviousL((0.5, 0.5))
        with pytest.raises(InvalidOutcomeError):
            estimator.estimate(VectorOutcome.from_vector((2.0, 1.0), {0}))

    def test_multi_instance_or_l(self):
        # OR^(L) specialises max^(L) and works for any r with uniform p.
        p = 0.3
        r = 4
        scheme = ObliviousPoissonScheme((p,) * r)
        estimator = OrObliviousL((p,) * r)
        for values in itertools.product((0.0, 1.0), repeat=r):
            mean, _ = exact_moments(estimator, scheme, values)
            assert mean == pytest.approx(1.0 if any(values) else 0.0,
                                         abs=1e-9)


def map_outcome(outcome, probabilities):
    """The Section 5 mapping of one known-seed outcome, as an outcome."""
    batch = OutcomeBatch.from_outcomes([outcome])
    values, sampled = known_seed_or_mapping(
        batch.sampled, batch.seeds, np.asarray(probabilities)
    )
    return OutcomeBatch(values=values, sampled=sampled).row(0)


class TestKnownSeedMapping:
    def test_mapping_categories(self):
        probabilities = (0.4, 0.6)
        outcome = VectorOutcome(
            r=2,
            sampled=frozenset({0}),
            values={0: 1.0},
            seeds={0: 0.2, 1: 0.5},
        )
        mapped = map_outcome(outcome, probabilities)
        # Entry 0 sampled -> value 1; entry 1 unsampled with seed 0.5 <= 0.6
        # -> certified zero.
        assert mapped.sampled == frozenset({0, 1})
        assert mapped.values == {0: 1.0, 1: 0.0}

    def test_mapping_uninformative_entry(self):
        probabilities = (0.4, 0.6)
        outcome = VectorOutcome(
            r=2,
            sampled=frozenset({0}),
            values={0: 1.0},
            seeds={0: 0.2, 1: 0.95},
        )
        mapped = map_outcome(outcome, probabilities)
        assert mapped.sampled == frozenset({0})

    def test_mapping_requires_seeds(self):
        outcome = VectorOutcome.from_vector((1.0, 0.0), {0})
        for cls in (OrKnownSeedsHT, OrKnownSeedsL, OrKnownSeedsU):
            with pytest.raises(InvalidOutcomeError):
                cls((0.5, 0.5)).estimate(outcome)


class TestKnownSeedsOr:
    @pytest.mark.parametrize("values", BINARY_R2)
    @pytest.mark.parametrize("p", [(0.4, 0.4), (0.3, 0.8)])
    def test_unbiased_by_exact_region_enumeration(self, values, p):
        # The estimate only depends on whether each seed falls below or above
        # its sampling probability, so the expectation is an exact finite sum
        # over the four seed regions.
        estimators = {
            "HT": OrKnownSeedsHT(p),
            "L": OrKnownSeedsL(p),
            "U": OrKnownSeedsU(p),
        }
        scheme = PpsPoissonScheme((1.0 / p[0], 1.0 / p[1]), known_seeds=True)
        expected = 1.0 if any(values) else 0.0
        regions = []
        for low1 in (True, False):
            for low2 in (True, False):
                probability = (p[0] if low1 else 1.0 - p[0]) * (
                    p[1] if low2 else 1.0 - p[1]
                )
                seeds = (
                    p[0] / 2.0 if low1 else (1.0 + p[0]) / 2.0,
                    p[1] / 2.0 if low2 else (1.0 + p[1]) / 2.0,
                )
                regions.append((probability, seeds))
        for name, estimator in estimators.items():
            mean = sum(
                probability * estimator.estimate(
                    scheme.sample(values, seeds=seeds)
                )
                for probability, seeds in regions
            )
            assert mean == pytest.approx(expected, abs=1e-9), name

    def test_known_seeds_variance_equals_oblivious(self):
        # Section 5.1: the weighted known-seed OR estimators have the same
        # variance as their weight-oblivious counterparts.
        p = (0.45, 0.45)
        assert or_l_variance(*p, (1, 1)) == pytest.approx(
            1.0 / (p[0] + p[1] - p[0] * p[1]) - 1.0
        )

    def test_estimate_values_match_section_5_1_table(self):
        p1, p2 = 0.4, 0.5
        union = p1 + p2 - p1 * p2
        estimator = OrKnownSeedsL((p1, p2))
        # S = {1} with u2 > p2: estimate 1/union.
        outcome = VectorOutcome(
            r=2, sampled=frozenset({0}), values={0: 1.0},
            seeds={0: 0.1, 1: 0.9},
        )
        assert estimator.estimate(outcome) == pytest.approx(1.0 / union)
        # S = {1} with u2 <= p2: estimate 1/(p1 * union).
        outcome = VectorOutcome(
            r=2, sampled=frozenset({0}), values={0: 1.0},
            seeds={0: 0.1, 1: 0.2},
        )
        assert estimator.estimate(outcome) == pytest.approx(
            1.0 / (p1 * union)
        )
        # Empty outcome with both seeds high: no information, estimate 0.
        outcome = VectorOutcome(
            r=2, sampled=frozenset(), values={}, seeds={0: 0.9, 1: 0.95},
        )
        assert estimator.estimate(outcome) == 0.0
