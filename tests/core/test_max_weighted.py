"""Tests for the PPS known-seed max estimators (Section 5.2, Figure 3)."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest

from repro.batch import OutcomeBatch
from repro.core.max_weighted import MaxPpsHT, MaxPpsL
from repro.exceptions import (
    InvalidOutcomeError,
    UnsupportedConfigurationError,
)
from repro.sampling.dispersed import PpsPoissonScheme
from repro.sampling.outcomes import VectorOutcome
from repro.sampling.ranks import PpsRanks
from repro.streaming.query import max_dominance
from repro.streaming.sketch import StreamingPoisson


def outcome_with(values, sampled, seeds):
    return VectorOutcome.from_vector(values, sampled, seeds=seeds)


class TestMaxPpsHT:
    def test_estimate_when_max_is_determined(self):
        estimator = MaxPpsHT((10.0, 10.0))
        # Entry 0 sampled with value 6; entry 1 unsampled with bound
        # u * tau = 0.3 * 10 = 3 <= 6, so the maximum is known.
        outcome = outcome_with((6.0, 2.0), {0}, [0.3, 0.3])
        probability = min(1.0, 6.0 / 10.0) ** 2
        assert estimator.estimate(outcome) == pytest.approx(6.0 / probability)

    def test_zero_when_bound_exceeds_sampled_max(self):
        estimator = MaxPpsHT((10.0, 10.0))
        outcome = outcome_with((6.0, 2.0), {0}, [0.3, 0.8])
        assert estimator.estimate(outcome) == 0.0

    def test_zero_on_empty_outcome(self):
        estimator = MaxPpsHT((10.0, 10.0))
        outcome = outcome_with((1.0, 2.0), set(), [0.9, 0.9])
        assert estimator.estimate(outcome) == 0.0

    def test_requires_seeds(self):
        estimator = MaxPpsHT((10.0, 10.0))
        with pytest.raises(InvalidOutcomeError):
            estimator.estimate(VectorOutcome.from_vector((1.0, 2.0), {0}))

    def test_variance_closed_form(self):
        estimator = MaxPpsHT((10.0, 10.0))
        values = (5.0, 2.0)
        probability = 0.25
        assert estimator.variance(values) == pytest.approx(
            25.0 * (1.0 / probability - 1.0)
        )
        assert estimator.variance((0.0, 0.0)) == 0.0

    def test_unbiased_by_monte_carlo(self, rng):
        estimator = MaxPpsHT((10.0, 8.0))
        scheme = PpsPoissonScheme((10.0, 8.0))
        values = (6.0, 3.0)
        estimates = estimator.estimate_many(
            scheme.sample(values, rng=rng) for _ in range(30_000)
        )
        assert np.mean(estimates) == pytest.approx(6.0, rel=0.05)

    def test_three_instances_supported(self):
        estimator = MaxPpsHT((10.0, 10.0, 10.0))
        outcome = outcome_with((6.0, 1.0, 2.0), {0}, [0.1, 0.5, 0.55])
        probability = 0.6 ** 3
        assert estimator.estimate(outcome) == pytest.approx(6.0 / probability)


class TestMaxPpsLClosedForm:
    def test_figure3_equal_entries(self):
        estimator = MaxPpsL((10.0, 10.0))
        # Eq. (25): v / (q1 + q2 - q1 q2).
        assert estimator.estimate_from_determining(5.0, 5.0) == pytest.approx(
            5.0 / (0.5 + 0.5 - 0.25)
        )

    def test_figure3_case_both_above_thresholds(self):
        estimator = MaxPpsL((10.0, 4.0))
        # v1 >= v2 >= tau_2: estimate = v2 + (v1 - v2)/min(1, v1/tau_1).
        assert estimator.estimate_from_determining(8.0, 5.0) == pytest.approx(
            5.0 + 3.0 / 0.8
        )

    def test_figure3_case_large_entry_above_own_threshold(self):
        estimator = MaxPpsL((10.0, 10.0))
        assert estimator.estimate_from_determining(12.0, 3.0) == 12.0

    def test_figure3_case_both_below(self):
        # Eq. (29) at equal taus; verified against a hand-computed value.
        estimator = MaxPpsL((10.0, 10.0))
        value = estimator.estimate_from_determining(5.0, 2.0)
        tau = 10.0
        total = 2 * tau
        expected = (
            tau * tau / (total - 5.0)
            + tau * tau * (tau - 5.0) / (5.0 * total)
            * np.log((total - 2.0) * 5.0 / (2.0 * (total - 5.0)))
            + (5.0 - 2.0) * tau * tau * (tau - 5.0)
            / (5.0 * (total - 2.0) * (total - 5.0))
        )
        assert value == pytest.approx(expected)

    def test_zero_vector(self):
        estimator = MaxPpsL((10.0, 10.0))
        assert estimator.estimate_from_determining(0.0, 0.0) == 0.0

    def test_partial_zero_vector_rejected(self):
        estimator = MaxPpsL((10.0, 10.0))
        with pytest.raises(InvalidOutcomeError):
            estimator.estimate_from_determining(3.0, 0.0)

    def test_continuity_across_case_boundaries(self):
        # The estimate must be continuous in the determining vector; check
        # the three interior boundaries with unequal thresholds.
        estimator = MaxPpsL((10.0, 4.0))
        eps = 1e-7
        # Boundary b = tau_b (between Eq. 26 and Eq. 30).
        left = estimator.estimate_from_determining(7.0, 4.0 - eps)
        right = estimator.estimate_from_determining(7.0, 4.0 + eps)
        assert left == pytest.approx(right, abs=1e-4)
        # Boundary a = tau_a (between Eq. 30 and the constant case).
        left = estimator.estimate_from_determining(10.0 - eps, 2.0)
        right = estimator.estimate_from_determining(10.0 + eps, 2.0)
        assert left == pytest.approx(right, abs=1e-4)
        # Boundary a = tau_b (between Eq. 29 and Eq. 30).
        estimator_wide = MaxPpsL((10.0, 6.0))
        left = estimator_wide.estimate_from_determining(6.0 - eps, 2.0)
        right = estimator_wide.estimate_from_determining(6.0 + eps, 2.0)
        assert left == pytest.approx(right, abs=1e-4)

    def test_symmetry_under_entry_swap(self):
        # Swapping both the entries and the thresholds must not change the
        # estimate.
        a = MaxPpsL((10.0, 4.0)).estimate_from_determining(7.0, 2.0)
        b = MaxPpsL((4.0, 10.0)).estimate_from_determining(2.0, 7.0)
        assert a == pytest.approx(b)


class TestMaxPpsLDeterminingVector:
    def test_mapping_all_outcome_shapes(self):
        estimator = MaxPpsL((10.0, 10.0))
        seeds = {0: 0.35, 1: 0.8}
        empty = VectorOutcome(r=2, sampled=frozenset(), values={}, seeds=seeds)
        assert estimator.determining_vector(empty) == (0.0, 0.0)
        only_first = VectorOutcome(
            r=2, sampled=frozenset({0}), values={0: 6.0}, seeds=seeds
        )
        # bound of entry 1: 0.8 * 10 = 8 > 6 -> clipped at the sampled value.
        assert estimator.determining_vector(only_first) == (6.0, 6.0)
        only_first_low_bound = VectorOutcome(
            r=2, sampled=frozenset({0}), values={0: 6.0},
            seeds={0: 0.35, 1: 0.2},
        )
        assert estimator.determining_vector(only_first_low_bound) == (6.0, 2.0)
        both = VectorOutcome(
            r=2, sampled=frozenset({0, 1}), values={0: 6.0, 1: 1.0},
            seeds=seeds,
        )
        assert estimator.determining_vector(both) == (6.0, 1.0)

    def test_requires_seeds(self):
        estimator = MaxPpsL((10.0, 10.0))
        with pytest.raises(InvalidOutcomeError):
            estimator.determining_vector(
                VectorOutcome.from_vector((1.0, 2.0), {0})
            )

    def test_r2_only(self):
        with pytest.raises(UnsupportedConfigurationError):
            MaxPpsL((10.0, 10.0, 10.0))


class TestMaxPpsLStatisticalProperties:
    @pytest.mark.parametrize("tau_star", [(10.0, 10.0), (10.0, 4.0), (2.0, 6.0)])
    def test_unbiased_exact_integration(self, tau_star, rng):
        estimator = MaxPpsL(tau_star)
        for _ in range(6):
            scale = np.array(tau_star) * rng.uniform(0.05, 1.2, size=2)
            values = tuple(np.round(scale, 4))
            mean, _ = estimator.moments(values)
            assert mean == pytest.approx(max(values), rel=2e-3, abs=1e-6)

    def test_unbiased_monte_carlo(self, rng):
        estimator = MaxPpsL((10.0, 10.0))
        scheme = PpsPoissonScheme((10.0, 10.0))
        values = (4.0, 2.5)
        estimates = estimator.estimate_many(
            scheme.sample(values, rng=rng) for _ in range(30_000)
        )
        assert np.mean(estimates) == pytest.approx(4.0, rel=0.03)

    def test_monte_carlo_variance_matches_integration(self, rng):
        estimator = MaxPpsL((10.0, 10.0))
        scheme = PpsPoissonScheme((10.0, 10.0))
        values = (6.0, 3.0)
        estimates = estimator.estimate_many(
            scheme.sample(values, rng=rng) for _ in range(40_000)
        )
        _, variance = estimator.moments(values)
        assert float(np.var(estimates)) == pytest.approx(variance, rel=0.08)

    def test_dominates_ht(self):
        tau_star = (10.0, 10.0)
        estimator_l = MaxPpsL(tau_star)
        estimator_ht = MaxPpsHT(tau_star)
        for values in [(5.0, 5.0), (5.0, 2.0), (8.0, 1.0), (3.0, 0.0),
                       (9.9, 9.0)]:
            assert estimator_l.variance(values) <= \
                estimator_ht.variance(values) + 1e-6

    def test_zero_variance_when_max_exceeds_threshold(self):
        estimator = MaxPpsL((10.0, 10.0))
        mean, variance = estimator.moments((12.0, 3.0))
        assert mean == pytest.approx(12.0)
        assert variance == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_estimates(self, rng):
        estimator = MaxPpsL((10.0, 7.0))
        scheme = PpsPoissonScheme((10.0, 7.0))
        for _ in range(2000):
            values = tuple(rng.uniform(0.0, 12.0, size=2))
            outcome = scheme.sample(values, rng=rng)
            assert estimator.estimate(outcome) >= 0.0

    def test_monotone_more_information_not_smaller(self):
        # Outcome with both entries sampled is more informative than the
        # outcome with only the larger entry sampled and an upper bound equal
        # to the smaller value.
        estimator = MaxPpsL((10.0, 10.0))
        seeds = {0: 0.1, 1: 0.3}
        both = VectorOutcome(
            r=2, sampled=frozenset({0, 1}), values={0: 6.0, 1: 3.0},
            seeds=seeds,
        )
        only_first = VectorOutcome(
            r=2, sampled=frozenset({0}), values={0: 6.0}, seeds=seeds,
        )
        assert estimator.estimate(both) >= estimator.estimate(only_first) - 1e-9


# ----------------------------------------------------------------------
# Invalid sampled values: numbered cases
# ----------------------------------------------------------------------
NEGATIVE = "determining vector must be nonnegative"


class PpsCase(NamedTuple):
    id: str
    estimator: object
    values: tuple
    sampled: set
    seeds: tuple
    #: ``"nan"`` or the refusal text
    expected: str


PPS_CASES = [
    PpsCase(
        "pps_001_ht_refuses_a_negative_value_beside_a_positive_one",
        MaxPpsHT((10.0, 10.0)), (-1.0, 2.0), {0, 1}, (0.05, 0.1), NEGATIVE,
    ),
    PpsCase(
        "pps_002_ht_refuses_a_negative_single_sampled_value",
        MaxPpsHT((10.0, 10.0)), (-3.0, 0.0), {0}, (0.05, 0.9), NEGATIVE,
    ),
    PpsCase(
        "pps_003_ht_refuses_a_negative_value_for_r3",
        MaxPpsHT((10.0, 10.0, 10.0)), (2.0, -1.0, 1.0), {0, 1, 2},
        (0.1, 0.05, 0.05), NEGATIVE,
    ),
    PpsCase(
        "pps_004_ht_propagates_a_nan_sampled_value",
        MaxPpsHT((10.0, 10.0)), (math.nan, 20.0), {0, 1}, (0.5, 0.5), "nan",
    ),
    PpsCase(
        "pps_005_l_propagates_a_nan_sampled_value",
        MaxPpsL((10.0, 10.0)), (math.nan, 20.0), {0, 1}, (0.5, 0.5), "nan",
    ),
    PpsCase(
        "pps_006_ht_propagates_a_nan_single_sampled_value",
        MaxPpsHT((10.0, 10.0)), (math.nan, 0.0), {0}, (0.5, 0.1), "nan",
    ),
    PpsCase(
        "pps_007_ht_propagates_a_nan_value_for_r3",
        MaxPpsHT((10.0, 10.0, 10.0)), (5.0, math.nan, 1.0), {0, 1, 2},
        (0.1, 0.5, 0.05), "nan",
    ),
]


@pytest.mark.parametrize("case", PPS_CASES, ids=[case.id for case in PPS_CASES])
def test_pps_invalid_sampled_value(case):
    outcome = outcome_with(case.values, case.sampled, list(case.seeds))
    batch = OutcomeBatch.from_outcomes([outcome])
    for score in (
        lambda: case.estimator.estimate(outcome),
        lambda: case.estimator.estimate_batch(batch)[0],
    ):
        if case.expected == "nan":
            assert math.isnan(score())
        else:
            with pytest.raises(InvalidOutcomeError, match=case.expected):
                score()


def test_pps_008_dominance_of_a_nan_valued_retained_entry_is_nan():
    """A served dominance query over a NaN-valued retained entry reports
    NaN, as an L1 query over one does, not a finite number."""

    def sketch(instance, entries):
        return StreamingPoisson.from_state(
            {
                "instance": instance,
                "rank_family": PpsRanks(),
                "salt": 3,
                "coordinated": False,
                "n_updates": len(entries),
                "n_discarded_keys": 0,
                "threshold": 0.1,
                "keys": list(entries),
                "values": list(entries.values()),
                "ranks": [0.0] * len(entries),
            }
        )

    first = sketch("x", {0: math.nan, 1: 4.0, 2: 30.0})
    second = sketch("y", {0: 20.0, 2: 1.0, 3: 6.0})
    result = max_dominance(first, second)
    assert math.isnan(result.ht) and math.isnan(result.l)
    assert result.n_sampled_keys == 4
    # without the NaN key both estimates are finite again
    finite = max_dominance(first, second, predicate=lambda key: key != 0)
    assert math.isfinite(finite.ht) and math.isfinite(finite.l)
