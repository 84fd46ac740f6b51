"""Golden tests for the estimator kernels against frozen scalar values.

Until commit 9870eb7 every closed-form estimator also had a per-class
scalar ``estimate``.  ``frozen_parity_estimates.json`` holds that scalar
output for every outcome these tests draw (per test id, one entry per
``assert_parity`` call).  Randomized outcomes spanning the paper's regimes
(dense, sparse, all-zero, single-entry, empty, and p -> 1 edge cases)
must produce those values to within 1e-12 through ``estimate``,
``estimate_batch`` and ``estimate_many``, and invalid input must raise
the same exceptions through ``estimate`` and ``estimate_batch``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.batch import OutcomeBatch
from repro.core.ht import HorvitzThompsonOblivious, InverseProbabilityEstimator
from repro.core.max_oblivious import (
    MaxObliviousHT,
    MaxObliviousL,
    MaxObliviousU,
    MaxObliviousUAsymmetric,
)
from repro.core.max_weighted import MaxPpsHT, MaxPpsL
from repro.core.or_estimators import (
    OrKnownSeedsHT,
    OrKnownSeedsL,
    OrKnownSeedsU,
    OrObliviousHT,
    OrObliviousL,
    OrObliviousU,
)
from repro.core.estimator_base import VectorEstimator
from repro.exceptions import InvalidOutcomeError
from repro.sampling.outcomes import VectorOutcome

TOLERANCE = dict(rtol=1e-12, atol=1e-12)
FROZEN = json.loads(
    Path(__file__).with_name("frozen_parity_estimates.json").read_text()
)["cases"]


@pytest.fixture
def frozen(request):
    """The frozen scalar estimates of this test, one entry per call."""
    calls = iter(FROZEN[request.node.nodeid.split("::", 1)[1]])
    yield calls
    assert next(calls, None) is None, "a frozen call was not checked"


def frozen_estimates(frozen, estimator, outcomes):
    call = next(frozen)
    assert call["estimator"] == type(estimator).__name__
    assert len(call["estimates"]) == len(outcomes)
    return np.array(call["estimates"], dtype=np.float64)


# ----------------------------------------------------------------------
# Outcome generators: every inclusion pattern and value regime.
# ----------------------------------------------------------------------
def _structured_masks(rng, n, r):
    """Inclusion masks covering empty, single-entry, full and random rows."""
    masks = [np.zeros(r, dtype=bool), np.ones(r, dtype=bool)]
    for index in range(r):
        single = np.zeros(r, dtype=bool)
        single[index] = True
        masks.append(single)
    while len(masks) < n:
        masks.append(rng.random(r) < rng.choice([0.2, 0.5, 0.9]))
    return masks[:n]


def oblivious_outcomes(rng, n=200, r=2, binary=False, seeds=False):
    outcomes = []
    for mask in _structured_masks(rng, n, r):
        if binary:
            values = rng.integers(0, 2, r).astype(float)
        else:
            regime = rng.choice(["dense", "sparse", "zero"])
            if regime == "dense":
                values = np.round(rng.gamma(2.0, 3.0, r) + 0.5, 3)
            elif regime == "sparse":
                values = np.round(
                    rng.gamma(2.0, 3.0, r) * (rng.random(r) < 0.4), 3
                )
            else:
                values = np.zeros(r)
        sampled = {i for i in range(r) if mask[i]}
        seed_vector = list(rng.random(r)) if seeds else None
        outcomes.append(
            VectorOutcome.from_vector(tuple(values), sampled, seeds=seed_vector)
        )
    return outcomes


def pps_outcomes(rng, tau_star, n=200):
    """Consistent PPS outcomes: sampled iff v > 0 and v >= u * tau."""
    r = len(tau_star)
    outcomes = []
    for _ in range(n):
        values = np.round(
            rng.gamma(2.0, 0.6 * max(tau_star), r) * (rng.random(r) < 0.7), 3
        )
        seeds = rng.random(r)
        sampled = {
            i
            for i in range(r)
            if values[i] > 0.0 and values[i] >= seeds[i] * tau_star[i]
        }
        outcomes.append(
            VectorOutcome.from_vector(tuple(values), sampled, seeds=list(seeds))
        )
    return outcomes


def known_seed_or_outcomes(rng, probabilities, n=200):
    """Weighted binary sampling with known seeds (Section 5.1 model)."""
    r = len(probabilities)
    outcomes = []
    for _ in range(n):
        values = rng.integers(0, 2, r).astype(float)
        seeds = rng.random(r)
        sampled = {
            i
            for i in range(r)
            if values[i] == 1.0 and seeds[i] <= probabilities[i]
        }
        outcomes.append(
            VectorOutcome.from_vector(tuple(values), sampled, seeds=list(seeds))
        )
    return outcomes


def assert_parity(frozen, estimator, outcomes):
    expected = frozen_estimates(frozen, estimator, outcomes)
    batch = OutcomeBatch.from_outcomes(outcomes)
    for path, actual in (
        ("estimate", np.array([estimator.estimate(o) for o in outcomes])),
        ("estimate_batch", estimator.estimate_batch(batch)),
        ("estimate_many", estimator.estimate_many(outcomes)),
    ):
        assert actual.shape == expected.shape, path
        np.testing.assert_allclose(actual, expected, err_msg=path, **TOLERANCE)


# ----------------------------------------------------------------------
# Frozen scalar values per estimator family.
# ----------------------------------------------------------------------
PROBABILITY_GRID = [(0.3, 0.7), (0.5, 0.5), (0.05, 0.95), (1.0, 1.0), (1.0, 0.4)]


class TestObliviousMaxParity:
    @pytest.mark.parametrize("probabilities", PROBABILITY_GRID)
    def test_ht(self, frozen, rng, probabilities):
        assert_parity(
            frozen, MaxObliviousHT(probabilities), oblivious_outcomes(rng)
        )

    @pytest.mark.parametrize("probabilities", PROBABILITY_GRID)
    def test_l_r2(self, frozen, rng, probabilities):
        assert_parity(
            frozen, MaxObliviousL(probabilities), oblivious_outcomes(rng)
        )

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    @pytest.mark.parametrize("p", [0.05, 0.3, 1.0])
    def test_l_uniform(self, frozen, rng, r, p):
        assert_parity(
            frozen, MaxObliviousL((p,) * r), oblivious_outcomes(rng, r=r)
        )

    @pytest.mark.parametrize("probabilities", PROBABILITY_GRID)
    def test_u(self, frozen, rng, probabilities):
        assert_parity(
            frozen, MaxObliviousU(probabilities), oblivious_outcomes(rng)
        )

    @pytest.mark.parametrize("probabilities", PROBABILITY_GRID)
    def test_u_asymmetric(self, frozen, rng, probabilities):
        assert_parity(
            frozen,
            MaxObliviousUAsymmetric(probabilities),
            oblivious_outcomes(rng),
        )

    def test_generic_ht_function_fallback(self, frozen, rng):
        """A custom function without a batch twin still matches."""
        estimator = HorvitzThompsonOblivious(
            (0.4, 0.6),
            function=lambda values: min(values) + 0.5 * max(values),
            function_name="custom",
        )
        assert estimator.batch_function is None
        assert_parity(frozen, estimator, oblivious_outcomes(rng))


class TestOrParity:
    @pytest.mark.parametrize(
        "estimator_class", [OrObliviousHT, OrObliviousL, OrObliviousU]
    )
    @pytest.mark.parametrize("probabilities", PROBABILITY_GRID)
    def test_oblivious(self, frozen, rng, estimator_class, probabilities):
        assert_parity(
            frozen,
            estimator_class(probabilities),
            oblivious_outcomes(rng, binary=True),
        )

    @pytest.mark.parametrize(
        "estimator_class", [OrKnownSeedsHT, OrKnownSeedsL, OrKnownSeedsU]
    )
    @pytest.mark.parametrize("probabilities", [(0.3, 0.7), (0.5, 0.5)])
    def test_known_seeds(self, frozen, rng, estimator_class, probabilities):
        assert_parity(
            frozen,
            estimator_class(probabilities),
            known_seed_or_outcomes(rng, probabilities),
        )


class TestPpsMaxParity:
    @pytest.mark.parametrize(
        "tau_star", [(8.0, 8.0), (8.0, 15.0), (2.0, 40.0)]
    )
    def test_ht(self, frozen, rng, tau_star):
        assert_parity(frozen, MaxPpsHT(tau_star), pps_outcomes(rng, tau_star))

    def test_ht_r3(self, frozen, rng):
        tau_star = (8.0, 15.0, 4.0)
        assert_parity(frozen, MaxPpsHT(tau_star), pps_outcomes(rng, tau_star))

    @pytest.mark.parametrize(
        "tau_star", [(8.0, 8.0), (8.0, 15.0), (2.0, 40.0)]
    )
    def test_l(self, frozen, rng, tau_star):
        assert_parity(frozen, MaxPpsL(tau_star), pps_outcomes(rng, tau_star))

    def test_l_covers_every_closed_form(self, frozen, rng):
        """Force outcomes through each Figure 3 case (Eqs. 25/26/29/30)."""
        tau_star = (10.0, 10.0)
        estimator = MaxPpsL(tau_star)
        outcomes = [
            # both sampled, equal entries (Eq. 25)
            VectorOutcome.from_vector((4.0, 4.0), {0, 1}, seeds=[0.1, 0.2]),
            # both above the thresholds (Eq. 26 via b >= tau_b)
            VectorOutcome.from_vector((25.0, 12.0), {0, 1}, seeds=[0.5, 0.9]),
            # larger certain (a >= tau_a), smaller below threshold
            VectorOutcome.from_vector((15.0, 3.0), {0, 1}, seeds=[0.9, 0.2]),
            # both below both thresholds (Eq. 29)
            VectorOutcome.from_vector((6.0, 2.0), {0, 1}, seeds=[0.3, 0.1]),
            # empty outcome
            VectorOutcome.from_vector((6.0, 2.0), set(), seeds=[0.9, 0.9]),
            # single entry sampled, partial-information bound
            VectorOutcome.from_vector((6.0, 0.0), {0}, seeds=[0.3, 0.8]),
        ]
        # Eq. (30) requires tau_b <= a <= tau_a, i.e. heterogeneous taus.
        hetero = MaxPpsL((20.0, 5.0))
        hetero_outcomes = [
            VectorOutcome.from_vector((9.0, 3.0), {0, 1}, seeds=[0.2, 0.3]),
        ]
        assert_parity(frozen, estimator, outcomes)
        assert_parity(frozen, hetero, hetero_outcomes)


class TestExceptionParity:
    def test_r_mismatch(self, rng):
        outcomes = oblivious_outcomes(rng, n=10, r=3)
        batch = OutcomeBatch.from_outcomes(outcomes)
        for estimator in (
            MaxObliviousHT((0.5, 0.5)),
            MaxObliviousL((0.5, 0.5)),
            MaxObliviousU((0.5, 0.5)),
            MaxObliviousUAsymmetric((0.5, 0.5)),
            MaxPpsHT((8.0, 8.0)),
        ):
            with pytest.raises(InvalidOutcomeError):
                estimator.estimate(outcomes[0])
            with pytest.raises(InvalidOutcomeError):
                estimator.estimate_batch(batch)

    def test_or_non_binary_values(self):
        outcome = VectorOutcome.from_vector((2.0, 1.0), {0, 1})
        batch = OutcomeBatch.from_outcomes([outcome])
        for estimator in (OrObliviousL((0.5, 0.5)), OrObliviousU((0.5, 0.5))):
            with pytest.raises(InvalidOutcomeError):
                estimator.estimate(outcome)
            with pytest.raises(InvalidOutcomeError):
                estimator.estimate_batch(batch)

    def test_known_seed_or_requires_seeds(self):
        outcome = VectorOutcome.from_vector((1.0, 1.0), {0, 1})
        batch = OutcomeBatch.from_outcomes([outcome])
        estimator = OrKnownSeedsL((0.5, 0.5))
        with pytest.raises(InvalidOutcomeError):
            estimator.estimate(outcome)
        with pytest.raises(InvalidOutcomeError):
            estimator.estimate_batch(batch)

    def test_pps_requires_seeds(self):
        outcome = VectorOutcome.from_vector((4.0, 2.0), {0, 1})
        batch = OutcomeBatch.from_outcomes([outcome])
        for estimator in (MaxPpsHT((8.0, 8.0)), MaxPpsL((8.0, 8.0))):
            with pytest.raises(InvalidOutcomeError):
                estimator.estimate(outcome)
            with pytest.raises(InvalidOutcomeError):
                estimator.estimate_batch(batch)

    def test_pps_l_zero_sampled_value(self):
        outcome = VectorOutcome.from_vector(
            (0.0, 4.0), {0, 1}, seeds=[0.1, 0.1]
        )
        batch = OutcomeBatch.from_outcomes([outcome])
        estimator = MaxPpsL((8.0, 8.0))
        with pytest.raises(InvalidOutcomeError):
            estimator.estimate(outcome)
        with pytest.raises(InvalidOutcomeError):
            estimator.estimate_batch(batch)


class TestEstimateManyDispatch:
    def test_empty_iterable_returns_empty_float64(self):
        for estimator in (
            MaxObliviousL((0.5, 0.5)),
            InverseProbabilityEstimator(
                r=2,
                in_s_star=lambda outcome: outcome.is_full,
                f_star=lambda outcome: outcome.max_sampled(),
                p_star=lambda outcome: 0.25,
            ),
        ):
            result = estimator.estimate_many([])
            assert result.shape == (0,)
            assert result.dtype == np.float64

    def test_generator_input(self, frozen, rng):
        estimator = MaxObliviousL((0.3, 0.7))
        outcomes = oblivious_outcomes(rng, n=25)
        expected = frozen_estimates(frozen, estimator, outcomes)
        np.testing.assert_allclose(
            [estimator.estimate(o) for o in outcomes], expected, **TOLERANCE
        )
        result = estimator.estimate_many(o for o in outcomes)
        np.testing.assert_allclose(result, expected, **TOLERANCE)

    def test_heterogeneous_outcomes_fall_back_to_scalar(self, frozen):
        """Mixed seed availability cannot form one batch: ``estimate_many``
        scores the outcomes one by one."""
        estimator = MaxObliviousL((0.5, 0.5))
        outcomes = [
            VectorOutcome.from_vector((3.0, 1.0), {0, 1}),
            VectorOutcome.from_vector((3.0, 1.0), {0, 1}, seeds=[0.2, 0.4]),
        ]
        expected = frozen_estimates(frozen, estimator, outcomes)
        np.testing.assert_allclose(
            estimator.estimate_many(outcomes), expected, **TOLERANCE
        )

    def test_batch_path_flag(self):
        assert MaxObliviousL((0.5, 0.5)).has_batch_path
        fallback = InverseProbabilityEstimator(
            r=2,
            in_s_star=lambda outcome: outcome.is_full,
            f_star=lambda outcome: outcome.max_sampled(),
            p_star=lambda outcome: 0.25,
        )
        assert not fallback.has_batch_path
        outcome = VectorOutcome.from_vector((3.0, 1.0), {0, 1})
        batch = OutcomeBatch.from_outcomes([outcome])
        np.testing.assert_allclose(
            fallback.estimate_batch(batch), [fallback.estimate(outcome)]
        )


class TestEstimateDerivation:
    """An estimator defines ``estimate`` or ``estimate_batch``; the base
    class derives the other, and a class defining neither is abstract."""

    class Neither(VectorEstimator):
        r = 2

    class BatchOnly(VectorEstimator):
        r = 2

        def estimate_batch(self, batch):
            return batch.values.sum(axis=1)

    class ScalarOnly(VectorEstimator):
        r = 2

        def estimate(self, outcome):
            return float(sum(outcome.values.values()))

    def test_defining_neither_method_cannot_instantiate(self):
        with pytest.raises(TypeError, match="abstract"):
            self.Neither()

    @pytest.mark.parametrize(
        "cls", [BatchOnly, ScalarOnly], ids=["batch_only", "scalar_only"]
    )
    def test_derived_method_agrees(self, cls):
        outcomes = [
            VectorOutcome.from_vector((3.0, 1.0), {0, 1}),
            VectorOutcome.from_vector((3.0, 1.0), {1}),
            VectorOutcome.from_vector((3.0, 1.0), set()),
        ]
        estimator = cls()
        assert estimator.has_batch_path == (cls is self.BatchOnly)
        assert [estimator.estimate(o) for o in outcomes] == [4.0, 1.0, 0.0]
        batch = OutcomeBatch.from_outcomes(outcomes)
        assert estimator.estimate_batch(batch).tolist() == [4.0, 1.0, 0.0]
        assert estimator.estimate_many(outcomes).tolist() == [4.0, 1.0, 0.0]
