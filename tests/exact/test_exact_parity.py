"""Golden tests for the exact-enumeration engine against frozen moments.

Until commit 9870eb7, :func:`repro.core.variance.exact_moments` walked the
outcome space in Python and called the per-class scalar ``estimate``.
``frozen_exact_moments.json`` holds that function's ``(mean, variance)``
as float hex for every data vector these tests check (per test id, in call
order).  Every supported estimator family, across ``r`` and probability
edge cases, must reproduce them — bit for bit in the ``r = 2`` figure
settings, to 1e-12 for general ``r`` — and raise the same exceptions
through :func:`exact_moments` and :func:`exact_moments_value_grid`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.max_oblivious import (
    MaxObliviousHT,
    MaxObliviousL,
    MaxObliviousU,
    MaxObliviousUAsymmetric,
)
from repro.core.or_estimators import (
    OrKnownSeedsL,
    OrObliviousHT,
    OrObliviousL,
    OrObliviousU,
)
from repro.core.variance import exact_moments
from repro.exact import exact_moments_value_grid
from repro.exceptions import InvalidOutcomeError
from repro.sampling.dispersed import ObliviousPoissonScheme

EDGE_PROBABILITIES = (1e-6, 0.05, 0.5, 0.9, 0.999999, 1.0)
FROZEN = json.loads(
    Path(__file__).with_name("frozen_exact_moments.json").read_text()
)["cases"]

R2_ESTIMATORS = {
    "max_ht": MaxObliviousHT,
    "max_l": MaxObliviousL,
    "max_u": MaxObliviousU,
    "max_uas": MaxObliviousUAsymmetric,
}
R2_OR_ESTIMATORS = {
    "or_ht": OrObliviousHT,
    "or_l": OrObliviousL,
    "or_u": OrObliviousU,
}


@pytest.fixture
def frozen(request):
    """The frozen moments of this test, one entry per checked vector."""
    calls = iter(FROZEN[request.node.nodeid.split("::", 1)[1]])
    yield calls
    assert next(calls, None) is None, "a frozen call was not checked"


def both(frozen, estimator, scheme, values):
    """``(frozen moments, exact_moments)`` of one data vector."""
    call = next(frozen)
    assert call["estimator"] == type(estimator).__name__
    assert call["probabilities"] == list(scheme.probabilities)
    assert call["values"] == [float(v) for v in values]
    expected = (float.fromhex(call["mean"]), float.fromhex(call["variance"]))
    return expected, exact_moments(estimator, scheme, values)


class TestR2Parity:
    @pytest.mark.parametrize("name", sorted(R2_ESTIMATORS))
    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    @pytest.mark.parametrize(
        "values", [(1.0, 0.4), (1.0, 1.0), (5.0, 0.0), (0.0, 0.0)]
    )
    def test_bitwise_max_family(self, frozen, name, p, values):
        estimator = R2_ESTIMATORS[name]((p, p))
        scheme = ObliviousPoissonScheme((p, p))
        expected, actual = both(frozen, estimator, scheme, values)
        assert expected == actual  # the r = 2 kernels match bit for bit

    @pytest.mark.parametrize("name", sorted(R2_OR_ESTIMATORS))
    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    @pytest.mark.parametrize("values", [(1.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    def test_bitwise_or_family(self, frozen, name, p, values):
        estimator = R2_OR_ESTIMATORS[name]((p, p))
        scheme = ObliviousPoissonScheme((p, p))
        expected, actual = both(frozen, estimator, scheme, values)
        assert expected == actual

    @pytest.mark.parametrize("probabilities", [(0.2, 0.9), (0.7, 0.1)])
    def test_heterogeneous_probabilities(self, frozen, probabilities):
        scheme = ObliviousPoissonScheme(probabilities)
        for cls in R2_ESTIMATORS.values():
            estimator = cls(probabilities)
            expected, actual = both(frozen, estimator, scheme, (2.0, 3.0))
            assert expected == actual


class TestGeneralRParity:
    @pytest.mark.parametrize("r", [1, 2, 3, 8])
    @pytest.mark.parametrize("p", [1e-6, 0.3, 0.999999, 1.0])
    def test_uniform_max_l_and_ht(self, frozen, r, p):
        scheme = ObliviousPoissonScheme((p,) * r)
        values = tuple(float((i * 7) % 5) for i in range(r))
        for estimator in (MaxObliviousHT((p,) * r), MaxObliviousL((p,) * r)):
            expected, actual = both(frozen, estimator, scheme, values)
            assert expected[0] == pytest.approx(actual[0], abs=1e-12,
                                                rel=1e-12)
            assert expected[1] == pytest.approx(actual[1], abs=1e-12,
                                                rel=1e-12)

    @pytest.mark.parametrize("r", [3, 8])
    def test_or_l_general_r(self, frozen, r):
        p = 0.4
        scheme = ObliviousPoissonScheme((p,) * r)
        values = tuple(float(i % 2) for i in range(r))
        expected, actual = both(frozen, OrObliviousL((p,) * r), scheme, values)
        assert expected[0] == pytest.approx(actual[0], rel=1e-12)
        assert expected[1] == pytest.approx(actual[1], abs=1e-12,
                                            rel=1e-12)


class TestUnbiasednessAndClamp:
    def test_mean_equals_function_value(self, frozen):
        # exact enumeration certifies unbiasedness: E = max(v).
        scheme = ObliviousPoissonScheme((0.3, 0.6))
        for cls in (MaxObliviousHT, MaxObliviousL, MaxObliviousU):
            expected, actual = both(frozen, cls((0.3, 0.6)), scheme, (2.0, 5.0))
            assert expected == actual
            assert actual[0] == pytest.approx(5.0)

    def test_variance_clamped_at_zero_near_p_one(self, frozen):
        # Regression: second_moment - mean**2 is a tiny negative here by
        # catastrophic cancellation; exact_moments must clamp it to 0.0.
        p = 0.9999999999998703
        values = (255.9939, 260.0054)
        scheme = ObliviousPoissonScheme((p, p))
        for cls in (MaxObliviousL, MaxObliviousU, MaxObliviousUAsymmetric):
            estimator = cls((p, p))
            raw_mean = 0.0
            raw_second = 0.0
            for outcome, probability in scheme.iter_outcomes(values):
                estimate = estimator.estimate(outcome)
                raw_mean += probability * estimate
                raw_second += probability * estimate ** 2
            assert raw_second - raw_mean ** 2 < 0.0  # the cancellation bites
            expected, actual = both(frozen, estimator, scheme, values)
            assert expected[1] == 0.0
            assert actual[1] == 0.0

    def test_variance_zero_at_p_one(self, frozen):
        scheme = ObliviousPoissonScheme((1.0, 1.0))
        expected, actual = both(
            frozen, MaxObliviousL((1.0, 1.0)), scheme, (4.0, 9.0)
        )
        assert expected == actual == (9.0, 0.0)


class TestExceptionParity:
    def test_wrong_r_raises_same_exception(self):
        scheme = ObliviousPoissonScheme((0.5, 0.5, 0.5))
        estimator = MaxObliviousL((0.5, 0.5))
        with pytest.raises(InvalidOutcomeError):
            exact_moments(estimator, scheme, (1.0, 2.0, 3.0))
        with pytest.raises(InvalidOutcomeError):
            exact_moments_value_grid(estimator, scheme, [(1.0, 2.0, 3.0)])

    def test_non_binary_or_raises_same_exception(self):
        scheme = ObliviousPoissonScheme((0.5, 0.5))
        estimator = OrObliviousL((0.5, 0.5))
        with pytest.raises(InvalidOutcomeError):
            exact_moments(estimator, scheme, (2.0, 1.0))
        with pytest.raises(InvalidOutcomeError):
            exact_moments_value_grid(estimator, scheme, [(2.0, 1.0)])

    def test_seedless_enumeration_rejects_known_seed_estimators(self):
        scheme = ObliviousPoissonScheme((0.5, 0.5))
        estimator = OrKnownSeedsL((0.5, 0.5))
        with pytest.raises(InvalidOutcomeError):
            exact_moments(estimator, scheme, (1.0, 1.0))
        with pytest.raises(InvalidOutcomeError):
            exact_moments_value_grid(estimator, scheme, [(1.0, 1.0)])
