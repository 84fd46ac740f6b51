"""Confidence intervals for sum-aggregate estimates.

Unbiased per-key estimates with known (or estimable) variances allow two
standard interval constructions:

* a normal (CLT) interval, appropriate when many sampled keys contribute so
  the aggregate is approximately Gaussian — the regime the paper targets
  ("the relative error decreases with the number of selected keys");
* a distribution-free Chebyshev interval, valid for any number of keys at
  the cost of being wider.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro._validation import check_nonnegative
from repro.exceptions import InvalidParameterError

__all__ = ["ConfidenceInterval", "normal_interval", "chebyshev_interval"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a nonnegative aggregate.

    Attributes
    ----------
    lower / upper:
        Interval end points (the lower end is clipped at zero because every
        estimated quantity in this library is nonnegative).
    confidence:
        Nominal coverage probability.
    method:
        ``"normal"`` or ``"chebyshev"``.
    """

    lower: float
    upper: float
    confidence: float
    method: str

    @property
    def width(self) -> float:
        """Width of the interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper


def _check_inputs(estimate: float, variance: float, confidence: float) -> None:
    check_nonnegative(variance, "variance")
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )


#: scipy's ``norm.ppf(0.95)`` bit for bit, the quantile of the served
#: ``ci90`` level (the stdlib ``NormalDist.inv_cdf`` is a few ulps off)
_Z90 = float.fromhex("0x1.a515209676abbp+0")


@functools.lru_cache(maxsize=32)
def _normal_quantile(confidence: float) -> float:
    """The two-sided normal quantile ``z`` of ``confidence``.

    The 0.90 level the server reports returns the constant ``_Z90``, so
    serving never imports SciPy, whose import dominates a server's boot
    time and memory.  Every other level calls ``scipy.stats.norm.ppf``,
    imported on first use and memoised because it costs tens of
    microseconds a call.  The value is scipy's bit for bit either way.
    """
    if confidence == 0.90:
        return _Z90
    from scipy import stats

    return float(stats.norm.ppf(0.5 + confidence / 2.0))


def normal_interval(
    estimate: float, variance: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """CLT-based interval ``estimate ± z * sqrt(variance)``."""
    _check_inputs(estimate, variance, confidence)
    margin = _normal_quantile(float(confidence)) * math.sqrt(variance)
    return ConfidenceInterval(
        lower=max(0.0, float(estimate) - margin),
        upper=float(estimate) + margin,
        confidence=confidence,
        method="normal",
    )


def chebyshev_interval(
    estimate: float, variance: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """Distribution-free interval ``estimate ± sqrt(variance / (1 - c))``."""
    _check_inputs(estimate, variance, confidence)
    margin = math.sqrt(variance / (1.0 - confidence))
    return ConfidenceInterval(
        lower=max(0.0, float(estimate) - margin),
        upper=float(estimate) + margin,
        confidence=confidence,
        method="chebyshev",
    )
