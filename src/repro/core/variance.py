"""Exact variance utilities and the paper's closed-form variance expressions.

Two complementary paths are offered:

* :func:`exact_moments` (from :mod:`repro.exact.engine`) enumerates the
  finite outcome space of a weight-oblivious scheme and computes the exact
  mean and variance of any estimator — used to validate unbiasedness and
  to generate the variance curves of Figures 1 and 2;
* the closed forms quoted in the paper (Eqs. (1), (10), (23), (24) and the
  Figure 1 expressions), used as analytic cross-checks and by the
  sample-size planner of Figure 6.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro._validation import check_probability, check_probability_vector
from repro.core.estimator_base import VectorEstimator
from repro.core.or_estimators import OrObliviousU
from repro.exact.engine import exact_moments
from repro.sampling.dispersed import ObliviousPoissonScheme

__all__ = [
    "exact_moments",
    "exact_variance",
    "ht_max_oblivious_variance",
    "or_ht_variance",
    "or_l_variance",
    "or_u_variance",
    "figure1_max_l_variance",
    "figure1_max_u_variance",
    "figure1_max_ht_variance",
]


def exact_variance(
    estimator: VectorEstimator,
    scheme: ObliviousPoissonScheme,
    values: Sequence[float],
) -> float:
    """Exact variance of ``estimator`` on data ``values``."""
    return exact_moments(estimator, scheme, values)[1]


def ht_max_oblivious_variance(
    values: Sequence[float], probabilities: Sequence[float]
) -> float:
    """Variance of the oblivious HT max estimator, Eq. (10)."""
    probabilities = check_probability_vector(probabilities)
    f_value = float(max(values))
    return f_value ** 2 * (1.0 / math.prod(probabilities) - 1.0)


def or_ht_variance(probabilities: Sequence[float]) -> float:
    """Variance of ``OR^(HT)`` on any data with ``OR(v) = 1``, Eq. (23)."""
    probabilities = check_probability_vector(probabilities)
    return 1.0 / math.prod(probabilities) - 1.0


def or_l_variance(p1: float, p2: float, data: tuple[int, int]) -> float:
    """Variance of ``OR^(L)`` (r = 2) on binary data ``(1, 1)`` / ``(1, 0)``.

    Eq. (24) for ``(1, 1)`` and the displayed expression for ``(1, 0)``;
    ``(0, 1)`` follows by symmetry (swap the probabilities).
    """
    p1 = check_probability(p1, "p1")
    p2 = check_probability(p2, "p2")
    union = p1 + p2 - p1 * p2
    data = (int(data[0]), int(data[1]))
    if data == (0, 0):
        return 0.0
    if data == (1, 1):
        return 1.0 / union - 1.0
    if data == (0, 1):
        p1, p2 = p2, p1
        data = (1, 0)
    if data != (1, 0):
        raise ValueError(f"data must be binary, got {data!r}")
    return (
        (1.0 - p1)
        + p1 * (1.0 - p2) * (1.0 / union - 1.0) ** 2
        + p1 * p2 * (1.0 / (p1 * union) - 1.0) ** 2
    )


def or_u_variance(p1: float, p2: float, data: tuple[int, int]) -> float:
    """Variance of ``OR^(U)`` (r = 2) on binary data, by exact enumeration
    of the four outcomes."""
    p1 = check_probability(p1, "p1")
    p2 = check_probability(p2, "p2")
    probabilities = (p1, p2)
    return exact_moments(
        OrObliviousU(probabilities),
        ObliviousPoissonScheme(probabilities),
        (float(data[0]), float(data[1])),
    )[1]


def figure1_max_ht_variance(v1: float, v2: float) -> float:
    """Figure 1 closed form: ``Var[max^(HT)] = 3 max^2`` at ``p = 1/2``."""
    return 3.0 * max(v1, v2) ** 2


def figure1_max_l_variance(v1: float, v2: float) -> float:
    """Figure 1 closed form for ``Var[max^(L)]`` at ``p = 1/2``:
    ``11/9 max^2 + 8/9 min^2 - 16/9 max*min``."""
    high, low = max(v1, v2), min(v1, v2)
    return (11.0 / 9.0) * high ** 2 + (8.0 / 9.0) * low ** 2 - (
        16.0 / 9.0
    ) * high * low


def figure1_max_u_variance(v1: float, v2: float) -> float:
    """Variance of ``max^(U)`` at ``p = 1/2``, derived from the Figure 1
    estimate table: ``max^2 + 2 min^2 - 2 max*min``.

    Note: the paper prints ``3/4 max^2 + 2 min^2 - 2 max*min``, which is
    inconsistent with its own estimate table (and below the
    ``max^2 (1/p - 1)`` lower bound that any nonnegative unbiased estimator
    must obey on data with ``min = 0``).  This reproduction uses the value
    implied by the estimator itself; see EXPERIMENTS.md.
    """
    high, low = max(v1, v2), min(v1, v2)
    return high ** 2 + 2.0 * low ** 2 - 2.0 * high * low
