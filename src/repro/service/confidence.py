"""Per-query estimate-quality reporting (``cv`` / ``ci90``).

The whole point of the paper's coordinated sketches is that their
estimators come with *analyzable variance*, so confidence is computable
at query time for free.  This module turns a query's sketches and its
point estimate into a quality payload:

========== ==========================================================
query       variance estimator
========== ==========================================================
distinct    exact variance at the plug-in estimate —
            :func:`~repro.aggregates.distinct.distinct_ht_variance`
            for the HT variant, :func:`~repro.aggregates.distinct.
            distinct_l_variance` with the plug-in Jaccard
            ``F11 / (p1 p2) / D`` for the L variant;
sum         the unbiased Horvitz-Thompson plug-in ``sum v^2 (1-p)/p^2``
            over the sampled keys (per-key estimates have zero
            covariance).  Bottom-k: ``p`` is the rank-conditioned
            inclusion probability, plus the paper's
            ``CV <= 1/sqrt(k-2)`` bound; Poisson: ``p`` is each key's
            inclusion probability
            (:func:`~repro.streaming.query.inclusion_probabilities`),
            summed over the column view in retention order.
========== ==========================================================

Dominance and L1 raise
:class:`~repro.exceptions.ConfidenceUnavailableError`: no variance
estimator applies, and refusing loudly beats reporting a made-up
interval (the same policy as the independence-assumption rejection in
:mod:`repro.streaming.query`).

The reported interval is a normal (CLT) interval, appropriate in the
many-sampled-keys regime the paper targets; ``cv`` is the estimated
coefficient of variation ``sqrt(Var) / estimate`` (omitted when the
estimate is zero).
"""

from __future__ import annotations

import math

import numpy as np

from repro.aggregates.distinct import (
    distinct_ht_variance,
    distinct_l_variance,
)
from repro.analysis.confidence import normal_interval
from repro.exceptions import ConfidenceUnavailableError
from repro.streaming.query import SketchColumns, inclusion_probabilities
from repro.streaming.sketch import StreamingBottomK

__all__ = ["CONFIDENCE_LEVEL", "query_confidence"]

#: the reported interval's nominal coverage (the ``ci90`` field)
CONFIDENCE_LEVEL = 0.90


def _refuse(reason: str) -> ConfidenceUnavailableError:
    return ConfidenceUnavailableError(
        f"no variance estimator applies: {reason}; drop the confidence "
        "request for this query"
    )


def _distinct_variance(sketches, query, value) -> float:
    p1 = sketches[0].threshold
    p2 = sketches[1].threshold
    estimate = float(value.estimate)
    if value.estimator == "HT":
        return distinct_ht_variance(estimate, p1, p2)
    if estimate <= 0.0:
        return 0.0
    # plug-in Jaccard: F11 keys are sampled in both instances with
    # probability p1 p2, so F11 / (p1 p2) estimates |N_1 ∩ N_2|
    intersection = value.counts["F11"] / (p1 * p2)
    jaccard = min(1.0, max(0.0, intersection / estimate))
    return distinct_l_variance(estimate, jaccard, p1, p2)


def _sum_confidence(sketches) -> tuple[float, dict]:
    """The plug-in variance ``sum v^2 (1 - p) / p^2`` of a one-instance
    sum (zero cross-covariance between per-key estimates), and the
    bottom-k ``cv_bound``."""
    (sketch,) = sketches
    if isinstance(sketch, StreamingBottomK):
        sample = sketch.to_sample()
        variance = 0.0
        for key, value in sample.entries.items():
            p = sample.conditional_inclusion_probability(key)
            variance += value * value * (1.0 - p) / (p * p)
        extra = {}
        if sample.k > 2:
            # the paper's bound on the coefficient of variation of
            # bottom-k subset-sum estimates
            extra["cv_bound"] = 1.0 / math.sqrt(sample.k - 2)
        return variance, extra
    view = SketchColumns.of(sketch)
    p = inclusion_probabilities(view)
    values = view.values
    terms = values * values * (1.0 - p) / (p * p)
    # sequential, in retention order: the per-key loop's sum
    return (float(np.cumsum(terms)[-1]) if terms.size else 0.0), {}


def query_confidence(sketches, query, value) -> dict:
    """The estimate-quality payload of one executed query.

    ``sketches`` are the per-instance sketches or column views the
    query ran on, ``value`` its computed result.  Returns a
    JSON-encodable dict with ``variance``, ``cv`` (``None`` when the
    estimate is zero) and a ``ci90`` normal interval; bottom-k sums
    additionally carry the paper's ``cv_bound``.  Raises
    :class:`~repro.exceptions.ConfidenceUnavailableError` for query
    shapes without an applicable variance estimator.
    """
    extra: dict = {}
    if query.kind == "distinct":
        estimate = float(value.estimate)
        variance = _distinct_variance(sketches, query, value)
    elif query.kind == "sum":
        estimate = float(value)
        variance, extra = _sum_confidence(sketches)
    else:
        raise _refuse(
            f"{query.kind!r} queries have no analyzable variance "
            "estimator"
        )
    interval = normal_interval(estimate, variance, CONFIDENCE_LEVEL)
    cv = math.sqrt(variance) / estimate if estimate > 0.0 else None
    return {
        "cv": cv,
        "variance": variance,
        "ci90": {
            "lower": interval.lower,
            "upper": interval.upper,
            "confidence": interval.confidence,
            "method": interval.method,
        },
        **extra,
    }
