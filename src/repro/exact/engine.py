"""Exact moments over an enumerated outcome space.

The outcome space of a weight-oblivious scheme is enumerated once as an
:class:`~repro.batch.OutcomeBatch` (:mod:`repro.exact.enumeration`), every
outcome is scored in one ``estimate_batch`` call, and the probability-
weighted mean and second moment are accumulated outcome column by outcome
column in enumeration order.  :func:`accumulate_moments` is the only
moment accumulation in the package: :func:`exact_moments` and the grid
sweeps of :mod:`repro.exact.grid` all reduce through it, so a grid point
and a single :func:`exact_moments` call agree bit for bit.

Zero-probability outcomes (entries with ``p_i = 1`` left unsampled) are
masked out of the accumulation.  Variances are clamped at ``0.0``:
``second_moment - mean**2`` suffers catastrophic cancellation for
``p -> 1`` and can come out a tiny negative.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.estimator_base import VectorEstimator
from repro.exact.enumeration import enumerate_outcome_batch

__all__ = ["accumulate_moments", "exact_moments"]


def accumulate_moments(
    probabilities: np.ndarray, estimates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probability-weighted mean and variance per row.

    ``probabilities`` and ``estimates`` are ``(n, m)`` matrices: ``n``
    independent outcome spaces (grid points) of ``m`` outcomes each.
    Accumulation runs column by column (``mean += probability *
    estimate``, the square as an exactly rounded ``estimate * estimate``).
    Zero-probability columns are masked out, which also protects against
    ``0 * inf`` from estimates of impossible outcomes.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    if probabilities.shape != estimates.shape or probabilities.ndim != 2:
        raise ValueError(
            f"probabilities {probabilities.shape} and estimates "
            f"{estimates.shape} must be matching (n, m) matrices"
        )
    n, m = probabilities.shape
    mean = np.zeros(n, dtype=np.float64)
    second = np.zeros(n, dtype=np.float64)
    for j in range(m):
        weight = probabilities[:, j]
        value = np.where(weight > 0.0, estimates[:, j], 0.0)
        mean += weight * value
        second += weight * (value * value)
    return mean, np.maximum(second - mean * mean, 0.0)


def exact_moments(
    estimator: VectorEstimator,
    scheme,
    values: Sequence[float],
) -> tuple[float, float]:
    """Exact mean and variance of ``estimator`` on data ``values``.

    Conditioned on a data vector, the weight-oblivious Poisson ``scheme``
    has ``2^r`` outcomes; they are enumerated as one batch and scored with
    ``estimator.estimate_batch``.  Returns ``(mean, variance)``.
    """
    batch, probabilities = enumerate_outcome_batch(scheme, values)
    estimates = estimator.estimate_batch(batch)
    mean, variance = accumulate_moments(
        probabilities[None, :], estimates[None, :]
    )
    return float(mean[0]), float(variance[0])
