"""Exact-enumeration engine.

Enumerates the ``2^r`` outcome space of a weight-oblivious Poisson scheme
once as a columnar :class:`~repro.batch.OutcomeBatch` and computes exact
estimator moments as probability-weighted column reductions — the path
behind :func:`repro.core.variance.exact_moments` and the paper's variance
figures.  ``tests/exact/test_exact_parity.py`` pins it to moments frozen
from the per-outcome enumeration it replaced.

* :func:`enumerate_outcome_batch` — the outcome space + probability vector;
* :func:`exact_moments` — exact mean and variance on one data vector;
* :func:`exact_moments_value_grid` — one estimator, a grid of data vectors
  (Figure 1);
* :func:`exact_moments_grid` — an estimator family over a probability grid
  (Figure 2), via per-row-parameter grid kernels with a per-point fallback.
"""

from repro.exact.engine import accumulate_moments, exact_moments
from repro.exact.enumeration import (
    enumerate_outcome_batch,
    enumeration_masks,
    outcome_probabilities,
)
from repro.exact.grid import exact_moments_grid, exact_moments_value_grid

__all__ = [
    "accumulate_moments",
    "enumerate_outcome_batch",
    "enumeration_masks",
    "outcome_probabilities",
    "exact_moments",
    "exact_moments_grid",
    "exact_moments_value_grid",
]
