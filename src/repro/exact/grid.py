"""Grid sweeps of exact moments — whole figure curves in a few kernel calls.

Two sweep axes cover the paper's variance figures:

:func:`exact_moments_value_grid`
    Fixed estimator and scheme, many data vectors (Figure 1 sweeps
    ``min(v)/max(v)``).  The ``2^r`` enumeration is tiled across the grid
    and scored with a single ``estimate_batch`` call.

:func:`exact_moments_grid`
    Fixed data vector, a grid of inclusion probabilities (Figure 2 sweeps
    ``p``).  Each grid point has its own estimator parameters, so the
    stacked batch is scored by a *grid kernel* — a variant of the
    :mod:`repro.batch.kernels` closed forms taking per-row probability
    columns.  Estimator families without a registered grid kernel fall
    back to one :func:`~repro.exact.engine.exact_moments` call per grid
    point, so the sweep works for any estimator and the kernels are a pure
    fast path.

A grid kernel calls the same :mod:`repro.batch.kernels` closed form as
the estimator's ``estimate_batch``, with per-row parameter columns in
place of scalars, and both sweeps reduce through
:func:`~repro.exact.engine.accumulate_moments`; every grid point
therefore equals :func:`~repro.exact.engine.exact_moments` on that point
bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.batch.kernels import (
    check_binary_columns,
    ht_oblivious_kernel,
    max_l_r2_kernel,
    max_l_uniform_kernel,
    max_u_kernel,
    max_uas_kernel,
)
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.coefficients import uniform_max_l_coefficients_grid
from repro.core.estimator_base import VectorEstimator
from repro.core.ht import HorvitzThompsonOblivious
from repro.core.max_oblivious import (
    MaxObliviousL,
    MaxObliviousU,
    MaxObliviousUAsymmetric,
)
from repro.core.or_estimators import OrObliviousL, OrObliviousU
from repro.exact.engine import accumulate_moments, exact_moments
from repro.exact.enumeration import enumeration_masks, outcome_probabilities
from repro.exceptions import InvalidParameterError
from repro.sampling.dispersed import ObliviousPoissonScheme

__all__ = ["exact_moments_grid", "exact_moments_value_grid"]


def exact_moments_value_grid(
    estimator: VectorEstimator,
    scheme,
    values_grid,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact moments of one estimator across a grid of data vectors.

    ``values_grid`` is ``(n_grid, r)``; returns ``(means, variances)`` of
    shape ``(n_grid,)``, equal bit for bit to calling
    :func:`~repro.exact.engine.exact_moments` per row.
    """
    probabilities = np.asarray(scheme.probabilities, dtype=np.float64)
    r = len(probabilities)
    values_grid = np.asarray(values_grid, dtype=np.float64)
    if values_grid.ndim != 2 or values_grid.shape[1] != r:
        raise InvalidParameterError(
            f"values grid must have shape (n_grid, {r}), "
            f"got {values_grid.shape}"
        )
    masks = enumeration_masks(r)
    n_grid, n_outcomes = values_grid.shape[0], masks.shape[0]
    sampled = np.tile(masks, (n_grid, 1))
    values = np.repeat(values_grid, n_outcomes, axis=0)
    batch = OutcomeBatch(values=values, sampled=sampled)
    estimates = estimator.estimate_batch(batch)
    outcome_probs = outcome_probabilities(masks, probabilities)
    return accumulate_moments(
        np.broadcast_to(outcome_probs, (n_grid, n_outcomes)),
        estimates.reshape(n_grid, n_outcomes),
    )


def exact_moments_grid(
    estimator_factory: Callable[[tuple[float, ...]], VectorEstimator],
    probability_grid,
    values: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact moments of an estimator family across a probability grid.

    Parameters
    ----------
    estimator_factory:
        Callable mapping a probability vector (one grid point) to the
        estimator instance, e.g. ``lambda p: OrObliviousL(p)``.
    probability_grid:
        ``(n_grid,)`` uniform probabilities (replicated across the ``r``
        entries) or ``(n_grid, r)`` per-entry probabilities.
    values:
        The fixed data vector, length ``r``.

    Returns
    -------
    ``(means, variances)`` of shape ``(n_grid,)``, equal bit for bit to
    constructing the estimator and scheme per grid point and calling
    :func:`~repro.exact.engine.exact_moments`.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise InvalidParameterError(
            f"values must be a vector, got shape {values.shape}"
        )
    r = values.shape[0]
    grid = np.asarray(probability_grid, dtype=np.float64)
    if grid.ndim == 1:
        grid = np.repeat(grid[:, None], r, axis=1)
    if grid.ndim != 2 or grid.shape[1] != r:
        raise InvalidParameterError(
            f"probability grid must have shape (n_grid,) or (n_grid, {r}), "
            f"got {np.asarray(probability_grid).shape}"
        )
    valid = (grid > 0.0) & (grid <= 1.0)  # NaN-safe: NaN compares False
    if not valid.all():
        offender = float(grid[~valid][0])
        raise InvalidParameterError(
            f"probability must be in (0, 1], got {offender}"
        )
    n_grid = grid.shape[0]
    if n_grid == 0:
        return np.zeros(0), np.zeros(0)

    representative = estimator_factory(tuple(grid[0]))
    kernel = _resolve_grid_kernel(representative)
    if kernel is None:
        return _per_point_sweep(estimator_factory, grid, values)

    masks = enumeration_masks(r)
    n_outcomes = masks.shape[0]
    sampled = np.tile(masks, (n_grid, 1))
    batch = OutcomeBatch(
        values=np.broadcast_to(values, sampled.shape), sampled=sampled
    )
    row_probabilities = np.repeat(grid, n_outcomes, axis=0)
    try:
        estimates = kernel(
            representative, batch.values, batch.sampled, row_probabilities
        )
    except _NoGridKernel:
        return _per_point_sweep(estimator_factory, grid, values)
    outcome_probs = outcome_probabilities(sampled, row_probabilities)
    return accumulate_moments(
        outcome_probs.reshape(n_grid, n_outcomes),
        estimates.reshape(n_grid, n_outcomes),
    )


def _per_point_sweep(
    estimator_factory, grid: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fallback: one enumeration per grid point."""
    means = np.empty(grid.shape[0])
    variances = np.empty(grid.shape[0])
    for index in range(grid.shape[0]):
        probabilities = tuple(grid[index])
        means[index], variances[index] = exact_moments(
            estimator_factory(probabilities),
            ObliviousPoissonScheme(probabilities),
            values,
        )
    return means, variances


# ----------------------------------------------------------------------
# Grid kernels: per-row probability columns instead of fixed parameters.
# ----------------------------------------------------------------------
class _NoGridKernel(Exception):
    """Raised by a grid kernel that cannot handle this configuration."""


def _row_product(columns: np.ndarray) -> np.ndarray:
    """Row-wise product accumulated in column order (``math.prod`` twin)."""
    result = np.ones(columns.shape[0], dtype=np.float64)
    for i in range(columns.shape[1]):
        result *= columns[:, i]
    return result


def _uniform_rows(probabilities: np.ndarray) -> np.ndarray:
    return np.all(probabilities == probabilities[:, :1], axis=1)


def _uniform_alphas(r: int, p_column: np.ndarray) -> np.ndarray:
    """Theorem 4.2 coefficients with one row per outcome row.

    The column repeats each grid point ``2^r`` times (outcome tiling), so
    the ``O(r^2)`` recursion runs once per distinct probability and the
    rows are gathered back.
    """
    distinct, inverse = np.unique(p_column, return_inverse=True)
    return uniform_max_l_coefficients_grid(r, distinct)[inverse]


def _max_l_grid(estimator, values, sampled, probabilities):
    r = values.shape[1]
    uniform = _uniform_rows(probabilities)
    if uniform.all():
        return max_l_uniform_kernel(
            values, sampled, _uniform_alphas(r, probabilities[:, 0])
        )
    if r != 2:
        raise _NoGridKernel  # non-uniform closed forms exist for r = 2 only
    estimates = max_l_r2_kernel(
        values, sampled, probabilities[:, 0], probabilities[:, 1]
    )
    if uniform.any():
        rows = np.nonzero(uniform)[0]
        estimates[rows] = max_l_uniform_kernel(
            values[rows],
            sampled[rows],
            _uniform_alphas(r, probabilities[rows, 0]),
        )
    return estimates


def _max_u_grid(estimator, values, sampled, probabilities):
    return max_u_kernel(
        values, sampled, probabilities[:, 0], probabilities[:, 1]
    )


def _max_uas_grid(estimator, values, sampled, probabilities):
    return max_uas_kernel(
        values, sampled, probabilities[:, 0], probabilities[:, 1]
    )


def _ht_grid(estimator, values, sampled, probabilities):
    full = sampled.all(axis=1)
    return ht_oblivious_kernel(
        estimator.f_values(values, full), full, _row_product(probabilities)
    )


def _or_l_grid(estimator, values, sampled, probabilities):
    check_binary_columns(values, sampled)
    return _max_l_grid(estimator, values, sampled, probabilities)


def _or_u_grid(estimator, values, sampled, probabilities):
    check_binary_columns(values, sampled)
    return _max_u_grid(estimator, values, sampled, probabilities)


#: Estimator class -> grid kernel; resolved along the MRO, so subclasses of
#: :class:`HorvitzThompsonOblivious` (``max^(HT)``, ``OR^(HT)``) inherit
#: the HT kernel automatically.
_GRID_KERNELS: dict[type, Callable] = {
    MaxObliviousL: _max_l_grid,
    MaxObliviousU: _max_u_grid,
    MaxObliviousUAsymmetric: _max_uas_grid,
    OrObliviousL: _or_l_grid,
    OrObliviousU: _or_u_grid,
    HorvitzThompsonOblivious: _ht_grid,
}


def _resolve_grid_kernel(estimator: VectorEstimator):
    for cls in type(estimator).__mro__:
        if cls in _GRID_KERNELS:
            return _GRID_KERNELS[cls]
    return None
