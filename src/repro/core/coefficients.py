"""Coefficients of the uniform-probability ``max^(L)`` estimator.

Theorem 4.1 of the paper shows that under weight-oblivious Poisson sampling
the ``max^(L)`` estimate is a linear combination of the sorted entries of the
determining vector, with coefficients that are rational expressions of the
inclusion probabilities.  For a *uniform* inclusion probability ``p`` the
prefix sums ``A_i`` of the coefficients obey the triangular recursion of
Theorem 4.2 (Algorithm 3 in the paper), which lets the whole coefficient
vector be computed in ``O(r^2)`` time:

.. math::

    A_r = \\frac{1}{1 - (1-p)^r}

    A_{r-k-1} = \\frac{A_{r-k} + \\sum_{\\ell=1}^{k} \\binom{k}{\\ell}
        \\left(\\frac{1-p}{p}\\right)^{\\ell}
        \\bigl(A_{r-k+\\ell} - (1 - (1-p)^{r-k-1}) A_{r-k+\\ell-1}\\bigr)}
        {1 - (1-p)^{r-k-1}}

with ``alpha_1 = A_1`` and ``alpha_h = A_h - A_{h-1}``.

The recursion is implemented once, vectorized over a whole *vector* of
probabilities (:func:`uniform_prefix_sums_grid`) — the ``ell`` correction
sum uses precomputed binomial rows instead of a Python loop — and the
scalar entry points delegate to it through a ``functools.lru_cache`` keyed
on ``(r, p)``: figure sweeps used to recompute the same ``O(r^2)`` table
at every grid point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro._validation import check_probability
from repro.exceptions import InvalidParameterError

__all__ = [
    "uniform_prefix_sums",
    "uniform_prefix_sums_grid",
    "uniform_max_l_coefficients",
    "uniform_max_l_coefficients_grid",
]


@lru_cache(maxsize=None)
def _binomial_row(k: int) -> np.ndarray:
    """``[C(k, 1), ..., C(k, k)]`` as a float64 row (cached per ``k``)."""
    return np.array([math.comb(k, ell) for ell in range(1, k + 1)],
                    dtype=np.float64)


def uniform_prefix_sums_grid(r: int, probabilities) -> np.ndarray:
    """Prefix-sum tables ``A_1, ..., A_r`` for a vector of probabilities.

    Parameters
    ----------
    r:
        Number of instances (entries of the data vector), ``r >= 1``.
    probabilities:
        Array of uniform inclusion probabilities, each in ``(0, 1]``.

    Returns
    -------
    numpy.ndarray
        ``(len(probabilities), r)`` array whose row ``g`` is the prefix-sum
        vector of ``probabilities[g]``.

    The recursion runs once over ``k`` with all grid points advancing in
    lock step; each element sees exactly the scalar sequence of operations,
    so rows agree with the scalar path bit for bit.
    """
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1:
        raise InvalidParameterError(
            f"probabilities must be a 1-D vector, got shape {p.shape}"
        )
    valid = (p > 0.0) & (p <= 1.0)  # NaN-safe: NaN compares False
    if not valid.all():
        offender = float(p[~valid][0])
        raise InvalidParameterError(
            f"probability must be in (0, 1], got {offender}"
        )
    q = 1.0 - p
    prefix = np.zeros((p.size, r + 1))  # 1-based columns: prefix[:, i] = A_i
    prefix[:, r] = 1.0 / (1.0 - q ** r)
    if r > 1:
        ratio = q / p
    for k in range(0, r - 1):
        denominator = 1.0 - q ** (r - k - 1)
        if k == 0:
            correction = 0.0
        else:
            ells = np.arange(1, k + 1)
            diffs = (
                prefix[:, r - k + ells]
                - denominator[:, None] * prefix[:, r - k + ells - 1]
            )
            correction = (
                _binomial_row(k) * ratio[:, None] ** ells * diffs
            ).sum(axis=1)
        prefix[:, r - k - 1] = (prefix[:, r - k] + correction) / denominator
    return prefix[:, 1:]


def uniform_max_l_coefficients_grid(r: int, probabilities) -> np.ndarray:
    """Coefficient tables ``alpha_1, ..., alpha_r`` per probability.

    Returns a ``(len(probabilities), r)`` array; row ``g`` holds the
    coefficients of ``probabilities[g]`` (``alpha_1 = A_1``,
    ``alpha_h = A_h - A_{h-1}``).
    """
    prefix = uniform_prefix_sums_grid(r, probabilities)
    alphas = np.empty_like(prefix)
    alphas[:, 0] = prefix[:, 0]
    alphas[:, 1:] = np.diff(prefix, axis=1)
    return alphas


@lru_cache(maxsize=4096)
def _uniform_prefix_sums_cached(r: int, p: float) -> tuple[float, ...]:
    return tuple(uniform_prefix_sums_grid(r, np.array([p]))[0].tolist())


def uniform_prefix_sums(r: int, p: float) -> np.ndarray:
    """Prefix sums ``A_1, ..., A_r`` of the ``max^(L)`` coefficients.

    Parameters
    ----------
    r:
        Number of instances (entries of the data vector), ``r >= 1``.
    p:
        Uniform inclusion probability in ``(0, 1]``.

    Returns
    -------
    numpy.ndarray
        Array ``A`` of length ``r`` with ``A[i-1] = A_i`` (a fresh copy;
        the underlying table is memoised on ``(r, p)``).
    """
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    p = check_probability(p)
    return np.array(_uniform_prefix_sums_cached(int(r), float(p)))


@lru_cache(maxsize=4096)
def _uniform_max_l_coefficients_cached(r: int, p: float) -> tuple[float, ...]:
    prefix = np.array(_uniform_prefix_sums_cached(r, p))
    alphas = np.empty(r)
    alphas[0] = prefix[0]
    alphas[1:] = np.diff(prefix)
    return tuple(alphas.tolist())


def uniform_max_l_coefficients(r: int, p: float) -> np.ndarray:
    """Coefficients ``alpha_1, ..., alpha_r`` of the uniform-p ``max^(L)``.

    The estimate for an outcome with sorted determining vector
    ``u_1 >= ... >= u_r`` is ``sum_i alpha_i u_i``.  Memoised on ``(r, p)``
    and returned as a fresh copy.
    """
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    p = check_probability(p)
    return np.array(_uniform_max_l_coefficients_cached(int(r), float(p)))

