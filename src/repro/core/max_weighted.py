"""Maximum estimators for Poisson PPS sampling with known seeds (Section 5.2).

Entry ``i`` with value ``v_i`` is sampled iff ``v_i >= u_i * tau_star_i``
where ``u_i`` is a uniform seed known to the estimator.  An unsampled entry
therefore reveals the upper bound ``v_i < u_i * tau_star_i``, which is the
partial information exploited by ``max^(L)``.

:class:`MaxPpsHT`
    The optimal inverse-probability estimator of [Cohen-Kaplan-Sen 2009]:
    positive only on outcomes where the upper bounds of all unsampled
    entries are below the largest sampled value (so ``max(v)`` is known).

:class:`MaxPpsL`
    The order-based optimal estimator derived in the paper for ``r = 2``
    (Figure 3 and Appendix A), which dominates :class:`MaxPpsHT` — the
    variance ratio is at least ``(1 + rho) / rho`` with
    ``rho = max(v) / tau_star``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._validation import check_positive_vector
from repro.batch.kernels import (
    pps_determining_vector,
    pps_max_ht_kernel,
    pps_max_r2_kernel,
)
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.estimator_base import VectorEstimator
from repro.exceptions import InvalidOutcomeError, UnsupportedConfigurationError
from repro.sampling.outcomes import VectorOutcome

__all__ = ["MaxPpsHT", "MaxPpsL"]

_SEEDS_REQUIRED = "PPS max estimators require known seeds in the outcome"
#: Inclusion patterns scored per kernel call in ``MaxPpsL.moments_many``;
#: a one-sampled pattern has up to ~2.5k knots at the default grid size,
#: so one call stays under ~100k rows.
_PATTERNS_PER_CALL = 32


def _check_seeded(estimator: VectorEstimator, batch: OutcomeBatch) -> None:
    estimator._check_batch(batch)
    if batch.seeds is None:
        raise InvalidOutcomeError(_SEEDS_REQUIRED)


def _pps_r2(
    tau_star: tuple[float, float], values, sampled, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Both ``r = 2`` estimate columns ``(ht, l)`` of seeded outcomes."""
    phi1, phi2, known = pps_determining_vector(values, sampled, seeds, *tau_star)
    return pps_max_r2_kernel(phi1, phi2, known, *tau_star)


def _seed_knots(q_unsampled: float, grid_size: int) -> np.ndarray:
    """Integration knots on ``(q, 1]`` for the seed of an unsampled entry.

    The estimate diverges only logarithmically as the seed approaches
    zero.  A geometric grid near the lower end point followed by a uniform
    grid captures the log-shaped integrand accurately while avoiding the
    singular end point itself.
    """
    lower = max(q_unsampled, 1e-12)
    knee = min(max(lower * 10.0, 0.02), 1.0)
    if knee > lower:
        log_part = np.geomspace(lower, knee, max(grid_size // 4, 64))
        linear_part = np.linspace(knee, 1.0, grid_size)
        return np.unique(np.concatenate([log_part, linear_part]))
    return np.linspace(lower, 1.0, grid_size)


class MaxPpsHT(VectorEstimator):
    """Inverse-probability max estimator for PPS samples with known seeds.

    The outcome is in ``S*`` when ``max_{i not in S} u_i tau_star_i <=
    max_{i in S} v_i``; the estimate is then
    ``M / prod_i min(1, M / tau_star_i)`` with ``M`` the largest sampled
    value, and zero otherwise.
    """

    function_name = "max"
    variant = "HT"
    is_monotone = True

    def __init__(self, tau_star: Sequence[float]) -> None:
        self.tau_star = check_positive_vector(tau_star, "tau_star")

    @property
    def r(self) -> int:
        return len(self.tau_star)

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """Inverse-probability PPS max estimate per outcome."""
        _check_seeded(self, batch)
        if self.r == 2:
            return _pps_r2(
                self.tau_star, batch.values, batch.sampled, batch.seeds
            )[0]
        return pps_max_ht_kernel(
            batch.values,
            batch.sampled,
            batch.seeds,
            np.asarray(self.tau_star),
        )

    def variance(self, values: Sequence[float]) -> float:
        """Exact variance for data ``values``."""
        return float(self.variance_many([values])[0])

    def variance_many(self, values_matrix) -> np.ndarray:
        """Exact variances for a ``(n, r)`` matrix of data vectors.

        The inclusion probability is accumulated threshold by threshold,
        and the largest value is squared with an exact multiply.
        """
        values_matrix = np.asarray(values_matrix, dtype=np.float64)
        if values_matrix.ndim != 2 or values_matrix.shape[1] != self.r:
            raise InvalidOutcomeError(
                f"values matrix must have shape (n, {self.r}), "
                f"got {values_matrix.shape}"
            )
        top = values_matrix.max(axis=1)
        positive = top > 0.0
        safe_top = np.where(positive, top, 1.0)
        probability = np.ones(len(values_matrix), dtype=np.float64)
        for tau in self.tau_star:
            probability *= np.minimum(1.0, safe_top / tau)
        return np.where(
            positive, safe_top * safe_top * (1.0 / probability - 1.0), 0.0
        )


class MaxPpsL(VectorEstimator):
    """The ``max^(L)`` estimator for two PPS samples with known seeds.

    The estimate is a function of the *determining vector* ``phi(S)``: the
    smallest (in the paper's order) data vector consistent with the outcome.
    For ``r = 2`` (Figure 3):

    * ``S = {}``      -> ``phi = (0, 0)``;
    * ``S = {0}``     -> ``phi = (v_1, min(u_2 tau_2, v_1))``;
    * ``S = {1}``     -> ``phi = (min(u_1 tau_1, v_2), v_2)``;
    * ``S = {0, 1}``  -> ``phi = (v_1, v_2)``.

    and the closed forms of the bottom table of Figure 3 (equations (25),
    (26), (29) and (30) of the paper) give the estimate as a function of the
    determining vector.  :func:`repro.batch.kernels.pps_determining_vector`
    implements the first step and the fused ``r = 2`` kernel
    :func:`repro.batch.kernels.pps_max_r2_kernel` the second, together
    with the ``r = 2`` :class:`MaxPpsHT` estimate: both estimators, and
    the streaming pair query, score through that one kernel.

    Eq. (30) (``b <= tau_b <= a <= tau_a``, with ``a >= b`` the sorted
    determining vector and ``tau_a``/``tau_b`` the thresholds of the
    entries holding them) is misprinted in the paper: its log argument
    reads ``((tau_a + tau_b - b) tau_a) / (tau_b (tau_a + tau_b - a))``.
    Re-deriving the appendix integral (footnote 2 with lower limit
    ``v - tau_2``) gives ``((tau_a + tau_b - b) tau_b) / (b tau_a)``, the
    unique choice that keeps the estimator continuous across the case
    boundaries and unbiased; the kernel uses it.
    """

    function_name = "max"
    variant = "L"
    is_monotone = True
    is_pareto_optimal = True

    def __init__(self, tau_star: Sequence[float]) -> None:
        self.tau_star = check_positive_vector(tau_star, "tau_star")
        if len(self.tau_star) != 2:
            raise UnsupportedConfigurationError(
                "the paper derives the PPS known-seed max^(L) for r = 2 only"
            )

    @property
    def r(self) -> int:
        return 2

    def determining_vector(self, outcome: VectorOutcome) -> tuple[float, float]:
        """The determining vector ``phi(S)`` of a known-seed PPS outcome."""
        if outcome.r != 2:
            raise InvalidOutcomeError(
                f"outcome has {outcome.r} entries, estimator expects 2"
            )
        if outcome.seeds is None:
            raise InvalidOutcomeError(_SEEDS_REQUIRED)
        tau1, tau2 = self.tau_star
        if outcome.is_empty:
            return (0.0, 0.0)
        if outcome.sampled == frozenset({0, 1}):
            return (outcome.values[0], outcome.values[1])
        if outcome.sampled == frozenset({0}):
            v1 = outcome.values[0]
            return (v1, min(outcome.seeds[1] * tau2, v1))
        v2 = outcome.values[1]
        return (min(outcome.seeds[0] * tau1, v2), v2)

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """Figure 3 closed forms per outcome."""
        _check_seeded(self, batch)
        return _pps_r2(
            self.tau_star, batch.values, batch.sampled, batch.seeds
        )[1]

    def estimate_from_determining(self, phi1: float, phi2: float) -> float:
        """Estimate as a function of the determining vector (Figure 3).

        The determining vector of a fully sampled outcome is its value
        vector, so this scores the outcome ``S = {0, 1}`` with ``v = phi``.
        """
        return float(
            pps_max_r2_kernel(
                np.array([phi1], dtype=np.float64),
                np.array([phi2], dtype=np.float64),
                np.ones(1, dtype=bool),
                *self.tau_star,
            )[1][0]
        )

    # ------------------------------------------------------------------
    # Exact moments via one-dimensional numerical integration.
    # ------------------------------------------------------------------
    def moments(
        self, values: Sequence[float], grid_size: int = 2001
    ) -> tuple[float, float]:
        """Exact mean and variance of the estimator for data ``values``."""
        means, variances = self.moments_many([values], grid_size=grid_size)
        return float(means[0]), float(variances[0])

    def variance(self, values: Sequence[float], grid_size: int = 2001) -> float:
        """Exact variance of the estimator for data ``values``."""
        return self.moments(values, grid_size=grid_size)[1]

    def moments_many(
        self, values_matrix, grid_size: int = 2001
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact moments for a ``(n, 2)`` matrix of data vectors.

        The expectation over outcomes decomposes into the four inclusion
        patterns.  A pattern with exactly one sampled entry needs an
        integral over the seed of the unsampled entry, uniform on
        ``(q, 1]`` given that the entry is not sampled, evaluated with the
        trapezoidal rule on about ``grid_size`` knots.  Each *distinct*
        vector is integrated once — duplicate rows (ubiquitous in
        integer-valued workloads such as flow counts) share the result —
        and one kernel call scores the both-sampled outcome and every knot
        of up to ``_PATTERNS_PER_CALL`` patterns.
        """
        values_matrix = np.asarray(values_matrix, dtype=np.float64)
        if values_matrix.ndim != 2 or values_matrix.shape[1] != 2:
            raise InvalidOutcomeError(
                "values matrix must have shape (n, 2), "
                f"got {values_matrix.shape}"
            )
        if np.any(values_matrix < 0.0):
            raise InvalidOutcomeError("values must be nonnegative")
        unique_rows, inverse = np.unique(
            values_matrix, axis=0, return_inverse=True
        )
        tau1, tau2 = self.tau_star
        # (row, probability, sampled mask, q of the unsampled entry)
        patterns: list[tuple[int, float, tuple[bool, bool], float | None]] = []
        for row, (v1, v2) in enumerate(unique_rows.tolist()):
            q1 = min(1.0, v1 / tau1)
            q2 = min(1.0, v2 / tau2)
            if q1 > 0.0 and q2 > 0.0:
                patterns.append((row, q1 * q2, (True, True), None))
            if q1 > 0.0 and q2 < 1.0:
                patterns.append((row, q1 * (1.0 - q2), (True, False), q2))
            if q2 > 0.0 and q1 < 1.0:
                patterns.append((row, q2 * (1.0 - q1), (False, True), q1))

        means = np.zeros(len(unique_rows))
        seconds = np.zeros(len(unique_rows))
        for start in range(0, len(patterns), _PATTERNS_PER_CALL):
            chunk = patterns[start:start + _PATTERNS_PER_CALL]
            knots = [
                np.zeros(1) if q is None else _seed_knots(q, grid_size)
                for _, _, _, q in chunk
            ]
            sizes = [len(points) for points in knots]
            rows = [row for row, _, _, _ in chunk]
            masks = [mask for _, _, mask, _ in chunk]
            seed_column = np.concatenate(knots)
            # The kernel reads the seed of unsampled entries only.
            estimates = _pps_r2(
                self.tau_star,
                np.repeat(unique_rows[rows], sizes, axis=0),
                np.repeat(masks, sizes, axis=0),
                np.column_stack([seed_column, seed_column]),
            )[1]
            pieces = np.split(estimates, np.cumsum(sizes)[:-1])
            for (row, probability, _, q), points, piece in zip(
                chunk, knots, pieces
            ):
                if q is None:
                    piece_mean = float(piece[0])
                    piece_second = piece_mean ** 2
                else:
                    width = 1.0 - q
                    piece_mean = float(np.trapezoid(piece, points) / width)
                    piece_second = float(
                        np.trapezoid(piece ** 2, points) / width
                    )
                means[row] += probability * piece_mean
                seconds[row] += probability * piece_second
        variances = np.maximum(seconds - means ** 2, 0.0)
        return means[inverse], variances[inverse]

    def variance_many(
        self, values_matrix, grid_size: int = 2001
    ) -> np.ndarray:
        """Exact variances for a ``(n, 2)`` matrix of data vectors."""
        return self.moments_many(values_matrix, grid_size=grid_size)[1]
