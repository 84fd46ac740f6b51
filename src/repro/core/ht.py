"""Horvitz-Thompson / inverse-probability estimators (Section 2.2).

The classic HT estimator applies to "all or nothing" outcomes: when the
estimated quantity can be recovered exactly from the outcome the estimate is
its value divided by the probability of such an outcome, and zero otherwise.
For multi-entry functions under weight-oblivious Poisson sampling the most
inclusive such set of outcomes is "every entry sampled", giving Eq. (10) of
the paper.  The broader formulation (an arbitrary set ``S*`` of outcomes on
which both ``f`` and ``P[S* | v]`` are determined) is captured by
:class:`InverseProbabilityEstimator`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro._validation import check_probability, check_probability_vector
from repro.batch.kernels import ht_oblivious_kernel
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.estimator_base import VectorEstimator
from repro.core.functions import BATCH_FUNCTIONS, maximum
from repro.exceptions import InvalidOutcomeError
from repro.sampling.outcomes import VectorOutcome

__all__ = [
    "ht_estimate",
    "ht_variance",
    "HorvitzThompsonOblivious",
    "InverseProbabilityEstimator",
]


def ht_estimate(value: float, probability: float, sampled: bool) -> float:
    """Single-quantity HT estimate: ``value / probability`` when sampled."""
    probability = check_probability(probability)
    return float(value) / probability if sampled else 0.0


def ht_variance(value: float, probability: float) -> float:
    """Variance of the single-quantity HT estimate, Eq. (1):
    ``f(v)^2 (1/p - 1)``."""
    probability = check_probability(probability)
    return float(value) ** 2 * (1.0 / probability - 1.0)


class HorvitzThompsonOblivious(VectorEstimator):
    """HT estimator of any ``f`` under weight-oblivious Poisson sampling.

    The estimate is ``f(v) / prod_i p_i`` when all entries are sampled and
    zero otherwise (Eq. (10)).  It is the optimal inverse-probability
    estimator for quantiles and the range, and Pareto optimal for the range
    and the minimum when ``r = 2`` — but, as the paper shows, not Pareto
    optimal for the maximum or OR.

    Parameters
    ----------
    probabilities:
        Per-entry inclusion probabilities.
    function:
        Callable applied to the full value vector; defaults to the maximum.
    function_name:
        Label used in reports.
    batch_function:
        Optional vectorized twin of ``function`` mapping an ``(n, r)``
        value matrix to the ``(n,)`` vector of per-row function values.
        When provided, :meth:`estimate_batch` is fully vectorized;
        otherwise the twin is looked up in :data:`~repro.core.functions.
        BATCH_FUNCTIONS` (all named primitives are registered there), and
        functions without a twin fall back to a row-by-row apply over the
        rows where every entry is sampled.
    """

    variant = "HT"
    is_monotone = True

    def __init__(
        self,
        probabilities: Sequence[float],
        function: Callable[[Sequence[float]], float] = maximum,
        function_name: str = "max",
        batch_function: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.probabilities = check_probability_vector(probabilities)
        self.function = function
        self.function_name = function_name
        if batch_function is None:
            batch_function = BATCH_FUNCTIONS.get(function)
        self.batch_function = batch_function
        self._all_sampled_probability = math.prod(self.probabilities)

    @property
    def r(self) -> int:
        return len(self.probabilities)

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """Eq. (10): ``f(v) / prod_i p_i`` on full rows."""
        self._check_batch(batch)
        full = batch.all_sampled()
        return ht_oblivious_kernel(
            self.f_values(batch.values, full),
            full,
            self._all_sampled_probability,
        )

    def f_values(self, values: np.ndarray, full: np.ndarray) -> np.ndarray:
        """``f`` of each full row of an ``(n, r)`` value matrix, 0 elsewhere.

        ``f`` is applied only to the full rows, so a validating function
        (e.g. the Boolean primitives) never sees an unsampled entry.
        """
        f_values = np.zeros(len(values), dtype=np.float64)
        if self.batch_function is not None:
            if np.any(full):
                f_values[full] = self.batch_function(values[full])
        else:
            for row in np.nonzero(full)[0]:
                f_values[row] = float(self.function(list(values[row])))
        return f_values

    def variance(self, values: Sequence[float]) -> float:
        """Exact variance for data ``values`` (Eq. (10))."""
        f_value = float(self.function(values))
        return f_value ** 2 * (1.0 / self._all_sampled_probability - 1.0)


class InverseProbabilityEstimator(VectorEstimator):
    """Generalised inverse-probability estimator over a set ``S*``.

    The caller supplies three callables acting on an outcome:

    ``in_s_star(outcome)``
        Membership test of ``S*`` — outcomes on which the estimate is
        positive.
    ``f_star(outcome)``
        The value of ``f`` (determined by the outcome) for outcomes in
        ``S*``.
    ``p_star(outcome)``
        The probability ``P[S* | v]``, computable from the outcome, for
        outcomes in ``S*``.

    The estimate is ``f_star / p_star`` on ``S*`` and zero elsewhere.
    """

    variant = "HT*"
    is_monotone = True

    def __init__(
        self,
        r: int,
        in_s_star: Callable[[VectorOutcome], bool],
        f_star: Callable[[VectorOutcome], float],
        p_star: Callable[[VectorOutcome], float],
        function_name: str = "",
    ) -> None:
        self._r = int(r)
        self.in_s_star = in_s_star
        self.f_star = f_star
        self.p_star = p_star
        self.function_name = function_name

    @property
    def r(self) -> int:
        return self._r

    def estimate(self, outcome: VectorOutcome) -> float:
        if outcome.r != self.r:
            raise InvalidOutcomeError(
                f"outcome has {outcome.r} entries, estimator expects {self.r}"
            )
        if not self.in_s_star(outcome):
            return 0.0
        probability = float(self.p_star(outcome))
        probability = check_probability(probability, "p_star(outcome)")
        return float(self.f_star(outcome)) / probability
