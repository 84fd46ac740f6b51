"""Maximum estimators under weight-oblivious Poisson sampling (Section 4).

Three estimators of ``max(v)`` are provided, all unbiased and nonnegative:

:class:`MaxObliviousHT`
    The Horvitz-Thompson estimator (positive only when all entries are
    sampled) — the baseline the paper improves on.

:class:`MaxObliviousL`
    The order-based estimator ``max^(L)`` which prioritises *dense* data
    vectors (entries similar across instances).  Closed forms exist for
    ``r = 2`` with arbitrary probabilities (Eq. (12)) and for any ``r`` with
    a uniform probability (Theorem 4.2 / Algorithm 3).

:class:`MaxObliviousU` / :class:`MaxObliviousUAsymmetric`
    The partition-based estimators ``max^(U)`` / ``max^(Uas)`` which
    prioritise *sparse* vectors (many zero entries), derived in Section 4.2
    for ``r = 2``.

All dominate the HT estimator; ``L`` and ``U`` are Pareto optimal and
incomparable to each other (Figure 1).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._validation import check_probability_vector
from repro.batch.kernels import (
    max_l_r2_kernel,
    max_l_uniform_kernel,
    max_u_kernel,
    max_uas_kernel,
)
from repro.batch.outcome_batch import OutcomeBatch
from repro.core.coefficients import uniform_max_l_coefficients
from repro.core.estimator_base import VectorEstimator
from repro.core.functions import maximum
from repro.core.ht import HorvitzThompsonOblivious
from repro.exceptions import InvalidOutcomeError, UnsupportedConfigurationError
from repro.sampling.outcomes import VectorOutcome

__all__ = [
    "MaxObliviousHT",
    "MaxObliviousL",
    "MaxObliviousU",
    "MaxObliviousUAsymmetric",
]


class MaxObliviousHT(HorvitzThompsonOblivious):
    """HT estimator of ``max(v)`` for weight-oblivious Poisson sampling."""

    function_name = "max"

    def __init__(self, probabilities: Sequence[float]) -> None:
        super().__init__(probabilities, function=maximum, function_name="max")


class MaxObliviousL(VectorEstimator):
    """The ``max^(L)`` estimator (Section 4.1).

    The estimate is a linear combination of the sorted entries of the
    *determining vector* of the outcome: the vector that agrees with the
    outcome on sampled entries and has every unsampled entry set to the
    largest sampled value.

    Supported configurations (the ones the paper derives closed forms for):

    * ``r = 2`` with arbitrary inclusion probabilities;
    * any ``r`` with a uniform inclusion probability.

    Parameters
    ----------
    probabilities:
        Per-entry inclusion probabilities.
    """

    function_name = "max"
    variant = "L"
    is_monotone = True
    is_pareto_optimal = True

    def __init__(self, probabilities: Sequence[float]) -> None:
        self.probabilities = check_probability_vector(probabilities)
        self._uniform = len(set(self.probabilities)) == 1
        if not self._uniform and len(self.probabilities) != 2:
            raise UnsupportedConfigurationError(
                "max^(L) closed forms exist for r = 2 (any probabilities) "
                "or uniform probabilities (any r); "
                f"got r = {len(self.probabilities)} with non-uniform p"
            )
        if self._uniform:
            self._alphas = uniform_max_l_coefficients(
                len(self.probabilities), self.probabilities[0]
            )
        else:
            self._alphas = None

    @property
    def r(self) -> int:
        return len(self.probabilities)

    def coefficients(self) -> np.ndarray:
        """Coefficients ``alpha_i`` for the uniform-probability case."""
        if self._alphas is None:
            raise UnsupportedConfigurationError(
                "coefficients are only defined for uniform probabilities"
            )
        return np.array(self._alphas, copy=True)

    def determining_vector(self, outcome: VectorOutcome) -> tuple[float, ...]:
        """The determining vector ``phi(S)`` of an outcome.

        Unsampled entries are set to the largest sampled value (zero for the
        empty outcome).
        """
        if outcome.r != self.r:
            raise InvalidOutcomeError(
                f"outcome has {outcome.r} entries, estimator expects {self.r}"
            )
        top = outcome.max_sampled()
        return tuple(
            outcome.values[i] if i in outcome.sampled else top
            for i in range(self.r)
        )

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """``max^(L)``: Eq. (12) for ``r = 2``, the Theorem 4.2 coefficient
        tables for uniform ``p``."""
        self._check_batch(batch)
        if self._uniform:
            return max_l_uniform_kernel(
                batch.values, batch.sampled, self._alphas
            )
        return max_l_r2_kernel(
            batch.values, batch.sampled, *self.probabilities
        )


class MaxObliviousU(VectorEstimator):
    """The symmetric ``max^(U)`` estimator for ``r = 2`` (Section 4.2).

    Derived with Algorithm 2 using the ordered partition by the number of
    positive entries; it favours sparse data (vectors with zero entries) at
    the cost of higher variance on dense data.
    """

    function_name = "max"
    variant = "U"
    is_pareto_optimal = True
    is_monotone = False

    def __init__(self, probabilities: Sequence[float]) -> None:
        self.probabilities = check_probability_vector(probabilities)
        if len(self.probabilities) != 2:
            raise UnsupportedConfigurationError(
                "the paper derives max^(U) for two instances only"
            )

    @property
    def r(self) -> int:
        return 2

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """``max^(U)`` over the four inclusion patterns."""
        self._check_batch(batch)
        return max_u_kernel(batch.values, batch.sampled, *self.probabilities)


class MaxObliviousUAsymmetric(VectorEstimator):
    """The asymmetric ``max^(Uas)`` estimator for ``r = 2`` (Section 4.2).

    Obtained by processing vectors of the form ``(v1, 0)`` before ``(0, v2)``
    in Algorithm 1 with nonnegativity constraints.  Pareto optimal but not
    symmetric: it favours the first entry.
    """

    function_name = "max"
    variant = "Uas"
    is_pareto_optimal = True
    is_monotone = False

    def __init__(self, probabilities: Sequence[float]) -> None:
        self.probabilities = check_probability_vector(probabilities)
        if len(self.probabilities) != 2:
            raise UnsupportedConfigurationError(
                "the paper derives max^(Uas) for two instances only"
            )

    @property
    def r(self) -> int:
        return 2

    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """``max^(Uas)`` over the four inclusion patterns."""
        self._check_batch(batch)
        return max_uas_kernel(
            batch.values, batch.sampled, *self.probabilities
        )
