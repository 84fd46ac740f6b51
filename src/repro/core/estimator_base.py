"""Common interface for single-vector estimators.

Every concrete estimator in :mod:`repro.core` consumes a
:class:`repro.sampling.outcomes.VectorOutcome` and returns a nonnegative
estimate of its target function.  The interface also exposes the properties
the paper cares about (unbiasedness, nonnegativity, monotonicity, Pareto
optimality) as metadata so comparison harnesses can report them.

An estimator defines exactly one of its two estimate methods:

* closed-form estimators define :meth:`VectorEstimator.estimate_batch`
  over a kernel of :mod:`repro.batch.kernels` — the only place their
  formula is written — and :meth:`VectorEstimator.estimate` scores one
  outcome as a one-row batch;
* estimators defined per outcome (lookup tables, caller-supplied
  callables) define :meth:`VectorEstimator.estimate`, and
  :meth:`VectorEstimator.estimate_batch` loops over the rows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable

import numpy as np

from repro.batch.outcome_batch import OutcomeBatch
from repro.exceptions import InvalidOutcomeError
from repro.sampling.outcomes import VectorOutcome

__all__ = ["VectorEstimator"]


def _estimate_one_row(self, outcome: VectorOutcome) -> float:
    """``estimate`` of a batch-defined estimator: a one-row batch call."""
    return float(self.estimate_batch(OutcomeBatch.from_outcomes([outcome]))[0])


def _estimate_each_row(self, batch: OutcomeBatch) -> np.ndarray:
    """``estimate_batch`` of an outcome-defined estimator: a row loop."""
    return np.fromiter(
        (self.estimate(outcome) for outcome in batch.iter_outcomes()),
        dtype=np.float64,
        count=len(batch),
    )


class VectorEstimator(ABC):
    """Base class for estimators of a function of a dispersed value vector."""

    #: name of the estimated function ("max", "or", ...)
    function_name: str = ""
    #: short identifier of the estimator variant ("HT", "L", "U", ...)
    variant: str = ""
    #: whether the estimator is unbiased for every data vector
    is_unbiased: bool = True
    #: whether the estimator is nonnegative on every outcome
    is_nonnegative: bool = True
    #: whether the estimator is monotone (nondecreasing with information)
    is_monotone: bool = False
    #: whether the estimator is Pareto optimal (no unbiased nonnegative
    #: estimator dominates it)
    is_pareto_optimal: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        """Derive the estimate method a subclass leaves abstract.

        Runs before :class:`abc.ABCMeta` collects abstract methods, so a
        class defining neither method keeps both abstract and cannot be
        instantiated: the two derived methods never call each other.
        """
        super().__init_subclass__(**kwargs)
        scalar_missing = getattr(cls.estimate, "__isabstractmethod__", False)
        batch_missing = getattr(
            cls.estimate_batch, "__isabstractmethod__", False
        )
        if scalar_missing and not batch_missing:
            cls.estimate = _estimate_one_row  # type: ignore[method-assign]
        elif batch_missing and not scalar_missing:
            cls.estimate_batch = _estimate_each_row  # type: ignore[method-assign]

    @property
    @abstractmethod
    def r(self) -> int:
        """Number of entries of the vectors the estimator accepts."""

    @abstractmethod
    def estimate(self, outcome: VectorOutcome) -> float:
        """Return the estimate for one outcome."""

    @abstractmethod
    def estimate_batch(self, batch: OutcomeBatch) -> np.ndarray:
        """Vector of estimates for a columnar batch of outcomes."""

    @property
    def has_batch_path(self) -> bool:
        """Whether this estimator defines :meth:`estimate_batch` itself."""
        return type(self).estimate_batch is not _estimate_each_row

    def estimate_many(self, outcomes: Iterable[VectorOutcome]) -> np.ndarray:
        """Vector of estimates for an iterable of outcomes.

        Routes through the columnar :meth:`estimate_batch` when the
        estimator defines one and the outcomes are homogeneous (same ``r``
        and seed availability); otherwise calls :meth:`estimate` per
        outcome.  An empty iterable yields a shape-``(0,)`` float64 array.
        """
        outcomes = list(outcomes)
        if not outcomes:
            return np.zeros(0, dtype=np.float64)
        if self.has_batch_path:
            try:
                batch = OutcomeBatch.from_outcomes(outcomes)
            except InvalidOutcomeError:
                pass  # heterogeneous outcomes: score them one by one
            else:
                return self.estimate_batch(batch)
        return np.array([self.estimate(outcome) for outcome in outcomes],
                        dtype=np.float64)

    def _check_batch(self, batch: OutcomeBatch) -> None:
        """Shared r-compatibility check for batch definitions."""
        if batch.r != self.r:
            raise InvalidOutcomeError(
                f"outcome has {batch.r} entries, estimator expects {self.r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(function={self.function_name!r}, "
            f"variant={self.variant!r}, r={self.r})"
        )
