"""Generic ordered-partition estimator derivation — Algorithm 2 of the paper.

Algorithm 2 relaxes the strict order of Algorithm 1 to an ordered partition
``U_0, U_1, ...`` of the data domain.  Each batch is processed at once: the
estimates of the outcomes first consistent with the batch are chosen to be
*locally optimal* — minimising variance for the batch's vectors subject to

* unbiasedness for every vector in the batch (Eq. (8)),
* nonnegativity budgets for every vector in later batches (Eq. (9)), i.e.
  the expectation already committed must not exceed ``f(v')``,
* nonnegativity of the estimate values themselves.

Using a *symmetric* objective (the sum of the batch variances) yields the
symmetric estimators of the paper (e.g. ``max^(U)`` of Section 4.2) whenever
the model and the batch are symmetric.

The quadratic program is solved with SciPy's SLSQP, which is ample for the
small discrete models used in derivations and tests.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.order_based import DerivedEstimator, DiscreteModel, Outcome, Vector
from repro.exceptions import EstimatorDerivationError

__all__ = ["PartitionBasedDeriver"]


class PartitionBasedDeriver:
    """Derive the ordered-partition estimator ``f^(U)`` on a discrete model.

    Parameters
    ----------
    model:
        Finite sampling model.
    function:
        The estimated function, called on data vectors.
    batch_key:
        Key function defining the ordered partition: vectors with equal key
        belong to the same batch, batches are processed in increasing key
        order.  For the paper's ``max^(U)`` the key is the number of
        positive entries.
    """

    def __init__(
        self,
        model: DiscreteModel,
        function: Callable[[Vector], float],
        batch_key: Callable[[Vector], object],
    ) -> None:
        self.model = model
        self.function = function
        self.batch_key = batch_key

    def _batches(self) -> list[list[Vector]]:
        groups: dict[object, list[Vector]] = {}
        for vector in self.model.vectors:
            groups.setdefault(self.batch_key(vector), []).append(vector)
        return [groups[key] for key in sorted(groups)]

    def derive(self, atol: float = 1e-9) -> DerivedEstimator:
        """Run Algorithm 2 and return the derived estimator."""
        estimates: dict[Outcome, float] = {}
        processed: set[Outcome] = set()
        batches = self._batches()
        for index, batch in enumerate(batches):
            later_vectors = [v for later in batches[index + 1:] for v in later]
            self._process_batch(batch, later_vectors, estimates, processed,
                                atol)
        for outcome in self.model.outcomes:
            estimates.setdefault(outcome, 0.0)
        return DerivedEstimator(
            estimates=estimates, model=self.model, function=self.function
        )

    def _process_batch(
        self,
        batch: list[Vector],
        later_vectors: list[Vector],
        estimates: dict[Outcome, float],
        processed: set[Outcome],
        atol: float,
    ) -> None:
        new_outcomes: list[Outcome] = []
        seen: set[Outcome] = set()
        for vector in batch:
            for outcome in self.model.consistent_outcomes(vector):
                if outcome not in processed and outcome not in seen:
                    new_outcomes.append(outcome)
                    seen.add(outcome)
        if not new_outcomes:
            # Nothing new to set; unbiasedness must already hold.
            for vector in batch:
                contribution = self._processed_contribution(vector, estimates)
                if abs(contribution - float(self.function(vector))) > 1e-7:
                    raise EstimatorDerivationError(
                        f"batch containing {vector!r} has no free outcomes "
                        "but is not yet unbiased"
                    )
            return

        n = len(new_outcomes)
        outcome_index = {outcome: i for i, outcome in enumerate(new_outcomes)}

        # Quadratic objective: sum over batch vectors of E[estimate^2]
        # restricted to the free outcomes (the rest is fixed).
        weights = np.zeros(n)
        for vector in batch:
            for outcome in self.model.consistent_outcomes(vector):
                i = outcome_index.get(outcome)
                if i is not None:
                    weights[i] += self.model.probability(vector, outcome)

        equality_rows = []
        equality_rhs = []
        for vector in batch:
            row = np.zeros(n)
            for outcome in self.model.consistent_outcomes(vector):
                i = outcome_index.get(outcome)
                if i is not None:
                    row[i] = self.model.probability(vector, outcome)
            target = float(self.function(vector)) - self._processed_contribution(
                vector, estimates
            )
            if np.all(np.abs(row) <= atol):
                if abs(target) > 1e-7:
                    raise EstimatorDerivationError(
                        f"vector {vector!r} has zero probability of a free "
                        f"outcome but residual expectation {target}"
                    )
                continue
            equality_rows.append(row)
            equality_rhs.append(target)

        inequality_rows = []
        inequality_rhs = []
        for vector in later_vectors:
            row = np.zeros(n)
            for outcome in self.model.consistent_outcomes(vector):
                i = outcome_index.get(outcome)
                if i is not None:
                    row[i] = self.model.probability(vector, outcome)
            if np.all(row == 0.0):
                continue
            budget = float(self.function(vector)) - self._processed_contribution(
                vector, estimates
            )
            inequality_rows.append(row)
            inequality_rhs.append(budget)

        solution = self._solve_qp(
            weights, equality_rows, equality_rhs, inequality_rows,
            inequality_rhs
        )
        for outcome, value in zip(new_outcomes, solution):
            estimates[outcome] = float(max(value, 0.0))
            processed.add(outcome)

    def _processed_contribution(
        self, vector: Vector, estimates: dict[Outcome, float]
    ) -> float:
        return float(
            sum(
                self.model.probability(vector, outcome) * value
                for outcome, value in estimates.items()
            )
        )

    @staticmethod
    def _solve_qp(
        weights: np.ndarray,
        equality_rows: list[np.ndarray],
        equality_rhs: list[float],
        inequality_rows: list[np.ndarray],
        inequality_rhs: list[float],
    ) -> np.ndarray:
        """Minimise ``sum_i w_i x_i^2`` under linear constraints, ``x >= 0``."""
        from scipy import optimize

        n = weights.size
        a_eq = np.array(equality_rows) if equality_rows else np.zeros((0, n))
        b_eq = np.array(equality_rhs) if equality_rhs else np.zeros(0)
        a_ub = (
            np.array(inequality_rows) if inequality_rows else np.zeros((0, n))
        )
        b_ub = np.array(inequality_rhs) if inequality_rhs else np.zeros(0)

        def objective(x: np.ndarray) -> float:
            return float(np.sum(weights * x ** 2))

        def gradient(x: np.ndarray) -> np.ndarray:
            return 2.0 * weights * x

        constraints = []
        if a_eq.shape[0]:
            constraints.append(
                {
                    "type": "eq",
                    "fun": lambda x, a=a_eq, b=b_eq: a @ x - b,
                    "jac": lambda x, a=a_eq: a,
                }
            )
        if a_ub.shape[0]:
            constraints.append(
                {
                    "type": "ineq",
                    "fun": lambda x, a=a_ub, b=b_ub: b - a @ x,
                    "jac": lambda x, a=a_ub: -a,
                }
            )
        # Start from a feasible-ish least-squares point for the equalities.
        if a_eq.shape[0]:
            x0, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
            x0 = np.clip(x0, 0.0, None)
        else:
            x0 = np.zeros(n)
        result = optimize.minimize(
            objective,
            x0,
            jac=gradient,
            bounds=[(0.0, None)] * n,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if not result.success:
            raise EstimatorDerivationError(
                f"quadratic program did not converge: {result.message}"
            )
        return np.asarray(result.x, dtype=float)
