"""Existence of unbiased nonnegative estimators via linear programming.

Section 6 of the paper proves that with *unknown* seeds there is no unbiased
nonnegative estimator of the ``ell``-th largest entry (``ell < r``), of OR,
or of the exponentiated range over weighted Poisson samples (when
``p_1 + p_2 < 1``).  For a finite discrete model this existence question is
exactly a linear-programming feasibility problem:

    find  x >= 0  such that  sum_S P[S | v] x_S = f(v)  for every v in V.

:func:`unbiased_nonnegative_exists` solves it with SciPy's ``linprog``; the
model builders construct the outcome distributions for the binary
unknown-seed and known-seed weighted sampling models used in the paper's
arguments.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro._validation import check_probability_vector
from repro.core.order_based import DiscreteModel

__all__ = [
    "FeasibilityResult",
    "unbiased_nonnegative_exists",
    "binary_unknown_seed_model",
    "binary_known_seed_model",
]


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility check.

    Attributes
    ----------
    feasible:
        Whether an unbiased nonnegative estimator exists for the model.
    estimates:
        A witness estimator (outcome -> estimate) when feasible, else
        ``None``.
    max_violation:
        The largest absolute unbiasedness violation of the returned witness
        (zero up to solver tolerance when feasible).
    """

    feasible: bool
    estimates: dict | None
    max_violation: float


def unbiased_nonnegative_exists(
    model: DiscreteModel,
    function: Callable[[tuple], float],
    tolerance: float = 1e-7,
) -> FeasibilityResult:
    """Check whether an unbiased nonnegative estimator exists on ``model``."""
    from scipy import optimize

    outcomes = list(model.outcomes)
    vectors = list(model.vectors)
    n = len(outcomes)
    a_eq = np.zeros((len(vectors), n))
    b_eq = np.zeros(len(vectors))
    for row, vector in enumerate(vectors):
        b_eq[row] = float(function(vector))
        for column, outcome in enumerate(outcomes):
            a_eq[row, column] = model.probability(vector, outcome)
    result = optimize.linprog(
        c=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    if not result.success:
        return FeasibilityResult(
            feasible=False, estimates=None, max_violation=float("inf")
        )
    violation = float(np.max(np.abs(a_eq @ result.x - b_eq), initial=0.0))
    feasible = violation <= tolerance
    estimates = (
        {outcome: float(x) for outcome, x in zip(outcomes, result.x)}
        if feasible
        else None
    )
    return FeasibilityResult(
        feasible=feasible, estimates=estimates, max_violation=violation
    )


def binary_unknown_seed_model(
    probabilities: Sequence[float],
    vectors: Sequence[Sequence[int]] | None = None,
) -> DiscreteModel:
    """Weighted Poisson sampling of binary data with *unknown* seeds.

    Only ``1``-valued entries can be sampled (entry ``i`` with probability
    ``p_i``); the outcome reveals nothing about unsampled entries.  The
    outcome label is therefore just the set of sampled entries.
    """
    probabilities = check_probability_vector(probabilities)
    r = len(probabilities)
    if vectors is None:
        vectors = list(product((0, 1), repeat=r))
    vectors = tuple(tuple(int(v) for v in vector) for vector in vectors)
    outcome_labels: dict = {}
    distributions: dict = {}
    for vector in vectors:
        distribution: dict = {}
        positive = [i for i in range(r) if vector[i] == 1]
        for mask in product((False, True), repeat=len(positive)):
            sampled = frozenset(
                index for index, included in zip(positive, mask) if included
            )
            probability = 1.0
            for index, included in zip(positive, mask):
                p = probabilities[index]
                probability *= p if included else (1.0 - p)
            distribution[sampled] = distribution.get(sampled, 0.0) + probability
            outcome_labels.setdefault(sampled, None)
        distributions[vector] = distribution
    return DiscreteModel(
        vectors=vectors,
        outcomes=tuple(outcome_labels),
        probabilities=distributions,
    )


def binary_known_seed_model(
    probabilities: Sequence[float],
    vectors: Sequence[Sequence[int]] | None = None,
) -> DiscreteModel:
    """Weighted Poisson sampling of binary data with *known* seeds.

    Per entry the outcome distinguishes three states: sampled (value is 1),
    not sampled with a low seed (``u_i <= p_i``, certifying the value is 0),
    and not sampled with a high seed (no information).  This is the model in
    which Section 5.1 constructs optimal OR estimators.
    """
    probabilities = check_probability_vector(probabilities)
    r = len(probabilities)
    if vectors is None:
        vectors = list(product((0, 1), repeat=r))
    vectors = tuple(tuple(int(v) for v in vector) for vector in vectors)
    outcome_labels: dict = {}
    distributions: dict = {}
    # Entry states: "1" sampled, "0" certified zero, "?" no information.
    for vector in vectors:
        distribution: dict = {}
        per_entry_states = []
        for i in range(r):
            p = probabilities[i]
            if vector[i] == 1:
                per_entry_states.append((("1", p), ("?", 1.0 - p)))
            else:
                per_entry_states.append((("0", p), ("?", 1.0 - p)))
        for combination in product(*per_entry_states):
            label = tuple(state for state, _ in combination)
            probability = 1.0
            for _, weight in combination:
                probability *= weight
            if probability <= 0.0:
                continue
            distribution[label] = distribution.get(label, 0.0) + probability
            outcome_labels.setdefault(label, None)
        distributions[vector] = distribution
    return DiscreteModel(
        vectors=vectors,
        outcomes=tuple(outcome_labels),
        probabilities=distributions,
    )
