"""Side-by-side comparison of estimators on a set of data vectors.

Produces the kind of table the paper uses to argue dominance: for each data
vector, the exact variance of each estimator (computed by enumerating the
weight-oblivious outcome space) and the ratio to a baseline estimator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.estimator_base import VectorEstimator
from repro.exact.grid import exact_moments_value_grid
from repro.exceptions import InvalidParameterError
from repro.sampling.dispersed import ObliviousPoissonScheme

__all__ = ["EstimatorComparison", "compare_estimators"]


@dataclass(frozen=True)
class EstimatorComparison:
    """Exact-variance comparison of several estimators.

    Attributes
    ----------
    rows:
        One entry per data vector: ``{"vector": ..., "variances": {name:
        var}, "means": {name: mean}}``.
    baseline:
        Name of the baseline estimator used for the ratio columns.
    """

    rows: tuple[Mapping, ...]
    baseline: str
    estimator_names: tuple[str, ...] = field(default=())

    def variance_ratios(self, name: str) -> list[float]:
        """``Var[baseline] / Var[name]`` for every data vector (``inf`` when
        the competitor has zero variance and the baseline does not)."""
        ratios = []
        for row in self.rows:
            baseline_var = row["variances"][self.baseline]
            competitor_var = row["variances"][name]
            if competitor_var == 0.0:
                ratios.append(
                    float("inf") if baseline_var > 0.0 else 1.0
                )
            else:
                ratios.append(baseline_var / competitor_var)
        return ratios

    def dominates_baseline(self, name: str, tolerance: float = 1e-9) -> bool:
        """Whether ``name`` has no larger variance than the baseline on every
        data vector of the comparison."""
        for row in self.rows:
            if row["variances"][name] > row["variances"][self.baseline] + tolerance:
                return False
        return True

    def as_table(self) -> list[str]:
        """Plain-text table (one line per data vector)."""
        names = list(self.estimator_names)
        header = "vector".ljust(24) + "".join(
            name.rjust(14) for name in names
        )
        lines = [header]
        for row in self.rows:
            cells = "".join(
                f"{row['variances'][name]:14.4f}" for name in names
            )
            lines.append(f"{str(row['vector']):<24}{cells}")
        return lines


def compare_estimators(
    estimators: Mapping[str, VectorEstimator],
    scheme: ObliviousPoissonScheme,
    vectors: Sequence[Sequence[float]],
    baseline: str | None = None,
) -> EstimatorComparison:
    """Exact mean/variance of each estimator on each data vector.

    Each estimator scores every vector's outcome space in one
    :func:`~repro.exact.exact_moments_value_grid` call.
    """
    if not estimators:
        raise InvalidParameterError("at least one estimator is required")
    names = tuple(estimators)
    if baseline is None:
        baseline = names[0]
    if baseline not in estimators:
        raise InvalidParameterError(
            f"baseline {baseline!r} is not among the estimators"
        )
    vectors = [tuple(float(v) for v in vector) for vector in vectors]
    moments = {
        name: exact_moments_value_grid(estimator, scheme, vectors)
        for name, estimator in estimators.items()
    } if vectors else {}
    rows = [
        {
            "vector": vector,
            "means": {name: float(moments[name][0][i]) for name in names},
            "variances": {name: float(moments[name][1][i]) for name in names},
        }
        for i, vector in enumerate(vectors)
    ]
    return EstimatorComparison(
        rows=tuple(rows), baseline=baseline, estimator_names=names
    )
