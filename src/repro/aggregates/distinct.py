"""Distinct-count (union size) estimation from two independent samples
with known seeds (Section 8.1).

Each instance ``i`` is a set ``N_i`` of active keys, summarised by a
weighted (Poisson or bottom-k) sample ``S_i`` with per-key sampling
probability ``p_i`` and reproducible seeds ``u_i(h)``.  The distinct count
``|N_1 ∪ N_2|`` is the sum aggregate of ``OR`` and is estimated by summing
a per-key OR estimate.

Sampled keys are split into five categories (Section 8.1):

========  =======================================================
``F11``   sampled in both instances
``F1?``   sampled only in instance 1, seed of instance 2 above ``p_2``
``F10``   sampled only in instance 1, seed of instance 2 below ``p_2``
          (certifying the key is absent from ``N_2``)
``F?1``   sampled only in instance 2, seed of instance 1 above ``p_1``
``F01``   sampled only in instance 2, seed of instance 1 below ``p_1``
========  =======================================================
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from repro._validation import check_probability
from repro.aggregates.dataset import KeyPredicate
from repro.core.variance import or_l_variance
from repro.exceptions import InvalidParameterError

__all__ = [
    "DistinctCountEstimate",
    "categorize_keys",
    "check_variant",
    "distinct_count_ht",
    "distinct_count_l",
    "distinct_estimate",
    "distinct_ht_variance",
    "distinct_l_variance",
]

SeedLookup = Callable[[object], float]

CATEGORY_NAMES = ("F11", "F1?", "F10", "F?1", "F01")


@dataclass(frozen=True)
class DistinctCountEstimate:
    """A distinct-count estimate together with the category breakdown."""

    estimate: float
    counts: Mapping[str, int]
    estimator: str

    def __float__(self) -> float:
        return self.estimate


def _as_seed_lookup(seeds: SeedLookup | Mapping[object, float]) -> SeedLookup:
    if callable(seeds):
        return seeds
    mapping = dict(seeds)

    def lookup(key: object) -> float:
        try:
            return mapping[key]
        except KeyError as error:
            raise InvalidParameterError(
                f"no seed available for key {key!r}"
            ) from error

    return lookup


def categorize_keys(
    sample1: Iterable[object],
    sample2: Iterable[object],
    p1: float,
    p2: float,
    seeds1: SeedLookup | Mapping[object, float],
    seeds2: SeedLookup | Mapping[object, float],
    predicate: KeyPredicate | None = None,
) -> dict[str, set]:
    """Split the sampled keys into the five information categories."""
    p1 = check_probability(p1, "p1")
    p2 = check_probability(p2, "p2")
    seeds1 = _as_seed_lookup(seeds1)
    seeds2 = _as_seed_lookup(seeds2)
    set1, set2 = set(sample1), set(sample2)
    categories: dict[str, set] = {name: set() for name in CATEGORY_NAMES}
    for key in set1 | set2:
        if predicate is not None and not predicate(key):
            continue
        in1, in2 = key in set1, key in set2
        if in1 and in2:
            categories["F11"].add(key)
        elif in1:
            if seeds2(key) > p2:
                categories["F1?"].add(key)
            else:
                categories["F10"].add(key)
        else:
            if seeds1(key) > p1:
                categories["F?1"].add(key)
            else:
                categories["F01"].add(key)
    return categories


def check_variant(variant: str) -> str:
    """The normalised (lowercase) name of a distinct-count variant:
    ``"l"`` or ``"ht"``."""
    normalised = str(variant).lower()
    if normalised not in ("l", "ht"):
        raise InvalidParameterError(
            f"unknown distinct-count variant {variant!r}; use 'l' or 'ht'"
        )
    return normalised


def distinct_estimate(
    counts: Mapping[str, int], p1: float, p2: float, variant: str = "l"
) -> DistinctCountEstimate:
    """The Section 8.1 estimate from the five category counts.

    ``HT`` counts only keys whose membership in *both* sets is determined:
    ``|F11 ∪ F10 ∪ F01| / (p1 p2)``.  ``L`` also exploits the
    partial-information categories ``F1?``, ``F?1``, ``F10`` and ``F01``.
    """
    if check_variant(variant) == "ht":
        determined = counts["F11"] + counts["F10"] + counts["F01"]
        return DistinctCountEstimate(
            estimate=determined / (p1 * p2), counts=counts, estimator="HT"
        )
    union_probability = p1 + p2 - p1 * p2
    estimate = (
        (counts["F1?"] + counts["F?1"] + counts["F11"]) / union_probability
        + counts["F10"] / (p1 * union_probability)
        + counts["F01"] / (p2 * union_probability)
    )
    return DistinctCountEstimate(estimate=estimate, counts=counts,
                                 estimator="L")


def distinct_count_ht(
    sample1: Iterable[object],
    sample2: Iterable[object],
    p1: float,
    p2: float,
    seeds1: SeedLookup | Mapping[object, float],
    seeds2: SeedLookup | Mapping[object, float],
    predicate: KeyPredicate | None = None,
) -> DistinctCountEstimate:
    """The HT distinct-count estimate (Section 8.1); see
    :func:`distinct_estimate`."""
    categories = categorize_keys(
        sample1, sample2, p1, p2, seeds1, seeds2, predicate
    )
    counts = {name: len(keys) for name, keys in categories.items()}
    return distinct_estimate(counts, p1, p2, "ht")


def distinct_count_l(
    sample1: Iterable[object],
    sample2: Iterable[object],
    p1: float,
    p2: float,
    seeds1: SeedLookup | Mapping[object, float],
    seeds2: SeedLookup | Mapping[object, float],
    predicate: KeyPredicate | None = None,
) -> DistinctCountEstimate:
    """The L distinct-count estimate (Section 8.1); see
    :func:`distinct_estimate`."""
    categories = categorize_keys(
        sample1, sample2, p1, p2, seeds1, seeds2, predicate
    )
    counts = {name: len(keys) for name, keys in categories.items()}
    return distinct_estimate(counts, p1, p2, "l")


def distinct_ht_variance(distinct: float, p1: float, p2: float) -> float:
    """Exact variance of the HT distinct-count estimate:
    ``D (1 / (p1 p2) - 1)``."""
    p1 = check_probability(p1, "p1")
    p2 = check_probability(p2, "p2")
    return float(distinct) * (1.0 / (p1 * p2) - 1.0)


def distinct_l_variance(
    distinct: float, jaccard: float, p1: float, p2: float
) -> float:
    """Exact variance of the L distinct-count estimate.

    ``Var = D J Var[OR^L | (1,1)] + D (1 - J) Var[OR^L | (1,0)]`` where
    ``J`` is the Jaccard coefficient of the two key sets.  Keys present in
    only one of the sets are assumed to split evenly between the two
    one-sided variances (they are equal when ``p1 = p2``).
    """
    if not 0.0 <= jaccard <= 1.0:
        raise InvalidParameterError(
            f"jaccard must be in [0, 1], got {jaccard}"
        )
    distinct = float(distinct)
    var_both = or_l_variance(p1, p2, (1, 1))
    var_one = 0.5 * (
        or_l_variance(p1, p2, (1, 0)) + or_l_variance(p1, p2, (0, 1))
    )
    return distinct * jaccard * var_both + distinct * (1.0 - jaccard) * var_one
