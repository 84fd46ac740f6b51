"""The closed forms of the paper's estimators, as NumPy kernels.

Each kernel is a pure function of column arrays (no estimator state) and
is the only implementation of its estimator's formula: the estimator
classes of :mod:`repro.core` call it from ``estimate_batch``, score a
single outcome as a one-row batch, and the exact-moment sweeps of
:mod:`repro.exact` call it with per-row parameter columns.  Keeping the
kernels free of any ``repro.core`` import lets the estimator classes call
them without an import cycle.  ``tests/batch/test_parity.py`` pins them
to scalar values frozen before the per-class formulas were removed.

All kernels take the canonical :class:`~repro.batch.OutcomeBatch` column
layout — ``values``/``sampled``/``seeds`` of shape ``(n, r)`` — and return
a float64 estimate vector of shape ``(n,)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidOutcomeError

__all__ = [
    "masked_row_max",
    "ht_oblivious_kernel",
    "max_l_r2_kernel",
    "max_l_uniform_kernel",
    "max_u_kernel",
    "max_uas_kernel",
    "pps_max_ht_kernel",
    "pps_max_l_r2_kernel",
    "check_binary_columns",
    "known_seed_or_mapping",
]


def masked_row_max(values: np.ndarray, sampled: np.ndarray) -> np.ndarray:
    """Row-wise maximum over the sampled entries (0 for empty rows)."""
    if values.shape[1] == 2:
        # Column ops beat an axis-1 reduction on (n, 2) arrays by ~10x.
        top = np.maximum(
            np.where(sampled[:, 0], values[:, 0], -np.inf),
            np.where(sampled[:, 1], values[:, 1], -np.inf),
        )
        return np.where(sampled[:, 0] | sampled[:, 1], top, 0.0)
    filled = np.where(sampled, values, -np.inf)
    top = filled.max(axis=1)
    return np.where(sampled.any(axis=1), top, 0.0)


def ht_oblivious_kernel(
    f_values: np.ndarray,
    all_sampled: np.ndarray,
    all_sampled_probability: float,
) -> np.ndarray:
    """HT estimate ``f(v) / prod_i p_i`` on full rows, zero elsewhere."""
    return np.where(
        all_sampled, f_values / all_sampled_probability, 0.0
    )


def max_l_r2_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    p1: float,
    p2: float,
) -> np.ndarray:
    """``max^(L)`` for ``r = 2`` with arbitrary probabilities (Eq. (12)).

    ``p1`` / ``p2`` may be scalars or per-row ``(n,)`` columns (the
    probability-grid sweeps of :mod:`repro.exact.grid`).
    """
    # The r = 2 determining vector needs no row-max: an unsampled entry is
    # replaced by the other column (exact for single-sampled rows; empty
    # rows are zeroed at the end, and the columns are canonical 0 there).
    phi1 = np.where(sampled[:, 0], values[:, 0], values[:, 1])
    phi2 = np.where(sampled[:, 1], values[:, 1], values[:, 0])
    union = p1 + p2 - p1 * p2
    first_larger = phi1 >= phi2
    larger = np.where(first_larger, phi1, phi2)
    smaller = np.where(first_larger, phi2, phi1)
    p_larger = np.where(first_larger, p1, p2)
    estimates = (larger - (1.0 - p_larger) * smaller) / (p_larger * union)
    return np.where(sampled[:, 0] | sampled[:, 1], estimates, 0.0)


def max_l_uniform_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    alphas: np.ndarray,
) -> np.ndarray:
    """``max^(L)`` for uniform ``p`` and any ``r`` (Theorem 4.2 tables).

    The estimate is ``sum_i alpha_i u_i`` with ``u`` the descending sort of
    the determining vector (unsampled entries replaced by the largest
    sampled value).  ``alphas`` is one ``(r,)`` coefficient row or an
    ``(n, r)`` matrix with one row per outcome (the probability-grid sweeps
    of :mod:`repro.exact.grid`).
    """
    top = masked_row_max(values, sampled)
    phi = np.where(sampled, values, top[:, None])
    ordered = np.sort(phi, axis=1)[:, ::-1]
    # Elementwise multiply + reduce (not a BLAS dot) keeps a fixed,
    # sequential accumulation order; the coefficient tables cancel heavily
    # for small p, where reordering costs digits.
    alphas = np.asarray(alphas, dtype=np.float64)
    estimates = (ordered * alphas).sum(axis=1)
    return np.where(sampled.any(axis=1), estimates, 0.0)


def max_u_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    p1: float,
    p2: float,
) -> np.ndarray:
    """The symmetric ``max^(U)`` estimator for ``r = 2`` (Section 4.2).

    ``p1`` / ``p2`` may be scalars or per-row ``(n,)`` columns (the
    probability-grid sweeps of :mod:`repro.exact.grid`).
    """
    slack = 1.0 + np.maximum(0.0, 1.0 - p1 - p2)
    v1, v2 = values[:, 0], values[:, 1]
    s1, s2 = sampled[:, 0], sampled[:, 1]
    both = (
        np.maximum(v1, v2)
        - (v1 * (1.0 - p2) + v2 * (1.0 - p1)) / slack
    ) / (p1 * p2)
    return np.select(
        [s1 & s2, s1, s2],
        [both, v1 / (p1 * slack), v2 / (p2 * slack)],
        default=0.0,
    )


def max_uas_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    p1: float,
    p2: float,
) -> np.ndarray:
    """The asymmetric ``max^(Uas)`` estimator for ``r = 2`` (Section 4.2).

    ``p1`` / ``p2`` may be scalars or per-row ``(n,)`` columns (the
    probability-grid sweeps of :mod:`repro.exact.grid`).
    """
    denominator2 = np.maximum(1.0 - p1, p2)
    v1, v2 = values[:, 0], values[:, 1]
    s1, s2 = sampled[:, 0], sampled[:, 1]
    both = (
        np.maximum(v1, v2)
        - p2 * (1.0 - p1) / denominator2 * v2
        - (1.0 - p2) * v1
    ) / (p1 * p2)
    return np.select(
        [s1 & s2, s1, s2],
        [both, v1 / p1, v2 / denominator2],
        default=0.0,
    )


def pps_max_ht_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    seeds: np.ndarray,
    tau_star: np.ndarray,
) -> np.ndarray:
    """Inverse-probability max estimator for PPS samples with known seeds.

    Positive only when every unsampled entry's seed bound lies below the
    largest sampled value; the estimate is then
    ``M / prod_i min(1, M / tau_star_i)``.
    """
    tau_star = np.asarray(tau_star, dtype=np.float64)
    top = masked_row_max(values, sampled)
    if len(tau_star) == 2:
        bound_ok = (
            (sampled[:, 0] | (seeds[:, 0] * tau_star[0] <= top))
            & (sampled[:, 1] | (seeds[:, 1] * tau_star[1] <= top))
        )
        in_s_star = (top > 0.0) & bound_ok
        safe_top = np.where(in_s_star, top, 1.0)
        probability = np.minimum(1.0, safe_top / tau_star[0]) * np.minimum(
            1.0, safe_top / tau_star[1]
        )
    else:
        bound_ok = sampled | (seeds * tau_star[None, :] <= top[:, None])
        in_s_star = (top > 0.0) & bound_ok.all(axis=1)
        safe_top = np.where(in_s_star, top, 1.0)
        probability = np.minimum(
            1.0, safe_top[:, None] / tau_star[None, :]
        ).prod(axis=1)
    return np.where(in_s_star, safe_top / probability, 0.0)


def pps_max_l_r2_kernel(
    values: np.ndarray,
    sampled: np.ndarray,
    seeds: np.ndarray,
    tau1: float,
    tau2: float,
) -> np.ndarray:
    """The known-seed PPS ``max^(L)`` for ``r = 2`` (Figure 3 closed forms).

    The determining vector pairs each sampled value with the seed bound of
    the unsampled entry, and the piecewise closed forms (Eqs. (25), (26),
    (29), (30) with the corrected log argument, see
    :class:`repro.core.max_weighted.MaxPpsL`) are applied after sorting.
    """
    v1, v2 = values[:, 0], values[:, 1]
    s1, s2 = sampled[:, 0], sampled[:, 1]
    nonempty = s1 | s2

    # Determining vector: a sampled entry keeps its value, the unsampled
    # entry of a single-sampled row gets min(seed bound, sampled value),
    # empty rows get (0, 0).
    phi1 = np.where(
        s1, v1, np.where(s2, np.minimum(seeds[:, 0] * tau1, v2), 0.0)
    )
    phi2 = np.where(
        s2, v2, np.where(s1, np.minimum(seeds[:, 1] * tau2, v1), 0.0)
    )
    if np.any((phi1 < 0.0) | (phi2 < 0.0)):
        raise InvalidOutcomeError("determining vector must be nonnegative")
    both_zero = (phi1 == 0.0) & (phi2 == 0.0)
    if np.any(~both_zero & (np.minimum(phi1, phi2) <= 0.0)):
        raise InvalidOutcomeError(
            "determining vector entries must be positive unless both are zero"
        )

    first_larger = phi1 >= phi2
    a = np.where(first_larger, phi1, phi2)
    b = np.where(first_larger, phi2, phi1)
    tau_a = np.where(first_larger, tau1, tau2)
    tau_b = np.where(first_larger, tau2, tau1)
    total = tau_a + tau_b

    estimates = np.zeros(len(a), dtype=np.float64)
    remaining = nonempty & ~both_zero

    # Eq. (25): equal entries.  Most rows of a served pair fall here, so
    # the form is evaluated on the full columns and kept where it holds;
    # the empty and both-zero rows it also visits divide 0 by 0.
    case = remaining & (a == b)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_a = np.minimum(1.0, a / tau_a)
        q_b = np.minimum(1.0, a / tau_b)
        np.copyto(estimates, a / (q_a + (1.0 - q_a) * q_b), where=case)
    remaining &= ~case

    # Eq. (26): the smaller entry is certain (b >= tau_b).
    case = remaining & (b >= tau_b)
    if np.any(case):
        estimates[case] = b[case] + (a[case] - b[case]) / np.minimum(
            1.0, a[case] / tau_a[case]
        )
        remaining &= ~case

    # v >= tau_1: the estimate equals the larger entry.
    case = remaining & (a >= tau_a)
    if np.any(case):
        estimates[case] = a[case]
        remaining &= ~case

    # Eq. (29): both entries below both thresholds.
    case = remaining & (a <= tau_b)
    if np.any(case):
        a_c, b_c = a[case], b[case]
        ta, tb, tt = tau_a[case], tau_b[case], total[case]
        estimates[case] = (
            ta * tb / (tt - a_c)
            + ta * tb * (ta - a_c) / (a_c * tt)
            * np.log((tt - b_c) * a_c / (b_c * (tt - a_c)))
            + (a_c - b_c) * ta * tb * (ta - a_c)
            / (a_c * (tt - b_c) * (tt - a_c))
        )
        remaining &= ~case

    # Eq. (30), corrected log argument: b <= tau_b <= a <= tau_a.
    if np.any(remaining):
        a_c, b_c = a[remaining], b[remaining]
        ta, tb, tt = tau_a[remaining], tau_b[remaining], total[remaining]
        estimates[remaining] = (
            ta + tb - ta * tb / a_c
            + ta * tb * (ta - a_c) / (a_c * tt)
            * np.log((tt - b_c) * tb / (b_c * ta))
            + tb * (ta - a_c) * (tb - b_c) / ((tt - b_c) * a_c)
        )
    return estimates


def check_binary_columns(values: np.ndarray, sampled: np.ndarray) -> None:
    """Raise unless every sampled value is 0 or 1 (OR estimators)."""
    observed = values[sampled]
    bad = (observed != 0.0) & (observed != 1.0)
    if np.any(bad):
        offender = float(observed[bad][0])
        raise InvalidOutcomeError(
            "OR estimators require binary values; got "
            f"{offender!r} in the outcome"
        )


def known_seed_or_mapping(
    sampled: np.ndarray,
    seeds: np.ndarray,
    probabilities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map known-seed weighted binary outcomes to weight-oblivious ones.

    The outcome equivalence of Section 5: sampled entries become value 1;
    unsampled entries whose seed certifies a zero (``u_i <= p_i``) become
    sampled with value 0; the others stay unsampled.

    Returns the mapped ``(values, sampled)`` pair.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    mapped_sampled = sampled | (seeds <= probabilities[None, :])
    mapped_values = sampled.astype(np.float64)
    return mapped_values, mapped_sampled
