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
a float64 estimate vector of shape ``(n,)``, except the known-seed PPS
pair: :func:`pps_max_r2_kernel` takes determining vectors (built from a
batch by :func:`pps_determining_vector`, or from a pair join by
:mod:`repro.streaming.query`) and returns both the
``max^(HT)`` and the ``max^(L)`` column.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidOutcomeError

_NEGATIVE_PHI = "determining vector must be nonnegative"

__all__ = [
    "masked_row_max",
    "ht_oblivious_kernel",
    "max_l_r2_kernel",
    "max_l_uniform_kernel",
    "max_u_kernel",
    "max_uas_kernel",
    "pps_determining_vector",
    "pps_max_ht_kernel",
    "pps_max_r2_kernel",
    "pps_one_sampled",
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
    ``M / prod_i min(1, M / tau_star_i)``.  A negative sampled value is
    refused and a NaN one makes its row NaN.  For ``r = 2`` the
    estimators score through :func:`pps_max_r2_kernel` instead.
    """
    if np.any(sampled & (values < 0.0)):
        raise InvalidOutcomeError(_NEGATIVE_PHI)
    tau_star = np.asarray(tau_star, dtype=np.float64)
    top = masked_row_max(values, sampled)
    bound_ok = sampled | (seeds * tau_star[None, :] <= top[:, None])
    in_s_star = (top > 0.0) & bound_ok.all(axis=1)
    safe_top = np.where(in_s_star, top, 1.0)
    probability = np.minimum(
        1.0, safe_top[:, None] / tau_star[None, :]
    ).prod(axis=1)
    return np.where(
        in_s_star, safe_top / probability, np.where(np.isnan(top), top, 0.0)
    )


def pps_one_sampled(
    value: np.ndarray, bound: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``r = 2`` PPS rows with one sampled entry (Figure 3,
    ``S = {i}``): the determining-vector entry of the unsampled side,
    ``min(u_j tau_j, v_i)``, and whether the seed bound ``u_j tau_j``
    certifies ``v_i`` as the maximum (the ``max^(HT)`` set ``S*``)."""
    return np.minimum(bound, value), bound <= value


def pps_determining_vector(
    values: np.ndarray,
    sampled: np.ndarray,
    seeds: np.ndarray,
    tau1: float,
    tau2: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(phi1, phi2, known)`` of ``r = 2`` PPS outcomes with known seeds.

    A sampled entry keeps its value, the unsampled entry of a
    single-sampled row gets :func:`pps_one_sampled`'s bound and empty
    rows get ``(0, 0)``.  ``known`` marks the rows whose maximum the
    outcome determines: both entries sampled, or one sampled with the
    other's seed bound at most its value.
    """
    v1, v2 = values[:, 0], values[:, 1]
    s1, s2 = sampled[:, 0], sampled[:, 1]
    other2, known2 = pps_one_sampled(v1, seeds[:, 1] * tau2)
    other1, known1 = pps_one_sampled(v2, seeds[:, 0] * tau1)
    phi1 = np.where(s1, v1, np.where(s2, other1, 0.0))
    phi2 = np.where(s2, v2, np.where(s1, other2, 0.0))
    known = np.where(s1, s2 | known2, s2 & known1)
    return phi1, phi2, known


def pps_max_r2_kernel(
    phi1: np.ndarray,
    phi2: np.ndarray,
    known: np.ndarray,
    tau1: float,
    tau2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Both known-seed PPS max estimates for ``r = 2``: ``(ht, l)``.

    Takes the determining vector ``(phi1, phi2)`` of each outcome and
    whether the outcome determines its maximum (``known``, see
    :func:`pps_determining_vector`).  ``max^(HT)`` is ``a / (q_1 q_2)``
    with ``a = max(phi)`` and ``q_i = min(1, a / tau_i)`` on the known
    rows; ``max^(L)`` applies the Figure 3 closed forms (Eqs. (25),
    (26), (29) and (30) with the corrected log argument, see
    :class:`repro.core.max_weighted.MaxPpsL`) to the sorted vector
    ``a >= b``.  ``a``, ``q_1`` and ``q_2`` are computed once for both.

    Most rows of a served pair are ties (``a == b``), where Eq. (25)
    reads ``q_1`` and ``q_2`` as they stand (a tie keeps ``tau_a =
    tau_1``); every other form is evaluated on its own rows only.  A
    negative entry, or a zero one beside a positive one, is refused; a
    NaN entry makes both estimates of its row NaN.
    """
    a = np.maximum(phi1, phi2)
    # fmin skips a NaN entry, so ``b < 0`` finds every negative entry;
    # every use of ``b`` below is masked by ``a``, which keeps the NaN
    b = np.fmin(phi1, phi2)
    positive = a > 0.0
    if not np.fmin.reduce(b, initial=np.inf) > 0.0:
        if np.any(b < 0.0):
            raise InvalidOutcomeError(_NEGATIVE_PHI)
        if np.any(positive & (b <= 0.0)):
            raise InvalidOutcomeError(
                "determining vector entries must be positive unless both "
                "are zero"
            )
    # the zero rows divide 0 by 0 here; np.where drops those quotients
    with np.errstate(divide="ignore", invalid="ignore"):
        q1 = np.minimum(1.0, a / tau1)
        q2 = q1 if tau2 == tau1 else np.minimum(1.0, a / tau2)
        # HT is positive on the known rows only, a fraction of a pair
        ht = np.zeros(a.shape, dtype=np.float64)
        scored = np.flatnonzero(known & positive)
        ht[scored] = a[scored] / (q1[scored] * q2[scored])
        # Eq. (25): equal entries
        max_l = np.where(
            positive & (a == b), a / (q1 + (1.0 - q1) * q2), 0.0
        )

    rest = np.flatnonzero(a > b)
    if rest.size:
        a_r, b_r = a[rest], b[rest]
        first_larger = phi1[rest] == a_r
        tau_a = np.where(first_larger, tau1, tau2)
        tau_b = np.where(first_larger, tau2, tau1)
        # where the larger entry is certain (a >= tau_a), it is the
        # estimate, unless the smaller one is certain too: Eq. (26)
        estimates = a_r.copy()
        certain = b_r >= tau_b
        case = np.flatnonzero(certain)
        if case.size:
            a_c, b_c = a_r[case], b_r[case]
            q_a = np.where(first_larger[case], q1[rest[case]], q2[rest[case]])
            estimates[case] = b_c + (a_c - b_c) / q_a
        low = ~certain & (a_r < tau_a)
        # Eq. (29): both entries below both thresholds
        case = np.flatnonzero(low & (a_r <= tau_b))
        if case.size:
            a_c, b_c, ta, tb = a_r[case], b_r[case], tau_a[case], tau_b[case]
            tt = ta + tb
            tab, ta_a, tt_a, tt_b = ta * tb, ta - a_c, tt - a_c, tt - b_c
            estimates[case] = (
                tab / tt_a
                + tab * ta_a / (a_c * tt)
                * np.log(tt_b * a_c / (b_c * tt_a))
                + (a_c - b_c) * ta * tb * ta_a / (a_c * tt_b * tt_a)
            )
        # Eq. (30), corrected log argument: b <= tau_b <= a <= tau_a
        case = np.flatnonzero(low & (a_r > tau_b))
        if case.size:
            a_c, b_c, ta, tb = a_r[case], b_r[case], tau_a[case], tau_b[case]
            tt = ta + tb
            tab, ta_a, tt_b = ta * tb, ta - a_c, tt - b_c
            estimates[case] = (
                ta + tb - tab / a_c
                + tab * ta_a / (a_c * tt)
                * np.log(tt_b * tb / (b_c * ta))
                + tb * ta_a * (tb - b_c) / (tt_b * a_c)
            )
        max_l[rest] = estimates

    if np.isnan(np.maximum.reduce(a, initial=0.0)):
        undefined = np.isnan(a)
        ht[undefined] = max_l[undefined] = np.nan
    return ht, max_l


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
