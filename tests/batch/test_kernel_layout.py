"""Memory layout and case mixing in the r = 2 estimator kernels.

The streaming pair queries hand the kernels column-major ``(n, 2)``
batches, while batches built from scalar outcomes are row-major.  A
kernel must return the same bits for either layout of one batch.  The
known-seed PPS ``max^(L)`` kernel evaluates its most common closed form
(Eq. (25)) on every row and keeps it where it applies, so a batch mixing
all Figure 3 cases must neither warn nor differ from one-row calls.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.batch.kernels import (
    check_binary_columns,
    known_seed_or_mapping,
    masked_row_max,
    max_l_r2_kernel,
    max_l_uniform_kernel,
    max_u_kernel,
    max_uas_kernel,
    pps_determining_vector,
    pps_max_ht_kernel,
    pps_max_r2_kernel,
)

TAU = (20.0, 5.0)


def pps_columns(seed: int, n: int = 400):
    """A PPS batch as row-major columns: sampled iff ``v > 0`` and
    ``v >= u * tau``, with empty, single and full rows."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.gamma(2.0, 6.0, (n, 2)) * (rng.random((n, 2)) < 0.7), 3)
    seeds = rng.random((n, 2))
    sampled = (values > 0.0) & (values >= seeds * np.array(TAU))
    values = np.where(sampled, values, 0.0)
    # equal sampled entries, the Eq. (25) rows of a served pair
    values[:40] = values[:40, :1]
    sampled[:40] = values[:40] > 0.0
    return values, sampled, seeds


KERNELS = {
    "masked_row_max": lambda v, s, u: masked_row_max(v, s),
    "max_l_r2": lambda v, s, u: max_l_r2_kernel(v, s, 0.3, 0.7),
    "max_l_uniform": lambda v, s, u: max_l_uniform_kernel(
        v, s, np.array([1.7, -0.7])
    ),
    "max_u": lambda v, s, u: max_u_kernel(v, s, 0.3, 0.7),
    "max_uas": lambda v, s, u: max_uas_kernel(v, s, 0.3, 0.7),
    "pps_max_ht": lambda v, s, u: pps_max_ht_kernel(v, s, u, np.array(TAU)),
    "pps_max_r2": lambda v, s, u: pps_max_r2(v, s, u),
    "known_seed_or_mapping": lambda v, s, u: known_seed_or_mapping(
        s, u, np.array([0.3, 0.7])
    ),
    "check_binary_columns": lambda v, s, u: check_binary_columns(
        (v > 0.0).astype(np.float64), s
    ),
}


def pps_max_r2(values, sampled, seeds):
    """Both columns of the fused r = 2 PPS kernel for a batch."""
    return pps_max_r2_kernel(
        *pps_determining_vector(values, sampled, seeds, *TAU), *TAU
    )


def bits(result) -> list:
    """Each output array's shape, dtype and bytes in logical order."""
    arrays = result if isinstance(result, tuple) else (result,)
    return [
        None if array is None else (array.shape, array.dtype.str, array.tobytes())
        for array in arrays
    ]


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("seed", [0, 1])
def test_row_and_column_major_batches_agree_bitwise(name, seed):
    columns = pps_columns(seed)
    row_major = [np.ascontiguousarray(array) for array in columns]
    column_major = [np.asfortranarray(array) for array in columns]
    assert not any(array.flags.c_contiguous for array in column_major)
    expected = KERNELS[name](*row_major)
    assert bits(KERNELS[name](*column_major)) == bits(expected)


def test_pps_max_l_mixing_every_case_is_quiet_and_rowwise():
    # tau = (20, 5); a is the larger entry of the determining vector
    rows = [
        ((4.0, 4.0), (True, True), (0.1, 0.2)),  # Eq. (25): a == b
        ((30.0, 6.0), (True, True), (0.5, 0.9)),  # Eq. (26): b >= tau_b
        ((25.0, 2.0), (True, True), (0.9, 0.2)),  # a >= tau_a
        ((3.0, 2.0), (True, True), (0.1, 0.3)),  # Eq. (29): a <= tau_b
        ((2.0, 4.0), (True, True), (0.05, 0.3)),  # Eq. (29), second larger
        ((9.0, 3.0), (True, True), (0.2, 0.3)),  # Eq. (30)
        ((6.0, 0.0), (True, False), (0.3, 0.8)),  # single, seed bound 4
        ((0.0, 0.0), (False, False), (0.9, 0.9)),  # empty
        ((0.0, 0.0), (True, True), (0.4, 0.4)),  # both zero
        ((0.0, 0.0), (True, False), (0.2, 0.6)),  # single zero
    ]
    values = np.array([row[0] for row in rows])
    sampled = np.array([row[1] for row in rows])
    seeds = np.array([row[2] for row in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = pps_max_r2(values, sampled, seeds)
        one_by_one = [
            pps_max_r2(values[i : i + 1], sampled[i : i + 1], seeds[i : i + 1])
            for i in range(len(rows))
        ]
    for column, estimates in enumerate(whole):
        rowwise = np.concatenate([row[column] for row in one_by_one])
        assert estimates.tobytes() == rowwise.tobytes()
        assert np.all(np.isfinite(estimates))
        assert estimates[0] > 0.0 and np.all(estimates[-3:] == 0.0)
