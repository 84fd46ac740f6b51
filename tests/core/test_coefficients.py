"""Tests for the Theorem 4.2 coefficient recursion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.kernels import max_l_r2_kernel
from repro.core.coefficients import (
    uniform_max_l_coefficients,
    uniform_max_l_coefficients_grid,
    uniform_prefix_sums,
    uniform_prefix_sums_grid,
)
from repro.core.max_oblivious import MaxObliviousL
from repro.exceptions import InvalidParameterError


class TestGridAndCache:
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
    def test_grid_rows_equal_scalar_tables(self, r):
        probabilities = np.array([0.05, 0.3, 0.5, 0.9, 1.0])
        prefix_grid = uniform_prefix_sums_grid(r, probabilities)
        alpha_grid = uniform_max_l_coefficients_grid(r, probabilities)
        for row, p in enumerate(probabilities):
            np.testing.assert_array_equal(
                prefix_grid[row], uniform_prefix_sums(r, float(p))
            )
            np.testing.assert_array_equal(
                alpha_grid[row], uniform_max_l_coefficients(r, float(p))
            )

    def test_cached_results_are_fresh_copies(self):
        first = uniform_prefix_sums(3, 0.4)
        first[0] = -123.0  # corrupting the returned array must not poison
        second = uniform_prefix_sums(3, 0.4)  # the (r, p) cache entry
        assert second[0] != -123.0
        alphas = uniform_max_l_coefficients(3, 0.4)
        alphas[:] = 0.0
        assert uniform_max_l_coefficients(3, 0.4)[0] != 0.0

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            uniform_prefix_sums_grid(0, np.array([0.5]))
        with pytest.raises(InvalidParameterError):
            uniform_prefix_sums_grid(3, np.array([0.5, 0.0]))
        with pytest.raises(InvalidParameterError):
            uniform_prefix_sums_grid(3, np.array([[0.5]]))


class TestUniformPrefixSums:
    def test_r2_closed_form(self):
        # Paper: A_2 = 1 / (p (2 - p)),  A_1 = 1 / (p^2 (2 - p)).
        p = 0.37
        prefix = uniform_prefix_sums(2, p)
        assert prefix[1] == pytest.approx(1.0 / (p * (2.0 - p)))
        assert prefix[0] == pytest.approx(1.0 / (p ** 2 * (2.0 - p)))

    def test_r3_closed_form(self):
        # Paper: A_3 = 1/(p(p^2-3p+3)), A_2 = A_3/(p(2-p)) ... and
        # A_1 = (2 + p^2 - 2p) / (p^3 (p^2-3p+3)(2-p)).
        p = 0.42
        poly = p ** 2 - 3.0 * p + 3.0
        prefix = uniform_prefix_sums(3, p)
        assert prefix[2] == pytest.approx(1.0 / (p * poly))
        assert prefix[1] == pytest.approx(1.0 / (p ** 2 * poly * (2.0 - p)))
        assert prefix[0] == pytest.approx(
            (2.0 + p ** 2 - 2.0 * p) / (p ** 3 * poly * (2.0 - p))
        )

    def test_last_prefix_sum_is_or_normaliser(self):
        # A_r = 1 / (1 - (1-p)^r): the estimate on an all-equal vector.
        for r in (2, 3, 4, 6):
            p = 0.3
            prefix = uniform_prefix_sums(r, p)
            assert prefix[-1] == pytest.approx(1.0 / (1.0 - (1.0 - p) ** r))

    def test_prefix_sums_decreasing_in_index_reversed(self):
        # A_1 >= A_2 >= ... >= A_r for the maximums estimator.
        prefix = uniform_prefix_sums(5, 0.25)
        assert np.all(np.diff(prefix) <= 1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            uniform_prefix_sums(0, 0.5)
        with pytest.raises(InvalidParameterError):
            uniform_prefix_sums(3, 0.0)


class TestCoefficients:
    def test_r2_coefficients_match_paper(self):
        # alpha = (1/(p^2(2-p)), -(1-p)/(p^2(2-p))) for uniform p (Eq. 22).
        p = 0.5
        alphas = uniform_max_l_coefficients(2, p)
        assert alphas[0] == pytest.approx(1.0 / (p ** 2 * (2.0 - p)))
        assert alphas[1] == pytest.approx(-(1.0 - p) / (p ** 2 * (2.0 - p)))

    def test_r3_coefficients_match_paper(self):
        p = 0.5
        poly = p ** 2 - 3.0 * p + 3.0
        alphas = uniform_max_l_coefficients(3, p)
        assert alphas[0] == pytest.approx(
            (2.0 - 2.0 * p + p ** 2) / (p ** 3 * (2.0 - p) * poly)
        )
        assert alphas[1] == pytest.approx(-(1.0 - p) / (p ** 3 * poly))
        assert alphas[2] == pytest.approx(
            -((1.0 - p) ** 2) / (p ** 2 * (2.0 - p) * poly)
        )

    def test_coefficients_sum_to_or_normaliser(self):
        for r in (2, 3, 5):
            p = 0.4
            alphas = uniform_max_l_coefficients(r, p)
            assert alphas.sum() == pytest.approx(1.0 / (1.0 - (1.0 - p) ** r))

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
    def test_lemma_4_2_conditions(self, r, p):
        # alpha_1 <= 1/p^r and alpha_i < 0 for i > 1 imply monotonicity,
        # nonnegativity and dominance over HT (Lemma 4.2); the paper verified
        # them for r <= 4 and uniform p.
        alphas = uniform_max_l_coefficients(r, p)
        assert alphas[0] <= 1.0 / p ** r + 1e-9
        assert np.all(alphas[1:] < 1e-12)

    def test_p_equal_one_degenerates_to_exact(self):
        alphas = uniform_max_l_coefficients(3, 1.0)
        assert alphas[0] == pytest.approx(1.0)
        assert np.allclose(alphas[1:], 0.0)


def r2_coefficients(p1, p2):
    """Eq. (12) coefficients read off the ``r = 2`` kernel: a full outcome
    with ``v_1 >= v_2`` is estimated as ``alpha_1 v_1 + alpha_2 v_2``."""
    estimates = max_l_r2_kernel(
        np.array([[1.0, 0.0], [1.0, 1.0]]), np.ones((2, 2), dtype=bool),
        p1, p2,
    )
    return estimates[0], estimates[1] - estimates[0]


class TestHeterogeneousR2:
    def test_matches_uniform_case(self):
        p = 0.45
        a1, a2 = r2_coefficients(p, p)
        uniform = uniform_max_l_coefficients(2, p)
        assert a1 == pytest.approx(uniform[0])
        assert a2 == pytest.approx(uniform[1])

    def test_eq_12_formula(self):
        p1, p2 = 0.2, 0.6
        union = p1 + p2 - p1 * p2
        a1, a2 = r2_coefficients(p1, p2)
        assert a1 == pytest.approx(1.0 / (p1 * union))
        assert a2 == pytest.approx(-(1.0 - p1) / (p1 * union))

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            MaxObliviousL((0.0, 0.5))
