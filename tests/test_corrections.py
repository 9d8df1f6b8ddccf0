"""Multiplicity adjustments: worked examples and dominance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crtperm.corrections import (
    adjust,
    adjust_bonferroni,
    adjust_holm,
    adjust_none,
    adjust_romano_wolf,
)
from crtperm.errors import NumericalError
from crtperm.permutation import StatMatrix, mc_p_value

from test_search import single_step_decision


def _matrix_from_counts(counts, M, exact=False):
    """Rows whose exceedance counts against |obs| = 1 are prescribed."""
    J = len(counts)
    values = np.zeros((J, M + 1))
    values[:, 0] = 1.0
    for j, cnt in enumerate(counts):
        values[j, 1 : 1 + cnt] = 2.0
        values[j, 1 + cnt :] = 0.1
    return StatMatrix(values=values, exact=exact)


def _matrix(obs, perms, exact=False):
    values = np.column_stack([np.asarray(obs, dtype=float), np.asarray(perms, dtype=float)])
    return StatMatrix(values=values, exact=exact)


def _rejection_order(matrix):
    """Outcomes by decreasing |observed statistic|, ties by index: the stepdown order."""
    return np.argsort(-np.abs(matrix.values[:, 0]), kind="stable")


class TestBonferroni:
    def test_direct_formula(self):
        # add-one p-values (1 + cnt) / 100: 0.03 and 0.40
        m = _matrix_from_counts([2, 39], M=99)
        adj = adjust_bonferroni(m)
        assert np.allclose(adj.p_unadjusted, [0.03, 0.40])
        assert np.allclose(adj.p_adjusted, [0.06, 0.80])

    def test_cap_at_one(self):
        m = _matrix_from_counts([49, 59, 89], M=99)
        adj = adjust_bonferroni(m)
        assert np.allclose(adj.p_unadjusted, [0.5, 0.6, 0.9])
        assert np.allclose(adj.p_adjusted, [1.0, 1.0, 1.0])

    def test_single_hypothesis_identity(self):
        m = _matrix_from_counts([14], M=99)
        adj = adjust_bonferroni(m)
        assert np.array_equal(adj.p_adjusted, adj.p_unadjusted)


class TestHolm:
    def test_two_step_formula(self):
        m = _matrix_from_counts([0, 3], M=99)
        adj = adjust_holm(m)
        assert np.allclose(adj.p_unadjusted, [0.01, 0.04])
        assert np.allclose(adj.p_adjusted, [0.02, 0.04])

    def test_monotonicity_lifts_second(self):
        # p = (0.03, 0.031): 2 * 0.03 = 0.06 exceeds 1 * 0.031, so the
        # second adjusted value is lifted to 0.06
        m = _matrix_from_counts([2, 30], M=999)
        adj = adjust_holm(m)
        assert np.allclose(adj.p_unadjusted, [0.003, 0.031])
        m = _matrix_from_counts([29, 30], M=999)
        adj = adjust_holm(m)
        assert np.allclose(adj.p_unadjusted, [0.03, 0.031])
        assert np.allclose(adj.p_adjusted, [0.06, 0.06])

    def test_single_hypothesis_identity(self):
        m = _matrix_from_counts([7], M=99)
        adj = adjust_holm(m)
        assert np.array_equal(adj.p_adjusted, adj.p_unadjusted)


class TestRomanoWolf:
    def test_single_outcome_equals_unadjusted(self):
        rng = np.random.default_rng(0)
        m = _matrix(obs=[1.3], perms=rng.normal(size=(1, 200)))
        adj = adjust_romano_wolf(m)
        assert adj.p_adjusted[0] == pytest.approx(mc_p_value(m.values[0]))

    def test_duplicated_rows_equal_single_row_unadjusted(self):
        rng = np.random.default_rng(1)
        perms = rng.normal(size=200)
        single = _matrix(obs=[0.9], perms=perms.reshape(1, -1))
        double = _matrix(obs=[0.9, 0.9], perms=np.vstack([perms, perms]))
        p_single = adjust_none(single).p_unadjusted[0]
        adj = adjust_romano_wolf(double)
        assert adj.p_adjusted[0] == pytest.approx(p_single)
        assert adj.p_adjusted[1] == pytest.approx(p_single)

    def test_two_by_four_hand_enumeration(self):
        obs = [2.0, 1.0]
        perms = np.array([[1.0, 2.5, 0.5, 1.5], [0.8, 0.9, 1.2, 0.7]])
        adj = adjust_romano_wolf(_matrix(obs, perms))
        # step 1 max-statistics (1.0, 2.5, 1.2, 1.5): one >= 2.0 -> 2/5
        # step 2 row-2 values: one >= 1.0 -> 2/5; monotone -> (0.4, 0.4)
        assert np.allclose(adj.p_unadjusted, [0.4, 0.4])
        assert np.allclose(adj.p_adjusted, [0.4, 0.4])
        assert list(_rejection_order(_matrix(obs, perms))) == [0, 1]

    def test_monotone_along_rejection_order(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            J = int(rng.integers(1, 6))
            m = _matrix(rng.normal(size=J), rng.normal(size=(J, 60)))
            adj = adjust_romano_wolf(m)
            ordered = adj.p_adjusted[_rejection_order(m)]
            assert np.all(np.diff(ordered) >= -1e-15)


class TestUnadjusted:
    def test_one_computation_and_independent_copies(self):
        rng = np.random.default_rng(4)
        m = _matrix(rng.normal(size=3), rng.normal(size=(3, 99)))
        cached = m.p_values
        want = np.array([mc_p_value(row) for row in m.values])
        assert np.array_equal(cached, want)
        results = [adjust(m, method) for method in
                   ("none", "bonferroni", "holm", "romano_wolf")]
        for r in results:
            assert np.array_equal(r.p_unadjusted, want)
        results[0].p_unadjusted[:] = -1.0
        for r in results[1:]:
            assert np.array_equal(r.p_unadjusted, want)
        assert m.p_values is cached
        assert np.array_equal(m.p_values, want)
        with pytest.raises(ValueError):
            cached[0] = 0.0


class TestDominance:
    @settings(max_examples=60, deadline=None)
    @given(
        obs=arrays(np.float64, 4, elements=st.floats(-4, 4, allow_nan=False)),
        perms=arrays(np.float64, (4, 25), elements=st.floats(-4, 4, allow_nan=False)),
    )
    def test_pointwise_dominance(self, obs, perms):
        m = _matrix(obs, perms)
        p_un = adjust_none(m).p_adjusted
        p_holm = adjust_holm(m).p_adjusted
        p_bonf = adjust_bonferroni(m).p_adjusted
        p_rw = adjust_romano_wolf(m).p_adjusted
        assert np.all(p_bonf >= p_holm - 1e-12)
        assert np.all(p_holm >= p_un - 1e-12)
        assert np.all(p_rw >= p_un - 1e-12)
        for p in (p_un, p_holm, p_bonf, p_rw):
            assert np.all(p > 0) and np.all(p <= 1)

    def test_equivariance_to_outcome_reordering(self):
        rng = np.random.default_rng(3)
        obs = rng.normal(size=5)
        perms = rng.normal(size=(5, 80))
        perm_idx = rng.permutation(5)
        for method in ("none", "bonferroni", "holm", "romano_wolf"):
            direct = adjust(_matrix(obs, perms), method).p_adjusted
            shuffled = adjust(_matrix(obs[perm_idx], perms[perm_idx]), method).p_adjusted
            assert np.allclose(shuffled, direct[perm_idx], atol=1e-14)


class TestSingleStepDecision:
    def test_dominating_observed_rejects_all(self):
        flags = single_step_decision("romano_wolf", [3.0, 2.0], [1.0, 1.0], 0.05)
        assert list(flags) == [True, True]

    def test_stop_at_first_failure(self):
        flags = single_step_decision("romano_wolf", [3.0, 2.0], [3.5, 0.1], 0.05)
        assert list(flags) == [False, False]

    def test_three_step_walk(self):
        flags = single_step_decision(
            "romano_wolf", [3.0, 2.0, 1.0], [2.5, 2.5, 0.5], 0.05
        )
        assert list(flags) == [True, False, False]

    def test_plain_comparison_for_marginal_methods(self):
        for method in ("none", "bonferroni", "holm"):
            flags = single_step_decision(method, [3.0, 2.0], [3.5, 0.1], 0.05)
            assert list(flags) == [False, True]

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            single_step_decision("none", [np.inf, 1.0], [0.5, 0.5], 0.05)

    def test_two_sided_uses_absolute_values(self):
        flags = single_step_decision("romano_wolf", [-3.0, 2.0], [2.5, -0.1], 0.05)
        assert list(flags) == [True, True]
