"""Allocation sampling, statistic matrices, and Monte Carlo p-values."""

from dataclasses import replace

import numpy as np
import pytest

import crtperm.statistics as stat_mod
from crtperm.corrections import adjust_romano_wolf
from crtperm.data import OutcomeSpec, TrialDataset, validate_design
from crtperm.errors import NumericalError
from crtperm.glm import irls_fit
from crtperm.permutation import (
    MATRIX_STREAM,
    PermutationPlan,
    StatMatrix,
    build_stat_matrix,
    enumerate_subsets,
    n_allocations,
    observed_subset,
    sample_subsets,
    sign_block,
)
from crtperm.search import StepRule
from crtperm.statistics import TIE_TOL

from conftest import (
    make_baseline_dataset,
    make_gaussian_dataset,
    make_mixed_dataset,
    one_row_p,
    reference_stat,
    reference_table,
)


def _parallel_signs(n_clusters, treated):
    """(C, 1) signs of a single-period design, written out by hand."""
    return np.where(np.isin(np.arange(n_clusters), treated), 1, -1)[:, None]


class TestSignBlock:
    def test_parallel_design_by_hand(self):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=2, n_treated=2)
        signs = sign_block(ds.design, [[0, 3], [1, 2]])
        assert signs.dtype == np.int8
        assert np.array_equal(signs, np.array([
            [[1], [-1], [-1], [1]],
            [[-1], [1], [1], [-1]],
        ]))

    def test_baseline_design_by_hand(self):
        ds = make_baseline_dataset(n_clusters=4)
        signs = sign_block(ds.design, [[0, 3], [2, 1]])
        assert np.array_equal(signs, np.array([
            [[-1, 1], [-1, -1], [-1, -1], [-1, 1]],
            [[-1, -1], [-1, 1], [-1, 1], [-1, -1]],
        ]))

    def test_observed_subset_reproduces_treatment(self):
        for ds in (make_gaussian_dataset(n_clusters=6, n_treated=3, seed=2),
                   make_baseline_dataset(n_clusters=6)):
            signs = sign_block(ds.design, observed_subset(ds)[None])[0]
            assert np.array_equal(signs, 2 * ds.treatment_matrix - 1)

    def test_empty_arm_cannot_be_sampled(self):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=2, n_treated=2)
        design = replace(ds.design, arm_sizes=(4, 0))
        with pytest.raises(NumericalError, match="empty arm"):
            sample_subsets(design, np.random.default_rng(0), 5)


class TestSampleAllocation:
    def test_preserves_treated_count(self):
        ds = make_gaussian_dataset(n_clusters=14, n_per_cluster=2, n_treated=7)
        subsets = sample_subsets(ds.design, np.random.default_rng(123), 25)
        assert subsets.shape == (25, 7)
        assert all(len(set(s)) == 7 for s in subsets.tolist())
        signs = sign_block(ds.design, subsets)
        assert np.all(np.sum(signs == 1, axis=(1, 2)) == 7 * ds.design.n_periods)

    def test_exhaustive_enumeration_counts(self):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=2, n_treated=2)
        subsets = enumerate_subsets(ds.design)
        assert subsets.shape == (6, 2)
        assert n_allocations(ds.design) == 6
        assert len({tuple(s) for s in subsets.tolist()}) == 6

    def test_observed_allocation_in_enumeration(self):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=2, n_treated=2)
        observed = tuple(observed_subset(ds).tolist())
        assert observed in {tuple(s) for s in enumerate_subsets(ds.design).tolist()}

    def test_enumeration_is_lexicographic(self):
        ds = make_gaussian_dataset(n_clusters=5, n_per_cluster=2, n_treated=2)
        subsets = [tuple(s) for s in enumerate_subsets(ds.design).tolist()]
        assert subsets == sorted(subsets)
        assert subsets[0] == (0, 1) and subsets[-1] == (3, 4)

    def test_same_seed_and_index_reproduces(self):
        ds = make_gaussian_dataset(n_clusters=10, n_per_cluster=2, n_treated=5)
        a = sample_subsets(ds.design, np.random.default_rng(99), 40)
        b = sample_subsets(ds.design, np.random.default_rng(99), 40)
        assert np.array_equal(sign_block(ds.design, a), sign_block(ds.design, b))

    def test_uniform_over_subsets(self):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=2, n_treated=2)
        n_draws = 60_000
        subsets = sample_subsets(ds.design, np.random.default_rng(7), n_draws)
        _, counts = np.unique(np.sort(subsets, axis=1), axis=0, return_counts=True)
        assert len(counts) == 6
        assert np.all(np.abs(counts / n_draws - 1 / 6) < 0.01)

    def test_baseline_scheme_keeps_first_period_untreated(self):
        ds = make_baseline_dataset(n_clusters=6)
        signs = sign_block(ds.design, sample_subsets(ds.design, np.random.default_rng(5), 20))
        assert np.all(signs[:, :, 0] == -1)
        assert np.all(np.sum(signs[:, :, 1] == 1, axis=1) == 3)

    @pytest.mark.parametrize("C, k, n", [
        (2, 1, 5), (14, 7, 1000), (14, 1, 50), (14, 13, 50), (14, 7, 0),
        (40, 20, 30), (127, 63, 8), (200, 1, 6), (200, 100, 7), (200, 199, 5),
    ])
    def test_same_draws_and_state_as_one_permutation_per_draw(self, C, k, n):
        # the stream contract: row i is the i-th of n successive
        # rng.permutation(C) calls, and the generator ends where they leave it
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=2, n_treated=2)
        design = replace(ds.design, n_clusters=C, arm_sizes=(C - k, k))
        for key in [(0, 0), (11, MATRIX_STREAM), (2**63 + 5, 1)]:
            rng, ref = np.random.default_rng(key), np.random.default_rng(key)
            subsets = sample_subsets(design, rng, n)
            want = np.array([ref.permutation(C)[:k] for _ in range(n)], dtype=np.intp)
            assert subsets.shape == (n, k)
            assert np.array_equal(subsets, want.reshape(n, k))
            assert rng.bit_generator.state == ref.bit_generator.state


class TestBuildStatMatrix:
    def test_zero_draws_gives_observed_only(self):
        ds = make_gaussian_dataset(n_outcomes=2, seed=3)
        plan = PermutationPlan(n_draws=0, seed=1, enumerate_exact=False)
        m = build_stat_matrix(ds, plan)
        assert m.values.shape == (2, 1)
        assert not m.exact

    def test_duplicated_outcome_rows_identical(self):
        base = make_gaussian_dataset(n_outcomes=1, seed=4)
        doubled = TrialDataset(
            cluster_labels=base.cluster_labels,
            cluster_index=base.cluster_index,
            period=base.period,
            treatment=base.treatment,
            outcomes=np.column_stack([base.outcomes[:, 0], base.outcomes[:, 0]]),
            outcome_specs=(OutcomeSpec("y1", "gaussian"), OutcomeSpec("y2", "gaussian")),
        )
        doubled.design = validate_design(doubled)
        m = build_stat_matrix(doubled, PermutationPlan(n_draws=40, seed=2, enumerate_exact=False))
        assert np.array_equal(m.values[0], m.values[1])

    def test_exhaustive_matches_per_allocation_oracle(self):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=3, n_treated=2, seed=5)
        m = build_stat_matrix(ds, PermutationPlan(n_draws=0, seed=0))
        assert m.exact
        assert m.values.shape == (1, 7)  # observed + C(4,2) columns
        beta = irls_fit(ds, 0, delta_fixed=0.0).nuisance_coefs
        table = reference_table(ds, 0, beta, 0.0)
        for col, subset in enumerate(enumerate_subsets(ds.design).tolist(), start=1):
            assert m.values[0, col] == pytest.approx(
                reference_stat(table, _parallel_signs(4, subset)), abs=1e-12
            )

    def test_sampled_columns_come_from_one_stream(self):
        ds = make_gaussian_dataset(n_clusters=8, n_per_cluster=3, n_treated=4, seed=2)
        m = build_stat_matrix(ds, PermutationPlan(n_draws=30, seed=11, enumerate_exact=False))
        rng = np.random.default_rng((11, MATRIX_STREAM))
        subsets = [rng.permutation(8)[:4] for _ in range(30)]
        beta = irls_fit(ds, 0, delta_fixed=0.0).nuisance_coefs
        table = reference_table(ds, 0, beta, 0.0)
        for col, subset in enumerate(subsets, start=1):
            assert m.values[0, col] == pytest.approx(
                reference_stat(table, _parallel_signs(8, subset)), abs=1e-12
            )

    def test_bitwise_determinism(self):
        ds = make_gaussian_dataset(n_outcomes=2, seed=6)
        plan = PermutationPlan(n_draws=100, seed=77, enumerate_exact=False)
        a = build_stat_matrix(ds, plan)
        b = build_stat_matrix(ds, plan)
        assert np.array_equal(a.values, b.values)

    def test_nuisance_computed_once_per_outcome(self, monkeypatch):
        # one null fit per log/logit outcome, all in one call; identity
        # outcomes need none
        ds = make_mixed_dataset(baseline=True, seed=8)
        calls = []
        original = stat_mod.pattern_irls

        def spy(X, counts, ybar, offsets, link, start=None, **kwargs):
            calls.append((list(link), len(offsets), not offsets.any(), start))
            return original(X, counts, ybar, offsets, link, start, **kwargs)

        monkeypatch.setattr(stat_mod, "pattern_irls", spy)
        build_stat_matrix(ds, PermutationPlan(n_draws=60, seed=1, enumerate_exact=False))
        assert [spec.link for spec in ds.outcome_specs] == ["identity", "log", "logit"]
        assert calls == [(["log", "logit"], 2, True, None)]


class TestMcPValue:
    def test_extreme_observed(self):
        row = np.concatenate([[5.0], np.linspace(-2, 2, 999)])
        assert one_row_p(row) == pytest.approx(1 / 1000)

    def test_tie_saturation(self):
        row = np.array([1.0, 1.0, 1.0, 1.0])
        assert one_row_p(row) == 1.0
        assert one_row_p(row, exact=True) == 1.0

    def test_hand_count(self):
        row = np.array([2.0, 1.0, -2.5, 0.3, 2.0])
        assert one_row_p(row) == pytest.approx(3 / 5)
        assert one_row_p(row, exact=True) == pytest.approx(2 / 4)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            row = rng.normal(size=rng.integers(2, 40))
            p = one_row_p(row)
            assert 1 / len(row) <= p <= 1.0

    def test_non_finite_rejected(self):
        for exact in (False, True):
            with pytest.raises(NumericalError, match="non-finite"):
                one_row_p(np.array([1.0, np.nan, 2.0]), exact)

    def test_requires_permutations(self):
        for exact in (False, True):
            with pytest.raises(ValueError):
                one_row_p(np.array([1.0]), exact)


class TestExactVersusMonteCarlo:
    def test_sampled_p_close_to_exact(self):
        # 6 clusters, 3 treated: 20 allocations enumerated exactly
        ds = make_gaussian_dataset(n_clusters=6, n_per_cluster=5, n_treated=3,
                                   effect=0.8, seed=10)
        exact_m = build_stat_matrix(ds, PermutationPlan(n_draws=0, seed=0))
        assert exact_m.exact and exact_m.values.shape == (1, 21)
        p_exact = exact_m.p_values[0]

        sampled = build_stat_matrix(
            ds, PermutationPlan(n_draws=10_000, seed=3, enumerate_exact=False)
        )
        p_mc = sampled.p_values[0]
        se = np.sqrt(p_exact * (1 - p_exact) / 10_000)
        assert abs(p_mc - p_exact) < 3 * se + 2 / 10_001


class TestTieRule:
    """A permuted |T| within TIE_TOL below |T_obs| ties with it in every decider."""

    BELOW = 1.0 - 2.0**-52  # 2.2e-16 under |T_obs| = 1

    def test_rounding_gap_counts_as_tie(self):
        assert 1.0 - self.BELOW < TIE_TOL
        row = np.array([1.0, -self.BELOW, 0.5, 0.25])
        assert one_row_p(row, exact=True) == pytest.approx(1 / 3)
        assert one_row_p(row) == pytest.approx(2 / 4)
        matrix = StatMatrix(values=row[None], exact=False)
        assert adjust_romano_wolf(matrix).p_adjusted[0] == pytest.approx(2 / 4)
        # the search treats the same gap as a non-rejection, in every rule
        methods = ["none", "bonferroni", "holm", "romano_wolf"]
        rule = StepRule(methods, 0.05, np.zeros(1))
        stats = np.broadcast_to(np.array([1.0, self.BELOW])[:, None, None], (2, 4, 1))
        _, flags, _ = rule.update(np.ones((4, 1)), stats, None, 1.0, 1)
        assert not flags.any()

    def test_real_gap_is_not_a_tie(self):
        below = 1.0 - 10 * TIE_TOL
        row = np.array([1.0, below, 0.5])
        assert one_row_p(row, exact=True) == 0.0
        rule = StepRule(["none", "romano_wolf"], 0.05, np.zeros(1))
        stats = np.broadcast_to(np.array([1.0, below])[:, None, None], (2, 2, 1))
        _, flags, _ = rule.update(np.ones((2, 1)), stats, None, 1.0, 1)
        assert flags.all()

    def test_swapped_identical_clusters_tie(self):
        # clusters 0 (treated) and 3 (control) hold the same rows, so
        # their null tables are equal, and swapping them across arms
        # gives the observed statistic in exact arithmetic; summed in
        # another order it can round an ulp below |T_obs|
        rng = np.random.default_rng(5)
        sizes = rng.integers(3, 8, 6)
        y = [rng.binomial(1, 0.4, n).astype(float) for n in sizes]
        sizes[3], y[3] = sizes[0], y[0]
        cluster_index = np.repeat(np.arange(6), sizes)
        treated = np.array([1, 1, 1, 0, 0, 0])
        ds = TrialDataset(
            cluster_labels=[f"c{c}" for c in range(6)],
            cluster_index=cluster_index,
            period=np.ones(len(cluster_index), dtype=int),
            treatment=treated[cluster_index],
            outcomes=np.concatenate(y).reshape(-1, 1),
            outcome_specs=(OutcomeSpec("y1", "binomial"),),
        )
        ds.design = validate_design(ds)
        m = build_stat_matrix(ds, PermutationPlan(n_draws=0, seed=0))
        assert m.exact
        treated_sets = [tuple(s) for s in enumerate_subsets(ds.design).tolist()]
        swapped = 1 + treated_sets.index((1, 2, 3))
        complement = 1 + treated_sets.index((3, 4, 5))
        gaps = np.abs(m.values[0, [swapped, complement]]) - abs(m.values[0, 0])
        assert np.all(np.abs(gaps) < TIE_TOL)
        row = m.values[0]
        assert one_row_p(row[[0, swapped, complement]], exact=True) == 1.0
