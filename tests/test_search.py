"""Robbins-Monro confidence-limit search."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from crtperm.errors import NumericalError
from crtperm.glm import (
    FIT_NO_CONVERGENCE,
    CovarianceSpec,
    build_cluster_covariance,
    irls_fit,
    nuisance_design,
)
from crtperm.search import (
    StepRule,
    alpha_star_schedule,
    rm_search,
    search_all_methods,
    step_constant,
)
from crtperm.permutation import observed_subset, sign_block
import crtperm.statistics as stat_mod
from crtperm.simulate import DgpSpec, gen_model3
from crtperm.statistics import StepKernel

from conftest import (
    grid_inversion_endpoints,
    make_gaussian_dataset,
    make_mixed_dataset,
    reference_stat,
    reference_table,
)


def single_step_decision(method, observed_stats, permuted_stats, alpha):
    """Per-outcome reject flags from a single fresh permutation draw.

    The reference for :meth:`StepRule.update`'s decisions, one method
    at a time.  For the stepdown method, hypotheses are visited in
    decreasing order of the observed |statistic| (ties by index) and
    hypothesis r is rejected when the permuted max-|statistic| over the
    not-yet-stopped set is strictly below the observed value; the
    first failure stops the walk and all later-ordered hypotheses are
    accepted.  The other methods compare each outcome's permuted and
    observed |statistics| directly (their differing strictness enters
    through the search's alpha schedule).  ``alpha`` is accepted for
    interface symmetry; the comparisons themselves are level-free.
    """
    observed_stats = np.asarray(observed_stats, dtype=float)
    permuted_stats = np.asarray(permuted_stats, dtype=float)
    if not (np.all(np.isfinite(observed_stats)) and np.all(np.isfinite(permuted_stats))):
        raise NumericalError("non-finite statistic in single-draw decision")
    a_obs = np.abs(observed_stats)
    a_perm = np.abs(permuted_stats)
    if method in ("none", "bonferroni", "holm"):
        return a_perm < a_obs
    if method == "romano_wolf":
        order = np.lexsort((np.arange(len(a_obs)), -a_obs))
        flags = np.zeros(len(a_obs), dtype=bool)
        for r, j in enumerate(order):
            if a_perm[order[r:]].max() < a_obs[j]:
                flags[j] = True
            else:
                break
        return flags
    raise ValueError(f"unknown correction method: {method!r}")


class TestStepConstant:
    def test_value_at_five_percent(self):
        # oracle: 2 / (z * phi(z)) with z = 1.6448536..., phi(z) = 0.1031356...
        assert step_constant(0.05) == pytest.approx(11.789462, abs=1e-5)

    def test_value_at_two_and_a_half_percent(self):
        # z = 1.9599640, phi(z) = 0.0584449
        assert step_constant(0.025) == pytest.approx(17.459589, abs=1e-5)

    def test_monotone_in_alpha(self):
        assert step_constant(0.025) > step_constant(0.05)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_matches_scipy_normal_on_every_ladder_level(self, alpha):
        for J in range(1, 11):
            for r in range(J):
                alpha_star = alpha / (J - r)
                z = norm.ppf(1 - alpha_star)
                assert step_constant(alpha_star) == pytest.approx(
                    2 / (z * norm.pdf(z)), rel=1e-14
                )

    def test_domain(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                step_constant(bad)


class TestAlphaStarSchedule:
    def test_uncorrected_and_stepdown_use_alpha(self):
        for method in ("none", "romano_wolf"):
            assert np.allclose(alpha_star_schedule(method, 0.05, 3), 0.05)

    def test_family_size_division(self):
        assert np.allclose(alpha_star_schedule("bonferroni", 0.06, 3), 0.02)

    def test_ladder_follows_ordering(self):
        order = np.array([2, 0, 1])  # outcome 2 has the largest statistic
        stars = alpha_star_schedule("holm", 0.06, 3, order)
        assert stars[2] == pytest.approx(0.02)
        assert stars[0] == pytest.approx(0.03)
        assert stars[1] == pytest.approx(0.06)

    def test_ladder_requires_order(self):
        with pytest.raises(ValueError):
            alpha_star_schedule("holm", 0.05, 2)


def _step(limits, theta, rejected, side="upper", alpha=0.05, q=1, good=None):
    """One masked update of single-method chains; returns the new limits.

    The observed |statistic| is 2; the permuted one is 1 (a rejection)
    or 3 (none).
    """
    limits = np.array([limits], dtype=float)
    perm = np.where(rejected, 1.0, 3.0)[None]
    stats = np.stack([np.full(limits.shape, 2.0), perm])
    good = np.ones(limits.shape, dtype=bool) if good is None else np.array([good])
    sgn = 1.0 if side == "upper" else -1.0
    new, _, _ = StepRule(["none"], alpha, np.asarray(theta, dtype=float)).update(
        limits, stats, good, sgn, q
    )
    return new[0]


class TestRmUpdate:
    def test_rejection_shrinks_upper_limit(self):
        u = _step([1.0], [0.0], [True], q=100)
        s_j = step_constant(0.05) * 1.0
        assert u[0] == pytest.approx(1.0 - s_j * 0.05 / 100, abs=1e-12)
        assert u[0] == pytest.approx(1.0 - s_j * 0.0005, abs=1e-12)

    def test_non_rejection_grows_upper_limit_nineteen_fold(self):
        u = _step([1.0], [0.0], [False], q=100)
        s_j = step_constant(0.05) * 1.0
        grow = u[0] - 1.0
        assert grow == pytest.approx(s_j * 0.95 / 100, abs=1e-12)
        shrink = 1.0 - _step([1.0], [0.0], [True], q=100)[0]
        assert grow == pytest.approx(19.0 * shrink, abs=1e-12)

    def test_lower_side_mirrors(self):
        s_j = step_constant(0.05) * 1.0
        l = _step([-1.0], [0.0], [True], side="lower", q=50)
        assert l[0] == pytest.approx(-1.0 + s_j * 0.05 / 50, abs=1e-12)
        l2 = _step([-1.0], [0.0], [False], side="lower", q=50)
        assert l2[0] == pytest.approx(-1.0 - s_j * 0.95 / 50, abs=1e-12)

    def test_crossing_is_clamped(self):
        # with alpha* near 0.5 the constant is huge and a rejection at
        # q = 1 would jump across the point estimate
        u = _step([1.0], [0.0], [True], alpha=0.49, q=1)
        assert u[0] == pytest.approx(1e-6)
        l = _step([-1.0], [0.0], [True], side="lower", alpha=0.49, q=1)
        assert l[0] == pytest.approx(-1e-6)

    def test_mask_skips_outcomes(self):
        # a chain not marked good takes no Robbins-Monro step; it is
        # pulled halfway toward its point estimate instead
        u = _step([1.0, 2.0], [0.0, 0.0], [True, True], q=10, good=[True, False])
        assert u[1] == 1.0
        assert u[0] < 1.0

    def test_matches_per_method_reference(self):
        # the masked routine against the per-method path it replaced:
        # the single-draw decision and the alpha* schedule restricted to
        # the good outcomes, then one scalar update per good outcome
        rng = np.random.default_rng(3)
        methods = ["none", "bonferroni", "holm", "romano_wolf"]
        alpha, J = 0.05, 4
        for trial in range(300):
            theta = rng.normal(size=J)
            sgn = 1.0 if trial % 2 else -1.0
            limits = theta + sgn * rng.uniform(0.1, 2.0, (len(methods), J))
            stats = rng.normal(size=(2, len(methods), J))
            stats[1, :, 0] = -stats[0, :, 0]  # an exact tie
            good = rng.uniform(size=(len(methods), J)) > 0.05
            q = int(rng.integers(1, 500))
            expected = limits.copy()
            for m, method in enumerate(methods):
                bad = ~good[m]
                expected[m, bad] = 0.5 * (limits[m, bad] + theta[bad])
                sub = np.flatnonzero(good[m])
                if not sub.size:
                    continue
                flags = np.zeros(J, dtype=bool)
                flags[sub] = single_step_decision(
                    method, stats[0, m, sub], stats[1, m, sub], alpha
                )
                order = sub[np.lexsort((sub, -np.abs(stats[0, m, sub])))]
                stars = alpha_star_schedule(method, alpha, J, order)
                for j in sub:
                    s_j = step_constant(stars[j]) * sgn * (limits[m, j] - theta[j])
                    if flags[j]:
                        new = limits[m, j] - sgn * s_j * stars[j] / q
                    else:
                        new = limits[m, j] + sgn * s_j * (1.0 - stars[j]) / q
                    if sgn * (new - theta[j]) <= 0.0:
                        new = theta[j] + sgn * 1e-6 * max(1.0, abs(theta[j]))
                    expected[m, j] = new
            got, _, _ = StepRule(methods, alpha, theta).update(
                limits, stats, None if good.all() else good, sgn, q
            )
            assert np.array_equal(got, expected), trial


class TestRmSearch:
    def test_limits_bracket_point_estimate(self, gaussian_dataset):
        cs = rm_search(gaussian_dataset, "none", Q=300, seed=1)
        assert np.all(cs.lower < cs.point_estimates)
        assert np.all(cs.point_estimates < cs.upper)

    def test_deterministic_given_seed(self, gaussian_dataset):
        a = rm_search(gaussian_dataset, "holm", Q=200, seed=9)
        b = rm_search(gaussian_dataset, "holm", Q=200, seed=9)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_step_sizes_decay_like_one_over_q(self, gaussian_dataset):
        cs = rm_search(gaussian_dataset, "none", Q=250, seed=5, trace=True)
        prev = {}
        for side, q, j, limit, rejected, s_j in cs.trace:
            key = (side, j)
            if key in prev:
                p_limit, p_q = prev[key]
                if q == p_q + 1:
                    bound = abs(s_j) * 0.95 / q + 1e-12
                    assert abs(limit - p_limit) <= bound
            prev[key] = (limit, q)

    def test_grid_inversion_oracle_single_outcome(self):
        # exhaustively enumerable design: the search must land near the
        # brute-force inversion endpoints of the exact permutation test.
        # 8 clusters with 4 treated is the smallest balanced design whose
        # two-sided 95% inversion is finite (the smallest attainable
        # two-sided p-value is 2/70; with 6 clusters it is 2/20 > 0.05
        # because complementary allocations share the same |T|).
        ds = make_gaussian_dataset(
            n_clusters=8, n_per_cluster=5, n_treated=4, effect=0.4, seed=17
        )
        fit = irls_fit(ds, 0)
        lo_grid, hi_grid = grid_inversion_endpoints(ds, 0, alpha=0.05, resolution=0.002)
        cs = rm_search(ds, "none", alpha=0.05, Q=4000, seed=11)
        tol = 0.1 * fit.naive_se
        assert cs.upper[0] == pytest.approx(hi_grid, abs=tol)
        assert cs.lower[0] == pytest.approx(lo_grid, abs=tol)

    def test_stepdown_equals_uncorrected_for_single_outcome(self):
        ds = make_gaussian_dataset(n_outcomes=1, seed=19)
        a = rm_search(ds, "none", Q=400, seed=21)
        b = rm_search(ds, "romano_wolf", Q=400, seed=21)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_family_size_widens_intervals(self):
        # same data and seed: the alpha/J schedule must produce intervals
        # containing the uncorrected ones
        hits = 0
        for s in range(20):
            ds = make_gaussian_dataset(n_outcomes=2, n_clusters=8, seed=100 + s)
            none_cs = rm_search(ds, "none", Q=1000, seed=s)
            bonf_cs = rm_search(ds, "bonferroni", Q=1000, seed=s)
            if np.all(bonf_cs.lower <= none_cs.lower) and np.all(
                bonf_cs.upper >= none_cs.upper
            ):
                hits += 1
        assert hits == 20

    def test_non_rejection_fraction_matches_alpha_star(self):
        # at equilibrium the chain fails to reject with probability
        # alpha*; check the tail of a long chain
        ds = make_gaussian_dataset(n_clusters=10, n_per_cluster=10, seed=23)
        cs = rm_search(ds, "none", Q=4000, seed=3, trace=True)
        tail = [r for r in cs.trace if r[0] == "upper" and r[1] > 2000]
        frac_not_rejected = np.mean([not r[4] for r in tail])
        assert abs(frac_not_rejected - 0.05) < 0.05

    def test_effect_shift_equivariance(self):
        from crtperm.data import TrialDataset, validate_design

        ds = make_gaussian_dataset(n_outcomes=2, n_clusters=8, seed=29)
        shift = 1.7
        shifted_y = ds.outcomes.copy()
        shifted_y[:, 0] += shift * ds.treatment
        ds2 = TrialDataset(
            cluster_labels=ds.cluster_labels,
            cluster_index=ds.cluster_index,
            period=ds.period,
            treatment=ds.treatment,
            outcomes=shifted_y,
            outcome_specs=ds.outcome_specs,
        )
        ds2.design = validate_design(ds2)
        for method in ("none", "romano_wolf"):
            a = rm_search(ds, method, Q=800, seed=31)
            b = rm_search(ds2, method, Q=800, seed=31)
            assert b.upper[0] == pytest.approx(a.upper[0] + shift, abs=0.01)
            assert b.lower[0] == pytest.approx(a.lower[0] + shift, abs=0.01)
            assert b.upper[1] == pytest.approx(a.upper[1], abs=0.01)
            assert b.lower[1] == pytest.approx(a.lower[1], abs=0.01)

    def test_degenerate_data_collapses_but_keeps_order(self):
        ds = make_gaussian_dataset(
            n_clusters=6, cluster_sd=0.0, noise_sd=1e-8, seed=37
        )
        cs = rm_search(ds, "none", Q=300, seed=5)
        assert cs.lower[0] < cs.point_estimates[0] < cs.upper[0]
        assert cs.upper[0] - cs.lower[0] < 1e-5

    def test_requires_minimum_steps(self, gaussian_dataset):
        with pytest.raises(ValueError, match="at least 100"):
            rm_search(gaussian_dataset, "none", Q=50, seed=1)

    @pytest.mark.parametrize("kind", ["gaussian", "mixed"])
    def test_batched_search_equals_individual_searches(self, kind):
        # the mixed dataset's log and logit chains refit in batched IRLS
        # calls, whose fits must not depend on the others in their batch
        from crtperm.search import search_all_methods

        if kind == "gaussian":
            ds = make_gaussian_dataset(n_outcomes=2, n_clusters=8, seed=41)
        else:
            ds = make_mixed_dataset(baseline=True, seed=41)
        methods = ["none", "bonferroni", "holm", "romano_wolf"]
        batch = search_all_methods(ds, methods, Q=400, seed=17)
        for m in methods:
            single = rm_search(ds, m, Q=400, seed=17)
            assert np.array_equal(batch[m].lower, single.lower), m
            assert np.array_equal(batch[m].upper, single.upper), m

    def test_trace_toggle_does_not_change_limits(self):
        ds = make_gaussian_dataset(n_outcomes=2, seed=42)
        a = rm_search(ds, "holm", Q=300, seed=19, trace=False)
        b = rm_search(ds, "holm", Q=300, seed=19, trace=True)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)
        assert len(b.trace) == 2 * 300 * 2  # sides x steps x outcomes


def _working_specs(ds, seed):
    """One working covariance spec per outcome; the structures rotate with the seed.

    Over three consecutive seeds every outcome (so every link) meets
    every structure.
    """
    structures = ("ar1_time", "exchangeable", "independent")
    return [
        CovarianceSpec(structures[(j + seed) % 3], sigma2=1.0 + 0.5 * j, tau2=0.4, lam=0.6)
        for j in range(ds.n_outcomes)
    ]


def _reference_stats(ds, kind, specs, refit_at, limits, signs):
    """Statistics written out in plain numpy, chain by chain.

    Each chain refits its nuisance parameters at ``refit_at`` (least
    squares for identity links, IRLS otherwise), then evaluates the
    residual table at its limit with the dense per-cluster covariance
    solved by ``np.linalg.solve`` and exactly rounded sums
    (``reference_table``, ``reference_stat``).
    """
    X, _ = nuisance_design(ds)
    D = ds.treatment.astype(float)
    out = np.empty((len(signs),) + limits.shape)
    for (m, j), delta in np.ndenumerate(limits):
        if ds.outcome_specs[j].link == "identity":
            y = ds.outcomes[:, j]
            beta = np.linalg.lstsq(X, y - refit_at[m, j] * D, rcond=None)[0]
        else:
            beta = irls_fit(ds, j, delta_fixed=float(refit_at[m, j])).nuisance_coefs
        table = reference_table(ds, j, beta, delta, specs[j] if kind == "weighted" else None)
        out[:, m, j] = [reference_stat(table, s) for s in signs]
    return out


class TestStepKernel:
    """The search step's stacked statistics against the reference statistic."""

    def _kernel(self, ds, kind, seed, n_chains=3, refit=False):
        rng = np.random.default_rng(seed)
        fits = [irls_fit(ds, j) for j in range(ds.n_outcomes)]
        theta = np.array([f.treatment_effect for f in fits])
        se = np.array([f.naive_se for f in fits])
        specs = _working_specs(ds, seed)
        covs = None
        if kind == "weighted":
            covs = [build_cluster_covariance(spec, ds.cell_counts) for spec in specs]
        shape = (n_chains, ds.n_outcomes)
        refit_at = theta + rng.uniform(-3.0, 3.0, shape) * se
        limits = refit_at + rng.uniform(-0.5, 0.5, shape) * se
        kernel = StepKernel(ds, covs, n_chains, se if refit else None)
        kernel.start(refit_at)
        return kernel, refit_at, limits, specs

    @pytest.mark.parametrize("kind", ["unweighted", "weighted"])
    @pytest.mark.parametrize("baseline", [False, True], ids=["parallel", "baseline"])
    def test_matches_reference_statistic(self, kind, baseline):
        for seed in range(3):
            ds = make_mixed_dataset(baseline, seed=seed)
            kernel, refit_at, limits, specs = self._kernel(ds, kind, seed)
            rng = np.random.default_rng(seed)
            permuted = rng.choice(8, size=4, replace=False)
            signs = sign_block(ds.design, [observed_subset(ds), permuted])
            got = kernel.evaluate(limits, signs.astype(float))
            want = _reference_stats(ds, kind, specs, refit_at, limits, signs)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["unweighted", "weighted"])
    def test_structural_ties_are_exact(self, kind):
        ds = make_mixed_dataset(baseline=False, seed=5)
        kernel, _, limits, _ = self._kernel(ds, kind, 5)
        observed = observed_subset(ds)
        observed_signs, complement = sign_block(
            ds.design, [observed, np.setdiff1d(np.arange(8), observed)]
        )
        for other in (observed_signs, complement):
            signs = np.stack([observed_signs, other]).astype(float)
            obs, perm = kernel.evaluate(limits, signs)
            assert np.array_equal(np.abs(perm), np.abs(obs))

    @pytest.mark.parametrize("kind", ["unweighted", "weighted"])
    def test_stale_chains_refit_at_their_limit(self, kind, monkeypatch):
        # given the SEs, every chain that moved more than REFIT_FRACTION of
        # one refits at its limit, warm-started; a chain whose refit fails
        # keeps its last fit and gets a non-finite statistic
        ds = make_mixed_dataset(baseline=True, seed=4)
        kernel, refit_at, _, specs = self._kernel(ds, kind, 4, refit=True)
        se = np.array([irls_fit(ds, j).naive_se for j in range(ds.n_outcomes)])
        limits = refit_at + np.array([[0.5], [-0.3], [0.2]]) * se
        signs = sign_block(ds.design, [observed_subset(ds), [0, 2, 4, 6]]).astype(float)
        got = kernel.evaluate(limits, signs)
        want = _reference_stats(ds, kind, specs, limits, limits, signs)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

        original = stat_mod.pattern_irls

        def failing(*args):
            coef, xb, status = original(*args)
            status[:] = FIT_NO_CONVERGENCE
            return coef, xb, status

        monkeypatch.setattr(stat_mod, "pattern_irls", failing)
        moved = limits.copy()
        moved[1, 2] += se[2]
        got = kernel.evaluate(moved, signs)
        assert np.isnan(got[:, 1, 2]).all()
        assert kernel.refit_at[1, 2] == limits[1, 2]
        keep = np.ones(limits.shape, dtype=bool)
        keep[1, 2] = False
        np.testing.assert_array_equal(got[:, keep], kernel.evaluate(limits, signs)[:, keep])

    @pytest.mark.parametrize("kind", ["unweighted", "weighted"])
    @pytest.mark.parametrize("covariate", ["binary", "continuous"])
    def test_covariate_patterns_match_reference_statistic(self, kind, covariate):
        # row patterns finer than cells: a binary covariate splits each
        # cell in two, a continuous one makes every row its own pattern
        # (the complement negates the observed signs only without a baseline)
        for seed in range(3):
            baseline = seed == 1
            ds = make_mixed_dataset(baseline, seed=seed, covariate=covariate)
            P, C, T = len(ds.patterns.rep), ds.n_clusters, ds.n_periods
            assert C * T < P < ds.n_obs if covariate == "binary" else P == ds.n_obs
            kernel, refit_at, limits, specs = self._kernel(ds, kind, seed)
            observed = observed_subset(ds)
            observed_signs, complement = sign_block(
                ds.design, [observed, np.setdiff1d(np.arange(8), observed)]
            )
            for other in (observed_signs,) if baseline else (observed_signs, complement):
                signs = np.stack([observed_signs, other])
                got = kernel.evaluate(limits, signs.astype(float))
                want = _reference_stats(ds, kind, specs, refit_at, limits, signs)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                assert np.array_equal(np.abs(got[1]), np.abs(got[0]))


class TestStackedKernel:
    """A stack of started kernels gives every row the statistics of its own kernel, bit for bit."""

    N_ROWS = 4

    def _started(self, ds, covs, seed):
        fits = [irls_fit(ds, j) for j in range(ds.n_outcomes)]
        theta = np.array([f.treatment_effect for f in fits])
        se = np.array([f.naive_se for f in fits])
        rng = np.random.default_rng(seed)
        limits = theta + rng.uniform(-2.0, 2.0, (self.N_ROWS, ds.n_outcomes)) * se
        kernel = StepKernel(ds, covs, self.N_ROWS, se)
        kernel.start(limits)
        return kernel, limits, se

    def _assert_stack_matches(self, datasets, covariances, n_parts):
        inputs = list(enumerate(zip(datasets, covariances)))
        started = [self._started(ds, covs, b) for b, (ds, covs) in inputs]
        own = [kernel for kernel, _, _ in started]
        # the stack gets kernels of its own, so that each side keeps its own fits
        stacked = StepKernel.stack([self._started(ds, covs, b)[0] for b, (ds, covs) in inputs])
        assert len(stacked.parts) == n_parts
        limits = [lim for _, lim, _ in started]
        rng = np.random.default_rng(9)
        for _ in range(6):
            # steps of a few tenths of a standard error: most chains refit
            limits = [lim + rng.normal(0.0, 0.4, lim.shape) * se
                      for lim, (_, _, se) in zip(limits, started)]
            signs = []
            for ds in datasets:
                drawn = rng.permutation(ds.n_clusters)[:ds.n_clusters // 2]
                signs.append(sign_block(ds.design, [observed_subset(ds), drawn]))
            want = [k.evaluate(lim, sg) for k, lim, sg in zip(own, limits, signs)]
            got = stacked.evaluate(np.concatenate(limits), np.stack(signs))
            assert np.array_equal(got, np.concatenate(want, axis=1), equal_nan=True)
            assert np.array_equal(stacked.refit_at, np.concatenate([k.refit_at for k in own]))

    @pytest.mark.parametrize("kind", ["unweighted", "weighted"])
    def test_model3_replicates_join(self, kind):
        # one pattern design, unequal per-dataset fits, treatment and (weighted)
        # working covariances: the replicates' chains share one set of tables
        spec = DgpSpec(model="model3", clusters_per_arm=4, n_per_cluster=6,
                       delta=(0.0, 0.0, 0.0), mu=(-0.5, -0.5, -0.5),
                       sigma2=(1.0, 1.0, 1.0), tau2=(0.05, 0.05, 0.05))
        datasets = [gen_model3(spec, np.random.default_rng(seed)) for seed in range(3)]
        covariances = [None] * 3
        if kind == "weighted":
            covariances = [
                [build_cluster_covariance(s, ds.cell_counts) for s in _working_specs(ds, b)]
                for b, ds in enumerate(datasets)
            ]
        self._assert_stack_matches(datasets, covariances, n_parts=1)

    def test_datasets_of_other_designs_stay_apart(self):
        # a continuous covariate gives each dataset its own pattern design
        datasets = [make_mixed_dataset(True, seed=s, covariate="continuous") for s in (1, 2)]
        self._assert_stack_matches(datasets, [None, None], n_parts=2)


#: every limit, the trace's ends and the fallback warnings of three
#: Q = 400 searches, recorded before the upper and lower chains were
#: stepped together; see :func:`_pin_record`
PIN_FILE = Path(__file__).resolve().parent / "data" / "search_pin.json"
PIN_METHODS = ["none", "bonferroni", "holm", "romano_wolf"]


def _pin_datasets():
    gaussian = make_gaussian_dataset(n_outcomes=2, n_clusters=8, seed=41)
    mixed = make_mixed_dataset(baseline=True, seed=41)
    covs = [build_cluster_covariance(s, mixed.cell_counts) for s in _working_specs(mixed, 41)]
    return {"gaussian": (gaussian, None), "mixed": (mixed, None), "mixed_weighted": (mixed, covs)}


def _pin_record(ds, covs) -> dict:
    """One traced search of every method, as JSON: limits in ``float.hex``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sets = search_all_methods(ds, PIN_METHODS, Q=400, seed=17, covariances=covs, trace=True)
    messages = [str(w.message) for w in caught]
    record = {
        "warnings": {side: [m for m in messages if m.split()[0] == side]
                     for side in ("upper", "lower")},
        "other_warnings": [m for m in messages if m.split()[0] not in ("upper", "lower")],
    }
    for method, cs in sets.items():
        ends = {}
        for side in ("upper", "lower"):
            rows = [r for r in cs.trace if r[0] == side]
            ends[side] = [
                [name, q, j, limit.hex(), rejected, s_j.hex()]
                for name, q, j, limit, rejected, s_j in (rows[0], rows[-1])
            ]
        record[method] = {
            "lower": [x.hex() for x in cs.lower],
            "upper": [x.hex() for x in cs.upper],
            "trace_len": len(cs.trace),
            "trace_ends": ends,
        }
    return record


@pytest.mark.parametrize("name", ["gaussian", "mixed", "mixed_weighted"])
def test_search_is_pinned_bit_for_bit(name):
    # identity, log and logit chains, unweighted and weighted, with the
    # unweighted mixed trial falling back on both sides: any change to the
    # draws, the refit rule, the tie rule, the halfway pull, the warnings
    # or the trace shows here
    expected = json.loads(PIN_FILE.read_text(encoding="utf-8"))[name]
    assert _pin_record(*_pin_datasets()[name]) == expected
