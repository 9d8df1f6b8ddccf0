"""Mean-model fitting, variance components, covariance construction."""

import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from crtperm.data import OutcomeSpec, TrialDataset
from crtperm.errors import DataValidationError, NumericalError
from crtperm.glm import (
    FIT_NO_CONVERGENCE,
    FIT_OVERFLOW,
    FIT_SEPARATION,
    CovarianceSpec,
    PatternDesign,
    batch_derivative,
    batch_mean,
    build_cluster_covariance,
    estimate_variance_components,
    fgls_gaussian,
    irls_fit,
    link_inverse,
    logistic,
    mean_derivative,
    naive_wald,
    nuisance_design,
    pattern_irls,
)

from conftest import cluster_rows, dense_covariance, make_gaussian_dataset, make_mixed_dataset


def _dataset_from_arrays(y, cluster, treatment, family="gaussian", covariates=None,
                         covariate_names=(), period=None):
    n = len(y)
    labels = sorted(set(cluster), key=list(cluster).index)
    index_of = {c: i for i, c in enumerate(labels)}
    ds = TrialDataset(
        cluster_labels=labels,
        cluster_index=np.array([index_of[c] for c in cluster]),
        period=np.ones(n, dtype=int) if period is None else np.asarray(period),
        treatment=np.asarray(treatment),
        outcomes=np.asarray(y, dtype=float).reshape(n, -1),
        outcome_specs=(OutcomeSpec("y1", family),),
        covariates=covariates,
        covariate_names=covariate_names,
    )
    from crtperm.data import validate_design

    ds.design = validate_design(ds)
    return ds


class TestLogistic:
    def test_matches_scipy_expit(self):
        eta = np.linspace(-745.0, 745.0, 200_001)
        np.testing.assert_allclose(logistic(eta), expit(eta), rtol=1e-15, atol=0)

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = logistic(np.array([-1000.0, 1000.0]))
        assert mu[0] == 0.0 and mu[1] == 1.0


class TestIrlsFit:
    def test_constant_gaussian_data(self):
        ds = _dataset_from_arrays(
            y=[3.0] * 6,
            cluster=["A", "A", "A", "B", "B", "B"],
            treatment=[0, 0, 0, 1, 1, 1],
        )
        fit = irls_fit(ds, 0)
        assert fit.nuisance_coefs[0] == pytest.approx(3.0, abs=1e-10)
        assert fit.treatment_effect == pytest.approx(0.0, abs=1e-10)

    def test_poisson_intercept_is_log_mean(self):
        # mean count 2.0 with no treatment variation in the fit offset
        counts = [1, 3, 2, 2, 1, 3, 2, 2]
        ds = _dataset_from_arrays(
            y=counts,
            cluster=["A"] * 4 + ["B"] * 4,
            treatment=[0] * 8,
            family="poisson",
        )
        fit = irls_fit(ds, 0)
        assert fit.nuisance_coefs[0] == pytest.approx(np.log(2.0), abs=1e-6)
        assert fit.treatment_effect == pytest.approx(0.0, abs=1e-6)

    def test_fixed_effect_equals_offset_ols(self):
        # oracle: OLS of (y - 0.5 D) on [1, x] solved by normal equations
        rng = np.random.default_rng(42)
        n = 20
        cluster = [f"c{i // 5}" for i in range(n)]
        treatment = np.repeat([0, 1, 0, 1], 5)
        x = rng.normal(size=n)
        y = 1.0 + 0.5 * treatment + 0.8 * x + rng.normal(size=n)
        ds = _dataset_from_arrays(
            y, cluster, treatment, covariates=x.reshape(-1, 1), covariate_names=("x1",)
        )
        fit = irls_fit(ds, 0, delta_fixed=0.5)
        X = np.column_stack([np.ones(n), x])
        beta = np.linalg.solve(X.T @ X, X.T @ (y - 0.5 * treatment))
        np.testing.assert_allclose(fit.nuisance_coefs, beta, rtol=0, atol=1e-10)
        assert fit.treatment_effect is None

    def test_gaussian_fit_matches_normal_equations(self):
        ds = make_gaussian_dataset(n_clusters=6, n_per_cluster=5, covariate=True, seed=1)
        fit = irls_fit(ds, 0)
        X_nuis, _ = nuisance_design(ds)
        X = np.column_stack([X_nuis, ds.treatment.astype(float)])
        y = ds.outcomes[:, 0]
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        assert fit.nuisance_coefs[0] == pytest.approx(beta[0], abs=1e-8)
        assert fit.treatment_effect == pytest.approx(beta[-1], abs=1e-8)

    def test_constrained_at_estimate_matches_unconstrained(self):
        rng = np.random.default_rng(7)
        n = 40
        cluster = [f"c{i // 10}" for i in range(n)]
        treatment = np.repeat([0, 1, 0, 1], 10)
        lam = np.exp(0.3 + 0.4 * treatment)
        y = rng.poisson(lam).astype(float)
        ds = _dataset_from_arrays(y, cluster, treatment, family="poisson")
        free = irls_fit(ds, 0)
        pinned = irls_fit(ds, 0, delta_fixed=free.treatment_effect)
        assert pinned.nuisance_coefs[0] == pytest.approx(free.nuisance_coefs[0], abs=1e-6)

    def test_linear_predictor_recomputable(self):
        ds = make_gaussian_dataset(covariate=True, seed=2)
        fit = irls_fit(ds, 0)
        X_nuis, _ = nuisance_design(ds)
        eta = X_nuis @ fit.nuisance_coefs + fit.treatment_effect * ds.treatment
        assert np.allclose(eta, fit.linear_predictor, atol=1e-10)

    def test_separation_raises(self):
        y = [0, 0, 0, 0, 1, 1, 1, 1]
        ds = _dataset_from_arrays(
            y,
            cluster=["A"] * 2 + ["B"] * 2 + ["C"] * 2 + ["D"] * 2,
            treatment=[0] * 4 + [1] * 4,
            family="binomial",
        )
        with pytest.raises(NumericalError, match="separation"):
            irls_fit(ds, 0)

    def test_overflowing_offset_raises_numerical_error(self):
        # a fixed effect far out overflows exp(eta): a NumericalError the
        # search can catch, not a failure inside the least-squares solve
        ds = _dataset_from_arrays(
            [1.0, 3.0, 2.0, 4.0, 0.0, 2.0],
            cluster=["A", "A", "B", "B", "C", "C"],
            treatment=[0, 0, 1, 1, 0, 0],
            family="poisson",
        )
        # the package's RuntimeWarning filter turns a leaked overflow warning into a failure
        with pytest.raises(NumericalError, match="overflowed"):
            irls_fit(ds, 0, delta_fixed=1e6)

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(3)
        n = 24
        cluster = [f"c{i // 6}" for i in range(n)]
        treatment = np.repeat([0, 1, 0, 1], 6)
        y = rng.poisson(2.0, n).astype(float)
        ds = _dataset_from_arrays(y, cluster, treatment, family="poisson")
        with pytest.raises(NumericalError, match="did not converge for outcome 'y1' after 1 "):
            irls_fit(ds, 0, max_iter=1)


def _row_irls(X, y, offset, link):
    """Row-level reference fit: Newton-IRLS on every row until the step is ~0.

    Returns the coefficients and the model-based standard error of the
    last one (the inverse information at the fit).
    """
    def mean_and_weight(eta):
        if link == "log":
            mu = np.exp(eta)
            return mu, mu
        mu = 1.0 / (1.0 + np.exp(-eta))
        return mu, mu * (1.0 - mu)

    beta = np.zeros(X.shape[1])
    for _ in range(100):
        mu, w = mean_and_weight(X @ beta + offset)
        step = np.linalg.solve((X * w[:, None]).T @ X, X.T @ (y - mu))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-14:
            break
    mu, w = mean_and_weight(X @ beta + offset)
    cov = np.linalg.inv((X * w[:, None]).T @ X)
    return beta, float(np.sqrt(cov[-1, -1]))


def _pattern_dataset(family, covariate, baseline=False, seed=0):
    """8 clusters of 9-14 rows per period, shuffled; a covariate of the given kind."""
    rng = np.random.default_rng(seed)
    C, T = 8, 2 if baseline else 1
    sizes = rng.integers(9, 15, size=(C, T))
    treated = np.zeros(C, dtype=bool)
    treated[rng.choice(C, size=C // 2, replace=False)] = True
    cluster = np.repeat(np.arange(C), sizes.sum(axis=1))
    period = np.concatenate([np.repeat(np.arange(1, T + 1), sizes[c]) for c in range(C)])
    shuffle = rng.permutation(len(cluster))
    cluster, period = cluster[shuffle], period[shuffle]
    n = len(cluster)
    D = (treated[cluster] & (period == T)).astype(int)
    x = {
        None: np.zeros(n),
        "binary": rng.integers(0, 2, n).astype(float),
        "continuous": rng.normal(size=n),
    }[covariate]
    eta = 0.2 * (period - 1) + 0.4 * D + 0.5 * x + rng.normal(0.0, 0.2, C)[cluster]
    if family == "poisson":
        y = rng.poisson(np.exp(0.5 + eta))
    else:
        y = rng.binomial(1, 1.0 / (1.0 + np.exp(0.3 - eta)))
    return _dataset_from_arrays(
        y, [f"c{c}" for c in cluster], D, family=family,
        covariates=None if covariate is None else x.reshape(-1, 1),
        covariate_names=() if covariate is None else ("x1",), period=period,
    )


class TestPatternIrls:
    """Log and logit fits on row patterns against a row-level reference."""

    @pytest.mark.parametrize("family", ["poisson", "binomial"])
    @pytest.mark.parametrize(
        "covariate, baseline",
        [(None, False), ("binary", False), ("continuous", False), (None, True)],
        ids=["cells", "binary-covariate", "continuous-covariate", "baseline"],
    )
    def test_matches_row_level_fit(self, family, covariate, baseline):
        ds = _pattern_dataset(family, covariate, baseline)
        P, n, C, T = len(ds.patterns.rep), ds.n_obs, ds.n_clusters, ds.n_periods
        if covariate is None:
            assert P == C * T
        elif covariate == "binary":
            assert C * T < P < n
        else:
            assert P == n
        X_nuis, _ = nuisance_design(ds)
        D = ds.treatment.astype(float)
        y = ds.outcomes[:, 0]

        fit = irls_fit(ds, 0)
        beta, se = _row_irls(np.column_stack([X_nuis, D]), y, np.zeros(n), fit.link)
        got = np.append(fit.nuisance_coefs, fit.treatment_effect)
        np.testing.assert_allclose(got, beta, rtol=0, atol=1e-10)
        assert fit.naive_se == pytest.approx(se, rel=0, abs=1e-10)
        np.testing.assert_allclose(
            fit.linear_predictor, np.column_stack([X_nuis, D]) @ beta, rtol=0, atol=1e-10
        )

        pinned = irls_fit(ds, 0, delta_fixed=0.3)
        beta, _ = _row_irls(X_nuis, y, 0.3 * D, fit.link)
        np.testing.assert_allclose(pinned.nuisance_coefs, beta, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            pinned.linear_predictor, X_nuis @ beta + 0.3 * D, rtol=0, atol=1e-10
        )


    @staticmethod
    def _mixed_batch():
        """Log and logit fits on one design, each with its own counts, outcomes and offset."""
        rng = np.random.default_rng(5)
        P = 10
        X = np.column_stack([np.ones(P), np.arange(P) % 2, rng.normal(size=P)])
        D = (np.arange(P) >= 5).astype(float)
        links = np.array(["log", "logit", "log", "logit", "log", "logit"])
        counts = rng.integers(1, 6, (6, P)).astype(float)
        ybar = np.vstack([
            rng.poisson(2.0, P), rng.integers(0, 2, P) * 0.5 + 0.25,
            rng.poisson(2.0, P), X[:, 1],  # the second column separates the fourth fit
            rng.poisson(3.0, P), rng.uniform(0.1, 0.9, P),
        ]).astype(float)
        # the third fit's offset overflows its mean
        offsets = np.array([0.3, -0.2, 1e6, 0.0, 0.1, 0.4])[:, None] * D
        start = np.zeros((6, 3))
        start[3] = [-15.0, 29.0, 0.0]  # one step short of the separation bound
        start[4] = [6.0, -4.0, 3.0]  # far from its fit: still iterating at max_iter
        return PatternDesign.factor(X), counts, ybar, offsets, links, start

    @pytest.mark.parametrize("warm", [True, False], ids=["warm-start", "cold-start"])
    def test_mixed_batch_equals_each_fit_alone(self, warm):
        # a fit's iterates do not depend on the others in its batch: not on
        # their links, counts or outcomes, nor on when they stop
        design, counts, ybar, offsets, links, start = self._mixed_batch()
        start = start if warm else None
        coef, xb, status = pattern_irls(design, counts, ybar, offsets, links, start, max_iter=8)
        if warm:
            assert status.tolist() == [0, 0, FIT_OVERFLOW, FIT_SEPARATION, FIT_NO_CONVERGENCE, 0]
        for b, link in enumerate(links):
            one = slice(b, b + 1)
            alone = pattern_irls(design, counts[one], ybar[one], offsets[one], str(link),
                                 None if start is None else start[one], max_iter=8)
            assert np.array_equal(coef[b], alone[0][0])
            assert np.array_equal(xb[b], alone[1][0])
            assert status[b] == alone[2][0]

    def test_batch_mean_and_derivative_are_each_links_bits(self):
        # the one-exp mean of a mixed batch against link_inverse and
        # mean_derivative, out to overflow, exact 0 and 1, inf and nan
        rng = np.random.default_rng(3)
        tails = [0.0, -0.0, 1e-300, 36.7, 37.0, 709.7, 709.8, 745.2, 1e6, np.inf, np.nan]
        eta = np.concatenate([rng.normal(0.0, 30.0, 400), tails, np.negative(tails)])
        logit = np.array([[False], [True]])
        with np.errstate(over="ignore", invalid="ignore"):
            mu = batch_mean(np.vstack([eta, eta]), logit)
            deriv = batch_derivative(mu, logit)
            for row, link in enumerate(["log", "logit"]):
                assert np.array_equal(mu[row], link_inverse(eta, link), equal_nan=True)
                assert np.array_equal(deriv[row], mean_derivative(mu[row], link),
                                      equal_nan=True)


class TestVarianceComponents:
    def test_pure_between_cluster_variation(self):
        # residuals +1 in half the clusters, -1 in the other half; the
        # ANOVA moment estimator gives sigma2 = 0 exactly and
        # tau2 = C / (C - 1) (the between-cluster mean square of the
        # +-1 cluster means with its C - 1 denominator)
        C, n = 4, 5
        signs = np.repeat([1.0, 1.0, -1.0, -1.0], n)
        ds = _dataset_from_arrays(
            y=signs,
            cluster=[f"c{i // n}" for i in range(C * n)],
            treatment=np.repeat([0, 1, 0, 1], n),
        )
        # constrained intercept-only fit: mean of the +-1 pattern is 0,
        # so the residuals are exactly the +-1 values
        fit = irls_fit(ds, 0, delta_fixed=0.0)
        assert np.allclose(fit.linear_predictor, 0.0)
        sigma2, tau2 = estimate_variance_components(ds, 0, fit)
        assert sigma2 == pytest.approx(0.0, abs=1e-12)
        assert tau2 == pytest.approx(C / (C - 1), abs=1e-12)

    def test_truncation_at_zero(self):
        # within-cluster alternation, zero cluster means: tau2 must truncate
        C, n = 4, 4
        vals = np.tile([1.0, -1.0], C * n // 2)
        ds = _dataset_from_arrays(
            y=vals,
            cluster=[f"c{i // n}" for i in range(C * n)],
            treatment=[0] * n + [1] * n + [0] * n + [1] * n,
        )
        fit = irls_fit(ds, 0, delta_fixed=0.0)
        fit.linear_predictor = np.zeros(C * n)
        sigma2, tau2 = estimate_variance_components(ds, 0, fit)
        assert tau2 == 0.0
        assert sigma2 > 0

    def test_matches_anova_closed_forms(self):
        # independent brute-force oracle for the one-way decomposition
        ds = make_gaussian_dataset(
            n_clusters=4, n_per_cluster=5, cluster_sd=0.5, noise_sd=1.0, seed=11
        )
        fit = irls_fit(ds, 0)
        sigma2, tau2 = estimate_variance_components(ds, 0, fit)

        resid = ds.outcomes[:, 0] - fit.fitted_mean
        groups = [resid[ds.cluster_index == c] for c in range(4)]
        grand = resid.mean()
        ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
        ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
        msw = ssw / (20 - 4)
        msb = ssb / (4 - 1)
        assert sigma2 == pytest.approx(msw, abs=1e-12)
        assert tau2 == pytest.approx(max((msb - msw) / 5, 0.0), abs=1e-12)

    def test_invariant_to_cluster_relabeling(self):
        ds = make_gaussian_dataset(n_clusters=5, n_per_cluster=4, seed=9)
        fit = irls_fit(ds, 0)
        s1, t1 = estimate_variance_components(ds, 0, fit)
        # rebuild with permuted cluster labels (same rows, new label order)
        perm = np.random.default_rng(0).permutation(5)
        relabeled = TrialDataset(
            cluster_labels=[f"z{perm[c]}" for c in range(5)],
            cluster_index=ds.cluster_index,
            period=ds.period,
            treatment=ds.treatment,
            outcomes=ds.outcomes,
            outcome_specs=ds.outcome_specs,
        )
        from crtperm.data import validate_design

        relabeled.design = validate_design(relabeled)
        fit2 = irls_fit(relabeled, 0)
        s2, t2 = estimate_variance_components(relabeled, 0, fit2)
        assert s1 == pytest.approx(s2, abs=1e-12)
        assert t1 == pytest.approx(t2, abs=1e-12)

    def test_single_observation_per_cluster_warns(self):
        ds = _dataset_from_arrays(
            y=[1.0, 2.0, 3.0, 4.0],
            cluster=["A", "B", "C", "D"],
            treatment=[0, 0, 1, 1],
        )
        fit = irls_fit(ds, 0, delta_fixed=0.0)
        with pytest.warns(UserWarning, match="single observation per cluster"):
            sigma2, tau2 = estimate_variance_components(ds, 0, fit)
        assert tau2 == 0.0

    def test_fewer_than_two_clusters_rejected(self):
        ds = _dataset_from_arrays(
            y=[1.0, 2.0, 3.0],
            cluster=["A", "A", "A"],
            treatment=[0, 0, 0],
        )
        fit = irls_fit(ds, 0, delta_fixed=0.0)
        with pytest.raises(DataValidationError, match="at least 2 clusters"):
            estimate_variance_components(ds, 0, fit)


def _assert_matches_dense(spec, layout):
    """The cell form against the dense V_c of every cluster, at rtol 1e-12.

    Checks both Woodbury identities: Z' V^{-1} Z = W N (the cell totals
    of V^{-1} v are W times those of v, here for v the columns of Z) and
    V^{-1} = (I - Z K Z') / sigma2.
    """
    cov = build_cluster_covariance(spec, layout)
    assert cov.W.shape == cov.K.shape == layout.shape + (layout.shape[1],)
    for c, counts in enumerate(layout):
        inv = np.linalg.inv(dense_covariance(spec, counts))
        Z = np.repeat(np.eye(len(counts)), counts, axis=0)
        np.testing.assert_allclose(Z.T @ inv @ Z, cov.W[c] * counts, rtol=1e-12)
        want = (np.eye(len(Z)) - Z @ cov.K[c] @ Z.T) / spec.sigma2
        np.testing.assert_allclose(want, inv, rtol=1e-12)


class TestClusterCovariance:
    """The cell form of the working covariance against the dense V_c oracle."""

    def test_exchangeable_two_observations(self):
        # V = [[1.05, 0.05], [0.05, 1.05]]: one cell of two rows
        spec = CovarianceSpec("exchangeable", sigma2=1.0, tau2=0.05)
        cov = build_cluster_covariance(spec, np.array([[2]]))
        assert cov.W[0, 0, 0] == pytest.approx(1.0 / 1.1, rel=1e-15)
        assert cov.K[0, 0, 0] == pytest.approx(0.05 / 1.1, rel=1e-15)
        _assert_matches_dense(spec, np.array([[2]]))

    def test_zero_tau2_gives_diagonal(self):
        for structure in ("independent", "exchangeable", "ar1_time"):
            spec = CovarianceSpec(structure, sigma2=2.0, tau2=0.0, lam=0.5)
            cov = build_cluster_covariance(spec, np.array([[1, 2]]))
            assert np.array_equal(cov.W[0], 0.5 * np.eye(2))
            assert not cov.K.any()

    def test_ar1_across_period_decay(self):
        # one observation in each of two periods: the cluster-effect
        # covariance across periods is lam * tau2, so W = V^{-1}
        spec = CovarianceSpec("ar1_time", sigma2=1.0, tau2=1.0, lam=0.7)
        cov = build_cluster_covariance(spec, np.array([[1, 1]]))
        np.testing.assert_allclose(
            cov.W[0], np.linalg.inv([[2.0, 0.7], [0.7, 2.0]]), rtol=1e-15
        )

    def test_matches_dense_inverse_on_random_layouts(self):
        rng = np.random.default_rng(5)
        for T in (1, 2, 3):
            for structure in ("independent", "exchangeable", "ar1_time"):
                for tau2, lam in ((0.0, 0.5), (0.8, 0.0), (float(rng.uniform(0.1, 2.0)),
                                                         float(rng.uniform(0.05, 0.95)))):
                    spec = CovarianceSpec(
                        structure, sigma2=float(rng.uniform(0.1, 3.0)), tau2=tau2, lam=lam
                    )
                    _assert_matches_dense(spec, rng.integers(1, 9, size=(4, T)))

    def test_non_positive_sigma2_rejected(self):
        with pytest.raises(ValueError, match="sigma2"):
            CovarianceSpec("exchangeable", sigma2=0.0)


class TestFgls:
    def test_recovers_effect_in_large_balanced_trial(self):
        ds = make_gaussian_dataset(
            n_clusters=30, n_per_cluster=10, effect=1.0, cluster_sd=0.2, seed=21
        )
        est, se = fgls_gaussian(ds, 0)
        assert est == pytest.approx(1.0, abs=0.3)
        assert 0 < se < 0.3

    @pytest.mark.parametrize("baseline", [False, True], ids=["parallel", "baseline"])
    def test_matches_dense_gls(self, baseline):
        # unequal cells and a covariate, against GLS solved on dense V_c
        ds = make_mixed_dataset(baseline, seed=3, covariate="continuous")
        s2, t2 = estimate_variance_components(ds, 0, irls_fit(ds, 0))
        spec = CovarianceSpec("exchangeable", sigma2=s2, tau2=t2)
        X_nuis, _ = nuisance_design(ds)
        X = np.column_stack([X_nuis, ds.treatment])
        y = ds.outcomes[:, 0]
        xtvx, xtvy = 0.0, 0.0
        for c, counts in enumerate(ds.cell_counts):
            idx = cluster_rows(ds, c)
            V = dense_covariance(spec, counts)
            xtvx = xtvx + X[idx].T @ np.linalg.solve(V, X[idx])
            xtvy = xtvy + X[idx].T @ np.linalg.solve(V, y[idx])
        inv = np.linalg.inv(xtvx)
        est, se = fgls_gaussian(ds, 0)
        assert t2 > 0
        assert est == pytest.approx((inv @ xtvy)[-1], rel=1e-10)
        assert se == pytest.approx(np.sqrt(inv[-1, -1]), rel=1e-10)


class TestNaiveWald:
    def test_reusing_point_fits_changes_nothing(self):
        # gaussian (FGLS from the OLS fit), Poisson and binary outcomes
        for baseline in (False, True):
            ds = make_mixed_dataset(baseline, seed=7, covariate="binary")
            fits = [irls_fit(ds, j) for j in range(ds.n_outcomes)]
            assert naive_wald(ds, 0.05, fits) == naive_wald(ds, 0.05)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_matches_scipy_normal_formulas(self, alpha):
        # Gaussian (FGLS), Poisson and binary outcomes
        ds = make_mixed_dataset(True, seed=5)
        z = norm.ppf(1 - alpha / 2)
        for rec in naive_wald(ds, alpha):
            est, se = rec["estimate"], rec["se"]
            assert rec["p"] == pytest.approx(2 * norm.sf(abs(est) / se), rel=1e-12)
            assert rec["lower"] == pytest.approx(est - z * se, rel=1e-12)
            assert rec["upper"] == pytest.approx(est + z * se, rel=1e-12)
