"""The statistic kernel: studentization oracles, weighted tables, null residuals."""

import numpy as np
import pytest

from crtperm.data import OutcomeSpec, TrialDataset, validate_design
from crtperm.errors import NumericalError
from crtperm.glm import CovarianceSpec, build_cluster_covariance, irls_fit, nuisance_design
from crtperm.permutation import PermutationPlan, build_stat_matrix, observed_subset, sign_block
from crtperm.statistics import StepKernel, studentize

from conftest import make_gaussian_dataset


def _one_obs_per_cluster(values, treatments):
    """Dataset with one observation per cluster carrying a chosen value."""
    C = len(values)
    ds = TrialDataset(
        cluster_labels=[f"c{c}" for c in range(C)],
        cluster_index=np.arange(C),
        period=np.ones(C, dtype=int),
        treatment=np.asarray(treatments),
        outcomes=np.asarray(values, dtype=float).reshape(-1, 1),
        outcome_specs=(OutcomeSpec("y1", "gaussian"),),
    )
    ds.design = validate_design(ds)
    return ds


def _stat(table, signs) -> float:
    """Statistic of one (C, T) table under one sign matrix."""
    return float(studentize(np.asarray(table, dtype=float), np.asarray(signs)[None])[0])


def _tables(ds, spec=None, delta=0.0):
    """The kernel's (J, C, T) tables with every outcome's effect held at ``delta``.

    ``spec`` gives every outcome that working covariance (the weighted
    statistic); None gives the unweighted one.
    """
    covariances = None
    if spec is not None:
        covariances = [build_cluster_covariance(spec, ds.cell_counts)] * ds.n_outcomes
    at = np.full((1, ds.n_outcomes), delta)
    return StepKernel(ds, covariances, at).tables(at)[0]


class TestUnweightedStat:
    def test_two_cluster_closed_form(self):
        # both clusters treated is not a valid design for sampling, but
        # the statistic itself is well-defined for any sign vector
        t = _stat([[2.0], [2.0]], [[1], [1]])
        assert t == pytest.approx(4.0 / np.sqrt(8.0), abs=1e-12)
        assert t == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_sign_flip_negates_exactly(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=6)
        ds = _one_obs_per_cluster(vals, [0, 1, 0, 1, 0, 1])
        signs = sign_block(ds.design, [(0, 2, 4)])[0]
        table = vals.reshape(-1, 1)
        assert _stat(table, -signs) == -_stat(table, signs)

    def test_four_cluster_arithmetic(self):
        # cluster contributions (1.0, -0.5, 2.0, 0.25), signs (+,-,+,-)
        t = _stat([[1.0], [-0.5], [2.0], [0.25]], [[1], [-1], [1], [-1]])
        num = 1.0 + 0.5 + 2.0 - 0.25
        den = np.sqrt(1.0 + 0.25 + 4.0 + 0.0625)
        assert t == pytest.approx(num / den, abs=1e-12)
        assert t == pytest.approx(1.4100479758, abs=1e-9)

    def test_bounded_by_sqrt_c(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            C = int(rng.integers(2, 9))
            T = int(rng.integers(1, 3))
            signs = rng.choice([-1, 1], size=(C, T))
            t = _stat(rng.normal(size=(C, T)), signs)
            assert abs(t) <= np.sqrt(C) + 1e-12

    def test_degenerate_residuals_raise(self):
        # a constant outcome leaves every null residual at zero
        assert np.isnan(_stat([[0.0], [0.0]], [[1], [-1]]))
        ds = _one_obs_per_cluster([0.0, 0.0], [0, 1])
        with pytest.raises(NumericalError, match="outcome 0: degenerate.*column 0"):
            build_stat_matrix(ds, PermutationPlan(n_draws=0, seed=0))


class TestWeightedStat:
    def _two_cluster_fixture(self, family="gaussian"):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=4) if family == "gaussian" else rng.poisson(3.0, 4).astype(float)
        ds = TrialDataset(
            cluster_labels=["a", "b"],
            cluster_index=np.array([0, 0, 1, 1]),
            period=np.ones(4, dtype=int),
            treatment=np.array([1, 1, 0, 0]),
            outcomes=vals.reshape(-1, 1),
            outcome_specs=(OutcomeSpec("y1", family),),
        )
        ds.design = validate_design(ds)
        return ds, vals

    def test_matches_direct_linear_solve(self):
        ds, vals = self._two_cluster_fixture()
        # V = [[1.05, 0.05], [0.05, 1.05]] in both clusters
        spec = CovarianceSpec("exchangeable", sigma2=1.0, tau2=0.05)
        signs = sign_block(ds.design, [(0,)])[0]
        t = _stat(_tables(ds, spec)[0], signs)
        # oracle: intercept-only null residuals, each 2x2 system solved directly
        r = vals - vals.mean()
        V = np.array([[1.05, 0.05], [0.05, 1.05]])
        w = []
        for c in range(2):
            z = np.linalg.solve(V, r[ds.cluster_index == c])
            sign = 1.0 if c == 0 else -1.0
            w.append(sign * z.sum())
        expected = sum(w) / np.sqrt(sum(x**2 for x in w))
        assert t == pytest.approx(expected, abs=1e-10)

    def test_reduces_to_unweighted_for_scalar_covariance(self):
        ds, _ = self._two_cluster_fixture()
        spec = CovarianceSpec("independent", sigma2=0.7)
        signs = sign_block(ds.design, [(0,)])[0]
        assert _stat(_tables(ds, spec)[0], signs) == pytest.approx(
            _stat(_tables(ds)[0], signs), abs=1e-12
        )

    def test_sign_flip_negates_exactly(self):
        # a log link makes the weights G = exp(-eta) differ from one
        ds, _ = self._two_cluster_fixture("poisson")
        table = _tables(ds, CovarianceSpec("exchangeable", sigma2=0.9, tau2=0.3))[0]
        signs = sign_block(ds.design, [(0,)])[0]
        assert _stat(table, -signs) == -_stat(table, signs)

    def test_common_scale_invariance(self):
        ds, _ = self._two_cluster_fixture("poisson")
        signs = sign_block(ds.design, [(0,)])[0]
        base = _stat(_tables(ds, CovarianceSpec("exchangeable", sigma2=0.9, tau2=0.2))[0], signs)
        scaled = _stat(
            _tables(ds, CovarianceSpec("exchangeable", sigma2=3.7 * 0.9, tau2=3.7 * 0.2))[0],
            signs,
        )
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        # a covariance built for another cell layout
        ds, _ = self._two_cluster_fixture()
        spec = CovarianceSpec("exchangeable", sigma2=1.0, tau2=0.1)
        other = build_cluster_covariance(spec, np.array([[3], [2]]))
        with pytest.raises(ValueError, match="outcome 0 was not built for this dataset"):
            StepKernel(ds, [other], np.zeros((1, ds.n_outcomes)))


class TestResidualsUnderNull:
    """The kernel's tables are cell totals of the residuals of a fit held at delta."""

    def test_perfect_fit_gives_zero_residuals(self):
        # the identity-link closed form at the zero null
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=3, noise_sd=1.0, seed=5)
        fit = irls_fit(ds, 0, delta_fixed=0.0)
        X, _ = nuisance_design(ds)
        expected = ds.cell_totals(ds.outcomes[:, 0] - X @ fit.nuisance_coefs)
        assert np.allclose(_tables(ds)[0], expected, atol=1e-12)

    def test_identity_link_closed_form_with_offset(self):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=3, covariate=True, seed=6)
        fit = irls_fit(ds, 0, delta_fixed=0.5)
        X, _ = nuisance_design(ds)
        expected = ds.cell_totals(
            ds.outcomes[:, 0] - X @ fit.nuisance_coefs - 0.5 * ds.treatment
        )
        assert np.allclose(_tables(ds, delta=0.5)[0], expected, atol=1e-10)

    def test_poisson_log_hand_table(self):
        y = np.array([1.0, 3.0, 2.0, 4.0, 0.0, 2.0])
        ds = TrialDataset(
            cluster_labels=["a", "b", "c"],
            cluster_index=np.array([0, 0, 1, 1, 2, 2]),
            period=np.ones(6, dtype=int),
            treatment=np.array([0, 0, 1, 1, 0, 0]),
            outcomes=y.reshape(-1, 1),
            outcome_specs=(OutcomeSpec("y1", "poisson"),),
        )
        ds.design = validate_design(ds)
        mu0 = irls_fit(ds, 0, delta_fixed=0.5).nuisance_coefs[0]
        d = ds.treatment.astype(float)
        expected = ds.cell_totals(y - np.exp(mu0 + 0.5 * d))
        assert np.allclose(_tables(ds, delta=0.5)[0], expected, atol=1e-10)


class TestStudentizationProperties:
    def test_scaling_all_contributions_leaves_stat_unchanged(self):
        rng = np.random.default_rng(12)
        table = rng.normal(size=(8, 1))
        signs = np.array([[-1], [1]] * 4)
        assert _stat(2.5 * table, signs) == pytest.approx(_stat(table, signs), abs=1e-12)

    def test_weighted_equals_unweighted_gaussian_identity_no_clustering(self):
        # gaussian identity with tau2 = 0: V proportional to identity and
        # G identically 1, so the two statistics coincide
        ds = make_gaussian_dataset(n_clusters=6, n_per_cluster=4, seed=13)
        signs = sign_block(ds.design, observed_subset(ds)[None])[0]
        spec = CovarianceSpec("independent", sigma2=0.9)
        assert _stat(_tables(ds, spec)[0], signs) == pytest.approx(
            _stat(_tables(ds)[0], signs), abs=1e-12
        )
