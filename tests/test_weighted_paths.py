"""Weighted-statistic plumbing through the matrix, search, and analysis."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from crtperm.analysis import analyze
from crtperm.cli import main
from crtperm.config import METHODS, AnalysisConfig
from crtperm.data import TrialDataset, validate_design
from crtperm.glm import (
    CovarianceSpec,
    build_cluster_covariance,
    estimate_variance_components,
    irls_fit,
)
from crtperm.permutation import PermutationPlan, build_stat_matrix
from crtperm.search import rm_search, search_all_methods
from crtperm.simulate import DgpSpec, StudySpec, StudyFailureError, gen_model2, run_study

from conftest import make_gaussian_dataset, make_mixed_dataset


def _covariances(ds, spec):
    """The same working covariance for every outcome."""
    return [build_cluster_covariance(spec, ds.cell_counts)] * ds.n_outcomes


def _scalar_covariances(ds, scale=0.9):
    return _covariances(ds, CovarianceSpec("independent", sigma2=scale))


def _exchangeable_covariances(ds, sigma2, tau2):
    return _covariances(ds, CovarianceSpec("exchangeable", sigma2=sigma2, tau2=tau2))


class TestWeightedMatrix:
    def test_scalar_covariance_reproduces_unweighted(self):
        ds = make_gaussian_dataset(n_outcomes=2, seed=41)
        plan = PermutationPlan(n_draws=80, seed=4, enumerate_exact=False)
        unweighted = build_stat_matrix(ds, plan)
        weighted = build_stat_matrix(ds, plan, covariances=_scalar_covariances(ds))
        assert np.allclose(weighted.values, unweighted.values, atol=1e-12)

    def test_balanced_exchangeable_is_proportional_to_unweighted(self):
        # balanced clusters with identity link: the within-cluster sum of
        # V^{-1} r is the residual sum divided by sigma2 + n tau2, the
        # same scalar in every cluster, so studentization cancels it and
        # the weighted statistic reproduces the unweighted one exactly
        ds = make_gaussian_dataset(n_outcomes=1, cluster_sd=0.6, seed=43)
        plan = PermutationPlan(n_draws=80, seed=4, enumerate_exact=False)
        unweighted = build_stat_matrix(ds, plan)
        weighted = build_stat_matrix(
            ds, plan, covariances=_exchangeable_covariances(ds, 1.0, 0.4)
        )
        assert np.allclose(weighted.values, unweighted.values, atol=1e-12)

    def test_unbalanced_clusters_change_the_weighting(self):
        # unequal cluster sizes give each cluster a different shrinkage
        # factor, so the weighted statistic genuinely differs
        from crtperm.data import OutcomeSpec, TrialDataset, validate_design

        rng = np.random.default_rng(49)
        sizes = [3, 8, 4, 9, 2, 7]
        cluster_index = np.repeat(np.arange(6), sizes)
        n = cluster_index.size
        treated = np.isin(cluster_index, (0, 3, 5)).astype(int)
        y = rng.normal(0, 1, n) + 0.5 * rng.normal(0, 1, 6)[cluster_index]
        ds = TrialDataset(
            cluster_labels=[f"c{c}" for c in range(6)],
            cluster_index=cluster_index,
            period=np.ones(n, dtype=int),
            treatment=treated,
            outcomes=y.reshape(-1, 1),
            outcome_specs=(OutcomeSpec("y1", "gaussian"),),
        )
        ds.design = validate_design(ds)
        plan = PermutationPlan(n_draws=80, seed=4, enumerate_exact=False)
        unweighted = build_stat_matrix(ds, plan)
        weighted = build_stat_matrix(
            ds, plan, covariances=_exchangeable_covariances(ds, 1.0, 0.4)
        )
        assert not np.allclose(weighted.values, unweighted.values)

    def test_missing_covariances_rejected(self):
        ds = make_gaussian_dataset(n_outcomes=2, seed=44)
        with pytest.raises(ValueError, match="one covariance per outcome"):
            build_stat_matrix(
                ds, PermutationPlan(n_draws=10, seed=0),
                covariances=_scalar_covariances(ds)[:1],
            )


class TestWeightedSearch:
    def test_scalar_covariance_reproduces_unweighted_chains(self):
        ds = make_gaussian_dataset(n_outcomes=2, seed=45)
        a = rm_search(ds, "romano_wolf", Q=300, seed=6)
        b = rm_search(
            ds, "romano_wolf", Q=300, seed=6, covariances=_scalar_covariances(ds),
        )
        assert np.allclose(a.lower, b.lower, atol=1e-10)
        assert np.allclose(a.upper, b.upper, atol=1e-10)

    def test_estimated_exchangeable_search_smoke(self):
        ds = make_gaussian_dataset(n_outcomes=2, cluster_sd=0.4, seed=46)
        covs = []
        for j in range(2):
            s2, t2 = estimate_variance_components(ds, j, irls_fit(ds, j))
            spec = CovarianceSpec("exchangeable", sigma2=max(s2, 1e-6), tau2=t2)
            covs.append(build_cluster_covariance(spec, ds.cell_counts))
        cs = rm_search(ds, "holm", Q=300, seed=7, covariances=covs)
        assert np.all(cs.lower < cs.point_estimates)
        assert np.all(cs.point_estimates < cs.upper)


class TestWeightedMemory:
    def test_peak_stays_bounded_as_rows_grow(self):
        # 4 clusters of 1,000 rows with a continuous covariate: every row
        # is its own pattern, so one rows x rows (or patterns x patterns)
        # float matrix per cluster would alone take 32 MB
        ds = make_mixed_dataset(
            False, seed=0, n_clusters=4, covariate="continuous", cell_sizes=(1000, 1001)
        )
        spec = CovarianceSpec("exchangeable", sigma2=1.0, tau2=0.3)
        tracemalloc.start()
        try:
            covs = _covariances(ds, spec)
            build_stat_matrix(ds, PermutationPlan(n_draws=50, seed=1), covariances=covs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # fallback warnings of a 4-cluster search
                search_all_methods(ds, ["none", "romano_wolf"], Q=100, seed=2, covariances=covs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_obs == 4000
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


class TestWeightedAnalysisEndToEnd:
    def _config(self, tmp_path, covariance):
        cfg = {
            "columns": {"cluster": "cluster", "time": "period", "treatment": "treatment"},
            "outcomes": [
                {"name": "y1", "family": "gaussian"},
                {"name": "y2", "family": "gaussian"},
            ],
            "methods": ["none", "romano_wolf"],
            "statistic": "weighted",
            "covariance": covariance,
            "n_permutations": 60,
            "n_search_steps": 150,
            "seed": 5,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    @pytest.mark.parametrize(
        "covariance",
        [
            {"source": "estimate"},
            {"source": "fixed", "structure": "exchangeable", "sigma2": 1.0, "tau2": 0.1},
        ],
        ids=["estimated", "fixed"],
    )
    def test_cli_weighted_analysis(self, tmp_path, covariance):
        ds = make_gaussian_dataset(n_outcomes=2, seed=47)
        data = tmp_path / "d.csv"
        ds.to_csv(data)
        out = tmp_path / "out.json"
        code = main([
            "analyze", "--data", str(data),
            "--config", str(self._config(tmp_path, covariance)),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        for rec in payload["results"]:
            assert 0 < rec["p_adjusted"] <= 1
            assert rec["lower"] < rec["upper"]

    def test_weighted_study_smoke(self):
        study = StudySpec(
            dgp=DgpSpec(model="model2", clusters_per_arm=5, n_per_cluster=8),
            methods=("none",), statistic="weighted",
            replicates=2, n_permutations=30, n_search_steps=120, seed=9,
        )
        report = run_study(study)
        assert report.failures == 0
        assert report.methods["none"].coverage is not None


class TestCollinearCovariate:
    @pytest.mark.parametrize("statistic", ["unweighted", "weighted"])
    def test_constant_covariate_changes_nothing(self, statistic):
        # a covariate equal to the intercept adds no information: every
        # fit, standard error, p-value and limit must stay as it was (to
        # 1e-12 relative for a limit that ran far out)
        ds = make_mixed_dataset(baseline=True, seed=12)
        with_k = TrialDataset(
            cluster_labels=ds.cluster_labels, cluster_index=ds.cluster_index,
            period=ds.period, treatment=ds.treatment, outcomes=ds.outcomes,
            outcome_specs=ds.outcome_specs, covariates=np.ones((ds.n_obs, 1)),
            covariate_names=("k",),
        )
        with_k.design = validate_design(with_k)
        config = AnalysisConfig(
            cluster_col="cluster", treatment_col="treatment",
            outcome_specs=ds.outcome_specs, methods=METHODS, statistic=statistic,
            n_permutations=200, n_search_steps=200, seed=3,
            covariance=(CovarianceSpec("ar1_time", sigma2=1.0, tau2=0.05, lam=0.7)
                        if statistic == "weighted" else None),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want, got = analyze(ds, config).records, analyze(with_k, config).records
        assert len(got) == len(want) == ds.n_outcomes * len(METHODS)
        for a, b in zip(want, got):
            assert (a["outcome"], a["method"]) == (b["outcome"], b["method"])
            for key in ("estimate", "p_unadjusted", "p_adjusted", "lower", "upper"):
                assert b[key] == pytest.approx(a[key], rel=1e-12, abs=1e-12), (a, key)


class TestPearsonDispersion:
    def test_poisson_pearson_sigma2_near_one(self):
        spec = DgpSpec(model="model2", clusters_per_arm=40, n_per_cluster=25,
                       tau2=(0.02, 0.02))
        ds = gen_model2(spec, np.random.default_rng(48))
        fit = irls_fit(ds, 0)
        sigma2, tau2 = estimate_variance_components(ds, 0, fit)
        assert sigma2 == pytest.approx(1.0, abs=0.12)


class TestStudyFailureThreshold:
    def test_too_many_failures_raises(self):
        # a huge true effect separates the binary outcome in every
        # replicate, so every point fit fails
        study = StudySpec(
            dgp=DgpSpec(model="model3", clusters_per_arm=4, n_per_cluster=6,
                        delta=(0.0, 0.0, 50.0), mu=(-1.0,) * 3,
                        sigma2=(1.0,) * 3, tau2=(0.05,) * 3,
                        period_effect=(1.0,) * 3),
            methods=("none",), replicates=4, n_permutations=20,
            seed=3, run_search=False,
        )
        with pytest.raises(StudyFailureError, match="4 of 4"):
            run_study(study)

    def test_cli_exit_code_five(self, tmp_path):
        study = {
            "model": "model3",
            "clusters_per_arm": 4,
            "n_per_cluster": 6,
            "delta": [0.0, 0.0, 50.0],
            "mu": [-1.0, -1.0, -1.0],
            "methods": ["none"],
            "replicates": 4,
            "n_permutations": 20,
            "seed": 3,
            "run_search": False,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study))
        code = main(["simulate", "--study", str(path),
                     "--out", str(tmp_path / "o.json"), "--threads", "1"])
        assert code == 5
