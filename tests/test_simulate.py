"""Generator moment checks and study-driver behaviour."""

import concurrent.futures
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import norm

from crtperm import search, simulate
from crtperm.config import METHODS
from crtperm.errors import ConfigError, NumericalError
from crtperm.glm import estimate_variance_components, irls_fit
from crtperm.simulate import (
    REPLICATE_CHUNK,
    DgpSpec,
    StudySpec,
    draw_ar1_cluster_effects,
    gen_model1,
    gen_model2,
    _mvn_batch,
    gen_model3,
    psd_factor,
    run_study,
)


class TestMvnSample:
    def test_zero_covariance_returns_mean_exactly(self):
        # the eigenvalue fallback factors an all-zero covariance as zero
        rng = np.random.default_rng(0)
        mean = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(psd_factor(np.zeros((3, 3))), np.zeros((3, 3)))
        out = mean + _mvn_batch(np.zeros((3, 3)), 4, rng)
        assert out.shape == (4, 3)
        assert np.all(out == mean)

    def test_identity_covariance_moments(self):
        rng = np.random.default_rng(1)
        L = psd_factor(np.eye(2))
        draws = rng.standard_normal((100_000, 2)) @ L.T
        cov = np.cov(draws.T)
        assert np.all(np.abs(cov - np.eye(2)) < 0.05)

    def test_off_diagonal_correlation(self):
        rng = np.random.default_rng(2)
        target = np.array([[1.0, 0.8], [0.8, 1.0]])
        L = psd_factor(target)
        draws = rng.standard_normal((100_000, 2)) @ L.T
        corr = np.corrcoef(draws.T)[0, 1]
        assert corr == pytest.approx(0.8, abs=0.02)

    def test_indefinite_covariance_rejected(self):
        rng = np.random.default_rng(3)
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="not PSD"):
            psd_factor(bad)
        with pytest.raises(NumericalError, match="not PSD"):
            _mvn_batch(bad, 3, rng)


class TestModel1:
    def test_marginal_variance_without_cluster_effects(self):
        spec = DgpSpec(
            model="model1", clusters_per_arm=2500, n_per_cluster=20,
            tau2=(0.0, 0.0), sigma2=(1.0, 2.0),
        )
        ds = gen_model1(spec, np.random.default_rng(4))
        v = ds.outcomes.var(axis=0)
        assert v[0] == pytest.approx(1.0, rel=0.02)
        assert v[1] == pytest.approx(2.0, rel=0.02)

    def test_intraclass_correlation(self):
        # sigma2 = 1, tau2 = 0.05 gives ICC = 0.05 / 1.05 = 0.047619
        spec = DgpSpec(model="model1", clusters_per_arm=250, n_per_cluster=20)
        ds = gen_model1(spec, np.random.default_rng(5))
        fit = irls_fit(ds, 0)
        s2, t2 = estimate_variance_components(ds, 0, fit)
        icc = t2 / (t2 + s2)
        assert icc == pytest.approx(0.05 / 1.05, abs=0.01)

    def test_cross_outcome_correlation(self):
        spec = DgpSpec(
            model="model1", clusters_per_arm=2500, n_per_cluster=20,
            rho=0.8, pi=0.8,
        )
        ds = gen_model1(spec, np.random.default_rng(6))
        corr = np.corrcoef(ds.outcomes.T)[0, 1]
        assert corr == pytest.approx(0.8, abs=0.02)

    def test_treated_arm_shift(self):
        spec = DgpSpec(
            model="model1", clusters_per_arm=500, n_per_cluster=20,
            delta=(0.0, 0.5),
        )
        ds = gen_model1(spec, np.random.default_rng(7))
        d = ds.treatment.astype(bool)
        assert ds.outcomes[d, 1].mean() - ds.outcomes[~d, 1].mean() == pytest.approx(
            0.5, abs=0.05
        )


class TestModel2:
    def test_poisson_mean_without_cluster_effects(self):
        spec = DgpSpec(model="model2", clusters_per_arm=2500, tau2=(0.0, 0.0))
        ds = gen_model2(spec, np.random.default_rng(8))
        assert ds.outcomes[:, 0].mean() == pytest.approx(np.e, rel=0.01)

    def test_gaussian_unit_variance_without_cluster_effects(self):
        spec = DgpSpec(model="model2", clusters_per_arm=2500, tau2=(0.0, 0.0))
        ds = gen_model2(spec, np.random.default_rng(9))
        assert ds.outcomes[:, 1].var() == pytest.approx(1.0, rel=0.02)

    def test_poisson_mean_with_lognormal_mixing(self):
        # E[exp(mu + theta)] = exp(mu + tau2 / 2) = exp(1.025)
        spec = DgpSpec(model="model2", clusters_per_arm=5000, tau2=(0.05, 0.05))
        ds = gen_model2(spec, np.random.default_rng(10))
        assert ds.outcomes[:, 0].mean() == pytest.approx(np.exp(1.025), rel=0.02)

    def test_outcome_families(self):
        spec = DgpSpec(model="model2", clusters_per_arm=3)
        ds = gen_model2(spec, np.random.default_rng(11))
        assert ds.outcome_specs[0].family == "poisson"
        assert ds.outcome_specs[1].family == "gaussian"


class TestModel3:
    def _spec(self, **kw):
        base = dict(
            model="model3", clusters_per_arm=7, n_per_cluster=20,
            delta=(0.0, 0.0, 0.0), mu=(-1.0, -1.0, -1.0),
            sigma2=(1.0, 1.0, 1.0), tau2=(0.05, 0.05, 0.05),
            period_effect=(1.0, 1.0, 1.0), lam=0.7,
        )
        base.update(kw)
        return DgpSpec(**base)

    def test_across_period_effect_correlation(self):
        theta = draw_ar1_cluster_effects(
            self._spec(), np.random.default_rng(12), n_clusters=10_000
        )
        for l in range(3):
            corr = np.corrcoef(theta[:, l, 0], theta[:, l, 1])[0, 1]
            assert corr == pytest.approx(0.7, abs=0.02)

    def test_outcomes_independent_when_rho_zero(self):
        theta = draw_ar1_cluster_effects(
            self._spec(rho=0.0), np.random.default_rng(13), n_clusters=50_000
        )
        for l, m in ((0, 1), (0, 2), (1, 2)):
            corr = np.corrcoef(theta[:, l, 0], theta[:, m, 0])[0, 1]
            assert corr == pytest.approx(0.0, abs=0.02)

    def test_cross_outcome_effect_correlation(self):
        theta = draw_ar1_cluster_effects(
            self._spec(rho=0.5), np.random.default_rng(14), n_clusters=10_000
        )
        corr = np.corrcoef(theta[:, 0, 0], theta[:, 1, 0])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.02)

    def test_binary_outcome_mean_at_second_period(self):
        # with mu = -1 and period effect 1 the second-period linear
        # predictor is a zero-mean normal; its expit has mean 1/2 by
        # symmetry (quadrature oracle), so the sample mean sits near 0.5
        integrand = lambda x: expit(x) * norm.pdf(x, scale=np.sqrt(0.05))
        oracle, _ = quad(integrand, -np.inf, np.inf)
        assert oracle == pytest.approx(0.5, abs=1e-9)
        ds = gen_model3(self._spec(clusters_per_arm=250), np.random.default_rng(15))
        second = ds.period == 2
        mean = ds.outcomes[second, 2].mean()
        assert 0.47 < mean < 0.53

    def test_design_is_baseline_scheme(self):
        ds = gen_model3(self._spec(), np.random.default_rng(16))
        assert ds.design.scheme == "parallel_with_baseline"
        assert ds.design.arm_sizes == (7, 7)
        assert ds.n_periods == 2

    def test_psd_violation_rejected_at_construction(self):
        with pytest.raises((ConfigError, NumericalError)):
            self._spec(rho=1.5)


class TestRunStudy:
    def _study(self, **kw):
        base = dict(
            dgp=DgpSpec(model="model1", clusters_per_arm=4, n_per_cluster=5),
            methods=("naive", "none", "romano_wolf"),
            replicates=4,
            n_permutations=40,
            n_search_steps=120,
            seed=5,
        )
        base.update(kw)
        return StudySpec(**base)

    def test_single_replicate_degenerate_aggregate(self):
        report = run_study(self._study(replicates=1))
        for summary in report.methods.values():
            assert summary.fwer in (0.0, 1.0)

    def test_smoke_report_fields_populated(self):
        report = run_study(self._study())
        assert report.replicates == 4
        assert report.failures == 0
        for m in ("naive", "none", "romano_wolf"):
            s = report.methods[m]
            assert 0.0 <= s.fwer <= 1.0
            assert s.coverage is not None
            assert len(s.mean_ci_width) == 2

    def test_identical_runs_are_identical(self):
        a = run_study(self._study()).to_dict()
        b = run_study(self._study()).to_dict()
        assert a == b

    def test_worker_count_does_not_change_report(self):
        a = run_study(self._study(), workers=1).to_dict()
        b = run_study(self._study(), workers=2).to_dict()
        assert a == b

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_refused(self, workers):
        # the CLI's rule: no silent fallback to a serial run
        with pytest.raises(ConfigError, match="must be at least 1, got"):
            run_study(self._study(replicates=1), workers=workers)

    def test_search_can_be_skipped(self):
        report = run_study(self._study(run_search=False, methods=("none",)))
        assert report.methods["none"].coverage is None

    def test_from_dict_round_trip(self):
        study = StudySpec.from_dict(
            {
                "model": "model1",
                "clusters_per_arm": 7,
                "delta": [0, 0],
                "replicates": 10,
                "seed": 3,
                "methods": ["none", "holm"],
            }
        )
        assert study.dgp.clusters_per_arm == 7
        assert study.methods == ("none", "holm")
        echoed = study.to_dict()
        assert echoed["model"] == "model1"
        assert echoed["lambda"] == 0.7


#: every kept replicate row of three small studies, floats by ``repr``,
#: recorded before study replicates were searched in chunks; see
#: :func:`_study_pin_record`
STUDY_PIN_FILE = Path(__file__).resolve().parent / "data" / "study_pin.json"


def _pin_studies() -> dict:
    """Identity-link, log-link and weighted three-link studies, small enough for the suite."""
    small = dict(n_permutations=40, n_search_steps=120)
    return {
        "model1": StudySpec(
            dgp=DgpSpec(model="model1", clusters_per_arm=4, n_per_cluster=5, rho=0.3, pi=0.3),
            methods=METHODS, replicates=20, seed=11, **small,
        ),
        "model2": StudySpec(
            dgp=DgpSpec(model="model2", clusters_per_arm=4, n_per_cluster=5),
            methods=("none", "holm", "romano_wolf"), replicates=18,
            seed=12, **small,
        ),
        "model3_weighted": StudySpec(
            dgp=DgpSpec(model="model3", clusters_per_arm=4, n_per_cluster=8,
                        delta=(0.0, 0.2, 0.0), mu=(-1.0,) * 3, sigma2=(1.0,) * 3,
                        tau2=(0.05,) * 3),
            methods=("bonferroni", "romano_wolf"), statistic="weighted",
            replicates=6, seed=13, **small,
        ),
    }


def _by_repr(value):
    """``value`` with every float replaced by its ``repr``, so JSON keeps it bit for bit."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _by_repr(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_by_repr(v) for v in value]
    return value


def _study_pin_record(study: StudySpec) -> dict:
    report = run_study(study, keep_replicates=True)
    return {"failures": report.failures, "rows": _by_repr(report.replicate_rows)}


class TestStudyChunks:
    """Replicates are searched in fixed chunks by replicate index."""

    @pytest.mark.parametrize("name", ["model1", "model2", "model3_weighted"])
    def test_rows_are_pinned_bit_for_bit(self, name):
        expected = json.loads(STUDY_PIN_FILE.read_text(encoding="utf-8"))[name]
        assert _study_pin_record(_pin_studies()[name]) == expected

    def _study(self, replicates):
        return StudySpec(
            dgp=DgpSpec(model="model1", clusters_per_arm=4, n_per_cluster=5),
            methods=("naive", "none", "romano_wolf"),
            replicates=replicates, n_permutations=40, n_search_steps=120, seed=7,
        )

    def test_report_is_the_same_for_any_worker_count_across_chunks(self):
        study = self._study(REPLICATE_CHUNK + 3)
        reports = [run_study(study, workers=w, keep_replicates=True) for w in (1, 2, 3)]
        for report in reports[1:]:
            assert report.to_dict() == reports[0].to_dict()
            assert report.replicate_rows == reports[0].replicate_rows

    def test_pool_never_exceeds_the_chunk_count(self, monkeypatch):
        # records the worker count the study asks for and runs in-process,
        # so no process is started
        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the study imports the pool only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        two_chunks = run_study(self._study(REPLICATE_CHUNK + 3), workers=64)
        one_chunk = run_study(self._study(4), workers=64)
        assert asked == [2]
        assert two_chunks.replicates == REPLICATE_CHUNK + 3 and one_chunk.replicates == 4

    @pytest.mark.parametrize("stage", ["generation", "search start"])
    def test_failed_replicate_leaves_the_rest_of_its_chunk_alone(self, stage, monkeypatch):
        # 50 replicates, so one failure stays within the study's 2%; the
        # failing one sits in the middle of the second chunk
        study = self._study(50)
        bad = REPLICATE_CHUNK + 4
        want = run_study(study, keep_replicates=True).replicate_rows
        generated = []
        generate, sample = simulate.generate_dataset, search.sample_subsets

        def generating(*args):
            generated.append(generate(*args))
            if len(generated) == bad + 1 and stage == "generation":
                raise NumericalError("injected")
            return generated[-1]

        def sampling(design, *args):
            if stage == "search start" and len(generated) > bad and design is generated[bad].design:
                raise NumericalError("injected")
            return sample(design, *args)

        monkeypatch.setattr(simulate, "generate_dataset", generating)
        monkeypatch.setattr(search, "sample_subsets", sampling)
        report = run_study(study, keep_replicates=True)
        assert (report.replicates, report.failures) == (49, 1)
        assert report.replicate_rows == [row for row in want if row["rep"] != bad]
