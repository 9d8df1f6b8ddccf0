"""Loading, validation, and round-trip of trial datasets."""

import numpy as np
import pytest

from crtperm.config import AnalysisConfig
from crtperm.data import (
    OutcomeSpec,
    TrialDataset,
    load_dataset,
    validate_design,
)
from crtperm.errors import DataValidationError, DesignError

from conftest import make_baseline_dataset, make_gaussian_dataset


def _config(tmp_path, outcomes, covariates=(), time_col=None):
    return AnalysisConfig(
        cluster_col="cluster",
        treatment_col="treatment",
        time_col=time_col,
        covariate_cols=tuple(covariates),
        outcome_specs=tuple(outcomes),
    )


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_minimal_two_cluster_file(self, tmp_path):
        path = _write(
            tmp_path,
            "cluster,treatment,y1\nA,0,1.5\nA,0,2.5\nB,1,3.0\nB,1,1.0\n",
        )
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        ds = load_dataset(path, cfg)
        assert ds.n_clusters == 2
        assert ds.n_periods == 1
        assert ds.n_outcomes == 1
        assert ds.design.scheme == "parallel"
        assert ds.cluster_labels == ("A", "B")
        assert np.array_equal(ds.cluster_index, [0, 0, 1, 1])

    def test_treatment_varies_within_cluster_period(self, tmp_path):
        path = _write(
            tmp_path,
            "cluster,treatment,y1\nA,0,1.0\nA,1,2.0\nB,1,3.0\n",
        )
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        with pytest.raises(DataValidationError, match="treatment varies within cluster-period"):
            load_dataset(path, cfg)

    def test_treatment_conflict_names_first_offending_row(self, tmp_path):
        # cell (A, 1) comes first in the file and in cell order, but its
        # conflicting row (row 5) comes after the one of cell (B, 2) (row 4)
        path = _write(
            tmp_path,
            "cluster,period,treatment,y1\n"
            "A,1,0,1.0\nB,2,1,2.0\nB,1,0,3.0\nB,2,0,4.0\nA,1,1,5.0\nA,2,0,6.0\n",
        )
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")], time_col="period")
        with pytest.raises(DataValidationError) as err:
            load_dataset(path, cfg)
        assert str(err.value) == (
            "treatment varies within cluster-period (cluster 'B', period 2)"
        )

    def test_binomial_value_out_of_domain_names_row_and_column(self, tmp_path):
        path = _write(
            tmp_path,
            "cluster,treatment,y1\nA,0,0\nA,0,2\nB,1,1\n",
        )
        cfg = _config(tmp_path, [OutcomeSpec("y1", "binomial")])
        with pytest.raises(DataValidationError, match=r"'y1'.*row 2"):
            load_dataset(path, cfg)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment\nA,0\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        with pytest.raises(DataValidationError, match="missing column: y1"):
            load_dataset(path, cfg)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment,y1\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        with pytest.raises(DataValidationError, match="empty file"):
            load_dataset(path, cfg)

    def test_non_binary_treatment(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment,y1\nA,2,1.0\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        with pytest.raises(DataValidationError, match="treatment must be 0 or 1"):
            load_dataset(path, cfg)

    def test_missing_value_rejected(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment,y1\nA,0,\nB,1,1.0\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        with pytest.raises(DataValidationError, match="missing value"):
            load_dataset(path, cfg)

    def test_poisson_rejects_negative_and_fractional(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment,y1\nA,0,1\nB,1,2.5\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "poisson")])
        with pytest.raises(DataValidationError, match="non-negative integer"):
            load_dataset(path, cfg)


class TestValidateDesign:
    def test_parallel_seven_per_arm(self):
        ds = make_gaussian_dataset(n_clusters=14, n_per_cluster=2, n_treated=7)
        info = validate_design(ds)
        assert info.scheme == "parallel"
        assert info.arm_sizes == (7, 7)

    def test_parallel_with_baseline(self):
        ds = make_baseline_dataset(n_clusters=14)
        info = validate_design(ds)
        assert info.scheme == "parallel_with_baseline"
        assert info.arm_sizes == (7, 7)
        assert info.n_periods == 2

    def test_treatment_removal_unsupported(self):
        # cluster A is treated in period 1 and untreated in period 2
        ds = TrialDataset(
            cluster_labels=["A", "B"],
            cluster_index=np.repeat([0, 1], 4),
            period=np.tile([1, 1, 2, 2], 2),
            treatment=[1, 1, 0, 0, 0, 0, 0, 0],
            outcomes=np.zeros(8),
            outcome_specs=(OutcomeSpec("y1", "gaussian"),),
        )
        with pytest.raises(DesignError, match="unsupported design"):
            validate_design(ds)

    def test_idempotent_and_pure(self, gaussian_dataset):
        a = validate_design(gaussian_dataset)
        b = validate_design(gaussian_dataset)
        assert a == b


class TestRoundTrip:
    def test_csv_round_trip_is_exact(self, tmp_path):
        ds = make_gaussian_dataset(n_clusters=4, n_per_cluster=3, covariate=True, seed=3)
        path = tmp_path / "roundtrip.csv"
        ds.to_csv(path)
        cfg = AnalysisConfig(
            cluster_col="cluster",
            treatment_col="treatment",
            time_col="period",
            covariate_cols=("x1",),
            outcome_specs=ds.outcome_specs,
        )
        back = load_dataset(path, cfg)
        assert back.cluster_labels == ds.cluster_labels
        assert np.array_equal(back.cluster_index, ds.cluster_index)
        assert np.array_equal(back.period, ds.period)
        assert np.array_equal(back.treatment, ds.treatment)
        assert np.array_equal(back.outcomes, ds.outcomes)
        assert np.array_equal(back.covariates, ds.covariates)
        assert back.design == ds.design

    def test_arrays_are_read_only(self, gaussian_dataset):
        with pytest.raises(ValueError):
            gaussian_dataset.outcomes[0, 0] = 99.0


class TestRowPatterns:
    @pytest.mark.parametrize("covariates", [None, "binary", "continuous"])
    def test_patterns_group_rows_by_cell_and_covariates(self, covariates):
        # two periods, shuffled rows, three rows per cell
        rng = np.random.default_rng(4)
        C, T, m = 4, 2, 3
        cluster = np.repeat(np.arange(C), T * m)
        period = np.tile(np.repeat([1, 2], m), C)
        shuffle = rng.permutation(len(cluster))
        cluster, period = cluster[shuffle], period[shuffle]
        n = len(cluster)
        x = {None: None, "binary": rng.integers(0, 2, (n, 1)).astype(float),
             "continuous": rng.normal(size=(n, 1))}[covariates]
        ds = TrialDataset(
            cluster_labels=[f"c{c}" for c in range(C)],
            cluster_index=cluster,
            period=period,
            treatment=((cluster % 2 == 1) & (period == 2)).astype(int),
            outcomes=rng.normal(size=(n, 2)),
            outcome_specs=(OutcomeSpec("y1", "gaussian"), OutcomeSpec("y2", "gaussian")),
            covariates=x,
            covariate_names=() if x is None else ("x1",),
        )
        pat = ds.patterns
        P = len(pat.rep)
        key = np.column_stack([ds.group_key, ds.covariates])
        expected = len({tuple(row) for row in key})
        assert P == expected
        if covariates is None:
            assert P == C * T
        elif covariates == "continuous":
            assert P == n
        # every row shares its cell and covariates with its pattern's representative
        assert np.array_equal(key, key[pat.rep][pat.of_row])
        assert np.array_equal(pat.cell, ds.group_key[pat.rep])
        assert np.all(np.diff(pat.cell) >= 0)  # each cluster's patterns are contiguous
        assert np.array_equal(pat.counts, np.bincount(pat.of_row, minlength=P))
        for j in range(2):
            want = [ds.outcomes[pat.of_row == p, j].sum() for p in range(P)]
            np.testing.assert_allclose(pat.ysum[:, j], want, rtol=1e-14, atol=1e-14)


class TestOutcomeSpec:
    def test_canonical_link_filled_in(self):
        assert OutcomeSpec("y", "poisson").link == "log"

    def test_unsupported_pair_rejected(self):
        with pytest.raises(DataValidationError, match="unsupported family/link"):
            OutcomeSpec("y", "gaussian", "log")

    def test_unknown_family_rejected(self):
        with pytest.raises(DataValidationError):
            OutcomeSpec("y", "gamma")
