"""Loading, validation, and round-trip of trial datasets."""

import csv

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
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        for value in ("2", "1.0"):
            path = _write(tmp_path, f"cluster,treatment,y1\nB,1,0.5\nA,{value},1.0\n")
            with pytest.raises(DataValidationError) as err:
                load_dataset(path, cfg)
            assert str(err.value) == (
                f"treatment must be 0 or 1; found {value!r} at data row 2, column 'treatment'"
            )

    def test_missing_value_rejected(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment,y1\nA,0,\nB,1,1.0\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        with pytest.raises(DataValidationError) as err:
            load_dataset(path, cfg)
        assert str(err.value) == "missing value in column 'y1' at data row 1"

    def test_poisson_rejects_negative_and_fractional(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment,y1\nA,0,1\nB,1,2.5\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "poisson")])
        with pytest.raises(DataValidationError, match="non-negative integer"):
            load_dataset(path, cfg)


def _reference_load(path, cfg):
    """Per-row reference parser: the loader's rules spelled out one value at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [r for r in reader if r]
    pos = {name: i for i, name in enumerate(header)}

    def get(row, name):
        return row[pos[name]].strip()

    labels = list(dict.fromkeys(get(r, cfg.cluster_col) for r in rows))
    covariates = cfg.covariate_cols
    ds = TrialDataset(
        cluster_labels=labels,
        cluster_index=[labels.index(get(r, cfg.cluster_col)) for r in rows],
        period=[int(get(r, cfg.time_col)) if cfg.time_col else 1 for r in rows],
        treatment=[int(get(r, cfg.treatment_col)) for r in rows],
        outcomes=[[float(get(r, s.name)) for s in cfg.outcome_specs] for r in rows],
        outcome_specs=cfg.outcome_specs,
        covariates=[[float(get(r, c)) for c in covariates] for r in rows] if covariates else None,
        covariate_names=covariates,
    )
    ds.design = validate_design(ds)
    return ds


def _seeded_trial_file(tmp_path, seed):
    """A valid trial CSV with shuffled rows and columns, padded and quoted fields, CRLF endings."""
    rng = np.random.default_rng(seed)
    C, T = int(rng.integers(4, 9)), int(rng.integers(1, 4))
    baseline = T > 1 and seed % 2 == 0
    treated = rng.permutation(C) < C // 2
    records = []
    for c in range(C):
        for t in range(1, T + 1):
            d = int(treated[c] and (t > 1 or not baseline))
            for _ in range(int(rng.integers(1, 5))):
                records.append({
                    "site": f"site, {c}" if c % 3 else f'"{c}"',
                    "period": str(t),
                    "arm": str(d),
                    "y_gauss": repr(float(rng.normal())),
                    "y_count": str(int(rng.poisson(2.0))),
                    "y_event": str(int(rng.random() < 0.3)),
                    "age": rng.choice([repr(float(rng.normal(50, 10))), f"{rng.normal():.6e}", "1_0"]),
                    "note": rng.choice(["", "x", "a b"]),
                })
    names = list(records[0])
    names = [names[i] for i in rng.permutation(len(names))]
    path = tmp_path / f"trial_{seed}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow([f" {n} " for n in names])
        for k in rng.permutation(len(records)):
            writer.writerow([
                rec if rng.random() < 0.5 else f"  {rec}\t"
                for rec in (records[k][n] for n in names)
            ])
            if rng.random() < 0.1:
                fh.write("\r\n")
    return path, AnalysisConfig(
        cluster_col="site",
        treatment_col="arm",
        time_col="period" if T > 1 or seed % 3 else None,
        covariate_cols=("age",) if seed % 2 else (),
        outcome_specs=(OutcomeSpec("y_gauss", "gaussian"), OutcomeSpec("y_count", "poisson"),
                       OutcomeSpec("y_event", "binomial"))[: 1 + seed % 3],
    )


def _assert_same_dataset(got, want):
    assert got.cluster_labels == want.cluster_labels
    for name in ("cluster_index", "period", "treatment", "outcomes", "covariates"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.outcome_specs == want.outcome_specs
    assert got.covariate_names == want.covariate_names
    assert got.design == want.design


class TestLoaderRules:
    """The parsing rules and error messages of :func:`load_dataset`, one at a time."""

    def _error(self, tmp_path, text, outcomes=("y1",), covariates=(), time_col=None):
        cfg = _config(tmp_path, [OutcomeSpec(n, "gaussian") for n in outcomes],
                      covariates=covariates, time_col=time_col)
        with pytest.raises(DataValidationError) as err:
            load_dataset(_write(tmp_path, text), cfg)
        return str(err.value)

    def test_non_integer_period(self, tmp_path):
        msg = self._error(tmp_path, "cluster,period,treatment,y1\nA,1,0,1.0\nA,1.5,0,2.0\n",
                          time_col="period")
        assert msg == "non-integer time period at data row 2, column 'period'"

    @pytest.mark.parametrize("period", ["99999999999999999999", "-99999999999999999999"])
    def test_period_beyond_int64_is_out_of_range(self, tmp_path, period):
        msg = self._error(tmp_path, f"cluster,period,treatment,y1\nA,1,0,1.0\nA,{period},0,2.0\n",
                          time_col="period")
        assert msg == "time period out of range at data row 2, column 'period'"

    def test_non_numeric_outcome(self, tmp_path):
        msg = self._error(tmp_path, "cluster,treatment,y1,y2\nA,0,1.0,2\nB,1,3.0,two\n",
                          outcomes=("y1", "y2"))
        assert msg == "non-numeric value for outcome 'y2' at data row 2"

    def test_non_numeric_covariate(self, tmp_path):
        msg = self._error(tmp_path, "cluster,treatment,y1,x1\nA,0,1.0,0.5\nB,1,3.0,1.2.3\n",
                          covariates=("x1",))
        assert msg == "non-numeric covariate 'x1' at data row 2"

    def test_short_row_is_a_missing_value(self, tmp_path):
        msg = self._error(tmp_path, "cluster,treatment,y1\nA,0,1.0\nB,1\n")
        assert msg == "missing value in column 'y1' at data row 2"

    def test_blank_field_is_a_missing_value(self, tmp_path):
        msg = self._error(tmp_path, "cluster,treatment,y1\nA,0,1.0\n   ,1,2.0\n")
        assert msg == "missing value in column 'cluster' at data row 2"

    def test_treatment_is_stripped(self, tmp_path):
        path = _write(tmp_path, "cluster,treatment,y1\nA, 0,1.0\nB, 1 ,2.0\n")
        ds = load_dataset(path, _config(tmp_path, [OutcomeSpec("y1", "gaussian")]))
        assert ds.treatment.tolist() == [0, 1]
        assert ds.treatment.dtype == np.int8

    def test_blank_lines_skipped_and_rows_count_data_rows(self, tmp_path):
        msg = self._error(tmp_path, "cluster,treatment,y1\n\nA,0,1.0\n\n\nB,1,x\n")
        assert msg == "non-numeric value for outcome 'y1' at data row 2"

    def test_first_error_in_row_order_wins(self, tmp_path):
        # row 3's cluster is missing, but row 2's outcome comes first
        msg = self._error(tmp_path, "cluster,treatment,y1\nA,0,1.0\nB,1,x\n,1,2.0\n")
        assert msg == "non-numeric value for outcome 'y1' at data row 2"

    @pytest.mark.parametrize("row, message", [
        (("", "x", "0", "1", "2", "3"), "missing value in column 'cluster' at data row 2"),
        (("B", "x", "2", "1", "2", "3"), "non-integer time period at data row 2, column 'period'"),
        (("B", "1", "2", "x", "2", "3"),
         "treatment must be 0 or 1; found '2' at data row 2, column 'treatment'"),
        (("B", "1", "1", "x", "", "3"), "non-numeric value for outcome 'y1' at data row 2"),
        (("B", "1", "1", "1", "", "x"), "missing value in column 'y2' at data row 2"),
        (("B", "1", "1", "1", "2", "x"), "non-numeric covariate 'x1' at data row 2"),
    ])
    def test_within_a_row_roles_are_checked_in_order(self, tmp_path, row, message):
        # roles: cluster, time, treatment, outcomes, covariates; the file
        # holds their columns in the reverse order
        roles = ("cluster", "period", "treatment", "y1", "y2", "x1")
        text = "\n".join(",".join(reversed(r)) for r in (roles, "A10123", row)) + "\n"
        msg = self._error(tmp_path, text, outcomes=("y1", "y2"), covariates=("x1",),
                          time_col="period")
        assert msg == message

    def test_python_number_syntax_is_accepted(self, tmp_path):
        path = _write(tmp_path, "cluster,period,treatment,y1,x1\nA,+1,0,1_0,nan\nB,01,1,-1e-3,inf\n")
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")], covariates=("x1",),
                      time_col="period")
        ds = load_dataset(path, cfg)
        assert ds.period.tolist() == [1, 1]
        assert ds.outcomes[:, 0].tolist() == [10.0, -0.001]
        assert np.isnan(ds.covariates[0, 0]) and ds.covariates[1, 0] == np.inf

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM
        path = _write(tmp_path, "cluster,treatment,y1\r\nA,0,1.5\r\nB,1,2.5\r\n")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        cfg = _config(tmp_path, [OutcomeSpec("y1", "gaussian")])
        _assert_same_dataset(load_dataset(marked, cfg), load_dataset(path, cfg))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_row_reference(self, tmp_path, seed):
        path, cfg = _seeded_trial_file(tmp_path, seed)
        _assert_same_dataset(load_dataset(path, cfg), _reference_load(path, cfg))


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
