"""Command-line surface: exit codes, schemas, determinism."""

import builtins
import json
import os
import subprocess
import sys

import pytest

import crtperm.cli
from crtperm.cli import main

from conftest import make_gaussian_dataset


def _write_data(tmp_path, n_outcomes=2, seed=0, **kw):
    ds = make_gaussian_dataset(n_outcomes=n_outcomes, seed=seed, **kw)
    path = tmp_path / "trial.csv"
    ds.to_csv(path)
    return path, ds


def _analysis_config(tmp_path, outcomes, **overrides):
    cfg = {
        "schema_version": 1,
        "columns": {"cluster": "cluster", "time": "period", "treatment": "treatment"},
        "outcomes": outcomes,
        "alpha": 0.05,
        "methods": ["naive", "none", "bonferroni", "holm", "romano_wolf"],
        "n_permutations": 60,
        "n_search_steps": 150,
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _study_file(tmp_path, **overrides):
    study = {
        "model": "model1",
        "clusters_per_arm": 4,
        "n_per_cluster": 5,
        "delta": [0, 0],
        "methods": ["none", "romano_wolf"],
        "replicates": 3,
        "n_permutations": 30,
        "n_search_steps": 120,
        "seed": 2,
    }
    study.update(overrides)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(study), encoding="utf-8")
    return path


class TestAnalyze:
    def test_schema_conformance(self, tmp_path):
        data, ds = _write_data(tmp_path)
        cfg = _analysis_config(
            tmp_path,
            [{"name": "y1", "family": "gaussian"}, {"name": "y2", "family": "gaussian"}],
        )
        out = tmp_path / "out.json"
        code = main(["analyze", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["outcomes"] == ["y1", "y2"]
        assert len(payload["results"]) == 2 * 5
        for rec in payload["results"]:
            assert 0 < rec["p_unadjusted"] <= 1
            assert 0 < rec["p_adjusted"] <= 1
            assert rec["lower"] < rec["upper"]
        assert payload["timings"]["total_s"] > 0
        # stable ordering: outcomes in declaration order, methods canonical
        methods = [r["method"] for r in payload["results"][:5]]
        assert methods == ["naive", "none", "bonferroni", "holm", "romano_wolf"]

    def test_missing_outcomes_field_exits_two(self, tmp_path, capsys):
        data, _ = _write_data(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"columns": {"cluster": "cluster", "treatment": "treatment"}}))
        code = main(["analyze", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "missing field: outcomes" in capsys.readouterr().err

    def test_data_validation_error_exits_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster,period,treatment,y1\nA,1,0,1.0\nA,1,1,2.0\n")
        cfg = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}])
        code = main(["analyze", "--data", str(bad), "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 3

    def test_period_beyond_int64_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "huge_period.csv"
        bad.write_text("cluster,period,treatment,y1\nA,1,0,1.0\nB,99999999999999999999,1,2.0\n")
        cfg = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}])
        code = main(["analyze", "--data", str(bad), "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert "data error: time period out of range at data row 2, column 'period'" in err
        assert "Traceback" not in err

    def test_numerical_failure_exits_four(self, tmp_path):
        # perfectly separated binomial outcome
        rows = ["cluster,period,treatment,y1"]
        for c in range(8):
            treated = int(c >= 4)
            for _ in range(3):
                rows.append(f"c{c},1,{treated},{treated}")
        bad = tmp_path / "sep.csv"
        bad.write_text("\n".join(rows) + "\n")
        cfg = _analysis_config(tmp_path, [{"name": "y1", "family": "binomial"}])
        code = main(["analyze", "--data", str(bad), "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 4

    def test_single_outcome_stepdown_equals_uncorrected(self, tmp_path):
        data, _ = _write_data(tmp_path, n_outcomes=1, seed=3)
        cfg = _analysis_config(
            tmp_path,
            [{"name": "y1", "family": "gaussian"}],
            methods=["none", "romano_wolf"],
        )
        out = tmp_path / "out.json"
        assert main(["analyze", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        rec = {r["method"]: r for r in payload["results"]}
        assert rec["none"]["p_adjusted"] == rec["romano_wolf"]["p_adjusted"]
        assert rec["none"]["lower"] == rec["romano_wolf"]["lower"]
        assert rec["none"]["upper"] == rec["romano_wolf"]["upper"]

    def test_trace_output(self, tmp_path):
        data, _ = _write_data(tmp_path, n_outcomes=1, seed=5)
        cfg = _analysis_config(
            tmp_path, [{"name": "y1", "family": "gaussian"}], methods=["none"]
        )
        trace = tmp_path / "trace.csv"
        code = main([
            "analyze", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.json"), "--trace", str(trace),
        ])
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "method,side,q,outcome,limit,rejected,s_j"
        assert len(lines) == 1 + 2 * 150  # both chains, Q steps each


class TestSimulate:
    def test_smoke_report(self, tmp_path):
        study = _study_file(tmp_path)
        out = tmp_path / "report.json"
        assert main(["simulate", "--study", str(study), "--out", str(out), "--threads", "1"]) == 0
        report = json.loads(out.read_text())
        assert report["replicates"] == 3
        for m in ("none", "romano_wolf"):
            assert "fwer" in report["methods"][m]
            assert report["methods"][m]["coverage"] is not None

    def test_byte_identical_reports(self, tmp_path):
        study = _study_file(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", "--study", str(study), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["simulate", "--study", str(study), "--out", str(out2), "--threads", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides(self, tmp_path):
        study = _study_file(tmp_path)
        out = tmp_path / "report.json"
        assert main([
            "simulate", "--study", str(study), "--out", str(out),
            "--replicates", "2", "--seed", "9", "--threads", "1",
        ]) == 0
        report = json.loads(out.read_text())
        assert report["replicates"] == 2
        assert report["settings"]["seed"] == 9

    def test_schema_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"clusters_per_arm": 4}))
        assert main(["simulate", "--study", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    def test_replicate_dump(self, tmp_path):
        study = _study_file(tmp_path, methods=["none"])
        out = tmp_path / "report.json"
        dump = tmp_path / "reps.csv"
        assert main([
            "simulate", "--study", str(study), "--out", str(out),
            "--dump", str(dump), "--threads", "1",
        ]) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0].startswith("replicate,method,outcome")
        assert len(lines) == 1 + 3 * 2  # 3 replicates x 2 outcomes


# each bad setting with the part of the message that names the problem
BAD_SETTINGS = {
    "alpha_half": ({"alpha": 0.5}, "alpha must be in (0, 0.5)"),
    "alpha_zero": ({"alpha": 0.0}, "alpha must be in (0, 0.5)"),
    "alpha_text": ({"alpha": "five percent"}, "alpha must be a number"),
    "seed_text": ({"seed": "one"}, "seed must be a number"),
    "seed_negative": ({"seed": -1}, "seed must be non-negative"),
    "count_text": ({"n_permutations": "many"}, "n_permutations must be a number"),
    "count_fractional": ({"n_permutations": 10.5}, "n_permutations must be a whole number"),
    "too_few_search_steps": ({"n_search_steps": 50}, "n_search_steps must be >= 100"),
    "methods_string": ({"methods": "holm"}, "methods must be a list"),
    "methods_empty": ({"methods": []}, "methods must name at least one method"),
    "methods_repeated": ({"methods": ["holm", "none", "holm"]},
                         "methods must not repeat a method, got ['holm', 'none', 'holm']"),
}
# column roles and outcomes of an analysis config that the config check refuses
ROLES = {"cluster": "cluster", "time": "period", "treatment": "treatment"}
BAD_ROLES = {
    "covariates_string": ({"columns": {**ROLES, "covariates": "age"}},
                          "columns.covariates must be a list of column names, got 'age'"),
    "covariates_number_entry": ({"columns": {**ROLES, "covariates": ["age", 3]}},
                                "columns.covariates must be a list of column names"),
    "cluster_list": ({"columns": {**ROLES, "cluster": ["site"]}},
                     "columns.cluster must be a column name, got ['site']"),
    "treatment_number": ({"columns": {**ROLES, "treatment": 1}},
                         "columns.treatment must be a column name, got 1"),
    "time_list": ({"columns": {**ROLES, "time": ["period"]}},
                  "columns.time must be a column name, got ['period']"),
    "outcome_repeated": ({"outcomes": [{"name": "y1", "family": "gaussian"},
                                       {"name": "y1", "family": "gaussian"}]},
                         "outcome names must be unique, got ['y1', 'y1']"),
    "outcome_name_list": ({"outcomes": [{"name": ["y1"], "family": "gaussian"}]},
                          "outcome name must be a string, got ['y1']"),
}
# a malformed fixed covariance block for the weighted statistic, with its message
BAD_COVARIANCES = {
    "sigma2_negative": ({"sigma2": -1}, "covariance: sigma2 must be positive, got -1.0"),
    "sigma2_text": ({"sigma2": "x"}, "covariance: sigma2 must be a number, got 'x'"),
    "structure_unknown": ({"structure": "banded"},
                          "covariance: unknown covariance structure: 'banded'"),
    "lambda_out_of_range": ({"structure": "ar1_time", "lambda": 1.5},
                            "covariance: lambda must be in [0, 1), got 1.5"),
    "not_an_object": ([1, 2], "covariance must be an object, got [1, 2]"),
    "unknown_key": ({"rho": 0.3}, "unknown covariance field(s) for source 'fixed': ['rho']"),
}
STUDY_ONLY_SETTINGS = {
    "replicates_text": ({"replicates": "ten"}, "replicates must be a number"),
    "clusters_text": ({"clusters_per_arm": "four"}, "clusters_per_arm must be a number"),
    "delta_scalar": ({"delta": 0.5}, "delta must be a list of numbers, got 0.5"),
    "delta_text_entry": ({"delta": ["a", 0]}, "delta must be a list of numbers, got ['a', 0]"),
    "mu_null_entry": ({"mu": [1.0, None]}, "mu must be a list of numbers, got [1.0, None]"),
    "sigma2_bool_entry": ({"sigma2": [1.0, True]}, "sigma2 must be a list of numbers"),
    "tau2_text": ({"tau2": "small"}, "tau2 must be a list of numbers, got 'small'"),
    "period_effect_text_entry": ({"period_effect": [1, 1, "x"]},
                                 "period_effect must be a list of numbers"),
    "run_search_text": ({"run_search": "false"}, "run_search must be true or false, got 'false'"),
    "run_search_number": ({"run_search": 0}, "run_search must be true or false, got 0"),
}


class TestConfigErrors:
    """Every bad setting exits 2 with a message, never with a traceback."""

    @staticmethod
    def _assert_config_error(code, capsys, message):
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("override, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
    def test_analyze(self, tmp_path, capsys, override, message):
        data, _ = _write_data(tmp_path)
        cfg = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}], **override)
        code = main([
            "analyze", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.json"),
        ])
        self._assert_config_error(code, capsys, message)

    @pytest.mark.parametrize("override, message", BAD_ROLES.values(), ids=BAD_ROLES.keys())
    def test_analyze_column_roles_and_outcomes(self, tmp_path, capsys, override, message):
        data, _ = _write_data(tmp_path)
        outcomes = [{"name": "y1", "family": "gaussian"}]
        cfg = _analysis_config(tmp_path, **{"outcomes": outcomes, **override})
        code = main([
            "analyze", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.json"),
        ])
        self._assert_config_error(code, capsys, message)

    @pytest.mark.parametrize(
        "override, message",
        [*BAD_SETTINGS.values(), *STUDY_ONLY_SETTINGS.values()],
        ids=[*BAD_SETTINGS.keys(), *STUDY_ONLY_SETTINGS.keys()],
    )
    def test_simulate(self, tmp_path, capsys, override, message):
        study = _study_file(tmp_path, **override)
        code = main(["simulate", "--study", str(study), "--out", str(tmp_path / "o.json")])
        self._assert_config_error(code, capsys, message)

    @pytest.mark.parametrize("flag", ["--replicates", "--seed"])
    def test_simulate_flag_on_a_study_that_is_not_an_object(self, tmp_path, capsys, flag):
        study = tmp_path / "study.json"
        study.write_text("[1, 2]", encoding="utf-8")
        code = main([
            "simulate", "--study", str(study), "--out", str(tmp_path / "o.json"), flag, "3",
        ])
        self._assert_config_error(code, capsys, "study must be a JSON object")

    def test_simulate_negative_seed_flag(self, tmp_path, capsys):
        study = _study_file(tmp_path)
        code = main([
            "simulate", "--study", str(study), "--out", str(tmp_path / "o.json"),
            "--seed", "-1",
        ])
        self._assert_config_error(code, capsys, "seed must be non-negative")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_simulate_threads_below_one(self, tmp_path, capsys, threads):
        study = _study_file(tmp_path)
        code = main([
            "simulate", "--study", str(study), "--out", str(tmp_path / "o.json"),
            "--threads", threads,
        ])
        self._assert_config_error(
            code, capsys,
            f"the worker count (--threads or CRTPERM_THREADS) must be at least 1, got {threads}",
        )

    def test_simulate_threads_env_below_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CRTPERM_THREADS", "0")
        study = _study_file(tmp_path)
        code = main(["simulate", "--study", str(study), "--out", str(tmp_path / "o.json")])
        self._assert_config_error(
            code, capsys,
            "the worker count (--threads or CRTPERM_THREADS) must be at least 1, got 0",
        )

    @pytest.mark.parametrize(
        "block, message", BAD_COVARIANCES.values(), ids=BAD_COVARIANCES.keys()
    )
    def test_analyze_malformed_covariance(self, tmp_path, capsys, block, message):
        if isinstance(block, dict):
            block = {"source": "fixed", **block}
        data, _ = _write_data(tmp_path)
        cfg = _analysis_config(
            tmp_path, [{"name": "y1", "family": "gaussian"}],
            statistic="weighted", covariance=block,
        )
        code = main([
            "analyze", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.json"),
        ])
        self._assert_config_error(code, capsys, message)

    def test_analyze_rejects_fixed_covariance_when_unweighted(self, tmp_path, capsys):
        # only the weighted statistic uses a working covariance, so a fixed
        # one with the unweighted statistic would be silently ignored
        data, _ = _write_data(tmp_path)
        cfg = _analysis_config(
            tmp_path, [{"name": "y1", "family": "gaussian"}],
            statistic="unweighted", covariance={"source": "fixed", "tau2": 0.1},
        )
        code = main([
            "analyze", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.json"),
        ])
        self._assert_config_error(
            code, capsys, "a fixed covariance needs statistic: weighted, got 'unweighted'"
        )

    def test_analyze_accepts_estimated_covariance_when_unweighted(self, tmp_path):
        # {"source": "estimate"} is the same as no block: the module docstring's example
        data, _ = _write_data(tmp_path)
        cfg = _analysis_config(
            tmp_path, [{"name": "y1", "family": "gaussian"}],
            methods=["none"], covariance={"source": "estimate"},
        )
        code = main([
            "analyze", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.json"),
        ])
        assert code == 0

    def test_analyze_rejects_one_sided(self, tmp_path, capsys):
        # p-values and limits must test the same hypotheses, and the
        # confidence-limit search is two-sided
        data, _ = _write_data(tmp_path)
        cfg = _analysis_config(
            tmp_path, [{"name": "y1", "family": "gaussian"}], sided="one_sided"
        )
        code = main([
            "analyze", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.json"),
        ])
        self._assert_config_error(
            code, capsys,
            "sided must be 'two_sided', got 'one_sided': the confidence-limit search is two-sided",
        )

    def test_analyze_has_no_threads_flag(self, tmp_path, capsys):
        # the analysis runs on one thread; only simulate takes a worker cap
        data, _ = _write_data(tmp_path)
        cfg = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}])
        with pytest.raises(SystemExit) as exc:
            main([
                "analyze", "--data", str(data), "--config", str(cfg),
                "--out", str(tmp_path / "o.json"), "--threads", "2",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestUnreadableFiles:
    """A file that cannot be read or written exits with its code and a message, no traceback."""

    NOT_UTF8 = b"cluster,period,treatment,y1\n\xff\xfe,1,0,1.0\n"

    @staticmethod
    def _run(capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def _analyze(self, tmp_path, capsys, data=None, config=None, out=None):
        if data is None:
            data, _ = _write_data(tmp_path, n_outcomes=1)
        if config is None:
            config = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}],
                                      methods=["none"])
        out = out or tmp_path / "o.json"
        return self._run(capsys, ["analyze", "--data", str(data), "--config", str(config),
                                  "--out", str(out)])

    def test_data_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "latin.csv"
        data.write_bytes(self.NOT_UTF8)
        code, err = self._analyze(tmp_path, capsys, data=data)
        assert code == 3
        assert f"data error: cannot read {data}: not valid UTF-8" in err

    def test_data_is_a_directory(self, tmp_path, capsys):
        code, err = self._analyze(tmp_path, capsys, data=tmp_path)
        assert code == 3
        assert f"data error: cannot read {tmp_path}: Is a directory" in err

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"alpha": "\xff"}')
        code, err = self._analyze(tmp_path, capsys, config=config)
        assert code == 2
        assert f"config error: cannot read {config}: not valid UTF-8" in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        code, err = self._analyze(tmp_path, capsys, config=tmp_path)
        assert code == 2
        assert f"config error: cannot read {tmp_path}: Is a directory" in err

    def test_analyze_out_is_a_directory(self, tmp_path, capsys):
        code, err = self._analyze(tmp_path, capsys, out=tmp_path)
        assert code == 2
        assert f"config error: cannot write {tmp_path}: Is a directory" in err

    def test_study_not_utf8(self, tmp_path, capsys):
        study = tmp_path / "study.json"
        study.write_bytes(b'{"model": "\xff"}')
        code, err = self._run(capsys, ["simulate", "--study", str(study),
                                       "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert f"config error: cannot read {study}: not valid UTF-8" in err

    def test_study_is_a_directory(self, tmp_path, capsys):
        code, err = self._run(capsys, ["simulate", "--study", str(tmp_path),
                                       "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert f"config error: cannot read {tmp_path}: Is a directory" in err

    def test_simulate_out_is_a_directory(self, tmp_path, capsys):
        study = _study_file(tmp_path, replicates=1)
        code, err = self._run(capsys, ["simulate", "--study", str(study), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: cannot write {tmp_path}: Is a directory" in err

    @staticmethod
    def _spy(monkeypatch, name):
        """Record every call of the CLI's ``name`` instead of making it."""
        calls = []
        monkeypatch.setattr(crtperm.cli, name, lambda *a, **k: calls.append(a))
        return calls

    @pytest.mark.parametrize("option", ["--out", "--trace"])
    def test_analyze_checks_outputs_before_the_analysis(self, tmp_path, capsys, monkeypatch,
                                                        option):
        data, _ = _write_data(tmp_path, n_outcomes=1)
        config = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}],
                                  methods=["none"])
        calls = self._spy(monkeypatch, "analyze")
        bad = tmp_path / "missing" / "file"
        paths = {"--out": str(tmp_path / "o.json"), "--trace": str(tmp_path / "t.csv"),
                 option: str(bad)}
        code, err = self._run(capsys, ["analyze", "--data", str(data), "--config", str(config),
                                       *[x for kv in paths.items() for x in kv]])
        assert code == 2
        assert f"config error: cannot write {bad}: No such file or directory" in err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "trial.csv"]

    @pytest.mark.parametrize("option", ["--out", "--dump"])
    def test_simulate_checks_outputs_before_the_study(self, tmp_path, capsys, monkeypatch,
                                                      option):
        study = _study_file(tmp_path, replicates=1)
        calls = self._spy(monkeypatch, "run_study")
        paths = {"--out": str(tmp_path / "o.json"), "--dump": str(tmp_path / "d.csv"),
                 option: str(tmp_path)}
        code, err = self._run(capsys, ["simulate", "--study", str(study),
                                       *[x for kv in paths.items() for x in kv]])
        assert code == 2
        assert f"config error: cannot write {tmp_path}: Is a directory" in err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["study.json"]

    def test_failed_run_keeps_existing_outputs_and_adds_none(self, tmp_path, capsys):
        # the outputs are checked first, then the data are found missing
        config = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}],
                                  methods=["none"])
        out = tmp_path / "o.json"
        out.write_text("earlier results\n", encoding="utf-8")
        code, err = self._run(capsys, ["analyze", "--data", str(tmp_path / "none.csv"),
                                       "--config", str(config), "--out", str(out),
                                       "--trace", str(tmp_path / "t.csv")])
        assert code == 3
        assert out.read_text(encoding="utf-8") == "earlier results\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "o.json"]

    def test_failed_run_creates_no_dangling_link_target(self, tmp_path, capsys):
        config = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}],
                                  methods=["none"])
        out = tmp_path / "o.json"
        out.symlink_to(tmp_path / "target.json")
        code, _ = self._run(capsys, ["analyze", "--data", str(tmp_path / "none.csv"),
                                     "--config", str(config), "--out", str(out)])
        assert code == 3
        assert out.is_symlink() and not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "o.json"]

    def test_dangling_link_into_a_missing_directory(self, tmp_path, capsys, monkeypatch):
        calls = self._spy(monkeypatch, "analyze")
        out = tmp_path / "o.json"
        out.symlink_to(tmp_path / "missing" / "target.json")
        code, err = self._analyze(tmp_path, capsys, out=out)
        assert code == 2
        assert f"config error: cannot write {out}: No such file or directory" in err
        assert calls == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_check_opens_no_output(self, tmp_path, capsys, monkeypatch):
        # opening a pipe to probe it would hand its reader an EOF before the run
        config = _analysis_config(tmp_path, [{"name": "y1", "family": "gaussian"}],
                                  methods=["none"])
        out = tmp_path / "o.pipe"
        os.mkfifo(out)
        opened, real_open = [], builtins.open

        def spy_open(file, *args, **kwargs):
            if os.fspath(file) == str(out):
                opened.append(file)
                raise OSError("opened the output")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        code, _ = self._run(capsys, ["analyze", "--data", str(tmp_path / "none.csv"),
                                     "--config", str(config), "--out", str(out)])
        assert code == 3
        assert opened == []


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        data = tmp_path / "d.csv"
        ds = make_gaussian_dataset(n_outcomes=1, n_clusters=4, seed=1)
        ds.to_csv(data)
        cfg = _analysis_config(
            tmp_path, [{"name": "y1", "family": "gaussian"}],
            methods=["none"], n_permutations=30, n_search_steps=120,
        )
        out = tmp_path / "o.json"
        proc = subprocess.run(
            [sys.executable, "-m", "crtperm", "analyze", "--data", str(data),
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_threads_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRTPERM_THREADS", "2")
        from crtperm.simulate import resolve_workers

        assert resolve_workers(None) == 2
        assert resolve_workers(4) == 4
