"""Workload inputs, made from the benchmark seed with the benchmark's own numpy code.

crtperm receives only the files written here (CSV data, analysis config,
study definition), so a change to crtperm's own generators cannot change
an analyze workload's inputs.  The size of every workload is fixed
whatever the seed: cluster counts, cluster sizes, permutation and step
counts do not change.

The analyze workloads draw their trial values from TRIAL_SEED, not from the
benchmark seed, which becomes the analysis seed (the permutation and search
streams).  How often the search refits its nuisance fits is set mostly by the
data: across data seeds the refit time of ``analyze_weighted`` ranged from
0.29 to 0.67 s of a 2.3 s operation, across analysis seeds on one trial from
0.24 to 0.35 s.  The study workloads pass the seed to ``crtperm simulate``;
their outcomes are gaussian, whose refits cost almost nothing, and their
step and permutation counts are fixed, so their work barely depends on it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 0.05
ALL_METHODS = ["naive", "none", "bonferroni", "holm", "romano_wolf"]
# the analyze workloads' trial values; the benchmark seed is the analysis seed
TRIAL_SEED = 1

# analyze_weighted: two periods with baseline measures
W_CLUSTERS = 14
W_TREATED = 7
W_ROWS_PER_CELL = 20
W_COVARIANCE = {"source": "fixed", "structure": "ar1_time",
                "sigma2": 1.0, "tau2": 0.05, "lambda": 0.7}
W_SEARCH_STEPS = 400
# analyze_rows: large parallel trial, cluster sizes fixed (sum 20,000)
R_CLUSTER_SIZES = tuple(450 + 25 * (c % 5) for c in range(40))
R_PERMUTATIONS = 1000
R_SEARCH_STEPS = 100
# studies: model1 with two true nulls
STUDY_SEARCH = {"replicates": 4, "n_permutations": 200, "n_search_steps": 1000,
                "run_search": True}
STUDY_PVALUES = {"replicates": 30, "n_permutations": 1000, "n_search_steps": 2000,
                 "run_search": False}


@dataclass(frozen=True)
class Outcome:
    name: str
    family: str


@dataclass
class Trial:
    """A generated trial as arrays, in the benchmark's own cluster order."""

    cluster: np.ndarray      # (n,) int, 0..C-1
    period: np.ndarray       # (n,) int, 1..T
    treated: np.ndarray      # (C,) bool, the observed arm
    D: np.ndarray            # (n,) float treatment indicator per row
    Y: np.ndarray            # (n, J)
    outcomes: tuple[Outcome, ...]
    has_time: bool

    @property
    def n_clusters(self) -> int:
        return len(self.treated)

    @property
    def n_periods(self) -> int:
        return int(self.period.max())


def _assign(rng: np.random.Generator, C: int, k: int) -> np.ndarray:
    treated = np.zeros(C, dtype=bool)
    treated[rng.choice(C, size=k, replace=False)] = True
    return treated


def weighted_trial(seed: int) -> Trial:
    """14 clusters x 2 periods x 20 rows; Poisson, gaussian and binary outcomes.

    Everyone is untreated in period 1 and the treated arm switches on in
    period 2.  Cluster-period effects decay across the two periods.
    """
    rng = np.random.default_rng([seed, 1])
    C, T, m = W_CLUSTERS, 2, W_ROWS_PER_CELL
    treated = _assign(rng, C, W_TREATED)
    cluster = np.repeat(np.arange(C), T * m)
    period = np.tile(np.repeat(np.arange(1, T + 1), m), C)
    D = (treated[cluster] & (period == 2)).astype(float)
    p2 = (period == 2).astype(float)
    lam, tau = 0.6, np.array([0.25, 0.35, 0.3])
    z0 = rng.standard_normal((C, 3))
    z1 = lam * z0 + np.sqrt(1 - lam**2) * rng.standard_normal((C, 3))
    theta = np.stack([z0, z1], axis=2) * tau[None, :, None]   # (C, J, T)
    th = theta[cluster, :, period - 1]
    n = len(cluster)
    y_count = rng.poisson(np.exp(0.8 + 0.2 * p2 + 0.25 * D + th[:, 0]))
    y_cont = 1.0 + 0.4 * p2 + 0.3 * D + th[:, 1] + rng.standard_normal(n)
    y_bin = rng.random(n) < 1.0 / (1.0 + np.exp(-(-2.6 + 0.2 * p2 + th[:, 2])))
    Y = np.column_stack([y_count, y_cont, y_bin]).astype(float)
    outcomes = (Outcome("y_count", "poisson"), Outcome("y_cont", "gaussian"),
                Outcome("y_bin", "binomial"))
    return Trial(cluster, period, treated, D, Y, outcomes, has_time=True)


def rows_trial(seed: int) -> Trial:
    """40 clusters of 450-550 rows (20,000 in all); Poisson and gaussian outcomes."""
    rng = np.random.default_rng([seed, 2])
    sizes = np.array(R_CLUSTER_SIZES)
    C = len(sizes)
    treated = _assign(rng, C, C // 2)
    cluster = np.repeat(np.arange(C), sizes)
    # rows arrive shuffled across clusters, as an export from a trial
    # database would give them
    cluster = cluster[rng.permutation(len(cluster))]
    n = len(cluster)
    D = treated[cluster].astype(float)
    theta = rng.standard_normal((C, 2)) * np.array([0.2, 0.3])
    y_count = rng.poisson(np.exp(1.0 + 0.1 * D + theta[cluster, 0]))
    y_cont = 2.0 + 0.15 * D + theta[cluster, 1] + rng.normal(0.0, 1.5, n)
    Y = np.column_stack([y_count, y_cont]).astype(float)
    outcomes = (Outcome("y_count", "poisson"), Outcome("y_cont", "gaussian"))
    return Trial(cluster, np.ones(n, dtype=int), treated, D, Y, outcomes,
                 has_time=False)


def write_trial_csv(trial: Trial, path: Path) -> None:
    header = ["site"] + (["period"] if trial.has_time else []) + ["arm"]
    header += [o.name for o in trial.outcomes]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(trial.cluster)):
            row = [f"s{trial.cluster[i]:02d}"]
            if trial.has_time:
                row.append(int(trial.period[i]))
            row.append(int(trial.D[i]))
            row += [repr(float(v)) if o.family == "gaussian" else int(v)
                    for o, v in zip(trial.outcomes, trial.Y[i])]
            w.writerow(row)


def analysis_config(trial: Trial, seed: int, **extra) -> dict:
    columns = {"cluster": "site", "treatment": "arm"}
    if trial.has_time:
        columns["time"] = "period"
    return {
        "schema_version": 1,
        "columns": columns,
        "outcomes": [{"name": o.name, "family": o.family} for o in trial.outcomes],
        "alpha": ALPHA,
        "seed": seed,
        **extra,
    }


def study_definition(seed: int, settings: dict) -> dict:
    return {
        "model": "model1",
        "clusters_per_arm": 7,
        "n_per_cluster": 20,
        "delta": [0.0, 0.0],
        "rho": 0.3,
        "pi": 0.3,
        "methods": ALL_METHODS,
        "alpha": ALPHA,
        "seed": seed,
        **settings,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def prepare(workload: str, seed: int, work: Path) -> tuple[list[str], dict]:
    """Write the workload's input files into ``work``.

    Returns the crtperm command line (without the output paths, which the
    worker adds per operation) and what the output checks need to know.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload in ("analyze_weighted", "analyze_rows"):
        if workload == "analyze_weighted":
            trial = weighted_trial(TRIAL_SEED)
            cfg = analysis_config(trial, seed, methods=ALL_METHODS, statistic="weighted",
                                  covariance=W_COVARIANCE, n_search_steps=W_SEARCH_STEPS)
        else:
            trial = rows_trial(TRIAL_SEED)
            cfg = analysis_config(trial, seed, n_permutations=R_PERMUTATIONS,
                                  n_search_steps=R_SEARCH_STEPS)
        data, config = work / "trial.csv", work / "analysis.json"
        write_trial_csv(trial, data)
        _write_json(config, cfg)
        argv = ["analyze", "--data", str(data), "--config", str(config)]
        return argv, {"trial": trial, "config": cfg}
    settings = STUDY_SEARCH if workload == "study_search" else STUDY_PVALUES
    study = study_definition(seed, settings)
    path = work / "study.json"
    _write_json(path, study)
    argv = ["simulate", "--study", str(path), "--threads", "1"]
    return argv, {"study": study}
