"""End-to-end analysis of one dataset: estimates, p-values, intervals.

Given a loaded dataset and an :class:`~crtperm.config.AnalysisConfig`,
``analyze`` fits the per-outcome mean models, builds one statistic
matrix at the zero null shared by all corrections, adjusts p-values per
requested method, and searches confidence limits.  The result is a
JSON-ready payload with stable ordering (outcomes in declaration
order, methods in canonical order) and run metadata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import METHODS, SCHEMA_VERSION, AnalysisConfig, PERMUTATION_METHODS
from .corrections import adjust
from .data import TrialDataset
from .glm import (
    CovarianceSpec,
    build_cluster_covariance,
    estimate_variance_components,
    irls_fit,
    naive_wald,
)
from .permutation import PermutationPlan, build_stat_matrix
from .search import search_all_methods


@dataclass
class AnalysisResult:
    """Per outcome x method records plus run metadata."""

    records: list[dict]
    estimates: list[float]
    metadata: dict
    trace: list | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            **self.metadata,
            "results": self.records,
        }


def _analysis_covariances(dataset: TrialDataset, config: AnalysisConfig, point_fits):
    out = []
    for j in range(dataset.n_outcomes):
        cspec = config.covariance
        if cspec is None:
            s2, t2 = estimate_variance_components(dataset, j, point_fits[j])
            cspec = CovarianceSpec("exchangeable", sigma2=max(s2, 1e-8), tau2=t2)
        out.append(build_cluster_covariance(cspec, dataset.cell_counts))
    return out


def analyze(
    dataset: TrialDataset,
    config: AnalysisConfig,
    collect_trace: bool = False,
) -> AnalysisResult:
    """Run the configured analysis and return a stable-ordered payload.

    All randomness flows from ``config.seed``: the permutation matrix
    uses one derived stream and the two search chains another, shared
    across methods so that methods are compared on identical draws.
    """
    t_start = time.perf_counter()
    J = dataset.n_outcomes
    ss = np.random.SeedSequence(config.seed)
    perm_seed, search_seed = (int(x) for x in ss.generate_state(2, np.uint64))

    point_fits = [irls_fit(dataset, j) for j in range(J)]
    estimates = [f.treatment_effect for f in point_fits]

    perm_methods = [m for m in config.methods if m in PERMUTATION_METHODS]
    covariances = None
    if config.statistic == "weighted" and perm_methods:
        covariances = _analysis_covariances(dataset, config, point_fits)

    t_fit = time.perf_counter()
    adjusted = {}
    if perm_methods:
        plan = PermutationPlan(n_draws=config.n_permutations, seed=perm_seed)
        matrix = build_stat_matrix(dataset, plan, covariances=covariances)
        for m in perm_methods:
            adjusted[m] = adjust(matrix, m)
    t_pvalues = time.perf_counter()

    trace_rows: list | None = [] if collect_trace else None
    searches = {}
    if perm_methods:
        (searches,) = search_all_methods(
            [dataset],
            perm_methods,
            alpha=config.alpha,
            Q=config.n_search_steps,
            seeds=[search_seed],
            covariances=[covariances],
            point_fits=[point_fits],
            trace=collect_trace,
        )
        if isinstance(searches, Exception):
            raise searches
        if collect_trace:
            for m in perm_methods:
                trace_rows.extend((m,) + row for row in searches[m].trace)
    t_search = time.perf_counter()

    naive_rows = None
    if "naive" in config.methods:
        naive_rows = naive_wald(dataset, config.alpha, point_fits)

    records = []
    for j, spec in enumerate(dataset.outcome_specs):
        for m in METHODS:
            if m not in config.methods:
                continue
            rec = {
                "outcome": spec.name,
                "method": m,
                "estimate": float(estimates[j]),
            }
            if m == "naive":
                row = naive_rows[j]
                rec.update(
                    p_unadjusted=row["p"],
                    p_adjusted=row["p"],
                    lower=row["lower"],
                    upper=row["upper"],
                )
            else:
                adj = adjusted[m]
                rec.update(
                    p_unadjusted=float(adj.p_unadjusted[j]),
                    p_adjusted=float(adj.p_adjusted[j]),
                    lower=float(searches[m].lower[j]),
                    upper=float(searches[m].upper[j]),
                )
            records.append(rec)

    metadata = {
        "alpha": config.alpha,
        "statistic": config.statistic,
        "sided": config.sided,
        "methods": [m for m in METHODS if m in config.methods],
        "n_permutations": config.n_permutations,
        "n_search_steps": config.n_search_steps,
        "seed": config.seed,
        "outcomes": [s.name for s in dataset.outcome_specs],
        "timings": {
            "fit_s": round(t_fit - t_start, 6),
            "p_values_s": round(t_pvalues - t_fit, 6),
            "search_s": round(t_search - t_pvalues, 6),
            "total_s": round(time.perf_counter() - t_start, 6),
        },
    }
    return AnalysisResult(
        records=records,
        estimates=[float(e) for e in estimates],
        metadata=metadata,
        trace=trace_rows,
    )
