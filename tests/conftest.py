"""Shared fixture builders for the test suite."""

import math
from itertools import combinations

import numpy as np
import pytest

from crtperm.data import OutcomeSpec, TrialDataset, validate_design
from crtperm.glm import nuisance_design
from crtperm.permutation import StatMatrix


def make_gaussian_dataset(
    n_clusters=6,
    n_per_cluster=5,
    n_treated=None,
    n_outcomes=1,
    effect=0.0,
    cluster_sd=0.3,
    noise_sd=1.0,
    seed=0,
    covariate=False,
):
    """Small parallel gaussian trial with known structure."""
    rng = np.random.default_rng(seed)
    C, n = n_clusters, n_per_cluster
    k = n_treated if n_treated is not None else C // 2
    treated = np.zeros(C, dtype=bool)
    treated[rng.choice(C, size=k, replace=False)] = True
    cluster_index = np.repeat(np.arange(C), n)
    D = treated[cluster_index].astype(float)
    theta = rng.normal(0.0, cluster_sd, C)
    X = rng.normal(0.0, 1.0, C * n) if covariate else None
    Y = np.empty((C * n, n_outcomes))
    for j in range(n_outcomes):
        Y[:, j] = (
            1.0
            + effect * D
            + theta[cluster_index]
            + rng.normal(0.0, noise_sd, C * n)
        )
        if covariate:
            Y[:, j] += 0.5 * X
    ds = TrialDataset(
        cluster_labels=[f"c{c}" for c in range(C)],
        cluster_index=cluster_index,
        period=np.ones(C * n, dtype=int),
        treatment=D.astype(int),
        outcomes=Y,
        outcome_specs=tuple(
            OutcomeSpec(f"y{j + 1}", "gaussian") for j in range(n_outcomes)
        ),
        covariates=X.reshape(-1, 1) if covariate else None,
        covariate_names=("x1",) if covariate else (),
    )
    ds.design = validate_design(ds)
    return ds


def make_baseline_dataset(n_clusters=6, n_per_cluster=4, seed=0):
    """Two-period trial, all clusters untreated in period 1."""
    rng = np.random.default_rng(seed)
    C, n, T = n_clusters, n_per_cluster, 2
    treated = np.zeros(C, dtype=bool)
    treated[rng.choice(C, size=C // 2, replace=False)] = True
    cluster_index = np.repeat(np.arange(C), T * n)
    period = np.tile(np.repeat([1, 2], n), C)
    D = (treated[cluster_index] & (period == 2)).astype(int)
    Y = (
        1.0
        + 0.5 * (period == 2)
        + rng.normal(0, 0.3, C)[cluster_index]
        + rng.normal(0, 1, C * T * n)
    )
    ds = TrialDataset(
        cluster_labels=[f"c{c}" for c in range(C)],
        cluster_index=cluster_index,
        period=period,
        treatment=D,
        outcomes=Y.reshape(-1, 1),
        outcome_specs=(OutcomeSpec("y1", "gaussian"),),
    )
    ds.design = validate_design(ds)
    return ds


def make_mixed_dataset(baseline, seed=0, n_clusters=8, covariate=None, cell_sizes=(2, 7)):
    """Gaussian, Poisson and binary outcomes; unequal cells; shuffled rows.

    ``baseline`` gives two periods with everyone untreated in the first,
    otherwise one period; half the clusters are treated.  ``covariate``
    adds one row-level covariate, "binary" (fewer row patterns than
    rows) or "continuous" (one pattern per row).  Each (cluster, period)
    cell draws its row count uniformly from the half-open range
    ``cell_sizes``.
    """
    rng = np.random.default_rng(seed)
    C, T = n_clusters, 2 if baseline else 1
    sizes = rng.integers(*cell_sizes, size=(C, T))
    treated = np.zeros(C, dtype=bool)
    treated[rng.choice(C, size=C // 2, replace=False)] = True
    cluster_index = np.repeat(np.arange(C), sizes.sum(axis=1))
    period = np.concatenate([np.repeat(np.arange(1, T + 1), sizes[c]) for c in range(C)])
    shuffle = rng.permutation(len(cluster_index))
    cluster_index, period = cluster_index[shuffle], period[shuffle]
    n = len(cluster_index)
    D = (treated[cluster_index] & (period == T)).astype(int)
    effect = rng.normal(0.0, 0.3, C)[cluster_index] + 0.2 * (period - 1)
    x = None
    if covariate is not None:
        x = (rng.integers(0, 2, n).astype(float) if covariate == "binary"
             else rng.normal(size=n))
        effect = effect + 0.4 * x
    y = np.column_stack([
        1.0 + 0.4 * D + effect + rng.normal(size=n),
        rng.poisson(np.exp(0.5 + 0.3 * D + effect)),
        rng.binomial(1, 1.0 / (1.0 + np.exp(0.3 - 0.5 * D - effect))),
    ])
    ds = TrialDataset(
        cluster_labels=[f"c{c}" for c in range(C)],
        cluster_index=cluster_index,
        period=period,
        treatment=D,
        outcomes=y,
        outcome_specs=(
            OutcomeSpec("y1", "gaussian"),
            OutcomeSpec("y2", "poisson"),
            OutcomeSpec("y3", "binomial"),
        ),
        covariates=None if x is None else x.reshape(-1, 1),
        covariate_names=() if x is None else ("x1",),
    )
    ds.design = validate_design(ds)
    return ds


def dense_covariance(spec, counts):
    """Cluster working covariance V = sigma2 I + Z Lambda Z' as a dense matrix.

    ``counts`` holds the cluster's rows per period; rows are ordered by
    period.  The test oracle for the library's cell form.
    """
    periods = np.repeat(np.arange(len(counts)), counts)
    if spec.structure == "independent":
        V = np.zeros((len(periods), len(periods)))
    elif spec.structure == "exchangeable":
        V = np.full((len(periods), len(periods)), spec.tau2)
    else:  # ar1_time
        V = spec.tau2 * spec.lam ** np.abs(periods[:, None] - periods[None, :])
    V[np.diag_indices(len(periods))] += spec.sigma2
    return V


def cluster_rows(ds, c):
    """Cluster c's row indices ordered by period, the layout of its dense covariance."""
    idx = np.flatnonzero(ds.cluster_index == c)
    return idx[np.argsort(ds.period[idx], kind="stable")]


def reference_table(ds, j, beta, delta, spec=None):
    """Outcome j's (C, T) statistic table at ``delta``, written out in plain numpy.

    Residuals are y - h(X beta + delta D) with the nuisance design X;
    the weighted table (``spec``: a working covariance spec) holds
    G * V_c^{-1} r_c per cluster, with V_c built dense and solved
    directly, and G = 1 / h'(eta).  Each cell is an exactly rounded sum.
    """
    X, _ = nuisance_design(ds)
    eta = X @ beta + delta * ds.treatment
    link = ds.outcome_specs[j].link
    if link == "identity":
        mu, G = eta, np.ones_like(eta)
    elif link == "log":
        mu = np.exp(eta)
        G = 1.0 / mu
    else:
        mu = 1.0 / (1.0 + np.exp(-eta))
        G = 1.0 / (mu * (1.0 - mu))
    w = ds.outcomes[:, j] - mu
    C, T = ds.n_clusters, int(ds.period.max())
    if spec is not None:
        w = w.copy()
        for c, counts in enumerate(ds.cell_counts):
            idx = cluster_rows(ds, c)
            w[idx] = G[idx] * np.linalg.solve(dense_covariance(spec, counts), w[idx])
    return np.array([
        [math.fsum(w[(ds.cluster_index == c) & (ds.period == t + 1)]) for t in range(T)]
        for c in range(C)
    ])


def reference_stat(table, signs):
    """sum_c r_c / sqrt(sum_c r_c^2) with r_c = sum_t signs[c, t] * table[c, t], exactly summed."""
    r = [math.fsum(s * x for s, x in zip(srow, trow)) for srow, trow in zip(signs, table)]
    return math.fsum(r) / math.sqrt(math.fsum(x * x for x in r))


def one_row_p(row, exact=False):
    """The p-value of one observed-plus-permuted row, as a one-row matrix gives it."""
    return StatMatrix(values=np.asarray(row, dtype=float)[None], exact=exact).p_values[0]


def grid_inversion_endpoints(dataset, outcome_index, alpha, resolution, span=6.0):
    """Confidence endpoints by brute-force inversion of the exact test.

    Scans the whole grid of ``span / resolution`` points on each side of
    the point estimate, ``resolution`` standard errors apart, and
    returns the outermost value on each side at which the exact
    permutation p-value (the share of all allocations with
    |T| >= |T_observed|) still exceeds alpha; the p function is a
    staircase and may wiggle locally, so the scan does not stop at the
    first crossing.

    Gaussian outcomes and the unweighted statistic only, written in
    numpy alone so that it shares no code with the library: the null
    fit at delta is least squares of y - delta * D on the nuisance
    design, so its residuals are affine in delta, and every
    allocation's statistic at a block of grid points is one array
    expression.  Each statistic is a fixed sequence of sign-symmetric
    operations, so complementary allocations tie exactly.
    """
    n = dataset.n_obs
    cluster, period = dataset.cluster_index, dataset.period
    C, T = int(cluster.max()) + 1, int(period.max())
    y = dataset.outcomes[:, outcome_index]
    D = dataset.treatment.astype(float)
    X = np.column_stack(
        [np.ones(n)] + list(dataset.covariates.T)
        + [(period == t).astype(float) for t in range(2, T + 1)]
    )

    # point estimate and model-based standard error of the full OLS fit
    XD = np.column_stack([X, D])
    coef = np.linalg.lstsq(XD, y, rcond=None)[0]
    resid = y - XD @ coef
    sigma2 = float(resid @ resid) / max(n - XD.shape[1], 1)
    theta = coef[-1]
    se = float(np.sqrt(max(np.linalg.pinv(XD.T @ XD)[-1, -1] * sigma2, 0.0)))

    # cell totals of the null residuals (I - H)y - delta (I - H)D
    cell = cluster * T + (period - 1)
    def cell_table(v):
        resid = v - X @ np.linalg.lstsq(X, v, rcond=None)[0]
        return np.bincount(cell, weights=resid, minlength=C * T).reshape(C, T)
    Ty, TD = cell_table(y), cell_table(D)

    # signs of every allocation, +1 for treated cells; the observed one first
    treated_cell = np.zeros((C, T), dtype=bool)
    treated_cell[cluster, period - 1] = dataset.treatment.astype(bool)
    start = int(np.flatnonzero(treated_cell.any(axis=0))[0])
    observed = treated_cell.any(axis=1)
    subsets = list(combinations(range(C), int(observed.sum())))
    signs = -np.ones((1 + len(subsets), C, T))
    signs[0][observed, start:] = 1.0
    for a, subset in enumerate(subsets, start=1):
        signs[a, list(subset), start:] = 1.0

    def p_values(deltas):
        tab = Ty[None] - deltas[:, None, None] * TD[None]  # (K, C, T)
        cs = signs[None, :, :, 0] * tab[:, None, :, 0]
        for t in range(1, T):
            cs = cs + signs[None, :, :, t] * tab[:, None, :, t]
        stat = np.abs(cs.sum(axis=-1) / np.sqrt((cs * cs).sum(axis=-1)))
        return np.mean(stat[:, 1:] >= stat[:, :1], axis=1)

    step = resolution * se
    ks = np.arange(1, int(span / resolution) + 1)
    endpoints = []
    for sign in (+1.0, -1.0):
        deltas = theta + sign * ks * step
        # blocks of 64 grid points keep each (points, allocations, clusters)
        # array to a few MB
        p = np.concatenate([p_values(deltas[i:i + 64]) for i in range(0, len(deltas), 64)])
        inside = np.flatnonzero(p > alpha)
        endpoints.append(deltas[inside[-1]] if inside.size else theta)
    upper, lower = endpoints
    return lower, upper


@pytest.fixture
def gaussian_dataset():
    return make_gaussian_dataset()


@pytest.fixture
def baseline_dataset():
    return make_baseline_dataset()
