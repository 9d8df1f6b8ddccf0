"""Marginal mean-model fitting and working covariance construction.

The mean model for outcome j regresses the outcome on an intercept,
the treatment indicator, any covariates, and period indicators when
the trial has more than one period.  The treatment effect can instead
be *fixed* at a null value, in which case the fixed term enters as an
offset and only the nuisance parameters are estimated; permutation
statistics are built from such constrained fits so that nuisance
estimates stay invariant across permutations.

Gaussian outcomes are fitted by least squares on the rows.  Log and
logit outcomes are fitted by iteratively reweighted least squares
(IRLS) on the dataset's row patterns, the distinct (cluster-period
cell, covariate row) combinations: every row of a pattern has the
same design row and so the same mean, and the row-level normal
equations summed within a pattern are one weighted equation with the
pattern's row count as a frequency weight and its mean outcome as the
response.  The fit, its information and its standard error are the
row-level ones, at a cost that grows with the number of patterns (the
number of cells when there are no covariates) instead of rows.

Variance components are estimated by a one-way ANOVA moment
decomposition of Pearson residuals (between/within cluster mean
squares), which supplies the working covariance used by the weighted
statistic without requiring a mixed-model solver.

Every working covariance has the form V_c = sigma2 I + Z_c Lambda Z_c',
where Z_c maps cluster c's rows to its periods and Lambda is a (T, T)
period matrix: 0 (``independent``), tau2 11' (``exchangeable``) or
tau2 lam^|t - u| (``ar1_time``).  By the Woodbury identity,

    Z_c' V_c^{-1} = W_c Z_c',             W_c = (sigma2 I + N_c Lambda)^{-1},
    V_c^{-1} = (I - Z_c K_c Z_c') / sigma2,  K_c = Lambda W_c,

with N_c = Z_c' Z_c the diagonal matrix of cell counts.  So everything
the statistic and the GLS fit need from V_c^{-1} comes from cell totals
and two (T, T) maps per cluster (:class:`CellCovariance`): no n_c x n_c
matrix is formed or factored, and the memory a weighted analysis needs
grows with its rows, not with the squares of its cluster sizes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist  # the standard library's, not crtperm.statistics

import numpy as np

from .data import TrialDataset
from .errors import DataValidationError, NumericalError

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_BOUND = 30.0

COVARIANCE_STRUCTURES = ("independent", "exchangeable", "ar1_time")


def logistic(eta: np.ndarray) -> np.ndarray:
    """Inverse logit 1 / (1 + exp(-eta)); exactly 0 and 1 far in the tails."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(eta, dtype=float)))


def link_inverse(eta: np.ndarray, link: str) -> np.ndarray:
    """Mean as a function of the linear predictor."""
    if link == "identity":
        return np.asarray(eta, dtype=float)
    if link == "log":
        return np.exp(eta)
    if link == "logit":
        return logistic(eta)
    raise ValueError(f"unknown link: {link!r}")


def mean_derivative(mu: np.ndarray, link: str) -> np.ndarray:
    """d mean / d eta, written in the mean ``mu = link_inverse(eta, link)``."""
    if link == "identity":
        return np.ones_like(np.asarray(mu, dtype=float))
    if link == "log":
        return mu
    if link == "logit":
        return mu * (1.0 - mu)
    raise ValueError(f"unknown link: {link!r}")


@dataclass(frozen=True)
class CovarianceSpec:
    """Working within-cluster covariance parameters.

    ``sigma2`` is the individual-level (dispersion) variance on the
    diagonal; ``tau2`` is the cluster-effect variance.  Structures:

    - ``independent``: sigma2 * I (tau2 ignored).
    - ``exchangeable``: diagonal sigma2 + tau2, all off-diagonal tau2.
    - ``ar1_time``: the cluster-effect contribution decays over
      periods, tau2 * lam**|t - t'| (so tau2 within a period,
      tau2 * lam across adjacent periods), plus sigma2 on the diagonal.
    """

    structure: str
    sigma2: float
    tau2: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.structure not in COVARIANCE_STRUCTURES:
            raise ValueError(f"unknown covariance structure: {self.structure!r}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.tau2 < 0:
            raise ValueError(f"tau2 must be non-negative, got {self.tau2}")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lambda must be in [0, 1), got {self.lam}")


@dataclass
class FittedMeanModel:
    """Result of a fit of one outcome's marginal mean model.

    ``nuisance_coefs`` holds the intercept, covariate and period-indicator
    coefficients.  ``treatment_effect`` and ``naive_se`` are None when
    the treatment effect was fixed; the model-based standard error comes
    from the inverse weighted information.  ``linear_predictor`` is per
    row, the fixed effect's offset included.
    """

    link: str
    nuisance_coefs: np.ndarray
    treatment_effect: float | None
    naive_se: float | None
    linear_predictor: np.ndarray

    @property
    def fitted_mean(self) -> np.ndarray:
        return link_inverse(self.linear_predictor, self.link)


def nuisance_design(dataset: TrialDataset) -> tuple[np.ndarray, tuple[str, ...]]:
    """Intercept + covariates + period indicators (periods 2..T)."""
    cached = dataset._cache.get("nuisance_design")
    if cached is not None:
        return cached
    cols = [np.ones(dataset.n_obs)]
    names = ["intercept"]
    for k, name in enumerate(dataset.covariate_names):
        cols.append(dataset.covariates[:, k])
        names.append(name)
    if dataset.n_periods > 1:
        for t in range(2, dataset.n_periods + 1):
            cols.append((dataset.period == t).astype(float))
            names.append(f"period_{t}")
    result = (np.column_stack(cols), tuple(names))
    dataset._cache["nuisance_design"] = result
    return result


def _with_treatment(X_nuis, treatment, delta_fixed):
    """Design and offset: the treatment as the last column, or as a fixed offset."""
    D = treatment.astype(float)
    if delta_fixed is None:
        return np.column_stack([X_nuis, D]), np.zeros(len(D))
    return X_nuis, float(delta_fixed) * D


def _initial_eta(y: np.ndarray, link: str) -> np.ndarray:
    if link == "log":
        return np.log(np.maximum(y, 0) + 0.5)
    # logit: shrink toward 1/2 to keep eta finite
    p = (y + 0.5) / 2.0
    return np.log(p / (1.0 - p))


#: why a pattern-IRLS fit failed, indexed by its status (0: converged)
FIT_FAILURES = (
    None,
    "IRLS diverged for outcome {name!r}: the fitted mean overflowed "
    "(non-finite working weights)",
    "separation in binomial fit for outcome {name!r} "
    f"(|coefficient| > {SEPARATION_BOUND:g})",
    "IRLS did not converge for outcome {name!r} after {max_iter} iterations",
)
FIT_OVERFLOW, FIT_SEPARATION, FIT_NO_CONVERGENCE = 1, 2, 3


def fit_error(status: int, name: str, max_iter: int = IRLS_MAX_ITER) -> NumericalError:
    """The error a failed :func:`pattern_irls` fit of outcome ``name`` raises."""
    return NumericalError(FIT_FAILURES[status].format(name=name, max_iter=max_iter))


@dataclass(frozen=True)
class PatternDesign:
    """A pattern design ``X`` (P, p) with the rank-truncated SVD basis of its row space.

    ``U`` (P, r) spans the row space; ``to_coef`` (p, r) maps
    coordinates in it to ``lstsq``'s minimum-norm coefficients.  Build
    one with :meth:`factor` once per design and reuse it across
    :func:`pattern_irls` calls.
    """

    X: np.ndarray
    U: np.ndarray
    to_coef: np.ndarray

    @classmethod
    def factor(cls, X: np.ndarray) -> "PatternDesign":
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        rank = s > s[0] * max(X.shape) * np.finfo(float).eps
        return cls(X, U[:, rank], Vt[rank].T / s[rank])


def pattern_irls(
    design: PatternDesign,
    counts: np.ndarray,
    ybar: np.ndarray,
    offsets: np.ndarray,
    link: str | np.ndarray,
    start: np.ndarray | None = None,
    *,
    tol: float = IRLS_TOL,
    max_iter: int = IRLS_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B log- or logit-link fits on one design, by IRLS on row patterns.

    ``design.X`` (P, p) holds one design row per pattern.  Fit b has
    ``counts[b]`` (P,) rows per pattern with mean outcome ``ybar[b]``
    (P,), the offset ``offsets[b]`` (P,) and the link ``link[b]`` (or
    ``link``, one name for every fit), and starts from ``start[b]``, or
    from g(ybar[b]); so the fits of several outcomes and datasets on one
    design take one call.  The weighted least-squares steps (weight
    count * dmu/deta, the links being canonical) are solved in the row
    space of X, from the design's SVD basis, so a rank-deficient X gets
    ``lstsq``'s minimum-norm coefficients.  A fit stops when no
    coefficient moved by ``tol``, whatever the others in its batch do,
    and its iterates are bit for bit those of a call that holds it
    alone.  Returns the coefficients (B, p), X @ coef (B, P) and each
    fit's status, an index into :data:`FIT_FAILURES` (0: converged).
    """
    X, U, to_coef = design.X, design.U, design.to_coef
    Ut = U.T
    B = len(offsets)
    lg = np.zeros((B, 1), dtype=bool)
    lg[:, 0] = np.asarray(link) == "logit"
    coef = np.zeros((B, X.shape[1])) if start is None else np.array(start, dtype=float)
    xb = np.matmul(X, coef[..., None])[..., 0]
    if start is None:
        eta = np.empty(np.shape(offsets))
        eta[lg[:, 0]] = _initial_eta(ybar[lg[:, 0]], "logit")
        eta[~lg[:, 0]] = _initial_eta(ybar[~lg[:, 0]], "log")
    else:
        eta = xb + offsets
    status = np.full(B, FIT_NO_CONVERGENCE)
    # the fits still iterating: their per-fit arrays and iterates, filtered together
    live, off, c, e = np.arange(B), offsets, coef, eta
    # an offset far out overflows the mean (or makes inf * 0 of a weight and
    # a zero offset-free predictor), and its fit stops with FIT_OVERFLOW
    with np.errstate(over="ignore", invalid="ignore"):
        for n_iter in range(1, max_iter + 1):
            if not live.size:
                break
            mu = batch_mean(e, lg)
            w = counts * batch_derivative(mu, lg)
            wz = w * (e - off) + counts * (ybar - mu)
            # a weight or response that is not finite makes the sum not finite
            finite = np.isfinite(wz.sum(axis=1))
            if not finite.all():
                status[live[~finite]] = FIT_OVERFLOW
                live, off, c, w, wz = live[finite], off[finite], c[finite], w[finite], wz[finite]
                counts, ybar, lg = counts[finite], ybar[finite], lg[finite]
            a = _solve_each(np.matmul(Ut * w[:, None, :], U), np.matmul(Ut, wz[..., None]))
            new = np.matmul(to_coef, a)[..., 0]
            converged = (np.abs(new - c).max(axis=1) < tol) & (n_iter > 1)
            c, xb_live = new, np.matmul(X, new[..., None])[..., 0]
            coef[live], xb[live], e = c, xb_live, xb_live + off
            separated = np.abs(c).max(axis=1) > SEPARATION_BOUND
            if separated.any():
                separated &= lg[:, 0]
                status[live[separated]] = FIT_SEPARATION
                converged &= ~separated
            status[live[converged]] = 0
            go = status[live] == FIT_NO_CONVERGENCE
            if not go.all():
                live, off, c, e = live[go], off[go], c[go], e[go]
                counts, ybar, lg = counts[go], ybar[go], lg[go]
    return coef, xb, status


def batch_mean(eta: np.ndarray, logit: np.ndarray) -> np.ndarray:
    """The mean of every fit of a batch, bit for bit :func:`link_inverse`'s.

    ``logit`` flags the logit-link fits (the others have the log link),
    broadcasting against ``eta``.  The batch takes one ``exp``, of -eta
    under the logit link and of eta under the log link.
    """
    ex = np.exp(np.where(logit, -eta, eta))
    return np.where(logit, 1.0 / (1.0 + ex), ex)


def batch_derivative(mu: np.ndarray, logit: np.ndarray) -> np.ndarray:
    """d mean / d eta of every fit of a batch, bit for bit :func:`mean_derivative`'s."""
    return np.where(logit, mu * (1.0 - mu), mu)


def _solve_each(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solves of G a = rhs; lstsq's minimum-norm a where a G is singular."""
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        # a zero weight (a saturated mean) can leave a direction unidentified;
        # solve fit by fit so that no fit depends on the others in its batch
        if len(G) == 1:
            return np.linalg.lstsq(G[0], rhs[0], rcond=None)[0][None]
        return np.concatenate([_solve_each(G[b:b + 1], rhs[b:b + 1]) for b in range(len(G))])


def irls_fit(
    dataset: TrialDataset,
    outcome_index: int,
    delta_fixed: float | None = None,
    *,
    tol: float = IRLS_TOL,
    max_iter: int = IRLS_MAX_ITER,
) -> FittedMeanModel:
    """Fit the marginal mean model for one outcome.

    When ``delta_fixed`` is None the treatment effect is estimated and
    its model-based standard error is returned; otherwise
    ``delta_fixed * D`` enters as a fixed offset and only the nuisance
    parameters are estimated.

    Gaussian outcomes are solved by least squares on the rows.  Log and
    logit outcomes are one :func:`pattern_irls` fit on the dataset's
    row patterns (:attr:`~crtperm.data.TrialDataset.patterns`), the
    routine the confidence-limit search refits its chains with; it
    gives the row-level MLE and information.

    Raises
    ------
    NumericalError
        On non-convergence after ``max_iter`` iterations, when a
        binomial fit diverges (separation), or when the fitted mean
        overflows.
    """
    if not 0 <= outcome_index < dataset.n_outcomes:
        raise IndexError(f"outcome index {outcome_index} out of range")
    spec = dataset.outcome_specs[outcome_index]
    X_nuis, _ = nuisance_design(dataset)
    estimate_delta = delta_fixed is None
    naive_se = None

    if spec.link == "identity":
        y = dataset.outcomes[:, outcome_index]
        X, offset = _with_treatment(X_nuis, dataset.treatment, delta_fixed)
        coef, _, rank, _ = np.linalg.lstsq(X, y - offset, rcond=None)
        if estimate_delta:
            naive_se = _gaussian_se(X, y - offset, coef, rank)
        eta = X @ coef + offset
    else:
        pat = dataset.patterns
        X, offset = _with_treatment(X_nuis[pat.rep], dataset.treatment[pat.rep], delta_fixed)
        ybar = pat.ysum[:, outcome_index] / pat.counts
        coefs, xb, status = pattern_irls(
            PatternDesign.factor(X), pat.counts[None], ybar[None], offset[None], spec.link,
            tol=tol, max_iter=max_iter,
        )
        if status[0]:
            raise fit_error(status[0], spec.name, max_iter)
        coef, eta = coefs[0], xb[0] + offset
        if estimate_delta:
            w = pat.counts * mean_derivative(link_inverse(eta, spec.link), spec.link)
            cov = np.linalg.pinv((X * w[:, None]).T @ X)
            naive_se = float(np.sqrt(max(cov[-1, -1], 0.0)))
        eta = eta[pat.of_row]
    return FittedMeanModel(
        link=spec.link,
        nuisance_coefs=coef[:-1] if estimate_delta else coef,
        treatment_effect=float(coef[-1]) if estimate_delta else None,
        naive_se=naive_se,
        linear_predictor=eta,
    )


def _gaussian_se(X: np.ndarray, y: np.ndarray, coef: np.ndarray, rank: int) -> float:
    """The treatment's OLS standard error, on n - rank(X) degrees of freedom."""
    resid = y - X @ coef
    sigma2 = float(resid @ resid) / max(len(y) - rank, 1)
    cov = np.linalg.pinv(X.T @ X) * sigma2
    return float(np.sqrt(max(cov[-1, -1], 0.0)))


def pearson_residuals(
    dataset: TrialDataset, outcome_index: int, fitted: FittedMeanModel
) -> np.ndarray:
    """(y - mu) / sqrt(V(mu)) for the fitted mean; V = dmu/deta under canonical links."""
    y = dataset.outcomes[:, outcome_index]
    mu = fitted.fitted_mean
    var = mean_derivative(mu, fitted.link)
    return (y - mu) / np.sqrt(np.maximum(var, 1e-12))


def estimate_variance_components(
    dataset: TrialDataset, outcome_index: int, fitted: FittedMeanModel
) -> tuple[float, float]:
    """Moment estimates (sigma2, tau2) from a one-way ANOVA decomposition.

    Pearson residuals are decomposed into within- and between-cluster
    mean squares: sigma2 is the within-cluster mean square, and
    tau2 = (MSB - MSW) / n0 truncated at zero, with n0 the usual
    unbalanced-design average cluster size
    (N - sum(n_c^2)/N) / (C - 1).  For binomial and poisson outcomes
    the Pearson scaling makes sigma2 approximately 1 under correct
    dispersion.

    A dataset whose clusters all hold a single observation has no
    within-cluster information; tau2 is then reported as 0 with a
    warning and sigma2 falls back to the overall residual mean square.
    """
    C = dataset.n_clusters
    if C < 2:
        raise DataValidationError(
            "variance component estimation requires at least 2 clusters"
        )
    r = pearson_residuals(dataset, outcome_index, fitted)
    n_c = np.bincount(dataset.cluster_index, minlength=C).astype(float)
    sums = np.bincount(dataset.cluster_index, weights=r, minlength=C)
    means = sums / n_c
    N = float(dataset.n_obs)
    if N == C:
        warnings.warn(
            "single observation per cluster: between- and within-cluster "
            "variation are confounded; reporting tau2 = 0",
            stacklevel=2,
        )
        grand = r.mean()
        sigma2 = float(((r - grand) ** 2).sum() / max(C - 1, 1))
        return sigma2, 0.0
    grand = r.mean()
    ssw = float((r**2).sum() - (n_c * means**2).sum())
    ssb = float((n_c * (means - grand) ** 2).sum())
    msw = ssw / (N - C)
    msb = ssb / (C - 1)
    n0 = (N - float(n_c @ n_c) / N) / (C - 1)
    tau2 = max((msb - msw) / n0, 0.0)
    return msw, tau2


@dataclass(frozen=True)
class CellCovariance:
    """A working covariance in cell form, for every cluster of one layout.

    Cluster c's covariance is V_c = sigma2 I + Z_c Lambda Z_c', with Z_c
    its rows-to-periods indicator and Lambda the spec's (T, T) period
    matrix.  ``W[c]`` = (sigma2 I + N_c Lambda)^{-1} and ``K[c]`` =
    Lambda W[c], with N_c = diag(``counts[c]``), act on cell totals:
    the cell totals of V_c^{-1} v are W[c] times those of v, and
    V_c^{-1} v = (v - Z_c K[c] Z_c' v) / sigma2.
    """

    spec: CovarianceSpec
    counts: np.ndarray  # (C, T) rows per cell of the layout it was built for
    W: np.ndarray  # (C, T, T)
    K: np.ndarray  # (C, T, T)


def build_cluster_covariance(spec: CovarianceSpec, layout: np.ndarray) -> CellCovariance:
    """The working covariance of every cluster of ``layout``, in cell form.

    ``layout`` is the (C, T) array of observation counts per
    cluster-period cell.  Costs O(C T^3) whatever the cluster sizes.
    """
    layout = np.asarray(layout, dtype=int)
    if layout.ndim != 2:
        raise ValueError("layout must be a (clusters x periods) count array")
    T = layout.shape[1]
    t = np.arange(T)
    if spec.structure == "independent":
        lam = np.zeros((T, T))
    elif spec.structure == "exchangeable":
        lam = np.full((T, T), spec.tau2)
    else:  # ar1_time
        lam = spec.tau2 * spec.lam ** np.abs(t[:, None] - t[None, :])
    W = np.linalg.inv(spec.sigma2 * np.eye(T) + layout[:, :, None] * lam)
    return CellCovariance(spec=spec, counts=layout, W=W, K=lam @ W)


def fgls_gaussian(
    dataset: TrialDataset, outcome_index: int, ols: FittedMeanModel | None = None
) -> tuple[float, float]:
    """Feasible GLS estimate and standard error of the treatment effect.

    Fits by ordinary least squares (or takes ``ols``, that fit made
    already by :func:`irls_fit`), moment-estimates the variance
    components, and solves the GLS normal equations under the
    exchangeable working covariance, whose quadratic forms need only
    the design's and the outcome's cell totals:
    X' V^{-1} X = (X'X - sum_c Xc' K_c Xc) / sigma2, Xc the cell totals
    of cluster c's rows.  This is the model-based comparator for
    gaussian outcomes; it ignores the small-sample distribution of the
    variance estimates, which is exactly the behaviour the permutation
    methods are meant to fix.
    """
    if ols is None:
        ols = irls_fit(dataset, outcome_index)
    sigma2, tau2 = estimate_variance_components(dataset, outcome_index, ols)
    spec = CovarianceSpec("exchangeable", sigma2=max(sigma2, 1e-12), tau2=tau2)
    cov = build_cluster_covariance(spec, dataset.cell_counts)
    X_nuis, _ = nuisance_design(dataset)
    Xy = np.column_stack(
        [X_nuis, dataset.treatment.astype(float), dataset.outcomes[:, outcome_index]]
    )
    cells = np.stack([dataset.cell_totals(v) for v in Xy.T], axis=-1)  # (C, T, p + 1)
    gram = (Xy.T @ Xy - np.einsum("ctp,ctu,cuq->pq", cells, cov.K, cells)) / spec.sigma2
    p = Xy.shape[1] - 1
    inv = np.linalg.pinv(gram[:p, :p])
    beta = inv @ gram[:p, p]
    return float(beta[-1]), float(np.sqrt(max(inv[-1, -1], 0.0)))


def naive_wald(
    dataset: TrialDataset,
    alpha: float = 0.05,
    fits: list[FittedMeanModel] | None = None,
) -> list[dict]:
    """Uncorrected model-based inference for every outcome.

    Gaussian outcomes use feasible GLS with the exchangeable working
    covariance; other families use the IRLS model-based standard error.
    ``fits`` are the outcomes' point fits (``irls_fit(dataset, j)``)
    when the caller has them; otherwise they are fitted here.  Returns
    one record per outcome with the estimate, standard error, two-sided
    normal-approximation p-value, and Wald interval.
    """
    out = []
    z = NormalDist().inv_cdf(1 - alpha / 2)
    for j, spec in enumerate(dataset.outcome_specs):
        fit = fits[j] if fits is not None else irls_fit(dataset, j)
        if spec.family == "gaussian":
            est, se = fgls_gaussian(dataset, j, fit)
        else:
            est, se = fit.treatment_effect, fit.naive_se
        se = max(se, 1e-300)
        p = math.erfc(abs(est) / se / math.sqrt(2))
        out.append(
            {
                "outcome": spec.name,
                "estimate": est,
                "se": se,
                "p": p,
                "lower": est - z * se,
                "upper": est + z * se,
            }
        )
    return out
