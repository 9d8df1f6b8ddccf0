"""The studentized permutation statistic: one kernel for p-values and limits.

A test of "effect_j equals delta" signs each (cluster, period) cell of
a table by the allocation (+1 treated, -1 not), sums the signed cells
of each cluster into its contribution r_c and studentizes,

    T = sum_c r_c / sqrt(sum_c r_c^2),   so |T| <= sqrt(C).

For the unweighted statistic a cell holds the total of the generalised
residual y - mu; for the weighted (quasi-score) statistic it holds the
total of G * V^{-1} (y - mu), with link-derivative weights G and a
working within-cluster covariance V.  mu comes from a nuisance fit with
the effect held at delta, so the table does not depend on the
allocation: only the signs change from one permutation to the next.

:class:`StepKernel` builds the tables of every (method, outcome) chain
at its candidate delta and :func:`studentize` signs and reduces them.
This module never builds signs: an allocation reaches it as an int8
(C, T) sign array made by :func:`crtperm.permutation.sign_block`, the
one routine that turns treated subsets into signs.  The permutation
matrix is the kernel at delta = 0 under every allocation
(:func:`crtperm.permutation.build_stat_matrix`), and the
confidence-limit search (:mod:`crtperm.search`) calls it at each step's
candidate limits under the observed and that step's drawn allocation.
The tables come from two sources:

- identity links are affine in delta: after a nuisance fit at
  delta_r the table is ``R0 + delta_r * HD - delta * Dtab``, the cell
  totals of y - Hy, HD and D (H the nuisance hat matrix), built once
  per outcome; the weighted statistic maps each cluster's three tables
  by its W_c once (the cell totals of V_c^{-1} v are W_c times those of
  v), so its tables carry V^{-1} already (and G is one under the
  identity link);
- log and logit links work on the dataset's row patterns (distinct
  (cell, covariate row) combinations, among which the fitted mean
  h(eta_p) is constant; see :class:`~crtperm.data.RowPatterns`).  A
  pattern's unweighted residual is r_p = ysum_p - count_p * mu_p with
  mu_p = h(eta_p), and one ``bincount`` sums these into the unweighted
  table R.  The weighted entry of a pattern of cluster c is
  ``g_p * (r_p - count_p * [K_c R_c]_cell(p)) / sigma2``, the pattern
  total of G * V_c^{-1} (y - mu) with g_p the link-derivative weight;
  a (C, T, T) product and a second ``bincount`` give its table.  The
  cost grows with the number of patterns, not rows; so does a nuisance
  fit (:func:`crtperm.glm.irls_fit` iterates on the same patterns),
  apart from the fit's final gather of its per-row linear predictor.

W_c = (sigma2 I + N_c Lambda)^{-1} and K_c = Lambda W_c are the (T, T)
period maps of :class:`~crtperm.glm.CellCovariance` (N_c the cell
counts, Lambda the covariance's period matrix).  They follow from the
Woodbury identity, and they are why no V_c^{-1} is ever formed: the
working covariance is sigma2 I plus a matrix of rank at most T, so
nothing of size rows x rows per cluster is needed, and weighted memory
grows with the rows.

Ties.  Allocations that tie with the observed one in exact arithmetic
(the same or the complementary signs, or clusters with identical
tables swapped across arms) can land a few ulps apart once the sums
are rounded.  Every decision that compares a permuted |T| with the
observed one (p-value counts, the stepdown adjustment, the search's
reject flags) therefore goes through :func:`beats`: the observed value
beats a permuted one only when it exceeds it by more than ``TIE_TOL``;
otherwise the permuted value counts as at least as extreme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TrialDataset
from .errors import NumericalError
from .glm import CellCovariance, irls_fit, link_inverse, mean_derivative, nuisance_design

#: absolute tolerance below the observed |statistic| within which a
#: permuted one still ties; rounding moves a statistic bounded by
#: sqrt(C) by a few 1e-16, real gaps are many orders larger
TIE_TOL = 1e-10


def beats(observed, permuted):
    """True where ``observed`` exceeds ``permuted`` by more than the tie tolerance."""
    return permuted < observed - TIE_TOL


def studentize(tables: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Studentized statistic of every table under every allocation.

    ``tables`` and ``signs`` (+1 treated, -1 not) end in the (C, T)
    cell axes and broadcast against each other in the leading ones,
    which the result keeps.  Cluster contributions accumulate period by
    period and one numpy sum reduces them over clusters, so negated
    signs negate the statistic exactly.  A table whose contributions
    are all zero, or not finite, gives a non-finite statistic.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cs = signs[..., 0] * tables[..., 0]
        for t in range(1, tables.shape[-1]):
            cs += signs[..., t] * tables[..., t]
        return cs.sum(axis=-1) / np.sqrt((cs * cs).sum(axis=-1))


def _check_covariances(dataset: TrialDataset, covariances) -> None:
    """One cell-form covariance per outcome, each built for the dataset's layout."""
    if len(covariances) != dataset.n_outcomes:
        raise ValueError(
            f"expected one covariance per outcome ({dataset.n_outcomes}), "
            f"got {len(covariances)}"
        )
    for j, cov in enumerate(covariances):
        if not (isinstance(cov, CellCovariance)
                and np.array_equal(cov.counts, dataset.cell_counts)):
            raise ValueError(
                f"covariance of outcome {j} was not built for this dataset's cell layout"
            )


@dataclass
class _Nuisance:
    """The nuisance fits of every chain: where each last refitted, and the fits."""

    refit_at: np.ndarray  # (M, J) candidate delta of each chain's last refit
    eta_base: np.ndarray  # (J_fitted, M, P) X @ beta of the fitted outcomes, per pattern
    warm: dict = field(default_factory=dict)


class StepKernel:
    """Every chain's statistic tables at its candidate delta, and their statistics.

    A chain is one (method, outcome) pair: ``n_methods`` rows of the
    dataset's outcomes, each with its own candidate delta and nuisance
    fit.  The permutation matrix uses one row, at delta = 0.  The
    statistic is weighted when ``covariances`` holds one
    :class:`~crtperm.glm.CellCovariance` per outcome, built for the
    dataset's cell layout, and unweighted when it is None.
    """

    def __init__(self, dataset: TrialDataset, covariances, n_methods: int):
        design = dataset.design
        if design is None:
            raise ValueError("dataset has no validated design")
        self.weighted = covariances is not None
        if self.weighted:
            _check_covariances(dataset, covariances)
        specs = dataset.outcome_specs
        J = dataset.n_outcomes
        C, T = design.n_clusters, design.n_periods
        self.dataset = dataset
        self.M = n_methods
        self.cells = (C, T)
        X, _ = nuisance_design(dataset)
        D = dataset.treatment.astype(float)
        self.affine_mask = np.array([spec.link == "identity" for spec in specs])
        affine = [j for j in range(J) if self.affine_mask[j]]
        self.fitted = [j for j in range(J) if not self.affine_mask[j]]
        self.links = [specs[j].link for j in self.fitted]
        self.Dp = np.empty(0)  # treatment per row pattern, when a link is fitted

        # identity-link tables: cell totals of (y - Hy, HD, D)
        tabs = np.zeros((J, 3, C, T))
        if affine:
            y = dataset.outcomes[:, affine]
            # equal outcome columns share one projection: a least-squares
            # solve with several right-hand sides can round them differently
            first = [
                next(i for i in range(k + 1) if np.array_equal(y[:, i], y[:, k]))
                for k in range(len(affine))
            ]
            keep = sorted(set(first))
            HZ = X @ np.linalg.lstsq(X, np.column_stack([D, y[:, keep]]), rcond=None)[0]
            for k, j in enumerate(affine):
                rows = (y[:, k] - HZ[:, 1 + keep.index(first[k])], HZ[:, 0], D)
                tabs[j] = [dataset.cell_totals(v) for v in rows]
        if self.weighted:
            W = np.stack([cov.W for cov in covariances])
            tabs = np.matmul(W[:, None], tabs[..., None])[..., 0]
        self.R0, self.HD, self.Dtab = tabs[:, 0], tabs[:, 1], tabs[:, 2]

        if self.fitted:
            pat = dataset.patterns
            self.Xp = X[pat.rep]
            self.Dp = D[pat.rep]
            self.ysum = pat.ysum[:, self.fitted].T[:, None, :]
            self.counts = pat.counts
            self.cell = pat.cell
            rows = len(self.fitted) * n_methods
            self.n_bins = rows * C * T
            self.keys = (np.arange(rows)[:, None] * (C * T) + pat.cell[None, :]).ravel()
            if self.weighted:
                self.K = np.stack([covariances[j].K for j in self.fitted])[:, None]
                self.sigma2 = [covariances[j].spec.sigma2 for j in self.fitted]

    def start(self, limits: np.ndarray) -> _Nuisance:
        """Fit every chain's nuisance parameters at its starting delta."""
        state = _Nuisance(
            refit_at=limits.copy(),
            eta_base=np.empty((len(self.fitted), self.M) + self.Dp.shape),
        )
        for i, j in enumerate(self.fitted):
            for m in range(self.M):
                self._refit(state, m, i, limits[m, j])
        return state

    def _refit(self, state: _Nuisance, m: int, i: int, delta: float) -> None:
        j = self.fitted[i]
        beta = irls_fit(
            self.dataset, j, delta_fixed=float(delta), start=state.warm.get((m, i))
        ).nuisance_coefs
        state.warm[(m, i)] = beta
        state.eta_base[i, m] = self.Xp @ beta
        state.refit_at[m, j] = delta

    def refresh(self, state: _Nuisance, limits: np.ndarray, tol: np.ndarray):
        """Refit the chains whose delta moved more than ``tol`` since their last refit.

        Returns None when every refit succeeded, else an (M, J) mask
        that is False where one failed.
        """
        stale = np.abs(limits - state.refit_at) > tol
        if not stale.any():
            return None
        moved = stale & self.affine_mask
        state.refit_at[moved] = limits[moved]
        ok = None
        for i, j in enumerate(self.fitted):
            for m in np.flatnonzero(stale[:, j]):
                try:
                    self._refit(state, m, i, limits[m, j])
                except NumericalError:
                    if ok is None:
                        ok = np.ones(limits.shape, dtype=bool)
                    ok[m, j] = False
        return ok

    def tables(self, limits: np.ndarray, state: _Nuisance) -> np.ndarray:
        """Cell tables of every chain at its candidate delta, shape (M, J, C, T)."""
        tab = (
            self.R0 + state.refit_at[..., None, None] * self.HD
            - limits[..., None, None] * self.Dtab
        )
        if not self.fitted:
            return tab
        # far-out limits overflow the mean; the statistic is then not finite
        F, C, T = len(self.fitted), *self.cells
        with np.errstate(over="ignore", invalid="ignore"):
            eta = state.eta_base + limits[:, self.fitted].T[:, :, None] * self.Dp
            mu = np.empty_like(eta)
            for i, link in enumerate(self.links):
                mu[i] = link_inverse(eta[i], link)
            resid = self.ysum - self.counts * mu
            sums = np.bincount(self.keys, weights=resid.ravel(), minlength=self.n_bins)
            if self.weighted:
                # g_p (r_p - count_p [K_c R_c]_cell(p)) / sigma2, R the cells of r
                R = sums.reshape((F, self.M, C, T, 1))
                KR = np.matmul(self.K, R).reshape(F, self.M, C * T)
                resid -= self.counts * KR[..., self.cell]
                for i, link in enumerate(self.links):
                    resid[i] *= 1.0 / (self.sigma2[i] * mean_derivative(mu[i], link))
                sums = np.bincount(self.keys, weights=resid.ravel(), minlength=self.n_bins)
        tab[:, self.fitted] = sums.reshape((F, self.M) + self.cells).swapaxes(0, 1)
        return tab

    def evaluate(self, limits: np.ndarray, state: _Nuisance, signs: np.ndarray) -> np.ndarray:
        """Observed and permuted statistics of every chain, shape (2, M, J).

        ``signs`` holds the (C, T) treatment signs (+1 treated, -1 not)
        of the observed and of the permuted allocation, shape (2, C, T).
        """
        return studentize(self.tables(limits, state), signs[:, None, None])
