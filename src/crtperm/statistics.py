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
candidate limits under the observed and that step's drawn allocation of
each side.
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
  fit: the stale chains of an outcome refit together in one
  :func:`crtperm.glm.pattern_irls` call on the same patterns, and
  nothing per row is formed.

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

import copy

import numpy as np

from .data import TrialDataset
from .glm import (
    CellCovariance, fit_error, link_inverse, mean_derivative, nuisance_design, pattern_irls,
)

#: absolute tolerance below the observed |statistic| within which a
#: permuted one still ties; rounding moves a statistic bounded by
#: sqrt(C) by a few 1e-16, real gaps are many orders larger
TIE_TOL = 1e-10

#: the refit rule: a chain refits its nuisance parameters when its
#: candidate delta has moved more than this many standard errors since
#: its last fit
REFIT_FRACTION = 0.1


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


class StepKernel:
    """Every chain's statistic tables at its candidate delta, and their statistics.

    A chain is one (row, outcome) pair: ``n_rows`` rows of the
    dataset's outcomes, each with its own candidate delta and nuisance
    fit.  The search's rows are its methods on the upper side, then the
    same methods on the lower side; the permutation matrix uses one
    row, at delta = 0.  The statistic is weighted when ``covariances``
    holds one :class:`~crtperm.glm.CellCovariance` per outcome, built
    for the dataset's cell layout, and unweighted when it is None.
    :meth:`stack` joins the rows of started kernels of several datasets
    of one cell layout and outcome links (a chunk of study replicates),
    so that one call evaluates them all.

    The kernel owns the chains' nuisance fits.  After :meth:`start`, a
    chain refits when its delta has moved more than ``REFIT_FRACTION``
    of its outcome's standard error in ``ses`` (never, without ``ses``);
    the stale chains of a log or logit outcome of one dataset refit in
    one :func:`~crtperm.glm.pattern_irls` call, warm-started from their
    own coefficients.
    """

    def __init__(self, dataset: TrialDataset, covariances, n_rows: int, ses=None):
        design = dataset.design
        if design is None:
            raise ValueError("dataset has no validated design")
        if covariances is not None:
            _check_covariances(dataset, covariances)
        specs = dataset.outcome_specs
        J = dataset.n_outcomes
        C, T = design.n_clusters, design.n_periods
        self.cells = (C, T)
        tol = np.inf if ses is None else REFIT_FRACTION * np.asarray(ses, dtype=float)
        # per-row arrays, so that kernels of several datasets stack
        self.tol = np.broadcast_to(tol, (n_rows, J))
        X, _ = nuisance_design(dataset)
        D = dataset.treatment.astype(float)
        self.affine_mask = np.array([spec.link == "identity" for spec in specs])
        affine = [j for j in range(J) if self.affine_mask[j]]
        self.fitted = [j for j in range(J) if not self.affine_mask[j]]

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
        if covariances is not None:
            W = np.stack([cov.W for cov in covariances])
            tabs = np.matmul(W[:, None], tabs[..., None])[..., 0]
        self.R0, self.HD, self.Dtab = (
            np.broadcast_to(tabs[:, i], (n_rows, J, C, T)) for i in range(3)
        )
        # (row slice, pattern tables) of each dataset: only log and logit links need them
        self.parts = []
        if self.fitted:
            part = _PatternTables(dataset, X, D, covariances, self.fitted, n_rows)
            self.parts.append((slice(0, n_rows), part))

    @classmethod
    def stack(cls, kernels: list["StepKernel"]) -> "StepKernel":
        """One kernel whose rows are the rows of the started ``kernels``, in order.

        Each dataset keeps its own tables, fits and refit rule, so every
        row's statistics are those its own kernel gives.
        """
        first = kernels[0]
        for k in kernels[1:]:
            if not (k.cells == first.cells and np.array_equal(k.affine_mask, first.affine_mask)):
                raise ValueError("stacked kernels need one cell layout and outcome links")
        kernel = copy.copy(first)
        for name in ("tol", "R0", "HD", "Dtab", "refit_at"):
            setattr(kernel, name, np.concatenate([getattr(k, name) for k in kernels]))
        kernel.parts, offset = [], 0
        for k in kernels:
            kernel.parts += [
                (slice(offset + rows.start, offset + rows.stop), part) for rows, part in k.parts
            ]
            offset += len(k.refit_at)
        return kernel

    def start(self, limits: np.ndarray) -> None:
        """Fit every chain at its starting delta; the first fit that fails raises its error."""
        self.refit_at = limits.copy()
        for rows, part in self.parts:
            part.start(limits[rows], self.refit_at[rows])

    def tables(self, limits: np.ndarray) -> np.ndarray:
        """Cell tables of every chain at its candidate delta, shape (rows, J, C, T).

        Stale chains refit first; one whose refit failed keeps its last
        fit and gets a NaN table, so its statistic is not finite.
        """
        stale = np.abs(limits - self.refit_at) > self.tol
        moved = stale & self.affine_mask
        np.copyto(self.refit_at, limits, where=moved)
        tab = (
            self.R0 + self.refit_at[..., None, None] * self.HD
            - limits[..., None, None] * self.Dtab
        )
        if not self.parts:
            return tab
        failed = np.zeros(limits.shape, dtype=bool)
        for rows, part in self.parts:
            tab[rows, self.fitted], failed[rows, self.fitted] = part.tables(
                limits[rows], stale[rows], self.refit_at[rows]
            )
        tab[failed] = np.nan
        return tab

    def evaluate(self, limits: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Observed and permuted statistics of every chain, shape (2, rows, J).

        ``signs`` holds the (C, T) treatment signs (+1 treated, -1 not)
        of an observed and a permuted allocation: one pair for every
        row, shape (2, C, T), or one pair per block of rows, shape
        (S, 2, C, T), pair s signing the s-th of S equal blocks (the
        search's sides of each replicate).
        """
        tables = self.tables(limits)
        pairs = signs.reshape((-1, 2) + self.cells)
        blocks = tables.reshape((len(pairs), -1) + tables.shape[1:])
        stats = studentize(blocks, pairs.swapaxes(0, 1)[:, :, None, None])
        return stats.reshape((2,) + limits.shape)


class _PatternTables:
    """The log- and logit-link chains of one dataset: their fits and tables on its row patterns.

    Outcome i of ``fitted`` is the i-th log or logit outcome; a fit of
    row m at delta writes delta into ``refit_at[m, fitted[i]]``, the
    refit record of the kernel's rows this dataset holds.
    """

    def __init__(self, dataset: TrialDataset, X, D, covariances, fitted, n_rows):
        specs = dataset.outcome_specs
        pat = dataset.patterns
        C, T = dataset.design.n_clusters, dataset.design.n_periods
        self.fitted = fitted
        self.names = [specs[j].name for j in fitted]
        self.links = [specs[j].link for j in fitted]
        self.n_rows = n_rows
        self.cells = (C, T)
        self.Xp = X[pat.rep]
        self.Dp = D[pat.rep]
        self.ysum = pat.ysum[:, fitted].T[:, None, :]
        self.ybar = self.ysum[:, 0] / pat.counts
        self.counts = pat.counts
        self.cell = pat.cell
        chains = len(fitted) * n_rows
        self.n_bins = chains * C * T
        self.keys = (np.arange(chains)[:, None] * (C * T) + pat.cell[None, :]).ravel()
        self.weighted = covariances is not None
        if self.weighted:
            self.K = np.stack([covariances[j].K for j in fitted])[:, None]
            self.sigma2 = [covariances[j].spec.sigma2 for j in fitted]
        self.coef = np.empty((len(fitted), n_rows, self.Xp.shape[1]))
        self.eta_base = np.empty((len(fitted), n_rows) + self.Dp.shape)

    def start(self, limits: np.ndarray, refit_at: np.ndarray) -> None:
        for i, j in enumerate(self.fitted):
            status = self._fit(i, np.arange(self.n_rows), limits[:, j], None, refit_at)
            if status.any():
                raise fit_error(status[status > 0][0], self.names[i])

    def _fit(self, i, chains, deltas, start, refit_at) -> np.ndarray:
        """Fit fitted outcome i's ``chains`` at ``deltas`` in one call; keep the good fits."""
        coef, xb, status = pattern_irls(
            self.Xp, self.counts, self.ybar[i], deltas[:, None] * self.Dp, self.links[i], start
        )
        good = status == 0
        self.coef[i, chains[good]] = coef[good]
        self.eta_base[i, chains[good]] = xb[good]
        refit_at[chains[good], self.fitted[i]] = deltas[good]
        return status

    def tables(self, limits, stale, refit_at) -> tuple[np.ndarray, np.ndarray]:
        """Refit the stale chains, then the tables (rows, F, C, T) and failed refits (rows, F)."""
        F, C, T = len(self.fitted), *self.cells
        failed = np.zeros((self.n_rows, F), dtype=bool)
        for i, j in enumerate(self.fitted):
            chains = np.flatnonzero(stale[:, j])
            if chains.size:
                status = self._fit(i, chains, limits[chains, j], self.coef[i, chains], refit_at)
                failed[chains[status > 0], i] = True
        # far-out limits overflow the mean or drive its derivative to 0; the
        # statistic is then not finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eta = self.eta_base + limits[:, self.fitted].T[:, :, None] * self.Dp
            mu = np.empty_like(eta)
            for i, link in enumerate(self.links):
                mu[i] = link_inverse(eta[i], link)
            resid = self.ysum - self.counts * mu
            sums = np.bincount(self.keys, weights=resid.ravel(), minlength=self.n_bins)
            if self.weighted:
                # g_p (r_p - count_p [K_c R_c]_cell(p)) / sigma2, R the cells of r
                R = sums.reshape((F, self.n_rows, C, T, 1))
                KR = np.matmul(self.K, R).reshape(F, self.n_rows, C * T)
                resid -= self.counts * KR[..., self.cell]
                for i, link in enumerate(self.links):
                    resid[i] *= 1.0 / (self.sigma2[i] * mean_derivative(mu[i], link))
                sums = np.bincount(self.keys, weights=resid.ravel(), minlength=self.n_bins)
        return sums.reshape((F, self.n_rows) + self.cells).swapaxes(0, 1), failed
