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
  fit: the stale chains of every log and logit outcome, and of every
  stacked dataset that shares the pattern design, refit together in
  one :func:`crtperm.glm.pattern_irls` call, and one pass builds all
  their tables; nothing per row is formed.

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
observed one (p-value counts, the search's reject flags, and the
stepdown walk :func:`stepdown_beats` that the stepdown adjustment and
the search's stepdown rows share) therefore goes through
:func:`beats`: the observed value beats a permuted one only when it
exceeds it by more than ``TIE_TOL``; otherwise the permuted value
counts as at least as extreme.
"""

from __future__ import annotations

import copy

import numpy as np

from .data import TrialDataset
from .glm import (
    CellCovariance, PatternDesign, batch_derivative, batch_mean, fit_error, nuisance_design,
    pattern_irls,
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


def stepdown_beats(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The max-statistic stepdown walk of N families of J hypotheses.

    ``a`` holds |statistics|, shape (1 + K, N, J): row 0 the observed
    ones, rows 1.. K permuted draws.  Each family's hypotheses are
    ranked by decreasing observed value, ties by index, and ``order``,
    shape (N, J), lists them in that order.  The flags, shape
    (K, N, J), say at rank r whether the observed value there
    :func:`beats` the largest draw-k value over ranks r and later.
    This is the one stepdown walk: the adjusted p-values count the
    flags over K draws, and each confidence-limit search step walks
    K = 1.
    """
    order = (-a[0]).argsort(axis=1, kind="stable")
    ranked = a[:, np.arange(a.shape[1])[:, None], order]
    suffix = np.maximum.accumulate(ranked[1:, :, ::-1], axis=2)[:, :, ::-1]
    return order, beats(ranked[0], suffix)


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

    A chain is one (row, outcome) pair: the rows of ``limits``, shape
    (rows, J), each give every outcome its own starting delta and
    nuisance fit.  The search's rows are its methods on the upper side,
    then the same methods on the lower side; the permutation matrix uses
    one row, at delta = 0.  The statistic is weighted when
    ``covariances`` holds one :class:`~crtperm.glm.CellCovariance` per
    outcome, built for the dataset's cell layout, and unweighted when it
    is None.  :meth:`stack` joins the rows of kernels of several
    datasets of one cell layout and outcome links (a chunk of study
    replicates), so that one call evaluates them all.

    The kernel owns the chains' nuisance fits.  It fits every chain at
    its starting delta when it is built, and the first fit that fails
    raises its error.  From then on a chain refits when its delta has
    moved more than ``REFIT_FRACTION`` of its outcome's standard error
    in ``ses`` (never, without ``ses``).
    The log and logit chains live in pattern tables (``parts``), one per
    group of datasets that share a pattern design; each step, the stale
    chains of a group, whatever their outcome, refit in one
    :func:`~crtperm.glm.pattern_irls` call, warm-started from their own
    coefficients.
    """

    def __init__(self, dataset: TrialDataset, covariances, limits: np.ndarray, ses=None):
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
        self.refit_at = np.array(limits, dtype=float)
        n_rows = len(self.refit_at)
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
        # the pattern tables of the rows' log and logit chains
        self.parts = []
        if self.fitted:
            part = _PatternTables(dataset, X, D, covariances, self.fitted, self.refit_at)
            self.parts.append(part)

    @classmethod
    def stack(cls, kernels: list["StepKernel"]) -> "StepKernel":
        """One kernel whose rows are the rows of ``kernels``, in order.

        Each dataset keeps its own tables, fits and refit rule, so every
        row's statistics are those its own kernel gives.  The pattern
        tables of datasets that share a pattern design join, so that
        their stale chains refit in one call.
        """
        first = kernels[0]
        for k in kernels[1:]:
            if not (k.cells == first.cells and np.array_equal(k.affine_mask, first.affine_mask)):
                raise ValueError("stacked kernels need one cell layout and outcome links")
        kernel = copy.copy(first)
        for name in ("tol", "R0", "HD", "Dtab", "refit_at"):
            setattr(kernel, name, np.concatenate([getattr(k, name) for k in kernels]))
        groups: list[list[_PatternTables]] = []
        offset = 0
        for k in kernels:
            for part in k.parts:
                part = part.shifted(offset)
                group = next((g for g in groups if g[0].joins(part)), None)
                if group is None:
                    groups.append([part])
                else:
                    group.append(part)
            offset += len(k.refit_at)
        kernel.parts = [_PatternTables.join(group) for group in groups]
        return kernel

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
        for part in self.parts:
            tab[part.at], failed[part.at] = part.tables(limits, stale, self.refit_at)
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
    """The log- and logit-link chains of datasets of one pattern design: fits and tables.

    A chain is a (fitted outcome, row) pair: outcome i of ``fitted`` is
    the i-th log or logit outcome, and ``rows`` are the kernel rows held
    here.  The datasets share the pattern design ``design`` and the
    patterns' cells; their counts, treatment, outcome sums and working
    covariances are per row.  A single dataset's per-row arrays are
    broadcast views of its own; :meth:`join` stacks several datasets'
    into one.  A fit of chain (i, m) at delta writes delta into
    ``refit_at[rows[m], fitted[i]]``, the kernel's refit record.  Built,
    the tables fit every chain at its delta in ``refit_at``, and the
    first fit that fails raises its error.
    """

    #: the per-row arrays and the axis of their rows
    ROW_AXES = {"rows": 0, "Dp": 0, "counts": 0, "ysum": 1, "ybar": 1,
                "K": 1, "sigma2": 1, "coef": 1, "eta_base": 1}

    def __init__(self, dataset: TrialDataset, X, D, covariances, fitted, refit_at):
        specs = dataset.outcome_specs
        n_rows = len(refit_at)
        pat = dataset.patterns
        F, P = len(fitted), len(pat.rep)
        self.fitted = np.array(fitted)
        self.names = [specs[j].name for j in fitted]
        self.link_names = np.array([specs[j].link for j in fitted])
        self.logit = (self.link_names == "logit")[:, None, None]
        self.cells = (dataset.design.n_clusters, dataset.design.n_periods)
        self.design = PatternDesign.factor(X[pat.rep])
        self.cell = pat.cell
        self.rows = np.arange(n_rows)
        self.Dp = np.broadcast_to(D[pat.rep], (n_rows, P))
        self.counts = np.broadcast_to(pat.counts, (n_rows, P))
        ysum = pat.ysum[:, fitted].T[:, None, :]
        self.ysum = np.broadcast_to(ysum, (F, n_rows, P))
        self.ybar = np.broadcast_to(ysum / pat.counts, (F, n_rows, P))
        self.weighted = covariances is not None
        if self.weighted:
            K = np.stack([covariances[j].K for j in fitted])[:, None]
            self.K = np.broadcast_to(K, (F, n_rows) + K.shape[2:])
            sigma2 = np.array([covariances[j].spec.sigma2 for j in fitted])
            self.sigma2 = np.broadcast_to(sigma2[:, None, None], (F, n_rows, 1))
        self.coef = np.empty((F, n_rows, X.shape[1]))
        self.eta_base = np.empty((F, n_rows, P))
        self._index()
        i, m = (a.ravel() for a in np.indices((F, n_rows)))
        status = self._fit(i, m, refit_at[m, self.fitted[i]], None, refit_at)
        if status.any():
            k = np.flatnonzero(status)[0]
            raise fit_error(status[k], self.names[i[k]])

    def _index(self) -> None:
        """The chains' entries of the kernel's (rows, J) arrays, and the bins of their cells.

        Chain (i, m) is number i * rows + m.
        """
        C, T = self.cells
        chains = len(self.fitted) * len(self.rows)
        self.at = np.ix_(self.rows, self.fitted)
        self.n_bins = chains * C * T
        self.keys = (np.arange(chains)[:, None] * (C * T) + self.cell[None, :]).ravel()

    def shifted(self, offset: int) -> "_PatternTables":
        """These tables for the kernel rows ``offset`` further on."""
        part = copy.copy(self)
        part.rows = self.rows + offset
        part._index()
        return part

    def joins(self, other: "_PatternTables") -> bool:
        """Whether ``other``'s chains can share these tables: one pattern design and links."""
        return (
            self.weighted == other.weighted
            and np.array_equal(self.link_names, other.link_names)
            and np.array_equal(self.cell, other.cell)
            and np.array_equal(self.design.X, other.design.X)
        )

    @classmethod
    def join(cls, parts: list["_PatternTables"]) -> "_PatternTables":
        """One set of tables holding the chains of every part, which all join the first."""
        if len(parts) == 1:
            return parts[0]
        joined = copy.copy(parts[0])
        for name, axis in cls.ROW_AXES.items():
            if hasattr(joined, name):
                # C order: the zero-stride rows of a broadcast view would come
                # last in the concatenation's own order, and a matmul on
                # matrices of other strides skips BLAS and rounds differently
                rows = np.concatenate([getattr(p, name) for p in parts], axis)
                setattr(joined, name, np.ascontiguousarray(rows))
        joined._index()
        return joined

    def _fit(self, i, m, deltas, start, refit_at) -> np.ndarray:
        """Fit chains (i, m) at ``deltas`` in one call; keep the good fits."""
        coef, xb, status = pattern_irls(
            self.design, self.counts[m], self.ybar[i, m], deltas[:, None] * self.Dp[m],
            self.link_names[i], start,
        )
        if status.any():
            good = status == 0
            i, m, coef, xb, deltas = i[good], m[good], coef[good], xb[good], deltas[good]
        self.coef[i, m] = coef
        self.eta_base[i, m] = xb
        refit_at[self.rows[m], self.fitted[i]] = deltas
        return status

    def tables(self, limits, stale, refit_at) -> tuple[np.ndarray, np.ndarray]:
        """Refit the stale chains, then the tables (rows, F, C, T) and failed refits (rows, F).

        ``limits``, ``stale`` and ``refit_at`` are the kernel's, every row.
        """
        F, R = self.eta_base.shape[:2]
        C, T = self.cells
        limits = limits[self.at]
        i, m = np.nonzero(stale[self.at].T)
        failed = np.zeros((F, R), dtype=bool)
        if i.size:
            failed[i, m] = self._fit(i, m, limits[m, i], self.coef[i, m], refit_at) > 0
        # far-out limits overflow the mean or drive its derivative to 0; the
        # statistic is then not finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eta = self.eta_base + limits.T[:, :, None] * self.Dp
            mu = batch_mean(eta, self.logit)
            resid = self.ysum - self.counts * mu
            sums = np.bincount(self.keys, weights=resid.ravel(), minlength=self.n_bins)
            if self.weighted:
                # g_p (r_p - count_p [K_c R_c]_cell(p)) / sigma2, R the cells of r
                KR = np.matmul(self.K, sums.reshape((F, R, C, T, 1))).reshape(F, R, C * T)
                resid -= self.counts * KR[..., self.cell]
                resid *= 1.0 / (self.sigma2 * batch_derivative(mu, self.logit))
                sums = np.bincount(self.keys, weights=resid.ravel(), minlength=self.n_bins)
        return sums.reshape((F, R) + self.cells).swapaxes(0, 1), failed.T
