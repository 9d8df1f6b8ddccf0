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
  per outcome; the weighted statistic applies the inverse working
  covariances to those three row vectors once, so its tables carry
  V^{-1} already (and G is one under the identity link);
- log and logit links work on the dataset's row patterns (distinct
  (cell, covariate row) combinations, among which the fitted mean
  h(eta_p) is constant; see :class:`~crtperm.data.RowPatterns`).
  With S the rows-to-patterns indicator, each pattern's entry is
  ``g_p * (A - B mu)_p`` with A = S' V^{-1} y and B = S' V^{-1} S
  compressed once per outcome and cluster, g_p the link-derivative
  weight and mu_p = h(eta_p); the unweighted statistic is the same
  formula with V = I and g = 1, i.e. ``ysum_p - count_p * mu_p``.
  Weighted tables apply B with one batched ``matmul`` per distinct
  number of patterns per cluster; one ``bincount`` then sums the
  patterns into cells.  The cost grows with the number of patterns,
  not rows; so does a nuisance fit (:func:`crtperm.glm.irls_fit`
  iterates on the same patterns), apart from the fit's final gather
  of its per-row linear predictor.

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
from scipy.linalg import cho_solve

from .data import TrialDataset
from .errors import NumericalError
from .glm import (
    cholesky_blocks,
    irls_fit,
    link_inverse,
    mean_derivative,
    nuisance_design,
    size_groups,
)

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


def _cluster_inverses(dataset: TrialDataset, covariances, groups) -> list[np.ndarray]:
    """Inverse working covariances, one (J, C_g, s_g, s_g) stack per row group."""
    sizes = [len(idx) for idx in dataset.cluster_obs_indices]
    for outcome_covariances in covariances:
        if len(outcome_covariances) != len(sizes):
            raise ValueError(
                f"expected {len(sizes)} covariance matrices, got {len(outcome_covariances)}"
            )
        for c, V in enumerate(outcome_covariances):
            if np.shape(V) != (sizes[c], sizes[c]):
                raise ValueError(
                    f"covariance for cluster {dataset.cluster_labels[c]!r} has shape "
                    f"{np.shape(V)}, expected ({sizes[c]}, {sizes[c]})"
                )
    stacks = []
    for clusters, _ in groups:
        V = np.array([[covs[c] for c in clusters] for covs in covariances])
        fac = cholesky_blocks(dataset, V, clusters)
        stacks.append(cho_solve(fac, np.broadcast_to(np.eye(V.shape[-1]), V.shape)))
    return stacks


def _solve_blocks(values, groups, blocks) -> np.ndarray:
    """Each cluster's block of ``values`` (K, L, N) times its square block.

    ``blocks[g]`` has shape (K, C_g, s_g, s_g): one stack per leading
    row, so one ``matmul`` serves every cluster of one size.
    """
    out = np.empty_like(values)
    for (_, idx), block in zip(groups, blocks):
        out[:, :, idx] = np.matmul(values[:, :, idx].swapaxes(1, 2), block).swapaxes(1, 2)
    return out


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
    fit.  The permutation matrix uses one row, at delta = 0.
    """

    def __init__(self, dataset: TrialDataset, kind: str, covariances, n_methods: int):
        design = dataset.design
        if design is None:
            raise ValueError("dataset has no validated design")
        if kind not in ("unweighted", "weighted"):
            raise ValueError(f"unknown statistic kind: {kind!r}")
        if kind == "weighted" and covariances is None:
            raise ValueError("weighted statistic requires per-outcome covariances")
        specs = dataset.outcome_specs
        J, n = dataset.n_outcomes, dataset.n_obs
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
        self.weighted = kind == "weighted"
        self.Dp = np.empty(0)  # treatment per row pattern, when a link is fitted

        # identity-link rows: (y - Hy, HD, D); fitted outcomes' first row: y
        vecs = np.zeros((J, 3, n))
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
            vecs[affine, 0] = (y - HZ[:, [1 + keep.index(i) for i in first]]).T
            vecs[affine, 1] = HZ[:, 0]
            vecs[affine, 2] = D
        vecs[self.fitted, 0] = dataset.outcomes[:, self.fitted].T
        if self.weighted:
            row_groups = size_groups(dataset.cluster_obs_indices)
            inverses = _cluster_inverses(dataset, covariances, row_groups)
            vecs = _solve_blocks(vecs, row_groups, inverses)
        tabs = np.zeros((J, 3, C, T))
        for j in affine:
            tabs[j] = [dataset.cell_totals(v) for v in vecs[j]]
        self.R0, self.HD, self.Dtab = tabs[:, 0], tabs[:, 1], tabs[:, 2]

        if self.fitted:
            # per pattern p: g_p * (A - B mu)_p, with A = S^T V^-1 y and
            # B = S^T V^-1 S for the rows-to-patterns indicator S (V = I
            # and g = 1 unweighted, so B = diag(counts))
            pat = dataset.patterns
            P = len(pat.rep)
            self.Xp = X[pat.rep]
            self.Dp = D[pat.rep]
            self.A = np.array([
                np.bincount(pat.of_row, weights=vecs[j, 0], minlength=P)
                for j in self.fitted
            ])[:, None, :]
            rows = len(self.fitted) * n_methods
            self.n_bins = rows * C * T
            self.keys = (np.arange(rows)[:, None] * (C * T) + pat.cell[None, :]).ravel()
            if self.weighted:
                first = np.searchsorted(pat.cell // T, np.arange(C + 1))
                blocks = [np.arange(first[c], first[c + 1]) for c in range(C)]
                self.pattern_groups = size_groups(blocks)
                S = [
                    (pat.of_row[idx][:, None] == blocks[c]).astype(float)
                    for c, idx in enumerate(dataset.cluster_obs_indices)
                ]
                inverse = [None] * C  # cluster c's (J, s_c, s_c) inverses
                for (clusters, _), stack in zip(row_groups, inverses):
                    for k, c in enumerate(clusters):
                        inverse[c] = stack[:, k]
                self.B = [
                    np.array([
                        [S[c].T @ inverse[c][j] @ S[c] for c in clusters] for j in self.fitted
                    ])
                    for clusters, _ in self.pattern_groups
                ]
            else:
                self.counts = pat.counts

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
        with np.errstate(over="ignore", invalid="ignore"):
            eta = state.eta_base + limits[:, self.fitted].T[:, :, None] * self.Dp
            mu = np.empty_like(eta)
            for i, link in enumerate(self.links):
                mu[i] = link_inverse(eta[i], link)
            if self.weighted:
                resid = self.A - _solve_blocks(mu, self.pattern_groups, self.B)
                for i, link in enumerate(self.links):
                    resid[i] *= 1.0 / mean_derivative(eta[i], link)
            else:
                resid = self.A - self.counts * mu
        sums = np.bincount(self.keys, weights=resid.ravel(), minlength=self.n_bins)
        tab[:, self.fitted] = sums.reshape((len(self.fitted), self.M) + self.cells).swapaxes(0, 1)
        return tab

    def evaluate(self, limits: np.ndarray, state: _Nuisance, signs: np.ndarray) -> np.ndarray:
        """Observed and permuted statistics of every chain, shape (2, M, J).

        ``signs`` holds the (C, T) treatment signs (+1 treated, -1 not)
        of the observed and of the permuted allocation, shape (2, C, T).
        """
        return studentize(self.tables(limits, state), signs[:, None, None])
