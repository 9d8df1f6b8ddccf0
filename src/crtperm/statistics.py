"""Studentized permutation test statistics.

Both statistics reduce to the same skeleton: aggregate per-observation
terms into one scalar per cluster, flip each cluster-period block's
sign according to the (possibly permuted) allocation, and studentize
by the root sum of squared cluster contributions,

    T = sum_c r_c / sqrt(sum_c r_c^2).

For the unweighted statistic the per-observation term is the
generalised residual y - mu; for the weighted (quasi-score) statistic
it is G * V^{-1} (y - mu) with link-derivative weights G and a working
within-cluster covariance V.  The residuals, weights, and covariance
solves do not depend on the allocation, so they are computed once and
reused across every permutation; only the signs change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .data import TrialDataset, DesignInfo
from .errors import NumericalError
from .glm import FittedMeanModel


def row_sums_exact(arr: np.ndarray) -> np.ndarray:
    """Correctly rounded row sums.

    Permutation ties hinge on exact float identities (the statistic of
    a re-allocation can equal or negate the observed one in real
    arithmetic), and ordinary vectorized reductions can order their
    additions differently depending on array shape and alignment,
    silently breaking those ties by one ulp.  ``math.fsum`` returns the
    exactly rounded sum, which is independent of summation order and
    commutes with negation, so tie comparisons behave identically in
    every code path.
    """
    arr = np.ascontiguousarray(arr)
    return np.array([math.fsum(row) for row in arr])


@dataclass
class NullResiduals:
    """Generalised residuals y - h(eta) with the effect pinned at a null value.

    The residual vector is a function of the constrained fit only, so a
    single instance serves every permutation of one hypothesis test.
    """

    values: np.ndarray
    delta_star: float
    outcome_index: int
    dataset: TrialDataset = field(repr=False)

    def cell_table(self) -> np.ndarray:
        """Residual totals per (cluster, period) cell, shape (C, T)."""
        table = getattr(self, "_table", None)
        if table is None:
            table = self.dataset.cell_totals(self.values)
            self._table = table
        return table


@dataclass(frozen=True)
class SignedAllocation:
    """Treatment signs per (cluster, period): +1 treated, -1 untreated."""

    signs: np.ndarray
    treated: tuple[int, ...]

    @classmethod
    def from_treated(
        cls, design: DesignInfo, treated: np.ndarray | tuple[int, ...]
    ) -> "SignedAllocation":
        """Build the sign pattern for a given treated-cluster subset.

        Under the parallel scheme treated clusters carry +1 in every
        period; under parallel-with-baseline every cluster is -1 in
        period 1 and the treated subset is +1 from period 2 on.
        """
        treated = tuple(int(c) for c in treated)
        signs = -np.ones((design.n_clusters, design.n_periods), dtype=np.int8)
        start = design.treatment_start_period - 1
        signs[list(treated), start:] = 1
        signs.flags.writeable = False
        return cls(signs=signs, treated=treated)

    @classmethod
    def observed(cls, dataset: TrialDataset) -> "SignedAllocation":
        d = dataset.treatment_matrix
        treated = tuple(int(c) for c in np.flatnonzero(d.any(axis=1)))
        signs = (2 * d - 1).astype(np.int8)
        # cells with no observations contribute nothing; their sign is moot
        return cls(signs=signs, treated=treated)


def residuals_under_null(
    fitted: FittedMeanModel,
    delta_star: float,
    dataset: TrialDataset,
    outcome_index: int,
) -> NullResiduals:
    """Generalised residuals from a fit constrained at ``delta_star``.

    The fit must have been produced with ``delta_fixed == delta_star``
    so that the nuisance parameters were estimated under the null being
    tested; a mismatch is an error, not a silent recomputation.
    """
    if fitted.delta_fixed is None:
        raise ValueError(
            "residuals_under_null requires a constrained fit "
            "(irls_fit with delta_fixed set)"
        )
    if fitted.delta_fixed != delta_star:
        raise ValueError(
            f"fit was constrained at delta={fitted.delta_fixed!r}, "
            f"not at the requested null {delta_star!r}"
        )
    if fitted.outcome_index != outcome_index:
        raise ValueError("fit does not belong to the requested outcome")
    y = dataset.outcomes[:, outcome_index]
    values = y - fitted.fitted_mean
    return NullResiduals(
        values=values,
        delta_star=float(delta_star),
        outcome_index=outcome_index,
        dataset=dataset,
    )


def _signed_cluster_sums(table: np.ndarray, signs_batch: np.ndarray) -> np.ndarray:
    """Per-cluster signed contributions, shape (m, C).

    Accumulated period by period with elementwise operations so that
    each entry is a fixed sequence of rounded operations regardless of
    batch shape.
    """
    out = signs_batch[:, :, 0] * table[None, :, 0]
    for t in range(1, table.shape[1]):
        out = out + signs_batch[:, :, t] * table[None, :, t]
    return out


def stat_from_cell_table(table: np.ndarray, signs: np.ndarray) -> float:
    """Studentized statistic from a (C, T) contribution table and signs."""
    return float(stats_from_cell_table(table, signs[None])[0])


def stats_from_cell_table(table: np.ndarray, signs_batch: np.ndarray) -> np.ndarray:
    """Vectorized version over a batch of sign matrices, shape (m, C, T)."""
    cluster_sums = _signed_cluster_sums(table, signs_batch)
    denom = np.sqrt(row_sums_exact(cluster_sums**2))
    bad = np.flatnonzero(denom == 0.0)
    if bad.size:
        raise NumericalError(
            "degenerate statistic: all cluster contributions are zero "
            f"(allocation column {int(bad[0])})"
        )
    return row_sums_exact(cluster_sums) / denom


def unweighted_stat(residuals: NullResiduals, alloc: SignedAllocation) -> float:
    """Studentized sum of signed generalised residuals.

    Cluster contribution r_c = sum over the cluster's cells of
    sign * residual total; the statistic is
    sum_c r_c / sqrt(sum_c r_c^2), which lies in [-sqrt(C), sqrt(C)].
    """
    return stat_from_cell_table(residuals.cell_table(), alloc.signs)


def weighted_cell_table(
    residuals: NullResiduals,
    V: list[np.ndarray],
    G: np.ndarray,
) -> np.ndarray:
    """Per-cell totals of G * V^{-1} r, the weighted statistic's table.

    ``V`` holds one working covariance per cluster, laid out to match
    ``dataset.cluster_obs_indices`` (observations ordered by period).
    Solves use a Cholesky factorization per cluster; the table does not
    depend on the allocation, so one call serves all permutations.
    """
    ds = residuals.dataset
    if len(V) != ds.n_clusters:
        raise ValueError(
            f"expected {ds.n_clusters} covariance matrices, got {len(V)}"
        )
    G = np.asarray(G, dtype=float)
    if G.shape != (ds.n_obs,):
        raise ValueError(
            f"weight vector has shape {G.shape}, expected ({ds.n_obs},)"
        )
    weighted = np.empty(ds.n_obs)
    for c, idx in enumerate(ds.cluster_obs_indices):
        Vc = V[c]
        if Vc.shape != (len(idx), len(idx)):
            raise ValueError(
                f"covariance for cluster {ds.cluster_labels[c]!r} has shape "
                f"{Vc.shape}, expected ({len(idx)}, {len(idx)})"
            )
        try:
            fac = cho_factor(Vc, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular covariance matrix for cluster "
                f"{ds.cluster_labels[c]!r}"
            ) from exc
        weighted[idx] = G[idx] * cho_solve(fac, residuals.values[idx])
    return ds.cell_totals(weighted)


def weighted_stat(
    residuals: NullResiduals,
    alloc: SignedAllocation,
    V: list[np.ndarray],
    G: np.ndarray,
) -> float:
    """Studentized quasi-score statistic.

    Cluster contribution w_c = sum_k sign_k G_k [V_c^{-1} r_c]_k, then
    T = sum_c w_c / sqrt(sum_c w_c^2).  When V_c is a common multiple
    of the identity and G is constant this equals the unweighted
    statistic exactly (the scale cancels in the studentization).
    """
    return stat_from_cell_table(weighted_cell_table(residuals, V, G), alloc.signs)
