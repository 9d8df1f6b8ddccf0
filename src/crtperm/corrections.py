"""Multiplicity-adjusted p-values.

All adjustments consume a :class:`~crtperm.permutation.StatMatrix` so
that the stepdown method can use the joint permutation distribution of
the statistics.  Bonferroni and Holm only need each row's marginal
p-value; the stepdown adjustment recomputes, at each step, the
per-column maximum over the hypotheses still in play.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .permutation import StatMatrix, row_p_value
from .statistics import beats

CORRECTION_METHODS = ("none", "bonferroni", "holm", "romano_wolf")


@dataclass
class AdjustedPValues:
    """Unadjusted and adjusted p-values of one correction method."""

    method: str
    p_unadjusted: np.ndarray
    p_adjusted: np.ndarray


def _ordering(observed: np.ndarray) -> np.ndarray:
    """Outcome indices by decreasing |observed statistic|, ties by index."""
    return np.lexsort((np.arange(len(observed)), -np.abs(observed)))


def _unadjusted(matrix: StatMatrix) -> np.ndarray:
    return np.array([row_p_value(matrix, j) for j in range(matrix.n_outcomes)])


def adjust_none(matrix: StatMatrix) -> AdjustedPValues:
    """No correction: adjusted p-values equal the unadjusted ones."""
    p = _unadjusted(matrix)
    return AdjustedPValues(
        method="none",
        p_unadjusted=p,
        p_adjusted=p.copy(),
    )


def adjust_bonferroni(matrix: StatMatrix) -> AdjustedPValues:
    """Scale every p-value by the family size, capped at 1."""
    p = _unadjusted(matrix)
    return AdjustedPValues(
        method="bonferroni",
        p_unadjusted=p,
        p_adjusted=np.minimum(len(p) * p, 1.0),
    )


def adjust_holm(matrix: StatMatrix) -> AdjustedPValues:
    """Step-down multiplier adjustment with monotonicity enforcement.

    Sorted ascending, the r-th smallest p-value is multiplied by
    (J - r + 1); running maxima keep the adjusted values monotone in
    the ordering.
    """
    p = _unadjusted(matrix)
    J = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(J)
    running = 0.0
    for r, j in enumerate(order):
        running = max(running, min((J - r) * p[j], 1.0))
        adjusted[j] = running
    return AdjustedPValues(
        method="holm",
        p_unadjusted=p,
        p_adjusted=adjusted,
    )


def adjust_romano_wolf(matrix: StatMatrix) -> AdjustedPValues:
    """Stepdown adjustment based on max-statistics over the active set.

    Hypotheses are processed in decreasing order of the observed
    statistic.  At step r the reference distribution is the per-column
    maximum over the not-yet-processed rows, and the step's p-value is
    the exceedance probability of the observed statistic against it,
    ties decided by :func:`~crtperm.statistics.beats`; running
    maxima enforce monotonicity along the ordering.  With a single
    outcome this reduces exactly to the unadjusted p-value.
    """
    if matrix.n_permutations < 1:
        raise ValueError("stepdown adjustment requires at least one permutation")
    p = _unadjusted(matrix)
    obs_key = np.abs(matrix.values[:, 0])
    perm_key = np.abs(matrix.values[:, 1:])
    if not (np.all(np.isfinite(obs_key)) and np.all(np.isfinite(perm_key))):
        raise NumericalError("non-finite statistic in permutation matrix")
    order = _ordering(obs_key)
    add = 0 if matrix.exact else 1
    ncol = perm_key.shape[1]
    adjusted = np.empty(len(p))
    running = 0.0
    for r, j in enumerate(order):
        colmax = perm_key[order[r:]].max(axis=0)
        p_step = (add + int(np.sum(~beats(obs_key[j], colmax)))) / (add + ncol)
        running = max(running, p_step)
        adjusted[j] = running
    return AdjustedPValues(
        method="romano_wolf",
        p_unadjusted=p,
        p_adjusted=adjusted,
    )


_ADJUSTERS = {
    "none": adjust_none,
    "bonferroni": adjust_bonferroni,
    "holm": adjust_holm,
    "romano_wolf": adjust_romano_wolf,
}


def adjust(matrix: StatMatrix, method: str) -> AdjustedPValues:
    """Dispatch to the requested correction method."""
    try:
        fn = _ADJUSTERS[method]
    except KeyError:
        raise ValueError(f"unknown correction method: {method!r}") from None
    return fn(matrix)

