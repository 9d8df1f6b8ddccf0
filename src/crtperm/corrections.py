"""Multiplicity-adjusted p-values.

All adjustments consume a :class:`~crtperm.permutation.StatMatrix` so
that the stepdown method can use the joint permutation distribution of
the statistics.  Bonferroni and Holm only need each row's marginal
p-value (:attr:`~crtperm.permutation.StatMatrix.p_values`).  The
stepdown adjustment counts, over the permuted columns, the flags of
:func:`~crtperm.statistics.stepdown_beats`, the one max-statistic walk,
which the confidence-limit search also steps with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permutation import StatMatrix
from .statistics import stepdown_beats


@dataclass
class AdjustedPValues:
    """Unadjusted and adjusted p-values of one correction method."""

    method: str
    p_unadjusted: np.ndarray
    p_adjusted: np.ndarray


def adjust_none(matrix: StatMatrix) -> AdjustedPValues:
    """No correction: adjusted p-values equal the unadjusted ones."""
    p = matrix.p_values.copy()
    return AdjustedPValues(
        method="none",
        p_unadjusted=p,
        p_adjusted=p.copy(),
    )


def adjust_bonferroni(matrix: StatMatrix) -> AdjustedPValues:
    """Scale every p-value by the family size, capped at 1."""
    p = matrix.p_values.copy()
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
    p = matrix.p_values.copy()
    J = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(J)
    adjusted[order] = np.maximum.accumulate(np.minimum((J - np.arange(J)) * p[order], 1.0))
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
    the flags of :func:`~crtperm.statistics.stepdown_beats` counted
    over the permuted columns; running maxima enforce monotonicity
    along the ordering.  With a single outcome this reduces exactly to
    the unadjusted p-value.
    """
    # p_values refuses a non-finite statistic and a matrix without permuted columns
    p = matrix.p_values.copy()
    order, beat = stepdown_beats(np.abs(matrix.values.T)[:, None])
    add = 0 if matrix.exact else 1
    steps = (add + (~beat[:, 0]).sum(0)) / (add + matrix.n_permutations)
    adjusted = np.empty(len(p))
    adjusted[order[0]] = np.maximum.accumulate(steps)
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

