"""Allocation resampling, statistic matrices, and Monte Carlo p-values.

Re-allocations assign the treated-arm label to a uniformly chosen
cluster subset of the original arm size, preserving the randomisation
scheme (under parallel-with-baseline the first period stays untreated
for everyone).  Each Monte Carlo draw gets its own RNG stream derived
from (seed, draw index), so a statistic matrix is reproducible
bit-for-bit regardless of how the work is scheduled.

When the allocation space is small (at most ``ENUMERATION_LIMIT``
subsets) the full space is enumerated instead of sampled and p-values
become exact permutation probabilities rather than add-one Monte Carlo
estimates.

The matrix is the statistic kernel of :mod:`crtperm.statistics` at
the null delta = 0, the kernel the confidence-limit search steps with.
Exceedance counts use its tie rule, :func:`~crtperm.statistics.beats`:
a permuted statistic within ``TIE_TOL`` below the observed one ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .data import TrialDataset, DesignInfo
from .errors import NumericalError
from .statistics import SignedAllocation, StepKernel, beats, studentize

ENUMERATION_LIMIT = 20_000


@dataclass(frozen=True)
class PermutationPlan:
    """How to sample the allocation space.

    ``enumerate_exact = None`` enumerates exhaustively whenever the
    number of distinct allocations is at most ``enumeration_limit``;
    True / False force the choice.  ``n_draws`` is the Monte Carlo
    sample size used when not enumerating.
    """

    n_draws: int
    seed: int
    enumerate_exact: bool | None = None
    enumeration_limit: int = ENUMERATION_LIMIT

    def __post_init__(self):
        if self.n_draws < 0:
            raise ValueError("n_draws must be non-negative")

    def use_enumeration(self, design: DesignInfo) -> bool:
        if self.enumerate_exact is not None:
            return self.enumerate_exact
        return n_allocations(design) <= self.enumeration_limit


@dataclass
class StatMatrix:
    """Statistics for every outcome under the observed and resampled allocations.

    ``values[j, 0]`` is outcome j's statistic under the observed
    allocation; columns 1.. hold the permuted allocations.  All rows of
    a column share one allocation draw, which is what the stepdown
    adjustment needs to capture the joint permutation distribution.
    ``exact`` marks matrices whose columns enumerate the entire
    allocation space.
    """

    values: np.ndarray
    statistic_kind: str
    exact: bool
    seed: int

    @property
    def n_outcomes(self) -> int:
        return self.values.shape[0]

    @property
    def n_permutations(self) -> int:
        return self.values.shape[1] - 1


def n_allocations(design: DesignInfo) -> int:
    """Size of the allocation space, C choose (treated arm size)."""
    return comb(design.n_clusters, design.arm_sizes[1])


def draw_rng(seed: int, draw_index: int) -> np.random.Generator:
    """Independent, scheduling-order-free stream for one draw."""
    return np.random.default_rng((int(seed), int(draw_index)))


def sample_allocation(
    design: DesignInfo, rng_stream: np.random.Generator
) -> SignedAllocation:
    """Uniformly re-assign the treated arm to a random cluster subset."""
    k = design.arm_sizes[1]
    C = design.n_clusters
    if k == 0 or k == C:
        raise NumericalError(
            "cannot permute a design with an empty arm "
            f"(arm sizes {design.arm_sizes})"
        )
    treated = rng_stream.choice(C, size=k, replace=False)
    return SignedAllocation.from_treated(design, np.sort(treated))


def enumerate_allocations(design: DesignInfo) -> list[SignedAllocation]:
    """All distinct allocations, in lexicographic order of treated subsets."""
    k = design.arm_sizes[1]
    return [
        SignedAllocation.from_treated(design, subset)
        for subset in combinations(range(design.n_clusters), k)
    ]


def build_stat_matrix(
    dataset: TrialDataset,
    plan: PermutationPlan,
    kind: str = "unweighted",
    covariances: list[list[np.ndarray]] | None = None,
) -> StatMatrix:
    """Evaluate the chosen statistic for all outcomes over all allocations.

    Every outcome is tested at the null delta = 0: the statistic
    kernel fits the nuisance parameters there once per outcome and
    signs the resulting cell tables under each allocation, so the
    nuisance parameters are the same in every column.  For the
    weighted statistic, ``covariances[j]`` is the per-cluster matrix
    list for outcome j.  Outcomes are studentized one at a time, so
    memory grows with the number of allocations, not with outcomes
    times allocations.
    """
    kernel = StepKernel(dataset, kind, covariances, 1)
    null = np.zeros((1, dataset.n_outcomes))
    tables = kernel.tables(null, kernel.start(null))[0]

    design = dataset.design
    observed = SignedAllocation.observed(dataset)
    exact = plan.use_enumeration(design)
    if exact:
        allocations = enumerate_allocations(design)
    else:
        allocations = [
            sample_allocation(design, draw_rng(plan.seed, m))
            for m in range(plan.n_draws)
        ]
    signs = np.empty(
        (1 + len(allocations), design.n_clusters, design.n_periods), dtype=np.int8
    )
    signs[0] = observed.signs
    for m, alloc in enumerate(allocations, start=1):
        signs[m] = alloc.signs

    values = np.empty((dataset.n_outcomes, signs.shape[0]))
    for j, table in enumerate(tables):
        values[j] = studentize(table, signs)
        bad = np.flatnonzero(~np.isfinite(values[j]))
        if bad.size:
            raise NumericalError(
                f"outcome {j}: degenerate statistic: cluster contributions are "
                f"all zero or not finite (allocation column {int(bad[0])})"
            )
    return StatMatrix(values=values, statistic_kind=kind, exact=exact, seed=plan.seed)


def _check_row(row: np.ndarray) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    if not np.all(np.isfinite(row)):
        raise NumericalError("non-finite statistic in permutation row")
    return row


def exceedance_count(row: np.ndarray, sided: str = "two_sided") -> int:
    """Number of permuted statistics at least as extreme as the observed, ties included."""
    row = _check_row(row)
    if sided == "two_sided":
        return int(np.sum(~beats(np.abs(row[0]), np.abs(row[1:]))))
    if sided == "one_sided":
        return int(np.sum(~beats(row[0], row[1:])))
    raise ValueError(f"unknown sidedness: {sided!r}")


def mc_p_value(row: np.ndarray, sided: str = "two_sided") -> float:
    """Add-one Monte Carlo p-value for one observed-plus-permuted row.

    p = (1 + #{m : extreme}) / (M + 1), which is a valid p-value (never
    zero) because the observed allocation counts as one draw.
    """
    row = _check_row(row)
    M = len(row) - 1
    if M < 1:
        raise ValueError("mc_p_value requires at least one permutation")
    return (1 + exceedance_count(row, sided)) / (M + 1)


def exact_p_value(row: np.ndarray, sided: str = "two_sided") -> float:
    """Exact permutation p-value over an exhaustively enumerated row.

    The enumeration includes the observed allocation itself, so the
    exceedance proportion is already a valid p-value without the
    add-one adjustment.
    """
    row = _check_row(row)
    if len(row) < 2:
        raise ValueError("exact_p_value requires an enumerated allocation set")
    return exceedance_count(row, sided) / (len(row) - 1)


def row_p_value(matrix: StatMatrix, j: int, sided: str = "two_sided") -> float:
    """Unadjusted p-value for outcome j, exact or add-one per the matrix."""
    row = matrix.values[j]
    return exact_p_value(row, sided) if matrix.exact else mc_p_value(row, sided)
