"""Allocation resampling, statistic matrices, and permutation p-values.

A re-allocation assigns the treated-arm label to a cluster subset of
the original arm size.  This module is the only place where a treated
subset becomes treatment signs: :func:`sign_block` maps a block of
subsets to an int8 (K, C, T) block, -1 everywhere and +1 for treated
clusters from the design's first treated period on (under
parallel-with-baseline, period 1 stays -1 for everyone).  Its subsets
come from three sources:

- :func:`observed_subset`, the trial's own treated clusters;
- :func:`enumerate_subsets`, every subset in lexicographic order;
- :func:`sample_subsets`, n uniform subsets from one generator, the
  draws of a Monte Carlo matrix and of each confidence-limit search
  chain (:mod:`crtperm.search`).

A sampled matrix draws from one stream per matrix, keyed by
(``plan.seed``, ``MATRIX_STREAM``), so it is reproducible bit for bit
however the work around it is scheduled.  The stream contract of every
draw block is that of n successive ``rng.permutation(C)`` calls: row i
is the i-th of those shuffles, and the generator ends in the same
state.  :func:`sample_subsets` makes all n shuffles in one
``rng.permuted`` call, which numpy performs row by row with the same
Fisher-Yates draws.

When the allocation space is small (at most ``ENUMERATION_LIMIT``
subsets) the full space is enumerated instead of sampled and p-values
become exact permutation probabilities rather than add-one Monte Carlo
estimates.

The matrix is the statistic kernel of :mod:`crtperm.statistics` at
the null delta = 0, the kernel the confidence-limit search steps with.
:attr:`StatMatrix.p_values` counts the exceedances of every row in one
vectorised comparison with the kernel's tie rule,
:func:`~crtperm.statistics.beats`: a permuted statistic within
``TIE_TOL`` below the observed one ties.  Tests are two-sided: they
compare absolute statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .data import TrialDataset, DesignInfo
from .errors import NumericalError
from .glm import CellCovariance
from .statistics import StepKernel, beats, studentize

ENUMERATION_LIMIT = 20_000

#: stream key of a sampled matrix under its seed; the search's upper and
#: lower chains draw from streams 0 and 1 of theirs
MATRIX_STREAM = 2


@dataclass(frozen=True)
class PermutationPlan:
    """How to sample the allocation space.

    ``enumerate_exact = None`` enumerates exhaustively whenever the
    number of distinct allocations is at most ``ENUMERATION_LIMIT``;
    True / False force the choice.  ``n_draws`` is the Monte Carlo
    sample size used when not enumerating.
    """

    n_draws: int
    seed: int
    enumerate_exact: bool | None = None

    def __post_init__(self):
        if self.n_draws < 0:
            raise ValueError("n_draws must be non-negative")

    def use_enumeration(self, design: DesignInfo) -> bool:
        if self.enumerate_exact is not None:
            return self.enumerate_exact
        return n_allocations(design) <= ENUMERATION_LIMIT


@dataclass
class StatMatrix:
    """Statistics for every outcome under the observed and resampled allocations.

    ``values[j, 0]`` is outcome j's statistic under the observed
    allocation; columns 1.. hold the permuted allocations.  All rows of
    a column share one allocation draw, which is what the stepdown
    adjustment needs to capture the joint permutation distribution.
    ``exact`` marks matrices whose columns enumerate the entire
    allocation space.  ``p_values`` holds every row's unadjusted
    p-value, computed once on first use and read-only: with
    ``count`` the permuted columns whose |statistic| the observed one
    does not beat (:func:`~crtperm.statistics.beats`) among K, it is
    the exact ``count / K`` of an enumerated matrix and the add-one
    Monte Carlo ``(1 + count) / (1 + K)`` of a sampled one, which is
    never zero because the observed allocation counts as one draw.  A
    non-finite statistic raises :class:`~crtperm.errors.NumericalError`
    and a matrix without permuted columns ``ValueError``.
    """

    values: np.ndarray
    exact: bool

    @property
    def n_outcomes(self) -> int:
        return self.values.shape[0]

    @property
    def n_permutations(self) -> int:
        return self.values.shape[1] - 1

    @cached_property
    def p_values(self) -> np.ndarray:
        a = np.abs(self.values)
        if not np.all(np.isfinite(a)):
            raise NumericalError("non-finite statistic in permutation matrix")
        K = self.n_permutations
        if K < 1:
            raise ValueError("a permutation p-value needs at least one permuted column")
        add = 0 if self.exact else 1
        p = (add + (~beats(a[:, :1], a[:, 1:])).sum(1)) / (add + K)
        p.flags.writeable = False
        return p


def n_allocations(design: DesignInfo) -> int:
    """Size of the allocation space, C choose (treated arm size)."""
    return comb(design.n_clusters, design.arm_sizes[1])


def sign_block(design: DesignInfo, subsets: np.ndarray) -> np.ndarray:
    """Treatment signs of K treated subsets, int8 shape (K, C, T).

    ``subsets`` holds K rows of treated cluster indices.  Every cell is
    -1 except those of a row's clusters from the design's first treated
    period on, which are +1.
    """
    subsets = np.asarray(subsets, dtype=np.intp)
    signs = np.full((len(subsets), design.n_clusters, design.n_periods), -1, dtype=np.int8)
    rows = np.arange(len(subsets))[:, None]
    signs[rows, subsets, design.treatment_start_period - 1:] = 1
    return signs


def observed_subset(dataset: TrialDataset) -> np.ndarray:
    """The trial's treated clusters, in increasing order."""
    return np.flatnonzero(dataset.treatment_matrix.any(axis=1))


def enumerate_subsets(design: DesignInfo) -> np.ndarray:
    """Every treated subset, in lexicographic order, shape (n_allocations, k)."""
    subsets = combinations(range(design.n_clusters), design.arm_sizes[1])
    return np.array(list(subsets), dtype=np.intp)


def sample_subsets(design: DesignInfo, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform treated subsets, shape (n, k), drawn by one shuffle call.

    Row i is ``rng.permutation(C)[:k]`` of the i-th of n successive
    calls, bit for bit, and ``rng`` ends in the state those calls would
    leave: ``rng.permuted`` shuffles each row of an (n, C) block of
    ``arange(C)`` in turn with the same draws.
    """
    k, C = design.arm_sizes[1], design.n_clusters
    if k == 0 or k == C:
        raise NumericalError(
            f"cannot permute a design with an empty arm (arm sizes {design.arm_sizes})"
        )
    rows = np.tile(np.arange(C), (n, 1))
    rng.permuted(rows, axis=1, out=rows)
    return rows[:, :k]


def build_stat_matrix(
    dataset: TrialDataset,
    plan: PermutationPlan,
    covariances: list[CellCovariance] | None = None,
) -> StatMatrix:
    """Evaluate the statistic for all outcomes over all allocations.

    Every outcome is tested at the null delta = 0: the statistic
    kernel fits the nuisance parameters there once per outcome and
    signs the resulting cell tables under each allocation, so the
    nuisance parameters are the same in every column.  The statistic
    is weighted when ``covariances`` is given: ``covariances[j]`` is
    outcome j's working covariance, built by
    :func:`~crtperm.glm.build_cluster_covariance` for the dataset's
    cell layout.  Outcomes are studentized one at a time, so memory
    grows with the number of allocations, not with outcomes times
    allocations.
    """
    null = np.zeros((1, dataset.n_outcomes))
    tables = StepKernel(dataset, covariances, null).tables(null)[0]

    design = dataset.design
    exact = plan.use_enumeration(design)
    if exact:
        subsets = enumerate_subsets(design)
    else:
        rng = np.random.default_rng((int(plan.seed), MATRIX_STREAM))
        subsets = sample_subsets(design, rng, plan.n_draws)
    signs = sign_block(design, np.vstack([observed_subset(dataset), subsets]))

    values = np.empty((dataset.n_outcomes, signs.shape[0]))
    for j, table in enumerate(tables):
        values[j] = studentize(table, signs)
        bad = np.flatnonzero(~np.isfinite(values[j]))
        if bad.size:
            raise NumericalError(
                f"outcome {j}: degenerate statistic: cluster contributions are "
                f"all zero or not finite (allocation column {int(bad[0])})"
            )
    return StatMatrix(values=values, exact=exact)
