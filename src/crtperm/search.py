"""Stochastic-approximation search for simultaneous confidence limits.

Each confidence limit is located by a Robbins-Monro process: at step q
the hypotheses "effect_j equals the current candidate limit" are tested
against a single fresh permutation draw, and each limit moves by a step
proportional to 1/q, asymmetrically.  Rejections nudge the limit a
small amount toward the point estimate (step fraction alpha*) while
non-rejections push it away by the complementary fraction (1 - alpha*),
so the process equilibrates where the single-draw rejection probability
is 1 - alpha*, i.e. where the permutation p-value equals alpha*.  The
per-method alpha* schedule (alpha, alpha/J, or the step-down ladder)
is what differentiates the corrections; the step-length scale is
proportional to the current distance between the limit and the point
estimate.

The upper and lower limits of M methods and J outcomes are the rows of
one (2M, J) chain array, the upper side's M rows first, and one loop of
Q steps moves them all.  The sides stay independent: each draws its Q
allocations up front from its own stream, keyed by (seed, side), with
:func:`~crtperm.permutation.sample_subsets` (its q-th draw is the shuffle that
the q-th of Q successive ``rng.permutation(C)`` calls on that stream
would give), signs them once with
:func:`~crtperm.permutation.sign_block` (a step only indexes into that
int8 block), and keeps its own nuisance fits, so its limits are those
of a side searched alone.  The draws never depend on the method, so all
methods are searched together on identical draws.

Several datasets of one cell layout and outcome links (a chunk of study
replicates) search in the same loop: their chain arrays are stacked,
dataset by dataset, into one array of 2M rows per dataset.  Each keeps
its own streams, keyed by its own seed, its own point estimates and
its own nuisance fits, so its limits are bit for bit those of its
search alone; stacking only pays the per-step cost of the statistic and
the update once for the whole chunk.  :mod:`crtperm.simulate` fixes its
chunks by replicate index, never by worker, and workers take whole
chunks, so a study report is the same for any worker count.

One step evaluates every chain at once with the statistic kernel of
:mod:`crtperm.statistics` (the kernel the permutation matrix uses at
delta = 0): the chains' cell tables form one (2M, J, C, T) array, each
side's rows signed under the observed and that side's drawn allocation
and reduced over clusters (with several datasets, one such array per
dataset, stacked).  The kernel owns the nuisance fits: given
the standard errors, it refits a chain only when its limit has moved
more than :data:`~crtperm.statistics.REFIT_FRACTION` of one since its
last fit, and the stale log and logit chains of both sides, of every
outcome and of every dataset that shares the pattern design (a chunk of
model2 or model3 replicates), refit in one call.
Decision and update are one masked routine over the (2M, J) array,
:class:`StepRule`, which decides ties with the kernel's rule
(:func:`~crtperm.statistics.beats`: a permuted |statistic| within
``TIE_TOL`` below the observed one is not a rejection), and which pulls
a chain whose statistic is not finite (so one whose refit failed)
halfway toward its point estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist  # the standard library's, not crtperm.statistics

import numpy as np

from .data import TrialDataset
from .errors import CrtPermError
from .glm import CellCovariance, FittedMeanModel, irls_fit
from .permutation import observed_subset, sample_subsets, sign_block
from .statistics import StepKernel, beats, stepdown_beats

#: fewest steps per chain the search accepts
MIN_SEARCH_STEPS = 100

TRACE_COLUMNS = ("side", "q", "outcome", "limit", "rejected", "s_j")

#: the two sides of every interval, in the order of their chain rows and streams
SIDES = ("upper", "lower")


@lru_cache(maxsize=64)
def step_constant(alpha_star: float) -> float:
    """Search scaling constant 2 / (z * phi(z)) at z = z_{1 - alpha*}.

    phi is the standard normal density.  Smaller alpha* gives a larger
    constant (the limit sits further into the tail, where single-draw
    information is scarcer, so bigger steps are needed to converge at
    the same rate).
    """
    if not 0.0 < alpha_star < 0.5:
        raise ValueError(f"alpha_star must be in (0, 0.5), got {alpha_star}")
    z = NormalDist().inv_cdf(1.0 - alpha_star)
    return 2.0 / (z * NormalDist().pdf(z))


def alpha_star_schedule(
    method: str, alpha: float, n_outcomes: int, order: np.ndarray | None = None
) -> np.ndarray:
    """Per-outcome testing level used inside the search updates.

    No correction and the stepdown method test each hypothesis at
    alpha; the family-size correction uses alpha / J; the step-down
    multiplier ladder assigns alpha / J to the hypothesis with the
    largest observed statistic, alpha / (J - 1) to the next, and so on,
    which requires the current ordering.
    """
    J = n_outcomes
    if method in ("none", "romano_wolf"):
        return np.full(J, alpha)
    if method == "bonferroni":
        return np.full(J, alpha / J)
    if method == "holm":
        if order is None:
            raise ValueError("the holm schedule requires the statistic ordering")
        out = np.full(J, alpha)
        for r, j in enumerate(order):
            out[j] = alpha / (J - r)
        return out
    raise ValueError(f"unknown correction method: {method!r}")


class StepRule:
    """One Robbins-Monro decision and update for every (method, outcome) chain.

    Row m of the (M, J) arrays belongs to ``methods[m]``; ``theta``
    holds the J point estimates, one set for every row or, when the
    rows belong to several datasets, one per row, shape (M, J).  A
    chain rejects when its permuted |statistic| is below the observed
    one and does not tie with it
    (:func:`~crtperm.statistics.beats`); the stepdown rows
    instead walk the outcomes by decreasing observed |statistic| and
    reject while the largest permuted value among the outcomes not yet
    visited stays below in that sense, the walk of
    :func:`~crtperm.statistics.stepdown_beats` with one draw, the same
    routine the adjusted p-values count over the permutation matrix.
    The holm rows take alpha* from the multiplier ladder in that same
    order.  Only the good chains take part in a step's ordering and
    walk.
    """

    def __init__(self, methods: list[str], alpha: float, theta: np.ndarray):
        self.theta = np.asarray(theta, dtype=float)
        J = self.theta.shape[-1]
        self.rows = np.arange(len(methods))[:, None]
        self.holm = np.array([m == "holm" for m in methods])[:, None]
        self.stepdown = np.array([m == "romano_wolf" for m in methods])[:, None]
        self.ordered = bool(self.holm.any() or self.stepdown.any())
        # the holm rows' placeholders are replaced from the ladder every step
        stars = np.array(
            [alpha_star_schedule("none" if m == "holm" else m, alpha, J) for m in methods]
        )
        self.levels = _levels(stars)
        self.ladder = _levels(np.array([alpha / (J - r) for r in range(J)]))
        self.eps = 1e-6 * np.maximum(1.0, np.abs(self.theta))

    def update(
        self,
        limits: np.ndarray,
        stats: np.ndarray,
        good: np.ndarray | None,
        sgn: float | np.ndarray,
        q: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decide and move the (M, J) ``limits`` at step ``q``.

        ``stats`` stacks the observed and the permuted statistics,
        shape (2, M, J); ``good`` marks the chains that take a step
        (None: all of them); ``sgn`` is +1 on the upper side and -1 on
        the lower, either one value for every chain or one per row,
        shape (M, 1).  A good chain moves by -sgn * s * alpha* / q on a
        rejection and by sgn * s * (1 - alpha*) / q otherwise, with
        s = k(alpha*) * sgn * (limit - theta); a limit that would cross
        its point estimate is clamped just outside it.  Any other chain
        is pulled halfway toward its point estimate instead.  Returns
        the new limits, the reject flags and the step scales s.
        """
        a = np.abs(stats)
        if good is not None:
            a = np.where(good, a, -np.inf)
        a_obs, a_perm = a
        flags = beats(a_obs, a_perm)
        levels = self.levels
        if self.ordered:
            order, beat = stepdown_beats(a)
            rank = order.argsort(axis=1)
            walk = np.logical_and.accumulate(beat[0], axis=1)
            flags = np.where(self.stepdown, walk[self.rows, rank], flags)
            levels = np.where(self.holm, self.ladder[:, rank], levels)
        reject_frac, accept_frac, k = levels
        # k * (limit - theta) equals sgn * s exactly: sgn is +-1
        ks = k * (limits - self.theta)
        stepped = limits + ks * np.where(flags, reject_frac, accept_frac) / q
        # negation is exact, so the upper rows compare stepped <= theta
        # and the lower rows stepped >= theta
        crossed = sgn * stepped <= sgn * self.theta
        stepped = np.where(crossed, self.theta + sgn * self.eps, stepped)
        if good is not None:
            stepped = np.where(good, stepped, 0.5 * (limits + self.theta))
        return stepped, flags, sgn * ks


def _levels(stars: np.ndarray) -> np.ndarray:
    """Per level alpha*: the step fractions -alpha* and 1 - alpha*, and k(alpha*)."""
    return np.stack(
        [-stars, 1.0 - stars, np.vectorize(step_constant, otypes=[float])(stars)]
    )


@dataclass
class ConfidenceSet:
    """Simultaneous confidence limits for all outcomes.

    ``lower[j] <= point_estimates[j] <= upper[j]`` holds for every
    outcome by construction.
    """

    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    method: str
    Q: int
    seed: int
    point_estimates: np.ndarray
    trace: list | None = field(default=None, repr=False)


def _search_limits(
    datasets: list[TrialDataset],
    methods: list[str],
    alpha: float,
    Q: int,
    seeds: list[int],
    covariances: list,
    point_fits: list,
    trace: bool,
) -> list[dict[str, ConfidenceSet] | Exception]:
    """Step the chains of several methods and datasets together on each dataset's draws.

    Dataset b's rows are the (2M, J) chain array of a search of b
    alone, and the arrays are stacked in order.  A dataset whose search
    cannot start (a point or starting nuisance fit fails) gets the
    error in place of its confidence sets, and the others search on.
    """
    if Q < MIN_SEARCH_STEPS:
        raise ValueError(f"the search needs at least {MIN_SEARCH_STEPS} steps")
    M = len(methods)
    found: list = [None] * len(datasets)
    live, starts = [], []
    for b, dataset in enumerate(datasets):
        try:
            starts.append(_start(dataset, M, Q, seeds[b], covariances[b], point_fits[b]))
        except (CrtPermError, np.linalg.LinAlgError) as exc:
            found[b] = exc
        else:
            live.append(b)
    if not live:
        return found
    theta, kernels, starting, observed, drawn = zip(*starts)
    del starts  # so each dataset's draws are freed once stacked below
    B = len(live)
    kernel = StepKernel.stack(kernels)
    # rows [2iM, (2i + 1)M) are the upper chains of the i-th dataset that
    # started and the next M rows its lower ones
    rule = StepRule(methods * 2 * B, alpha, np.repeat(theta, 2 * M, axis=0))
    sgn = np.tile(np.repeat([1.0, -1.0], M), B)[:, None]
    # drawn[q - 1, 2i + side] holds step q's drawn signs of that side, and
    # pairs[2i + side] its observed and (at each step, refilled) drawn signs
    drawn = np.concatenate(drawn, axis=1)
    observed = np.repeat(np.concatenate(observed), len(SIDES), axis=0)
    pairs = np.stack([observed, observed], axis=1)
    limits = np.concatenate(starting)
    fell_back = np.zeros(B * len(SIDES), dtype=bool)
    steps = []
    for q in range(1, Q + 1):
        pairs[:, 1] = drawn[q - 1]
        stats = kernel.evaluate(limits, pairs)
        finite = np.isfinite(stats).all(axis=0)
        good = None if finite.all() else finite
        if good is not None:
            fell_back |= ~good.reshape(len(fell_back), -1).all(axis=1)
        limits, flags, s = rule.update(limits, stats, good, sgn, q)
        if trace:
            steps.append((limits, flags, s, finite))
    # warned after the loop, so each dataset's upper side warns before
    # its lower one whichever side fell back first
    for side, fell in zip(SIDES * B, fell_back):
        if fell:
            warnings.warn(
                f"{side} search produced a non-finite or degenerate "
                "statistic at an extreme candidate limit; shrinking "
                "toward the point estimate",
                stacklevel=3,
            )
    if trace:
        steps = [np.stack(a) for a in zip(*steps)]
    for i, b in enumerate(live):
        rows = limits[2 * M * i: 2 * M * (i + 1)]
        traces = _trace_rows(steps, M, i) if trace else [None] * M
        found[b] = {
            method: ConfidenceSet(
                lower=rows[M + m],
                upper=rows[m],
                alpha=alpha,
                method=method,
                Q=Q,
                seed=seeds[b],
                point_estimates=theta[i],
                trace=traces[m],
            )
            for m, method in enumerate(methods)
        }
    return found


def _start(dataset: TrialDataset, M: int, Q: int, seed: int, covariances, point_fits):
    """One dataset's point estimates, started kernel, starting limits and treatment signs.

    The kernel's rows are the dataset's M upper chains, then its M lower
    ones, started 2 standard errors out.  The signs are those of the
    observed allocation, shape (1, C, T), and of the drawn ones,
    ``drawn[q - 1, side]`` signing step q on that side.
    """
    design = dataset.design
    J = dataset.n_outcomes
    if point_fits is None:
        point_fits = [irls_fit(dataset, j) for j in range(J)]
    theta = np.array([f.treatment_effect for f in point_fits], dtype=float)
    ses = np.array([f.naive_se for f in point_fits], dtype=float)
    # guard against degenerate fits: the step scale must stay positive
    ses = np.maximum(ses, 1e-9 * np.maximum(1.0, np.abs(theta)))
    kernel = StepKernel(dataset, covariances, 2 * M, ses)
    subsets = np.concatenate(
        [sample_subsets(design, np.random.default_rng((int(seed), stream)), Q)
         for stream in range(len(SIDES))]
    )
    drawn = sign_block(design, subsets).reshape((len(SIDES), Q) + kernel.cells).swapaxes(0, 1)
    observed = sign_block(design, observed_subset(dataset)[None])
    limits = theta + np.repeat([1.0, -1.0], M)[:, None] * 2.0 * ses
    kernel.start(limits)
    return theta, kernel, limits, observed, drawn


def _trace_rows(steps: list[np.ndarray], M: int, i: int) -> list[list[tuple]]:
    """Each method's trace rows of the i-th searched dataset: upper then lower, by step, then by outcome.

    ``steps`` holds the limits, reject flags, step scales and mask of
    the chains that took a Robbins-Monro step, each of shape (Q, rows,
    J); a chain pulled toward its point estimate instead has no row.
    """
    limit, rejected, s_j, good = steps
    traces = []
    for m in range(M):
        rows = []
        for side_index, side in enumerate(SIDES):
            row = (2 * i + side_index) * M + m
            q, j = np.nonzero(good[:, row])
            at = (q, row, j)
            rows += zip([side] * len(q), (q + 1).tolist(), j.tolist(), limit[at].tolist(),
                        rejected[at].tolist(), s_j[at].tolist())
        traces.append(rows)
    return traces


def rm_search(
    dataset: TrialDataset,
    method: str,
    alpha: float = 0.05,
    Q: int = 2000,
    seed: int = 0,
    covariances: list[CellCovariance] | None = None,
    point_fits: list[FittedMeanModel] | None = None,
    trace: bool = False,
) -> ConfidenceSet:
    """Locate simultaneous confidence limits for every outcome.

    Steps the upper and the lower chain of every outcome together for Q
    steps; each side draws from its own stream and keeps its own
    nuisance fits, so the two are independent.  At every step the
    nuisance parameters are re-estimated only when the candidate limit
    has drifted more than a tenth of a standard error since the last
    refit; the test statistics themselves are re-evaluated at the exact
    candidate value every step.  One permutation draw per side and step
    is shared across outcomes.

    The statistic is weighted when ``covariances`` holds one working
    covariance per outcome, as for
    :func:`~crtperm.permutation.build_stat_matrix`.  ``point_fits`` may
    supply precomputed unconstrained fits (one per outcome) to avoid
    refitting when several methods are searched on the same data.  The chains draw from streams keyed by
    ``(seed, side)``, so two methods searched with the same seed see
    identical permutation sequences.
    """
    (found,) = _search_limits(
        [dataset], [method], alpha, Q, [seed], [covariances], [point_fits], trace
    )
    return _raised(found)[method]


def search_all_methods(
    dataset: TrialDataset | list[TrialDataset],
    methods: list[str],
    alpha: float = 0.05,
    Q: int = 2000,
    seed: int | list[int] = 0,
    covariances: list[CellCovariance] | list | None = None,
    point_fits: list[FittedMeanModel] | list | None = None,
    trace: bool = False,
) -> dict[str, ConfidenceSet] | list:
    """Search several methods at once on identical permutation draws.

    Equivalent to calling :func:`rm_search` once per method with the
    same seed, but evaluates the shared per-step statistics only once.

    ``dataset`` may also be a list of datasets of one cell layout and
    outcome links, such as a chunk of study replicates.  ``seed``,
    ``covariances`` and ``point_fits`` then hold one entry per dataset
    (None: every dataset's default), and one loop of Q steps moves the
    chains of them all.  Each dataset keeps its own streams and fits,
    so its confidence sets, which make up the returned list, are bit
    for bit those of its search alone; a dataset whose search cannot
    start gets the :class:`~crtperm.errors.CrtPermError` or
    ``LinAlgError`` in their place.
    """
    if isinstance(dataset, TrialDataset):
        (found,) = _search_limits(
            [dataset], list(methods), alpha, Q, [seed], [covariances], [point_fits], trace
        )
        return _raised(found)
    n = len(dataset)
    return _search_limits(
        list(dataset), list(methods), alpha, Q, list(seed),
        [None] * n if covariances is None else list(covariances),
        [None] * n if point_fits is None else list(point_fits), trace,
    )


def _raised(found):
    """A single search's confidence sets, or the error that stopped it, raised."""
    if isinstance(found, Exception):
        raise found
    return found
