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

Upper and lower limits run as two independent chains of Q steps each.
Their permutation draws depend only on (seed, side, step), never on
the method, so all methods are searched together on identical draws.

One step evaluates every (method, outcome) chain at once.  The chains'
(cluster, period) cell tables form one (M, J, C, T) array; signing it
under the observed and the drawn allocation stacks the cluster
contributions as (2, M, J, C), reduced over clusters in one fixed
order, so an allocation whose contributions equal or negate the
observed ones ties with it exactly.  The tables come from two sources:

- identity links are affine in the candidate limit delta: after a
  refit at delta_r the table is ``R0 + delta_r * HD - delta * Dtab``,
  the cell totals of y - Hy, HD and D (H the nuisance hat matrix),
  built once per outcome; the weighted statistic applies the inverse
  working covariances to those three row vectors once, so its tables
  carry V^{-1} already (and G is one under the identity link);
- log and logit links work on the dataset's row patterns (distinct
  (cell, covariate row) combinations, among which the fitted mean
  h(eta_p) is constant; see :class:`~crtperm.data.RowPatterns`).
  With S the rows-to-patterns indicator, each pattern's entry is
  ``g_p * (A - B mu)_p`` with A = S' V^{-1} y and B = S' V^{-1} S
  compressed once per outcome and cluster, g_p the link-derivative
  weight and mu_p = h(eta_p); the unweighted statistic is the same
  formula with V = I and g = 1, i.e. ``ysum_p - count_p * mu_p``.
  Weighted steps apply B with one batched ``matmul`` per distinct
  number of patterns per cluster; one ``bincount`` then sums the
  patterns into cells.  A step's cost grows with the number of
  patterns, not rows; so does a nuisance refit
  (:func:`crtperm.glm.irls_fit` iterates on the same patterns), apart
  from the fit's final gather of its per-row linear predictor.

A chain refits its nuisance parameters only when its limit has moved
more than ``REFIT_FRACTION`` standard errors since its last refit.
Decision and update are one masked routine over the (M, J) array,
:class:`StepRule`, which also pulls a chain whose statistic is not
finite, or whose refit failed, halfway toward its point estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from .data import TrialDataset
from .errors import NumericalError
from .glm import FittedMeanModel, irls_fit, link_inverse, mean_derivative, nuisance_design

#: relative tolerance of the nuisance-refresh rule: refit when the
#: candidate limit has moved more than this many standard errors since
#: the last refit
REFIT_FRACTION = 0.1

#: fewest steps per chain the search accepts
MIN_SEARCH_STEPS = 100

TRACE_COLUMNS = ("side", "q", "outcome", "limit", "rejected", "s_j")


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
    z = norm.ppf(1.0 - alpha_star)
    return float(2.0 / (z * norm.pdf(z)))


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
    holds the J point estimates.  A chain rejects when its permuted
    |statistic| is strictly below the observed one; the stepdown rows
    instead walk the outcomes by decreasing observed |statistic| and
    reject while the largest permuted value among the outcomes not yet
    visited stays below, and the holm rows take alpha* from the
    multiplier ladder in that same order.  Only the good chains take
    part in a step's ordering and walk.
    """

    def __init__(self, methods: list[str], alpha: float, theta: np.ndarray):
        self.theta = np.asarray(theta, dtype=float)
        J = len(self.theta)
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
        eps = 1e-6 * np.maximum(1.0, np.abs(self.theta))
        self.clamp = {1.0: self.theta + eps, -1.0: self.theta - eps}

    def update(
        self,
        limits: np.ndarray,
        stats: np.ndarray,
        good: np.ndarray | None,
        sgn: float,
        q: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decide and move the (M, J) ``limits`` at step ``q``.

        ``stats`` stacks the observed and the permuted statistics,
        shape (2, M, J); ``good`` marks the chains that take a step
        (None: all of them); ``sgn`` is +1 on the upper side and -1 on
        the lower.  A good chain moves by -sgn * s * alpha* / q on a
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
        flags = a_perm < a_obs
        levels = self.levels
        if self.ordered:
            order = np.argsort(-a_obs, axis=1, kind="stable")
            rank = np.argsort(order, axis=1)
            sorted_obs, sorted_perm = a[:, self.rows, order]
            suffix = np.maximum.accumulate(sorted_perm[:, ::-1], axis=1)[:, ::-1]
            walk = np.logical_and.accumulate(suffix < sorted_obs, axis=1)
            flags = np.where(self.stepdown, walk[self.rows, rank], flags)
            levels = np.where(self.holm, self.ladder[:, rank], levels)
        reject_frac, accept_frac, k = levels
        # k * (limit - theta) equals sgn * s exactly: sgn is +-1
        ks = k * (limits - self.theta)
        stepped = limits + ks * np.where(flags, reject_frac, accept_frac) / q
        crossed = stepped <= self.theta if sgn > 0 else stepped >= self.theta
        stepped = np.where(crossed, self.clamp[sgn], stepped)
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


def _size_groups(blocks) -> list[tuple[list[int], np.ndarray]]:
    """Clusters grouped by block size: (cluster indices, (C_g, s_g) index stack).

    ``blocks[c]`` holds cluster c's indices, into the rows or into the
    row patterns.
    """
    by_size: dict[int, list[int]] = {}
    for c, idx in enumerate(blocks):
        by_size.setdefault(len(idx), []).append(c)
    return [
        (clusters, np.stack([blocks[c] for c in clusters]))
        for clusters in by_size.values()
    ]


def _cluster_inverses(dataset, covariances) -> list[list[np.ndarray]]:
    """Inverse working covariance of every (outcome, cluster)."""
    inverses: list[list[np.ndarray]] = []
    for outcome_covariances in covariances:
        inverses.append([])
        for c, V in enumerate(outcome_covariances):
            try:
                fac = cho_factor(V, lower=True)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"singular covariance matrix for cluster "
                    f"{dataset.cluster_labels[c]!r}"
                ) from exc
            inverses[-1].append(cho_solve(fac, np.eye(len(V))))
    return inverses


def _stack_blocks(blocks, groups) -> list[np.ndarray]:
    """Per (outcome, cluster) square blocks as one (J, C_g, s_g, s_g) stack per group."""
    return [np.array([[b[c] for c in clusters] for b in blocks]) for clusters, _ in groups]


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
    """One side's nuisance fits: where each chain last refitted, and the fits."""

    refit_at: np.ndarray  # (M, J) candidate limit of each chain's last refit
    eta_base: np.ndarray  # (J_fitted, M, P) X @ beta of the fitted outcomes, per pattern
    warm: dict = field(default_factory=dict)


class _StepKernel:
    """Every chain's observed and permuted statistic at one search step."""

    def __init__(self, dataset: TrialDataset, kind: str, covariances, n_methods: int):
        design = dataset.design
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
            Z = np.column_stack([D, y])
            HZ = X @ np.linalg.lstsq(X, Z, rcond=None)[0]
            vecs[affine, 0] = (y - HZ[:, 1:]).T
            vecs[affine, 1] = HZ[:, 0]
            vecs[affine, 2] = D
        vecs[self.fitted, 0] = dataset.outcomes[:, self.fitted].T
        if self.weighted:
            row_groups = _size_groups(dataset.cluster_obs_indices)
            inverses = _cluster_inverses(dataset, covariances)
            vecs = _solve_blocks(vecs, row_groups, _stack_blocks(inverses, row_groups))
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
                self.pattern_groups = _size_groups(blocks)
                S = [
                    (pat.of_row[idx][:, None] == blocks[c]).astype(float)
                    for c, idx in enumerate(dataset.cluster_obs_indices)
                ]
                self.B = _stack_blocks(
                    [[S[c].T @ inverses[j][c] @ S[c] for c in range(C)] for j in self.fitted],
                    self.pattern_groups,
                )
            else:
                self.counts = pat.counts

    def start(self, limits: np.ndarray) -> _Nuisance:
        """Fit every chain's nuisance parameters at its starting limit."""
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
        """Refit the chains whose limit moved more than ``tol`` since their last refit.

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
        """Cell tables of every chain at its candidate limit, shape (M, J, C, T)."""
        tab = (
            self.R0 + state.refit_at[..., None, None] * self.HD
            - limits[..., None, None] * self.Dtab
        )
        if self.fitted:
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
            tab[:, self.fitted] = sums.reshape(
                (len(self.fitted), self.M) + self.cells
            ).swapaxes(0, 1)
        return tab

    def evaluate(self, limits: np.ndarray, state: _Nuisance, signs: np.ndarray) -> np.ndarray:
        """Observed and permuted statistics of every chain, shape (2, M, J).

        ``signs`` holds the (C, T) treatment signs (+1 treated, -1 not)
        of the observed and of the permuted allocation, shape (2, C, T).
        Cluster contributions accumulate period by period, as in
        :func:`crtperm.statistics.stats_from_cell_table`.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            tab = self.tables(limits, state)
            signs = signs[:, None, None]
            cs = signs[..., 0] * tab[..., 0]
            for t in range(1, tab.shape[-1]):
                cs = cs + signs[..., t] * tab[..., t]
            return cs.sum(axis=-1) / np.sqrt((cs * cs).sum(axis=-1))


def _search_limits(
    dataset: TrialDataset,
    methods: list[str],
    alpha: float,
    Q: int,
    seed: int,
    kind: str,
    covariances,
    point_fits,
    trace: bool,
) -> dict[str, ConfidenceSet]:
    """Run the upper and lower chains for several methods on shared draws."""
    if Q < MIN_SEARCH_STEPS:
        raise ValueError(f"the search needs at least {MIN_SEARCH_STEPS} steps")
    if dataset.design is None:
        raise ValueError("dataset has no validated design")
    if kind not in ("unweighted", "weighted"):
        raise ValueError(f"unknown statistic kind: {kind!r}")
    if kind == "weighted" and covariances is None:
        raise ValueError("weighted statistic requires per-outcome covariances")
    design = dataset.design
    J = dataset.n_outcomes
    M = len(methods)
    if point_fits is None:
        point_fits = [irls_fit(dataset, j) for j in range(J)]
    theta = np.array([f.treatment_effect for f in point_fits], dtype=float)
    ses = np.array([f.naive_se for f in point_fits], dtype=float)
    # guard against degenerate fits: the step scale must stay positive
    ses = np.maximum(ses, 1e-9 * np.maximum(1.0, np.abs(theta)))

    C = design.n_clusters
    k_treated = design.arm_sizes[1]
    if k_treated in (0, C):
        raise NumericalError(
            f"cannot permute a design with an empty arm (arm sizes {design.arm_sizes})"
        )
    rule = StepRule(methods, alpha, theta)
    kernel = _StepKernel(dataset, kind, covariances, M)
    tol = REFIT_FRACTION * ses
    start = design.treatment_start_period - 1
    signs = -np.ones((2, C, design.n_periods))
    signs[0, dataset.treatment_matrix.any(axis=1), start:] = 1.0

    traces: list[list] | None = [[] for _ in methods] if trace else None
    final = {}
    for side, stream in (("upper", 0), ("lower", 1)):
        sgn = 1.0 if side == "upper" else -1.0
        rng = np.random.default_rng((int(seed), stream))
        limits = np.tile(theta + sgn * 2.0 * ses, (M, 1))
        state = kernel.start(limits)
        warned = False
        for q in range(1, Q + 1):
            treated_perm = rng.permutation(C)[:k_treated]
            ok = kernel.refresh(state, limits, tol)
            signs[1] = -1.0
            signs[1, treated_perm, start:] = 1.0
            stats = kernel.evaluate(limits, state, signs)
            good = np.isfinite(stats).all(axis=0)
            if ok is not None:
                good &= ok
            if good.all():
                good = None
            elif not warned:
                warnings.warn(
                    f"{side} search produced a non-finite or degenerate "
                    "statistic at an extreme candidate limit; shrinking "
                    "toward the point estimate",
                    stacklevel=3,
                )
                warned = True
            limits, flags, s = rule.update(limits, stats, good, sgn, q)
            if traces is not None:
                for m in range(M):
                    for j in range(J) if good is None else np.flatnonzero(good[m]):
                        traces[m].append(
                            (side, q, int(j), float(limits[m, j]),
                             bool(flags[m, j]), float(s[m, j]))
                        )
        final[side] = limits

    return {
        method: ConfidenceSet(
            lower=final["lower"][m],
            upper=final["upper"][m],
            alpha=alpha,
            method=method,
            Q=Q,
            seed=seed,
            point_estimates=theta,
            trace=traces[m] if traces is not None else None,
        )
        for m, method in enumerate(methods)
    }


def rm_search(
    dataset: TrialDataset,
    method: str,
    alpha: float = 0.05,
    Q: int = 2000,
    seed: int = 0,
    kind: str = "unweighted",
    covariances: list[list[np.ndarray]] | None = None,
    point_fits: list[FittedMeanModel] | None = None,
    trace: bool = False,
) -> ConfidenceSet:
    """Locate simultaneous confidence limits for every outcome.

    Runs two independent chains (upper and lower) of Q steps each.  At
    every step the nuisance parameters are re-estimated only when the
    candidate limit has drifted more than a tenth of a standard error
    since the last refit; the test statistics themselves are
    re-evaluated at the exact candidate value every step.  One
    permutation draw per step is shared across outcomes.

    ``point_fits`` may supply precomputed unconstrained fits (one per
    outcome) to avoid refitting when several methods are searched on
    the same data.  The chains draw from streams keyed by
    ``(seed, side)``, so two methods searched with the same seed see
    identical permutation sequences.
    """
    return _search_limits(
        dataset, [method], alpha, Q, seed, kind, covariances, point_fits, trace
    )[method]


def search_all_methods(
    dataset: TrialDataset,
    methods: list[str],
    alpha: float = 0.05,
    Q: int = 2000,
    seed: int = 0,
    kind: str = "unweighted",
    covariances: list[list[np.ndarray]] | None = None,
    point_fits: list[FittedMeanModel] | None = None,
    trace: bool = False,
) -> dict[str, ConfidenceSet]:
    """Search several methods at once on identical permutation draws.

    Equivalent to calling :func:`rm_search` once per method with the
    same seed, but evaluates the shared per-step statistics only once.
    """
    return _search_limits(
        dataset, list(methods), alpha, Q, seed, kind, covariances, point_fits, trace
    )
