"""Synthetic trial generators and the study driver.

Three data generating processes of increasing complexity:

- ``model1``: parallel two-arm trial, two gaussian outcomes, with
  cross-outcome correlation at both the individual and cluster level.
- ``model2``: parallel two-arm trial with a Poisson and a gaussian
  outcome sharing independent cluster effects.
- ``model3``: two-period trial with baseline measures (everyone
  untreated in period 1), three outcomes (Poisson, gaussian,
  Bernoulli) whose cluster-period effects decay over time with an
  autoregressive factor and may correlate across outcomes.

``run_study`` repeatedly generates a trial, computes adjusted p-values
at the zero null for every requested method, searches confidence
limits, and aggregates the family-wise error rate, the family-wise
coverage, and the mean interval widths with Monte Carlo standard
errors.  Replicates are independent with RNG streams derived from
(seed, replicate).  They are searched in fixed chunks by replicate
index, each chunk's searches stepped as one chain array, and workers
take whole chunks, so reports are identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .config import (
    METHODS,
    PERMUTATION_METHODS,
    _integer,
    _number,
    _numbers,
    _require,
    validate_run_settings,
)
from .corrections import adjust
from .data import OutcomeSpec, TrialDataset, validate_design
from .errors import ConfigError, CrtPermError, NumericalError
from .glm import (
    CovarianceSpec,
    build_cluster_covariance,
    estimate_variance_components,
    irls_fit,
    logistic,
    naive_wald,
)
from .permutation import PermutationPlan, build_stat_matrix
from .search import search_all_methods

MODELS = ("model1", "model2", "model3")

#: replicates per chunk: a study's replicates are searched in fixed chunks
#: by replicate index, [0, n), [n, 2n) and so on, each chunk's chains
#: stepped as one array
REPLICATE_CHUNK = 16

#: the errors that drop a replicate from its study, counted as a failure
_REPLICATE_ERRORS = (CrtPermError, np.linalg.LinAlgError)


def psd_factor(covariance: np.ndarray) -> np.ndarray:
    """Lower-triangular-like factor L with L @ L.T equal to the input.

    Falls back to an eigenvalue factorization for positive
    *semi*-definite inputs (e.g. an all-zero covariance), and raises
    for genuinely indefinite ones.
    """
    covariance = np.asarray(covariance, dtype=float)
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(covariance)
    floor = -1e-10 * max(1.0, float(np.abs(vals).max()))
    if vals.min() < floor:
        raise NumericalError("covariance not PSD")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _mvn_batch(cov: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, dim) zero-mean draws sharing one factorization."""
    L = psd_factor(cov)
    return rng.standard_normal((size, cov.shape[0])) @ L.T


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of one data generating process.

    ``delta`` are the true treatment effects, ``mu`` the intercepts,
    ``sigma2`` the individual-level variances, ``tau2`` the
    cluster(-period)-effect variances.  ``rho`` is the individual-level
    cross-outcome correlation, ``pi`` the cluster-level one, ``lam``
    the across-period decay of cluster-period effects (model3), and
    ``period_effect`` the second-period shift (model3).
    """

    model: str
    clusters_per_arm: int
    n_per_cluster: int = 20
    delta: tuple[float, ...] = (0.0, 0.0)
    mu: tuple[float, ...] = (1.0, 1.0)
    sigma2: tuple[float, ...] = (1.0, 1.0)
    tau2: tuple[float, ...] = (0.05, 0.05)
    rho: float = 0.0
    pi: float = 0.0
    lam: float = 0.7
    period_effect: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model: {self.model!r}")
        J = self.n_outcomes
        for name in ("delta", "mu", "sigma2", "tau2"):
            if len(getattr(self, name)) != J:
                raise ConfigError(
                    f"{name} must have length {J} for {self.model}, "
                    f"got {len(getattr(self, name))}"
                )
        if self.model == "model3" and len(self.period_effect) != J:
            raise ConfigError(f"period_effect must have length {J}")
        if not (abs(self.rho) <= 1 and abs(self.pi) <= 1):
            raise ConfigError("correlations must lie in [-1, 1]")
        if self.clusters_per_arm < 1 or self.n_per_cluster < 1:
            raise ConfigError("cluster counts and sizes must be positive")
        # PSD check of every implied covariance at construction time
        for cov in self.effect_covariances():
            psd_factor(cov)

    @property
    def n_outcomes(self) -> int:
        return 3 if self.model == "model3" else 2

    @property
    def n_clusters(self) -> int:
        return 2 * self.clusters_per_arm

    def effect_covariances(self) -> list[np.ndarray]:
        """All covariance matrices implied by the parameters."""
        if self.model == "model1":
            s = np.sqrt(self.sigma2)
            t = np.sqrt(self.tau2)
            indiv = np.array(
                [
                    [self.sigma2[0], self.rho * s[0] * s[1]],
                    [self.rho * s[0] * s[1], self.sigma2[1]],
                ]
            )
            clust = np.array(
                [
                    [self.tau2[0], self.pi * t[0] * t[1]],
                    [self.pi * t[0] * t[1], self.tau2[1]],
                ]
            )
            return [indiv, clust]
        if self.model == "model2":
            t = np.sqrt(self.tau2)
            clust = np.array(
                [
                    [self.tau2[0], self.pi * t[0] * t[1]],
                    [self.pi * t[0] * t[1], self.tau2[1]],
                ]
            )
            return [clust]
        return [self._ar1_effect_covariance()]

    def _ar1_effect_covariance(self, n_periods: int = 2) -> np.ndarray:
        """Joint covariance of cluster-period effects, (J*T, J*T).

        Entry ((l, t), (l', t')) is lam^|t - t'| * s_l * s_l' * (1 if
        l == l' else rho), with s_l the cluster-effect scale of
        outcome l.
        """
        J, T = self.n_outcomes, n_periods
        s = np.sqrt(self.tau2)
        cov = np.empty((J * T, J * T))
        for l in range(J):
            for t in range(T):
                for m in range(J):
                    for u in range(T):
                        r = 1.0 if l == m else self.rho
                        cov[l * T + t, m * T + u] = (
                            self.lam ** abs(t - u) * s[l] * s[m] * r
                        )
        return cov


def draw_ar1_cluster_effects(
    spec: DgpSpec, rng: np.random.Generator, n_clusters: int, n_periods: int = 2
) -> np.ndarray:
    """Cluster-period effect draws for model3, shape (C, J, T)."""
    cov = spec._ar1_effect_covariance(n_periods)
    flat = _mvn_batch(cov, n_clusters, rng)
    return flat.reshape(n_clusters, spec.n_outcomes, n_periods)


def _assign_treated(spec: DgpSpec, rng: np.random.Generator) -> np.ndarray:
    treated = np.zeros(spec.n_clusters, dtype=bool)
    chosen = rng.choice(spec.n_clusters, size=spec.clusters_per_arm, replace=False)
    treated[chosen] = True
    return treated


def _labels(C: int) -> list[str]:
    return [f"c{c + 1:03d}" for c in range(C)]


def gen_model1(spec: DgpSpec, rng: np.random.Generator) -> TrialDataset:
    """Parallel trial, two correlated gaussian outcomes."""
    if spec.model != "model1":
        raise ConfigError("spec is not a model1 specification")
    C, n = spec.n_clusters, spec.n_per_cluster
    indiv_cov, clust_cov = spec.effect_covariances()
    treated = _assign_treated(spec, rng)
    theta = _mvn_batch(clust_cov, C, rng)
    resid = _mvn_batch(indiv_cov, C * n, rng)
    cluster_index = np.repeat(np.arange(C), n)
    D = treated[cluster_index].astype(float)
    mu = np.asarray(spec.mu)
    delta = np.asarray(spec.delta)
    Y = mu + delta * D[:, None] + theta[cluster_index] + resid
    ds = TrialDataset(
        cluster_labels=_labels(C),
        cluster_index=cluster_index,
        period=np.ones(C * n, dtype=int),
        treatment=D.astype(int),
        outcomes=Y,
        outcome_specs=(
            OutcomeSpec("y1", "gaussian"),
            OutcomeSpec("y2", "gaussian"),
        ),
    )
    ds.design = validate_design(ds)
    return ds


def gen_model2(spec: DgpSpec, rng: np.random.Generator) -> TrialDataset:
    """Parallel trial, one Poisson and one gaussian outcome."""
    if spec.model != "model2":
        raise ConfigError("spec is not a model2 specification")
    C, n = spec.n_clusters, spec.n_per_cluster
    (clust_cov,) = spec.effect_covariances()
    treated = _assign_treated(spec, rng)
    theta = _mvn_batch(clust_cov, C, rng)
    cluster_index = np.repeat(np.arange(C), n)
    D = treated[cluster_index].astype(float)
    eta1 = spec.mu[0] + spec.delta[0] * D + theta[cluster_index, 0]
    y1 = rng.poisson(np.exp(eta1)).astype(float)
    y2 = (
        spec.mu[1]
        + spec.delta[1] * D
        + theta[cluster_index, 1]
        + rng.normal(0.0, np.sqrt(spec.sigma2[1]), C * n)
    )
    ds = TrialDataset(
        cluster_labels=_labels(C),
        cluster_index=cluster_index,
        period=np.ones(C * n, dtype=int),
        treatment=D.astype(int),
        outcomes=np.column_stack([y1, y2]),
        outcome_specs=(
            OutcomeSpec("y1", "poisson"),
            OutcomeSpec("y2", "gaussian"),
        ),
    )
    ds.design = validate_design(ds)
    return ds


def gen_model3(spec: DgpSpec, rng: np.random.Generator) -> TrialDataset:
    """Two-period baseline-measure trial with three outcome families."""
    if spec.model != "model3":
        raise ConfigError("spec is not a model3 specification")
    C, n, T = spec.n_clusters, spec.n_per_cluster, 2
    treated = _assign_treated(spec, rng)
    theta = draw_ar1_cluster_effects(spec, rng, C, T)
    rows = C * T * n
    cluster_index = np.repeat(np.arange(C), T * n)
    period = np.tile(np.repeat(np.arange(1, T + 1), n), C)
    D = (treated[cluster_index] & (period == 2)).astype(float)
    is_p2 = (period == 2).astype(float)
    th = theta[cluster_index, :, period - 1]
    eta = (
        np.asarray(spec.mu)
        + np.asarray(spec.delta) * D[:, None]
        + np.asarray(spec.period_effect) * is_p2[:, None]
        + th
    )
    y1 = rng.poisson(np.exp(eta[:, 0])).astype(float)
    y2 = eta[:, 1] + rng.normal(0.0, np.sqrt(spec.sigma2[1]), rows)
    y3 = rng.binomial(1, logistic(eta[:, 2])).astype(float)
    ds = TrialDataset(
        cluster_labels=_labels(C),
        cluster_index=cluster_index,
        period=period,
        treatment=D.astype(int),
        outcomes=np.column_stack([y1, y2, y3]),
        outcome_specs=(
            OutcomeSpec("y1", "poisson"),
            OutcomeSpec("y2", "gaussian"),
            OutcomeSpec("y3", "binomial"),
        ),
    )
    ds.design = validate_design(ds)
    return ds


_GENERATORS = {"model1": gen_model1, "model2": gen_model2, "model3": gen_model3}


def generate_dataset(spec: DgpSpec, rng: np.random.Generator) -> TrialDataset:
    return _GENERATORS[spec.model](spec, rng)


# ----------------------------------------------------------------------
# study driver


class StudyFailureError(NumericalError):
    """Raised when too many study replicates fail."""


@dataclass
class StudySpec:
    """A full simulation study: DGP plus analysis settings."""

    dgp: DgpSpec
    methods: tuple[str, ...] = METHODS
    statistic: str = "unweighted"
    replicates: int = 100
    n_permutations: int = 1000
    n_search_steps: int = 2000
    alpha: float = 0.05
    seed: int = 1
    run_search: bool = True

    def __post_init__(self):
        validate_run_settings(
            self.alpha, self.methods, self.seed, self.n_permutations, self.n_search_steps
        )
        self.methods = tuple(self.methods)
        if self.statistic not in ("unweighted", "weighted"):
            raise ConfigError(f"unknown statistic kind: {self.statistic!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "StudySpec":
        if not isinstance(d, dict):
            raise ConfigError("study must be a JSON object")
        model = _require(d, "model")
        J = 3 if model == "model3" else 2
        run_search = d.get("run_search", True)
        if not isinstance(run_search, bool):
            raise ConfigError(f"run_search must be true or false, got {run_search!r}")
        dgp = DgpSpec(
            model=model,
            clusters_per_arm=_integer(d, "clusters_per_arm", _require(d, "clusters_per_arm")),
            n_per_cluster=_integer(d, "n_per_cluster", 20),
            delta=_numbers(d, "delta", (0.0,) * J),
            mu=_numbers(d, "mu", (1.0,) * J),
            sigma2=_numbers(d, "sigma2", (1.0,) * J),
            tau2=_numbers(d, "tau2", (0.05,) * J),
            rho=_number(d, "rho", 0.0),
            pi=_number(d, "pi", 0.0),
            lam=_number(d, "lambda", 0.7),
            period_effect=_numbers(d, "period_effect", (1.0,) * 3),
        )
        return cls(
            dgp=dgp,
            methods=d.get("methods", METHODS),
            statistic=d.get("statistic", "unweighted"),
            replicates=_integer(d, "replicates", 100),
            n_permutations=_integer(d, "n_permutations", 1000),
            n_search_steps=_integer(d, "n_search_steps", 2000),
            alpha=_number(d, "alpha", 0.05),
            seed=_integer(d, "seed", 1),
            run_search=run_search,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        dgp = d.pop("dgp")
        dgp["lambda"] = dgp.pop("lam")
        return {"model": dgp.pop("model"), **dgp, **d}


@dataclass
class MethodSummary:
    fwer: float
    fwer_mc_se: float
    coverage: float | None
    coverage_mc_se: float | None
    mean_ci_width: list | None
    width_mc_se: list | None


@dataclass
class SimulationReport:
    """Aggregated study results with Monte Carlo standard errors."""

    settings: dict
    replicates: int
    failures: int
    methods: dict[str, MethodSummary]
    replicate_rows: list | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "settings": self.settings,
            "replicates": self.replicates,
            "failures": self.failures,
            "methods": {
                name: asdict(summary) for name, summary in self.methods.items()
            },
        }


def _study_covariances(study: StudySpec, dataset, point_fits):
    """Per-outcome working covariances for the weighted statistic.

    Models with a single period use estimated exchangeable components;
    the baseline-measure model uses the autoregressive structure with
    the generating parameter values (estimating an autoregressive
    effect structure is out of scope for the fitting engine).
    """
    layout = dataset.cell_counts
    out = []
    for j in range(dataset.n_outcomes):
        if study.dgp.model == "model3":
            cspec = CovarianceSpec(
                "ar1_time", sigma2=1.0, tau2=study.dgp.tau2[j], lam=study.dgp.lam
            )
        else:
            s2, t2 = estimate_variance_components(dataset, j, point_fits[j])
            cspec = CovarianceSpec(
                "exchangeable", sigma2=max(s2, 1e-8), tau2=t2
            )
        out.append(build_cluster_covariance(cspec, layout))
    return out


def _prepare(study: StudySpec, rep: int, perm_methods: list[str]) -> tuple[dict, tuple | None]:
    """One replicate's row without its limits, and what its search needs (None: no search).

    The row holds each method's p-values and decisions, and the naive
    method's intervals; the search's inputs are the dataset, its search
    seed, covariances and point fits.
    """
    ss = np.random.SeedSequence([study.seed, rep])
    gen_seed, perm_seed, search_seed = (int(x) for x in ss.generate_state(3, np.uint64))
    dataset = generate_dataset(study.dgp, np.random.default_rng(gen_seed))
    alpha = study.alpha
    J = dataset.n_outcomes
    rec: dict = {"rep": rep, "methods": {}}

    point_fits = None
    covariances = None
    if perm_methods or "naive" in study.methods:
        point_fits = [irls_fit(dataset, j) for j in range(J)]
    if study.statistic == "weighted" and perm_methods:
        covariances = _study_covariances(study, dataset, point_fits)

    if perm_methods:
        plan = PermutationPlan(
            n_draws=study.n_permutations, seed=perm_seed, enumerate_exact=False
        )
        matrix = build_stat_matrix(dataset, plan, covariances=covariances)
        for m in perm_methods:
            adj = adjust(matrix, m)
            rec["methods"][m] = {
                "p_unadjusted": adj.p_unadjusted.tolist(),
                "p_adjusted": adj.p_adjusted.tolist(),
                "reject": (adj.p_adjusted <= alpha).tolist(),
            }

    if "naive" in study.methods:
        rows = naive_wald(dataset, alpha, point_fits)
        rec["methods"]["naive"] = {
            "p_unadjusted": [r["p"] for r in rows],
            "p_adjusted": [r["p"] for r in rows],
            "reject": [r["p"] <= alpha for r in rows],
            "lower": [r["lower"] for r in rows],
            "upper": [r["upper"] for r in rows],
        }
    if not (perm_methods and study.run_search):
        return rec, None
    return rec, (dataset, search_seed, covariances, point_fits)


def _run_chunk(args) -> list[dict | str]:
    """Every replicate of one chunk, in order: its row, or why it failed.

    The replicates are generated, fitted and given their rows one at a
    time; their searches then run as one stacked search, which fills in
    the permutation methods' limits.  A replicate that fails at any
    stage is dropped without touching the others' rows.
    """
    study, reps = args
    perm_methods = [m for m in study.methods if m in PERMUTATION_METHODS]
    rows: dict[int, dict | str] = {}
    searches = []
    for rep in reps:
        try:
            rows[rep], search = _prepare(study, rep, perm_methods)
        except _REPLICATE_ERRORS as exc:
            rows[rep] = f"replicate {rep}: {exc}"
            continue
        if search is not None:
            searches.append((rep, *search))
    if searches:
        searched, datasets, seeds, covariances, point_fits = zip(*searches)
        found = search_all_methods(
            list(datasets),
            perm_methods,
            alpha=study.alpha,
            Q=study.n_search_steps,
            seed=list(seeds),
            covariances=list(covariances),
            point_fits=list(point_fits),
        )
        for rep, sets in zip(searched, found):
            if isinstance(sets, Exception):
                rows[rep] = f"replicate {rep}: {sets}"
                continue
            for m, cs in sets.items():
                rows[rep]["methods"][m].update(lower=cs.lower.tolist(), upper=cs.upper.tolist())
    return [rows[rep] for rep in reps]


def run_study(
    study: StudySpec,
    workers: int | None = None,
    keep_replicates: bool = False,
) -> SimulationReport:
    """Run all replicates and aggregate operating characteristics.

    FWER is the fraction of replicates in which at least one outcome
    with a zero true effect was rejected; coverage is the fraction in
    which every interval contained its true effect; widths are averaged
    per outcome.  Replicates that fail numerically are excluded and
    counted; the study aborts if more than 2% fail.  ``workers`` (None:
    one) must be at least 1.

    Replicates run in fixed chunks of :data:`REPLICATE_CHUNK` by
    replicate index, whose searches step together as one chain array;
    workers (never more than there are chunks) take whole chunks.  Each
    replicate keeps its own streams, derived from (seed, replicate),
    and its own fits, so its row is the same in any chunk, and the
    chunks do not depend on the worker count: the report is identical
    for any number of workers.
    """
    R = study.replicates
    workers = 1 if workers is None else _check_workers(workers)
    chunks = [
        (study, range(lo, min(lo + REPLICATE_CHUNK, R))) for lo in range(0, R, REPLICATE_CHUNK)
    ]
    # a worker with no chunk to run would only be forked and torn down
    workers = min(workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_chunk, chunks))
    else:
        done = [_run_chunk(c) for c in chunks]
    results = [rec for chunk in done for rec in chunk]
    failures: list[str] = []
    good = []
    for rec in results:
        if isinstance(rec, dict):
            good.append(rec)
        else:
            failures.append(rec)
    if len(failures) > 0.02 * R:
        raise StudyFailureError(
            f"{len(failures)} of {R} replicates failed "
            f"(first failure: {failures[0]})"
        )

    delta = np.asarray(study.dgp.delta)
    true_null = delta == 0.0
    summaries: dict[str, MethodSummary] = {}
    for m in study.methods:
        reps = [r["methods"][m] for r in good if m in r["methods"]]
        if not reps:
            continue
        n = len(reps)
        rej = np.array([r["reject"] for r in reps], dtype=bool)
        fwer = float(rej[:, true_null].any(axis=1).mean()) if true_null.any() else 0.0
        fwer_se = float(np.sqrt(fwer * (1 - fwer) / n))
        coverage = coverage_se = None
        widths = width_se = None
        if "lower" in reps[0]:
            lo = np.array([r["lower"] for r in reps])
            hi = np.array([r["upper"] for r in reps])
            covered = ((lo <= delta) & (delta <= hi)).all(axis=1)
            coverage = float(covered.mean())
            coverage_se = float(np.sqrt(coverage * (1 - coverage) / n))
            w = hi - lo
            widths = w.mean(axis=0).tolist()
            width_se = (w.std(axis=0, ddof=1) / np.sqrt(n)).tolist() if n > 1 else [0.0] * w.shape[1]
        summaries[m] = MethodSummary(
            fwer=fwer,
            fwer_mc_se=fwer_se,
            coverage=coverage,
            coverage_mc_se=coverage_se,
            mean_ci_width=widths,
            width_mc_se=width_se,
        )
    return SimulationReport(
        settings=study.to_dict(),
        replicates=R - len(failures),
        failures=len(failures),
        methods=summaries,
        replicate_rows=good if keep_replicates else None,
    )


def resolve_workers(requested: int | None = None) -> int:
    """Worker count from the request, the environment, or the machine; at least 1."""
    if requested is None:
        env = os.environ.get("CRTPERM_THREADS")
        if not env:
            return max(1, os.cpu_count() or 1)
        try:
            requested = int(env)
        except ValueError:
            raise ConfigError(f"CRTPERM_THREADS is not an integer: {env!r}") from None
    return _check_workers(requested)


def _check_workers(workers: int) -> int:
    if workers < 1:
        raise ConfigError(
            "the worker count (--threads or CRTPERM_THREADS) must be at least 1, "
            f"got {workers}"
        )
    return workers
