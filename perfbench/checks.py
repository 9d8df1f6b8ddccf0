"""Output checks, written with numpy and the standard library only.

Nothing here calls crtperm: every reference value comes from an independent
computation on the benchmark's own copy of the inputs (least squares and
Newton fits, the permutation statistic written out again, a full enumeration
of the allocation space or an independent Monte Carlo sample), or from a
property the method must have (Bonferroni and Holm identities, Romano-Wolf
never below the unadjusted p-value, reject flags, nested rejections, Wald
duality of the naive interval).  A check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from inputs import ALPHA, Trial

PERMUTATION_METHODS = ("none", "bonferroni", "holm", "romano_wolf")
METHOD_ORDER = ("naive",) + PERMUTATION_METHODS
ENUMERATION_LIMIT = 20_000
# relative slack for comparing two independently computed statistics; the
# program's IRLS stops at a coefficient change of 1e-8
STAT_RTOL = 1e-6
# reference Monte Carlo sample for the binomial band of sampled p-values
REFERENCE_DRAWS = 20_000
BAND_Z = 5.0


def _z(alpha: float) -> float:
    """Upper alpha/2 normal quantile by bisection on erfc."""
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _close(a: float, b: float, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ----------------------------------------------------------------------
# independent model fits


def _link(family: str):
    """(inverse link, d mean / d eta, variance function) of the canonical link."""
    if family == "gaussian":
        return (lambda e: e), (lambda e: np.ones_like(e)), (lambda m: np.ones_like(m))
    if family == "poisson":
        return np.exp, np.exp, (lambda m: m)
    sig = lambda e: 1.0 / (1.0 + np.exp(-e))  # noqa: E731
    return sig, (lambda e: sig(e) * (1.0 - sig(e))), (lambda m: m * (1.0 - m))


def glm_fit(X: np.ndarray, y: np.ndarray, family: str):
    """Maximum-likelihood fit by least squares or Newton's method.

    Returns (coefficients, linear predictor, inverse information).
    """
    inv, dmu, var = _link(family)
    if family == "gaussian":
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        eta = X @ beta
        resid = y - eta
        sigma2 = float(resid @ resid) / (len(y) - X.shape[1])
        return beta, eta, np.linalg.inv(X.T @ X) * sigma2
    beta = np.zeros(X.shape[1])
    m = float(np.mean(y))
    beta[0] = math.log(m) if family == "poisson" else math.log(m / (1.0 - m))
    for _ in range(100):
        eta = X @ beta
        mu = inv(eta)
        w = dmu(eta) ** 2 / var(mu)
        info = (X * w[:, None]).T @ X
        step = np.linalg.solve(info, X.T @ ((y - mu) * dmu(eta) / var(mu)))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13 * max(1.0, np.max(np.abs(beta))):
            break
    eta = X @ beta
    w = dmu(eta) ** 2 / var(inv(eta))
    return beta, eta, np.linalg.inv((X * w[:, None]).T @ X)


def design(trial: Trial, with_treatment: bool) -> np.ndarray:
    cols = [np.ones(len(trial.cluster))]
    for t in range(2, trial.n_periods + 1):
        cols.append((trial.period == t).astype(float))
    if with_treatment:
        cols.append(trial.D)
    return np.column_stack(cols)


def fgls_gaussian(trial: Trial, y: np.ndarray) -> tuple[float, float]:
    """Feasible GLS with exchangeable moment estimates, in closed form per cluster."""
    X = design(trial, True)
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    C = trial.n_clusters
    n_c = np.bincount(trial.cluster, minlength=C).astype(float)
    sums = np.bincount(trial.cluster, weights=r, minlength=C)
    N = float(len(y))
    ssw = float((r**2).sum() - (sums**2 / n_c).sum())
    ssb = float((n_c * (sums / n_c - r.mean()) ** 2).sum())
    msw, msb = ssw / (N - C), ssb / (C - 1)
    n0 = (N - float(n_c @ n_c) / N) / (C - 1)
    s2, t2 = max(msw, 1e-12), max((msb - msw) / n0, 0.0)
    # V_c^{-1} = (I - g_c 11') / s2 with g_c = t2 / (s2 + n_c t2)
    g = t2 / (s2 + n_c * t2)
    Xs = np.stack([np.bincount(trial.cluster, weights=X[:, k], minlength=C)
                   for k in range(X.shape[1])], axis=1)
    xtvx = (X.T @ X - (Xs * g[:, None]).T @ Xs) / s2
    ys = np.bincount(trial.cluster, weights=y, minlength=C)
    xtvy = (X.T @ y - (Xs * g[:, None]).T @ ys) / s2
    cov = np.linalg.inv(xtvx)
    b = cov @ xtvy
    return float(b[-1]), float(math.sqrt(cov[-1, -1]))


# ----------------------------------------------------------------------
# the permutation statistic, written out again


def contribution_table(trial: Trial, j: int, covariance: dict | None) -> np.ndarray:
    """(C, T) cell totals of the null residuals, weighted if a covariance is given."""
    family = trial.outcomes[j].family
    y = trial.Y[:, j]
    _, eta, _ = glm_fit(design(trial, False), y, family)
    inv, dmu, _ = _link(family)
    r = y - inv(eta)
    if covariance is not None:
        g = 1.0 / dmu(eta)
        w = np.empty_like(r)
        s2, t2, lam = covariance["sigma2"], covariance["tau2"], covariance["lambda"]
        for c in range(trial.n_clusters):
            idx = np.flatnonzero(trial.cluster == c)
            gap = np.abs(trial.period[idx][:, None] - trial.period[idx][None, :])
            V = t2 * lam**gap + s2 * np.eye(len(idx))
            w[idx] = g[idx] * np.linalg.solve(V, r[idx])
        r = w
    T = trial.n_periods
    key = trial.cluster * T + (trial.period - 1)
    return np.bincount(key, weights=r, minlength=trial.n_clusters * T).reshape(-1, T)


def statistics_for(table: np.ndarray, treated_sets: np.ndarray) -> np.ndarray:
    """Statistic under each allocation; ``treated_sets`` is an (m, C) boolean array.

    Treated clusters carry +1 from the last period's start when the trial has
    a baseline period (+1 throughout otherwise), everything else -1.
    """
    s = np.where(treated_sets, 1.0, -1.0)
    if table.shape[1] == 1:
        cs = s * table[:, 0]
    else:
        cs = -table[:, :-1].sum(axis=1) + s * table[:, -1]
    return cs.sum(axis=1) / np.sqrt((cs**2).sum(axis=1))


def exceedance_band(stats: np.ndarray, observed: float) -> tuple[int, int]:
    """Counts of |stat| >= |observed| with ties judged strictly and loosely."""
    a, o = np.abs(stats), abs(observed)
    return int(np.sum(a > o * (1 + STAT_RTOL))), int(np.sum(a >= o * (1 - STAT_RTOL)))


# ----------------------------------------------------------------------
# properties every adjustment must have


def holm(p: np.ndarray) -> np.ndarray:
    out = np.empty(len(p))
    running = 0.0
    for r, j in enumerate(np.argsort(p, kind="stable")):
        running = max(running, min((len(p) - r) * p[j], 1.0))
        out[j] = running
    return out


def adjustment_identities(by_method: dict[str, tuple[np.ndarray, np.ndarray]],
                          where: str) -> list[str]:
    """Bonferroni, Holm and no-correction identities; Romano-Wolf >= unadjusted."""
    errors = []
    p = by_method["none"][0]
    for m, (pu, pa) in by_method.items():
        if not np.array_equal(pu, p):
            errors.append(f"{where}: {m} unadjusted p-values differ from 'none'")
    expected = {"none": p, "bonferroni": np.minimum(len(p) * p, 1.0), "holm": holm(p)}
    for m, ref in expected.items():
        if m in by_method and not np.allclose(by_method[m][1], ref, rtol=1e-12, atol=0):
            errors.append(f"{where}: {m} adjusted {by_method[m][1]} != {ref}")
    if "romano_wolf" in by_method:
        rw = by_method["romano_wolf"][1]
        if np.any(rw < p - 1e-12) or np.any(rw > 1.0):
            errors.append(f"{where}: romano_wolf {rw} outside [unadjusted {p}, 1]")
    return errors


def on_grid(p: np.ndarray, add: int, columns: int) -> bool:
    k = np.asarray(p) * (add + columns) - add
    return bool(np.all(np.abs(k - np.round(k)) < 1e-6) and np.all(k > -0.5)
                and np.all(k < columns + 0.5))


def wald_duality(p: float, lower: float, upper: float, z: float) -> bool:
    est, se = 0.5 * (lower + upper), (upper - lower) / (2 * z)
    return se > 0 and _close(p, math.erfc(abs(est) / se / math.sqrt(2.0)), 1e-7, 1e-15)


# ----------------------------------------------------------------------
# analyze


def check_analysis(path: Path, trial: Trial, config: dict, seed: int) -> list[str]:
    out = json.loads(path.read_text(encoding="utf-8"))
    errors: list[str] = []
    methods = [m for m in METHOD_ORDER if m in config.get("methods", PERMUTATION_METHODS)]
    names = [o.name for o in trial.outcomes]
    recs = out["results"]
    if [(r["outcome"], r["method"]) for r in recs] != [(n, m) for n in names for m in methods]:
        return [f"records are not outcomes x methods in order: {len(recs)} records"]
    rec = {(r["outcome"], r["method"]): r for r in recs}
    J, C = len(names), trial.n_clusters
    k_treated = int(trial.treated.sum())
    z = _z(ALPHA)
    covariance = config.get("covariance") if config.get("statistic") == "weighted" else None
    n_alloc = math.comb(C, k_treated)
    exact = n_alloc <= ENUMERATION_LIMIT
    M = config.get("n_permutations", 1000)
    if exact:
        sets = np.zeros((n_alloc, C), dtype=bool)
        for i, subset in enumerate(combinations(range(C), k_treated)):
            sets[i, list(subset)] = True
    else:
        rng = np.random.default_rng([seed, 99])
        order = rng.random((REFERENCE_DRAWS, C)).argsort(axis=1)[:, :k_treated]
        sets = np.zeros((REFERENCE_DRAWS, C), dtype=bool)
        np.put_along_axis(sets, order, True, axis=1)

    X = design(trial, True)
    obs_abs = np.empty(J)
    all_stats = []
    for j, name in enumerate(names):
        family = trial.outcomes[j].family
        beta, _, cov = glm_fit(X, trial.Y[:, j], family)
        est = rec[(name, methods[-1])]["estimate"]
        if not _close(est, beta[-1], 1e-6, 1e-9):
            errors.append(f"{name}: estimate {est} != independent fit {beta[-1]}")
        table = contribution_table(trial, j, covariance)
        obs = statistics_for(table, trial.treated[None, :])[0]
        stats = statistics_for(table, sets)
        obs_abs[j] = abs(obs)
        all_stats.append(stats)
        p = rec[(name, "none")]["p_unadjusted"]
        if exact:
            lo, hi = exceedance_band(stats, obs)
            k = p * n_alloc
            if abs(k - round(k)) > 1e-6 or not lo <= round(k) <= hi:
                errors.append(f"{name}: exact p {p} is not k/{n_alloc} with "
                              f"{lo} <= k <= {hi} from full enumeration")
        else:
            if not on_grid(np.array([p]), 1, M):
                errors.append(f"{name}: p {p} is not on the (1+k)/({M}+1) grid")
            lo, hi = exceedance_band(stats, obs)
            p_ref = (1 + 0.5 * (lo + hi)) / (REFERENCE_DRAWS + 1)
            pbar = 0.5 * (p + p_ref)
            band = BAND_Z * math.sqrt(pbar * (1 - pbar) * (1 / M + 1 / REFERENCE_DRAWS)) + 2 / M
            if abs(p - p_ref) > band:
                errors.append(f"{name}: p {p} is {abs(p - p_ref):.4f} from the "
                              f"reference {p_ref:.4f} (band {band:.4f})")
        for m in methods:
            r = rec[(name, m)]
            if not (r["lower"] < r["upper"]):
                errors.append(f"{name}/{m}: empty interval [{r['lower']}, {r['upper']}]")
            if m != "naive" and not (r["lower"] <= r["estimate"] <= r["upper"]):
                errors.append(f"{name}/{m}: interval [{r['lower']}, {r['upper']}] "
                              f"misses the estimate {r['estimate']}")
        if "naive" in methods:
            r = rec[(name, "naive")]
            if not wald_duality(r["p_unadjusted"], r["lower"], r["upper"], z):
                errors.append(f"{name}/naive: p-value and Wald interval disagree")
            if family == "gaussian":
                n_est, n_se = fgls_gaussian(trial, trial.Y[:, j])
            else:
                n_est, n_se = float(beta[-1]), float(math.sqrt(cov[-1, -1]))
            mid, se = 0.5 * (r["lower"] + r["upper"]), (r["upper"] - r["lower"]) / (2 * z)
            if not (_close(mid, n_est, 1e-6, 1e-9) and _close(se, n_se, 1e-6, 1e-12)):
                errors.append(f"{name}/naive: estimate/se {mid}/{se} != "
                              f"independent {n_est}/{n_se}")

    by_method = {
        m: (np.array([rec[(n, m)]["p_unadjusted"] for n in names]),
            np.array([rec[(n, m)]["p_adjusted"] for n in names]))
        for m in methods if m != "naive"
    }
    errors += adjustment_identities(by_method, "analysis")
    rw = by_method.get("romano_wolf", (None, None))[1]
    if rw is not None:
        add, cols = (0, n_alloc) if exact else (1, M)
        if not on_grid(rw, add, cols):
            errors.append(f"romano_wolf p {rw} is not on the allocation grid")
        if exact:
            errors += _romano_wolf_bounds(rw, obs_abs, np.abs(np.array(all_stats)))
    return errors


def _romano_wolf_bounds(rw: np.ndarray, obs_abs: np.ndarray, perm_abs: np.ndarray) -> list[str]:
    """The stepdown max-statistic p-values over an enumerated allocation space."""
    order = np.lexsort((np.arange(len(obs_abs)), -obs_abs))
    srt = obs_abs[order]
    if np.any(srt[:-1] - srt[1:] <= STAT_RTOL * srt[:-1]):
        return []   # observed statistics too close to order independently
    lo_run = hi_run = 0.0
    errors = []
    for r, j in enumerate(order):
        colmax = perm_abs[order[r:]].max(axis=0)
        lo, hi = exceedance_band(colmax, obs_abs[j])
        lo_run = max(lo_run, lo / perm_abs.shape[1])
        hi_run = max(hi_run, hi / perm_abs.shape[1])
        if not lo_run - 1e-12 <= rw[j] <= hi_run + 1e-12:
            errors.append(f"romano_wolf p {rw[j]} for outcome {j} outside "
                          f"[{lo_run}, {hi_run}] from full enumeration")
    return errors


# ----------------------------------------------------------------------
# simulate


def _float(s: str) -> float | None:
    return None if s == "" else float(s)


def check_study(report_path: Path, dump_path: Path, study: dict) -> list[str]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    with open(dump_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    errors: list[str] = []
    R = study["replicates"]
    if report["replicates"] != R or report["failures"] != 0:
        errors.append(f"{report['replicates']} replicates and {report['failures']} "
                      f"failures reported, {R} asked for")
    methods = list(study["methods"])
    J = len(study["delta"])
    delta = np.array(study["delta"], dtype=float)
    M = study["n_permutations"]
    searched = study["run_search"]
    z = _z(study["alpha"])
    # table[method] = (reps, J) arrays of p_unadjusted, p_adjusted, reject, lower, upper
    table: dict[str, dict[str, np.ndarray]] = {}
    reps = sorted({int(r["replicate"]) for r in rows})
    if reps != list(range(R)):
        return errors + [f"dump holds replicates {reps[:5]}..., expected 0..{R - 1}"]
    for m in methods:
        sel = [r for r in rows if r["method"] == m]
        if len(sel) != R * J:
            errors.append(f"dump has {len(sel)} rows for {m}, expected {R * J}")
            continue
        sel.sort(key=lambda r: (int(r["replicate"]), int(r["outcome"])))
        col = lambda k: np.array([_float(r[k]) for r in sel], dtype=float).reshape(R, J)  # noqa: E731
        table[m] = {k: col(k) for k in ("p_unadjusted", "p_adjusted", "lower", "upper")}
        table[m]["reject"] = np.array([r["reject"] == "1" for r in sel]).reshape(R, J)
    if errors:
        return errors

    for m, t in table.items():
        if not np.array_equal(t["reject"], t["p_adjusted"] <= study["alpha"]):
            errors.append(f"{m}: reject flags differ from p_adjusted <= alpha")
        has_interval = m == "naive" or searched
        if has_interval and not np.all(t["lower"] < t["upper"]):
            errors.append(f"{m}: an interval has lower >= upper")
        if m == "naive":
            bad = [i for i in range(R) for j in range(J) if not wald_duality(
                t["p_unadjusted"][i, j], t["lower"][i, j], t["upper"][i, j], z)]
            if bad:
                errors.append(f"naive: p-value and Wald interval disagree in {len(bad)} cells")
        elif not on_grid(t["p_adjusted"], 1, M) or not on_grid(t["p_unadjusted"], 1, M):
            errors.append(f"{m}: p-values off the (1+k)/({M}+1) grid")
    for i in range(R):
        by_method = {m: (table[m]["p_unadjusted"][i], table[m]["p_adjusted"][i])
                     for m in PERMUTATION_METHODS if m in table}
        errors += adjustment_identities(by_method, f"replicate {i}")
        if len(errors) > 20:
            return errors
    for strict, loose in (("bonferroni", "holm"), ("holm", "none"), ("romano_wolf", "none")):
        if strict in table and loose in table and np.any(
                table[strict]["reject"] & ~table[loose]["reject"]):
            errors.append(f"a {strict} rejection is not a {loose} rejection")

    null = delta == 0.0
    for m, t in table.items():
        got = report["methods"][m]
        fwer = float(t["reject"][:, null].any(axis=1).mean())
        expected = {"fwer": fwer, "fwer_mc_se": math.sqrt(fwer * (1 - fwer) / R)}
        if m == "naive" or searched:
            covered = ((t["lower"] <= delta) & (delta <= t["upper"])).all(axis=1)
            cov = float(covered.mean())
            w = t["upper"] - t["lower"]
            expected.update(coverage=cov, coverage_mc_se=math.sqrt(cov * (1 - cov) / R),
                            mean_ci_width=w.mean(axis=0).tolist(),
                            width_mc_se=(w.std(axis=0, ddof=1) / math.sqrt(R)).tolist())
        for k, v in expected.items():
            g = got[k]
            if not np.allclose(np.atleast_1d(g), np.atleast_1d(v), rtol=1e-9, atol=1e-12):
                errors.append(f"{m}: reported {k} {g} != {v} from the dump")
    return errors
