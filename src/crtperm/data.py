"""Trial data ingestion, validation, and internal representation.

A :class:`TrialDataset` stores one row per observation with a cluster
index, a time period, a treatment indicator, J outcome values, and an
optional covariate block.  The permutable unit is the cluster: all
inference code downstream only ever re-labels clusters, never rows.

Datasets are immutable after construction (the backing arrays are
marked read-only), so they can be shared freely across parallel
workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataValidationError, DesignError

CANONICAL_LINKS = {"gaussian": "identity", "poisson": "log", "binomial": "logit"}
SUPPORTED_PAIRS = frozenset(CANONICAL_LINKS.items())

SCHEME_PARALLEL = "parallel"
SCHEME_PARALLEL_WITH_BASELINE = "parallel_with_baseline"


@dataclass(frozen=True)
class OutcomeSpec:
    """Declares one outcome column: its name, distribution family, and link.

    Only the canonical pairs (gaussian, identity), (poisson, log) and
    (binomial, logit) are accepted; anything else is rejected at
    construction time.
    """

    name: str
    family: str
    link: str = ""

    def __post_init__(self):
        if not self.link:
            object.__setattr__(self, "link", CANONICAL_LINKS.get(self.family, ""))
        if (self.family, self.link) not in SUPPORTED_PAIRS:
            raise DataValidationError(
                f"unsupported family/link pair ({self.family!r}, {self.link!r}) "
                f"for outcome {self.name!r}; supported: "
                + ", ".join(f"({f}, {l})" for f, l in sorted(SUPPORTED_PAIRS))
            )


@dataclass(frozen=True)
class RowPatterns:
    """The distinct (cell, covariate row) patterns of a dataset's rows.

    Rows of one pattern share their cluster, period, treatment and
    covariates, so any mean model built from those (the nuisance design
    plus the treatment term) gives them one mean, and sums over rows
    collapse to sums over patterns.  Without covariates a pattern is a
    (cluster, period) cell; with a continuous covariate every row is
    its own pattern.  Patterns are sorted by cell, so each cluster's
    patterns are contiguous.
    """

    of_row: np.ndarray  # (n,) pattern of each row
    rep: np.ndarray  # (P,) one representative row per pattern
    counts: np.ndarray  # (P,) float number of rows per pattern
    cell: np.ndarray  # (P,) flat (cluster, period) cell of each pattern
    ysum: np.ndarray  # (P, J) per-outcome sums over each pattern's rows


@dataclass(frozen=True)
class DesignInfo:
    """Validated randomisation structure of a trial.

    ``arm_sizes`` is (number of control-sequence clusters, number of
    treated-sequence clusters).  ``scheme`` is ``"parallel"`` (treatment
    constant over time within each cluster) or
    ``"parallel_with_baseline"`` (all clusters untreated in period 1,
    the treated arm switched on from period 2).
    """

    n_clusters: int
    n_periods: int
    arm_sizes: tuple[int, int]
    scheme: str

    @property
    def treatment_start_period(self) -> int:
        """First period (1-based) in which the treated arm is treated."""
        return 2 if self.scheme == SCHEME_PARALLEL_WITH_BASELINE else 1


class TrialDataset:
    """Array-backed container for a multi-outcome cluster trial.

    Parameters
    ----------
    cluster_labels : sequence of str
        Distinct cluster labels in first-appearance order; the position
        of a label is its internal cluster index.
    cluster_index, period, treatment : int arrays of shape (n,)
        Per-observation cluster index (0-based), time period (1-based),
        and binary treatment indicator.
    outcomes : float array of shape (n, J)
    outcome_specs : sequence of OutcomeSpec, length J
    covariates : float array of shape (n, p), possibly p = 0
    covariate_names : sequence of str, length p
    design : DesignInfo, optional
        Usually left unset and filled in by :func:`validate_design`.
    """

    def __init__(
        self,
        cluster_labels: Sequence[str],
        cluster_index: np.ndarray,
        period: np.ndarray,
        treatment: np.ndarray,
        outcomes: np.ndarray,
        outcome_specs: Sequence[OutcomeSpec],
        covariates: np.ndarray | None = None,
        covariate_names: Sequence[str] = (),
        design: DesignInfo | None = None,
    ):
        n = len(cluster_index)
        self.cluster_labels = tuple(str(c) for c in cluster_labels)
        self.cluster_index = np.asarray(cluster_index, dtype=np.intp)
        self.period = np.asarray(period, dtype=np.intp)
        self.treatment = np.asarray(treatment, dtype=np.int8)
        self.outcomes = np.asarray(outcomes, dtype=float).reshape(n, -1)
        self.outcome_specs = tuple(outcome_specs)
        if covariates is None:
            covariates = np.empty((n, 0))
        self.covariates = np.asarray(covariates, dtype=float).reshape(n, -1)
        self.covariate_names = tuple(covariate_names)
        self.design = design
        self._cache: dict = {}
        self._validate_shapes()
        for arr in (self.cluster_index, self.period, self.treatment,
                    self.outcomes, self.covariates):
            arr.flags.writeable = False

    def _validate_shapes(self):
        n = self.n_obs
        if n == 0:
            raise DataValidationError("empty dataset: no observations")
        if self.outcomes.shape != (n, len(self.outcome_specs)):
            raise DataValidationError(
                f"outcomes shape {self.outcomes.shape} does not match "
                f"{n} observations x {len(self.outcome_specs)} outcome specs"
            )
        if len(self.outcome_specs) < 1:
            raise DataValidationError("at least one outcome is required")
        if self.covariates.shape[1] != len(self.covariate_names):
            raise DataValidationError("covariate block does not match covariate names")
        if self.cluster_index.min() < 0 or self.cluster_index.max() >= len(self.cluster_labels):
            raise DataValidationError("cluster index out of range")
        if self.period.min() < 1:
            raise DataValidationError("time periods must be integers >= 1")
        _validate_outcome_domains(self)
        _validate_treatment_consistency(self)

    # ------------------------------------------------------------------
    # basic dimensions

    @property
    def n_obs(self) -> int:
        return len(self.cluster_index)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_specs)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_labels)

    @property
    def n_periods(self) -> int:
        T = self._cache.get("n_periods")
        if T is None:
            T = int(self.period.max())
            self._cache["n_periods"] = T
        return T

    # ------------------------------------------------------------------
    # cached structural helpers used by the statistic machinery

    @property
    def group_key(self) -> np.ndarray:
        """Flat (cluster, period) cell index of each observation."""
        key = self._cache.get("group_key")
        if key is None:
            key = self.cluster_index * self.n_periods + (self.period - 1)
            self._cache["group_key"] = key
        return key

    @property
    def cell_counts(self) -> np.ndarray:
        """Number of observations in each (cluster, period) cell, shape (C, T)."""
        counts = self._cache.get("cell_counts")
        if counts is None:
            counts = np.bincount(
                self.group_key, minlength=self.n_clusters * self.n_periods
            ).reshape(self.n_clusters, self.n_periods)
            self._cache["cell_counts"] = counts
        return counts

    @property
    def treatment_matrix(self) -> np.ndarray:
        """Treatment indicator per (cluster, period) cell, shape (C, T).

        Cells without observations are coded 0; treatment consistency
        within non-empty cells was checked at construction.
        """
        d = self._cache.get("treatment_matrix")
        if d is None:
            d = np.zeros((self.n_clusters, self.n_periods), dtype=np.int8)
            d[self.cluster_index, self.period - 1] = self.treatment
            self._cache["treatment_matrix"] = d
        return d

    @property
    def patterns(self) -> "RowPatterns":
        """The rows' distinct (cell, covariate row) patterns; see :class:`RowPatterns`."""
        pat = self._cache.get("patterns")
        if pat is None:
            key = self.group_key
            if self.covariates.shape[1]:
                key = np.column_stack([key.astype(float), self.covariates])
            _, rep, of_row, counts = np.unique(
                key, axis=0, return_index=True, return_inverse=True, return_counts=True
            )
            of_row = of_row.reshape(-1)
            P = len(rep)
            pat = RowPatterns(
                of_row=of_row,
                rep=rep,
                counts=counts.astype(float),
                cell=self.group_key[rep],
                ysum=np.column_stack([
                    np.bincount(of_row, weights=col, minlength=P) for col in self.outcomes.T
                ]),
            )
            self._cache["patterns"] = pat
        return pat

    def cell_totals(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` over each (cluster, period) cell, shape (C, T)."""
        return np.bincount(
            self.group_key, weights=values, minlength=self.n_clusters * self.n_periods
        ).reshape(self.n_clusters, self.n_periods)

    # ------------------------------------------------------------------
    # serialization

    def to_csv(self, path: str | Path, *,
               cluster_col: str = "cluster", time_col: str = "period",
               treatment_col: str = "treatment") -> None:
        """Write the dataset back out as CSV with round-trip precision.

        Floats are written with ``repr`` (shortest exact representation),
        so reloading reproduces every value bit-for-bit.
        """
        header = (
            [cluster_col, time_col, treatment_col]
            + [s.name for s in self.outcome_specs]
            + list(self.covariate_names)
        )
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.n_obs):
                writer.writerow(
                    [
                        self.cluster_labels[self.cluster_index[i]],
                        int(self.period[i]),
                        int(self.treatment[i]),
                    ]
                    + [repr(float(v)) for v in self.outcomes[i]]
                    + [repr(float(v)) for v in self.covariates[i]]
                )


def _validate_outcome_domains(ds: TrialDataset) -> None:
    for j, spec in enumerate(ds.outcome_specs):
        col = ds.outcomes[:, j]
        if not np.all(np.isfinite(col)):
            row = int(np.flatnonzero(~np.isfinite(col))[0])
            raise DataValidationError(
                f"missing or non-finite value for outcome {spec.name!r} at data row {row + 1}"
            )
        if spec.family == "binomial":
            bad = np.flatnonzero((col != 0.0) & (col != 1.0))
            if bad.size:
                raise DataValidationError(
                    f"binomial outcome {spec.name!r} must be 0 or 1; "
                    f"found {col[bad[0]]!r} at data row {int(bad[0]) + 1}"
                )
        elif spec.family == "poisson":
            bad = np.flatnonzero((col < 0) | (col != np.floor(col)))
            if bad.size:
                raise DataValidationError(
                    f"poisson outcome {spec.name!r} must be a non-negative integer; "
                    f"found {col[bad[0]]!r} at data row {int(bad[0]) + 1}"
                )


def _validate_treatment_consistency(ds: TrialDataset) -> None:
    if not np.all(np.isin(ds.treatment, (0, 1))):
        row = int(np.flatnonzero(~np.isin(ds.treatment, (0, 1)))[0])
        raise DataValidationError(
            f"treatment must be 0 or 1; bad value at data row {row + 1}"
        )
    # each row against the first row of its (cluster, period) cell
    _, first, cell = np.unique(ds.group_key, return_index=True, return_inverse=True)
    bad = np.flatnonzero(ds.treatment != ds.treatment[first][cell])
    if bad.size:
        i = bad[0]
        label = ds.cluster_labels[ds.cluster_index[i]]
        raise DataValidationError(
            "treatment varies within cluster-period "
            f"(cluster {label!r}, period {int(ds.period[i])})"
        )


def validate_design(dataset: TrialDataset) -> DesignInfo:
    """Infer and validate the randomisation scheme of a dataset.

    Returns a :class:`DesignInfo` with the scheme (``parallel`` when
    treatment is constant over time within each cluster, or
    ``parallel_with_baseline`` when all clusters start untreated and the
    treated arm switches on at period 2) and the arm sizes.  Patterns
    that cannot arise from either scheme, such as a cluster switching
    treatment off, are rejected.
    """
    C, T = dataset.n_clusters, dataset.n_periods
    counts = dataset.cell_counts
    if T > 1:
        missing = np.argwhere(counts == 0)
        if missing.size:
            c, t = missing[0]
            raise DesignError(
                f"cluster {dataset.cluster_labels[c]!r} has no observations "
                f"in period {t + 1}"
            )
    d = dataset.treatment_matrix
    constant = np.all(d == d[:, :1], axis=1)
    if T == 1 or bool(np.all(constant)):
        treated = int(np.sum(d[:, 0] == 1))
        return DesignInfo(C, T, (C - treated, treated), SCHEME_PARALLEL)
    if np.all(d[:, 0] == 0):
        later = d[:, 1:]
        treated_rows = np.all(later == 1, axis=1)
        control_rows = np.all(later == 0, axis=1)
        if np.all(treated_rows | control_rows):
            treated = int(np.sum(treated_rows))
            return DesignInfo(
                C, T, (C - treated, treated), SCHEME_PARALLEL_WITH_BASELINE
            )
        bad = int(np.flatnonzero(~(treated_rows | control_rows))[0])
    else:
        bad = int(np.flatnonzero(~constant)[0])
    raise DesignError(
        "unsupported design: treatment pattern of cluster "
        f"{dataset.cluster_labels[bad]!r} fits neither a parallel nor a "
        "parallel-with-baseline scheme"
    )


def load_dataset(csv_path: str | Path, config) -> TrialDataset:
    """Load and validate a trial dataset from CSV.

    ``config`` is an :class:`~crtperm.config.AnalysisConfig` (or any
    object with ``cluster_col``, ``time_col``, ``treatment_col``,
    ``outcome_specs`` and ``covariate_cols`` attributes) declaring the
    column roles.  Cluster labels are mapped to dense internal indices
    in order of first appearance.

    Fields are stripped and blank lines skipped; a UTF-8 byte-order mark
    is allowed.  Periods are parsed by Python's ``int`` and must fit an
    int64, outcomes and covariates are parsed by ``float``.  Of the
    faulty values the one reported is the first in row order, and within
    a row in role order (cluster, time, treatment, outcomes,
    covariates); rows are numbered from the first data row.
    """
    csv_path = Path(csv_path)
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataValidationError(f"empty file: {csv_path}") from None
        rows = [r for r in reader if r]
    if not rows:
        raise DataValidationError(f"empty file (no data rows): {csv_path}")

    col_pos = {name: i for i, name in enumerate(header)}
    outcome_specs = tuple(config.outcome_specs)
    needed = [config.cluster_col, config.treatment_col]
    if config.time_col:
        needed.append(config.time_col)
    needed += [s.name for s in outcome_specs] + list(config.covariate_cols)
    for name in needed:
        if name not in col_pos:
            raise DataValidationError(f"missing column: {name}")

    # one pass per needed column; a short row's absent fields are missing values
    width = len(header)
    if min(map(len, rows)) < width:
        rows = [r + [""] * (width - len(r)) for r in rows]
    n = len(rows)
    columns = {
        name: list(map(str.strip, map(itemgetter(col_pos[name]), rows))) for name in needed
    }
    del rows
    # the first faulty value of each role as (data row, role, message); the
    # smallest is the one a row-by-row read meets first
    faults = []

    def find_fault(role: int, col: str, ok, message) -> bool:
        """Record the first value that is missing or fails ``ok``; False if none does."""
        for i, v in enumerate(columns[col]):
            if not v:
                faults.append((i, role, f"missing value in column {col!r} at data row {i + 1}"))
                return True
            if not ok(v):
                faults.append((i, role, message(i + 1, v)))
                return True
        return False

    def convert(role: int, col: str, parse, dtype, message) -> np.ndarray | None:
        """Column ``col`` converted by ``parse``; None once its fault is recorded."""
        try:
            return np.fromiter(map(parse, columns[col]), dtype, n)
        except _PARSE_ERRORS:
            if not find_fault(role, col, partial(_parses, parse, dtype), message):
                raise
            return None

    labels = columns[config.cluster_col]
    if "" in labels:
        find_fault(0, config.cluster_col, bool, None)
    first_seen = dict.fromkeys(labels)
    index_of = dict(zip(first_seen, range(len(first_seen))))
    cluster_index = np.fromiter(map(index_of.__getitem__, labels), np.intp, n)

    def period_fault(row: int, v: str) -> str:
        what = "time period out of range" if _parses(int, int, v) else "non-integer time period"
        return f"{what} at data row {row}, column {config.time_col!r}"

    period = np.ones(n, dtype=np.intp)
    if config.time_col:
        period = convert(1, config.time_col, int, np.intp, period_fault)
    treatment = convert(
        2, config.treatment_col, _TREATMENT_CODES.__getitem__, np.int8,
        lambda row, v: f"treatment must be 0 or 1; found {v!r} at data row {row}, "
                       f"column {config.treatment_col!r}",
    )
    outcomes = np.empty((n, len(outcome_specs)))
    for j, spec in enumerate(outcome_specs):
        col = convert(
            3 + j, spec.name, float, float,
            lambda row, v: f"non-numeric value for outcome {spec.name!r} at data row {row}",
        )
        if col is not None:
            outcomes[:, j] = col
    covariates = np.empty((n, len(config.covariate_cols)))
    for k, cname in enumerate(config.covariate_cols):
        col = convert(
            3 + len(outcome_specs) + k, cname, float, float,
            lambda row, v: f"non-numeric covariate {cname!r} at data row {row}",
        )
        if col is not None:
            covariates[:, k] = col
    del columns
    if faults:
        raise DataValidationError(min(faults)[2])

    ds = TrialDataset(
        cluster_labels=list(first_seen),
        cluster_index=cluster_index,
        period=period,
        treatment=treatment,
        outcomes=outcomes,
        outcome_specs=outcome_specs,
        covariates=covariates,
        covariate_names=tuple(config.covariate_cols),
    )
    ds.design = validate_design(ds)
    return ds


#: the treatment column's only values, as written after stripping
_TREATMENT_CODES = {"0": 0, "1": 1}


#: what a value that ``parse`` cannot read, or whose result the column's
#: dtype cannot hold (a period beyond the int64 range), raises
_PARSE_ERRORS = (ValueError, KeyError, OverflowError)


def _parses(parse, dtype, value: str) -> bool:
    """Whether ``parse`` reads ``value`` into something ``dtype`` can hold."""
    try:
        dtype(parse(value))
    except _PARSE_ERRORS:
        return False
    return True
