"""Analysis configuration: column roles, methods, and run parameters.

The JSON layout understood by :meth:`AnalysisConfig.from_dict`::

    {
      "schema_version": 1,
      "columns": {"cluster": "site", "time": "period", "treatment": "arm",
                  "covariates": ["age"]},
      "outcomes": [{"name": "y1", "family": "gaussian"},
                   {"name": "y2", "family": "poisson", "link": "log"}],
      "alpha": 0.05,
      "methods": ["none", "bonferroni", "holm", "romano_wolf"],
      "statistic": "unweighted",
      "sided": "two_sided",
      "n_permutations": 1000,
      "n_search_steps": 2000,
      "seed": 1,
      "covariance": {"source": "estimate"}
    }

``alpha`` must lie in (0, 0.5), ``seed`` must be non-negative, the
counts must be whole numbers, and ``n_search_steps`` must be at least
100; a config that breaks any of these is a :class:`ConfigError`.
``sided`` may be left out; the only value accepted is ``"two_sided"``,
because the confidence-limit search is two-sided and the p-values
must test the same hypotheses.

``covariance.source`` may instead be ``"fixed"`` with explicit
``structure`` / ``sigma2`` / ``tau2`` / ``lambda`` entries (defaults
``"exchangeable"``, 1, 0, 0), which are used verbatim for the weighted
statistic.  The block is checked when the config is read: an unknown
key, a value of the wrong type or out of range is a
:class:`ConfigError`.  So is a fixed covariance with any statistic but
``"weighted"``, because only the weighted statistic uses one;
``{"source": "estimate"}`` is the same as leaving the block out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import OutcomeSpec
from .errors import ConfigError
from .glm import CovarianceSpec
from .search import MIN_SEARCH_STEPS

METHODS = ("naive", "none", "bonferroni", "holm", "romano_wolf")
#: every method but naive, in the same order
PERMUTATION_METHODS = METHODS[1:]
STATISTIC_KINDS = ("unweighted", "weighted")

SCHEMA_VERSION = 1


def _require(d: dict, key: str):
    if key not in d:
        raise ConfigError(f"missing field: {key}")
    return d[key]


def _is_number(value) -> bool:
    """True for a JSON number; JSON's true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(d: dict, key: str, default: float) -> float:
    """``d[key]`` (or the default) as a float; anything but a JSON number is an error."""
    value = d.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(d: dict, key: str, default: tuple) -> tuple:
    """``d[key]`` (or the default) as a tuple; it must be a list of JSON numbers."""
    values = d.get(key, default)
    if not isinstance(values, (list, tuple)) or not all(map(_is_number, values)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(values)


def _integer(d: dict, key: str, default: int) -> int:
    """``d[key]`` (or the default) as an int; it must be a whole JSON number."""
    value = _number(d, key, default)
    if not value.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {d[key]!r}")
    return int(value)


def validate_run_settings(
    alpha: float, methods, seed: int, n_permutations: int, n_search_steps: int
) -> None:
    """Checks shared by analysis configs and study definitions.

    The search's step constant needs alpha* < 0.5, and alpha* never
    exceeds alpha; seeds seed numpy's SeedSequence, which takes no
    negative entropy.
    """
    if not isinstance(methods, (list, tuple)):
        raise ConfigError(f"methods must be a list of method names, got {methods!r}")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method: {m!r}")
    if not 0 < alpha < 0.5:
        raise ConfigError(f"alpha must be in (0, 0.5), got {alpha}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if n_permutations < 1:
        raise ConfigError("n_permutations must be >= 1")
    if n_search_steps < MIN_SEARCH_STEPS:
        raise ConfigError(f"n_search_steps must be >= {MIN_SEARCH_STEPS}, got {n_search_steps}")


def _covariance(d: dict) -> CovarianceSpec | None:
    """The ``covariance`` block: a fixed working covariance, or None to estimate one."""
    block = d.get("covariance", {})
    if not isinstance(block, dict):
        raise ConfigError(f"covariance must be an object, got {block!r}")
    source = block.get("source", "estimate")
    allowed = {"estimate": {"source"},
               "fixed": {"source", "structure", "sigma2", "tau2", "lambda"}}
    if not isinstance(source, str) or source not in allowed:
        raise ConfigError(f"covariance source must be 'estimate' or 'fixed', got {source!r}")
    unknown = sorted(set(block) - allowed[source])
    if unknown:
        raise ConfigError(f"unknown covariance field(s) for source {source!r}: {unknown}")
    if source == "estimate":
        return None
    try:
        return CovarianceSpec(
            structure=block.get("structure", "exchangeable"),
            sigma2=_number(block, "sigma2", 1.0),
            tau2=_number(block, "tau2", 0.0),
            lam=_number(block, "lambda", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"covariance: {exc}") from None


@dataclass
class AnalysisConfig:
    cluster_col: str
    treatment_col: str
    outcome_specs: tuple[OutcomeSpec, ...]
    time_col: str | None = None
    covariate_cols: tuple[str, ...] = ()
    alpha: float = 0.05
    methods: tuple[str, ...] = PERMUTATION_METHODS
    statistic: str = "unweighted"
    sided: str = "two_sided"
    n_permutations: int = 1000
    n_search_steps: int = 2000
    seed: int = 1
    covariance: CovarianceSpec | None = None

    def __post_init__(self):
        validate_run_settings(
            self.alpha, self.methods, self.seed, self.n_permutations, self.n_search_steps
        )
        self.methods = tuple(self.methods)
        if self.statistic not in STATISTIC_KINDS:
            raise ConfigError(f"unknown statistic kind: {self.statistic!r}")
        if self.covariance is not None and self.statistic != "weighted":
            raise ConfigError(
                f"a fixed covariance needs statistic: weighted, got {self.statistic!r}: "
                "only the weighted statistic uses a working covariance"
            )
        if self.sided != "two_sided":
            raise ConfigError(
                f"sided must be 'two_sided', got {self.sided!r}: the confidence-limit "
                "search is two-sided, so the p-values are too"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        columns = _require(d, "columns")
        if not isinstance(columns, dict):
            raise ConfigError("'columns' must be an object")
        outcomes_raw = _require(d, "outcomes")
        if not isinstance(outcomes_raw, list) or not outcomes_raw:
            raise ConfigError("'outcomes' must be a non-empty list")
        specs = []
        for entry in outcomes_raw:
            try:
                specs.append(
                    OutcomeSpec(
                        name=_require(entry, "name"),
                        family=_require(entry, "family"),
                        link=entry.get("link", ""),
                    )
                )
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(str(exc)) from None
        return cls(
            cluster_col=_require(columns, "cluster"),
            treatment_col=_require(columns, "treatment"),
            time_col=columns.get("time"),
            covariate_cols=tuple(columns.get("covariates", ())),
            outcome_specs=tuple(specs),
            alpha=_number(d, "alpha", 0.05),
            methods=d.get("methods", PERMUTATION_METHODS),
            statistic=d.get("statistic", "unweighted"),
            sided=d.get("sided", "two_sided"),
            n_permutations=_integer(d, "n_permutations", 1000),
            n_search_steps=_integer(d, "n_search_steps", 2000),
            seed=_integer(d, "seed", 1),
            covariance=_covariance(d),
        )
