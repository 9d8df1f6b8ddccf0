"""Permutation inference for cluster randomised trials with multiple outcomes.

Multiplicity-adjusted p-values (Bonferroni, Holm, and stepdown
max-statistic resampling), simultaneous confidence sets with
family-wise coverage located by Robbins-Monro stochastic
approximation, and a simulation harness for verifying error rates and
coverage.

The top-level names are the documented API; everything else is
reached through its module (``crtperm.permutation``,
``crtperm.search`` and so on).
"""

from .analysis import analyze
from .config import AnalysisConfig
from .corrections import adjust
from .data import load_dataset
from .errors import (
    ConfigError,
    CrtPermError,
    DataValidationError,
    DesignError,
    NumericalError,
)
from .glm import irls_fit
from .permutation import PermutationPlan, build_stat_matrix
from .search import rm_search, search_all_methods
from .simulate import DgpSpec, StudySpec, gen_model1, gen_model3, run_study

__version__ = "0.1.0"
