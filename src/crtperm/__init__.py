"""Permutation inference for cluster randomised trials with multiple outcomes.

Multiplicity-adjusted p-values (Bonferroni, Holm, and stepdown
max-statistic resampling), simultaneous confidence sets with
family-wise coverage located by Robbins-Monro stochastic
approximation, and a simulation harness for verifying error rates and
coverage.
"""

from .analysis import AnalysisResult, analyze
from .config import AnalysisConfig
from .corrections import (
    AdjustedPValues,
    adjust,
    adjust_bonferroni,
    adjust_holm,
    adjust_none,
    adjust_romano_wolf,
)
from .data import (
    DesignInfo,
    OutcomeSpec,
    TrialDataset,
    load_dataset,
    validate_design,
)
from .errors import (
    ConfigError,
    CrtPermError,
    DataValidationError,
    DesignError,
    NumericalError,
)
from .glm import (
    CovarianceSpec,
    FittedMeanModel,
    build_cluster_covariance,
    estimate_variance_components,
    g_weights,
    irls_fit,
    naive_wald,
)
from .permutation import (
    PermutationPlan,
    StatMatrix,
    build_stat_matrix,
    enumerate_allocations,
    exact_p_value,
    mc_p_value,
    n_allocations,
    sample_allocation,
)
from .search import (
    ConfidenceSet,
    alpha_star_schedule,
    rm_search,
    search_all_methods,
    step_constant,
)
from .simulate import (
    DgpSpec,
    SimulationReport,
    StudySpec,
    draw_ar1_cluster_effects,
    gen_model1,
    gen_model2,
    gen_model3,
    generate_dataset,
    run_study,
)
from .statistics import SignedAllocation

__version__ = "0.1.0"
