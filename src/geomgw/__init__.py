"""Exact laws and samplers for geometric Galton-Watson trees conditioned on
a generation size, their three local limits, and a small verification lab."""

from .errors import (
    AuditError,
    CertificationError,
    GeomGWError,
    ResourceError,
    TruncationError,
    ValidationError,
)
from .exactlaw import (
    TruncatedLaw,
    condensation_family,
    condensation_tree_law,
    condensation_tree_law_product,
    conditioned_family,
    conditioned_restricted_family,
    conditioned_tree_law,
    gw_family,
    gw_tree_log_prob,
    kesten_family,
    kesten_restricted_family,
    kesten_tree_law,
    log_forest_pmf,
    log_generation_pmf,
    log_poisson_weight,
    poisson_family,
    poisson_restricted_family,
    poisson_tree_law,
    size_conditioning_ratio,
)
from .gtest import GTestResult, g_test_against_law, g_test_two_sample
from .lab import (
    ConvergenceRow,
    ExperimentConfig,
    ThetaRow,
    generation_scale,
    per_tree_gap,
    run_regime,
    run_theta_continuity,
    target_generation_size,
    tv_distance,
    worker_count,
    write_regime_csv,
    write_svg_chart,
    write_theta_csv,
)
from .oracle import equivalence_suite
from .offspring import (
    ExtinctionParams,
    IteratedLaw,
    OffspringParams,
    condensation_offspring_params,
    cumulative_immigration,
    extinction_params,
    gamma_gap,
    immigration_rate,
    iterate,
    log_condensation_offspring,
    log_gamma_ratio,
    survivor_offspring_param,
)
from .rng import RandomSource
from .sampler import (
    TypedTree,
    audit_skeleton,
    audit_spine,
    sample_condensation,
    sample_conditioned,
    sample_gw,
    sample_kesten,
    sample_poisson_tree,
)
from .treekit import OrderedTree, count_trees, enumerate_trees

__version__ = "0.1.0"
