"""Bayesian and frequentist tests of inequality hypotheses.

Four ingredients: a Gaussian limit experiment where posterior-probability
tests can be studied exactly (limit_experiment), stochastic dominance
testing with Bayesian-bootstrap posteriors and frequentist p-values
(stochastic_dominance), a translog cost-function curvature test
(translog), and a reproducible replication harness (mc_harness).
"""

from .distributions import (
    CovarianceMatrix,
    beta_cdf,
    bivariate_normal_cdf,
    dirichlet_flat_sample,
    mvn_sample,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from .limit_experiment import (
    ACCEPT,
    REJECT,
    Box,
    Complement,
    Experiment,
    HalfSpace,
    IntervalUnion,
    LowerHalfLine,
    Predicate,
    SignAgreement,
    SizeResult,
    bayes_test,
    halfspace_rejection_prob_exact,
    kline_orthant_posterior,
    minimax_level_bounds,
    posterior_prob_halfspace,
    posterior_prob_region,
    region_membership,
    rejection_probability,
    size_over_boundary,
)
from .mc_harness import (
    McSummary,
    ReplicationError,
    RunReport,
    SeedPlan,
    mc_se,
    run_replications,
)
from .stochastic_dominance import (
    BANKS,
    RUBIN,
    UNIFORM01,
    PiecewiseLinearCdf,
    ReferenceCdf,
    SdConfig,
    StepCdf,
    bb_draw,
    dd_pvalue_nonsd1,
    ecdf,
    fixed_design_sample,
    iu_beta_pvalue_nonsd1,
    iu_maxt_pvalue_nonsd1,
    ks_pvalue_sd1,
    posterior_prob_sd1,
    sd_rejection_probability,
)
from .translog import (
    FreeParams,
    Hessian3,
    NsdPosterior,
    RankDeficientError,
    TranslogData,
    TranslogDgp,
    TranslogParams,
    Type1Result,
    default_free_params,
    expand_params,
    hessian,
    is_nsd,
    log_cost,
    monotone_at_unit,
    ols_fit,
    posterior_prob_nsd,
    shares,
    simulate_dataset,
    type1_error_sim,
    weighted_fit,
)

__version__ = "0.1.0"

__all__ = [
    "ACCEPT", "BANKS", "Box", "Complement", "CovarianceMatrix", "Experiment",
    "FreeParams", "HalfSpace", "Hessian3", "IntervalUnion", "LowerHalfLine",
    "McSummary", "NsdPosterior", "PiecewiseLinearCdf", "Predicate", "RUBIN",
    "RankDeficientError", "REJECT", "ReferenceCdf", "ReplicationError",
    "RunReport", "SdConfig", "SeedPlan", "SignAgreement", "SizeResult",
    "StepCdf", "TranslogData", "TranslogDgp", "TranslogParams", "Type1Result",
    "UNIFORM01", "bayes_test", "bb_draw", "beta_cdf", "bivariate_normal_cdf",
    "dd_pvalue_nonsd1", "default_free_params", "dirichlet_flat_sample", "ecdf",
    "expand_params", "fixed_design_sample", "halfspace_rejection_prob_exact", "hessian",
    "is_nsd", "iu_beta_pvalue_nonsd1", "iu_maxt_pvalue_nonsd1",
    "kline_orthant_posterior", "ks_pvalue_sd1", "log_cost", "mc_se",
    "minimax_level_bounds", "monotone_at_unit", "mvn_sample", "ols_fit",
    "posterior_prob_halfspace", "posterior_prob_nsd", "posterior_prob_region",
    "posterior_prob_sd1", "region_membership", "rejection_probability",
    "run_replications", "sd_rejection_probability", "shares",
    "simulate_dataset", "size_over_boundary", "std_normal_cdf",
    "std_normal_pdf", "std_normal_quantile", "type1_error_sim",
    "weighted_fit",
]
