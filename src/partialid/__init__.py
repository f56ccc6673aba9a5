"""Bayesian nonparametric Monte Carlo inference for interval identified sets.

Simulation of Dirichlet-process priors and posteriors by truncated
stick-breaking, estimation of coverage functions and capacity functionals of
random identified intervals, credible-region construction, and marginal
sampling of a partially identified parameter under four conditional prior
families — with reproducible, worker-invariant random streams throughout.
"""

from .dirichlet import (
    DirichletProcessSpec,
    choose_truncation_level,
    process_draw,
    row_covariance,
    row_means,
    stick_weights,
)
from .distributions import (
    PsdRepair,
    beta_cdf,
    cholesky_factor,
    gamma_cdf,
    gamma_quantile,
    psd_repair,
    sample_beta,
    sample_dirichlet,
    sample_mvnormal,
    sample_normal,
    sample_truncated_normal,
)
from .errors import ParameterError, SkipBudgetError
from .priors import (
    ConditionalPriorSpec,
    Histogram,
    MarginalSampleBatch,
    default_prior_spec,
    histogram,
    marginal_sample,
    sample_gamma_given_theta,
)
from .random_sets import (
    CoverageCurve,
    CredibleRegion,
    IntervalSet,
    SetDrawBatch,
    credible_region,
    estimate_capacity,
    estimate_coverage,
    point_estimate_set,
)
from .rng import RngStream, substream
from .scenarios import (
    BinaryCounts,
    Dataset,
    ScenarioConfig,
    SCENARIO_IDS,
    analytic_capacity_toy,
    analytic_coverage_binary,
    analytic_coverage_toy,
    binary_posterior_params,
    count_binary,
    draw_set,
    draw_set_batch,
    generate_data,
    load_dataset,
    make_config,
    prepare_draw,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCounts",
    "ConditionalPriorSpec",
    "CoverageCurve",
    "CredibleRegion",
    "Dataset",
    "DirichletProcessSpec",
    "Histogram",
    "IntervalSet",
    "MarginalSampleBatch",
    "ParameterError",
    "PsdRepair",
    "RngStream",
    "SCENARIO_IDS",
    "ScenarioConfig",
    "SetDrawBatch",
    "SkipBudgetError",
    "analytic_capacity_toy",
    "analytic_coverage_binary",
    "analytic_coverage_toy",
    "beta_cdf",
    "binary_posterior_params",
    "cholesky_factor",
    "choose_truncation_level",
    "count_binary",
    "credible_region",
    "default_prior_spec",
    "draw_set",
    "draw_set_batch",
    "estimate_capacity",
    "estimate_coverage",
    "gamma_cdf",
    "gamma_quantile",
    "generate_data",
    "histogram",
    "load_dataset",
    "make_config",
    "marginal_sample",
    "point_estimate_set",
    "prepare_draw",
    "process_draw",
    "psd_repair",
    "row_covariance",
    "row_means",
    "sample_beta",
    "sample_dirichlet",
    "sample_gamma_given_theta",
    "sample_mvnormal",
    "sample_normal",
    "sample_truncated_normal",
    "stick_weights",
    "substream",
]
