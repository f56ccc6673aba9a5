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
    process_means,
    stick_weights,
)
from .distributions import (
    MultivariateNormal,
    NormalProducts,
    PsdRepair,
    ScalarNormal,
    beta_cdf,
    beta_quantile,
    cholesky_factor,
    psd_repair,
    sample_beta,
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
    "MultivariateNormal",
    "NormalProducts",
    "ParameterError",
    "PsdRepair",
    "RngStream",
    "SCENARIO_IDS",
    "ScalarNormal",
    "ScenarioConfig",
    "SetDrawBatch",
    "SkipBudgetError",
    "analytic_capacity_toy",
    "analytic_coverage_binary",
    "analytic_coverage_toy",
    "beta_cdf",
    "beta_quantile",
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
    "generate_data",
    "histogram",
    "make_config",
    "marginal_sample",
    "point_estimate_set",
    "prepare_draw",
    "process_means",
    "psd_repair",
    "sample_beta",
    "sample_mvnormal",
    "sample_normal",
    "sample_truncated_normal",
    "stick_weights",
    "substream",
]
