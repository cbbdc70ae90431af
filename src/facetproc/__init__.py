"""Exponential-family facet processes: simulation and numerical checks."""

# set before the submodules load: harness writes it into every manifest
__version__ = "0.1.0"

from .correlation import (RhoBoundResult, RhoSeriesResult,
                          correlation_provider, rho_bounds, rho_decay_rate,
                          rho_limit, rho_limit_from_counts, rho_series_counts)
from .geometry import Facet, Window, canonical_content, facet_measure
from .harness import (ExperimentConfig, build_experiment_config, config_model,
                      parse_config, poisson_mean_interaction, run_experiment)
from .model import (CenterIntensity, ModelParams, OrientationLaw, SizeLaw,
                    local_stability_bound, log_conditional_intensity,
                    validate_params)
from .moments import (MomentSpec, ScalingLimits, asymptotic_covariance,
                      centered_moment_leading, enumerate_partitions,
                      expected_increment, i_k_integrals, interaction_kernel,
                      measure_kernel, mixed_moment, scaling_limit_constants,
                      unit_kernel)
from .sampler import (ChainConfig, ChainDiagnostics, batch_means_se,
                      make_rng, run_chain, sample_poisson, trace_table)
from .ustat import FacetPattern, g_increment, g_vector

__all__ = [
    "CenterIntensity",
    "ChainConfig",
    "ChainDiagnostics",
    "ExperimentConfig",
    "Facet",
    "FacetPattern",
    "ModelParams",
    "MomentSpec",
    "OrientationLaw",
    "RhoBoundResult",
    "RhoSeriesResult",
    "ScalingLimits",
    "SizeLaw",
    "Window",
    "asymptotic_covariance",
    "batch_means_se",
    "build_experiment_config",
    "canonical_content",
    "centered_moment_leading",
    "config_model",
    "correlation_provider",
    "enumerate_partitions",
    "expected_increment",
    "facet_measure",
    "g_increment",
    "g_vector",
    "i_k_integrals",
    "interaction_kernel",
    "local_stability_bound",
    "log_conditional_intensity",
    "make_rng",
    "measure_kernel",
    "mixed_moment",
    "parse_config",
    "poisson_mean_interaction",
    "rho_bounds",
    "rho_decay_rate",
    "rho_limit",
    "rho_limit_from_counts",
    "rho_series_counts",
    "run_chain",
    "run_experiment",
    "sample_poisson",
    "scaling_limit_constants",
    "trace_table",
    "unit_kernel",
    "validate_params",
]
