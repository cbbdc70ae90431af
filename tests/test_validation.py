"""Non-finite and unrunnable input is rejected where it enters: model
parameters, the reference laws, chain configurations and experiment
configurations."""

import dataclasses
import math

import numpy as np
import pytest

from facetproc.correlation import (correlation_provider, rho_bounds,
                                  rho_decay_rate, rho_limit,
                                  rho_limit_from_counts, rho_series_counts)
from facetproc.geometry import Facet, Window
from facetproc.harness import ExperimentConfig, build_experiment_config, \
    config_model, poisson_mean_interaction
from facetproc.model import (CenterIntensity, ModelParams, OrientationLaw,
                             SizeLaw, log_conditional_intensity)
from facetproc.moments import (MomentSpec, asymptotic_covariance,
                               centered_moment_leading, enumerate_partitions,
                               expected_increment, i_k_integrals,
                               interaction_kernel, scaling_limit_constants,
                               unit_kernel)
from facetproc.sampler import ChainConfig, run_chain
from facetproc.ustat import FacetPattern, g_increment

NAN, INF = math.nan, math.inf
WINDOW = Window.cube(1.0, 2)
PAIR = ModelParams.special(2, (0.0, -1.0), a=2.0)
# a 3-d pattern and facet: under the d=2 model they read as a G_2 increment
CUBE_PATTERN = FacetPattern.of([Facet((0.5, 0.5, 0.5), 1.0, 0),
                                Facet((0.2, 0.4, 0.6), 1.0, 1)], 3)
CUBE_FACET = Facet((0.3, 0.3, 0.3), 1.0, 2)
# no active order, and a facet already in the pattern
INACTIVE = ModelParams.special(2, (0.0, 0.0), a=2.0)
PRESENT = Facet((0.2, 0.7), 1.0, 0)
HOLDING = FacetPattern.of([PRESENT, Facet((0.9, 0.1), 1.0, 1)])
# models no command serves: hemisphere axes, and a table center in d = 3
HEMISPHERE = dataclasses.replace(PAIR, orientation=OrientationLaw(
    2, "hemisphere"))
TABLE = dataclasses.replace(
    ModelParams.special(3, (0.0, 0.0, -1.0)), center=CenterIntensity(
        Window.cube(1.0, 3), table=np.ones((2, 2, 2))))


def _canonical(d: int, a: float, half_extent: float, side: float
               ) -> ModelParams:
    """Uncoupled canonical model at scale b = 1 with the given
    half-extent and window side."""
    return ModelParams(d, 1.0, (0.0,) * d, a,
                       CenterIntensity(Window.cube(side, d), level=1.0),
                       SizeLaw.fixed(half_extent), OrientationLaw(d))


# one config each command kind accepts at seed 0
COMMAND_CONFS = {
    "simulate": {"d": "2", "nu.2": "-1", "a.grid": "2"},
    "rho": {"d": "2", "nu.2": "-1"},
    "moments": {"d": "2"},
    "e1": {"d": "2"},
    "e2": {"d": "2", "nu.2": "-1"},
    "e3": {"d": "2", "nu.2": "-1"},
    "e4": {"d": "3", "nu.3": "-1"},
}


BAD_INPUT = {
    "nu2-nan": lambda: ModelParams.special(2, (0.0, NAN)),
    "nu1-inf": lambda: ModelParams.special(2, (INF, 0.0)),
    "a-inf": lambda: ModelParams.special(2, (0.0, -1.0), a=INF),
    "a-nan": lambda: ModelParams.special(2, (0.0, -1.0), a=NAN),
    "b-inf": lambda: ModelParams.special(2, (0.0, -1.0), b=INF),
    "chi-inf": lambda: ModelParams.special(2, (0.0, -1.0), chi=INF),
    "level-nan": lambda: CenterIntensity(WINDOW, level=NAN),
    "table-inf": lambda: CenterIntensity(WINDOW, table=[[1.0, INF],
                                                        [1.0, 1.0]]),
    "table-nan": lambda: CenterIntensity(WINDOW, table=[[1.0, NAN],
                                                        [1.0, 1.0]]),
    "size-extent-nan": lambda: SizeLaw(((NAN, 1.0),)),
    "size-weight-nan": lambda: SizeLaw(((1.0, NAN),)),
    "conf-nu2-nan": lambda: config_model({"d": "2", "nu.2": "nan"}),
    "conf-chi-inf": lambda: config_model({"d": "2", "chi.const": "inf"}),
    "conf-grid-nan": lambda: build_experiment_config(
        "e2", {"d": "2", "a.grid": "1,nan"}, "out", 0),
    "conf-grid-overflow": lambda: build_experiment_config(
        "rho", {"d": "2", "a.grid": "1,1e400"}, "out", 0),
    "conf-grid-below-one": lambda: build_experiment_config(
        "e3", {"d": "2", "a.grid": "0.5,2"}, "out", 0),
    "conf-steps-short": lambda: build_experiment_config(
        "e2", {"d": "2", "nu.2": "-1", "a.grid": "1,16",
               "chain.steps": "100"}, "out", 0),
    "conf-simulate-burnin": lambda: build_experiment_config(
        "simulate", {"d": "2", "a.grid": "2", "chain.steps": "100",
                     "chain.burnin": "100"}, "out", 0),
    # a half-extent of 2b: the absolute tolerance b + 1e-12 let it in at
    # b = 1e-20, and local_stability_bound then read e^2 for a first-order
    # factor of e^4
    "extent-above-tiny-b": lambda: ModelParams(
        2, 1e-20, (1e20, 0.0), 1.0,
        CenterIntensity(Window.cube(1e-20, 2), level=1e40),
        SizeLaw.fixed(2e-20), OrientationLaw(2)),
    # the closed form assumes half-extent and window sides equal to b;
    # it gave E G_2 = 4.0 against a Monte Carlo 0.75, and 2.22 against
    # 2.43 +- 0.03
    "mean-interaction-extent": lambda: poisson_mean_interaction(
        _canonical(2, 4.0, 0.25, 1.0), 2),
    "mean-interaction-window": lambda: poisson_mean_interaction(
        _canonical(3, 16.0, 1.0, 0.5), 2),
    # this gave -3.7 instead of refusing
    "intensity-pattern-dimension": lambda: log_conditional_intensity(
        [CUBE_FACET], CUBE_PATTERN, PAIR),
    # no active order: this gave 0.0
    "intensity-facet-dimension": lambda: log_conditional_intensity(
        [CUBE_FACET], FacetPattern.of([], 2), _canonical(2, 1.0, 1.0, 1.0)),
    # this gave 0.0, where g_increment refuses the facet
    "intensity-duplicate-inactive": lambda: log_conditional_intensity(
        [PRESENT], HOLDING, INACTIVE),
    # these kept no state: run_chain returned an empty trace, and e2 wrote
    # rows of nan and inf after numpy's "Mean of empty slice"
    "chain-keeps-nothing": lambda: run_chain(PAIR, ChainConfig(
        n_steps=100, burn_in=0, thin=200)),
    "conf-e2-keeps-nothing": lambda: build_experiment_config(
        "e2", {"d": "2", "nu.2": "-1", "chain.steps": "1000",
               "chain.thin": "5000"}, "out", 0),
    # these ended in a numpy TypeError inside run_chain, or (True) ran one
    # step
    "chain-thin-float": lambda: ChainConfig(n_steps=1000, thin=2.5).resolve(
        PAIR),
    "chain-burnin-float": lambda: ChainConfig(
        n_steps=1000, burn_in=10.5).resolve(PAIR),
    "chain-steps-float": lambda: ChainConfig(n_steps=1000.0).resolve(PAIR),
    "chain-steps-bool": lambda: ChainConfig(n_steps=True, burn_in=0).resolve(
        PAIR),
    # these gave the partitions of (1,), or of (1, 2)
    "partitions-size-float": lambda: enumerate_partitions([1.7]),
    "partitions-size-bool": lambda: enumerate_partitions([True, 2]),
    # these ended in a TypeError when the moment was taken
    "moment-order-float": lambda: MomentSpec(((2.5, unit_kernel),)),
    "moment-samples-float": lambda: MomentSpec(((2, unit_kernel),),
                                               n_samples=2.5),
    # these gave (nan, nan), (0.0, inf) and (with m = True) (0.0, 0.0)
    "centered-samples-zero": lambda: centered_moment_leading(
        unit_kernel, 2, 2, None, PAIR, n_samples=0),
    "centered-samples-one": lambda: centered_moment_leading(
        unit_kernel, 2, 2, None, PAIR, n_samples=1),
    "centered-order-bool": lambda: centered_moment_leading(
        unit_kernel, 2, True, None, PAIR),
    # this ended in a TypeError
    "centered-k-float": lambda: centered_moment_leading(
        unit_kernel, 1.5, 2, None, PAIR, n_samples=10),
    # these ended in numpy's TypeError when the generator was seeded, or
    # took True as seed 1; the order-1 increment returned before any check
    "moment-seed-float": lambda: MomentSpec(((2, unit_kernel),), seed=1.5),
    "moment-seed-bool": lambda: MomentSpec(((2, unit_kernel),), seed=True),
    "centered-seed-float": lambda: centered_moment_leading(
        unit_kernel, 2, 2, None, PAIR, n_samples=10, seed=0.5),
    "increment-seed-float": lambda: expected_increment(
        2, PRESENT, PAIR, method="mc", n_samples=10, seed=2.5),
    "increment-seed-bool": lambda: expected_increment(
        1, PRESENT, PAIR, seed=True),
    "covariance-seed-float": lambda: asymptotic_covariance(
        2, 2, PAIR, n_samples=10, seed=1.5),
    # these truncated at n_max = 2.5 and n_max = True
    "series-cap-float": lambda: rho_series_counts(
        ModelParams.submodel(3, 3, -1.0, a=2.0), (1, 1, 0), n_cap=2.5),
    "bounds-cap-bool": lambda: rho_bounds(
        ModelParams.submodel(3, 2, -1.0, a=2.0), (1, 1, 0), n_cap=True),
    # the series and bounds grew the truncation to the cell limit before
    # the refusal; the provider took any tol until its first query
    "series-tol-nan": lambda: rho_series_counts(
        ModelParams.submodel(3, 3, -1.0, a=2.0), (1, 0, 0), tol=NAN),
    "series-tol-negative": lambda: rho_series_counts(
        ModelParams.submodel(3, 3, -1.0, a=2.0), (1, 0, 0), tol=-1e-8),
    "bounds-tol-nan": lambda: rho_bounds(
        ModelParams.submodel(3, 2, -1.0, a=2.0), (1, 1, 0), tol=NAN),
    "provider-tol-negative": lambda: correlation_provider(
        ModelParams.submodel(3, 3, -1.0, a=2.0), tol=-1.0),
    # these answered the (1, 0, 0) and (1, 1, 0) queries
    "series-count-bool": lambda: rho_series_counts(
        ModelParams.submodel(3, 3, -1.0, a=2.0), (True, 0, 0)),
    "bounds-count-numpy-bool": lambda: rho_bounds(
        ModelParams.submodel(3, 2, -1.0, a=2.0), (1, np.True_, 0)),
    # with Facet((0.5, 0.5), 1.0, 0), g_vector counted the NaN facet as a
    # crossing; the infinite half-extent had an infinite facet_measure;
    # the NaN normal passed the unit-norm check; the increment was 0.0
    "facet-center-nan": lambda: Facet((NAN, 0.5), 1.0, 1),
    "facet-center-inf": lambda: Facet((0.5, INF, 0.5), 1.0, 0),
    "facet-extent-inf": lambda: Facet((0.5, 0.5), INF, 0),
    "facet-normal-nan": lambda: Facet((0.0, 0.0), 1.0, (NAN, 0.0)),
    "increment-facet-nan": lambda: expected_increment(
        2, Facet((NAN, 0.5, 0.5), 1.0, 0), ModelParams.special(3, (0.0, -1.0, 0.0))),
    # these gave 1/4 and -0.237, or ran the search with cap = True; the
    # float ones ended in a TypeError
    "rho-limit-k-bool": lambda: rho_limit(4, True),
    "rho-limit-d-float": lambda: rho_limit(4.0, 1),
    "rho-limit-l-bool": lambda: rho_limit(4, 2, "two_groups", True),
    "decay-k-float": lambda: rho_decay_rate(4, 1.5, 1.0, 1.0, -1.0),
    "ik-d-float": lambda: i_k_integrals(3.5, 1),
    # these gave nan, inf and 0.0
    "ik-b-nan": lambda: i_k_integrals(3, 1, b=NAN),
    "ik-chi-inf": lambda: i_k_integrals(3, 1, chi=INF),
    "ik-b-zero": lambda: i_k_integrals(3, 1, b=0.0),
    "scaling-k-float": lambda: scaling_limit_constants(3, 1.5, 1.0, 1.0),
    # this ended in a TypeError when the run started
    "experiment-replicates-float": lambda: dataclasses.replace(
        build_experiment_config("e2", {"d": "2"}, "out", 0), replicates=2.5),
    # one replicate gave c_emp 0.0 and c_emp_se nan, with numpy's
    # "Degrees of freedom <= 0" warning
    "e1-replicates-one": lambda: build_experiment_config(
        "e1", {"d": "2", "a.grid": "1,4", "replicates": "1"}, "out", 0),
    # these ran one chain at a = 4: the grid was cut to its first value
    # before the check for an increasing grid, the replicates set to 1
    "simulate-grid-two": lambda: build_experiment_config(
        "simulate", {"d": "2", "a.grid": "4,8"}, "out", 0),
    "simulate-grid-decreasing": lambda: build_experiment_config(
        "simulate", {"d": "2", "a.grid": "4,2", "replicates": "5",
                     "chain.steps": "1000,2000"}, "out", 0),
    "simulate-replicates-five": lambda: build_experiment_config(
        "simulate", {"d": "2", "a.grid": "4", "replicates": "5"}, "out", 0),
    "simulate-steps-two": lambda: build_experiment_config(
        "simulate", {"d": "2", "a.grid": "4", "chain.steps": "1000,2000"},
        "out", 0),
    "moments-grid-two": lambda: build_experiment_config(
        "moments", {"d": "2", "a.grid": "1,2"}, "out", 0),
    # settings a command does not read; rho's manifest recorded
    # chain_thin 0
    "rho-chain-thin": lambda: build_experiment_config(
        "rho", {"d": "2", "chain.thin": "0"}, "out", 0),
    "e1-chain-steps": lambda: build_experiment_config(
        "e1", {"d": "2", "chain.steps": "1000"}, "out", 0),
    "moments-chain-burnin": lambda: build_experiment_config(
        "moments", {"d": "2", "chain.burnin": "10"}, "out", 0),
    "e3-replicates": lambda: build_experiment_config(
        "e3", {"d": "2", "nu.2": "-1", "replicates": "3"}, "out", 0),
    "rho-replicates-one": lambda: build_experiment_config(
        "rho", {"d": "2", "replicates": "1"}, "out", 0),
    # these gave 2/3, 2/3 and a ZeroDivisionError
    "limit-counts-bool": lambda: rho_limit_from_counts([True, 0, 0]),
    "limit-counts-float": lambda: rho_limit_from_counts([1.5, 0, 0]),
    "limit-counts-empty": lambda: rho_limit_from_counts([]),
    # built directly, these ran; rho's manifest recorded replicates 7 and
    # chain_thin 0
    "direct-rho-thin": lambda: ExperimentConfig(
        "rho", PAIR, (1.0,), 1, (), "out", 0, thin=0),
    "direct-rho-replicates": lambda: ExperimentConfig(
        "rho", PAIR, (1.0,), 7, (), "out", 0),
    "direct-e1-burnin": lambda: ExperimentConfig(
        "e1", INACTIVE, (1.0,), 50, (), "out", 0, burn_in=10),
    "direct-e3-replicates": lambda: ExperimentConfig(
        "e3", PAIR, (1.0,), 2, (), "out", 0),
    # rho's manifest recorded chain_steps [-5]
    "direct-rho-chain-steps": lambda: ExperimentConfig(
        "rho", PAIR, (1.0,), 1, (-5,), "out", 0),
    # e2 ran every chain before its ValueError; e4 ended in a TypeError
    # from i_k_integrals(chi=None)
    "direct-e2-hemisphere": lambda: ExperimentConfig(
        "e2", HEMISPHERE, (1.0,), 1, (100,), "out", 0),
    "direct-e4-table": lambda: ExperimentConfig(
        "e4", TABLE, (1.0,), 1, (100,), "out", 0),
    # each command's model requirement; these were refused only when the
    # driver ran, after the output directory was made
    "direct-e4-d2": lambda: ExperimentConfig(
        "e4", PAIR, (1.0,), 1, (1000,), "out", 0),
    "direct-e4-uncoupled": lambda: ExperimentConfig(
        "e4", ModelParams.special(3, (0.0,) * 3), (1.0,), 1, (1000,), "out",
        0),
    "direct-e1-coupled": lambda: ExperimentConfig(
        "e1", PAIR, (1.0,), 50, (), "out", 0),
    "direct-e3-nu2": lambda: ExperimentConfig(
        "e3", ModelParams.special(3, (0.0, -1.0, 0.0)), (1.0,), 1, (), "out",
        0),
    "direct-e2-two-orders": lambda: ExperimentConfig(
        "e2", ModelParams.special(3, (0.0, -1.0, -1.0)), (1.0,), 1, (1000,),
        "out", 0),
    "direct-rho-two-orders": lambda: ExperimentConfig(
        "rho", ModelParams.special(3, (0.0, -1.0, -1.0)), (1.0,), 1, (),
        "out", 0),
    # empty list items: these read as nu.2 = -1, a.grid = (1, 4) and one
    # step count broadcast over the grid
    "conf-nu2-trailing-comma": lambda: config_model(
        {"d": "2", "nu.2": "-1,"}),
    "conf-grid-empty-item": lambda: build_experiment_config(
        "e2", {"d": "2", "nu.2": "-1", "a.grid": "1,,4"}, "out", 0),
    "conf-steps-trailing-comma": lambda: build_experiment_config(
        "e2", {"d": "2", "nu.2": "-1", "a.grid": "1,4",
               "chain.steps": "1000,"}, "out", 0),
    # True was taken as order 1; the floats ended in a TypeError
    "increment-order-bool": lambda: expected_increment(True, PRESENT, PAIR),
    "increment-order-float": lambda: expected_increment(2.0, PRESENT, PAIR),
    "covariance-order-bool": lambda: asymptotic_covariance(
        True, 2, PAIR, n_samples=10),
    "g-increment-order-bool": lambda: g_increment(
        HOLDING, Facet((0.3, 0.3), 1.0, 1), orders=(True,)),
    "submodel-order-bool": lambda: ModelParams.submodel(3, True, -1.0),
    "submodel-order-float": lambda: ModelParams.submodel(3, 2.0, -1.0),
    "kernel-order-bool": lambda: interaction_kernel(True),
    # a seed of -1 or True: rho and e3 ran and recorded it, moments and e1
    # refused -1 only after making the output directory
    **{f"{command}-seed-{kind}": (
        lambda command=command, seed=seed: build_experiment_config(
            command, COMMAND_CONFS[command], "out", seed))
       for command in COMMAND_CONFS
       for kind, seed in (("negative", -1), ("bool", True))},
}


@pytest.mark.parametrize("make", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
def test_bad_input_is_rejected(make):
    with pytest.raises(ValueError):
        make()
