"""Non-finite and unrunnable input is rejected where it enters: model
parameters, the reference laws, and experiment configurations."""

import math

import pytest

from facetproc.correlation import rho_mcmc
from facetproc.geometry import Facet, Window
from facetproc.harness import build_experiment_config, config_model, \
    poisson_mean_interaction
from facetproc.model import (CenterIntensity, ModelParams, OrientationLaw,
                             SizeLaw, log_conditional_intensity)
from facetproc.sampler import birth_log_ratio
from facetproc.ustat import FacetPattern

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


def _canonical(d: int, a: float, half_extent: float, side: float
               ) -> ModelParams:
    """Uncoupled canonical model at scale b = 1 with the given
    half-extent and window side."""
    return ModelParams(d, 1.0, (0.0,) * d, a,
                       CenterIntensity(Window.cube(side, d), level=1.0),
                       SizeLaw.fixed(half_extent), OrientationLaw(d))


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
    # the closed form assumes half-extent and window sides equal to b;
    # it gave E G_2 = 4.0 against a Monte Carlo 0.75, and 2.22 against
    # 2.43 +- 0.03
    "mean-interaction-extent": lambda: poisson_mean_interaction(
        _canonical(2, 4.0, 0.25, 1.0), 2),
    "mean-interaction-window": lambda: poisson_mean_interaction(
        _canonical(3, 16.0, 1.0, 0.5), 2),
    # these gave -3.7, -4.105 and (0.0247, inf) instead of refusing
    "intensity-pattern-dimension": lambda: log_conditional_intensity(
        [CUBE_FACET], CUBE_PATTERN, PAIR),
    "birth-pattern-dimension": lambda: birth_log_ratio(
        PAIR, CUBE_PATTERN, CUBE_FACET),
    "rho-mcmc-pattern-dimension": lambda: rho_mcmc(
        [CUBE_FACET], [CUBE_PATTERN], PAIR),
    # no active order: this gave 0.0
    "intensity-facet-dimension": lambda: log_conditional_intensity(
        [CUBE_FACET], FacetPattern.of([], 2), _canonical(2, 1.0, 1.0, 1.0)),
    # these gave 0.0 and -0.405, where g_increment refuses the facet
    "intensity-duplicate-inactive": lambda: log_conditional_intensity(
        [PRESENT], HOLDING, INACTIVE),
    "birth-duplicate-inactive": lambda: birth_log_ratio(
        INACTIVE, HOLDING, PRESENT),
}


@pytest.mark.parametrize("make", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
def test_bad_input_is_rejected(make):
    with pytest.raises(ValueError):
        make()
