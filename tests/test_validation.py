"""Non-finite and unrunnable input is rejected where it enters: model
parameters, the reference laws, and experiment configurations."""

import math

import pytest

from facetproc.geometry import Window
from facetproc.harness import build_experiment_config, config_model
from facetproc.model import CenterIntensity, ModelParams, SizeLaw

NAN, INF = math.nan, math.inf
WINDOW = Window.cube(1.0, 2)

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
}


@pytest.mark.parametrize("make", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
def test_bad_input_is_rejected(make):
    with pytest.raises(ValueError):
        make()
