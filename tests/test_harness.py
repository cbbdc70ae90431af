"""Experiment drivers: configuration, closed forms, small runs,
reproducibility of the persisted outputs."""

import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetproc.harness import (CHAIN_GRID, POISSON_GRID, E1_HEADER,
                               E2_HEADER, E3_HEADER, E4_HEADER,
                               ExperimentConfig, _COMMANDS, _arrangements,
                               build_experiment_config, config_model,
                               experiment_e1_poisson_clt,
                               experiment_e3_rho_limits, parse_config,
                               poisson_mean_interaction, run_experiment)
from facetproc.correlation import rho_limit, rho_limit_from_counts
from facetproc.model import ModelParams


def conf_file(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def make_cfg(experiment, conf, out_dir, seed=0):
    return build_experiment_config(experiment, conf, out_dir, seed)


# ---------------------------------------------------------------------------
# configuration parsing


def test_parse_config_reads_keys_and_comments(tmp_path):
    path = conf_file(tmp_path, """
# model
d = 2
nu.2 = -1.5   # coupling
a.grid = 1, 2, 4

chain.steps = 50000
""")
    conf = parse_config(path)
    assert conf == {"d": "2", "nu.2": "-1.5", "a.grid": "1, 2, 4",
                    "chain.steps": "50000"}


def test_parse_config_rejects_malformed_lines(tmp_path):
    with pytest.raises(ValueError, match="expected"):
        parse_config(conf_file(tmp_path, "d 2\n"))
    with pytest.raises(ValueError, match="empty"):
        parse_config(conf_file(tmp_path, "d =\n"))
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(conf_file(tmp_path, "d = 2\nd = 3\n"))


def test_config_model_defaults():
    p = config_model({"d": "2"})
    assert p.d == 2 and p.b == 1.0 and p.a == 1.0
    assert p.nu == (0.0, 0.0)
    assert p.center.level == 1.0

    p = config_model({"d": "3", "b": "2", "chi.const": "0.5",
                      "nu.3": "-1"})
    assert p.b == 2.0 and p.nu == (0.0, 0.0, -1.0)
    assert p.center.level == 0.5


def test_config_model_rejects_bad_keys():
    with pytest.raises(ValueError, match="required"):
        config_model({"b": "1"})
    with pytest.raises(ValueError, match="unknown"):
        config_model({"d": "2", "bogus": "1"})
    with pytest.raises(ValueError, match="unknown"):
        config_model({"d": "2", "nu.x": "1"})
    # spellings of an order that config_model would not read
    for key in ("nu.02", "nu.\u0662", "nu.\u00b2"):
        with pytest.raises(ValueError, match="unknown config key"):
            config_model({"d": "2", key: "-1"})
    with pytest.raises(ValueError, match="outside"):
        config_model({"d": "2", "nu.3": "-1"})
    with pytest.raises(ValueError):
        # positive coupling above the first order is inadmissible
        config_model({"d": "2", "nu.2": "0.5"})


# keys the parser must carry through, including near-miss spellings of
# the coupling orders (zero-padded, non-ASCII digits)
_KEYS = ("d", "b", "chi.const", "a.grid", "nu.1", "nu.2", "nu.3", "nu.4",
         "nu.02", "nu.\u0662", "nu.\u00b2")
_VALUES = ("2", "-1", "-0.5", "0", "0.25", "1e400", "x")
_PAD = st.sampled_from(("", " ", "\t"))
_KEY = st.one_of(st.sampled_from(_KEYS), st.text(
    alphabet="abdnu.012_\u0662\u00b2\u00e9", min_size=1, max_size=6))
_VALUE = st.one_of(st.sampled_from(_VALUES), st.text(
    alphabet="0123456789.-=,e \u0662", min_size=1, max_size=6).map(str.strip)
    .filter(bool))
# (key, value, pad, pad, note) for a pair; (None, text, "", "", "") for
# a comment, a blank or a malformed line
_LINE = st.one_of(
    st.tuples(_KEY, _VALUE, _PAD, _PAD, st.sampled_from(("", " # note"))),
    st.tuples(st.none(), st.sampled_from(("", "  ", "# c", "d 2", "= 3",
                                          "d =", "  = ")),
              st.just(""), st.just(""), st.just("")))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((None, "2", "3")), st.lists(_LINE, max_size=5))
def test_parse_config_and_model_fuzz(tmp_path_factory, d, lines):
    if d is not None:
        lines = [("d", d, "", "", "")] + lines
    text, expected, bad_line = [], {}, None
    for ln, (key, value, pad, pad2, note) in enumerate(lines, start=1):
        if key is None:
            text.append(value)
            malformed = value.strip() and not value.startswith("#")
        else:
            text.append(f"{pad}{key}{pad2}={pad}{value}{pad2}{note}")
            malformed = key in expected
            expected[key] = value
        if malformed and bad_line is None:
            bad_line = ln
    path = tmp_path_factory.mktemp("fuzz") / "run.conf"
    path.write_text("\n".join(text) + "\n")
    try:
        conf = parse_config(path)
    except ValueError as exc:
        assert bad_line is not None and str(exc).startswith(f"line {bad_line}:")
        return
    assert bad_line is None and conf == expected
    try:
        p = config_model(conf)
    except ValueError:
        return
    orders = {f"nu.{j}": j for j in range(1, p.d + 1)}
    for key, value in conf.items():
        if key.startswith("nu."):
            assert key in orders
            assert p.nu[orders[key] - 1] == float(value)


def test_build_experiment_config_defaults(tmp_path):
    cfg = make_cfg("e1", {"d": "2"}, tmp_path)
    assert cfg.a_grid == POISSON_GRID
    assert cfg.replicates == 400
    assert cfg.chain_steps == ()  # e1 runs no chain

    cfg = make_cfg("e2", {"d": "2", "nu.2": "-1"}, tmp_path)
    assert cfg.a_grid == CHAIN_GRID
    assert cfg.replicates == 1
    assert cfg.chain_steps == (200000,) * len(CHAIN_GRID)


def test_build_experiment_config_per_grid_steps(tmp_path):
    conf = {"d": "2", "nu.2": "-1", "a.grid": "1,4,16",
            "chain.steps": "1000,2000,4000", "replicates": "3",
            "chain.burnin": "50", "chain.thin": "2"}
    cfg = make_cfg("e2", conf, tmp_path, seed=7)
    assert cfg.a_grid == (1.0, 4.0, 16.0)
    assert cfg.chain_steps == (1000, 2000, 4000)
    assert cfg.replicates == 3
    assert cfg.burn_in == 50 and cfg.thin == 2
    assert cfg.seed == 7


def test_experiment_config_validation(tmp_path):
    p = ModelParams.special(2, (0.0, -1.0))
    good = dict(params=p, a_grid=(1.0, 2.0), replicates=1,
                chain_steps=(100, 100), out_dir=str(tmp_path), seed=0)
    ExperimentConfig(experiment="e2", **good)
    with pytest.raises(ValueError, match="one of"):
        ExperimentConfig(experiment="e9", **good)
    with pytest.raises(ValueError, match="increasing"):
        ExperimentConfig(experiment="e2",
                         **{**good, "a_grid": (2.0, 1.0),
                            "chain_steps": (100, 100)})
    with pytest.raises(ValueError, match="match the grid"):
        ExperimentConfig(experiment="e2",
                         **{**good, "chain_steps": (100,)})
    with pytest.raises(ValueError, match="replicates"):
        ExperimentConfig(experiment="e2", **{**good, "replicates": 0})


# ---------------------------------------------------------------------------
# closed forms shared by the drivers


def test_poisson_mean_interaction_known_values():
    p = ModelParams.special(2, (0.0, 0.0), a=3.0)
    t = p.a * p.total_intensity
    assert poisson_mean_interaction(p, 1) == pytest.approx(t * 2.0)
    assert poisson_mean_interaction(p, 2) == pytest.approx(t * t / 4.0)

    p3 = ModelParams.special(3, (0.0, 0.0, 0.0), a=2.0)
    t3 = p3.a * p3.total_intensity
    assert poisson_mean_interaction(p3, 3) == pytest.approx((t3 / 3.0) ** 3)
    assert poisson_mean_interaction(p3, 1) == pytest.approx(t3 * 4.0)


def test_arrangements_cover_admissible_cases():
    for d in (2, 3, 4):
        arrs = _arrangements(d)
        for k, variant, l, counts in arrs:
            assert 1 <= k <= d - 1
            assert len(counts) == d and sum(counts) >= 1
            # the limit of any arrangement follows the unused-axis rule
            assert rho_limit(d, k, variant, l) \
                == rho_limit_from_counts(counts)
        labels = {(k, v, l) for k, v, l, _ in arrs}
        assert len(labels) == len(arrs)

    arrs3 = _arrangements(3)
    got = {(k, v, l) for k, v, l, _ in arrs3 if k == 1}
    assert got == {(1, "distinct", None), (1, "two_groups", 1),
                   (1, "two_groups", 2), (1, "overlapping_groups", 0),
                   (1, "overlapping_groups", 1)}


# ---------------------------------------------------------------------------
# e1: reference central-limit diagnostics


def test_e1_rejects_coupled_models(tmp_path):
    with pytest.raises(ValueError, match="zero"):
        make_cfg("e1", {"d": "2", "nu.2": "-1"}, tmp_path)


def test_e1_matches_asymptotic_constants(tmp_path):
    conf = {"d": "2", "a.grid": "1,4", "replicates": "600"}
    cfg = make_cfg("e1", conf, tmp_path, seed=5)
    rows = experiment_e1_poisson_clt(cfg)
    assert len(rows) == 6
    assert all(len(r) == len(E1_HEADER) for r in rows)
    by = {(r[0], r[1], r[2]): r for r in rows}
    for a in (1.0, 4.0):
        # planar constants are exact: 4, 1, 1/4
        assert by[(a, 1, 1)][5] == pytest.approx(4.0, abs=1e-9)
        assert by[(a, 1, 2)][5] == pytest.approx(1.0, abs=1e-9)
        assert by[(a, 2, 2)][5] == pytest.approx(0.25, abs=1e-9)
        for (i, j) in ((1, 1), (1, 2)):
            r = by[(a, i, j)]
            assert abs(r[3] - r[5]) < 5.0 * r[4]
        # the pair component carries finite-activity bias of order 1/a
        r = by[(a, 2, 2)]
        assert abs(r[3] - r[5]) < 5.0 * r[4] + 0.3 / a
        diag = by[(a, 1, 1)]
        assert abs(diag[7]) < 5.0 * diag[8]
    # skewness decays along the grid for the count component
    assert by[(4.0, 1, 1)][9] < by[(1.0, 1, 1)][9]
    off = by[(1.0, 1, 2)]
    assert off[7] is None and off[9] is None


# ---------------------------------------------------------------------------
# e2: degeneracy of the coupled count


def test_e2_full_order_matches_exact_series(tmp_path):
    conf = {"d": "2", "nu.2": "-2", "chi.const": "4", "a.grid": "1,3",
            "chain.steps": "150000,300000"}
    cfg = make_cfg("e2", conf, tmp_path / "run", seed=11)
    res = run_experiment(cfg)
    rows = res["rows"]
    assert len(rows) == 2
    assert all(len(r) == len(E2_HEADER) for r in rows)
    for a, est, se, occ, occ_se, env in rows:
        # the envelope is the exact series prediction when nothing
        # separates the coupled order from the dimension
        assert est > 0.0 and se > 0.0
        assert 0.0 <= occ <= 1.0 and occ_se >= 0.0
        assert abs(est - env) < 6.0 * se + 0.05 * env


def test_e2_control_uses_reference_mean(tmp_path):
    conf = {"d": "2", "a.grid": "2", "chain.steps": "100000"}
    cfg = make_cfg("e2", conf, tmp_path, seed=3)
    rows = run_experiment(cfg)["rows"]
    (a, est, se, occ, occ_se, env) = rows[0]
    p = ModelParams.special(2, (0.0, 0.0), a=2.0)
    assert env == pytest.approx(poisson_mean_interaction(p, 2))
    assert abs(est - env) < 6.0 * se + 0.05 * env


def test_e2_submodel_envelope_certifies(tmp_path):
    conf = {"d": "3", "nu.2": "-1", "a.grid": "1,2",
            "chain.steps": "30000"}
    cfg = make_cfg("e2", conf, tmp_path, seed=19)
    rows = run_experiment(cfg)["rows"]
    assert len(rows) == 2
    for a, est, se, occ, occ_se, env in rows:
        assert est <= env + 6.0 * se
        assert env > 0.0


# ---------------------------------------------------------------------------
# e3: correlation limits


def test_e3_requires_top_order(tmp_path):
    with pytest.raises(ValueError, match="top-order"):
        make_cfg("e3", {"d": "3", "nu.2": "-1", "a.grid": "1,2"}, tmp_path)


def test_e3_converges_to_limits(tmp_path):
    conf = {"d": "2", "nu.2": "-0.5", "a.grid": "2,8"}
    cfg = make_cfg("e3", conf, tmp_path, seed=0)
    rows = experiment_e3_rho_limits(cfg)
    assert len(rows) == 2 * len(_arrangements(2))
    assert all(len(r) == len(E3_HEADER) for r in rows)
    for a, k, variant, l, series, tail, lim, err, denom, n_max in rows:
        assert series > 0.0 and denom > 0.0 and n_max >= 1
        assert err == pytest.approx(abs(series - lim))
        assert tail < 1e-6
    dist = {r[0]: r for r in rows if r[2] == "distinct"}
    assert dist[2.0][6] == pytest.approx(0.5)
    assert dist[8.0][7] < dist[2.0][7]


def test_e3_control_collapses_to_one(tmp_path):
    cfg = make_cfg("e3", {"d": "3", "a.grid": "1,2"}, tmp_path)
    rows = experiment_e3_rho_limits(cfg)
    for row in rows:
        assert row[4] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# e4: scaling constants


def test_e4_guards(tmp_path):
    with pytest.raises(ValueError, match="at least 3"):
        make_cfg("e4", {"d": "2", "nu.2": "-1"}, tmp_path)
    with pytest.raises(ValueError, match="negative top-order"):
        make_cfg("e4", {"d": "3"}, tmp_path)


def test_e4_reports_both_normalizations(tmp_path):
    conf = {"d": "3", "nu.3": "-1", "a.grid": "2,5",
            "chain.steps": "120000,240000"}
    cfg = make_cfg("e4", conf, tmp_path / "out", seed=2)
    rows = run_experiment(cfg)["rows"]
    assert len(rows) == 4
    assert all(len(r) == len(E4_HEADER) for r in rows)
    by = {(r[0], r[1]): r for r in rows}
    for (a, k), r in by.items():
        assert r[2] > 0.0 and r[3] > 0.0
        assert r[5] > 0.0 and r[6] > 0.0
    # at d = 3 the two variance normalizations coincide
    assert by[(2.0, 1)][4] == pytest.approx(5.0 / 27.0)
    assert by[(2.0, 2)][4] == pytest.approx(8.0 / 3.0)
    for r in rows:
        assert r[7] == r[8]
        assert r[9] == "either"


# ---------------------------------------------------------------------------
# persistence and reproducibility


def test_run_experiment_writes_csv_and_manifest(tmp_path):
    conf = {"d": "2", "nu.2": "-0.5", "a.grid": "1,4"}
    cfg = make_cfg("e3", conf, tmp_path / "r1", seed=4)
    res = run_experiment(cfg)
    results = Path(res["results"])
    assert results.name == "results.csv"
    lines = results.read_text().splitlines()
    assert lines[0] == ",".join(E3_HEADER)
    assert len(lines) == 1 + len(res["rows"])

    manifest = json.loads(Path(res["manifest"]).read_text())
    assert manifest["experiment"] == "e3"
    assert manifest["seed"] == 4
    assert manifest["config"]["model"]["d"] == 2
    assert manifest["config"]["a_grid"] == [1.0, 4.0]
    digest = hashlib.sha256(results.read_bytes()).hexdigest()
    assert manifest["outputs"]["results.csv"] == digest


def test_run_experiment_reruns_byte_identical(tmp_path):
    conf = {"d": "2", "a.grid": "1,2", "replicates": "40"}
    outs = []
    for name in ("a", "b"):
        cfg = make_cfg("e1", conf, tmp_path / name, seed=13)
        res = run_experiment(cfg)
        outs.append(Path(res["results"]).read_bytes())
    assert outs[0] == outs[1]


def test_run_experiment_refuses_threads(tmp_path):
    # tasks run serially; threads=1 is accepted and nothing else
    cfg = make_cfg("e3", {"d": "2", "nu.2": "-0.5", "a.grid": "1"},
                   tmp_path / "out", seed=0)
    with pytest.raises(ValueError, match="threads must be 1"):
        run_experiment(cfg, threads=2)
    assert not (tmp_path / "out" / "results.csv").exists()
    assert Path(run_experiment(cfg, threads=1)["results"]).exists()


def test_run_experiment_refuses_a_file_as_output_before_running(
        tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.write_text("")
    cfg = make_cfg("e3", {"d": "2", "nu.2": "-0.5", "a.grid": "1"}, out,
                   seed=0)
    def driver(cfg):
        raise AssertionError("the driver ran")
    monkeypatch.setitem(_COMMANDS, "e3", dataclasses.replace(
        _COMMANDS["e3"], driver=driver))
    with pytest.raises(ValueError, match="is a file"):
        run_experiment(cfg)
    # an --out under a file: this ran the driver, then failed to make the
    # directory with "[Errno 20] Not a directory"
    cfg = make_cfg("e3", {"d": "2", "nu.2": "-0.5", "a.grid": "1"},
                   out / "sub", seed=0)
    with pytest.raises(ValueError, match=f"{re.escape(str(out))} is a file"):
        run_experiment(cfg)


# the manifest of a small e2 run, wall time masked and the
# results digest standing for the file's own
E2_MANIFEST = """{
  "config": {
    "a_grid": [
      1.0,
      2.0
    ],
    "chain_burnin": null,
    "chain_steps": [
      5000,
      5000
    ],
    "chain_thin": 3,
    "model": {
      "b": 1.0,
      "chi.const": 1.0,
      "d": 2,
      "nu": [
        0.0,
        -1.0
      ],
      "orientation": "canonical"
    },
    "replicates": 2
  },
  "experiment": "e2",
  "outputs": {
    "results.csv": "DIGEST"
  },
  "seed": 1,
  "tasks": [
    {
      "a": 1.0,
      "chain_index": 0,
      "replicate": 0
    },
    {
      "a": 1.0,
      "chain_index": 1,
      "replicate": 1
    },
    {
      "a": 2.0,
      "chain_index": 2,
      "replicate": 0
    },
    {
      "a": 2.0,
      "chain_index": 3,
      "replicate": 1
    }
  ],
  "version": "0.1.0",
  "wall_seconds": MASKED
}
"""


def test_manifest_text_is_pinned(tmp_path):
    conf = {"d": "2", "nu.2": "-1", "a.grid": "1,2", "chain.steps": "5000",
            "replicates": "2", "chain.thin": "3"}
    res = run_experiment(make_cfg("e2", conf, tmp_path, seed=1))
    text = Path(res["manifest"]).read_text()
    text = re.sub(r'("wall_seconds": )[^,\n]*', r"\1MASKED", text)
    digest = hashlib.sha256(Path(res["results"]).read_bytes()).hexdigest()
    assert text == E2_MANIFEST.replace("DIGEST", digest)


def test_manifest_tasks_enumerate_chains(tmp_path):
    conf = {"d": "2", "nu.2": "-1", "a.grid": "1,2",
            "chain.steps": "5000", "replicates": "2"}
    cfg = make_cfg("e2", conf, tmp_path, seed=1)
    res = run_experiment(cfg)
    manifest = json.loads(Path(res["manifest"]).read_text())
    tasks = manifest["tasks"]
    assert len(tasks) == 4
    assert [t["chain_index"] for t in tasks] == [0, 1, 2, 3]
    assert tasks[0] == {"a": 1.0, "replicate": 0, "chain_index": 0}
