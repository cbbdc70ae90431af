"""Command-line entry point: subcommand smoke runs, output files,
error reporting."""

import json
from pathlib import Path

import pytest

from facetproc.cli import main
from facetproc.model import ModelParams
from facetproc.sampler import ChainConfig, export_trace, run_chain


def write_conf(tmp_path, text):
    path = tmp_path / "model.conf"
    path.write_text(text)
    return str(path)


def run(args):
    return main(args)


def test_simulate_writes_trace_and_manifest(tmp_path, capsys):
    conf = write_conf(tmp_path, "d = 2\nnu.2 = -1\na.grid = 2\n"
                                "chain.steps = 20000\n")
    out = tmp_path / "sim"
    assert run(["simulate", "--config", conf, "--seed", "1",
                "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,n,G_1,G_2,accepted,move"
    assert len(trace) > 100
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "simulate"
    assert manifest["tasks"] == [{"a": 2.0, "replicate": 0,
                                  "chain_index": 0}]
    captured = capsys.readouterr()
    assert "retained" in captured.out
    assert "mean count" in captured.out
    # the library's trace writer gives the same bytes for the same chain
    p = ModelParams.special(2, (0.0, -1.0), a=2.0)
    _, diag = run_chain(p, ChainConfig(n_steps=20000, seed=1))
    export_trace(diag, tmp_path / "export.csv")
    assert (tmp_path / "export.csv").read_bytes() \
        == (out / "trace.csv").read_bytes()


def test_rho_series_output(tmp_path, capsys):
    conf = write_conf(tmp_path, "d = 2\nnu.2 = -1\na.grid = 1,4\n")
    out = tmp_path / "rho"
    assert run(["rho", "--config", conf, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("a,k,series,tail,limit")
    assert len(lines) == 3  # one k value, two grid points
    assert "series" in capsys.readouterr().out


def test_rho_bounds_output(tmp_path, capsys):
    # coupled order below the dimension switches to certified bounds
    conf = write_conf(tmp_path, "d = 3\nnu.2 = -1\na.grid = 2\n")
    out = tmp_path / "rho"
    assert run(["rho", "--config", conf, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "a,s,bound,rate,tail,n_max"
    assert len(lines) == 2
    assert "bounds" in capsys.readouterr().out


def test_moments_constants(tmp_path, capsys):
    conf = write_conf(tmp_path, "d = 2\n")
    out = tmp_path / "mom"
    assert run(["moments", "--config", conf, "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "quantity,i,j,value,se"
    by = {}
    for line in rows[1:]:
        q, i, j, value, se = line.split(",")
        by[(q, i, j)] = float(value)
    assert by[("count_mean", "", "")] == pytest.approx(1.0)
    assert by[("interaction_mean", "1", "")] == pytest.approx(2.0)
    assert by[("covariance", "1", "1")] == pytest.approx(4.0)
    assert by[("covariance", "1", "2")] == pytest.approx(1.0)
    assert by[("i_k", "1", "")] == pytest.approx(2.0)
    capsys.readouterr()


def test_experiment_subcommand_runs_e3(tmp_path, capsys):
    conf = write_conf(tmp_path, "d = 2\nnu.2 = -0.5\na.grid = 1,2\n")
    out = tmp_path / "exp"
    assert run(["experiment", "e3", "--config", conf,
                "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "manifest.json").exists()
    captured = capsys.readouterr()
    assert "e3" in captured.out and "manifest" in captured.out


def test_experiment_json_format(tmp_path, capsys):
    conf = write_conf(tmp_path, "d = 2\nnu.2 = -0.5\na.grid = 1\n")
    out = tmp_path / "expj"
    assert run(["experiment", "e3", "--config", conf, "--out", str(out),
                "--format", "json"]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert isinstance(payload, list) and payload
    capsys.readouterr()


RERUN_CASES = {
    "simulate": (["simulate"], "d = 2\nnu.2 = -1\na.grid = 2\n"
                               "chain.steps = 5000\n"),
    "rho-series": (["rho"], "d = 2\nnu.2 = -1\na.grid = 1,4\n"),
    "rho-bounds": (["rho"], "d = 3\nnu.2 = -1\na.grid = 2\n"),
    "moments": (["moments"], "d = 2\n"),
    "e1": (["experiment", "e1"], "d = 2\na.grid = 1,2\nreplicates = 20\n"),
    "e2": (["experiment", "e2"], "d = 2\nnu.2 = -1\na.grid = 1,2\n"
                                 "chain.steps = 10000\n"),
    "e3": (["experiment", "e3"], "d = 2\nnu.2 = -0.5\na.grid = 1,2\n"),
    "e4": (["experiment", "e4"], "d = 3\nnu.3 = -1\na.grid = 2\n"
                                 "chain.steps = 5000\nreplicates = 2\n"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(RERUN_CASES))
def test_cli_reruns_are_byte_identical(tmp_path, capsys, case, fmt):
    command, text = RERUN_CASES[case]
    conf = write_conf(tmp_path, text)
    name = ("trace" if command == ["simulate"] else "results") + "." + fmt
    blobs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        assert run(command + ["--config", conf, "--seed", "6", "--format",
                              fmt, "--out", str(out)]) == 0
        blobs.append((out / name).read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["outputs"]) == [name]
    assert blobs[0] == blobs[1]
    assert "manifest" in capsys.readouterr().out


def test_cli_reports_config_errors(tmp_path, capsys):
    conf = write_conf(tmp_path, "d = 2\nbogus = 1\n")
    code = run(["moments", "--config", conf, "--out", str(tmp_path / "x")])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "bogus" in captured.err


def test_cli_reports_missing_file(tmp_path, capsys):
    code = run(["rho", "--config", str(tmp_path / "absent.conf"),
                "--out", str(tmp_path / "y")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,named", [
    # the a = 16 chain needs 160 burn-in steps: refused before a = 1 runs
    (["experiment", "e2"], "d = 2\nnu.2 = -1\na.grid = 1,16\n"
                           "chain.steps = 100\n", ("a = 16.0", "n_steps = 100")),
    (["simulate"], "d = 2\nnu.2 = nan\n", ("nu.2",)),
], ids=["e2-steps-short", "simulate-nu2-nan"])
def test_cli_rejects_bad_numbers_before_running(tmp_path, capsys, command,
                                               text, named):
    out = tmp_path / "out"
    assert run(command + ["--config", write_conf(tmp_path, text),
                          "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named)
    assert not out.exists()
