"""Command-line entry point: subcommand smoke runs, output files,
error reporting."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import facetproc
from facetproc.cli import main
from facetproc.model import ModelParams
from facetproc.harness import _COMMANDS, write_table
from facetproc.sampler import ChainConfig, run_chain, trace_table


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
    # the library's trace table gives the same bytes for the same chain
    p = ModelParams.special(2, (0.0, -1.0), a=2.0)
    _, diag = run_chain(p, ChainConfig(n_steps=20000, seed=1))
    write_table(tmp_path / "export.csv", *trace_table(diag))
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


# sha256 of the results of commands whose floats come from IEEE-exact
# arithmetic and the correctly rounded math module alone, so that any CPU
# gives these bytes: chains on the d = 2 counts rule, the d = 3 counts rule
# at nu_2 = 0 (with b = 0.7, so r is no power of two; recorded on the rule
# that summed G_2 as Shewchuk partials, and over three blocks of steps on
# the rule that summed it on every move), the d = 3 nu_2 pair rule and the
# general rule (nu_2 in d = 4), and the moment constants in d = 3 and d = 4
# (quadrature and exact I_k).  Commands that pass through numpy's
# vectorized exp, log or power (rho, e1-e4) are left out.
PINNED_RESULTS = {
    "simulate-d2": (
        ["simulate"], "d = 2\nnu.2 = -1\na.grid = 4\nchain.steps = 20000\n",
        "cf062f535b92bb5bb34746a5b4e0906845d659357cd598ee40d4f7385389f1c7"),
    "simulate-d3-counts": (
        ["simulate"], "d = 3\nnu.3 = -1\nb = 0.7\na.grid = 8\n"
        "chain.steps = 20000\n",
        "40c43bcc2beded956dbc9f58ba29380aca2a7e862b9c4fd982ecbc21ad71746d"),
    "simulate-d3-counts-blocks": (
        ["simulate"], "d = 3\nnu.3 = -1\nb = 0.7\na.grid = 16\n"
        "chain.steps = 70000\n",
        "8d13d9614feb6e1db30b6c324b7c01446d96e474812d7091d0f918cd8a67a6a3"),
    "simulate-pair": (
        ["simulate"], "d = 3\nnu.2 = -1\na.grid = 4\nchain.steps = 20000\n",
        "961ec137f009837de5ef30171c2926f75aa2c63bac5e0e2bdd4f4bfb744623de"),
    "simulate-general": (
        ["simulate"], "d = 4\nnu.2 = -1\na.grid = 4\nchain.steps = 5000\n",
        "e67eb2e69d27db883821b6d95f4c7fc06268950a12003b804b7ec5b457d0eb8e"),
    "moments-d3": (
        ["moments"], "d = 3\n",
        "4b527c7f19debebb569e3622f040acaf4d1329d39f763aaf58973caf663082cc"),
    "moments-d4": (
        ["moments"], "d = 4\n",
        "a1a6cdf0900ea85049b7feb14172f7b0ba4835d24dc0e2b80ee0878e91b87b61"),
}


@pytest.mark.parametrize("case", list(PINNED_RESULTS))
def test_results_bytes_are_pinned(tmp_path, capsys, case):
    command, text, digest = PINNED_RESULTS[case]
    simulate = command == ["simulate"]
    out = tmp_path / "out"
    assert run(command + ["--config", write_conf(tmp_path, text), "--seed",
                          "3" if simulate else "0", "--out", str(out)]) == 0
    name = "trace.csv" if simulate else "results.csv"
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    capsys.readouterr()


# Every command kind's results, pinned per value: the rerun cases at seed 6
# and CI's d = 4 rho series and e3 rows at seed 0, whose cells pass through
# numpy's vectorized exp, log and power and so may differ in the last bits
# between CPUs.  Integer and string cells must match exactly, floats to a
# relative 1e-12 (a zero only by a zero).  `python tests/test_cli.py`
# rewrites PINNED_VALUES from the current code.
VALUE_CASES = {
    **{case: (command, text, 6) for case, (command, text)
       in RERUN_CASES.items()},
    "rho-series-d4": (["rho"], "d = 4\nnu.4 = -1\na.grid = 2,8,16\n", 0),
    "e3-d4": (["experiment", "e3"], "d = 4\nnu.4 = -1\na.grid = 2,8,16\n",
              0),
}
PINNED_VALUES = Path(__file__).with_name("pinned_values.json")


def _runs(cases, tmp_path):
    """The command line of each case, its config written under tmp_path
    and its output directory tmp_path / case."""
    runs = []
    for case in cases:
        command, text, seed = VALUE_CASES[case]
        conf = tmp_path / f"{case}.conf"
        conf.write_text(text)
        runs.append(command + ["--config", str(conf), "--seed", str(seed),
                               "--out", str(tmp_path / case)])
    return runs


def _cell(text):
    """A results cell as written: None if empty, else int, float or str."""
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _table(out):
    """The header and rows of a command's results in its --out directory."""
    path = next(p for p in (out / "trace.csv", out / "results.csv")
                if p.exists())
    return [[_cell(text) for text in line.split(",")]
            for line in path.read_text().splitlines()]


def _run_cases(cases, tmp_path, env=None):
    """Run each case's command in a fresh interpreter (with env's
    variables added) and return its table."""
    runs = _runs(cases, tmp_path)
    src = str(Path(facetproc.__file__).resolve().parents[1])
    full = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    disabled = (env or {}).get("NPY_DISABLE_CPU_FEATURES", "").split()
    # numpy ignores a feature name it does not know: check each took effect
    script = ("from numpy._core._multiarray_umath import "
              "__cpu_features__ as f\n"
              f"assert not any(f[name] for name in {disabled!r})\n"
              "from facetproc.cli import main\n"
              + "".join(f"assert main({args!r}) == 0\n" for args in runs))
    subprocess.run([sys.executable, "-c", script], env=full, check=True,
                   capture_output=True)
    return {case: _table(tmp_path / case) for case in cases}


def _differences(tables):
    """(case, row, column, got, pinned) of every cell off its pin."""
    pinned = json.loads(PINNED_VALUES.read_text())
    out = []
    for case, table in tables.items():
        want = pinned[case]
        if len(table) != len(want):
            out.append((case, "rows", None, len(table), len(want)))
            continue
        for r, (row, pin) in enumerate(zip(table, want)):
            if len(row) != len(pin):
                out.append((case, r, "cells", len(row), len(pin)))
                continue
            for c, (got, exp) in enumerate(zip(row, pin)):
                if type(got) is not type(exp):
                    same = False
                elif isinstance(exp, float):
                    same = math.isclose(got, exp, rel_tol=1e-12) \
                        or math.isnan(got) and math.isnan(exp)
                else:
                    same = got == exp
                if not same:
                    out.append((case, r, want[0][c], got, exp))
    return out


def test_results_values_are_pinned(tmp_path, capsys):
    for args in _runs(VALUE_CASES, tmp_path):
        assert run(args) == 0
    capsys.readouterr()
    assert _differences({case: _table(tmp_path / case)
                         for case in VALUE_CASES}) == []


def _has_x86_v4():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V4"))


@pytest.mark.skipif(not _has_x86_v4(), reason="numpy dispatches no AVX-512 "
                    "code on this CPU")
@pytest.mark.parametrize("disabled", [
    "X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"],
    ids=["avx2", "baseline"])
def test_results_values_hold_on_narrower_simd(tmp_path, disabled):
    # numpy's AVX2 and baseline exp, log and power move the last bits of
    # some rho, e3 and e4 cells; the pins hold them to 1e-12
    cases = ["rho-series", "rho-series-d4", "e3", "e3-d4", "e4"]
    tables = _run_cases(cases, tmp_path,
                        {"NPY_DISABLE_CPU_FEATURES": disabled})
    assert _differences(tables) == []


# each case compares the command's CSV table
@pytest.mark.parametrize("case", list(RERUN_CASES),
                         ids=[f"{case}-csv" for case in RERUN_CASES])
def test_cli_reruns_are_byte_identical(tmp_path, capsys, case):
    command, text = RERUN_CASES[case]
    conf = write_conf(tmp_path, text)
    name = "trace.csv" if command == ["simulate"] else "results.csv"
    blobs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        assert run(command + ["--config", conf, "--seed", "6",
                              "--out", str(out)]) == 0
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
    # the a = 16 chain would keep 5999840 states: refused before a = 1 runs
    (["experiment", "e2"], "d = 2\nnu.2 = -1\na.grid = 1,16\n"
                           "chain.steps = 100000,6000000\nchain.thin = 1\n",
     ("a = 16.0", "trace too large")),
    # each command's model requirement: these made the output directory
    # and were refused only when the driver ran
    (["experiment", "e4"], "d = 2\nnu.2 = -1\n", ("at least 3",)),
    (["experiment", "e1"], "d = 2\nnu.2 = -1\n", ("couplings zero",)),
    (["experiment", "e3"], "d = 3\nnu.2 = -1\n", ("top-order",)),
    (["experiment", "e2"], "d = 3\nnu.2 = -1\nnu.3 = -1\n",
     ("more than one interaction order",)),
    (["rho"], "d = 3\nnu.2 = -1\nnu.3 = -1\n",
     ("more than one interaction order",)),
    # this exited 0 with rows of nan and inf: the chains kept no state
    (["experiment", "e2"], "d = 2\nnu.2 = -1\nchain.steps = 1000\n"
                           "chain.thin = 5000\n",
     ("keeps no state", "thin = 5000")),
    # the order-5 quadrature of the covariances (10^8 points at resolution
    # 100): under a 1.5 GB address-space limit both exited 1 with numpy's
    # _ArrayMemoryError, e1 after about 6 s of reference draws
    (["moments"], "d = 6\n", ("d = 6", "quadrature grid")),
    (["experiment", "e1"], "d = 6\na.grid = 1,4\nreplicates = 20\n",
     ("d = 6", "quadrature grid")),
    # a negative seed: moments and e1 made the output directory before it
    # was refused, e1 by numpy's "expected non-negative integer"; rho and
    # e3 ran and recorded it
    *[(command + ["--seed", "-1"], text,
       ("seed must be an integer >= 0, got -1",))
      for command, text in RERUN_CASES.values()],
], ids=["e2-steps-short", "simulate-nu2-nan", "e2-trace-too-large",
        "e4-d2", "e1-coupled", "e3-nu2", "e2-two-orders", "rho-two-orders",
        "e2-keeps-nothing", "moments-d6", "e1-d6",
        *[f"{case}-seed" for case in RERUN_CASES]])
def test_cli_rejects_bad_numbers_before_running(tmp_path, capsys, command,
                                               text, named):
    out = tmp_path / "out"
    assert run(command + ["--config", write_conf(tmp_path, text),
                          "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named)
    assert not out.exists()


def test_experiment_choices_are_the_table_e_commands(capsys):
    ids = [name for name in _COMMANDS if name.startswith("e")]
    assert ids == ["e1", "e2", "e3", "e4"]
    with pytest.raises(SystemExit):
        run(["experiment", "--help"])
    assert "{" + ",".join(ids) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        run(["experiment", "e5", "--config", "unused.conf"])
    assert "invalid choice" in capsys.readouterr().err


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tables = _run_cases(list(VALUE_CASES), Path(tmp))
    PINNED_VALUES.write_text("{\n" + ",\n".join(
        f" {json.dumps(case)}: [\n"
        + ",\n".join("  " + json.dumps(row) for row in table) + "\n ]"
        for case, table in tables.items()) + "\n}\n")
