"""The package's public names all resolve, importing it or running a
command that sums no series loads no scipy, and its version is written
once."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import facetproc


def test_every_exported_name_resolves():
    missing = [name for name in facetproc.__all__
               if not hasattr(facetproc, name)]
    assert not missing
    assert len(set(facetproc.__all__)) == len(facetproc.__all__)


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running code."""
    src = str(Path(facetproc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                     "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_scipy():
    # scipy.special took about 0.2 s of every process's start-up; only the
    # correlation series and tails need it
    assert _scipy_modules_after("import facetproc.cli") == []


@pytest.mark.parametrize("command,config", [
    ("simulate", "d = 2\nnu.2 = -1\na.grid = 2\nchain.steps = 2000\n"),
    ("moments", "d = 2\n"),
    ("experiment e1", "d = 3\na.grid = 1\nreplicates = 4\n"),
    ("experiment e4", "d = 3\nnu.3 = -1\na.grid = 2\nchain.steps = 2000\n"),
], ids=["simulate", "moments", "e1", "e4"])
def test_commands_without_a_series_load_no_scipy(tmp_path, command, config):
    conf = tmp_path / "model.conf"
    conf.write_text(config)
    args = command.split() + ["--config", str(conf), "--seed", "1",
                              "--out", str(tmp_path / "out")]
    assert _scipy_modules_after(
        f"from facetproc.cli import main\nassert main({args!r}) == 0") == []
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("call", [
    "rho_series_counts(ModelParams.special(3, (0.0, 0.0, -1.0), a=2.0),"
    " (1, 1, 0))",
    "rho_bounds(ModelParams.special(3, (0.0, -1.0, 0.0), a=2.0), (1, 1, 0))",
], ids=["rho_series_counts", "rho_bounds"])
def test_series_and_tails_load_scipy_special_alone(call):
    loaded = _scipy_modules_after(
        "from facetproc import ModelParams, rho_bounds, rho_series_counts\n"
        + call)
    assert "scipy.special" in loaded
    assert not any(m.split(".")[:2] == ["scipy", "stats"] for m in loaded)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_version_is_read_from_the_package():
    # the manifests record facetproc.__version__; the build reads the same
    # attribute, so a release bumps one line
    import tomllib
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        conf = tomllib.load(fh)
    assert "version" not in conf["project"]
    assert conf["project"]["dynamic"] == ["version"]
    assert conf["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "facetproc.__version__"}
