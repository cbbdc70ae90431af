"""The package's public names all resolve, importing it loads no more of
scipy than it uses, and its version is written once."""

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


def test_import_leaves_scipy_stats_out():
    # scipy.stats took about 0.4 s and 45 MiB of every process's start-up
    src = str(Path(facetproc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, facetproc.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


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
