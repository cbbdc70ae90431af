"""The demo scripts: each runs to the end and prints the same text twice."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import facetproc

DEMOS = sorted(Path(__file__).resolve().parents[1].glob("demos/*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output_is_reproducible(tmp_path, demo):
    # each run in a fresh interpreter; demo 04 writes its runs in a
    # tempfile.TemporaryDirectory, which TMPDIR puts under tmp_path
    src = str(Path(facetproc.__file__).resolve().parents[1])
    outputs = []
    for run in ("first", "second"):
        tmp = tmp_path / run
        tmp.mkdir()
        env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        outputs.append(subprocess.run(
            [sys.executable, str(demo)], env=env, check=True,
            capture_output=True).stdout)
    assert outputs[0] == outputs[1]
