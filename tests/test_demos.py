"""Every script under demos/ runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import citegrow

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the child imports the same citegrow sources as this process
    src = str(Path(citegrow.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=demo.parent)
    assert proc.returncode == 0, proc.stderr
