"""Every script under demos/ and the README's library quickstart run to
completion in a fresh interpreter, and every public name resolves."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import citegrow

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(args, cwd):
    # the child imports the same citegrow sources as this process
    src = str(Path(citegrow.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    run_fresh([str(demo)], demo.parent)


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n.*?```python\n(.*?)```", readme, re.S)
    assert block, "README has no python block under 'Library quickstart'"
    run_fresh(["-c", block.group(1)], ROOT)


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from citegrow import *", namespace)
    assert set(citegrow.__all__) <= namespace.keys()
    for info in pkgutil.iter_modules(citegrow.__path__):
        module = importlib.import_module(f"citegrow.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"citegrow.{info.name}.__all__ names missing {missing}"
