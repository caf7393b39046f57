"""The demos that README.md lists, and its python blocks, run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import poolmax

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(poolmax.__file__).resolve().parents[1])
README = (ROOT / "README.md").read_text()
DEMOS = re.findall(r"^python3 (demos/\S+\.py)", README, re.M)
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_readme_lists_every_demo():
    assert sorted(DEMOS) == sorted(f"demos/{f.name}" for f in (ROOT / "demos").glob("*.py"))


def _run(args):
    """`args` in a fresh interpreter that imports poolmax from the tested tree."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    _run([demo])


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_exits_0(block):
    _run(["-c", BLOCKS[block]])
