"""The demos that README.md lists run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import poolmax

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(poolmax.__file__).resolve().parents[1])
DEMOS = re.findall(r"^python3 (demos/\S+\.py)", (ROOT / "README.md").read_text(), re.M)


def test_readme_lists_every_demo():
    assert sorted(DEMOS) == sorted(f"demos/{f.name}" for f in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    """Each demo in a fresh interpreter that imports poolmax from the tested tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, demo], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
