"""The demos that README.md lists, its python blocks and its sweep configs run
to completion."""

import json
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
CONFIGS = re.findall(r"^```json\n(.*?)^```$", README, re.M | re.S)
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


def test_readme_has_a_json_block():
    assert CONFIGS


@pytest.mark.parametrize("block", range(len(CONFIGS)))
def test_readme_json_block_is_a_sweep_config(block, tmp_path):
    """`poolmax simulate` runs the config and rates each of the three methods."""
    from poolmax.cli import run

    config, out = tmp_path / "sweep.json", tmp_path / "rates.json"
    config.write_text(CONFIGS[block])
    assert run(["simulate", "--config", str(config), "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert sorted(row["method"] for row in rows) == ["marginal", "naive", "subsets-pool"]
