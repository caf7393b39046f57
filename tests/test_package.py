"""The lazy package namespace, and which commands load scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poolmax

SRC = str(Path(poolmax.__file__).resolve().parents[1])

# Runs CLI commands in a fresh interpreter; prints their exit codes and the
# scipy modules loaded afterwards.
CHILD = """
import json, sys
import poolmax
import poolmax.cli
codes = [poolmax.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def fresh_python(*args):
    """Stdout of a fresh interpreter that imports poolmax from the tested tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


def fresh_run(*argvs):
    return json.loads(fresh_python("-c", CHILD, json.dumps(argvs)).splitlines()[-1])


def write_panel(path, x):
    header = ",".join(f"a{j}" for j in range(x.shape[1]))
    path.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in x) + "\n")
    return str(path)


@pytest.fixture
def panels(tmp_path):
    gen = np.random.default_rng(0)
    u = gen.standard_normal((80, 10))
    return {
        "x": write_panel(tmp_path / "x.csv", u),
        "r": write_panel(tmp_path / "r.csv", np.full_like(u, 1.5)),
        "out": str(tmp_path / "out"),
    }


def test_pool_marginal_backtest_subsets_load_no_scipy(panels):
    x, out = panels["x"], panels["out"]
    res = fresh_run(
        ["pool-test", "--in", x, "--q", "3", "--B", "20", "--out", out],
        ["marginal-test", "--in", x, "--B", "20", "--out", out],
        ["backtest", "--returns", x, "--forecast", f"f={panels['r']}", "--q", "3",
         "--B", "20", "--out", out],
        ["subsets-check", "--p", "10", "--q", "3", "--d", "12", "--out", out],
    )
    assert res == {"codes": [0, 0, 0, 0], "scipy": []}


def test_naive_test_loads_scipy(panels):
    res = fresh_run(["naive-test", "--in", panels["x"], "--out", panels["out"]])
    assert res["codes"] == [0]
    assert "scipy.stats" in res["scipy"]


def test_every_public_name_resolves_to_its_home():
    for name in poolmax.__all__:
        value = getattr(poolmax, name)
        assert value.__module__.startswith("poolmax."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_submodules_resolve_after_bare_import():
    out = fresh_python("-c", "import poolmax; "
                       "print(poolmax.core.substream_normals.__name__, poolmax.errors.__name__)")
    assert out.split() == ["substream_normals", "poolmax.errors"]


def test_generate_panel_is_exported():
    from poolmax.simlab import generate_panel

    assert poolmax.generate_panel is generate_panel


def test_dir_lists_all_public_names():
    assert set(poolmax.__all__) <= set(dir(poolmax))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from poolmax import *", namespace)
    for name in poolmax.__all__:
        assert namespace[name] is getattr(poolmax, name), name


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        poolmax.no_such_name
