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
# scipy modules, and which of the rational-arithmetic modules, loaded afterwards.
CHILD = """
import json, sys
import poolmax
import poolmax.cli
codes = [poolmax.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "rational": [m for m in ("fractions", "decimal") if m in sys.modules]}))
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
    assert res == {"codes": [0, 0, 0, 0], "scipy": [], "rational": []}


def test_taildep_loads_no_scipy(panels):
    res = fresh_run(["taildep", "--in", panels["x"], "--u", "0.05", "--out", panels["out"]])
    assert res == {"codes": [0], "scipy": [], "rational": []}


def test_naive_test_loads_scipy(panels):
    res = fresh_run(["naive-test", "--in", panels["x"], "--out", panels["out"]])
    assert res["codes"] == [0]
    assert "scipy.special" in res["scipy"]
    assert not [m for m in res["scipy"] if m.startswith("scipy.stats")]


def test_simulate_loads_no_scipy_stats(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "model": "B1", "n": 60, "p": 9, "p0": 2, "under_null": True, "seed": 3,
        "q_grid": [2], "d_grid": [18], "alpha": 0.1, "B": 20, "mc_reps": 2,
    }))
    res = fresh_run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    assert res["codes"] == [0]
    assert "scipy.special" in res["scipy"]
    assert not [m for m in res["scipy"] if m.startswith("scipy.stats")]


def test_sstd_loads_no_scipy_stats():
    out = fresh_python("-c", "import sys, poolmax.sstd; print(sorted("
                       "m for m in sys.modules if m.startswith('scipy.stats')))")
    assert out.split() == ["[]"]


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


def test_error_classes_are_the_documented_four():
    """Each class in poolmax.errors is one some caller tells apart from its
    base (see the module docstring); a new one must be added here on purpose."""
    from poolmax import errors

    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.PoolmaxError)}
    assert classes == {"PoolmaxError", "SubsetDesignError", "DegenerateVarianceError",
                       "NonFiniteError"}
