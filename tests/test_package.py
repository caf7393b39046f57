"""The lazy package namespace, which commands load scipy, which classes the
library raises, and that it uses every level its check returns."""

import ast
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


# The scipy.special package (with its array-API layer) that the normal and
# Student-t ufuncs are loaded without, and scipy.stats.
UNLOADED = ("scipy.special", "scipy._lib._array_api", "scipy.stats")


def unloaded(modules):
    return [m for m in modules if m.startswith(UNLOADED)]


def test_naive_test_loads_scipy(panels):
    """Scipy's compiled normal ufuncs, without the scipy.special package."""
    res = fresh_run(["naive-test", "--in", panels["x"], "--out", panels["out"]])
    assert res["codes"] == [0]
    assert "scipy" in res["scipy"]
    assert unloaded(res["scipy"]) == []


def test_simulate_loads_no_scipy_stats(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "model": "B1", "n": 60, "p": 9, "p0": 2, "under_null": True, "seed": 3,
        "q_grid": [2], "d_grid": [18], "alpha": 0.1, "B": 20, "mc_reps": 2,
    }))
    res = fresh_run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    assert res["codes"] == [0]
    assert unloaded(res["scipy"]) == []


# Imports the modules named in argv in a fresh interpreter; prints the scipy
# modules registered afterwards and whether scipy's namespace holds "special".
IMPORT_CHILD = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
import scipy
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.startswith("scipy.")),
                  "special": "special" in vars(scipy)}))
"""


def test_sstd_loads_no_scipy_stats():
    """Nor does any layer that takes scipy.special's ufuncs run that package,
    or leave a module of it registered."""
    for module in ("poolmax.sstd", "poolmax.simlab", "poolmax.riskmodels"):
        res = json.loads(fresh_python("-c", IMPORT_CHILD, module).splitlines()[-1])
        assert res["scipy"] and unloaded(res["scipy"]) == [], module
        assert not [m for m in res["scipy"]
                    if m.startswith(("scipy.signal", "scipy.optimize"))], module
        assert res["special"] is False, module


# Imports the skew-t and GARCH layers, then the three scipy packages whose
# compiled modules they loaded without them, in a fresh interpreter; prints
# which of those modules each package holds as an attribute, and whether
# the packages' routines are the very objects the layers call.
PACKAGES_AFTER_CHILD = """
import json
import poolmax.sstd, poolmax.riskmodels
import scipy.optimize, scipy.signal, scipy.special, scipy.stats
from poolmax import riskmodels, sstd
special = ("_special_ufuncs", "_ufuncs_cxx", "_ellip_harm_2", "_gufuncs", "_ufuncs")
held = [f"special.{n}" for n in special if hasattr(scipy.special, n)]
held += [f"optimize.{n}" for n in ("_lbfgsb", "_zeros") if hasattr(scipy.optimize, n)]
held += ["signal._sigtools"] if hasattr(scipy.signal, "_sigtools") else []
print(json.dumps({"held": held, "same": [
    all(getattr(scipy.special, n) is getattr(sstd, n)
        for n in ("gammaln", "poch", "stdtr", "stdtrit")),
    scipy.optimize._lbfgsb.setulb is riskmodels._lbfgsb.setulb,
    scipy.optimize._zeros._brentq is riskmodels._brentq,
    scipy.signal._sigtools._linear_filter is riskmodels._linear_filter,
    bool(scipy.stats.t.ppf(0.99, 5) == sstd.stdtrit(5, 0.99))]}))
"""


def test_packages_imported_afterwards_hold_the_loaded_modules():
    """The loader leaves no module of a package it did not run registered,
    so the package, imported later, loads them its usual way and holds each
    as its attribute: the compiled modules are the ones the layers call."""
    res = json.loads(fresh_python("-c", PACKAGES_AFTER_CHILD).splitlines()[-1])
    assert res["held"] == ["special._special_ufuncs", "special._ufuncs_cxx",
                           "special._ellip_harm_2", "special._gufuncs", "special._ufuncs",
                           "optimize._lbfgsb", "optimize._zeros", "signal._sigtools"]
    assert res["same"] == [True] * 5


def test_loader_takes_the_imported_packages_own_modules():
    """Where the package is imported before poolmax, the loader does not
    hold its name: the layers take the package's own compiled modules."""
    out = fresh_python("-c", """
import sys
import scipy.special
from poolmax import core, simlab, sstd
ufuncs = sys.modules["scipy.special._ufuncs"]
print(core._extension("scipy.special._ufuncs") is ufuncs, sstd._ufuncs is ufuncs,
      simlab.ndtri is scipy.special.ndtri, sys.modules["scipy.special"] is scipy.special)
""")
    assert out.split() == ["True"] * 4


def test_missing_module_leaves_no_holder():
    """A name scipy lacks raises the loader's ImportError, and the bare
    module that held the package's name goes with the failed load."""
    out = fresh_python("-c", """
import json, os, sys
import scipy
from poolmax.core import _extension
name = "scipy.signal._no_such_filter"
try:
    _extension(name)
except ImportError as exc:
    message = str(exc)
directory = os.path.join(os.path.dirname(scipy.__file__), "signal")
print(json.dumps([message == f"no compiled {name} in {directory!r} (scipy {scipy.__version__})",
                  [m for m in sys.modules if m.startswith("scipy.signal")],
                  "signal" in vars(scipy)]))
""")
    assert json.loads(out.splitlines()[-1]) == [True, [], False]


# Horizon-1 rolling forecasts by the skew-t and the EVT method (the one
# caller of the root finder) in a fresh interpreter; prints the scipy.signal,
# scipy.stats, scipy.optimize and scipy.special modules left registered, then whether
# scipy.signal and scipy.optimize, imported after them, filter and fit with
# the bytes of the GARCH layer's one-pole filter and L-BFGS-B driver.
FORECAST_CHILD = """
import json, sys
import numpy as np
from poolmax import riskmodels
from poolmax.riskmodels import GarchParams, VarMethod, garch_simulate, rolling_forecasts
calls = []
driver = riskmodels.minimize
def recording_minimize(*args, **kwargs):
    calls.append((args, kwargs))
    return driver(*args, **kwargs)
riskmodels.minimize = recording_minimize
shocks = np.random.default_rng(0).standard_normal(301)
u = garch_simulate(GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85), shocks)
for kind in ("skew-t", "evt"):
    rolling_forecasts(u, 300, 1, VarMethod(kind), 0.01)
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy.signal", "scipy.stats", "scipy.optimize",
                                 "scipy.special")))
from scipy.optimize import minimize
from scipy.signal import lfilter
gen = np.random.default_rng(1)
x, zi = gen.exponential(size=(3, 50)), gen.exponential(size=(3, 1))
same_filter = (riskmodels._one_pole(0.9, x, zi).tobytes()
               == lfilter([1.0], [1.0, -0.9], x, zi=zi)[0].tobytes())
(fun, x0), kw = calls[0]
got = driver(fun, x0, **kw)
want = minimize(fun, x0, args=kw["args"], jac=True, method="L-BFGS-B", bounds=kw["bounds"],
                options={"maxiter": kw["maxiter"], "maxfun": kw["maxfun"]})
same_fit = (got.x.tobytes() == want.x.tobytes()
            and np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
            and (got.nit, got.success) == (want.nit, want.success))
print(json.dumps({"loaded": loaded, "fits": len(calls), "same_filter": same_filter,
                  "same_fit": same_fit}))
"""


def test_garch_layer_loads_no_scipy_signal_or_stats():
    """Nor does it run any module of scipy.optimize or scipy.special: the
    GARCH layer loads the compiled kernels alone, leaves none of them
    registered, and keeps the bytes of the packages' own routines."""
    res = json.loads(fresh_python("-c", FORECAST_CHILD).splitlines()[-1])
    assert res["loaded"] == []
    assert res["fits"] == 2
    assert res["same_filter"] is True and res["same_fit"] is True


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


def test_library_raises_only_its_own_classes_and_three_builtins():
    """A bad value raises a poolmax.errors class (a ValueError), never a bare
    ValueError.  cli.py is left out: its `_whole` raises a ValueError that
    `_checked` turns into an argparse error.  The one other raise is the
    ImportError of core's loader when one of scipy's compiled modules is missing."""
    allowed = {"PoolmaxError", "SubsetDesignError", "DegenerateVarianceError",
               "NonFiniteError", "TypeError", "AttributeError", "KeyError"}
    named = {}
    for path in sorted(Path(poolmax.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                named[f"{path.name}:{node.lineno}"] = getattr(exc, "id", None) or ast.unparse(node)
    assert named
    assert [(at.split(":")[0], name) for at, name in named.items()
            if name not in allowed] == [("core.py", "ImportError")]


def test_library_uses_the_level_its_check_returns():
    """`_check_level` and `_check_theta` return the level as a Python float;
    a call whose value is dropped leaves the caller computing with the raw
    level, in float32 arithmetic for an np.float32 one."""
    checks = {"_check_level", "_check_theta"}
    calls, dropped = 0, []
    for path in sorted(Path(poolmax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in checks:
                calls += 1
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) in checks):
                dropped.append(f"{path.name}:{node.lineno}")
    assert calls
    assert dropped == []
