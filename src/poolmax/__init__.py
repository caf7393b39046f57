"""poolmax: high-dimensional mean tests via subsets-based data pooling,
with multiplier-bootstrap calibration, a Monte Carlo lab, and VaR
backtesting on GARCH-filtered loss panels.

The public names load lazily (PEP 562): ``import poolmax`` imports no
submodule, and the first access to a name imports the submodule that
defines it.  So a command that never touches the GARCH, Monte Carlo or
backtest layers never pays for them or for the scipy modules they use.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "backtest": (
        "BacktestReport",
        "comparative_test",
        "exceedance_matrix",
        "full_backtest",
        "score",
        "score_diff_matrix",
        "tail_dependence",
        "validation_test",
    ),
    "core": ("RngSpec", "TestResult", "substream", "validate_matrix"),
    "pooltest": (
        "BootstrapConfig",
        "PooledPanel",
        "bootstrap_quantile",
        "marginal_test",
        "max_statistic",
        "multiplier_bootstrap",
        "naive_test",
        "pool_test",
        "pooled_panel",
    ),
    "riskmodels": (
        "GarchFit",
        "GarchParams",
        "VarMethod",
        "empirical_var",
        "evt_var",
        "forecast_var",
        "garch_filter",
        "garch_fit",
        "rolling_forecasts",
    ),
    "simlab": ("DgpSpec", "SweepResult", "generate_panel", "run_sweep", "sigma1", "sigma2"),
    "sstd": ("sstd_cdf", "sstd_logpdf", "sstd_pdf", "sstd_quantile"),
    "subsets": (
        "SubsetFamily",
        "build_family",
        "random_extension",
        "verify_identifiability",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
