"""A bad argument raises before any work, with one class and message per check.

The expensive layers (pooling, studentizing, the bootstrap weights, the data
generator and the GARCH fit) are patched to fail, so a check that ran only
after one of them would surface as an AssertionError.
"""

import numpy as np
import pytest

from poolmax import RngSpec, backtest, core, pooltest, riskmodels, simlab
from poolmax.backtest import (
    comparative_test,
    exceedance_matrix,
    full_backtest,
    score,
    score_diff_matrix,
    validation_test,
)
from poolmax.core import substream_normals
from poolmax.errors import PoolmaxError
from poolmax.pooltest import (
    BootstrapConfig,
    bootstrap_quantile,
    marginal_test,
    naive_test,
    pool_test,
)
from poolmax.riskmodels import VarMethod, forecast_var, rolling_forecasts
from poolmax.simlab import DgpSpec, mu_profile, run_sweep, theta_profile
from poolmax.subsets import build_family

U = np.random.default_rng(0).standard_normal((40, 7))
R = np.full((40, 7), 1.5)
R_STAR = np.full((40, 7), 1.6)
FAM = build_family(7, 3, 14, RngSpec(1))
CFG = BootstrapConfig(rng=RngSpec(2), replicates=20)
SPEC = DgpSpec("A1", n=50, p=7, p0=1, under_null=True, rng=RngSpec(3))
SERIES = np.random.default_rng(4).standard_normal(700)
WINDOW = SERIES[:500]

ALPHA = (ValueError, "alpha must lie in (0, 1)")
THETA0 = (PoolmaxError, "theta0 must lie in (0, 1)")
THETA = (ValueError, "theta must lie in (0, 1)")
EVT_K = (PoolmaxError, "need 10 <= k < m, got k=500, m=500")
EVT_K_SMALL = (PoolmaxError, "need 10 <= k < m, got k=5, m=500")
P0 = (PoolmaxError, "need p0 >= 0, got p0=-1")
NOT_INT = (TypeError, "'float' object cannot be interpreted as an integer")
KINDS = ("empirical", "skew-t", "evt")

CASES = {
    "naive_test-alpha": (lambda: naive_test(U, 1.5), ALPHA),
    "bootstrap_quantile-alpha": (lambda: bootstrap_quantile(np.ones(5), 0.0), ALPHA),
    "pool_test-alpha": (lambda: pool_test(U, FAM, 1.5, CFG), ALPHA),
    "marginal_test-alpha": (lambda: marginal_test(U, 1.5, CFG), ALPHA),
    "validation_test-alpha": (lambda: validation_test(U, R, 0.05, FAM, 1.5, CFG), ALPHA),
    "comparative_test-alpha": (lambda: comparative_test(U, R, R_STAR, 0.05, FAM, 1.5, CFG),
                               ALPHA),
    "full_backtest-alpha": (lambda: full_backtest(U, {"a": R}, 0.05, FAM, 1.5, CFG), ALPHA),
    "run_sweep-alpha": (lambda: run_sweep(SPEC, [3], [14], alpha=1.5, B=20, mc_reps=2), ALPHA),
    "exceedance_matrix-theta0": (lambda: exceedance_matrix(U, R, 1.5), THETA0),
    "validation_test-theta0": (lambda: validation_test(U, R, 1.5, FAM, 0.05, CFG), THETA0),
    "score-theta0": (lambda: score(R, U, 1.5), THETA0),
    "score_diff_matrix-theta0": (lambda: score_diff_matrix(U, R, R_STAR, 1.5), THETA0),
    "comparative_test-theta0": (lambda: comparative_test(U, R, R_STAR, 1.5, FAM, 0.05, CFG),
                                THETA0),
    "comparative_test-one-sided-theta0": (
        lambda: comparative_test(U, R, R_STAR, 0.0, FAM, 0.05, CFG, one_sided=True), THETA0),
    "full_backtest-theta0": (lambda: full_backtest(U, {"a": R, "b": R_STAR}, 1.5, FAM, 0.05,
                                                   CFG), THETA0),
    **{f"forecast_var-theta-{kind}": (
        lambda kind=kind: forecast_var(WINDOW, VarMethod(kind), 1.5), THETA) for kind in KINDS},
    **{f"rolling_forecasts-theta-{kind}": (
        lambda kind=kind: rolling_forecasts(SERIES, 500, 200, VarMethod(kind), 1.5), THETA)
       for kind in KINDS},
    "forecast_var-evt-k": (lambda: forecast_var(WINDOW, VarMethod("evt", k=500), 0.01), EVT_K),
    "rolling_forecasts-evt-k": (
        lambda: rolling_forecasts(SERIES, 500, 200, VarMethod("evt", k=500), 0.01), EVT_K),
    "forecast_var-evt-k-below-10": (
        lambda: forecast_var(WINDOW, VarMethod("evt", k=5), 0.01), EVT_K_SMALL),
    "rolling_forecasts-evt-k-below-10": (
        lambda: rolling_forecasts(SERIES, 500, 200, VarMethod("evt", k=5), 0.01), EVT_K_SMALL),
    "rolling_forecasts-empirical-window": (
        lambda: rolling_forecasts(SERIES, 500, 200, VarMethod("empirical"), 0.001),
        (PoolmaxError, "need at least 1000 points")),
    "DgpSpec-p0": (lambda: DgpSpec("A1", n=50, p=10, p0=-1, under_null=False,
                                    rng=RngSpec(0)), P0),
    "DgpSpec-p0-fraction": (lambda: DgpSpec("A1", n=50, p=10, p0=1.5, under_null=False,
                                             rng=RngSpec(0)), NOT_INT),
    "DgpSpec-n": (lambda: DgpSpec("A1", n=1, p=10, p0=1, under_null=False, rng=RngSpec(0)),
                  (PoolmaxError, "need at least 2 observations, got 1")),
    "DgpSpec-p": (lambda: DgpSpec("B1", n=50, p=0, p0=0, under_null=True, rng=RngSpec(0)),
                  (ValueError, "p must be positive")),
    "theta_profile-p0": (lambda: theta_profile(10, -1, False), P0),
    "mu_profile-p0": (lambda: mu_profile(10, -1, False), P0),
    "run_sweep-mc_reps": (lambda: run_sweep(SPEC, [3], [14], B=20, mc_reps=-1),
                          (ValueError, "mc_reps must be >= 0")),
    "BootstrapConfig-replicates": (lambda: BootstrapConfig(rng=RngSpec(0), replicates=2.5),
                                   NOT_INT),
    # ids of two 32-bit widths, whose bisection by width needs increasing ids
    "substream_normals-decreasing-rows": (
        lambda: substream_normals(RngSpec(3), range(92_700, 92_660, -1), 3),
        (ValueError, "rows must be an increasing range, got range(92700, 92660, -1)")),
    "substream_normals-decreasing-rows-one-width": (
        lambda: substream_normals(RngSpec(3), range(5, 0, -1), 3),
        (ValueError, "rows must be an increasing range, got range(5, 0, -1)")),
}


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the arguments were checked")

    for module, names in [
        (core, ["_philox_keys"]),
        (pooltest, ["pooled_panel", "_studentized", "substream_normals"]),
        (backtest, ["pooled_panel", "substream_normals"]),
        (simlab, ["pooled_panel", "_studentized", "generate_panel"]),
        (riskmodels, ["garch_fit"]),
    ]:
        for name in names:
            monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("case", list(CASES))
def test_bad_argument_raises_before_any_work(case, no_work):
    call, (cls, message) = CASES[case]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message
