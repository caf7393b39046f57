"""A bad argument raises before any work, with one class and message per check:
`PoolmaxError` (a `ValueError`) for a value out of its range, `TypeError`
for a count that is not an integer.

The expensive layers (pooling, studentizing, the bootstrap weights, the data
generator, the GARCH fit, its optimizer and volatility filter, the GPD fit) are
patched to fail, so a check that ran only after one of them would surface as an
AssertionError.

A level that passes its check is used as the Python float the check returns.
"""

from dataclasses import replace

import numpy as np
import pytest

from poolmax import RngSpec, core, pooltest, riskmodels, simlab
from poolmax.backtest import (
    comparative_test,
    exceedance_matrix,
    full_backtest,
    score,
    score_diff_matrix,
    tail_dependence,
    validation_test,
)
from poolmax.core import substream, substream_normals
from poolmax.errors import DegenerateVarianceError, NonFiniteError, PoolmaxError
from poolmax.pooltest import (
    BootstrapConfig,
    bootstrap_quantile,
    marginal_test,
    naive_test,
    pool_test,
)
from poolmax.riskmodels import (
    GarchParams,
    VarMethod,
    empirical_var,
    evt_var,
    forecast_var,
    garch_filter,
    garch_fit,
    garch_simulate,
    gpd_tail_fit,
    rolling_forecasts,
)
from poolmax.simlab import DgpSpec, run_sweep, sigma1, sigma2
from poolmax.subsets import build_family, random_extension

U = np.random.default_rng(0).standard_normal((40, 7))
R = np.full((40, 7), 1.5)
R_STAR = np.full((40, 7), 1.6)
FAM = build_family(7, 3, 14, RngSpec(1))
CFG = BootstrapConfig(rng=RngSpec(2), replicates=20)
SPEC = DgpSpec("A1", n=50, p=7, p0=1, under_null=True, rng=RngSpec(3))
SERIES = np.random.default_rng(4).standard_normal(700)
WINDOW = SERIES[:500]
GARCH = GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85)

ALPHA = (PoolmaxError, "alpha must lie in (0, 1)")
THETA0 = (PoolmaxError, "theta0 must lie in (0, 1)")
THETA = (PoolmaxError, "theta must lie in (0, 1)")
EVT_K = (PoolmaxError, "need 10 <= k < m, got k=500, m=500")
EVT_K_SMALL = (PoolmaxError, "need 10 <= k < m, got k=5, m=500")
P0 = (PoolmaxError, "need p0 >= 0, got p0=-1")
NOT_INT = (TypeError, "'float' object cannot be interpreted as an integer")
KINDS = ("empirical", "skew-t", "evt")


def _with(value, at=3):
    """SERIES with `value` on day `at`."""
    x = SERIES.copy()
    x[at] = value
    return x


# Each entry point that takes a loss series, residual, shock or excess array,
# with the name its messages give the array and the points it needs
SERIES_CALLS = {
    "garch_filter": (lambda x: garch_filter(x, GARCH), "series", 1),
    "garch_fit": (garch_fit, "series", 300),
    # no shocks give an empty path
    "garch_simulate": (lambda x: garch_simulate(GARCH, x), "shocks", 0),
    "forecast_var": (lambda x: forecast_var(x, VarMethod("skew-t"), 0.01), "window", 1),
    "rolling_forecasts": (lambda x: rolling_forecasts(x, 500, 200, VarMethod("skew-t"), 0.01),
                          "series", 700),
    "empirical_var": (lambda x: empirical_var(x, 0.01), "residuals", 1),
    "evt_var": (lambda x: evt_var(x, 0.01), "residuals", 1),
    "gpd_tail_fit": (gpd_tail_fit, "excesses", 1),
}

CASES = {
    "naive_test-alpha": (lambda: naive_test(U, 1.5), ALPHA),
    "bootstrap_quantile-alpha": (lambda: bootstrap_quantile(np.ones(5), 0.0), ALPHA),
    "pool_test-alpha": (lambda: pool_test(U, FAM, 1.5, CFG), ALPHA),
    "pool_test-one-sided-alpha": (lambda: pool_test(U, FAM, 1.5, CFG, one_sided=True), ALPHA),
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
    "VarMethod-k-fraction": (lambda: VarMethod("evt", k=50.5), NOT_INT),
    "evt_var-k-fraction": (lambda: evt_var(WINDOW, 0.01, 50.5), NOT_INT),
    "rolling_forecasts-window-fraction": (
        lambda: rolling_forecasts(SERIES, 500.5, 6, VarMethod("empirical"), 0.01), NOT_INT),
    "rolling_forecasts-horizon-fraction": (
        lambda: rolling_forecasts(SERIES, 500, 6.5, VarMethod("empirical"), 0.01), NOT_INT),
    # would refit on days 0 and 3 only
    "rolling_forecasts-refit_every-fraction": (
        lambda: rolling_forecasts(SERIES, 500, 6, VarMethod("empirical"), 0.01, refit_every=1.5),
        NOT_INT),
    "rolling_forecasts-empirical-window": (
        lambda: rolling_forecasts(SERIES, 500, 200, VarMethod("empirical"), 0.001),
        (PoolmaxError, "need at least 1000 points")),
    "DgpSpec-p0": (lambda: DgpSpec("A1", n=50, p=10, p0=-1, under_null=False,
                                    rng=RngSpec(0)), P0),
    "DgpSpec-2p0": (lambda: DgpSpec("B1", n=50, p=10, p0=6, under_null=False,
                                     rng=RngSpec(0)),
                    (PoolmaxError, "need 2*p0 <= p, got p0=6, p=10")),
    "DgpSpec-p0-fraction": (lambda: DgpSpec("A1", n=50, p=10, p0=1.5, under_null=False,
                                             rng=RngSpec(0)), NOT_INT),
    "DgpSpec-n": (lambda: DgpSpec("A1", n=1, p=10, p0=1, under_null=False, rng=RngSpec(0)),
                  (PoolmaxError, "need at least 2 observations, got 1")),
    "DgpSpec-p": (lambda: DgpSpec("B1", n=50, p=0, p0=0, under_null=True, rng=RngSpec(0)),
                  (PoolmaxError, "p must be >= 1")),
    "run_sweep-mc_reps": (lambda: run_sweep(SPEC, [3], [14], B=20, mc_reps=-1),
                          (PoolmaxError, "mc_reps must be >= 0")),
    "BootstrapConfig-replicates": (lambda: BootstrapConfig(rng=RngSpec(0), replicates=2.5),
                                   NOT_INT),
    # ids of two 32-bit widths, whose bisection by width needs increasing ids
    "substream_normals-decreasing-rows": (
        lambda: substream_normals(RngSpec(3), range(92_700, 92_660, -1), 3),
        (PoolmaxError, "rows must be an increasing range, got range(92700, 92660, -1)")),
    "substream_normals-decreasing-rows-one-width": (
        lambda: substream_normals(RngSpec(3), range(5, 0, -1), 3),
        (PoolmaxError, "rows must be an increasing range, got range(5, 0, -1)")),
    "BootstrapConfig-replicates-0": (lambda: BootstrapConfig(rng=RngSpec(0), replicates=0),
                                     (PoolmaxError, "replicates must be >= 1")),
    "RngSpec-seed": (lambda: RngSpec(-1), (PoolmaxError, "seed must be >= 0")),
    "RngSpec-stream_id": (lambda: RngSpec(0, -1), (PoolmaxError, "stream_id must be >= 0")),
    "substream-index": (lambda: substream(RngSpec(0), -1),
                        (PoolmaxError, "substream index must be >= 0")),
    "rolling_forecasts-horizon": (
        lambda: rolling_forecasts(SERIES, 500, -1, VarMethod("skew-t"), 0.01),
        (PoolmaxError, "horizon must be >= 0")),
    "substream_normals-n": (lambda: substream_normals(RngSpec(3), range(4), -1),
                            (PoolmaxError, "n must be >= 0")),
    "rolling_forecasts-refit_every": (
        lambda: rolling_forecasts(SERIES, 500, 6, VarMethod("empirical"), 0.01, refit_every=0),
        (PoolmaxError, "refit_every must be >= 1")),
    **{f"rolling_forecasts-window-{window}": (
        lambda window=window: rolling_forecasts(SERIES, window, 200, VarMethod("skew-t"), 0.01),
        (PoolmaxError, "window must be >= 300")) for window in (-1, 0, 299)},
    **{f"{entry}-{case}": (lambda call=call, bad=bad: call(bad), error)
       for entry, (call, name, minimum) in SERIES_CALLS.items()
       for case, bad, error in [
           ("nan", _with(np.nan), (NonFiniteError, "non-finite entry at (3, 0)")),
           ("inf", _with(-np.inf, at=0), (NonFiniteError, "non-finite entry at (0, 0)")),
           ("2d", SERIES.reshape(350, 2), (PoolmaxError, f"expected 1-d {name}, got ndim=2")),
           ("short", SERIES[:minimum - 1],
            (PoolmaxError, f"need at least {minimum} observations, got {minimum - 1}")),
       ] if minimum or case != "short"},
    "garch_simulate-0d": (lambda: garch_simulate(GARCH, 1.0),
                          (PoolmaxError, "expected 1-d shocks, got ndim=0")),
    **{f"garch_filter-sig2_init-{value}": (
        lambda value=value: garch_filter(SERIES, GARCH, sig2_init=value),
        (PoolmaxError, "sig2_init must lie in (0, inf)")) for value in (-1.0, 0.0, np.inf, np.nan)},
    "tail_dependence-u": (lambda: tail_dependence(U, 0.5),
                          (PoolmaxError, "u must lie in (0, 0.5)")),
    "DgpSpec-alpha_n": (lambda: DgpSpec("B1", n=50, p=10, p0=1, under_null=True, rng=RngSpec(0),
                                        alpha_n=0.5),
                        (PoolmaxError, "alpha_n must lie in (0, 0.5)")),
    "DgpSpec-model": (lambda: DgpSpec("C1", n=50, p=10, p0=1, under_null=True, rng=RngSpec(0)),
                      (PoolmaxError, "model must be one of ('A1', 'A2', 'B1', 'B2')")),
    "sigma1-p": (lambda: sigma1(0), (PoolmaxError, "p must be >= 1")),
    "sigma2-p": (lambda: sigma2(0), (PoolmaxError, "p must be >= 1")),
    "random_extension-count": (lambda: random_extension(7, 3, -1, RngSpec(0)),
                               (PoolmaxError, "count must be >= 0")),
    "random_extension-count-fraction": (lambda: random_extension(7, 3, 1.5, RngSpec(0)),
                                        NOT_INT),
    "bootstrap_quantile-no-draws": (lambda: bootstrap_quantile(np.array([]), 0.05),
                                    (PoolmaxError, "no bootstrap draws")),
    "bootstrap_quantile-nan": (lambda: bootstrap_quantile([np.nan, 1.0, 2.0], 0.05),
                               (NonFiniteError, "non-finite entry at (0, 0)")),
    "bootstrap_quantile-inf": (lambda: bootstrap_quantile([1.0, 2.0, np.inf], 0.05),
                               (NonFiniteError, "non-finite entry at (2, 0)")),
    "gpd_tail_fit-negative": (lambda: gpd_tail_fit([-1.0, 1.0]),
                              (PoolmaxError, "excesses must be non-negative")),
    "GarchParams-b0": (lambda: GarchParams(0, 0, 0, 0, 0),
                       (PoolmaxError, "need b0 > 0, b1 >= 0, b2 >= 0")),
    **{f"GarchParams-{name}-{value}": (
        lambda name=name, value=value: replace(GARCH, **{name: value}),
        (PoolmaxError, "need finite parameters"))
       for name, value in [("a0", np.nan), ("a0", np.inf), ("b0", np.inf), ("nu", np.inf),
                           ("gamma", -np.inf)]},
    "GarchParams-nu": (lambda: replace(GARCH, nu=1.5), (PoolmaxError, "need nu > 2, got 1.5")),
    "GarchParams-gamma": (lambda: replace(GARCH, gamma=-1),
                          (PoolmaxError, "need gamma > 0, got -1")),
    # the window is checked before it is filtered with the given parameters
    "forecast_var-params-constant-window": (
        lambda: forecast_var(np.full(500, 0.5), VarMethod("skew-t"), 0.01, GARCH),
        (DegenerateVarianceError, "constant series")),
    "VarMethod-kind": (lambda: VarMethod("bogus"), (PoolmaxError, "unknown VaR method 'bogus'")),
}


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the arguments were checked")

    for module, names in [
        (core, ["_philox_keys"]),
        (pooltest, ["pooled_panel", "_studentized", "substream_normals"]),
        (simlab, ["pooled_panel", "_studentized", "generate_panel"]),
        (riskmodels, ["garch_fit", "minimize", "_one_pole", "_profile_mle"]),
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


# Each entry point that takes a level, called at that level.  A level is used
# as the Python float its check returns, so an np.float32 one computes as its
# float64 value; in float32 arithmetic (1 - theta) m, k / (m theta) or
# 1 - theta would round differently.
RESIDUALS = np.random.default_rng(0).standard_normal(1000)
LEVEL_CALLS = {
    "empirical_var": lambda v: empirical_var(RESIDUALS, v),
    "evt_var": lambda v: evt_var(RESIDUALS, v),
    **{f"forecast_var-{kind}": (
        lambda v, kind=kind: forecast_var(WINDOW, VarMethod(kind), v, GARCH)) for kind in KINDS},
    "rolling_forecasts": lambda v: rolling_forecasts(SERIES, 500, 2, VarMethod("evt"), v,
                                                     refit_every=2),
    "generate_panel-B1": lambda v: simlab.generate_panel(
        DgpSpec("B1", n=50, p=10, p0=1, under_null=False, rng=RngSpec(0), alpha_n=v),
        RngSpec(5)),
    "exceedance_matrix": lambda v: exceedance_matrix(U, R, v),
    "score": lambda v: score(R, U, v),
    "tail_dependence": lambda v: tail_dependence(RESIDUALS.reshape(200, 5), v),
}


@pytest.mark.parametrize("case", list(LEVEL_CALLS))
@pytest.mark.parametrize("level", [0.01, 0.02, 0.1])
def test_float32_level_is_used_as_its_float64_value(case, level):
    call = LEVEL_CALLS[case]
    got, want = np.asarray(call(np.float32(level))), np.asarray(call(float(np.float32(level))))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
