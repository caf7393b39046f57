"""Rolling VaR forecasts and a cross-asset validation/comparative backtest.

Simulates a handful of AR(1)-GARCH(1,1) loss series with the library's
own simulator, `garch_simulate` (Gaussian shocks, a 300-day burn-in sliced
off each), produces daily one-step VaR forecasts with the empirical and
tail-extrapolation methods, then runs the pooled backtest: a validation
test per method plus one-sided pairwise comparisons.  A 5% target with a
short horizon keeps the run quick while still producing enough
exceedances to test.
"""

import numpy as np

from poolmax import (
    BootstrapConfig,
    GarchParams,
    RngSpec,
    VarMethod,
    build_family,
    full_backtest,
    garch_simulate,
    rolling_forecasts,
    tail_dependence,
)


def main():
    gen = RngSpec(seed=99).generator()
    n_assets, window, horizon = 5, 400, 80
    theta = 0.05

    params = GarchParams(a0=0.0, a1=0.05, b0=0.05, b1=0.08, b2=0.88)
    losses = np.column_stack(
        [garch_simulate(params, gen.standard_normal(window + horizon + 300))[300:]
         for _ in range(n_assets)]
    )

    methods = {
        "empirical": VarMethod("empirical"),
        "evt": VarMethod("evt", k=40),
    }
    forecasts = {
        name: np.column_stack(
            [
                rolling_forecasts(
                    losses[:, j], window, horizon, vm, theta, refit_every=20
                )
                for j in range(n_assets)
            ]
        )
        for name, vm in methods.items()
    }

    realized = losses[-horizon:]
    fam = build_family(n_assets, 2, 2 * n_assets, RngSpec(99, 1))
    cfg = BootstrapConfig(rng=RngSpec(99, 2), replicates=500)
    report = full_backtest(realized, forecasts, theta, fam, 0.05, cfg)

    print(f"{n_assets} assets, horizon={horizon} days, theta={theta}")
    for name in report.method_names:
        res = report.validation[name]
        if res is None:
            print(f"  validation {name}: degenerate (no exceedance variation)")
        else:
            print(f"  validation {name}: p={res.p_value:.3f} reject={res.reject}")
    for (row, col), res in report.comparative.items():
        if res is not None:
            print(f"  '{col}' better than '{row}'? p={res.p_value:.3f}")

    lam = tail_dependence(realized, u=0.1)
    off = lam[~np.eye(n_assets, dtype=bool)]
    print(f"  mean off-diagonal tail dependence at u=0.1: {off.mean():.3f}")


if __name__ == "__main__":
    main()
