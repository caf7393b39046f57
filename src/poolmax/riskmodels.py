"""AR(1)-GARCH(1,1) quasi-MLE with skew-t innovations and VaR estimators.

The loss recursion is

    u_t = mu_t + sigma_t * z_t
    mu_t = a0 + a1 * u_{t-1}
    sigma_t^2 = b0 + b1 * sigma_{t-1}^2 z_{t-1}^2 + b2 * sigma_{t-1}^2

with z_t i.i.d. mean 0 variance 1.  Since sigma_{t-1}^2 z_{t-1}^2 equals
the squared mean residual, the volatility recursion is linear in
sigma_t^2 and is evaluated with a one-pole filter, which keeps the
likelihood fast enough for daily refitting.

Residual-quantile estimators: empirical order statistic, fitted
standardized skew-t quantile, and a peaks-over-threshold GPD tail fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.stats import genpareto

from .core import RngSpec
from .errors import (
    DegenerateSeriesError,
    InsufficientHistoryError,
    NonConvergenceError,
    TooFewExceedancesError,
    TooFewObservationsError,
)
from .sstd import sstd_logpdf, sstd_quantile

__all__ = [
    "GarchParams",
    "GarchFit",
    "VarMethod",
    "garch_filter",
    "garch_fit",
    "empirical_var",
    "evt_var",
    "gpd_tail_fit",
    "residual_var",
    "forecast_var",
    "rolling_forecasts",
]

MIN_FIT_LENGTH = 300
_BIG = 1e12


@dataclass(frozen=True)
class GarchParams:
    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    nu: float = 8.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.b0 > 0 and self.b1 >= 0 and self.b2 >= 0):
            raise ValueError("need b0 > 0, b1 >= 0, b2 >= 0")
        if not self.b1 + self.b2 < 1:
            raise ValueError("need b1 + b2 < 1 (stationarity)")
        if not abs(self.a1) < 1:
            raise ValueError("need |a1| < 1")


@dataclass(frozen=True)
class GarchFit(GarchParams):
    loglik: float = float("nan")
    cond_mean: np.ndarray = field(default=None, repr=False)
    cond_vol: np.ndarray = field(default=None, repr=False)
    residuals: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class VarMethod:
    kind: str  # "empirical" | "skew-t" | "evt"
    k: int = 50

    def __post_init__(self):
        if self.kind not in ("empirical", "skew-t", "evt"):
            raise ValueError(f"unknown VaR method {self.kind!r}")
        if self.kind == "evt" and self.k < 10:
            raise ValueError("EVT needs at least 10 tail observations")


def garch_filter(
    series, params: GarchParams, sig2_init: Optional[float] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional means, volatilities and standardized residuals.

    The first step uses the unconditional moments (mean a0/(1-a1),
    variance b0/(1-b1-b2)) unless `sig2_init` overrides the variance.
    Reconstruction series = mean + vol * residual is exact.
    """
    u = np.asarray(series, dtype=np.float64)
    n = u.size
    mu = np.empty(n)
    mu[0] = params.a0 / (1.0 - params.a1)
    mu[1:] = params.a0 + params.a1 * u[:-1]
    eps = u - mu
    sig2 = np.empty(n)
    sig2[0] = params.b0 / (1.0 - params.b1 - params.b2) if sig2_init is None else sig2_init
    if n > 1:
        drive = params.b0 + params.b1 * eps[:-1] ** 2
        sig2[1:] = lfilter([1.0], [1.0, -params.b2], drive, zi=[params.b2 * sig2[0]])[0]
    vol = np.sqrt(sig2)
    return mu, vol, eps / vol


def _nll(theta, u, sig2_init):
    a0, a1, b0, b1, b2, nu, gamma = theta
    if b1 + b2 > 0.999 or b0 <= 0 or nu <= 2.05 or gamma <= 0:
        return _BIG
    try:
        params = GarchParams(a0, a1, b0, b1, b2, nu, gamma)
    except ValueError:
        return _BIG
    _, vol, z = garch_filter(u, params, sig2_init=sig2_init)
    ll = sstd_logpdf(z, nu, gamma) - np.log(vol)
    total = ll.sum()
    if not np.isfinite(total):
        return _BIG
    return -total


def garch_fit(
    series,
    init: Optional[GarchParams] = None,
    rng: Optional[RngSpec] = None,
    restarts: int = 5,
    max_iter: int = 500,
) -> GarchFit:
    """Joint quasi-MLE of the seven model parameters.

    Box-constrained L-BFGS-B; the volatility recursion starts at the
    sample variance during estimation.  On failure, up to `restarts`
    deterministic random restarts are attempted before raising
    NonConvergenceError.
    """
    u = np.asarray(series, dtype=np.float64)
    if u.size < MIN_FIT_LENGTH:
        raise TooFewObservationsError(
            f"need at least {MIN_FIT_LENGTH} observations, got {u.size}"
        )
    var = u.var()
    if var == 0.0:
        raise DegenerateSeriesError("constant series")
    scale = np.sqrt(var)
    bounds = [
        (-10 * scale, 10 * scale),  # a0
        (-0.995, 0.995),  # a1
        (1e-12 * var, 10 * var),  # b0
        (0.0, 0.998),  # b1
        (0.0, 0.998),  # b2
        (2.1, 100.0),  # nu
        (0.1, 10.0),  # gamma
    ]
    if init is None:
        init = GarchParams(
            a0=float(u.mean()), a1=0.0, b0=0.1 * var, b1=0.05, b2=0.85
        )
    starts = [
        np.array([init.a0, init.a1, init.b0, init.b1, init.b2, init.nu, init.gamma])
    ]
    gen = (rng or RngSpec(0)).generator()
    for _ in range(restarts):
        starts.append(
            np.array(
                [
                    u.mean() + scale * 0.1 * gen.standard_normal(),
                    gen.uniform(-0.3, 0.3),
                    var * gen.uniform(0.01, 0.5),
                    gen.uniform(0.0, 0.3),
                    gen.uniform(0.4, 0.95),
                    gen.uniform(3.0, 30.0),
                    gen.uniform(0.6, 1.6),
                ]
            )
        )
    best = None
    for k, x0 in enumerate(starts):
        res = minimize(
            _nll,
            x0,
            args=(u, var),
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": max_iter},
        )
        if np.isfinite(res.fun) and res.fun < _BIG:
            if best is None or res.fun < best.fun:
                best = res
            if res.success and k == 0:
                break
    if best is None:
        raise NonConvergenceError("all optimizer starts failed")
    a0, a1, b0, b1, b2, nu, gamma = best.x
    b1, b2 = max(b1, 0.0), max(b2, 0.0)
    params = GarchParams(a0, a1, b0, b1, b2, nu, gamma)
    mu, vol, z = garch_filter(u, params, sig2_init=var)
    return GarchFit(
        a0=a0, a1=a1, b0=b0, b1=b1, b2=b2, nu=nu, gamma=gamma,
        loglik=-float(best.fun), cond_mean=mu, cond_vol=vol, residuals=z,
    )


def empirical_var(residuals, theta: float) -> float:
    """The ceil((1-theta) * m)-th order statistic of the residuals."""
    r = np.sort(np.asarray(residuals, dtype=np.float64))
    m = r.size
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if m < 1.0 / theta:
        raise TooFewObservationsError(f"need at least {int(np.ceil(1/theta))} points")
    k = int(np.ceil((1 - theta) * m))
    return float(r[k - 1])


def gpd_tail_fit(exceedances) -> Tuple[float, float]:
    """(shape, scale) of a generalized Pareto fit to positive excesses.

    Maximum likelihood first; probability-weighted moment fallback when
    the MLE degenerates on a small sample.
    """
    exc = np.asarray(exceedances, dtype=np.float64)
    try:
        xi, _, beta = genpareto.fit(exc, floc=0.0)
        if np.isfinite(xi) and np.isfinite(beta) and beta > 0 and xi < 1.0:
            return float(xi), float(beta)
    except Exception:
        pass
    mean, v = exc.mean(), exc.var(ddof=1)
    if not (v > 0 and mean > 0):
        raise NonConvergenceError("degenerate exceedance sample")
    xi = 0.5 * (1.0 - mean**2 / v)
    beta = 0.5 * mean * (1.0 + mean**2 / v)
    return float(xi), float(beta)


def evt_var(residuals, theta: float, k: int = 50) -> float:
    """Peaks-over-threshold quantile estimate.

    Threshold u is the (k+1)-th largest observation; a GPD is fitted to
    the k excesses and extrapolated to the (1-theta) quantile:
    u + beta/xi * ((k / (m theta))^xi - 1), with the log limit at xi = 0.
    """
    r = np.asarray(residuals, dtype=np.float64)
    m = r.size
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if k < 10 or k >= m:
        raise TooFewExceedancesError(f"need 10 <= k < m, got k={k}, m={m}")
    desc = np.sort(r)[::-1]
    u = desc[k]
    exc = desc[:k] - u
    xi, beta = gpd_tail_fit(exc)
    ratio = k / (m * theta)
    if abs(xi) < 1e-6:
        return float(u + beta * np.log(ratio))
    return float(u + beta / xi * (ratio**xi - 1.0))


def residual_var(residuals, theta: float, method: VarMethod,
                 nu: Optional[float] = None, gamma: Optional[float] = None) -> float:
    if method.kind == "empirical":
        return empirical_var(residuals, theta)
    if method.kind == "evt":
        return evt_var(residuals, theta, method.k)
    return float(sstd_quantile(1 - theta, nu, gamma))


def _next_step(u, fit: GarchFit) -> Tuple[float, float]:
    mu_next = fit.a0 + fit.a1 * u[-1]
    eps_last = u[-1] - fit.cond_mean[-1]
    sig2_next = fit.b0 + fit.b1 * eps_last**2 + fit.b2 * fit.cond_vol[-1] ** 2
    return float(mu_next), float(np.sqrt(sig2_next))


def forecast_var(window, method: VarMethod, theta: float,
                 fit: Optional[GarchFit] = None) -> float:
    """One-step-ahead VaR: mu_next + sigma_next * residual quantile."""
    u = np.asarray(window, dtype=np.float64)
    if fit is None:
        fit = garch_fit(u)
    mu_next, sig_next = _next_step(u, fit)
    q = residual_var(fit.residuals, theta, method, nu=fit.nu, gamma=fit.gamma)
    return mu_next + sig_next * q


def rolling_forecasts(
    series,
    window: int,
    horizon: int,
    method: VarMethod,
    theta: float,
    refit_every: int = 1,
) -> np.ndarray:
    """Daily one-step-ahead VaR forecasts over the last `horizon` days.

    Day h is forecast from the `window` observations immediately before
    it.  The model is re-estimated every `refit_every` days; between
    refits the held parameters are re-filtered on the current window.
    """
    u = np.asarray(series, dtype=np.float64)
    if u.size < window + horizon:
        raise InsufficientHistoryError(
            f"need {window + horizon} observations, got {u.size}"
        )
    if refit_every < 1:
        raise ValueError("refit_every must be >= 1")
    out = np.empty(horizon)
    fit = None
    for h in range(horizon):
        end = u.size - horizon + h
        win = u[end - window : end]
        if fit is None or h % refit_every == 0:
            fit = garch_fit(win)
        else:
            params = GarchParams(fit.a0, fit.a1, fit.b0, fit.b1, fit.b2,
                                 fit.nu, fit.gamma)
            mu, vol, z = garch_filter(win, params, sig2_init=win.var())
            fit = replace(fit, cond_mean=mu, cond_vol=vol, residuals=z)
        out[h] = forecast_var(win, method, theta, fit=fit)
    return out
