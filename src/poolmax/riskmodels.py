"""AR(1)-GARCH(1,1) quasi-MLE with skew-t innovations and VaR estimators.

The loss recursion is

    u_t = mu_t + sigma_t * z_t
    mu_t = a0 + a1 * u_{t-1}
    sigma_t^2 = b0 + b1 * sigma_{t-1}^2 z_{t-1}^2 + b2 * sigma_{t-1}^2

with z_t i.i.d. mean 0 variance 1.  Since sigma_{t-1}^2 z_{t-1}^2 equals
the squared mean residual, the volatility recursion is linear in
sigma_t^2 and is evaluated with a one-pole filter, which keeps the
likelihood fast enough for daily refitting.

The fit is L-BFGS-B on the negative log-likelihood, with the gradient
L-BFGS-B would estimate itself: forward differences, one step per
parameter, as scipy's `approx_derivative` takes them.  `_nll_and_grad`
evaluates the base point and its 7 stepped points in one batch that shares
what the points share, in about half the time scipy takes to difference 8
separate likelihood calls.  Every bit of these values matters: L-BFGS-B
follows a different path, to different fits and forecasts, when the
likelihood or the gradient moves by a rounding error (the `sstd` module
docstring says the same of the Student-t kernel).  So the batch repeats the
per-point arithmetic exactly, and the tests compare its bytes with scipy's
own differences of the one-point likelihood.

Residual-quantile estimators: empirical order statistic, fitted
standardized skew-t quantile, and a peaks-over-threshold GPD tail fit.  The
GPD is fitted by exact maximum likelihood through its profile likelihood in
the single parameter theta = xi/beta (Grimshaw 1993, Technometrics 35:185):
one vectorized pass over a fixed grid of theta brackets each maximum, and
`brentq` solves for it, in about 0.3 ms per 50-point tail.  Where no
maximum with xi < 1 exists, probability-weighted moments (Hosking & Wallis
1987) take over, and the fit says which estimator it used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.signal import lfilter

from .core import RngSpec
from .errors import DegenerateVarianceError, PoolmaxError
from .sstd import sstd_logpdf, sstd_quantile

__all__ = [
    "GarchParams",
    "GarchFit",
    "GpdFit",
    "VarMethod",
    "garch_filter",
    "garch_fit",
    "empirical_var",
    "evt_var",
    "gpd_tail_fit",
    "forecast_var",
    "rolling_forecasts",
]

MIN_FIT_LENGTH = 300
_BIG = 1e12
_PARAM_NAMES = ("a0", "a1", "b0", "b1", "b2", "nu", "gamma")
# `garch_fit`'s random restarts after an unconverged first start, and their stream
_RESTARTS = 5
_RESTART_RNG = RngSpec(0)
# scipy's forward-difference steps for L-BFGS-B: its default absolute step and
# the relative fallback sqrt(machine epsilon) of `approx_derivative`
_ABS_STEP = 1e-8
_REL_STEP = np.finfo(np.float64).eps ** 0.5
# The grid on which the GPD profile likelihood's maxima are bracketed, in
# units of 1/max(y): theta max(y) runs over (-1, 1e6) at 4 points a decade,
# log-spaced toward the singular end -1 (to within 1e-12), toward 0 from
# both sides and upward.  The negative side is offset by an eighth of a
# decade, so no bracket is symmetric about 0: a bisection step there would
# land exactly on the spurious root of `_grimshaw_h`.
_THETA_GRID = np.concatenate([-1.0 + np.logspace(-12, -0.25, 48),
                              -np.logspace(-0.375, -3.875, 15), np.logspace(-4, 6, 41)])


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
    """Fitted parameters, the conditional path and how the fit went.

    `converged` is the optimizer's success flag for the chosen start,
    `n_starts` the starts tried, `nit` the chosen start's iterations and
    `at_bound` the names of parameters that ended on a box bound.
    """

    loglik: float = float("nan")
    converged: bool = False
    n_starts: int = 0
    nit: int = 0
    at_bound: Tuple[str, ...] = ()
    cond_mean: np.ndarray = field(default=None, repr=False)
    cond_vol: np.ndarray = field(default=None, repr=False)
    residuals: np.ndarray = field(default=None, repr=False)


class GpdFit(NamedTuple):
    """A generalized Pareto fit: shape, scale and the estimator that gave
    them, "mle" (maximum likelihood) or "pwm" (probability-weighted moments)."""

    xi: float
    beta: float
    method: str


@dataclass(frozen=True)
class VarMethod:
    kind: str  # "empirical" | "skew-t" | "evt"
    k: int = 50

    def __post_init__(self):
        if self.kind not in ("empirical", "skew-t", "evt"):
            raise ValueError(f"unknown VaR method {self.kind!r}")


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


def _nll_points(points, u, sig2_init) -> np.ndarray:
    """Negative log-likelihoods of the 8 rows of `points`, _BIG where b1 + b2 >
    0.999 or the value is not finite.  Every other bound of `GarchParams` and
    `sstd_logpdf` is `garch_fit`'s box, into which scipy clips the start and
    `_nll_and_grad` keeps each step.

    Row 0 is the base point and row i (1..7) moves parameter i-1 only, so the
    rows share most of the work: rows 3-7 reuse row 0's means, rows 0-4
    share the pole b2 of one `lfilter` call, rows 0-5 share (nu, gamma) in
    one `sstd_logpdf` call, and rows 6-7 reuse row 0's residuals.  Every
    value has the bytes of `garch_filter` and `sstd_logpdf` evaluated row by
    row: the ops are elementwise, and a row of a 2-D `lfilter` or of a
    last-axis sum is computed as the 1-D call computes it.
    """
    a0, a1, b0, b1, b2, nu, gamma = points.T
    n = u.size
    mu = np.empty((3, n))  # rows 0-2; rows 3-7 have row 0's means
    mu[:, 0] = a0[:3] / (1.0 - a1[:3])
    mu[:, 1:] = a0[:3, None] + a1[:3, None] * u[:-1]
    eps = u - mu
    drive = b0[:5, None] + b1[:5, None] * (eps[:, :-1] ** 2)[[0, 1, 2, 0, 0]]
    sig2 = np.empty((6, n))  # rows 0-5; rows 6-7 have row 0's variances
    sig2[:, 0] = sig2_init
    sig2[:5, 1:] = lfilter([1.0], [1.0, -b2[0]], drive, zi=b2[:5, None] * sig2_init)[0]
    sig2[5, 1:] = lfilter([1.0], [1.0, -b2[5]], drive[0], zi=[b2[5] * sig2_init])[0]
    vol = np.sqrt(sig2)
    z = eps[[0, 1, 2, 0, 0, 0]] / vol
    log_vol = np.log(vol)
    total = np.append((sstd_logpdf(z, nu[0], gamma[0]) - log_vol).sum(axis=1),
                      [(sstd_logpdf(z[0], nu[r], gamma[r]) - log_vol[0]).sum() for r in (6, 7)])
    return np.where((b1 + b2 <= 0.999) & np.isfinite(total), -total, _BIG)


def _nll_and_grad(theta, u, sig2_init, lb, ub):
    """The negative log-likelihood at theta and its forward-difference gradient.

    The gradient is the one L-BFGS-B estimates when it is given none:
    scipy's `approx_derivative` with method "2-point" and abs_step 1e-8,
    the relative step sqrt(eps) * sign * max(1, |x|) where x + 1e-8 rounds
    back to x, and a step that would leave [lb, ub] reversed (or, where the
    box is narrower than the step, replaced by the distance to the farther
    bound).  Its 8 likelihood points are evaluated in one batch
    (`_nll_points`), and the quotient is taken as scipy takes it, so the
    value, the gradient and hence the whole L-BFGS-B path keep their bytes.
    """
    h = np.where((theta + _ABS_STEP) - theta == 0,
                 _REL_STEP * ((theta >= 0) * 2.0 - 1.0) * np.maximum(1.0, np.abs(theta)),
                 _ABS_STEP)
    below, above = theta - lb, ub - theta
    fits = np.abs(h) <= np.maximum(below, above)
    outside = (theta + h < lb) | (theta + h > ub)
    h = np.where(fits, np.where(outside, -h, h), np.where(above >= below, above, -below))
    stepped = theta + h
    points = np.tile(theta, (8, 1))
    np.fill_diagonal(points[1:], stepped)
    f = _nll_points(points, u, sig2_init)
    return f[0], (f[1:] - f[0]) / (stepped - theta)


def garch_fit(series, init: Optional[GarchParams] = None, max_iter: int = 500) -> GarchFit:
    """Joint quasi-MLE of the seven model parameters.

    Box-constrained L-BFGS-B, given the forward-difference gradient it
    would estimate itself, computed in one batched likelihood per step
    (`_nll_and_grad`; see the module docstring for why every bit of it is
    kept).  The volatility recursion starts at the sample variance during
    estimation.  Unless the first start converges, `_RESTARTS` random
    starts follow, drawn in turn from the `_RESTART_RNG` stream as the loop
    reaches them, and the best finite one is returned, converged or not
    (see `GarchFit.converged`); if none is finite, PoolmaxError is raised.
    """
    u = np.asarray(series, dtype=np.float64)
    if u.size < MIN_FIT_LENGTH:
        raise PoolmaxError(
            f"need at least {MIN_FIT_LENGTH} observations, got {u.size}"
        )
    var = u.var()
    if var == 0.0:
        raise DegenerateVarianceError("constant series")
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

    def starts():
        yield np.array([init.a0, init.a1, init.b0, init.b1, init.b2, init.nu, init.gamma])
        gen = _RESTART_RNG.generator()
        for _ in range(_RESTARTS):
            yield np.array([
                u.mean() + scale * 0.1 * gen.standard_normal(),
                gen.uniform(-0.3, 0.3),
                var * gen.uniform(0.01, 0.5),
                gen.uniform(0.0, 0.3),
                gen.uniform(0.4, 0.95),
                gen.uniform(3.0, 30.0),
                gen.uniform(0.6, 1.6),
            ])
    lb, ub = np.array(bounds, dtype=np.float64).T
    best = None
    for k, x0 in enumerate(starts()):
        res = minimize(
            _nll_and_grad,
            x0,
            args=(u, var, lb, ub),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            # differencing itself, scipy counts 8 evaluations per step against
            # maxfun (default 15000); given the gradient it counts 1
            options={"maxiter": max_iter, "maxfun": 15000 // 8},
        )
        if np.isfinite(res.fun) and res.fun < _BIG:
            if best is None or res.fun < best.fun:
                best = res
            if res.success and k == 0:
                break
    if best is None:
        raise PoolmaxError("all optimizer starts failed")
    a0, a1, b0, b1, b2, nu, gamma = best.x
    params = GarchParams(a0, a1, b0, b1, b2, nu, gamma)
    mu, vol, z = garch_filter(u, params, sig2_init=var)
    at_bound = tuple(
        name for name, v, (lo, hi) in zip(_PARAM_NAMES, best.x, bounds)
        if v <= lo or v >= hi
    )
    return GarchFit(
        a0=a0, a1=a1, b0=b0, b1=b1, b2=b2, nu=nu, gamma=gamma,
        loglik=-float(best.fun), converged=bool(best.success),
        n_starts=k + 1, nit=int(best.nit), at_bound=at_bound,
        cond_mean=mu, cond_vol=vol, residuals=z,
    )


def _check_theta(theta: float, kind: str = "", m: int = 0, k: int = 0) -> None:
    """The one check of a VaR level theta, and of the m residuals that a quantile
    of `kind` takes at it: at least ceil(1/theta) for "empirical", 10 <= k < m for "evt"."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if kind == "empirical" and m < 1.0 / theta:
        raise PoolmaxError(f"need at least {int(np.ceil(1/theta))} points")
    if kind == "evt" and (k < 10 or k >= m):
        raise PoolmaxError(f"need 10 <= k < m, got k={k}, m={m}")


def empirical_var(residuals, theta: float) -> float:
    """The ceil((1-theta) * m)-th order statistic of the residuals."""
    r = np.asarray(residuals, dtype=np.float64)
    _check_theta(theta, "empirical", r.size)
    k = int(np.ceil((1 - theta) * r.size))
    return float(np.sort(r)[k - 1])


def _profile_nll(theta, y):
    """The GPD negative log-likelihood of y, minimized over xi at fixed theta.

    For theta = xi/beta fixed, the minimum is at xi = mean log1p(theta y) and
    beta = xi/theta, where it equals k (log(xi/theta) + xi + 1); as theta -> 0
    it tends to the exponential k (log mean(y) + 1).  `theta` is a nonzero
    scalar or an array, whose points share one `log1p` call.
    """
    k = y.size
    xi = np.log1p(np.multiply.outer(theta, y)).sum(axis=-1) / k
    return k * (np.log(xi / theta) + xi + 1.0)


def _grimshaw_h(theta, y):
    """Grimshaw's h(theta) = (1 + xi(theta)) mean(1 / (1 + theta y)) - 1.

    The derivative of `_profile_nll` is -k h / (theta xi), and theta xi > 0,
    so the likelihood has a local maximum where h falls through 0.  h also
    has a spurious double root at theta = 0, where it keeps its sign.
    """
    k = y.size
    t = np.multiply.outer(theta, y)
    return (1.0 + np.log1p(t).sum(axis=-1) / k) * ((1.0 / (1.0 + t)).sum(axis=-1) / k) - 1.0


def _profile_mle(y) -> Optional[float]:
    """The theta of the highest interior maximum of the profile likelihood.

    Each grid cell where h falls through 0 holds a maximum, which `brentq`
    solves for.  None when there is no such cell: the likelihood then has
    its supremum at an end of the domain, theta -> -1/max(y) (xi -> -inf,
    the support closing onto the sample maximum, where it is unbounded) or
    theta -> inf (xi -> inf, unbounded when an excess is 0).
    """
    top = y.max()
    grid = _THETA_GRID / top
    h = _grimshaw_h(grid, y)
    cells = np.flatnonzero((h[:-1] > 0) & (h[1:] <= 0))
    if cells.size == 0:
        return None
    roots = np.array([brentq(_grimshaw_h, grid[i], grid[i + 1], args=(y,), xtol=1e-14 / top)
                      for i in cells])
    return float(roots[np.argmin(_profile_nll(roots, y))])


def gpd_tail_fit(exceedances) -> GpdFit:
    """Generalized Pareto fit, location 0, to non-negative excesses.

    Maximum likelihood first: the highest interior maximum of the profile
    likelihood in theta = xi/beta (`_profile_mle`), with xi = mean
    log1p(theta y) and beta = xi/theta there.  When it does not exist (the
    likelihood is unbounded, as for xi < -1), or is not finite, or has
    beta <= 0 or xi >= 1, the probability-weighted moment estimates of
    Hosking & Wallis (1987) are returned instead; `method` says which.
    Constant excesses raise PoolmaxError, negative ones ValueError.
    """
    y = np.asarray(exceedances, dtype=np.float64)
    low = y.min()
    if low < 0:
        raise ValueError("excesses must be non-negative")
    if not low < y.max():
        raise PoolmaxError("degenerate exceedance sample")
    theta = _profile_mle(y)
    if theta is not None:
        xi = np.log1p(theta * y).mean()
        beta = xi / theta
        if np.isfinite(xi) and np.isfinite(beta) and beta > 0 and xi < 1.0:
            return GpdFit(float(xi), float(beta), "mle")
    mean, v = y.mean(), y.var(ddof=1)
    xi = 0.5 * (1.0 - mean**2 / v)
    beta = 0.5 * mean * (1.0 + mean**2 / v)
    return GpdFit(float(xi), float(beta), "pwm")


def evt_var(residuals, theta: float, k: int = 50) -> float:
    """Peaks-over-threshold quantile estimate.

    Threshold u is the (k+1)-th largest observation; a GPD is fitted to
    the k excesses and extrapolated to the (1-theta) quantile:
    u + beta/xi * ((k / (m theta))^xi - 1), with the log limit at xi = 0.
    """
    r = np.asarray(residuals, dtype=np.float64)
    m = r.size
    _check_theta(theta, "evt", m, k)
    desc = np.sort(r)[::-1]
    u = desc[k]
    exc = desc[:k] - u
    xi, beta, _ = gpd_tail_fit(exc)
    ratio = k / (m * theta)
    if abs(xi) < 1e-6:
        return float(u + beta * np.log(ratio))
    return float(u + beta / xi * (ratio**xi - 1.0))


def _next_step(u, fit: GarchFit) -> Tuple[float, float]:
    mu_next = fit.a0 + fit.a1 * u[-1]
    eps_last = u[-1] - fit.cond_mean[-1]
    sig2_next = fit.b0 + fit.b1 * eps_last**2 + fit.b2 * fit.cond_vol[-1] ** 2
    return float(mu_next), float(np.sqrt(sig2_next))


def forecast_var(window, method: VarMethod, theta: float,
                 fit: Optional[GarchFit] = None) -> float:
    """One-step-ahead VaR: mu_next + sigma_next * residual quantile; theta
    and the residual count are checked (`_check_theta`) before any fit."""
    u = np.asarray(window, dtype=np.float64)
    _check_theta(theta, method.kind, u.size if fit is None else fit.residuals.size, method.k)
    if fit is None:
        fit = garch_fit(u)
    mu_next, sig_next = _next_step(u, fit)
    if method.kind == "empirical":
        q = empirical_var(fit.residuals, theta)
    elif method.kind == "evt":
        q = evt_var(fit.residuals, theta, method.k)
    else:
        q = float(sstd_quantile(1 - theta, fit.nu, fit.gamma))
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

    Day h is forecast from the `window` observations immediately before it.
    The model is re-estimated every `refit_every` days; between refits the
    held parameters are re-filtered on the current window.  theta and the
    window are checked (`_check_theta`) before the first fit.
    """
    u = np.asarray(series, dtype=np.float64)
    if u.size < window + horizon:
        raise PoolmaxError(
            f"need {window + horizon} observations, got {u.size}"
        )
    if refit_every < 1:
        raise ValueError("refit_every must be >= 1")
    _check_theta(theta, method.kind, window, method.k)
    out = np.empty(horizon)
    fit = None
    for h in range(horizon):
        end = u.size - horizon + h
        win = u[end - window : end]
        if fit is None or h % refit_every == 0:
            fit = garch_fit(win)
        else:
            mu, vol, z = garch_filter(win, fit, sig2_init=win.var())
            fit = replace(fit, cond_mean=mu, cond_vol=vol, residuals=z)
        out[h] = forecast_var(win, method, theta, fit=fit)
    return out
