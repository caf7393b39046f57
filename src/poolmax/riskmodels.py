"""AR(1)-GARCH(1,1) quasi-MLE with skew-t innovations and VaR estimators.

The loss recursion is

    u_t = mu_t + sigma_t * z_t
    mu_t = a0 + a1 * u_{t-1}
    sigma_t^2 = b0 + b1 * sigma_{t-1}^2 z_{t-1}^2 + b2 * sigma_{t-1}^2

with z_t i.i.d. mean 0 variance 1.  Its forward step is written once
(`_next_step`): the simulator `garch_simulate` takes it on every day and
`forecast_var` once, after filtering the window it is given with any
parameters (a `GarchFit` holds no path).  Since sigma_{t-1}^2 z_{t-1}^2
equals the squared mean residual, the volatility recursion is linear in
sigma_t^2 and `garch_filter` evaluates it with a one-pole filter, which
keeps the likelihood fast enough for daily refitting.

The layer's three numerical kernels are scipy's compiled ones, called
directly: the IIR filter `_sigtools._linear_filter`, which
`scipy.signal.lfilter` runs for a two-term denominator (`_one_pole`), the
L-BFGS-B step `_lbfgsb.setulb` and the root finder `_zeros._brentq`.  The
one loader of scipy's compiled modules, `core._extension`, loads each from
its file without running the package that holds it, and leaves nothing of
that package registered: `scipy.signal` would load `scipy.stats` with it,
and `scipy.optimize` some 250 scipy modules of its own, which together
cost a rolling forecast about two fifths of its peak memory.  The skew-t
kernels of `sstd` come through the same loader.  Every value keeps the
bytes the public routines give.  `minimize` is the L-BFGS-B driver of
scipy's `_minimize_lbfgsb` (`scipy/optimize/_lbfgsb_py.py`) for a function
that returns its gradient, with scipy's default constants and its
evaluation cache; `_profile_mle` calls `_brentq` as `scipy.optimize.brentq`
does with its default tolerances.  The tests compare both with scipy's own
routines.

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

import operator
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .core import RngSpec, _check_count, _check_level, _extension, _raise_first_nonfinite
from .errors import DegenerateVarianceError, PoolmaxError
from .sstd import _check as _check_sstd, sstd_logpdf, sstd_quantile

__all__ = [
    "GarchParams",
    "GarchFit",
    "GpdFit",
    "VarMethod",
    "garch_filter",
    "garch_fit",
    "garch_simulate",
    "empirical_var",
    "evt_var",
    "gpd_tail_fit",
    "forecast_var",
    "rolling_forecasts",
]

MIN_FIT_LENGTH = 300
_BIG = 1e12
# `garch_fit`'s random restarts after an unconverged first start, and their stream
_RESTARTS = 5
_MAX_ITER = 500  # L-BFGS-B iterations per start
# L-BFGS-B evaluations per start: differencing itself, scipy counts 8 per step
# against its default maxfun 15000; given the gradient it counts 1
_MAX_FUN = 15000 // 8
_RESTART_RNG = RngSpec(0)
# scipy's forward-difference steps for L-BFGS-B: its default absolute step and
# the relative fallback sqrt(machine epsilon) of `approx_derivative`
_ABS_STEP = 1e-8
_REL_STEP = np.finfo(np.float64).eps ** 0.5
# `scipy.optimize.brentq`'s default relative tolerance and iteration cap
_BRENTQ_RTOL = 4 * np.finfo(np.float64).eps
_BRENTQ_ITER = 100
# The grid on which the GPD profile likelihood's maxima are bracketed, in
# units of 1/max(y): theta max(y) runs over (-1, 1e6) at 4 points a decade,
# log-spaced toward the singular end -1 (to within 1e-12), toward 0 from
# both sides and upward.  The negative side is offset by an eighth of a
# decade, so no bracket is symmetric about 0: a bisection step there would
# land exactly on the spurious root of `_grimshaw_h`.
_THETA_GRID = np.concatenate([-1.0 + np.logspace(-12, -0.25, 48),
                              -np.logspace(-0.375, -3.875, 15), np.logspace(-4, 6, 41)])


_linear_filter = _extension("scipy.signal._sigtools")._linear_filter
_lbfgsb = _extension("scipy.optimize._lbfgsb")
_brentq = _extension("scipy.optimize._zeros")._brentq


def _one_pole(pole, drive, zi):
    """y_t = drive_t + pole * y_{t-1} along the last axis of `drive`, with
    y_0 = drive_0 + zi: `lfilter([1.0], [1.0, -pole], drive, zi=zi)[0]` to the
    bit, where `zi` holds one value per row of `drive`."""
    return _linear_filter(np.array([1.0]), np.array([1.0, -pole]), drive, -1, zi)[0]


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
        if not np.isfinite([getattr(self, f.name) for f in fields(GarchParams)]).all():
            raise PoolmaxError("need finite parameters")
        if not (self.b0 > 0 and self.b1 >= 0 and self.b2 >= 0):
            raise PoolmaxError("need b0 > 0, b1 >= 0, b2 >= 0")
        if not self.b1 + self.b2 < 1:
            raise PoolmaxError("need b1 + b2 < 1 (stationarity)")
        if not abs(self.a1) < 1:
            raise PoolmaxError("need |a1| < 1")
        _check_sstd(self.nu, self.gamma)


@dataclass(frozen=True)
class GarchFit(GarchParams):
    """Fitted parameters and how the fit went.

    `converged` is the optimizer's success flag for the chosen start,
    `n_starts` the starts tried, `nit` the chosen start's iterations and
    `at_bound` the names of parameters that ended on a box bound.
    """

    loglik: float = float("nan")
    converged: bool = False
    n_starts: int = 0
    nit: int = 0
    at_bound: Tuple[str, ...] = ()


class GpdFit(NamedTuple):
    """A generalized Pareto fit: shape, scale and the estimator that gave
    them, "mle" (maximum likelihood) or "pwm" (probability-weighted moments)."""

    xi: float
    beta: float
    method: str


@dataclass(frozen=True)
class VarMethod:
    kind: str  # "empirical" | "skew-t" | "evt"
    k: int = 50  # the EVT tail size, stored as a Python int (through `operator.index`)

    def __post_init__(self):
        if self.kind not in ("empirical", "skew-t", "evt"):
            raise PoolmaxError(f"unknown VaR method {self.kind!r}")
        object.__setattr__(self, "k", operator.index(self.k))


def _series(values, name: str = "series", minimum: int = 1) -> np.ndarray:
    """The one check of a loss series, residual, shock or excess array:
    `values` as a 1-d float64 array of at least `minimum` finite points,
    which is `values` itself when it already is such an array.  A NaN or
    inf raises NonFiniteError at its index, as (i, 0)."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise PoolmaxError(f"expected 1-d {name}, got ndim={x.ndim}")
    if x.size < minimum:
        raise PoolmaxError(f"need at least {minimum} observations, got {x.size}")
    _raise_first_nonfinite(~np.isfinite(x))
    return x


def _window_var(u: np.ndarray) -> float:
    """A window's sample variance, where its filter starts and which scales `garch_fit`'s
    box: DegenerateVarianceError if the window is constant or a box bound would be infinite or
    subnormal (the one check of a window's scale)."""
    if (u == u[0]).all():
        raise DegenerateVarianceError("constant series")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        var = float(u.var())
    if not (1e-12 * var >= np.finfo(np.float64).tiny and 10 * var < np.inf):
        raise DegenerateVarianceError(f"variance estimate {var!r} is out of floating-point range")
    return var


def garch_filter(
    series, params: GarchParams, sig2_init: Optional[float] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional means, volatilities and standardized residuals.

    The first step uses the unconditional moments (mean a0/(1-a1),
    variance b0/(1-b1-b2)) unless `sig2_init`, positive and finite,
    overrides the variance.  Reconstruction series = mean + vol * residual
    is exact.
    """
    u = _series(series)
    if sig2_init is not None and not 0 < sig2_init < np.inf:
        raise PoolmaxError("sig2_init must lie in (0, inf)")
    n = u.size
    mu = np.empty(n)
    mu[0] = params.a0 / (1.0 - params.a1)
    mu[1:] = params.a0 + params.a1 * u[:-1]
    eps = u - mu
    sig2 = np.empty(n)
    sig2[0] = params.b0 / (1.0 - params.b1 - params.b2) if sig2_init is None else sig2_init
    if n > 1:
        drive = params.b0 + params.b1 * eps[:-1] ** 2
        sig2[1:] = _one_pole(params.b2, drive, [params.b2 * sig2[0]])
    vol = np.sqrt(sig2)
    return mu, vol, eps / vol


def _next_step(params: GarchParams, u_t, eps_t, sig2_t):
    """The model's one forward step: (mu_{t+1}, sigma_{t+1}^2) from the loss
    u_t, its mean residual eps_t = u_t - mu_t and its variance sigma_t^2."""
    return (params.a0 + params.a1 * u_t,
            params.b0 + params.b1 * eps_t**2 + params.b2 * sig2_t)


def garch_simulate(params: GarchParams, shocks) -> np.ndarray:
    """The loss path u_t = mu_t + sigma_t * z_t driven by the standardized
    shocks z_t, a 1-d array that the caller draws.

    The path starts where `garch_filter` does, at the unconditional mean
    a0/(1-a1) and variance b0/(1-b1-b2), and moves by `_next_step`; the
    caller slices off any burn-in.  `garch_filter(path, params)` gives the
    shocks back as its residuals.  A non-finite shock raises NonFiniteError,
    and a path whose sigma^2 or loss leaves the float range raises
    PoolmaxError naming the first such day.  No shocks give an empty path.
    """
    z = _series(shocks, "shocks", minimum=0)
    u = np.empty(z.size)
    mu = params.a0 / (1.0 - params.a1)
    sig2 = params.b0 / (1.0 - params.b1 - params.b2)
    # a loss is non-finite from the first day on which sigma^2 or the loss
    # overflows, so the check after the loop finds that day
    with np.errstate(over="ignore", invalid="ignore"):
        for t, z_t in enumerate(z):
            eps = np.sqrt(sig2) * z_t
            u[t] = mu + eps
            mu, sig2 = _next_step(params, u[t], eps, sig2)
    bad = ~np.isfinite(u)
    if bad.any():
        raise PoolmaxError(f"sigma^2 or the loss leaves the float range on day {bad.argmax()}")
    return u


def _nll_points(points, u, sig2_init) -> np.ndarray:
    """Negative log-likelihoods of the 8 rows of `points`, _BIG where b1 + b2 >
    0.999 or the value is not finite.  Every other bound of `GarchParams` and
    `sstd_logpdf` is `garch_fit`'s box, into which scipy clips the start and
    `_nll_and_grad` keeps each step.

    Row 0 is the base point and row i (1..7) moves parameter i-1 only, so the
    rows share most of the work: rows 3-7 reuse row 0's means, rows 0-4
    share the pole b2 of one `_one_pole` call, rows 0-5 share (nu, gamma) in
    one `sstd_logpdf` call, and rows 6-7 reuse row 0's residuals.  Every
    value has the bytes of `garch_filter` and `sstd_logpdf` evaluated row by
    row: the ops are elementwise, scipy's `_linear_filter` kernel runs the
    recursion of each row of a 2-D drive as it runs a 1-D one, and a row of
    a last-axis sum is computed as the 1-D sum.
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
    sig2[:5, 1:] = _one_pole(b2[0], drive, b2[:5, None] * sig2_init)
    sig2[5, 1:] = _one_pole(b2[5], drive[0], [b2[5] * sig2_init])
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


class _Minimum(NamedTuple):
    """The end of an L-BFGS-B run: the last iterate, its function value,
    whether L-BFGS-B converged and the iterations it took."""

    x: np.ndarray
    fun: float
    success: bool
    nit: int


def minimize(fun, x0, args, bounds, maxiter: int, maxfun: int) -> _Minimum:
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on `fun(x, *args)`, which
    returns the value and the gradient, in the finite box `bounds` of
    (low, high) pairs.

    The loop of scipy's `_minimize_lbfgsb` around the compiled step
    `_lbfgsb.setulb`, with its default constants: 10 corrections, ftol
    2.2204460492503131e-09, gtol 1e-5 and 20 line-search steps.  The start
    is clipped into the box and evaluated; after that `fun` runs only at an
    x that is not `array_equal` to the last one it ran at, as scipy's
    `ScalarFunction` caches it, and only those runs count against `maxfun`.
    The run stops after `maxiter` iterations, or once more than `maxfun`
    evaluations have run, and succeeds when L-BFGS-B itself converged.
    """
    low, high = np.ascontiguousarray(np.array(bounds, dtype=np.float64).T)
    x = np.clip(np.asarray(x0, dtype=np.float64), low, high)
    n, m = x.size, 10
    point = x.copy()
    value = fun(point, *args)
    nfev, nit = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task, lsave = (np.zeros(k, dtype=np.int32) for k in (2, 2, 4))
    isave, dsave = np.zeros(44, dtype=np.int32), np.zeros(29)
    nbd = np.full(n, 2, dtype=np.int32)  # L-BFGS-B's code for a lower and an upper bound
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    while True:
        _lbfgsb.setulb(m, x, low, high, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave,
                       dsave, 20, ln_task)
        if task[0] == 3:  # setulb asks for f and g at x
            if not np.array_equal(x, point):
                point = x.copy()
                value = fun(point, *args)
                nfev += 1
            f, g = value
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    return _Minimum(x, f, bool(task[0] == 4), nit)


def garch_fit(series, init: Optional[GarchParams] = None) -> GarchFit:
    """Joint quasi-MLE of the seven model parameters.

    Box-constrained L-BFGS-B, given the forward-difference gradient it
    would estimate itself, computed in one batched likelihood per step
    (`_nll_and_grad`; see the module docstring for why every bit of it is
    kept).  The volatility recursion starts at the sample variance
    (`_window_var`), which also scales the start and the box.  Unless the
    first start converges within `_MAX_ITER` iterations, `_RESTARTS` random
    starts follow, drawn in turn from the `_RESTART_RNG` stream as the loop
    reaches them, and the best finite one is returned, converged or not
    (see `GarchFit.converged`); if none is finite, PoolmaxError is raised.
    """
    u = _series(series, minimum=MIN_FIT_LENGTH)
    var = _window_var(u)
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
        init = GarchParams(a0=float(u.mean()), a1=0.0, b0=0.1 * var, b1=0.05, b2=0.85)

    def starts():
        yield np.array([getattr(init, f.name) for f in fields(GarchParams)])
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
        res = minimize(_nll_and_grad, x0, args=(u, var, lb, ub), bounds=bounds,
                       maxiter=_MAX_ITER, maxfun=_MAX_FUN)
        if np.isfinite(res.fun) and res.fun < _BIG:
            if best is None or res.fun < best.fun:
                best = res
            if res.success and k == 0:
                break
    if best is None:
        raise PoolmaxError("all optimizer starts failed")
    at_bound = tuple(
        f.name for f, v, (lo, hi) in zip(fields(GarchParams), best.x, bounds)
        if v <= lo or v >= hi
    )
    return GarchFit(
        *best.x,
        loglik=-float(best.fun), converged=bool(best.success),
        n_starts=k + 1, nit=int(best.nit), at_bound=at_bound,
    )


def _check_theta(theta: float, kind: str = "", m: int = 0, k: int = 0) -> float:
    """The one check of a VaR level theta, and of the m residuals that a quantile
    of `kind` takes at it: at least ceil(1/theta) for "empirical", 10 <= k < m for "evt".
    Returns theta as the Python float that every quantile computes with."""
    theta = _check_level("theta", theta)
    if kind == "empirical" and m < 1.0 / theta:
        raise PoolmaxError(f"need at least {int(np.ceil(1/theta))} points")
    if kind == "evt" and (k < 10 or k >= m):
        raise PoolmaxError(f"need 10 <= k < m, got k={k}, m={m}")
    return theta


def empirical_var(residuals, theta: float) -> float:
    """The ceil((1-theta) * m)-th order statistic of the residuals."""
    r = _series(residuals, "residuals")
    theta = _check_theta(theta, "empirical", r.size)
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


def _checked_h(theta, y):
    """`_grimshaw_h` at the one theta `_brentq` asks for, PoolmaxError where it
    is NaN: the guard `scipy.optimize.brentq` puts around its function."""
    h = _grimshaw_h(theta, y)
    if np.isnan(h):
        raise PoolmaxError(f"Grimshaw's h is NaN at theta={theta!r}; the root search cannot go on")
    return h


def _profile_mle(y) -> Optional[float]:
    """The theta of the highest interior maximum of the profile likelihood.

    Each grid cell where h falls through 0 holds a maximum, which `_brentq`
    solves for as `scipy.optimize.brentq` does with its defaults.  None when
    there is no such cell: the likelihood then has its supremum at an end of
    the domain, theta -> -1/max(y) (xi -> -inf, the support closing onto the
    sample maximum, where it is unbounded) or theta -> inf (xi -> inf,
    unbounded when an excess is 0).
    """
    top = y.max()
    grid = _THETA_GRID / top
    h = _grimshaw_h(grid, y)
    cells = np.flatnonzero((h[:-1] > 0) & (h[1:] <= 0))
    if cells.size == 0:
        return None
    roots = np.array([_brentq(_checked_h, grid[i], grid[i + 1], 1e-14 / top, _BRENTQ_RTOL,
                              _BRENTQ_ITER, (y,), False, True) for i in cells])
    return float(roots[np.argmin(_profile_nll(roots, y))])


def gpd_tail_fit(exceedances) -> GpdFit:
    """Generalized Pareto fit, location 0, to non-negative excesses.

    Maximum likelihood first: the highest interior maximum of the profile
    likelihood in theta = xi/beta (`_profile_mle`), with xi = mean
    log1p(theta y) and beta = xi/theta there.  When it does not exist (the
    likelihood is unbounded, as for xi < -1), or is not finite, or has
    beta <= 0 or xi >= 1, the probability-weighted moment estimates of
    Hosking & Wallis (1987) are returned instead; `method` says which.
    Constant or negative excesses raise PoolmaxError.
    """
    y = _series(exceedances, "excesses")
    low = y.min()
    if low < 0:
        raise PoolmaxError("excesses must be non-negative")
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
    r = _series(residuals, "residuals")
    m = r.size
    k = operator.index(k)
    theta = _check_theta(theta, "evt", m, k)
    desc = np.sort(r)[::-1]
    u = desc[k]
    exc = desc[:k] - u
    xi, beta, _ = gpd_tail_fit(exc)
    ratio = k / (m * theta)
    if abs(xi) < 1e-6:
        return float(u + beta * np.log(ratio))
    return float(u + beta / xi * (ratio**xi - 1.0))


def forecast_var(window, method: VarMethod, theta: float,
                 params: Optional[GarchParams] = None) -> float:
    """One-step-ahead VaR: mu_next + sigma_next * residual quantile of the window filtered
    from its `_window_var` with `params`, any `GarchParams`, or `garch_fit(window)` if None;
    the window, theta and the residual count are checked before any fit."""
    u = _series(window, "window")
    theta = _check_theta(theta, method.kind, u.size, method.k)
    if params is None:
        params = garch_fit(u)
    mu, vol, z = garch_filter(u, params, sig2_init=_window_var(u))
    mu_next, sig2_next = _next_step(params, u[-1], u[-1] - mu[-1], vol[-1] ** 2)
    if method.kind == "empirical":
        q = empirical_var(z, theta)
    elif method.kind == "evt":
        q = evt_var(z, theta, method.k)
    else:
        q = float(sstd_quantile(1 - theta, params.nu, params.gamma))
    return float(mu_next) + float(np.sqrt(sig2_next)) * q


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
    The model is re-estimated every `refit_every` days, and each day's
    `forecast_var` filters its window with the last fit.  The series, theta
    and the window are checked before the first fit, and so are the counts
    `window` (>= MIN_FIT_LENGTH, the points a fit needs), `horizon` (>= 0) and
    `refit_every` (>= 1), which must be integers.
    """
    window = _check_count("window", window, MIN_FIT_LENGTH)
    horizon = _check_count("horizon", horizon, 0)
    refit_every = _check_count("refit_every", refit_every, 1)
    u = _series(series, minimum=window + horizon)
    theta = _check_theta(theta, method.kind, window, method.k)
    out = np.empty(horizon)
    for h in range(horizon):
        end = u.size - horizon + h
        win = u[end - window : end]
        if h % refit_every == 0:
            params = garch_fit(win)
        out[h] = forecast_var(win, method, theta, params)
    return out
