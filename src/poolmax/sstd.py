"""Standardized skew-t distribution (two-piece scaling construction).

A unit-variance Student-t density is scaled by gamma on the positive side
and by 1/gamma on the negative side, then shifted and rescaled to mean 0,
variance 1.  gamma = 1 recovers the symmetric standardized t; gamma > 1
skews to the right.  The mass left of the (pre-standardization) mode is
1 / (1 + gamma^2), which drives the piecewise quantile inversion.

The Student-t kernel is evaluated with scipy.special's ufuncs directly,
without the `scipy.stats.t` wrapper, whose argument handling cost most of a
GARCH likelihood evaluation.  `gammaln`, `poch`, `stdtr` and `stdtrit` are
taken from the compiled module `scipy.special._ufuncs`, which
`core._extension` loads from its file without running the `scipy.special`
package (its array-API layer and vendored libraries cost a rolling
forecast about a fifth of its peak memory); they are the very objects that
package exposes.  `_t1_logpdf` performs the operations of scipy's
own `t._logpdf` in the same order, and `stdtr`/`stdtrit` are what `t.cdf`
and `t.ppf` compute, so every value is bitwise equal to the `scipy.stats.t`
form.  That equality matters: L-BFGS-B with finite differences follows a
different path, and ends at different fits and forecasts, when the
likelihood changes by a rounding error.  tests/test_sstd.py compares the
bytes against `scipy.stats.t`, so a scipy release that changes its formula
fails there.
"""

from __future__ import annotations

import numpy as np

from .core import _extension
from .errors import PoolmaxError

_ufuncs = _extension("scipy.special._ufuncs")
gammaln, poch, stdtr, stdtrit = _ufuncs.gammaln, _ufuncs.poch, _ufuncs.stdtr, _ufuncs.stdtrit

__all__ = ["sstd_logpdf", "sstd_pdf", "sstd_cdf", "sstd_quantile", "sstd_moments"]


def _check(nu: float, gamma: float) -> None:
    if not nu > 2:
        raise PoolmaxError(f"need nu > 2, got {nu}")
    if not gamma > 0:
        raise PoolmaxError(f"need gamma > 0, got {gamma}")


def sstd_moments(nu: float, gamma: float):
    """(mean, std) of the unstandardized two-piece variable."""
    _check(nu, gamma)
    m1 = float(
        2.0
        * np.sqrt(nu - 2.0)
        / ((nu - 1.0) * np.sqrt(np.pi))
        * np.exp(gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0))
    )
    mean = m1 * (gamma - 1.0 / gamma)
    m2 = (gamma**3 + gamma**-3) / (gamma + 1.0 / gamma)
    var = m2 - mean**2
    return mean, float(np.sqrt(var))


def _t1_logpdf(x, nu):
    c = np.sqrt(nu / (nu - 2.0))
    x = np.asarray(x) * c
    # scipy's `t._logpdf` for finite df, op for op
    logpdf = (
        np.log(poch(0.5 * nu, 0.5))
        - 0.5 * (np.log(nu) + np.log(np.pi))
        - (nu + 1) / 2 * np.log1p(x * x / nu)
    )
    return logpdf + np.log(c)


def _t1_cdf(x, nu):
    return stdtr(nu, np.asarray(x) * np.sqrt(nu / (nu - 2.0)))


def _t1_ppf(u, nu):
    return stdtrit(nu, u) / np.sqrt(nu / (nu - 2.0))


def sstd_logpdf(z, nu: float, gamma: float):
    m, s = sstd_moments(nu, gamma)
    x = m + s * np.asarray(z, dtype=np.float64)
    scaled = np.where(x >= 0, x / gamma, x * gamma)
    out = (
        np.log(2.0 / (gamma + 1.0 / gamma))
        + _t1_logpdf(scaled, nu)
        + np.log(s)
    )
    return out if out.shape else float(out)


def sstd_pdf(z, nu: float, gamma: float):
    return np.exp(sstd_logpdf(z, nu, gamma))


def sstd_cdf(z, nu: float, gamma: float):
    m, s = sstd_moments(nu, gamma)
    x = m + s * np.asarray(z, dtype=np.float64)
    w = 2.0 / (gamma + 1.0 / gamma)
    neg = w / gamma * _t1_cdf(x * gamma, nu)
    pos = 1.0 - w * gamma * (1.0 - _t1_cdf(x / gamma, nu))
    out = np.where(x < 0, neg, pos)
    return out if out.shape else float(out)


def sstd_quantile(prob, nu: float, gamma: float):
    """Inverse CDF of the standardized skew-t.

    Raises PoolmaxError where the Student-t quantile is not finite.
    """
    m, s = sstd_moments(nu, gamma)
    prob = np.asarray(prob, dtype=np.float64)
    if np.any((prob <= 0) | (prob >= 1)):
        raise PoolmaxError("prob must lie in (0, 1)")
    split = 1.0 / (1.0 + gamma**2)
    w = 2.0 / (gamma + 1.0 / gamma)
    # guard both branch arguments into (0, 1); np.where evaluates both
    lo = np.clip(prob / (w / gamma), 1e-300, 1 - 1e-16)
    hi = np.clip(1.0 - (1.0 - prob) / (w * gamma), 1e-16, 1 - 1e-16)
    x = np.where(
        prob < split,
        _t1_ppf(lo, nu) / gamma,
        _t1_ppf(hi, nu) * gamma,
    )
    # stdtrit overflows to +inf far in the lower tail (below p ~ 1e-241 at nu = 3)
    overflow = ~np.isfinite(x)
    if overflow.any():
        raise PoolmaxError(
            f"no finite quantile at p={float(prob[overflow][0])!r} for nu={float(nu)!r}"
        )
    out = (x - m) / s
    return out if out.shape else float(out)
