from fractions import Fraction

import numpy as np
import pytest

from poolmax import riskmodels, sstd
from poolmax.riskmodels import GarchParams, garch_filter, garch_simulate


def window_matrix(p: int, q: int) -> list:
    """The p x p 0/1 matrix whose row ell indicates the circular window
    {ell, ..., ell+q-1} mod p."""
    return [[int((c - ell) % p < q) for c in range(p)] for ell in range(p)]


def rational_rank(rows: list) -> int:
    """Exact rank over the rationals, by Gaussian elimination in Fractions.

    The identifiability oracle: independent of the closed form in
    `verify_identifiability`, and too slow for anything but small p.
    """
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def use_scipy_stats_t(monkeypatch):
    """Route sstd's unit-variance Student-t kernels through scipy.stats.t.

    The reference for the bitwise tests: sstd evaluates the same kernels
    with scipy.special directly, without the scipy.stats wrapper.
    """
    from scipy.stats import t as student_t

    def t1_logpdf(x, nu):
        c = np.sqrt(nu / (nu - 2.0))
        return student_t.logpdf(np.asarray(x) * c, df=nu) + np.log(c)

    def t1_cdf(x, nu):
        return student_t.cdf(np.asarray(x) * np.sqrt(nu / (nu - 2.0)), df=nu)

    def t1_ppf(u, nu):
        return student_t.ppf(u, df=nu) / np.sqrt(nu / (nu - 2.0))

    monkeypatch.setattr(sstd, "_t1_logpdf", t1_logpdf)
    monkeypatch.setattr(sstd, "_t1_cdf", t1_cdf)
    monkeypatch.setattr(sstd, "_t1_ppf", t1_ppf)


def reference_nll(theta, u, sig2_init):
    """The GARCH negative log-likelihood at one point, _BIG where inadmissible.

    The one-point form that riskmodels batches: the reference of the
    bitwise tests of `_nll_and_grad` and of `use_scipy_finite_differences`.
    """
    a0, a1, b0, b1, b2, nu, gamma = theta.tolist()
    if b1 + b2 > 0.999 or b0 <= 0 or nu <= 2.05 or gamma <= 0:
        return riskmodels._BIG
    try:
        params = GarchParams(a0, a1, b0, b1, b2, nu, gamma)
    except ValueError:
        return riskmodels._BIG
    _, vol, z = garch_filter(u, params, sig2_init=sig2_init)
    ll = sstd.sstd_logpdf(z, nu, gamma) - np.log(vol)
    total = ll.sum()
    if not np.isfinite(total):
        return riskmodels._BIG
    return -total


def use_scipy_finite_differences(monkeypatch):
    """Fit with L-BFGS-B's own finite differences of `reference_nll`.

    Replaces `riskmodels.minimize`, the L-BFGS-B driver, by scipy's
    `minimize` with method L-BFGS-B on the one-point likelihood with no
    gradient, so scipy differences it itself and counts its evaluations
    against its default maxfun: the reference for the bitwise tests of the
    batched gradient and of the driver.
    """
    from scipy.optimize import minimize

    def fd_minimize(fun, x0, args, bounds, maxiter, maxfun):
        u, sig2_init, _, _ = args
        return minimize(reference_nll, x0, args=(u, sig2_init), method="L-BFGS-B",
                        bounds=bounds, options={"maxiter": maxiter})

    monkeypatch.setattr(riskmodels, "minimize", fd_minimize)


@pytest.fixture(scope="session")
def garch_path():
    params = GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85)
    # 3000 days after a 500-day burn-in
    z = np.random.default_rng(12345).standard_normal(3500)
    return params, garch_simulate(params, z)[500:]
