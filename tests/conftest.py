import numpy as np
import pytest

from poolmax import riskmodels, sstd
from poolmax.riskmodels import GarchParams, garch_filter


def simulate_ar_garch(params: GarchParams, n: int, rng: np.random.Generator,
                      burn: int = 500) -> np.ndarray:
    """Reference AR(1)-GARCH(1,1) path with Gaussian innovations.

    Step-by-step recursion independent of the filter implementation; used
    as the simulate-and-refit oracle.
    """
    total = n + burn
    z = rng.standard_normal(total)
    u = np.empty(total)
    sig2 = params.b0 / (1 - params.b1 - params.b2)
    prev = params.a0 / (1 - params.a1)
    for t in range(total):
        mu = params.a0 + params.a1 * prev
        eps = np.sqrt(sig2) * z[t]
        u[t] = mu + eps
        sig2 = params.b0 + params.b1 * eps**2 + params.b2 * sig2
        prev = u[t]
    return u[burn:]


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

    Replaces `riskmodels.minimize` by scipy's `minimize` on the one-point
    likelihood with no gradient, so scipy differences it itself: the
    reference for the bitwise tests of the batched gradient.
    """
    from scipy.optimize import minimize

    def fd_minimize(fun, x0, args, jac, method, bounds, options):
        u, sig2_init, _, _ = args
        return minimize(reference_nll, x0, args=(u, sig2_init), method=method,
                        bounds=bounds, options={"maxiter": options["maxiter"]})

    monkeypatch.setattr(riskmodels, "minimize", fd_minimize)


@pytest.fixture(scope="session")
def garch_path():
    params = GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85)
    return params, simulate_ar_garch(params, 3000, np.random.default_rng(12345))
