import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from conftest import use_scipy_stats_t
from poolmax.errors import PoolmaxError
from poolmax.sstd import sstd_cdf, sstd_logpdf, sstd_pdf, sstd_quantile


def test_symmetric_case_is_median_zero():
    assert sstd_quantile(0.5, 7.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    for p in (0.01, 0.1, 0.3):
        assert sstd_quantile(p, 7.0, 1.0) == pytest.approx(
            -sstd_quantile(1 - p, 7.0, 1.0), abs=1e-10
        )


def test_normal_limit():
    assert sstd_quantile(0.975, 1e6, 1.0) == pytest.approx(norm.ppf(0.975), abs=0.01)


@pytest.mark.parametrize("nu", [3.0, 5.0, 10.0])
@pytest.mark.parametrize("gamma", [0.7, 1.0, 1.5])
def test_quantile_cdf_roundtrip(nu, gamma):
    probs = np.linspace(0.001, 0.999, 25)
    back = sstd_cdf(sstd_quantile(probs, nu, gamma), nu, gamma)
    assert np.max(np.abs(back - probs)) < 1e-8


def test_roundtrip_example_gamma2():
    q = sstd_quantile(0.99, 5.0, 2.0)
    assert sstd_cdf(q, 5.0, 2.0) == pytest.approx(0.99, abs=1e-8)


@pytest.mark.parametrize("nu,gamma", [(5.0, 0.8), (8.0, 1.5)])
def test_standardized_moments(nu, gamma):
    mean, err = quad(lambda z: z * sstd_pdf(z, nu, gamma), -200, 200, limit=800)
    var, _ = quad(lambda z: z**2 * sstd_pdf(z, nu, gamma), -200, 200, limit=800)
    assert mean == pytest.approx(0.0, abs=1e-6)
    assert var == pytest.approx(1.0, abs=1e-3)


def test_density_integrates_to_one():
    total, _ = quad(lambda z: sstd_pdf(z, 4.0, 1.3), -80, 80, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_logpdf_matches_pdf():
    z = np.linspace(-4, 4, 9)
    assert np.allclose(np.exp(sstd_logpdf(z, 6.0, 0.9)), sstd_pdf(z, 6.0, 0.9))


def test_bad_params():
    with pytest.raises(PoolmaxError, match=r"^need nu > 2, got 1\.5$"):
        sstd_quantile(0.5, 1.5, 1.0)
    with pytest.raises(PoolmaxError, match=r"^need gamma > 0, got -1\.0$"):
        sstd_quantile(0.5, 5.0, -1.0)
    with pytest.raises(PoolmaxError, match=r"^prob must lie in \(0, 1\)$"):
        sstd_quantile(1.5, 5.0, 1.0)


Z_GRID = np.concatenate([
    [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, 1e-300, -1e-300],
    np.linspace(-40.0, 40.0, 161),
    np.random.default_rng(0).standard_normal(200) * 3.0,
])
P_GRID = np.concatenate([
    [1e-300, 1e-12, 1e-3, 0.5, 1 - 1e-12, 1 - 1e-16],
    np.random.default_rng(1).uniform(size=200),
])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("nu", [2.05, 3.0, 8.0, 100.0, 1e6])
@pytest.mark.parametrize("gamma", [0.1, 0.7, 1.0, 1.5, 10.0])
def test_bitwise_equal_to_scipy_stats_t(nu, gamma, monkeypatch):
    """The scipy.special kernels give the bytes of the scipy.stats.t form.

    GARCH fits depend on the likelihood to the last bit (see the module
    docstring), so a scipy release that changes `t._logpdf`, `t._cdf` or
    `t._ppf` must fail here rather than move every fitted forecast.  At
    p = 1e-300 the quantile overflows for nu <= 8, and both forms raise
    the same error there.
    """
    overflows = P_GRID == 1e-300 if nu <= 8 else np.zeros(P_GRID.size, dtype=bool)

    def values():
        arrays = [sstd_logpdf(Z_GRID, nu, gamma), sstd_cdf(Z_GRID, nu, gamma),
                  sstd_quantile(P_GRID[~overflows], nu, gamma)]
        scalars = [f(z, nu, gamma) for f in (sstd_logpdf, sstd_cdf)
                   for z in (0.0, -0.0, 1.7, -2.3)]
        scalars.append(sstd_quantile(0.01, nu, gamma))
        errors = []
        for p in P_GRID[overflows]:
            with pytest.raises(PoolmaxError, match="^no finite quantile at p=") as info:
                sstd_quantile(p, nu, gamma)
            errors.append(str(info.value))
        return ([a.tobytes() for a in arrays] + [np.float64(v).tobytes() for v in scalars]
                + errors)

    got = values()
    use_scipy_stats_t(monkeypatch)
    assert got == values()


def test_tiny_probability_raises_instead_of_inf():
    """stdtrit overflows to +inf below p ~ 1e-241 at nu = 3: no silent +inf VaR."""
    message = r"no finite quantile at p=1e-250 for nu=3\.0"
    with pytest.raises(PoolmaxError, match=message):
        sstd_quantile(1e-250, 3.0, 1.0)
    with pytest.raises(PoolmaxError, match=message):
        sstd_quantile(np.array([0.5, 1e-250, 0.01]), 3.0, 1.0)
    assert np.isfinite(sstd_quantile(np.array([1e-200, 1 - 1e-16]), 3.0, 1.0)).all()
