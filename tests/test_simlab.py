import numpy as np
import pytest

from poolmax import RngSpec, run_sweep
from poolmax.errors import NotCoprimeError, PoolmaxError
from poolmax.simlab import (
    DgpSpec,
    g_transform,
    generate_panel,
    model_a,
    model_b,
    mu_profile,
    sample_gaussian,
    sigma1,
    sigma2,
    theta_profile,
)


def test_sigma1_values():
    assert np.array_equal(sigma1(2), [[1, 0.7], [0.7, 1]])
    s3 = sigma1(3)
    assert s3[0, 1] == 0.7 and s3[2, 0] == 0 and s3[2, 1] == 0
    assert np.array_equal(sigma1(1), [[1.0]])


def test_sigma2_values():
    assert np.array_equal(sigma2(2), [[1, 0.5], [0.5, 1]])
    assert sigma2(3)[0, 2] == 0.25
    assert np.array_equal(sigma2(1), [[1.0]])


def test_sample_gaussian_moments():
    x = sample_gaussian(10**5, np.eye(3), RngSpec(1))
    assert np.all(np.abs(x.mean(axis=0)) < 0.02)
    assert np.all(np.abs(x.var(axis=0) - 1) < 0.03)
    y = sample_gaussian(10**5, sigma1(4), RngSpec(2))
    assert np.corrcoef(y[:, 0], y[:, 1])[0, 1] == pytest.approx(0.7, abs=0.02)
    assert np.array_equal(y, sample_gaussian(10**5, sigma1(4), RngSpec(2)))


def test_theta_profile():
    alt = theta_profile(100, 20, under_null=False)
    assert (alt[:20] == 0.025).all()
    assert (alt[20:80] == 0.005).all()
    assert (alt[80:] == 0.01).all()
    assert alt.mean() == pytest.approx(0.01, abs=1e-15)
    assert (theta_profile(100, 20, under_null=True) == 0.01).all()
    with pytest.raises(PoolmaxError, match=r"^need 4\*p0 <= p, got p0=30, p=100$"):
        theta_profile(100, 30, under_null=False)


def test_mu_profile_balances():
    mu = mu_profile(50, 10, under_null=False)
    assert mu.sum() == 0.0
    assert (mu[:10] == -0.0075).all() and (mu[10:20] == 0.0075).all()
    assert (mu_profile(50, 10, under_null=True) == 0).all()


def test_model_a_values():
    z = np.array([[1.0], [-1.0]])
    x = model_a(z, [0.5])
    assert x[0, 0] == pytest.approx(0.99)
    assert x[1, 0] == pytest.approx(-0.01)


def test_model_a_null_mean():
    z = sample_gaussian(10**6, np.eye(1), RngSpec(3))
    x = model_a(z, [0.01])
    assert abs(x.mean()) < 0.0005


def test_g_transform_values():
    assert g_transform(0.0, 0.01) == pytest.approx(-0.01)
    assert g_transform(0.995, 0.01) == pytest.approx(0.0, abs=1e-12)
    assert g_transform(1.0, 0.01) == pytest.approx(1.0)
    with pytest.raises(PoolmaxError, match=r"^x must lie in \[0, 1\]$"):
        g_transform(1.5, 0.01)
    with pytest.raises(PoolmaxError, match=r"^alpha_n must lie in \(0, 0\.5\)$"):
        g_transform(0.5, 0.7)


def test_g_transform_mixture_law():
    u = RngSpec(4).generator().uniform(size=10**6)
    g = g_transform(u, 0.01)
    assert abs(g.mean()) < 0.001
    # tail mass beyond alpha_n comes only from the wide uniform component
    frac = np.mean(np.abs(g) > 0.01)
    assert frac == pytest.approx(0.01 * 0.99, abs=0.002)
    assert g.min() >= -1 and g.max() <= 1


def test_model_b_center_value():
    z = np.zeros((2, 1))
    x = model_b(z, [0.0], 0.01)
    assert x[0, 0] == pytest.approx((0.02 / 0.99) * 0.5 - 0.01)


def test_model_b_null_mean_and_range():
    z = sample_gaussian(10**6, np.eye(1), RngSpec(5))
    x = model_b(z, [0.0], 0.01)
    assert abs(x.mean()) < 0.001
    assert x.min() >= -1 and x.max() <= 1


def test_generate_panel_shapes():
    for model in ("A1", "A2", "B1", "B2"):
        spec = DgpSpec(model, 50, 12, 3, True, RngSpec(6))
        x = generate_panel(spec, RngSpec(7))
        assert x.shape == (50, 12)


def test_run_sweep_empty_and_small():
    # continuous model: indicator panels this small can be degenerate
    spec = DgpSpec("B1", 50, 9, 2, True, RngSpec(8))
    assert run_sweep(spec, [2], [9], mc_reps=0).rows == []
    res = run_sweep(spec, [2], [9], alpha=0.2, B=20, mc_reps=3)
    assert {r["method"] for r in res.rows} == {"subsets-pool", "naive", "marginal"}
    for r in res.rows:
        assert 0 <= r["reject_rate"] <= 1
    again = run_sweep(spec, [2], [9], alpha=0.2, B=20, mc_reps=3)
    assert res.rows == again.rows


def test_run_sweep_rejects_non_coprime_q():
    spec = DgpSpec("A1", 50, 10, 2, True, RngSpec(8))
    with pytest.raises(NotCoprimeError):
        run_sweep(spec, [5], [20], mc_reps=1)


def test_sweep_csv(tmp_path):
    spec = DgpSpec("B1", 40, 5, 1, True, RngSpec(9))
    res = run_sweep(spec, [2], [5], B=10, mc_reps=2, methods=("naive",))
    out = tmp_path / "sweep.csv"
    res.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "model,q,d,method,alpha,mc_reps,reject_rate"
    assert len(lines) == 2


def test_normal_functions_bitwise_equal_to_scipy_stats_norm():
    """simlab's ndtri and ndtr give the bytes of norm.ppf and norm.cdf.

    scipy.stats is imported here only: the library calls the scipy.special
    functions that norm.ppf, norm.cdf and norm.sf (as ndtr(-x)) evaluate.
    """
    from scipy.special import ndtr, ndtri
    from scipy.stats import norm

    gen = np.random.default_rng(11)
    q = np.concatenate([[0.0, 1e-300, 1e-16, 0.5, 1 - 1e-16, 1.0], gen.uniform(size=500)])
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -40.0, 40.0],
                        gen.standard_normal(500) * 5])
    assert ndtri(q).tobytes() == norm.ppf(q).tobytes()
    assert ndtr(x).tobytes() == norm.cdf(x).tobytes()
    assert ndtr(-x).tobytes() == norm.sf(x).tobytes()

    z = np.column_stack([x[:500], gen.standard_normal(500), x[9:509] * 0.1])
    thetas = np.array([1e-300, 0.01, 1 - 1e-16])
    want_a = (z > norm.ppf(1 - thetas)).astype(np.float64) - 0.01
    assert model_a(z, thetas).tobytes() == want_a.tobytes()
    mus = np.array([0.0, 0.0075, -0.0075])
    want_b = g_transform(norm.cdf(z), 0.01) - mus
    assert model_b(z, mus).tobytes() == want_b.tobytes()
