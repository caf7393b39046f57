import re

import numpy as np
import pytest

from poolmax import (
    BootstrapConfig,
    RngSpec,
    build_family,
    marginal_test,
    pool_test,
    run_sweep,
    simlab,
    substream,
)
from poolmax.errors import DegenerateVarianceError, PoolmaxError, SubsetDesignError
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


def test_sample_gaussian_rejects_a_covariance_cholesky_rejects():
    with pytest.raises(PoolmaxError, match="^Cholesky factorization failed: "
                       "Matrix is not positive definite$"):
        sample_gaussian(5, [[1.0, 1.0], [1.0, 1.0]], RngSpec(0))


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
    with pytest.raises(SubsetDesignError, match="^p=10 and q=5 are not coprime; try q=3$"):
        run_sweep(spec, [5], [20], mc_reps=1)


@pytest.fixture
def no_reps(monkeypatch):
    """Make any repetition of run_sweep fail."""
    def no_rep(*args):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(simlab, "generate_panel", no_rep)


@pytest.mark.parametrize("q_grid, d_grid, methods, message", [
    ([7, 7], [40], ("naive",), "q_grid lists 7 more than once"),
    ([3, 7, 3], [40], ("naive",), "q_grid lists 3 more than once"),
    ([7], [40, 20, 40], ("naive",), "d_grid lists 40 more than once"),
    ([7], [40], ("naive", "marginal", "naive"), "methods lists 'naive' more than once"),
    ([7], [40], ("nave",), "unknown method 'nave'; expected one of subsets-pool, naive, marginal"),
], ids=["q", "q-apart", "d", "method", "unknown-method"])
def test_run_sweep_rejects_repeated_or_unknown_before_any_rep(no_reps, q_grid, d_grid,
                                                               methods, message):
    spec = DgpSpec("B1", 40, 20, 2, True, RngSpec(8))
    with pytest.raises(PoolmaxError, match=f"^{re.escape(message)}$"):
        run_sweep(spec, q_grid, d_grid, B=10, mc_reps=2, methods=methods)


@pytest.mark.parametrize("alpha, B, methods, message", [
    (0.0, 10, ("naive",), "alpha must lie in (0, 1)"),
    (1.0, 10, ("subsets-pool", "naive", "marginal"), "alpha must lie in (0, 1)"),
    (0.05, 0, ("marginal",), "replicates must be >= 1"),
    (0.05, 0, ("naive", "subsets-pool"), "replicates must be >= 1"),
], ids=["alpha-0", "alpha-1", "B-marginal", "B-pool"])
@pytest.mark.parametrize("mc_reps", [0, 2])
def test_run_sweep_checks_alpha_and_B_before_any_rep(no_reps, alpha, B, methods, message,
                                                     mc_reps):
    spec = DgpSpec("B1", 40, 20, 2, True, RngSpec(8))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(spec, [7], [40], alpha=alpha, B=B, mc_reps=mc_reps, methods=methods)


@pytest.mark.parametrize("d_grid, mc_reps", [([20.0], 2), ([20.5], 2), ([20], 0.0)],
                         ids=["d-integral-float", "d-fraction", "mc_reps-float"])
def test_run_sweep_rejects_fractional_counts_before_any_rep(no_reps, d_grid, mc_reps):
    spec = DgpSpec("B1", 40, 20, 2, True, RngSpec(8))
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        run_sweep(spec, [3], d_grid, B=50, mc_reps=mc_reps, methods=("naive",))


def test_run_sweep_rows_hold_python_numbers():
    """numpy grid values, mc_reps and alpha give the rows, and the bytes, of
    Python ones."""
    spec = DgpSpec("B1", 40, 20, 2, True, RngSpec(8))
    want = run_sweep(spec, [3], [20], B=50, mc_reps=2)
    got = run_sweep(spec, np.array([3]), np.array([20]), alpha=np.float64(0.05), B=np.int64(50),
                    mc_reps=np.int64(2))
    assert got.to_json() == want.to_json() and got.to_csv() == want.to_csv()
    assert all(type(row[k]) is int for row in got.rows for k in ("q", "d", "mc_reps"))
    single = run_sweep(spec, [3], [20], alpha=np.float32(0.05), B=50, mc_reps=2)
    assert [type(row["alpha"]) for row in single.rows] == [float] * 3
    single.to_json()


def test_run_sweep_needs_no_B_without_a_bootstrap():
    spec = DgpSpec("B1", 40, 20, 2, True, RngSpec(8))
    assert len(run_sweep(spec, [7], [40], B=0, mc_reps=2, methods=("naive",)).rows) == 1


def _verdicts_by_the_tests(spec, q, d, alpha, B):
    """Repetition 0 of run_sweep, through pool_test and marginal_test:
    method -> '1' or '0', or 'E' where the test raised DegenerateVarianceError."""
    rep_rng = substream(spec.rng, 0)
    x = generate_panel(spec, substream(rep_rng, 0))
    fam = build_family(spec.p, q, d, substream(rep_rng, 2))
    tests = {"marginal": lambda: marginal_test(x, alpha, BootstrapConfig(substream(rep_rng, 1), B)),
             "subsets-pool": lambda: pool_test(x, fam, alpha,
                                               BootstrapConfig(substream(rep_rng, 3), B))}
    out = {}
    for m, test in tests.items():
        try:
            out[m] = str(int(test().reject))
        except DegenerateVarianceError:
            out[m] = "E"
    return out


@pytest.mark.parametrize("model", ["A1", "A2", "B1", "B2"])
@pytest.mark.parametrize("under_null", [True, False], ids=["null", "alternative"])
def test_run_sweep_verdicts_equal_the_tests(model, under_null):
    """run_sweep stops each bootstrap early, with the verdicts of the tests."""
    seen = set()
    for seed in range(6):
        spec = DgpSpec(model, 400, 20, 4, under_null, RngSpec(seed))
        want = _verdicts_by_the_tests(spec, 7, 40, 0.05, 400)
        for m, verdict in want.items():
            try:
                rate = run_sweep(spec, [7], [40], B=400, mc_reps=1, methods=(m,)).rate(7, 40, m)
                got = str(int(rate))
            except DegenerateVarianceError:
                got = "E"
            assert got == verdict, (seed, m)
            seen.add(verdict)
    assert ("0" if under_null else "1") in seen


# Verdicts of repetitions 0-5 (n=400, p=20, p0=4, seed 11, alpha=0.2),
# recorded before `_rep_outcomes` existed by differencing run_sweep's counts
# at mc_reps r and r + 1, one method at a time: '1' reject, '0' accept, 'E' a
# DegenerateVarianceError, after which that method's sweeps raise.  Per
# (model, under_null, B): the naive and the marginal verdicts (the same at
# every grid point), the pool verdicts per grid point of PIN_GRID, and the
# marginal test's error message.  At B = 50 no marginal verdict here hangs on
# its weights, so the two B = 2 designs, whose critical values are the
# weights' own, pin the marginal test's stream.
PIN_GRID = [(3, 20), (3, 40), (7, 20), (7, 40)]
PINNED = {
    ("A1", True, 50): ("000000", "1111E",
                       ("001010", "001010", "000000", "000010"),
                       "zero variance estimate (subset/column 13)"),
    ("A1", False, 50): ("100000", "E",
                        ("111111", "111111", "111111", "111111"),
                        "zero variance estimate (subset/column 14)"),
    ("A2", True, 50): ("000000", "10E",
                       ("001001", "001001", "000001", "001001"),
                       "zero variance estimate (subset/column 3)"),
    ("A2", False, 50): ("010000", "E",
                        ("111111", "111111", "111111", "111111"),
                        "zero variance estimate (subset/column 8)"),
    ("B1", True, 50): ("000000", "000000",
                       ("000000", "000100", "000000", "000100"),
                       None),
    ("B1", False, 50): ("000000", "111111",
                        ("111111", "111111", "111111", "111111"),
                        None),
    ("B2", True, 50): ("100001", "000000",
                       ("001000", "001000", "101000", "100001"),
                       None),
    ("B2", False, 50): ("100001", "111111",
                        ("111111", "111111", "111111", "101111"),
                        None),
    ("B1", True, 2): ("000000", "100000",
                      ("101011", "000100", "110001", "010100"),
                      None),
    ("B2", True, 2): ("100001", "000000",
                      ("110000", "001000", "111001", "101011"),
                      None),
}


@pytest.mark.parametrize("model, under_null, B", list(PINNED))
def test_rep_outcomes_pinned(model, under_null, B):
    """Each repetition keeps its verdicts, so its stream layout: the panel,
    the marginal weights and each grid point's family and weights."""
    spec = DgpSpec(model, 400, 20, 4, under_null, RngSpec(11))
    naive, marginal, pool, error = PINNED[(model, under_null, B)]
    pinned = {"naive": dict.fromkeys(PIN_GRID, naive),
              "marginal": dict.fromkeys(PIN_GRID, marginal),
              "subsets-pool": dict(zip(PIN_GRID, pool))}

    def verdicts(rep, methods):
        outcomes = simlab._rep_outcomes(spec, rep, PIN_GRID, methods, 0.2, B)
        return {key: str(int(reject)) for key, reject in outcomes.items()}

    def raises_error(rep, methods):
        with pytest.raises(DegenerateVarianceError, match=f"^{re.escape(error)}$"):
            verdicts(rep, methods)

    for rep in range(6):
        want = {(q, d, m): s[rep:rep + 1] for m, strings in pinned.items()
                for (q, d), s in strings.items()}
        for m in pinned:
            mine = {key: v for key, v in want.items() if key[2] == m}
            if set(mine.values()) == {"E"}:
                raises_error(rep, (m,))
            elif set(mine.values()) != {""}:
                assert verdicts(rep, (m,)) == mine, (rep, m)
        # all three methods at once: the marginal's error comes before any pool test
        if marginal[rep:rep + 1] == "E":
            raises_error(rep, simlab.METHODS)
        elif marginal[rep:rep + 1]:
            assert verdicts(rep, simlab.METHODS) == want, rep


def test_rep_outcomes_depend_on_the_rep_alone(monkeypatch):
    """Rep 7 of an 8-rep sweep gets the verdicts of `_rep_outcomes` for rep 7
    alone, and the sweep's rates are the means of its reps' verdicts."""
    spec = DgpSpec("B2", 200, 20, 4, True, RngSpec(5))
    kernel = simlab._rep_outcomes
    seen = []

    def spy(spec_, rep, *args):
        out = kernel(spec_, rep, *args)
        seen.append((rep, out))
        return out

    monkeypatch.setattr(simlab, "_rep_outcomes", spy)
    res = run_sweep(spec, [3, 7], [20, 40], alpha=0.2, B=50, mc_reps=8)
    assert [rep for rep, _ in seen] == list(range(8))
    assert seen[7][1] == kernel(spec, 7, [(3, 20), (3, 40), (7, 20), (7, 40)],
                                simlab.METHODS, 0.2, 50)
    for r in res.rows:
        key = (r["q"], r["d"], r["method"])
        assert r["reject_rate"] == sum(out[key] for _, out in seen) / 8


def test_sweep_csv():
    spec = DgpSpec("B1", 40, 5, 1, True, RngSpec(9))
    res = run_sweep(spec, [2], [5], B=10, mc_reps=2, methods=("naive",))
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "model,q,d,method,alpha,mc_reps,reject_rate"
    assert len(lines) == 2


def test_normal_functions_bitwise_equal_to_scipy_stats_norm():
    """simlab's ndtri and ndtr give the bytes of norm.ppf and norm.cdf.

    scipy.stats is imported here only: the library calls the scipy.special
    ufuncs that norm.ppf, norm.cdf and norm.sf (as ndtr(-x)) evaluate.
    """
    from scipy.stats import norm

    from poolmax.simlab import ndtr, ndtri

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
