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
from poolmax.simlab import DgpSpec, generate_panel, sigma1, sigma2


def test_sigma1_values():
    assert np.array_equal(sigma1(2), [[1, 0.7], [0.7, 1]])
    s3 = sigma1(3)
    assert s3[0, 1] == 0.7 and s3[2, 0] == 0 and s3[2, 1] == 0
    assert np.array_equal(sigma1(1), [[1.0]])


def test_sigma2_values():
    assert np.array_equal(sigma2(2), [[1, 0.5], [0.5, 1]])
    assert sigma2(3)[0, 2] == 0.25
    assert np.array_equal(sigma2(1), [[1.0]])


# The paper's models, written out here as the reference that generate_panel
# must match bit for bit (test_generate_panel_bitwise_equal_to_the_reference).

def _gaussian(n, cov, rng):
    """n i.i.d. rows from N(0, cov), through its Cholesky root."""
    return rng.generator().standard_normal((n, cov.shape[0])) @ np.linalg.cholesky(cov).T


def _theta(p, p0, under_null):
    """The A models' exceedance probabilities: all 0.01, or p0 raised to
    0.025 and the next 3*p0 lowered to 0.005."""
    theta = np.full(p, 0.01)
    if not under_null:
        theta[:p0] = 0.025
        theta[p0:4 * p0] = 0.005
    return theta


def _mu(p, p0, under_null):
    """The B models' mean shifts: all 0, or p0 at -0.0075 and the next p0 at 0.0075."""
    mu = np.zeros(p)
    if not under_null:
        mu[:p0] = -0.0075
        mu[p0:2 * p0] = 0.0075
    return mu


def _g(x, alpha_n):
    """The piecewise-linear map of [0, 1] onto [-1, 1], its left branch closed
    at 1 - alpha_n."""
    body = (2 * alpha_n / (1 - alpha_n)) * x - alpha_n
    tail = (2 / alpha_n) * x + 1 - 2 / alpha_n
    return np.where(x <= 1 - alpha_n, body, tail)


def _reference_panel(spec, rng):
    from scipy.stats import norm

    cov = sigma1(spec.p) if spec.model in ("A1", "B1") else sigma2(spec.p)
    z = _gaussian(spec.n, cov, rng)
    if spec.model.startswith("A"):
        theta = _theta(spec.p, spec.p0, spec.under_null)
        return (z > norm.ppf(1 - theta)).astype(np.float64) - 0.01
    return _g(norm.cdf(z), spec.alpha_n) - _mu(spec.p, spec.p0, spec.under_null)


class _Drawn:
    """In place of an RngSpec: its generator's standard normals are `z`."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=np.float64)

    def generator(self):
        return self

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z


def _one_column(model, z, alpha_n=0.01):
    """generate_panel's null panel of one column, whose Cholesky root is 1,
    from the standard normals z."""
    z = np.asarray(z, dtype=np.float64)[:, None]
    return generate_panel(DgpSpec(model, len(z), 1, 0, True, RngSpec(0), alpha_n), _Drawn(z))[:, 0]


@pytest.mark.parametrize("model", ["A1", "A2", "B1", "B2"])
@pytest.mark.parametrize("under_null", [True, False], ids=["null", "alternative"])
@pytest.mark.parametrize("n, p, p0, alpha_n", [(2, 1, 0, 0.01), (3, 2, 0, 0.2), (40, 12, 3, 0.01),
                                               (300, 150, 20, 0.2), (50, 999, 100, 0.01)])
def test_generate_panel_bitwise_equal_to_the_reference(model, under_null, n, p, p0, alpha_n):
    spec = DgpSpec(model, n, p, p0, under_null, RngSpec(3), alpha_n)
    rng = RngSpec(9, 4)
    x = generate_panel(spec, rng)
    assert x.dtype == np.float64 and x.flags.c_contiguous and x.shape == (n, p)
    assert x.tobytes() == _reference_panel(spec, rng).tobytes()


def test_sample_gaussian_moments():
    """The reference's Gaussian rows, and so generate_panel's, have covariance Sigma."""
    x = _gaussian(10**5, np.eye(3), RngSpec(1))
    assert np.all(np.abs(x.mean(axis=0)) < 0.02)
    assert np.all(np.abs(x.var(axis=0) - 1) < 0.03)
    y = _gaussian(10**5, sigma1(4), RngSpec(2))
    assert np.corrcoef(y[:, 0], y[:, 1])[0, 1] == pytest.approx(0.7, abs=0.02)
    assert np.array_equal(y, _gaussian(10**5, sigma1(4), RngSpec(2)))


def test_theta_profile():
    alt = _theta(100, 20, under_null=False)
    assert (alt[:20] == 0.025).all()
    assert (alt[20:80] == 0.005).all()
    assert (alt[80:] == 0.01).all()
    assert alt.mean() == pytest.approx(0.01, abs=1e-15)
    assert (_theta(100, 20, under_null=True) == 0.01).all()
    x = generate_panel(DgpSpec("A2", 10**5, 8, 2, False, RngSpec(3)), RngSpec(4))
    assert np.abs(x.mean(axis=0) - (_theta(8, 2, False) - 0.01)).max() < 0.002
    with pytest.raises(PoolmaxError, match=r"^need 4\*p0 <= p, got p0=30, p=100$"):
        DgpSpec("A1", 50, 100, 30, False, RngSpec(0))


def test_mu_profile_balances():
    mu = _mu(50, 10, under_null=False)
    assert mu.sum() == 0.0
    assert (mu[:10] == -0.0075).all() and (mu[10:20] == 0.0075).all()
    assert (_mu(50, 10, under_null=True) == 0).all()
    x = generate_panel(DgpSpec("B1", 10**5, 8, 2, False, RngSpec(3)), RngSpec(4))
    assert np.abs(x.mean(axis=0) + _mu(8, 2, False)).max() < 0.001
    with pytest.raises(PoolmaxError, match=r"^need 2\*p0 <= p, got p0=26, p=50$"):
        DgpSpec("B2", 50, 50, 26, False, RngSpec(0))


def test_model_a_values():
    """A normal draw above z_0.99 is a hit, 0.99; one below it is -0.01."""
    x = _one_column("A1", [3.0, -1.0, 2.3])
    assert x[0] == pytest.approx(0.99)
    assert x[1] == pytest.approx(-0.01) and x[2] == pytest.approx(-0.01)


def test_model_a_null_mean():
    x = generate_panel(DgpSpec("A1", 10**6, 1, 0, True, RngSpec(6)), RngSpec(3))
    assert abs(x.mean()) < 0.0005


def test_g_transform_values():
    """g at 0, on either side of 1 - alpha_n, at 1 - alpha_n / 2 and at 1:
    Phi of -inf, z_0.99 -+ 1e-6, z_0.995 and inf."""
    z99, z995 = simlab.ndtri(0.99), simlab.ndtri(0.995)
    x = _one_column("B1", [-np.inf, z99 - 1e-6, z99 + 1e-6, z995, np.inf])
    assert x[0] == pytest.approx(-0.01)
    assert x[1] == pytest.approx(0.01, abs=1e-6)
    assert x[2] == pytest.approx(-1.0, abs=1e-5)
    assert x[3] == pytest.approx(0.0, abs=1e-12)
    assert x[4] == pytest.approx(1.0)
    with pytest.raises(PoolmaxError, match=r"^alpha_n must lie in \(0, 0\.5\)$"):
        DgpSpec("B1", 50, 10, 1, True, RngSpec(0), alpha_n=0.7)


def test_g_transform_mixture_law():
    x = generate_panel(DgpSpec("B1", 10**6, 1, 0, True, RngSpec(6)), RngSpec(4))
    assert abs(x.mean()) < 0.001
    # tail mass beyond alpha_n comes only from the wide uniform component
    frac = np.mean(np.abs(x) > 0.01)
    assert frac == pytest.approx(0.01 * 0.99, abs=0.002)
    assert x.min() >= -1 and x.max() <= 1


def test_model_b_center_value():
    assert _one_column("B2", [0.0, 0.0])[0] == pytest.approx((0.02 / 0.99) * 0.5 - 0.01)


def test_model_b_null_mean_and_range():
    x = generate_panel(DgpSpec("B2", 2 * 10**5, 3, 0, True, RngSpec(6)), RngSpec(5))
    assert np.all(np.abs(x.mean(axis=0)) < 0.001)
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

    scipy.stats is imported in the tests only: the library calls the
    scipy.special ufuncs that norm.ppf, norm.cdf and norm.sf (as ndtr(-x))
    evaluate.
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

