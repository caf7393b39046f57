import numpy as np
import pytest
import scipy.stats
from scipy.optimize._numdiff import approx_derivative
from scipy.stats import genpareto

from conftest import reference_nll, use_scipy_finite_differences, use_scipy_stats_t
from poolmax import RngSpec, riskmodels
from poolmax.errors import DegenerateVarianceError, PoolmaxError
from poolmax.riskmodels import (
    GarchParams,
    VarMethod,
    empirical_var,
    evt_var,
    forecast_var,
    garch_filter,
    garch_fit,
    gpd_tail_fit,
    rolling_forecasts,
)


class TestFilter:
    def test_degenerate_recursion(self):
        params = GarchParams(a0=0.3, a1=0.0, b0=4.0, b1=0.0, b2=0.0)
        u = np.array([1.0, -2.0, 0.5, 3.0])
        mu, vol, z = garch_filter(u, params)
        assert np.allclose(mu, 0.3)
        assert np.allclose(vol, 2.0)
        assert np.allclose(z, (u - 0.3) / 2.0)

    def test_roundtrip_identity(self):
        params = GarchParams(a0=0.01, a1=0.2, b0=0.1, b1=0.15, b2=0.8)
        u = np.random.default_rng(0).standard_normal(500)
        mu, vol, z = garch_filter(u, params)
        assert np.max(np.abs(mu + vol * z - u)) < 1e-12

    def test_true_params_standardize(self, garch_path):
        params, u = garch_path
        _, _, z = garch_filter(u, params)
        assert z.var() == pytest.approx(1.0, abs=0.05)
        assert z.mean() == pytest.approx(0.0, abs=0.05)


class TestFit:
    def test_recovers_simulated_params(self, garch_path):
        params, u = garch_path
        fit = garch_fit(u)
        assert fit.b1 + fit.b2 == pytest.approx(0.95, abs=0.05)
        assert fit.a1 == pytest.approx(0.1, abs=0.05)
        assert np.max(np.abs(fit.cond_mean + fit.cond_vol * fit.residuals - u)) < 1e-12

    def test_refit_is_fixed_point(self, garch_path):
        _, u = garch_path
        fit = garch_fit(u)
        refit = garch_fit(u, init=GarchParams(fit.a0, fit.a1, fit.b0, fit.b1,
                                              fit.b2, fit.nu, fit.gamma))
        assert refit.loglik >= fit.loglik - 1e-6

    def test_reports_convergence(self, garch_path):
        _, u = garch_path
        fit = garch_fit(u[:1000])
        assert fit.converged is True
        assert fit.n_starts == 1  # the first start converged: no restarts
        assert fit.nit > 1
        assert fit.at_bound == ()

    def test_reports_non_convergence(self, garch_path):
        _, u = garch_path
        fit = garch_fit(u[:1000], max_iter=1)
        assert fit.converged is False
        assert fit.n_starts == 6  # the first start and 5 restarts
        assert fit.nit == 1
        assert np.isfinite(fit.loglik)

    def test_converged_fit_draws_no_restart_start(self, garch_path, monkeypatch):
        def no_generator(self):
            raise AssertionError("a restart stream was built for a converged fit")

        monkeypatch.setattr(RngSpec, "generator", no_generator)
        fit = garch_fit(garch_path[1][:1000])
        assert fit.converged is True
        assert fit.n_starts == 1

    def test_restart_starts_follow_one_stream(self, garch_path, monkeypatch):
        """The 5 restarts of an unconverged fit start from consecutive draws
        of RngSpec(0), seven per start, in parameter order."""
        u = garch_path[1][:1000]
        starts = []
        minimize = riskmodels.minimize

        def recording_minimize(fun, x0, **kwargs):
            starts.append(x0.copy())
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(riskmodels, "minimize", recording_minimize)
        garch_fit(u, max_iter=1)
        gen = RngSpec(0).generator()
        var, scale = u.var(), np.sqrt(u.var())
        want = [[u.mean() + scale * 0.1 * gen.standard_normal(), gen.uniform(-0.3, 0.3),
                 var * gen.uniform(0.01, 0.5), gen.uniform(0.0, 0.3), gen.uniform(0.4, 0.95),
                 gen.uniform(3.0, 30.0), gen.uniform(0.6, 1.6)] for _ in range(5)]
        assert np.array(starts[1:]).tobytes() == np.array(want).tobytes()

    def test_reports_parameters_at_bound(self):
        # no volatility clustering: the ARCH coefficient b1 ends at its bound 0
        fit = garch_fit(np.random.default_rng(3).standard_normal(1000))
        assert fit.at_bound == ("b1",)
        assert fit.b1 == 0.0

    def test_constant_series(self):
        with pytest.raises(DegenerateVarianceError, match="^constant series$"):
            garch_fit(np.ones(500))

    def test_too_short(self):
        with pytest.raises(PoolmaxError, match="^need at least 300 observations, got 100$"):
            garch_fit(np.random.default_rng(1).standard_normal(100))


class TestEmpiricalVar:
    def test_order_statistics(self):
        assert empirical_var(np.arange(1.0, 101.0), 0.01) == 99.0
        assert empirical_var(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0
        assert empirical_var(np.full(200, 3.5), 0.01) == 3.5

    def test_monotone_in_theta(self):
        r = np.random.default_rng(2).standard_normal(1000)
        qs = [empirical_var(r, th) for th in (0.01, 0.05, 0.1, 0.25)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    def test_too_few(self):
        with pytest.raises(PoolmaxError, match="^need at least 100 points$"):
            empirical_var(np.arange(10.0), 0.01)


class TestEvtVar:
    def test_guards(self):
        r = np.random.default_rng(3).standard_normal(100)
        with pytest.raises(PoolmaxError, match="^need 10 <= k < m, got k=100, m=100$"):
            evt_var(r, 0.01, k=100)
        with pytest.raises(PoolmaxError, match="^need 10 <= k < m, got k=5, m=100$"):
            evt_var(r, 0.01, k=5)

    def test_pareto_oracle(self):
        gen = np.random.default_rng(4)
        sample = gen.uniform(size=3000) ** (-0.5)  # survival x^-2, 0.99-quantile 10
        est = evt_var(sample, 0.01, 50)
        assert est == pytest.approx(10.0, rel=0.25)

    def test_exponential_oracle(self):
        gen = np.random.default_rng(5)
        est = evt_var(gen.exponential(size=3000), 0.01, 50)
        assert est == pytest.approx(np.log(100), rel=0.25)

    def test_translation_equivariance(self):
        r = np.random.default_rng(6).standard_normal(2000)
        base = evt_var(r, 0.01, 50)
        assert evt_var(r + 3.7, 0.01, 50) == pytest.approx(base + 3.7, abs=1e-8)


def top_excesses(x, k=50):
    """The k largest values of x minus the (k+1)-th, as evt_var takes them."""
    desc = np.sort(x)[::-1]
    return desc[:k] - desc[k]


def gpd_loglik(y, fit):
    """Log-likelihood of a fit in scipy.stats' own GPD form."""
    return genpareto.logpdf(y, fit[0], 0.0, fit[1]).sum()


def scipy_gpd_fit(y):
    """scipy's Nelder-Mead MLE, (xi, beta): the fit gpd_tail_fit replaced."""
    with np.errstate(all="ignore"):
        xi, _, beta = genpareto.fit(y, floc=0.0)
    return xi, beta


def tail_corpus(count=320, seed=2024):
    """Seeded k = 50 tails of samples of 500: Student-t with nu in [3, 30]
    (two in five), exponential, Pareto with index in [1.2, 6], and bounded
    beta(2, b) with b in [2, 4] (GPD shape -1/b)."""
    gen = np.random.default_rng(seed)
    for j in range(count):
        kind = ("t", "t", "exponential", "pareto", "bounded")[j % 5]
        if kind == "t":
            x = gen.standard_t(gen.uniform(3, 30), 500)
        elif kind == "exponential":
            x = gen.exponential(size=500)
        elif kind == "pareto":
            x = gen.pareto(gen.uniform(1.2, 6), 500)
        else:
            x = gen.beta(2.0, gen.uniform(2.0, 4.0), 500)
        yield kind, top_excesses(x)


class TestGpdFit:
    def test_loglik_at_least_scipy_fit_on_corpus(self):
        """The profile-likelihood MLE never scores below scipy's Nelder-Mead.

        Where the likelihood has no interior maximum (it grows without bound
        as xi -> -inf), there is no MLE to match: the fit reports "pwm", and
        Nelder-Mead is seen running into that unbounded end, xi < -1.
        """
        kinds, unbounded = set(), 0
        for kind, y in tail_corpus():
            fit, ref = gpd_tail_fit(y), scipy_gpd_fit(y)
            if fit.method == "pwm":
                assert riskmodels._profile_mle(y) is None and ref[0] < -1
                unbounded += 1
                continue
            ll, ll_ref = gpd_loglik(y, fit), gpd_loglik(y, ref)
            assert ll >= ll_ref - 1e-9 * abs(ll_ref), (kind, fit, ref)
            kinds.add(kind)
        assert kinds == {"t", "exponential", "pareto", "bounded"}
        assert unbounded <= 3

    def test_fit_is_a_stationary_point(self):
        y = top_excesses(np.random.default_rng(12).standard_t(5, 500))
        fit = gpd_tail_fit(y)
        theta = fit.xi / fit.beta
        assert abs(riskmodels._grimshaw_h(theta, y)) < 1e-12
        for step in (1 - 1e-4, 1 + 1e-4):  # a maximum along the profile
            assert riskmodels._profile_nll(theta * step, y) > riskmodels._profile_nll(theta, y)

    def test_shape_at_least_one_reports_pwm(self):
        y = top_excesses(np.random.default_rng(3).uniform(size=500) ** -1.5)
        theta = riskmodels._profile_mle(y)
        assert np.log1p(theta * y).mean() >= 1.0  # the MLE's shape
        mean, ratio = y.mean(), y.mean() ** 2 / y.var(ddof=1)
        assert gpd_tail_fit(y) == (0.5 * (1 - ratio), 0.5 * mean * (1 + ratio), "pwm")

    def test_constant_excesses_raise(self):
        for y in (np.full(50, 0.3), np.zeros(50)):
            with pytest.raises(PoolmaxError, match="^degenerate exceedance sample$"):
                gpd_tail_fit(y)

    def test_negative_excess_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            gpd_tail_fit(np.array([0.5, 2.0, -0.1, 1.0]))

    def test_exponential_tail_near_theta_zero(self):
        y = top_excesses(np.random.default_rng(5).exponential(size=3000))
        fit = gpd_tail_fit(y)
        assert fit.method == "mle" and abs(fit.xi) < 0.2
        assert gpd_loglik(y, fit) >= gpd_loglik(y, scipy_gpd_fit(y))

    def test_bounded_tail(self):
        y = top_excesses(np.random.default_rng(6).beta(2.0, 3.0, 2000))
        fit = gpd_tail_fit(y)
        assert fit.method == "mle" and -1 < fit.xi < 0
        assert fit.beta / -fit.xi >= y.max()  # the support's end covers the sample
        assert gpd_loglik(y, fit) >= gpd_loglik(y, scipy_gpd_fit(y))

    def test_uniform_tail_without_interior_maximum_reports_pwm(self):
        y = top_excesses(np.random.default_rng(0).uniform(size=1000))
        assert riskmodels._profile_mle(y) is None
        fit = gpd_tail_fit(y)
        assert fit.method == "pwm" and fit.xi < 0

    def test_zero_excess(self):
        x = np.random.default_rng(7).standard_t(4, 500)
        desc = np.sort(x)[::-1]
        x[x == desc[49]] = desc[50]  # the k-th largest value equals the threshold
        y = top_excesses(x)
        assert (y == 0).sum() == 1
        fit = gpd_tail_fit(y)
        assert fit.method == "mle"
        assert gpd_loglik(y, fit) >= gpd_loglik(y, scipy_gpd_fit(y))
        assert np.isfinite(evt_var(x, 0.01, 50))

    def test_tied_excesses(self):
        y = top_excesses(np.round(np.random.default_rng(8).standard_t(4, 500), 1))
        assert np.unique(y).size < y.size / 2
        fit = gpd_tail_fit(y)
        assert fit.method == "mle"
        assert gpd_loglik(y, fit) >= gpd_loglik(y, scipy_gpd_fit(y))

    def test_evt_var_never_calls_scipy_fit(self, monkeypatch):
        r = np.random.default_rng(9).standard_t(5, 1000)
        want = evt_var(r, 0.01, 50)

        def refuse(*args, **kwargs):
            raise AssertionError("genpareto.fit called")

        monkeypatch.setattr(scipy.stats.genpareto, "fit", refuse)
        assert evt_var(r, 0.01, 50) == want


class TestForecast:
    def test_iid_normal_window(self):
        u = np.random.default_rng(7).standard_normal(3000)
        fc = forecast_var(u, VarMethod("empirical"), 0.01)
        assert fc == pytest.approx(2.326, abs=0.15)

    def test_methods_agree_roughly(self):
        u = np.random.default_rng(8).standard_normal(3000)
        fits = {
            kind: forecast_var(u, VarMethod(kind), 0.01)
            for kind in ("empirical", "skew-t", "evt")
        }
        for v in fits.values():
            assert v == pytest.approx(2.326, rel=0.10)

    def test_volatility_burst_raises_forecast(self, garch_path):
        _, u = garch_path
        fit = garch_fit(u)
        bumped = u.copy()
        bumped[-1] = u[-1] + 10 * u.std()
        lo = forecast_var(u, VarMethod("empirical"), 0.01, fit=fit)
        hi = forecast_var(bumped, VarMethod("empirical"), 0.01, fit=fit)
        assert hi > lo


class TestRolling:
    def test_insufficient_history(self):
        with pytest.raises(PoolmaxError, match="^need 110 observations, got 100$"):
            rolling_forecasts(np.zeros(100), window=90, horizon=20,
                              method=VarMethod("empirical"), theta=0.01)

    def test_horizon_zero(self):
        u = np.random.default_rng(9).standard_normal(400)
        out = rolling_forecasts(u, window=350, horizon=0,
                                method=VarMethod("empirical"), theta=0.01)
        assert out.size == 0

    def test_refit_cadence_close(self):
        u = np.random.default_rng(10).standard_normal(430)
        daily = rolling_forecasts(u, window=400, horizon=30,
                                  method=VarMethod("empirical"), theta=0.05,
                                  refit_every=1)
        single = rolling_forecasts(u, window=400, horizon=30,
                                   method=VarMethod("empirical"), theta=0.05,
                                   refit_every=30)
        assert daily.shape == single.shape == (30,)
        rel = np.abs(daily - single) / np.abs(daily)
        assert rel.mean() < 0.05


def fit_bytes(fit):
    x = np.array([fit.a0, fit.a1, fit.b0, fit.b1, fit.b2, fit.nu, fit.gamma, fit.loglik])
    return (x.tobytes() + fit.residuals.tobytes()
            + repr((fit.converged, fit.n_starts, fit.nit, fit.at_bound)).encode())


def rolling_run(series, kind, monkeypatch):
    """Two days of rolling forecasts, with the fit made for each day."""
    fits = []

    def recording_fit(*args, **kwargs):
        fits.append(garch_fit(*args, **kwargs))
        return fits[-1]

    with monkeypatch.context() as m:
        m.setattr(riskmodels, "garch_fit", recording_fit)
        out = rolling_forecasts(series, window=400, horizon=2,
                                method=VarMethod(kind), theta=0.01)
    assert len(fits) == 2
    return out.tobytes(), [fit_bytes(f) for f in fits]


@pytest.mark.parametrize("kind", ["empirical", "skew-t", "evt"])
def test_fits_unchanged_by_likelihood_kernel(kind, garch_path, monkeypatch):
    """The scipy.special kernels leave the L-BFGS-B path as it was.

    With the scipy.stats.t forms patched back in, every fit inside
    rolling_forecasts has the same parameters, log-likelihood and residual
    bytes, and the forecasts the same bytes.
    """
    series = garch_path[1][:402]
    got = rolling_run(series, kind, monkeypatch)
    use_scipy_stats_t(monkeypatch)
    assert got == rolling_run(series, kind, monkeypatch)


def random_box_points(gen, count):
    """(theta, series, lb, ub) inside garch_fit's box, with its edge cases.

    Coordinates on a bound, b1 + b2 within 1e-8 of the 0.999 guard, nu on
    its bound 2.1, and series scaled by 1e9 (where x + 1e-8 rounds back to
    x, so scipy falls back to its relative step) or by 1e-4.
    """
    for k in range(count):
        n = int(gen.integers(300, 700))
        u = gen.standard_normal(n) * (1e9 if k % 10 == 0 else 1e-4 if k % 10 == 1 else 1.0)
        var = u.var()
        scale = np.sqrt(var)
        lb = np.array([-10 * scale, -0.995, 1e-12 * var, 0.0, 0.0, 2.1, 0.1])
        ub = np.array([10 * scale, 0.995, 10 * var, 0.998, 0.998, 100.0, 10.0])
        theta = lb + (ub - lb) * gen.uniform(size=7)
        theta[0] = gen.uniform(-1, 1) * scale
        theta[2] = var * gen.uniform(0.001, 0.9)
        if k % 3 == 0:
            j = gen.integers(7)
            theta[j] = lb[j] if gen.uniform() < 0.5 else ub[j]
        if k % 4 == 1:
            theta[3] = gen.uniform(0.0, 0.3)
            theta[4] = 0.999 - theta[3] + gen.choice([-1e-8, -5e-9, 0.0, 5e-9, 1e-8])
        if k % 7 == 2:
            theta[5] = 2.1
        yield np.clip(theta, lb, ub), u, lb, ub


def test_gradient_bitwise_equal_to_scipy_finite_differences(monkeypatch):
    """`_nll_and_grad` returns the bytes of scipy's own forward differences.

    The reference is what L-BFGS-B computes when given no gradient:
    `approx_derivative` of the one-point likelihood, method "2-point",
    abs_step 1e-8, bounded by the box.  The points include admissible base
    points whose b1 or b2 step crosses b1 + b2 = 0.999, and inadmissible base
    points, whose every row `_nll_points` still evaluates.
    """
    admissible = []
    nll_points = riskmodels._nll_points

    def recording_points(points, *args):
        admissible.append(points[:, 3] + points[:, 4] <= 0.999)
        return nll_points(points, *args)

    monkeypatch.setattr(riskmodels, "_nll_points", recording_points)
    gen = np.random.default_rng(2024)
    mismatches = inadmissible = relative_steps = 0
    for theta, u, lb, ub in random_box_points(gen, 1200):
        f0 = reference_nll(theta, u, u.var())
        want = approx_derivative(reference_nll, theta, method="2-point", abs_step=1e-8,
                                 f0=f0, bounds=(lb, ub), args=(u, u.var()))
        f, grad = riskmodels._nll_and_grad(theta, u, u.var(), lb, ub)
        if np.float64(f).tobytes() != np.float64(f0).tobytes() or grad.tobytes() != want.tobytes():
            mismatches += 1
        inadmissible += f0 == riskmodels._BIG or bool((want == 0).any())
        relative_steps += bool(((theta + 1e-8) - theta == 0).any())
    assert mismatches == 0
    assert inadmissible > 100 and relative_steps > 100  # the edge cases were reached
    assert sum(bool(ok[0] and not ok[4:6].all()) for ok in admissible) > 50
    assert sum(not ok[0] for ok in admissible) > 100


@pytest.mark.parametrize("kind", ["empirical", "skew-t", "evt"])
def test_fits_bitwise_equal_to_scipy_finite_differences(kind, garch_path, monkeypatch):
    """Fits and forecasts keep their bytes against L-BFGS-B's own differences."""
    series = garch_path[1][:402]
    got = rolling_run(series, kind, monkeypatch)
    use_scipy_finite_differences(monkeypatch)
    assert got == rolling_run(series, kind, monkeypatch)


def test_edge_fits_bitwise_equal_to_scipy_finite_differences(garch_path, monkeypatch):
    """Unconverged fits with restarts, and a fit with b1 on its bound, keep their bytes."""
    u = garch_path[1]
    iid = np.random.default_rng(3).standard_normal(1000)

    def fits():
        return [garch_fit(u[:1000], max_iter=1), garch_fit(u[:400] * 1e9, max_iter=1),
                garch_fit(iid)]

    got = fits()
    assert [(f.converged, f.n_starts) for f in got[:2]] == [(False, 6), (False, 6)]
    assert got[2].at_bound == ("b1",)
    use_scipy_finite_differences(monkeypatch)
    assert [fit_bytes(f) for f in got] == [fit_bytes(f) for f in fits()]


def test_every_likelihood_point_lies_in_the_box(garch_path, monkeypatch):
    """`_nll_points` is only asked for points inside `garch_fit`'s L-BFGS-B box.

    So the box is the likelihood's only bound on each parameter.  Covered:
    fits that converge at the first start, fits that go through all 5
    restarts, a fit with b1 on its bound, and a start outside the box, which
    scipy clips into it.
    """
    u = garch_path[1]
    boxes, rows, outside = [], [], []
    minimize, nll_points = riskmodels.minimize, riskmodels._nll_points

    def recording_minimize(fun, x0, **kwargs):
        boxes.append(kwargs["args"][2:])
        return minimize(fun, x0, **kwargs)

    def checked_points(points, *args):
        lb, ub = boxes[-1]
        rows.append(len(points))
        outside.append(int(((points < lb) | (points > ub)).any(axis=1).sum()))
        return nll_points(points, *args)

    monkeypatch.setattr(riskmodels, "minimize", recording_minimize)
    monkeypatch.setattr(riskmodels, "_nll_points", checked_points)
    wide = GarchParams(a0=20 * u[:1000].std(), a1=0.0, b0=0.1, b1=0.05, b2=0.85,
                       nu=150.0, gamma=20.0)
    fits = [garch_fit(u[:1000]), garch_fit(np.random.default_rng(3).standard_normal(1000)),
            garch_fit(u[:1000], max_iter=1), garch_fit(u[:400] * 1e9, max_iter=1),
            garch_fit(u[:1000], init=wide)]
    assert [(f.converged, f.n_starts) for f in fits] == [
        (True, 1), (True, 1), (False, 6), (False, 6), (True, 1)]
    assert len(boxes) == 15 and sum(rows) > 1000
    assert sum(outside) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_emits_no_runtime_warning(garch_path):
    u = garch_path[1]
    garch_fit(u[:1000])
    garch_fit(u[:400] * 1e9, max_iter=20)
    garch_fit(np.random.default_rng(3).standard_normal(1000))
