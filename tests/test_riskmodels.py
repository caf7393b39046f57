import hashlib
import os

import numpy as np
import pytest
import scipy.stats
from scipy.optimize._numdiff import approx_derivative
from scipy.stats import genpareto

from conftest import reference_nll, use_scipy_finite_differences, use_scipy_stats_t
from poolmax import RngSpec, riskmodels
from poolmax.core import _extension
from poolmax.errors import DegenerateVarianceError, NonFiniteError, PoolmaxError
from poolmax.riskmodels import (
    GarchParams,
    VarMethod,
    _next_step,
    empirical_var,
    evt_var,
    forecast_var,
    garch_filter,
    garch_fit,
    garch_simulate,
    gpd_tail_fit,
    rolling_forecasts,
)
from poolmax.sstd import sstd_quantile


def fit_with_max_iter(series, max_iter, monkeypatch):
    """`garch_fit` with each L-BFGS-B start stopped after `max_iter` iterations."""
    with monkeypatch.context() as m:
        m.setattr(riskmodels, "_MAX_ITER", max_iter)
        return garch_fit(series)


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

    def test_empty_series_raises(self):
        with pytest.raises(PoolmaxError, match="^need at least 1 observations, got 0$"):
            garch_filter([], GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85))

    @pytest.mark.parametrize("n", [1, 2, 999, 1200])
    @pytest.mark.parametrize("pole", [0.0, 0.5, 0.998])
    def test_one_pole_bitwise_equal_to_lfilter(self, pole, n):
        # the reference, in the test only: the library never imports scipy.signal
        from scipy.signal import lfilter

        gen = np.random.default_rng(n)
        drive = gen.exponential(size=(5, n))
        zi = gen.exponential(size=(5, 1))
        for x, state in [(drive[0], zi[0]), (drive, zi)]:
            got = riskmodels._one_pole(pole, x, state)
            want = lfilter([1.0], [1.0, -pole], x, zi=state)[0]
            assert got.shape == want.shape == x.shape
            assert got.tobytes() == want.tobytes()

    def test_missing_filter_kernel_raises_import_error(self):
        name = "scipy.signal._no_such_filter"
        directory = os.path.join(os.path.dirname(scipy.__file__), "signal")
        with pytest.raises(ImportError) as info:
            _extension(name)
        assert str(info.value) == (f"no compiled {name} in {directory!r} "
                                   f"(scipy {scipy.__version__})")


class TestSimulate:
    @pytest.mark.parametrize("params", [
        GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85),
        GarchParams(a0=0.3, a1=-0.6, b0=2.0, b1=0.3, b2=0.5),
        GarchParams(a0=-0.02, a1=0.9, b0=1e-4, b1=0.0, b2=0.99),
    ])
    def test_filter_gives_back_the_shocks(self, params):
        z = np.random.default_rng(5).standard_normal(2000)
        u = garch_simulate(params, z)
        mu, vol, resid = garch_filter(u, params)
        assert np.max(np.abs(resid - z)) <= 1e-12
        assert np.max(np.abs(mu + vol * resid - u)) <= 1e-12

    def test_criterion_08_input_bytes(self):
        """The path of the `garch_path` fixture and of criterion 08 keeps
        the bytes of the step-by-step recursion that produced it before the
        simulator joined the library."""
        params = GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85)
        z = np.random.default_rng(12345).standard_normal(3500)
        u = garch_simulate(params, z)[500:]
        assert hashlib.sha256(u.astype("<f8").tobytes()).hexdigest() == (
            "6192f4eebc1011dde58f176cc795c489ab0807f7a49461513765d966aa00dcf3")

    def test_starts_at_the_unconditional_moments(self):
        params = GarchParams(a0=0.5, a1=0.5, b0=0.4, b1=0.1, b2=0.7)
        assert garch_simulate(params, [0.0, 0.0]).tolist() == [1.0, 1.0]
        assert garch_simulate(params, [1.0])[0] == 1.0 + np.sqrt(2.0)
        assert garch_simulate(params, []).size == 0

    @pytest.mark.parametrize("shocks, day", [([1e300, 0.0, 1.0], 1), ([1.0, 1e200, 1.0, 2.0], 2),
                                             ([1e160, 1.0], 1), ([0.0, -1e308, 0.0], 2)])
    def test_overflow_names_the_first_day_out_of_range(self, shocks, day):
        """Shocks that drive sigma^2 or the loss past the float range raise,
        with no RuntimeWarning (an error under this suite's settings)."""
        params = GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85)
        with pytest.raises(PoolmaxError,
                           match=f"^sigma\\^2 or the loss leaves the float range on day {day}$"):
            garch_simulate(params, shocks)


class TestFit:
    def test_recovers_simulated_params(self, garch_path):
        params, u = garch_path
        fit = garch_fit(u)
        assert fit.b1 + fit.b2 == pytest.approx(0.95, abs=0.05)
        assert fit.a1 == pytest.approx(0.1, abs=0.05)
        mu, vol, z = garch_filter(u, fit, sig2_init=u.var())
        assert np.max(np.abs(mu + vol * z - u)) < 1e-12

    def test_fit_is_hashable_and_equal_fits_compare_equal(self, garch_path):
        u = garch_path[1][:1000]
        fit, again = garch_fit(u), garch_fit(u)
        assert fit == again and hash(fit) == hash(again)
        assert len({fit, again, garch_fit(u[:999])}) == 2

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

    def test_reports_non_convergence(self, garch_path, monkeypatch):
        _, u = garch_path
        fit = fit_with_max_iter(u[:1000], 1, monkeypatch)
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
        fit_with_max_iter(u, 1, monkeypatch)
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

    @pytest.mark.parametrize("factor, var", [(1e-200, "0.0"), (1e-160, "9.9e-321"),
                                             (1e153, "inf"), (1e154, "inf"), (1e200, "inf")])
    def test_variance_out_of_range_raises_before_any_start(self, factor, var, monkeypatch):
        """A window whose variance leaves a bound of the L-BFGS-B box (1e-12 var
        or 10 var) infinite or subnormal raises before any optimizer start,
        with no RuntimeWarning (an error under this suite's settings)."""
        def refuse(*args, **kwargs):
            raise AssertionError("an optimizer start ran")

        monkeypatch.setattr(riskmodels, "minimize", refuse)
        u = np.random.default_rng(0).standard_normal(400) * factor
        with pytest.raises(DegenerateVarianceError,
                           match=f"^variance estimate {var} is out of floating-point range$"):
            garch_fit(u)

    def test_too_short(self):
        with pytest.raises(PoolmaxError, match="^need at least 300 observations, got 100$"):
            garch_fit(np.random.default_rng(1).standard_normal(100))


class TestEmpiricalVar:
    def test_nan_residual_raises(self):
        r = np.random.default_rng(2).standard_normal(500)
        r[123] = np.nan
        with pytest.raises(NonFiniteError, match=r"^non-finite entry at \(123, 0\)$"):
            empirical_var(r, 0.01)

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

    def test_roots_bitwise_equal_to_scipy_brentq(self, monkeypatch):
        """Every root `_profile_mle` finds on the corpus has the bytes of
        `scipy.optimize.brentq` with its defaults on the same bracket."""
        from scipy.optimize import brentq  # the reference, in the test only

        found = []
        profile_nll = riskmodels._profile_nll

        def recording_nll(roots, y):
            found.append(roots)
            return profile_nll(roots, y)

        monkeypatch.setattr(riskmodels, "_profile_nll", recording_nll)
        count = 0
        for _, y in tail_corpus():
            found.clear()
            riskmodels._profile_mle(y)
            grid = riskmodels._THETA_GRID / y.max()
            h = riskmodels._grimshaw_h(grid, y)
            want = np.array([brentq(riskmodels._grimshaw_h, grid[i], grid[i + 1], args=(y,),
                                    xtol=1e-14 / y.max())
                             for i in np.flatnonzero((h[:-1] > 0) & (h[1:] <= 0))])
            got = found[0] if found else np.array([])
            assert got.tobytes() == want.tobytes()
            count += want.size
        assert count > 300

    def test_nan_in_the_root_search_raises(self, monkeypatch):
        """A NaN from the function `_brentq` brackets raises PoolmaxError, as
        `scipy.optimize.brentq` raises its ValueError."""
        grimshaw_h = riskmodels._grimshaw_h
        monkeypatch.setattr(riskmodels, "_grimshaw_h", lambda theta, y: (
            grimshaw_h(theta, y) if np.ndim(theta) else np.float64(np.nan)))
        y = top_excesses(np.random.default_rng(12).standard_t(5, 500))
        with pytest.raises(PoolmaxError, match="^Grimshaw's h is NaN at theta="):
            gpd_tail_fit(y)

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
        lo = forecast_var(u, VarMethod("empirical"), 0.01, params=fit)
        hi = forecast_var(bumped, VarMethod("empirical"), 0.01, params=fit)
        assert hi > lo

    @pytest.mark.parametrize("kind", ["empirical", "skew-t", "evt"])
    def test_given_params_take_the_forward_step_of_the_filtered_window(self, kind, garch_path):
        """With parameters given, the forecast is `_next_step` after the
        window filtered from its sample variance, times the residual quantile."""
        params = GarchParams(a0=0.01, a1=0.12, b0=0.04, b1=0.09, b2=0.86, nu=7.0, gamma=1.1)
        win = garch_path[1][:600]
        mu, vol, z = garch_filter(win, params, sig2_init=win.var())
        mu_next, sig2_next = _next_step(params, win[-1], win[-1] - mu[-1], vol[-1] ** 2)
        q = {"empirical": lambda: empirical_var(z, 0.01), "evt": lambda: evt_var(z, 0.01, 50),
             "skew-t": lambda: float(sstd_quantile(0.99, 7.0, 1.1))}[kind]()
        want = float(mu_next) + float(np.sqrt(sig2_next)) * q
        got = forecast_var(win, VarMethod(kind), 0.01, params)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestRolling:
    def test_insufficient_history(self):
        with pytest.raises(PoolmaxError, match="^need at least 370 observations, got 360$"):
            rolling_forecasts(np.zeros(360), window=350, horizon=20,
                              method=VarMethod("empirical"), theta=0.01)

    @pytest.mark.parametrize("kind", ["empirical", "skew-t", "evt"])
    def test_nan_near_the_end_raises(self, kind):
        """A NaN that only the days between refits reach raises, at its index."""
        u = np.random.default_rng(9).standard_normal(900)
        u[-3] = np.nan
        with pytest.raises(NonFiniteError) as info:
            rolling_forecasts(u, window=600, horizon=5, method=VarMethod(kind), theta=0.01,
                              refit_every=5)
        assert (info.value.row, info.value.col) == (897, 0)

    def test_horizon_zero(self):
        u = np.random.default_rng(9).standard_normal(400)
        out = rolling_forecasts(u, window=350, horizon=0,
                                method=VarMethod("empirical"), theta=0.01)
        assert out.size == 0

    @pytest.mark.parametrize("kind", ["empirical", "skew-t", "evt"])
    def test_day_between_refits_is_forecast_var_with_the_last_fit(self, kind, garch_path,
                                                                    monkeypatch):
        """Days 1-3 forecast with day 0's fit, bit for bit as `forecast_var`."""
        u = garch_path[1][:404]
        fits = []

        def recording_fit(series):
            fits.append(garch_fit(series))
            return fits[-1]

        monkeypatch.setattr(riskmodels, "garch_fit", recording_fit)
        out = rolling_forecasts(u, window=400, horizon=4, method=VarMethod(kind), theta=0.01,
                                refit_every=4)
        assert len(fits) == 1
        want = [forecast_var(u[h : h + 400], VarMethod(kind), 0.01, fits[0]) for h in range(1, 4)]
        assert out[1:].tobytes() == np.array(want).tobytes()

    def test_constant_window_between_refits_raises(self):
        """A window that has become constant since the last refit raises as
        `garch_fit` does on it."""
        u = np.concatenate([np.random.default_rng(11).standard_normal(400), np.full(400, 0.5)])
        with pytest.raises(DegenerateVarianceError, match="^constant series$"):
            rolling_forecasts(u, window=300, horizon=400, method=VarMethod("skew-t"),
                              theta=0.01, refit_every=200)

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


def fit_bytes(fit, u):
    """The bytes of a fit of the series u: its parameters, log-likelihood,
    residuals on u and diagnostics."""
    x = np.array([fit.a0, fit.a1, fit.b0, fit.b1, fit.b2, fit.nu, fit.gamma, fit.loglik])
    _, _, z = garch_filter(u, fit, sig2_init=u.var())
    return (x.tobytes() + z.tobytes()
            + repr((fit.converged, fit.n_starts, fit.nit, fit.at_bound)).encode())


def rolling_run(series, kind, monkeypatch):
    """Two days of rolling forecasts, with the fit made for each day."""
    fits = []

    def recording_fit(window):
        fit = garch_fit(window)
        fits.append(fit_bytes(fit, window))
        return fit

    with monkeypatch.context() as m:
        m.setattr(riskmodels, "garch_fit", recording_fit)
        out = rolling_forecasts(series, window=400, horizon=2,
                                method=VarMethod(kind), theta=0.01)
    assert len(fits) == 2
    return out.tobytes(), fits


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
    series = [u[:1000], u[:400] * 1e9, np.random.default_rng(3).standard_normal(1000)]

    def fits():
        return [fit_with_max_iter(series[0], 1, monkeypatch),
                fit_with_max_iter(series[1], 1, monkeypatch), garch_fit(series[2])]

    got = fits()
    assert [(f.converged, f.n_starts) for f in got[:2]] == [(False, 6), (False, 6)]
    assert got[2].at_bound == ("b1",)
    use_scipy_finite_differences(monkeypatch)
    assert ([fit_bytes(f, x) for f, x in zip(got, series)]
            == [fit_bytes(f, x) for f, x in zip(fits(), series)])


def first_start(series, monkeypatch, init=None):
    """(fun, x0, keyword arguments) of the first optimizer start of
    `garch_fit(series, init)`."""
    calls = []
    minimize = riskmodels.minimize

    def recording_minimize(fun, x0, **kwargs):
        calls.append((fun, x0.copy(), kwargs))
        return minimize(fun, x0, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(riskmodels, "minimize", recording_minimize)
        garch_fit(series, init)
    return calls[0]


@pytest.mark.parametrize("case, maxiter, maxfun", [
    ("converged", 500, 1875), ("maxiter", 3, 1875), ("maxfun", 500, 3), ("maxfun", 500, 10),
    ("b1-bound", 500, 1875), ("outside", 500, 1875)])
def test_minimize_bitwise_equal_to_scipy_lbfgsb(case, maxiter, maxfun, garch_path, monkeypatch):
    """`minimize` ends where scipy's L-BFGS-B ends, given the same gradient:
    the bytes of x and of the value, the iterations and the success flag, on
    a converged fit, stops at maxiter and at maxfun, a fit that ends with b1
    on its bound and a start outside the box."""
    from scipy.optimize import minimize  # the reference, in the test only

    u = garch_path[1][:1000]
    series, init = u, None
    if case == "b1-bound":
        series = np.random.default_rng(3).standard_normal(1000)
    if case == "outside":
        init = GarchParams(a0=20 * u.std(), a1=0.0, b0=0.1, b1=0.05, b2=0.85, nu=150.0, gamma=20.0)
    fun, x0, kwargs = first_start(series, monkeypatch, init)
    got = riskmodels.minimize(fun, x0, **dict(kwargs, maxiter=maxiter, maxfun=maxfun))
    want = minimize(fun, x0, args=kwargs["args"], jac=True, method="L-BFGS-B",
                    bounds=kwargs["bounds"], options={"maxiter": maxiter, "maxfun": maxfun})
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nit, got.success) == (want.nit, want.success)
    # each case reached the ending it names
    lb, ub = np.array(kwargs["bounds"]).T
    assert {"converged": want.success, "maxiter": want.nit == maxiter,
            "maxfun": "EVALUATIONS EXCEEDS LIMIT" in want.message and want.nfev > maxfun,
            "b1-bound": want.success and want.x[3] == 0.0,
            "outside": ((x0 < lb) | (x0 > ub)).any()}[case]


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
            fit_with_max_iter(u[:1000], 1, monkeypatch),
            fit_with_max_iter(u[:400] * 1e9, 1, monkeypatch), garch_fit(u[:1000], init=wide)]
    assert [(f.converged, f.n_starts) for f in fits] == [
        (True, 1), (True, 1), (False, 6), (False, 6), (True, 1)]
    assert len(boxes) == 15 and sum(rows) > 1000
    assert sum(outside) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_emits_no_runtime_warning(garch_path, monkeypatch):
    u = garch_path[1]
    garch_fit(u[:1000])
    fit_with_max_iter(u[:400] * 1e9, 20, monkeypatch)
    garch_fit(np.random.default_rng(3).standard_normal(1000))
