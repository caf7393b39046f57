import numpy as np
import pytest

from poolmax import (
    BootstrapConfig,
    RngSpec,
    build_family,
    comparative_test,
    exceedance_matrix,
    full_backtest,
    pool_test,
    score,
    score_diff_matrix,
    tail_dependence,
    validation_test,
)
from poolmax.backtest import logistic
from poolmax.errors import (
    BadThresholdError,
    DegenerateVarianceError,
    NonFiniteError,
    ShapeMismatchError,
)


class TestExceedance:
    def test_values_and_tie_rule(self):
        u = np.array([[2.0, 1.0], [0.0, 3.0]])
        r = np.array([[1.0, 1.0], [1.0, 1.0]])
        x = exceedance_matrix(u, r, 0.01)
        assert x[0, 0] == pytest.approx(0.99)
        assert x[0, 1] == pytest.approx(-0.01)  # tie is a non-exceedance
        assert set(np.round(x.ravel(), 10)) <= {0.99, -0.01}

    def test_column_mean_identity(self):
        gen = np.random.default_rng(0)
        u = gen.standard_normal((50, 3))
        r = np.zeros((50, 3))
        x = exceedance_matrix(u, r, 0.25)
        counts = (u > r).sum(axis=0)
        assert np.allclose(x.mean(axis=0), counts / 50 - 0.25)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            exceedance_matrix(np.zeros((3, 2)), np.zeros((3, 3)), 0.01)


class TestScore:
    def test_hand_values(self):
        # no exceedance: theta * g(r)
        assert score(0.0, -1.0, 0.01) == pytest.approx(0.005)
        # exceedance: (theta - 1) g(r) + g(x)
        expected = -0.99 * 0.5 + 1 / (1 + np.exp(-1))
        assert score(0.0, 1.0, 0.01) == pytest.approx(expected, abs=1e-6)

    def test_diff_antisymmetry_and_bounds(self):
        gen = np.random.default_rng(1)
        u, r, rs = gen.standard_normal((3, 20, 4))
        d = score_diff_matrix(u, r, rs, 0.01)
        assert np.allclose(d, -score_diff_matrix(u, rs, r, 0.01))
        assert np.all(np.abs(d) < 2)
        assert np.allclose(score_diff_matrix(u, r, r, 0.01), 0.0)


class TestValidation:
    def test_no_exceedances_degenerate(self):
        gen = np.random.default_rng(2)
        u = gen.standard_normal((50, 5))
        r = np.full((50, 5), 1e9)
        fam = build_family(5, 2, 8, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(2), replicates=50)
        with pytest.raises(DegenerateVarianceError):
            validation_test(u, r, 0.01, fam, 0.05, cfg)

    def test_composition_identity(self):
        gen = np.random.default_rng(3)
        u = gen.standard_normal((200, 5))
        r = np.full((200, 5), 1.0)
        fam = build_family(5, 2, 8, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(2), replicates=100)
        a = validation_test(u, r, 0.1, fam, 0.05, cfg)
        b = pool_test(exceedance_matrix(u, r, 0.1), fam, 0.05, cfg)
        assert a.statistic == b.statistic
        assert a.critical_value == b.critical_value
        assert a.p_value == b.p_value


class TestComparative:
    def test_identical_forecasts_degenerate(self):
        gen = np.random.default_rng(4)
        u = gen.standard_normal((60, 4))
        r = np.full((60, 4), 2.0)
        fam = build_family(4, 3, 6, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(2), replicates=50)
        with pytest.raises(DegenerateVarianceError):
            comparative_test(u, r, r, 0.01, fam, 0.05, cfg)

    def test_two_sided_swap_invariance(self):
        gen = np.random.default_rng(5)
        u = gen.standard_normal((100, 4))
        r = np.full((100, 4), 1.0)
        rs = np.full((100, 4), 1.5)
        fam = build_family(4, 3, 6, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(2), replicates=100)
        a = comparative_test(u, r, rs, 0.01, fam, 0.05, cfg)
        b = comparative_test(u, rs, r, 0.01, fam, 0.05, cfg)
        assert a.statistic == b.statistic
        assert np.allclose(a.per_subset_t, -b.per_subset_t)


class TestTailDependence:
    def test_duplicated_column_is_one(self):
        z = np.random.default_rng(6).standard_normal(500)
        lam = tail_dependence(np.column_stack([z, z]), 0.01)
        assert lam[0, 1] == pytest.approx(1.0)
        assert lam[0, 0] == pytest.approx(1.0)

    def test_symmetric(self):
        z = np.random.default_rng(7).standard_normal((300, 5))
        lam = tail_dependence(z, 0.05)
        assert np.allclose(lam, lam.T)
        assert lam.min() >= 0 and lam.max() <= 1 + 1e-12

    def test_independent_columns(self):
        z = np.random.default_rng(8).standard_normal((10**5, 2))
        lam = tail_dependence(z, 0.01)
        assert lam[0, 1] == pytest.approx(0.01, abs=0.005)

    def test_bad_threshold(self):
        z = np.random.default_rng(9).standard_normal((50, 2))
        with pytest.raises(BadThresholdError):
            tail_dependence(z, 0.6)
        with pytest.raises(BadThresholdError):
            tail_dependence(z, 0.001)


class TestFullBacktest:
    def _inputs(self, n=300, p=4):
        gen = np.random.default_rng(10)
        u = gen.standard_normal((n, p))
        fam = build_family(p, 3, 2 * p, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(2), replicates=60)
        return u, fam, cfg

    def test_single_method(self):
        u, fam, cfg = self._inputs()
        rep = full_backtest(u, {"emp": np.full_like(u, 1.2)}, 0.05, fam, 0.05, cfg)
        assert list(rep.validation) == ["emp"]
        assert rep.comparative == {}

    def test_three_methods_shape(self):
        u, fam, cfg = self._inputs()
        fcs = {name: np.full_like(u, v) for name, v in
               [("emp", 1.2), ("evt", 1.4), ("sstd", 1.6)]}
        rep = full_backtest(u, fcs, 0.05, fam, 0.05, cfg)
        assert len(rep.validation) == 3
        assert set(rep.comparative) == {("evt", "emp"), ("sstd", "emp"), ("sstd", "evt")}
        d = rep.to_dict()
        assert set(d["validation_pvalues"]) == {"emp", "evt", "sstd"}

    def test_degenerate_cell_not_fatal(self):
        u, fam, cfg = self._inputs()
        same = np.full_like(u, 1.2)
        rep = full_backtest(u, {"a": same, "b": same.copy()}, 0.05, fam, 0.05, cfg)
        assert rep.comparative[("b", "a")] is None
        assert "b|a" in rep.errors
        assert rep.validation["a"] is not None

    def test_non_finite_forecast_raises(self):
        u, fam, cfg = self._inputs()
        good = np.full_like(u, 1.2)
        bad = good.copy()
        bad[:, 1] = np.nan
        with pytest.raises(NonFiniteError):
            exceedance_matrix(u, bad, 0.05)
        with pytest.raises(NonFiniteError):
            score_diff_matrix(u, good, bad, 0.05)
        with pytest.raises(NonFiniteError):
            full_backtest(u, {"a": good, "b": bad}, 0.05, fam, 0.05, cfg)

    def test_csv_layout(self, tmp_path):
        u, fam, cfg = self._inputs()
        fcs = {"emp": np.full_like(u, 1.2), "evt": np.full_like(u, 1.5)}
        rep = full_backtest(u, fcs, 0.05, fam, 0.05, cfg)
        out = tmp_path / "report.csv"
        rep.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",emp,evt"
        assert len(lines) == 3
        # upper triangle stays blank
        assert lines[1].split(",")[2] == ""


def test_logistic_bounds():
    x = np.linspace(-30, 30, 7)
    g = logistic(x)
    assert np.all((g > 0) & (g < 1))
    assert np.all(np.diff(g) > 0)
