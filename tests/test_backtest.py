import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolmax.backtest
import poolmax.pooltest
from poolmax import (
    BacktestReport,
    BootstrapConfig,
    RngSpec,
    SubsetFamily,
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
from poolmax.backtest import _average_ranks, logistic
from poolmax.errors import (
    DegenerateVarianceError,
    NonFiniteError,
    PoolmaxError,
    SubsetDesignError,
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
        with pytest.raises(PoolmaxError, match=r"^shapes differ: \[\(3, 2\), \(3, 3\)\]$"):
            exceedance_matrix(np.zeros((3, 2)), np.zeros((3, 3)), 0.01)


class TestScore:
    def test_hand_values(self):
        # no exceedance: theta * g(r)
        assert score(0.0, -1.0, 0.01) == pytest.approx(0.005)
        # exceedance: (theta - 1) g(r) + g(x)
        expected = -0.99 * 0.5 + 1 / (1 + np.exp(-1))
        assert score(0.0, 1.0, 0.01) == pytest.approx(expected, abs=1e-6)

    def test_non_finite_raises(self):
        for r, x in [(np.nan, 1.0), (0.0, np.inf), (np.array([1.0, -np.inf]), 0.0)]:
            with pytest.raises(NonFiniteError):
                score(r, x, 0.01)
        with pytest.raises(NonFiniteError) as exc:
            score(np.zeros((3, 2)), np.array([[0.0, 0.0], [0.0, np.nan], [0.0, 0.0]]), 0.01)
        assert (exc.value.row, exc.value.col) == (1, 1)

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

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(20, 120), p=st.sampled_from([4, 5, 7]), seed=st.integers(0, 2**16))
    def test_two_sided_swap_invariance(self, n, p, seed):
        gen = np.random.default_rng(seed)
        u = gen.standard_normal((n, p))
        r = gen.uniform(0.5, 1.5, (n, p))
        rs = gen.uniform(0.5, 1.5, (n, p))
        fam = build_family(p, 3, 2 * p, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(2), replicates=100)
        a = comparative_test(u, r, rs, 0.1, fam, 0.05, cfg)
        b = comparative_test(u, rs, r, 0.1, fam, 0.05, cfg)
        assert a.statistic == b.statistic
        assert a.critical_value == b.critical_value
        assert a.p_value == b.p_value
        assert np.array_equal(a.per_subset_t, -b.per_subset_t)


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

    def test_never_exceeds_one(self):
        # n * u = 1.2: ranks 5 and 6 of 6 pass r/n > 0.8, and a divisor of
        # n * u put 2 / 1.2 on the diagonal
        z = np.random.default_rng(11).standard_normal((6, 3))
        lam = tail_dependence(z, 0.2)
        assert np.array_equal(np.diag(lam), np.ones(3))
        assert lam.max() <= 1
        # the three tied 4s share rank 5, so 3 points of the first column sit
        # in the tail where 2 ranks do; a constant column has none there
        z = np.column_stack([[1.0, 2.0, 3.0, 4.0, 4.0, 4.0], np.arange(6.0), np.full(6, 7.0)])
        lam = tail_dependence(z, 0.2)
        assert np.array_equal(lam, [[1.0, 2 / 3, 0.0], [2 / 3, 1.0, 0.0], [0.0, 0.0, 0.0]])

    def test_independent_columns(self):
        z = np.random.default_rng(8).standard_normal((10**5, 2))
        lam = tail_dependence(z, 0.01)
        assert lam[0, 1] == pytest.approx(0.01, abs=0.005)

    def test_ranks_bitwise_equal_to_rankdata(self):
        from scipy.stats import rankdata  # the reference, in the test only

        gen = np.random.default_rng(10)
        for k in range(200):
            z = gen.integers(-3, 4, size=(int(gen.integers(1, 300)), 7)).astype(np.float64)
            if k % 4 == 0:
                z[gen.uniform(size=z.shape) < 0.3] = -0.0
            assert _average_ranks(z).tobytes() == rankdata(z, axis=0).tobytes()
        z = gen.integers(0, 5, size=(400, 7)).astype(np.float64)
        hits = (rankdata(z, axis=0) / 400 > 1 - 0.05).astype(np.float64)
        want = (hits.T @ hits) / (400 * 0.05)
        assert tail_dependence(z, 0.05).tobytes() == want.tobytes()

    def test_bad_threshold(self):
        z = np.random.default_rng(9).standard_normal((50, 2))
        with pytest.raises(PoolmaxError, match=r"^u must lie in \(0, 0\.5\)$"):
            tail_dependence(z, 0.6)
        with pytest.raises(PoolmaxError, match=r"^need n \* u >= 1$"):
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

    def test_inputs_checked_before_any_bootstrap(self, monkeypatch):
        u, fam, cfg = self._inputs()
        good = np.full_like(u, 1.2)
        bad = good.copy()
        bad[0, 3] = np.nan

        def no_bootstrap(*args):
            raise AssertionError("a bootstrap ran before the inputs were checked")

        monkeypatch.setattr(poolmax.backtest, "substream_normals", no_bootstrap)
        fcs = {"a": good, "b": good + 0.1, "c": bad}
        with pytest.raises(NonFiniteError, match=r"\(0, 3\) of forecast 'c'"):
            full_backtest(u, fcs, 0.05, fam, 0.05, cfg)
        shape = r"^forecast 'c' has shape \(300, 3\), losses \(300, 4\)$"
        with pytest.raises(PoolmaxError, match=shape):
            full_backtest(u, {"a": good, "c": good[:, :3]}, 0.05, fam, 0.05, cfg)
        with pytest.raises(ValueError, match="alpha"):
            full_backtest(u, {"a": good}, 0.05, fam, 1.5, cfg)
        with pytest.raises(PoolmaxError, match=r"^theta0 must lie in \(0, 1\)$"):
            full_backtest(u, {"a": good, "b": good + 0.1}, 1.5, fam, 0.05, cfg)

    def test_matches_single_tests(self):
        self._assert_matches_single_tests(*self._inputs())

    def test_matches_single_tests_in_blocks(self, monkeypatch):
        """256-wide pooling, variance and bootstrap blocks, a remainder of
        28 subsets joining the last block."""
        monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", 1)
        u, _, _ = self._inputs(p=70)
        fam = build_family(70, 3, 540, RngSpec(1))
        assert poolmax.pooltest._blocks(fam.d, 1) == [(0, 256), (256, 540)]
        self._assert_matches_single_tests(u, fam, BootstrapConfig(rng=RngSpec(2), replicates=129))

    @staticmethod
    def _assert_matches_single_tests(u, fam, cfg):
        fcs = {"emp": np.full_like(u, 1.2), "evt": np.full_like(u, 1.5),
               "dup": np.full_like(u, 1.2), "var": 1.3 + 0.2 * np.sin(u)}
        rep = full_backtest(u, fcs, 0.05, fam, 0.05, cfg)
        ref = BacktestReport(
            method_names=list(fcs),
            config={"theta0": 0.05, "alpha": 0.05, "B": cfg.replicates, "q": fam.q, "d": fam.d},
        )
        names = list(fcs)
        for m in names:
            ref.validation[m] = validation_test(u, fcs[m], 0.05, fam, 0.05, cfg)
        for i, a in enumerate(names):
            for b in names[:i]:
                try:
                    ref.comparative[(a, b)] = comparative_test(
                        u, fcs[a], fcs[b], 0.05, fam, 0.05, cfg, one_sided=True
                    )
                except DegenerateVarianceError as e:
                    ref.comparative[(a, b)] = None
                    ref.errors[f"{a}|{b}"] = str(e)
        assert list(ref.errors) == ["dup|emp"]
        assert rep.to_json() == ref.to_json()
        cells = [(rep.validation, ref.validation), (rep.comparative, ref.comparative)]
        for got, want in cells:
            for key, res in want.items():
                if res is not None:
                    assert got[key].to_json() == res.to_json()

    def test_empty_family(self):
        """A family with no subsets raises before any test runs."""
        u, _, cfg = self._inputs()
        fam = SubsetFamily.from_json('{"p": 4, "q": 3, "members": []}')
        r = np.full_like(u, 1.2)
        calls = [
            lambda: full_backtest(u, {"a": r, "b": r + 0.1}, 0.05, fam, 0.05, cfg),
            lambda: comparative_test(u, r, r + 0.1, 0.05, fam, 0.05, cfg),
            lambda: comparative_test(u, r, r + 0.1, 0.05, fam, 0.05, cfg, one_sided=True),
        ]
        for call in calls:
            with pytest.raises(SubsetDesignError, match="^family has no subsets$"):
                call()

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
