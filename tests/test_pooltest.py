import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolmax import (
    BootstrapConfig,
    RngSpec,
    SubsetFamily,
    bootstrap_quantile,
    marginal_test,
    max_statistic,
    multiplier_bootstrap,
    naive_test,
    pool_test,
    pooled_panel,
)
from poolmax.errors import DegenerateStatisticError, DegenerateVarianceError, PoolmaxError
from poolmax.pooltest import PooledPanel
from poolmax.subsets import build_family


def singleton_family(p):
    return SubsetFamily(p=p, q=1, members=tuple((j,) for j in range(1, p + 1)))


class TestNaive:
    def test_zero_sum(self):
        res = naive_test(np.array([[1.0], [-1.0], [1.0], [-1.0]]), 0.05)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_hand_value(self):
        res = naive_test(np.array([[1.0], [1.0], [1.0], [0.0]]), 0.05)
        assert res.statistic == pytest.approx(3 / np.sqrt(0.75), abs=1e-12)
        assert res.reject

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            naive_test(np.full((5, 3), 2.0), 0.05)

    def test_p_value_does_not_underflow(self):
        # t is about 30 here, far past where 1 - cdf(t) rounds to 0.
        x = np.random.default_rng(0).standard_normal((200, 5)) + 1.0
        res = naive_test(x, 0.05)
        assert res.statistic > 25
        assert 0 < res.p_value < 1e-100
        assert res.reject

    def test_bitwise_equal_to_scipy_stats_norm(self):
        from scipy.stats import norm  # the reference, in the test only

        gen = np.random.default_rng(1)
        for shift, alpha in [(0.0, 0.05), (0.3, 0.01), (1.0, 0.5), (-2.0, 1e-6)]:
            res = naive_test(gen.standard_normal((100, 4)) + shift, alpha)
            want = [float(norm.ppf(1 - alpha / 2)), float(2 * norm.sf(abs(res.statistic)))]
            got = [res.critical_value, res.p_value]
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 6))
        res = naive_test(x, 0.05)
        perm = naive_test(x[:, ::-1], 0.05)
        assert res.statistic == pytest.approx(perm.statistic, rel=1e-12)


class TestPanel:
    def test_constant_columns_degenerate(self):
        fam = build_family(7, 3, 7, RngSpec(0))
        with pytest.raises(DegenerateVarianceError):
            pooled_panel(np.ones((5, 7)), fam)

    def test_singleton_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 4))
        panel = pooled_panel(x, singleton_family(4))
        assert np.array_equal(panel.y, x)

    def test_hand_example(self):
        x = np.zeros((4, 2))
        x[0, 0] = 1.0
        x[1, 1] = 1.0
        fam = SubsetFamily(p=2, q=2, members=((1, 2),))
        panel = pooled_panel(x, fam)
        assert np.array_equal(panel.y[:, 0], [1, 1, 0, 0])
        assert panel.sigma_hat[0] == pytest.approx(0.25)
        assert panel.t_stats[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        fam = singleton_family(3)
        with pytest.raises(PoolmaxError, match=r"^family has p=3, panel has p=2$"):
            pooled_panel(np.zeros((4, 2)) + np.eye(4, 2), fam)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(5, 40), p=st.integers(2, 12), seed=st.integers(0, 2**16),
           data=st.data())
    def test_relabelling_invariance(self, n, p, seed, data):
        q = data.draw(st.integers(1, p - 1).filter(lambda q: math.gcd(p, q) == 1))
        perm = np.array(data.draw(st.permutations(range(p))))
        fam = build_family(p, q, 2 * p, RngSpec(seed))
        moved = SubsetFamily(p=p, q=q, members=np.argsort(perm)[fam.members - 1] + 1)
        x = np.random.default_rng(seed).standard_normal((n, p))
        a = pooled_panel(x, fam).t_stats
        b = pooled_panel(x[:, perm], moved).t_stats
        # the floor covers t near 0, where summation order decides the last digits
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12 * np.abs(a).max())

    def test_max_statistic(self):
        panel = PooledPanel(
            y=np.zeros((2, 3)),
            sigma_hat=np.ones(3),
            t_stats=np.array([1.5, -2.5, 0.3]),
        )
        assert max_statistic(panel) == 2.5


class TestBootstrapQuantile:
    def test_order_statistic(self):
        assert bootstrap_quantile([1, 2, 3, 4], 0.5) == 3.0

    def test_single_draw(self):
        assert bootstrap_quantile([5.0], 0.3) == 5.0

    def test_clamped_to_max(self):
        assert bootstrap_quantile([1, 2, 3, 4], 0.01) == 4.0

    def test_empty(self):
        with pytest.raises(DegenerateStatisticError, match="^no bootstrap draws$"):
            bootstrap_quantile([], 0.5)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_alpha(self, draws):
        qs = [bootstrap_quantile(draws, a) for a in (0.01, 0.05, 0.2, 0.5, 0.9)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))


class TestBootstrap:
    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 5))
        panel = pooled_panel(x, build_family(5, 2, 8, RngSpec(1)))
        cfg = BootstrapConfig(rng=RngSpec(9), replicates=40)
        assert np.array_equal(
            multiplier_bootstrap(panel, cfg), multiplier_bootstrap(panel, cfg)
        )

    def test_one_sided_below_two_sided(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 5))
        panel = pooled_panel(x, build_family(5, 2, 8, RngSpec(1)))
        cfg = BootstrapConfig(rng=RngSpec(9), replicates=40)
        assert np.all(
            multiplier_bootstrap(panel, cfg, one_sided=True)
            <= multiplier_bootstrap(panel, cfg)
        )


class TestPoolTest:
    def test_pvalue_floor(self):
        # large shared shift: observed max dwarfs every bootstrap draw
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 5)) + 50.0
        fam = build_family(5, 2, 8, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(5), replicates=200)
        res = pool_test(x, fam, 0.05, cfg)
        assert res.p_value == pytest.approx(1 / 201)
        assert res.reject

    def test_reduction_to_marginal(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 6))
        cfg = BootstrapConfig(rng=RngSpec(13), replicates=100)
        a = pool_test(x, singleton_family(6), 0.05, cfg)
        b = marginal_test(x, 0.05, cfg)
        assert a.statistic == b.statistic
        assert a.critical_value == b.critical_value
        assert a.p_value == b.p_value
        assert a.reject == b.reject

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 6))
        fam = build_family(6, 5, 10, RngSpec(2))
        cfg = BootstrapConfig(rng=RngSpec(3), replicates=100)
        base = pool_test(x, fam, 0.05, cfg)
        for c in (1e-6, 1e6):
            res = pool_test(c * x, fam, 0.05, cfg)
            assert res.statistic == pytest.approx(base.statistic, rel=1e-10)
            assert res.critical_value == pytest.approx(base.critical_value, rel=1e-10)
            assert res.p_value == base.p_value
            assert res.reject == base.reject

    def test_marginal_hand_cases(self):
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        cfg = BootstrapConfig(rng=RngSpec(0), replicates=20)
        assert marginal_test(x, 0.05, cfg).statistic == 0.0
        x2 = np.column_stack([x[:, 0] + [0.1, 0.2, 0.3, 0.4]] * 2)
        res = marginal_test(x2, 0.05, cfg)
        assert res.per_subset_t[0] == res.per_subset_t[1]
