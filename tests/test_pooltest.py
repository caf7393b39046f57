import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import poolmax.core
import poolmax.pooltest
from poolmax import (
    BootstrapConfig,
    RngSpec,
    SubsetFamily,
    bootstrap_quantile,
    build_family,
    comparative_test,
    full_backtest,
    marginal_test,
    max_statistic,
    multiplier_bootstrap,
    naive_test,
    pool_test,
    pooled_panel,
    validation_test,
)
from poolmax.core import substream_normals, validate_matrix
from poolmax.errors import (
    DegenerateVarianceError,
    PoolmaxError,
    SubsetDesignError,
)
from poolmax.pooltest import (
    _FIRST_CHUNK,
    PooledPanel,
    _blocks,
    _bootstrap_rejects,
    _bootstrap_result,
    _order_index,
    _weighted_max,
)
from poolmax.subsets import build_family


@pytest.fixture
def drawn(monkeypatch):
    """The row count of each `substream_normals` call in pooltest."""
    counts = []

    def counted(rng, rows, n):
        counts.append(len(rows))
        return substream_normals(rng, rows, n)

    monkeypatch.setattr(poolmax.pooltest, "substream_normals", counted)
    return counts


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

    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_statistic_is_studentized_row_sum(self, scale):
        """The naive statistic is `_studentized` on the one-column panel of
        row sums, bit for bit: one studentization for all three tests."""
        gen = np.random.default_rng([7, int(np.log10(scale)) + 200])
        for n, p in [(2, 1), (3, 7), (250, 50), (1000, 3)]:
            x = scale * (gen.standard_normal((n, p)) + gen.uniform(-1, 1))
            want = poolmax.pooltest._studentized(x.sum(axis=1)[:, None]).t_stats[0]
            assert naive_test(x, 0.05).statistic.hex() == float(want).hex()

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
        with pytest.raises(ValueError, match="^no bootstrap draws$"):
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
        # an equal config draws its own weights: the same bytes, not the same matrix
        assert np.array_equal(
            multiplier_bootstrap(panel, cfg), multiplier_bootstrap(panel, dataclasses.replace(cfg))
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


class TestConfigWeights:
    """A config draws its B x n weights once per n, and every test on it
    shares that draw."""

    @staticmethod
    def _losses(n):
        """Losses, two forecasts that each exceed about 20% of them, and a family."""
        u = np.random.default_rng(13).standard_normal((n, 8))
        return u, np.full_like(u, 0.84), 0.84 + 0.3 * np.sin(u), build_family(8, 3, 16, RngSpec(1))

    def test_one_draw_per_config_and_n(self, drawn):
        u, r, r_star, fam = self._losses(60)
        cfg = BootstrapConfig(rng=RngSpec(4), replicates=50)
        rep = full_backtest(u, {"a": r, "b": r_star}, 0.2, fam, 0.05, cfg)
        assert drawn == [50] and rep.errors == {}
        pool_test(u, fam, 0.05, cfg)
        marginal_test(u, 0.05, cfg)
        validation_test(u, r, 0.2, fam, 0.05, cfg)
        comparative_test(u, r, r_star, 0.2, fam, 0.05, cfg, one_sided=True)
        full_backtest(u, {"a": r, "b": r_star}, 0.2, fam, 0.05, cfg)
        assert drawn == [50]

    def test_new_n_draws_again(self, drawn):
        u, _, _, fam = self._losses(60)
        cfg = BootstrapConfig(rng=RngSpec(4), replicates=50)
        pool_test(u, fam, 0.05, cfg)
        got = pool_test(u[:40], fam, 0.05, cfg)
        assert drawn == [50, 50]
        fresh = BootstrapConfig(rng=RngSpec(4), replicates=50)
        assert got.to_json() == pool_test(u[:40], fam, 0.05, fresh).to_json()
        assert cfg.weights(40).tobytes() == fresh.weights(40).tobytes()
        assert drawn == [50, 50, 50]

    def test_held_matrix_is_read_only_and_no_field(self, drawn):
        cfg = BootstrapConfig(rng=RngSpec(5, 92_600), replicates=65)
        xi = cfg.weights(7)
        assert xi.tobytes() == oracle.weights(cfg.rng, range(65), 7).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            xi[0, 0] = 1.0
        assert cfg.weights(7) is xi
        equal = dataclasses.replace(cfg)
        assert equal == cfg and hash(equal) == hash(cfg)
        assert repr(cfg) == "BootstrapConfig(rng=RngSpec(seed=5, stream_id=92600), replicates=65)"
        assert equal.weights(7) is not xi and drawn == [65, 65]


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


class TestEarlyStoppingVerdict:
    """`_bootstrap_rejects` gives the verdict of the full bootstrap."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(10, 80), p=st.sampled_from([5, 7]), seed=st.integers(0, 2**16),
           shift=st.sampled_from([0.0, 0.2, 0.5]), B=st.sampled_from([1, 2, 10, 1000]),
           alpha=st.sampled_from([0.01, 0.05, 0.5, 0.99]), marginal=st.booleans())
    def test_same_verdict_as_the_tests(self, n, p, seed, shift, B, alpha, marginal):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((n, p)) + shift * gen.choice([-1.0, 1.0], p)
        fam = singleton_family(p) if marginal else build_family(p, 3, 2 * p, RngSpec(seed))
        panel = pooled_panel(x, fam)
        cfg = BootstrapConfig(rng=RngSpec(seed, 3), replicates=B)
        if marginal:
            want = marginal_test(x, alpha, cfg).reject
        else:
            want = pool_test(x, fam, alpha, cfg).reject
        assert _bootstrap_rejects(panel, alpha, cfg) == want

    def test_statistic_next_to_the_critical_draw(self):
        """B is one more than the first chunk, k is the rank of the last
        draw, and the statistic lies just above or just below that draw:
        the first chunk leaves the verdict open and the last draw decides."""
        B = _FIRST_CHUNK + 1
        x = np.random.default_rng(13).standard_normal((100, 9))
        panel = pooled_panel(x, build_family(9, 4, 18, RngSpec(1)))
        cfg = BootstrapConfig(rng=RngSpec(6), replicates=B)
        draws = multiplier_bootstrap(panel, cfg)
        d = np.sort(draws)
        k = int(np.count_nonzero(d <= draws[-1]))
        assert 2 <= k < B
        alpha = 1 - (k - 0.5) / (B + 1)
        assert _order_index(alpha, B) == k
        for stat, want in [((d[k - 1] + d[k]) / 2, True), ((d[k - 2] + d[k - 1]) / 2, False)]:
            at = PooledPanel(y=panel.y, sigma_hat=panel.sigma_hat, t_stats=np.full(panel.d, stat))
            assert _bootstrap_result(at.t_stats, alpha, draws, "").reject == want
            assert _bootstrap_rejects(at, alpha, cfg) == want

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_falls_back_to_the_full_bootstrap(self, monkeypatch, shift):
        x = np.random.default_rng(11).standard_normal((200, 10)) + shift
        fam = build_family(10, 3, 20, RngSpec(1))
        panel = pooled_panel(x, fam)
        cfg = BootstrapConfig(rng=RngSpec(2), replicates=500)
        want = pool_test(x, fam, 0.05, cfg).reject
        assert want == bool(shift)
        calls = []

        def counted(*args):
            calls.append(args)
            return multiplier_bootstrap(*args)

        monkeypatch.setattr(poolmax.pooltest, "multiplier_bootstrap", counted)
        assert _bootstrap_rejects(panel, 0.05, cfg) == want and calls == []
        monkeypatch.setattr(poolmax.pooltest, "_MARGIN_SLACK", np.inf)
        assert _bootstrap_rejects(panel, 0.05, cfg) == want and len(calls) == 1

    @staticmethod
    def _null_and_far_panels():
        """A config, a null panel and a panel whose statistic every draw lies below."""
        gen = np.random.default_rng(12)
        fam = build_family(20, 7, 40, RngSpec(1))
        cfg = BootstrapConfig(rng=RngSpec(4), replicates=1000)
        null = pooled_panel(gen.standard_normal((300, 20)), fam)
        return cfg, null, pooled_panel(gen.standard_normal((300, 20)) + 1.0, fam)

    def test_stops_drawing_once_the_verdict_is_fixed(self, drawn):
        cfg, null, far = self._null_and_far_panels()
        assert not _bootstrap_rejects(null, 0.05, cfg)
        assert sum(drawn) < 300
        drawn.clear()
        # every draw lies below the far statistic, so the k-th one decides
        assert _bootstrap_rejects(far, 0.05, cfg)
        k = _order_index(0.05, 1000)
        assert drawn == [_FIRST_CHUNK, k - _FIRST_CHUNK]

    def test_derives_keys_only_for_drawn_rows(self, monkeypatch, drawn):
        lanes = []
        philox_keys = poolmax.core._philox_keys

        def hashed(seed, ids, n_words):
            lanes.append(ids.size)
            return philox_keys(seed, ids, n_words)

        monkeypatch.setattr(poolmax.core, "_philox_keys", hashed)
        cfg, null, far = self._null_and_far_panels()
        assert not _bootstrap_rejects(null, 0.05, cfg)
        assert sum(lanes) == sum(drawn) < 300
        lanes.clear()
        assert _bootstrap_rejects(far, 0.05, cfg)
        assert sum(lanes) == _order_index(0.05, 1000)


@pytest.mark.parametrize("n, p, d", [(500, 100, 200), (500, 100, 201), (37, 60, 333), (120, 9, 64)])
def test_chunked_draws_lie_within_the_certified_bound(n, p, d):
    """A chunk's draws differ from the full product's, and those from the
    oracle's one-shot product, by at most the oracle's certified bound, which
    `_bootstrap_rejects` relies on, whether or not BLAS keeps every bit."""
    gen = np.random.default_rng(n * d)
    panel = pooled_panel(gen.standard_normal((n, p)), _random_family(gen, p, (p - 1) // 2, d))
    cfg = BootstrapConfig(rng=RngSpec(d), replicates=300)
    xi = substream_normals(cfg.rng, range(300), n)
    want, bound = oracle.bootstrap(panel, cfg)
    full = _weighted_max(panel, xi)
    chunked = np.concatenate([_weighted_max(panel, xi[lo:hi])
                              for lo, hi in [(0, 64), (64, 65), (65, 190), (190, 300)]])
    assert np.all(np.abs(full - want) <= bound)
    assert np.all(np.abs(full - chunked) <= bound)


def _marginal_by_pooling(x, alpha, cfg):
    """The marginal test as the subsets-pool test over singleton subsets."""
    x = validate_matrix(x)
    panel = pooled_panel(x, singleton_family(x.shape[1]))
    return _bootstrap_result(panel.t_stats, alpha, multiplier_bootstrap(panel, cfg), "marginal")


def _outcome(test, *args):
    try:
        res = test(*args)
    except DegenerateVarianceError as e:
        return f"{type(e).__name__}: {e}"
    return res.to_json() + res.per_subset_t.tobytes().hex()


class TestMarginalOnColumns:
    @pytest.mark.parametrize("seed", range(12))
    def test_bytes_equal_singleton_pooling(self, seed):
        """Signed zeros, ties and scales far from 1 included: x @ I turns
        -0.0 into +0.0, which no statistic may tell apart."""
        gen = np.random.default_rng(seed)
        n, p = int(gen.integers(2, 60)), int(gen.integers(1, 40))
        x = gen.integers(-2, 3, size=(n, p)).astype(np.float64)
        x[gen.random((n, p)) < 0.3] = -0.0
        x[:, gen.random(p) < 0.3] += gen.standard_normal(n)[:, None]
        x *= 10.0 ** gen.uniform(-140, 140)
        cfg = BootstrapConfig(rng=RngSpec(seed, 3), replicates=int(gen.integers(1, 60)))
        alpha = float(gen.uniform(0.01, 0.5))
        want = _outcome(_marginal_by_pooling, x, alpha, cfg)
        assert _outcome(marginal_test, x, alpha, cfg) == want

    def test_constant_column_message(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        x[:, 2] = -0.0
        cfg = BootstrapConfig(rng=RngSpec(0), replicates=10)
        message = r"^zero variance estimate \(subset/column 2\)$"
        with pytest.raises(DegenerateVarianceError, match=message):
            marginal_test(x, 0.05, cfg)
        with pytest.raises(DegenerateVarianceError, match=message):
            pooled_panel(x, singleton_family(4))
        # one column: the message names none
        with pytest.raises(DegenerateVarianceError, match=r"^zero variance estimate$"):
            marginal_test(x[:, 2:3], 0.05, cfg)

    def test_no_indicator_product(self, monkeypatch):
        def refuse(self):
            raise AssertionError("marginal_test built the singleton indicator")

        monkeypatch.setattr(SubsetFamily, "indicator", refuse)
        x = np.random.default_rng(1).standard_normal((20, 5))
        res = marginal_test(x, 0.05, BootstrapConfig(rng=RngSpec(1), replicates=20))
        assert res.per_subset_t.shape == (5,)

    def test_input_not_written(self):
        x = np.random.default_rng(2).standard_normal((20, 5))
        x[0, 0] = -0.0
        before = x.tobytes()
        marginal_test(x, 0.05, BootstrapConfig(rng=RngSpec(2), replicates=20))
        assert x.tobytes() == before


class TestVarianceOutOfRange:
    """A variance that underflows to 0 or overflows to inf raises instead of
    giving a statistic of +-inf or 0; so does a subnormal one, which at
    scale 1e-161 moved the marginal p-value from 0.235 to 0.255."""

    X = np.random.default_rng(0).standard_normal((50, 6))
    CFG = BootstrapConfig(rng=RngSpec(2), replicates=50)
    TESTS = {
        "pool": lambda x, cfg: pool_test(x, build_family(6, 5, 12, RngSpec(1)), 0.05, cfg),
        "marginal": lambda x, cfg: marginal_test(x, 0.05, cfg),
        "naive": lambda x, cfg: naive_test(x, 0.05),
    }

    @pytest.mark.parametrize("scale, shown", [(1e-170, "0.0"), (1e-160, r"[0-9.]+e-32[0-9]"),
                                              (1e160, "inf")],
                             ids=["underflow", "subnormal", "overflow"])
    @pytest.mark.parametrize("test", TESTS.keys())
    def test_raises(self, test, scale, shown):
        where = "" if test == "naive" else r" \(subset/column 0\)"
        message = rf"^variance estimate {shown} is out of floating-point range{where}$"
        with pytest.raises(DegenerateVarianceError, match=message):
            self.TESTS[test](scale * self.X, self.CFG)

    @pytest.mark.parametrize("test", TESTS.keys())
    def test_overflowing_sums_raise_without_warning(self, test):
        """Finite values whose column sums overflow raise the range error
        and nothing else: the sums are taken where the variance is."""
        x = 1e306 * (1 + np.random.default_rng(1).random((250, 6)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateVarianceError, match="^variance estimate inf "):
                self.TESTS[test](x, self.CFG)

    @pytest.mark.parametrize("test, scale, shape, where", [
        ("pool", 1e307, (50, 100), r" \(subset/column 0\)"),
        ("naive", 1e306, (50, 1000), ""),
    ], ids=["pool", "naive"])
    def test_overflowing_pooled_sums_are_out_of_range(self, test, scale, shape, where):
        """Pooled sums that overflow to inf are out of range, not constant,
        and the overflow of the pooling product or row sum warns nothing."""
        x = scale * (1 + np.random.default_rng(3).random(shape))
        fam = build_family(100, 49, 200, RngSpec(1))
        message = rf"^variance estimate nan is out of floating-point range{where}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateVarianceError, match=message):
                if test == "pool":
                    pool_test(x, fam, 0.05, self.CFG)
                else:
                    naive_test(x, 0.05)

    def test_row_sums_of_both_signs_are_out_of_range(self):
        """Partial sums that overflow to +inf and -inf add up to nan, and
        that warns nothing either."""
        x = np.tile([1e308, 1e308, -1e308, -1e308], (3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateVarianceError,
                               match="^variance estimate nan is out of floating-point range$"):
                naive_test(x, 0.05)

    @pytest.mark.parametrize("test", TESTS.keys())
    def test_scales_in_range_pass(self, test):
        for scale in (1e-150, 1e150):
            res = self.TESTS[test](scale * self.X, self.CFG)
            assert math.isfinite(res.statistic) and res.statistic != 0


@pytest.mark.parametrize("total", [1, 63, 64, 65, 128, 129, 255, 256, 257, 319, 320, 512,
                                   1000, 1025, 4002])
@pytest.mark.parametrize("unit_bytes", [8, 8 * 2000, 8 * 4000, 2**40])
def test_blocks_are_aligned(total, unit_bytes):
    """Consecutive blocks cover range(total); all but the last have one
    width, a multiple of 64 within the budget or 256 itself; the last is at
    least 64 wide unless it is the only one; a total within the budget, or
    below 256 + 64, is one block."""
    budget = poolmax.pooltest._BLOCK_BYTES
    blocks = _blocks(total, unit_bytes)
    assert blocks[0][0] == 0 and blocks[-1][1] == total
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    widths = [hi - lo for lo, hi in blocks]
    if total * unit_bytes <= budget or total < 256 + 64:
        assert widths == [total]
    if len(blocks) > 1:
        width = widths[0]
        assert set(widths[:-1]) == {width} and width % 64 == 0
        assert width == 256 or (width > 256 and width * unit_bytes <= budget)
        assert 64 <= widths[-1] < width + 64


def _random_family(gen, p, q, d):
    return SubsetFamily(p=p, q=q, members=np.argsort(gen.random((d, p)), axis=1)[:, :q] + 1)


def _assert_agrees_with_one_shot(shape):
    """Each pooled sum and each draw lies within the oracle's certified
    bound of its one-shot product, and repeated calls give the same bits."""
    n, p, q, d, B = shape
    gen = np.random.default_rng(shape)
    x = gen.standard_normal((n, p))
    fam = _random_family(gen, p, q, d)
    assert len(_blocks(d, 8 * p)) > 1
    panel = pooled_panel(x, fam)
    want, bound = oracle.pooled_sums(x, fam)
    assert np.all(np.abs(panel.y - want) <= bound)
    assert np.array_equal(pooled_panel(x, fam).y, panel.y)

    cfg = BootstrapConfig(rng=RngSpec(B, 7), replicates=B)
    xi = substream_normals(cfg.rng, range(B), n)
    for one_sided in (False, True):
        want, bound = oracle.bootstrap(panel, cfg, one_sided)
        got = _weighted_max(panel, xi, one_sided)
        assert np.all(np.abs(got - want) <= bound)
        assert np.array_equal(_weighted_max(panel, xi, one_sided), got)


class TestBlockedProducts:
    """Pooling and bootstrap in blocks agree with the one-shot products.

    They are not required to agree bit for bit: that depends on the BLAS
    kernel the CPU selects (see `_assert_agrees_with_one_shot`).  Each
    setting is a budget and a width floor: the library's floor of 256, and
    a floor of 64, at which small shapes span many blocks.
    """

    SETTINGS = {"width-64": (1, 64), "budget-7k": (7168, 64), "width-256": (1, 256)}
    # (n, p, q, d, B): n = 2, B = 1, d = 1 (mod 64), d a multiple of 8 or not
    SHAPES = [(2, 10, 3, 130, 1), (30, 40, 7, 1025, 129), (25, 50, 9, 4002, 65),
              (40, 64, 5, 1024, 200), (17, 100, 11, 520, 193), (3, 7, 2, 300, 64)]
    # the same shapes, each d grown past 2 * 256 so that it spans 2 blocks
    SHAPES_256 = [(2, 10, 3, 530, 1), (30, 40, 7, 1025, 129), (25, 50, 9, 4002, 65),
                  (40, 64, 5, 1024, 200), (17, 100, 11, 776, 193), (3, 7, 2, 700, 64)]
    CASES = (list(itertools.product(["width-64", "budget-7k"], SHAPES))
             + [("width-256", shape) for shape in SHAPES_256])

    def _use(self, setting, monkeypatch):
        budget, floor = self.SETTINGS[setting]
        monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(poolmax.pooltest, "_MIN_WIDTH", floor)

    @pytest.mark.parametrize("setting, shape", CASES, ids=[f"{a}-{b}" for a, b in CASES])
    def test_agrees_with_one_shot(self, monkeypatch, setting, shape):
        self._use(setting, monkeypatch)
        _assert_agrees_with_one_shot(shape)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_pool_test_deterministic(self, monkeypatch, setting):
        self._use(setting, monkeypatch)
        gen = np.random.default_rng(8)
        x = gen.standard_normal((30, 40))
        fam = _random_family(gen, 40, 7, 1025)
        cfg = BootstrapConfig(rng=RngSpec(8, 2), replicates=129)
        assert (_outcome(pool_test, x, fam, 0.05, cfg)
                == _outcome(pool_test, x, fam, 0.05, dataclasses.replace(cfg)))

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_marginal_equals_singleton_pooling(self, monkeypatch, setting):
        self._use(setting, monkeypatch)
        gen = np.random.default_rng(9)
        x = gen.standard_normal((30, 600))
        x[gen.random(x.shape) < 0.2] = -0.0
        cfg = BootstrapConfig(rng=RngSpec(9, 3), replicates=129)
        want = _outcome(_marginal_by_pooling, x, 0.05, cfg)
        assert _outcome(marginal_test, x, 0.05, cfg) == want


class TestStudentizedInBlocks:
    """`_studentized` equals numpy's whole-array sum and variance bit for
    bit: budgets giving 1 block, 2 blocks and 3 with a joined remainder."""

    # (budget, d, blocks of 8 * n-byte columns): the remainder of d = 800
    # past 768 is 32 columns, narrower than 64, so it joins the third block
    CASES = [(4 << 20, 1000, 1), (1, 512, 2), (1, 800, 3)]

    @pytest.mark.parametrize("budget, d, count", CASES, ids=["1-block", "2-blocks", "joined"])
    @pytest.mark.parametrize("n", [2, 3, 17, 250])
    def test_bytes_equal_whole_array(self, monkeypatch, budget, d, count, n):
        monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", budget)
        assert len(_blocks(d, 8 * n)) == count
        gen = np.random.default_rng([n, d, count])
        y = gen.standard_normal((n, d)) * 10.0 ** gen.uniform(-100, 100, size=d)
        y[:, gen.random(d) < 0.3] += gen.integers(-3, 4, size=n)[:, None]
        y[1:][gen.random((n - 1, d)) < 0.1] = -0.0  # row 0 keeps each column non-constant
        want = oracle.studentized(y)
        panel = poolmax.pooltest._studentized(y)
        assert panel.sigma_hat.tobytes() == want.sigma_hat.tobytes()
        assert panel.t_stats.tobytes() == want.t_stats.tobytes()

    @pytest.fixture
    def blocked(self, monkeypatch):
        monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", 1)
        y = np.random.default_rng(3).standard_normal((20, 600))
        assert _blocks(600, 8 * 20) == [(0, 256), (256, 512), (512, 600)]
        return y

    def test_first_constant_column_named(self, blocked):
        y = blocked
        y[:, [280, 500]] = 1.5
        y[:, 400] *= 1e-170  # out of range, but after the constant column
        with pytest.raises(DegenerateVarianceError,
                           match=r"^zero variance estimate \(subset/column 280\)$"):
            poolmax.pooltest._studentized(y)

    def test_out_of_range_column_before_constant_named(self, blocked):
        y = blocked
        y[:, 10] *= 1e-170
        y[:, [300, 500]] = 1.5  # constant, but after the out-of-range column
        with pytest.raises(DegenerateVarianceError, match=r"^variance estimate 0\.0 is out of "
                           r"floating-point range \(subset/column 10\)$"):
            poolmax.pooltest._studentized(y)

    def test_first_out_of_range_column_named(self, blocked):
        y = blocked
        y[:, 280] *= 1e-170
        y[:, 400] *= 1e160
        with pytest.raises(DegenerateVarianceError, match=r"^variance estimate 0\.0 is out of "
                           r"floating-point range \(subset/column 280\)$"):
            poolmax.pooltest._studentized(y)


    @pytest.mark.parametrize("column", [10, 280, 530])
    @pytest.mark.parametrize("bad", ["constant", "out-of-range"])
    def test_raising_frames_hold_no_deviations(self, blocked, bad, column):
        """Every 2-d array that a raising pooltest frame holds is a view of
        the pooled sums: a caller that keeps the error keeps those frames,
        and a block of squared deviations would stay alive with them."""
        y = blocked
        if bad == "constant":
            y[:, column] = 1.5
        else:
            y[:, column] *= 1e-170
        with pytest.raises(DegenerateVarianceError) as info:
            poolmax.pooltest._studentized(y)
        tb, held = info.tb, []
        while tb is not None:
            if tb.tb_frame.f_globals["__name__"] == "poolmax.pooltest":
                held += [v for v in tb.tb_frame.f_locals.values()
                         if isinstance(v, np.ndarray) and v.ndim > 1]
            tb = tb.tb_next
        assert held and all(np.shares_memory(v, y) for v in held)


class TestPoolTestInBlocks:
    """`pool_test` pools, studentizes and bootstraps one block of subsets at
    a time: budgets giving 1 block, 3 blocks and 3 with a joined remainder."""

    # (budget, blocks of 8 * max(p, n)-byte columns) at n = 30, p = 40 and
    # d = 800: 320-wide blocks leave a remainder of 160 columns, and 256-wide
    # ones a remainder of 32 past 768, which joins the third block
    CASES = [(4 << 20, 1), (320 * 320, 3), (1, 3)]
    CFG = BootstrapConfig(rng=RngSpec(3), replicates=50)

    @pytest.mark.parametrize("one_sided", [False, True], ids=["two-sided", "one-sided"])
    def test_bytes_do_not_depend_on_blocking(self, monkeypatch, one_sided):
        gen = np.random.default_rng(12)
        x = gen.standard_normal((30, 40)) + 0.05
        fam = build_family(40, 7, 800, RngSpec(12, 1))
        cfg = BootstrapConfig(rng=RngSpec(12, 2), replicates=129)
        panel = oracle.studentized(oracle.pooled_sums(x, fam)[0])
        want = oracle.result(panel, 0.05, oracle.bootstrap(panel, cfg, one_sided)[0],
                             "subsets-pool", one_sided).to_json()
        for budget, count in self.CASES:
            monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", budget)
            assert len(_blocks(800, 8 * 40)) == count
            assert pool_test(x, fam, 0.05, cfg, one_sided).to_json() == want, budget

    @pytest.fixture
    def blocked(self, monkeypatch):
        """A panel whose pooled sums under singleton subsets are its
        columns, in blocks of 256."""
        monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", 1)
        assert _blocks(600, 8 * 600) == [(0, 256), (256, 512), (512, 600)]
        return np.random.default_rng(3).standard_normal((20, 600))

    def test_first_constant_column_named(self, blocked):
        x = blocked
        x[:, [270, 550]] = 1.5
        x[:, 530] *= 1e-170  # out of range, but after the constant column
        with pytest.raises(DegenerateVarianceError,
                           match=r"^zero variance estimate \(subset/column 270\)$"):
            pool_test(x, singleton_family(600), 0.05, self.CFG)

    def test_out_of_range_column_before_constant_named(self, blocked):
        x = blocked
        x[:, 10] *= 1e-170
        x[:, [530, 550]] = 1.5  # constant, but after the out-of-range column
        with pytest.raises(DegenerateVarianceError, match=r"^variance estimate 0\.0 is out of "
                           r"floating-point range \(subset/column 10\)$"):
            pool_test(x, singleton_family(600), 0.05, self.CFG)

    def test_first_out_of_range_column_named(self, blocked):
        x = blocked
        x[:, 280] *= 1e-170
        x[:, 400] *= 1e160
        with pytest.raises(DegenerateVarianceError, match=r"^variance estimate 0\.0 is out of "
                           r"floating-point range \(subset/column 280\)$"):
            pool_test(x, singleton_family(600), 0.05, self.CFG)


    @pytest.mark.parametrize("column, block", [(10, 0), (280, 1), (530, 2)])
    @pytest.mark.parametrize("bad", ["constant", "out-of-range"])
    def test_stops_at_first_bad_block(self, blocked, monkeypatch, column, block, bad):
        """No block after the one holding the first bad column is pooled or
        bootstrapped."""
        x = blocked
        if bad == "constant":
            x[:, column] = 1.5
        else:
            x[:, column] *= 1e-170
        x[:, 590] = 1.5  # a later bad column, which is never reached
        calls = {"indicator": 0, "bootstrap": 0}

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(SubsetFamily, "indicator", counted("indicator", SubsetFamily.indicator))
        monkeypatch.setattr(poolmax.pooltest, "multiplier_bootstrap",
                            counted("bootstrap", multiplier_bootstrap))
        with pytest.raises(DegenerateVarianceError, match=rf"\(subset/column {column}\)$"):
            pool_test(x, singleton_family(600), 0.05, self.CFG)
        assert calls == {"indicator": block + 1, "bootstrap": block}


class TestEmptyFamily:
    """A family with no subsets raises before any pooling work."""

    FAM = SubsetFamily.from_json('{"p": 4, "q": 2, "members": []}')
    X = np.random.default_rng(4).standard_normal((30, 4))
    CFG = BootstrapConfig(rng=RngSpec(4), replicates=20)

    def test_pooled_panel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("validate_matrix ran for an empty family")

        monkeypatch.setattr(poolmax.pooltest, "validate_matrix", refuse)
        with pytest.raises(SubsetDesignError, match="^family has no subsets$"):
            pooled_panel(self.X, self.FAM)

    def test_pool_test(self):
        assert self.FAM.d == 0
        with pytest.raises(SubsetDesignError, match="^family has no subsets$"):
            pool_test(self.X, self.FAM, 0.05, self.CFG)


def _pool_test_peak(n, p, d, B):
    """The tracemalloc peak of one pool_test call, and the cap it must stay
    under: the n x d pooled sums and the B x n weights, plus two blocks."""
    gen = np.random.default_rng(0)
    x = gen.standard_normal((n, p))
    fam = build_family(p, 49, d, RngSpec(1))
    cfg = BootstrapConfig(rng=RngSpec(2), replicates=B)
    tracemalloc.start()
    try:
        pool_test(x, fam, 0.05, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, 8 * n * d + 8 * B * n + 2 * poolmax.pooltest._BLOCK_BYTES


def test_pool_test_memory_is_capped():
    """At n=20, p=2000, d=4000 and B=1000 the dense indicator alone would
    take 61 MiB and the B x d weighted sums 31 MiB."""
    peak, cap = _pool_test_peak(20, 2000, 4000, 1000)
    assert peak < cap


def test_pool_test_memory_is_capped_at_n_250():
    peak, cap = _pool_test_peak(250, 2000, 4000, 1000)
    assert peak < cap


def test_pool_test_makes_no_second_panel(monkeypatch):
    """With 1 MiB blocks, which every block of this shape fits, the cap
    leaves no room for a second n x d array (7.6 MiB), as a whole-array
    variance makes."""
    monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", 1 << 20)
    peak, cap = _pool_test_peak(250, 500, 4000, 500)
    assert peak < cap


def test_pool_test_holds_no_pooled_panel(monkeypatch):
    """With 1 MiB blocks the cap holds the B x n weights and three blocks,
    and has no n x d term: the 7.6 MiB of pooled sums never exist whole."""
    monkeypatch.setattr(poolmax.pooltest, "_BLOCK_BYTES", 1 << 20)
    B, n = 500, 250
    peak, _ = _pool_test_peak(n, 500, 4000, B)
    assert peak < 8 * B * n + 3 * poolmax.pooltest._BLOCK_BYTES


def test_numpy_alpha_gives_a_python_float():
    """A result records alpha as a Python float: np.float64 keeps the bytes
    of a Python float, and np.float32 serializes as its float64 value."""
    x = np.random.default_rng(3).standard_normal((60, 7)) + 0.1
    fam = build_family(7, 3, 14, RngSpec(1))
    cfg = BootstrapConfig(RngSpec(2), replicates=50)
    tests = {"naive": lambda a: naive_test(x, a),
             "pool": lambda a: pool_test(x, fam, a, cfg),
             "marginal": lambda a: marginal_test(x, a, cfg)}
    for name, test in tests.items():
        assert test(np.float64(0.05)).to_json() == test(0.05).to_json(), name
        res = test(np.float32(0.05))
        assert type(res.alpha) is float and res.alpha == float(np.float32(0.05)), name
        assert json.loads(res.to_json())["alpha"] == float(np.float32(0.05)), name
