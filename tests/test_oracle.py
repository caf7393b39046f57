"""Each entry point against `oracle`, the slow reference, on shapes on both
sides of each fast path's edges: pooling, variance and bootstrap blocks of
64 subsets (d = 201 spans 3 of them and d = 333 spans 5), d past the BLAS
tile, B of 1, 2, 64, 65 (one past the first early-stopping chunk) and 1000,
p = 6000 with small n, and stream ids past 2**32.

Each comparison is bit for bit where a docstring promises bits; a product
taken in other blocks or chunks than the reference's lies within
`oracle.product_bound` (see `assert_matches_oracle`).
"""

import numpy as np
import pytest

import oracle
from poolmax import (
    BootstrapConfig,
    RngSpec,
    SubsetFamily,
    build_family,
    core,
    marginal_test,
    multiplier_bootstrap,
    naive_test,
    pool_test,
    pooled_panel,
    pooltest,
    run_sweep,
    simlab,
    subsets,
)
from poolmax.backtest import (
    comparative_test,
    exceedance_matrix,
    full_backtest,
    score_diff_matrix,
    validation_test,
)
from poolmax.core import substream_normals
from poolmax.errors import DegenerateVarianceError
from poolmax.pooltest import _FIRST_CHUNK, PooledPanel, _blocks, _bootstrap_rejects, _studentized
from poolmax.simlab import METHODS, DgpSpec

# (n, p, q, d, B, rng)
SHAPES = [
    (2, 10, 3, 201, 1, RngSpec(0)),
    (40, 67, 5, 201, 65, RngSpec(5, 92_600)),  # replicate ids cross 2**32
    (25, 50, 9, 333, 2, RngSpec(1)),
    (30, 20, 7, 333, 1000, RngSpec(3, 92_600)),
    (17, 100, 11, 201, 64, RngSpec(2**40 + 3, 7)),
    (12, 6000, 49, 201, 64, RngSpec(4)),  # p = 6000, small n
]
# the oracle pools the marginal test's columns through a dense p x p identity,
# which at p = 6000 would take 288 MB
MARGINAL_SHAPES = [s for s in SHAPES if s[1] <= 100]
# the backtests pool exceedances, which two rows leave constant in some subset
BACKTEST_SHAPES = [s for s in SHAPES if s[0] > 2]


def _shape_id(shape):
    n, p, _, d, B, _ = shape
    return f"n{n}-p{p}-d{d}-B{B}"


@pytest.fixture(params=["library-blocks", "blocks-of-64"])
def blocks(request, monkeypatch):
    """The library's own blocks, or blocks of 64 subsets wherever it blocks."""
    if request.param == "blocks-of-64":
        monkeypatch.setattr(pooltest, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(pooltest, "_MIN_WIDTH", 64)
        assert [len(_blocks(d, 8)) for d in (201, 333)] == [3, 5]
    return request.param


def _inputs(shape):
    """x, a family of d random subsets (d may be below p) and a config."""
    n, p, q, d, B, rng = shape
    x = np.random.default_rng([n, p, d]).standard_normal((n, p))
    fam = SubsetFamily(p=p, q=q, members=oracle.choice_rows(p, q, d, RngSpec(d, 1)))
    return x, fam, BootstrapConfig(rng=rng, replicates=B)


def _losses(shape):
    """Losses, and two forecasts that each exceed about 20% of them."""
    x, fam, cfg = _inputs(shape)
    return x, np.full_like(x, 0.84), 0.84 + 0.3 * np.sin(x), fam, cfg


def assert_matches_oracle(got, panel, x, fam, alpha, cfg, one_sided=False):
    """`got` is the test that `panel`, the library's pooled panel of x over
    fam, gives; then
    - its pooled sums lie within `oracle.product_bound` of the dense product;
    - its variances and t-statistics are the oracle's studentization of
      those sums, bit for bit;
    - its draws lie within the bound of the one-shot product of those sums
      with one generator per replicate;
    - `got` is the oracle's order statistic and p-value of those draws, bit
      for bit."""
    y, bound = oracle.pooled_sums(x, fam)
    assert np.all(np.abs(panel.y - y) <= bound)
    want = oracle.studentized(panel.y)
    assert panel.sigma_hat.tobytes() == want.sigma_hat.tobytes()
    assert panel.t_stats.tobytes() == want.t_stats.tobytes()
    draws = multiplier_bootstrap(panel, cfg, one_sided)
    want_draws, bound = oracle.bootstrap(panel, cfg, one_sided)
    assert np.all(np.abs(draws - want_draws) <= bound)
    want = oracle.result(panel, alpha, draws, got.method, one_sided)
    assert got.to_json() == want.to_json()
    assert got.per_subset_t.tobytes() == want.per_subset_t.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_pool_test(shape, blocks):
    x, fam, cfg = _inputs(shape)
    assert_matches_oracle(pool_test(x, fam, 0.05, cfg), pooled_panel(x, fam), x, fam, 0.05, cfg)


@pytest.mark.parametrize("shape", MARGINAL_SHAPES, ids=_shape_id)
def test_marginal_test(shape, blocks):
    """The pooling test over singleton subsets, without their product."""
    x, _, cfg = _inputs(shape)
    p = x.shape[1]
    singletons = SubsetFamily(p=p, q=1, members=np.arange(1, p + 1)[:, None])
    assert_matches_oracle(marginal_test(x, 0.1, cfg), _studentized(x), x, singletons, 0.1, cfg)


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_naive_test(shape):
    x, _, _ = _inputs(shape)
    for alpha in (0.05, 0.5):
        assert naive_test(x + 0.3, alpha).to_json() == oracle.naive_test(x + 0.3, alpha).to_json()


@pytest.mark.parametrize("shape", BACKTEST_SHAPES, ids=_shape_id)
def test_validation_test(shape, blocks):
    u, r, _, fam, cfg = _losses(shape)
    x = exceedance_matrix(u, r, 0.2)
    got = validation_test(u, r, 0.2, fam, 0.05, cfg)
    assert_matches_oracle(got, pooled_panel(x, fam), x, fam, 0.05, cfg)


@pytest.mark.parametrize("one_sided", [False, True], ids=["two-sided", "one-sided"])
@pytest.mark.parametrize("shape", BACKTEST_SHAPES, ids=_shape_id)
def test_comparative_test(shape, one_sided, blocks):
    u, r_star, r, fam, cfg = _losses(shape)
    got = comparative_test(u, r, r_star, 0.2, fam, 0.05, cfg, one_sided=one_sided)
    x = score_diff_matrix(u, r, r_star, 0.2)
    assert_matches_oracle(got, pooled_panel(x, fam), x, fam, 0.05, cfg, one_sided)


@pytest.mark.parametrize("shape", BACKTEST_SHAPES[:3], ids=_shape_id)
def test_full_backtest_cells(shape, blocks):
    """Each cell is its single call bit for bit, and matches the oracle; a
    degenerate cell is the single call's error, and the oracle's too."""
    u, r, r_var, fam, cfg = _losses(shape)
    fcs = {"emp": r, "var": r_var, "dup": r.copy()}
    rep = full_backtest(u, fcs, 0.2, fam, 0.05, cfg)
    cells = [(rep.validation[m], m, exceedance_matrix(u, fcs[m], 0.2),
              lambda m=m: validation_test(u, fcs[m], 0.2, fam, 0.05, cfg), False)
             for m in fcs]
    cells += [(rep.comparative[(a, b)], f"{a}|{b}", score_diff_matrix(u, fcs[a], fcs[b], 0.2),
               lambda a=a, b=b: comparative_test(u, fcs[a], fcs[b], 0.2, fam, 0.05, cfg,
                                                 one_sided=True), True)
              for (a, b) in rep.comparative]
    assert list(rep.errors) == ["dup|emp"]
    for got, key, x, single, one_sided in cells:
        if got is None:
            with pytest.raises(DegenerateVarianceError) as info:
                single()
            assert rep.errors[key] == str(info.value)
            with pytest.raises(DegenerateVarianceError):
                oracle.studentized(oracle.pooled_sums(x, fam)[0])
            continue
        want = single()
        assert got.to_json() == want.to_json()
        assert got.per_subset_t.tobytes() == want.per_subset_t.tobytes()
        assert_matches_oracle(got, pooled_panel(x, fam), x, fam, 0.05, cfg, one_sided)


SWEEPS = [
    # at B = 1 and 2 the verdicts hang on the weights, so on the stream layout
    (DgpSpec("B1", 200, 20, 4, True, RngSpec(5)), 0.2, 1),
    (DgpSpec("B2", 200, 20, 4, True, RngSpec(5)), 0.5, 2),
    (DgpSpec("B2", 200, 20, 4, False, RngSpec(6)), 0.2, 65),
    (DgpSpec("A2", 300, 20, 4, True, RngSpec(2)), 0.05, 64),
]


@pytest.mark.parametrize("spec, alpha, B", SWEEPS,
                         ids=[f"{s.model}-{'null' if s.under_null else 'alt'}-B{B}"
                              for s, _, B in SWEEPS])
def test_run_sweep(spec, alpha, B):
    """Every rejection rate, from the early-stopped verdicts, equals the
    full bootstrap's from the oracle's families and panels; a degenerate
    repetition raises in both."""
    args = (spec, [3, 7], [20, 33], alpha, B, 4)
    try:
        want = oracle.run_sweep(*args, METHODS)
    except DegenerateVarianceError:
        with pytest.raises(DegenerateVarianceError):
            run_sweep(*args, METHODS)
        want = oracle.run_sweep(*args, ("naive", "subsets-pool"))
        got = run_sweep(*args, ("naive", "subsets-pool"))
    else:
        got = run_sweep(*args, METHODS)
    assert {(r["q"], r["d"], r["method"]): r["reject_rate"] for r in got.rows} == want
    assert 0 < sum(want.values()) < len(want)


# (n, p, shift, B, alpha): a null and a shifted panel at each B
VERDICTS = [(n, 9, shift, B, alpha) for n, B, alpha in
            [(30, 1, 0.5), (50, 2, 0.2), (60, 64, 0.05), (80, 65, 0.05), (100, 1000, 0.05),
             (100, 1000, 0.5)]
            for shift in (0.0, 0.3)]


@pytest.mark.parametrize("n, p, shift, B, alpha", VERDICTS)
def test_early_stopped_verdict(n, p, shift, B, alpha):
    """The verdict `run_sweep` takes from the replicates it drew is the full
    bootstrap's; the stream ids cross 2**32 inside the first chunk."""
    x = np.random.default_rng([n, B]).standard_normal((n, p)) + shift
    panel = pooled_panel(x, build_family(p, 4, 2 * p, RngSpec(B)))
    cfg = BootstrapConfig(rng=RngSpec(1, 92_640), replicates=B)
    assert _bootstrap_rejects(panel, alpha, cfg) == oracle.rejects(panel, alpha, cfg)


@pytest.mark.parametrize("seed", [5, 6])
def test_early_stopped_verdict_beside_a_lone_row(seed):
    """B is one more than the first chunk, so the last replicate is drawn
    alone, in a one-row product that need not keep the bits of the full
    one (on the OpenBLAS kernels measured, it rounds 2 ulps above the full
    product's draw at seed 5 and 7 below at seed 6).  The statistic lies one
    ulp from the full product's draw, toward the lone row's, at the rank
    that decides the verdict: only the certified margin sends it to the
    full bootstrap."""
    B = _FIRST_CHUNK + 1
    x = np.random.default_rng(13).standard_normal((100, 9))
    panel = pooled_panel(x, build_family(9, 4, 18, RngSpec(1)))
    cfg = BootstrapConfig(rng=RngSpec(seed), replicates=B)
    full = oracle.bootstrap(panel, cfg)[0]
    xi = oracle.weights(cfg.rng, range(B - 1, B), panel.n)
    alone = np.abs(xi @ panel.y / np.sqrt(panel.n * panel.sigma_hat)).max()
    k = int(np.count_nonzero(full <= full[-1]))
    assert 2 <= k < B
    at = PooledPanel(y=panel.y, sigma_hat=panel.sigma_hat,
                     t_stats=np.full(panel.d, np.nextafter(full[-1], alone)))
    alpha = 1 - (k - 0.5) / (B + 1)
    assert _bootstrap_rejects(at, alpha, cfg) == oracle.rejects(at, alpha, cfg)


FAMILIES = [
    (5, 2, 5, 0, None),
    (100, 49, 301, 3, None),
    (7, 3, 20, 5, [[7, 1, 2], [3, 2, 1]]),
    (6000, 49, 6300, 1, None),
    (10001, 201, 10004, 2, None),  # numpy's partial shuffle, not Floyd's draws
]


@pytest.mark.parametrize("p, q, d, seed, user", FAMILIES, ids=[f"p{f[0]}-q{f[1]}-d{f[2]}"
                                                               for f in FAMILIES])
def test_build_family(p, q, d, seed, user):
    got = build_family(p, q, d, RngSpec(seed, 2**33), user_subsets=user)
    want = oracle.family(p, q, d, RngSpec(seed, 2**33), user_subsets=user)
    assert got.members.tobytes() == want.members.tobytes()
    assert got == want


@pytest.mark.parametrize("B", [1, 2, 64, 65, 1000])
@pytest.mark.parametrize("rng", [RngSpec(0), RngSpec(5, 92_600), RngSpec(2**140, 9)],
                         ids=["seed-0", "ids-cross-2**32", "five-seed-words"])
def test_substream_normals(rng, B):
    for rows in (range(B), range(B, 2 * B)):
        assert substream_normals(rng, rows, 7).tobytes() == oracle.weights(rng, rows, 7).tobytes()


def test_oracle_takes_no_fast_path(monkeypatch):
    """The oracle runs with every fast path it checks patched to fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle took a fast path")

    for module, names in [(core, ["substream_normals", "_philox_keys"]),
                          (pooltest, ["pooled_panel", "_studentized", "_weighted_max", "_blocks",
                                      "_bootstrap_rejects", "multiplier_bootstrap"]),
                          (subsets, ["_floyd", "random_extension"]),
                          (simlab, ["pooled_panel", "_studentized", "_bootstrap_rejects",
                                    "build_family"])]:
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(SubsetFamily, "indicator", refuse)
    spec = DgpSpec("B1", 50, 10, 2, False, RngSpec(1))
    rates = oracle.run_sweep(spec, [3], [10, 13], 0.2, 65, 2, METHODS)
    assert set(rates) == {(3, d, m) for d in (10, 13) for m in METHODS}
    x, fam, cfg = _inputs(SHAPES[1])
    panel = oracle.studentized(oracle.pooled_sums(x, fam)[0])
    oracle.result(panel, 0.05, oracle.bootstrap(panel, cfg, True)[0], "subsets-pool", True)
    oracle.naive_test(x, 0.05)
    oracle.family(7, 3, 20, RngSpec(5), user_subsets=[[7, 1, 2]])
