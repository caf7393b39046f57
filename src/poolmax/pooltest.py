"""The three mean-zero tests for shrinking observations.

* naive test: pool all dimensions into one row sum and compare the
  studentized total against a standard-normal quantile;
* subsets-pool test: max absolute studentized subset sum, calibrated by a
  Gaussian multiplier bootstrap;
* marginal test: the no-pooling baseline, i.e. the subsets-pool test with
  singleton subsets, run on the columns themselves.

Variance estimates everywhere use divisor n, and the bootstrap multiplies
uncentered subset sums; both choices follow the displayed estimators
verbatim (see tests for the conditional-covariance identity this implies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RngSpec,
    TestResult,
    _check_count,
    _check_level,
    _extension,
    _raise_first_nonfinite,
    substream_normals,
    validate_matrix,
)
from .errors import DegenerateVarianceError, PoolmaxError, SubsetDesignError
from .subsets import SubsetFamily

__all__ = [
    "BootstrapConfig",
    "PooledPanel",
    "naive_test",
    "pooled_panel",
    "max_statistic",
    "multiplier_bootstrap",
    "bootstrap_quantile",
    "pool_test",
    "marginal_test",
]


@dataclass(frozen=True)
class BootstrapConfig:
    """The stream and count of the multiplier bootstrap's replicates.

    The weights are a property of the config: `weights(n)` draws the B x n
    matrix on first use and holds it for later tests at the same n, so tests
    that share a config share its draw.  The held matrix is not a field: it
    takes no part in eq, hash or repr, and `dataclasses.replace` gives a
    config that holds nothing.
    """

    rng: RngSpec
    replicates: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "replicates", _check_count("replicates", self.replicates, 1))

    def weights(self, n: int) -> np.ndarray:
        """The (B, n) multiplier weights, ``substream_normals(rng, range(B), n)``.

        Held read-only for one n at a time (B * n * 8 bytes while the config
        lives); a call with another n draws again and replaces it.
        """
        xi = self.__dict__.get("_weights")
        if xi is None or xi.shape[1] != n:
            xi = substream_normals(self.rng, range(self.replicates), n)
            xi.flags.writeable = False
            object.__setattr__(self, "_weights", xi)
        return xi


@dataclass(frozen=True)
class PooledPanel:
    """Per-subset pooled sums and their studentized statistics.

    y[i, ell] is the sum of row i over subset ell; sigma_hat uses the
    mean-centered divisor-n variance of the pooled column.
    """

    y: np.ndarray
    sigma_hat: np.ndarray
    t_stats: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.y.shape[1]


# Bytes that one column block of a d-wide temporary of the pooling path may
# take: of the p x d indicator, of the B x d bootstrap draws and of the n x d
# squared deviations behind the variance (see `_blocks`).  Each pooling block
# re-packs x for BLAS, and each bootstrap block the B x n weights, so a
# smaller budget costs time: a cold 250 x 2000 `pool-test` peaks at 60 MB,
# against 69 MB with 16 MiB blocks and 114 MB unblocked.
_BLOCK_BYTES = 4 << 20

# No block but the last is narrower than this.  At p = 6000 the budget holds
# 87 indicator columns; 64-wide blocks made pooling there 30% slower than
# 256-wide ones, which overrun the budget instead.
_MIN_WIDTH = 256


def _blocks(total: int, unit_bytes: int):
    """Consecutive [lo, hi) ranges covering range(total), each as wide as
    the units of `unit_bytes` that fit in `_BLOCK_BYTES`.

    Widths are rounded down to a multiple of 64 and never fall below
    `_MIN_WIDTH`.  On the OpenBLAS kernels measured, a product split at
    such edges kept every bit of the one-shot product, while widths such
    as 500 and 1500 did not; numpy's column sums and variances keep every
    bit at any width above 1, where a one-wide block would sum pairwise.
    A remainder narrower than 64 joins the block before it, since a
    one-wide product would go to gemv.  A total that fits the budget is
    one block.
    """
    width = max(_MIN_WIDTH, _BLOCK_BYTES // unit_bytes // 64 * 64)
    starts = list(range(0, total, width))
    if len(starts) > 1 and total - starts[-1] < 64:
        starts.pop()
    return list(zip(starts, starts[1:] + [total]))


def pooled_panel(x, fam: SubsetFamily) -> PooledPanel:
    """The subset sums y = x @ fam.indicator() and their t-statistics.

    The product runs over column blocks of subsets (`_blocks`), each
    written straight into y, so about `_BLOCK_BYTES` of the p x d
    indicator exists at once.  A family that fits the budget runs as one
    block.
    """
    if fam.d == 0:
        raise SubsetDesignError("family has no subsets")
    x = validate_matrix(x)
    p = x.shape[1]
    if fam.p != p:
        raise PoolmaxError(f"family has p={fam.p}, panel has p={p}")
    y = np.empty((x.shape[0], fam.d))
    with np.errstate(over="ignore", invalid="ignore"):  # `_studentized` checks the sums
        for lo, hi in _blocks(fam.d, 8 * p):
            np.matmul(x, fam.indicator(lo, hi), out=y[:, lo:hi])
    return _studentized(y)


def _studentized(y: np.ndarray) -> PooledPanel:
    """The panel whose pooled sums are the columns of y.

    The column sums are taken once, and serve as the mean of the variance
    and as the numerator of the t-statistics; the variance runs over column
    blocks (`_blocks`), so about `_BLOCK_BYTES` of squared deviations
    exists at once.  Both equal `y.sum(axis=0)` and `y.var(axis=0)` bit for
    bit, since numpy's axis-0 reduction adds the rows of a block of two or
    more columns in the same order as those of the whole array.

    This is the one place that tells a degenerate pooled sum from an
    out-of-range one.  A constant column of finite sums, or a variance that
    under- or overflows the float range, would make a t-statistic infinite,
    zero or inexact; each raises instead, the first constant column before
    the first bad variance.  A column with a non-finite sum (the pooling
    overflowed) is out of range, not constant.  A subnormal variance counts
    as underflow: it has lost bits.  Messages name the column only when y
    has more than one.
    """
    n, d = y.shape
    where = " (subset/column {})" if d > 1 else ""
    blocks = _blocks(d, 8 * n)
    constant = np.concatenate([(y[:, lo:hi] == y[0, lo:hi]).all(axis=0) for lo, hi in blocks])
    constant &= np.isfinite(y[0])
    if constant.any():
        raise DegenerateVarianceError(f"zero variance estimate{where.format(constant.argmax())}")
    sigma_hat = np.empty(d)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        total = y.sum(axis=0)
        mean = total / n
        for lo, hi in blocks:
            dev = y[:, lo:hi] - mean[lo:hi]
            np.multiply(dev, dev, out=dev)
            np.sum(dev, axis=0, out=sigma_hat[lo:hi])
        sigma_hat /= n
        scale = n * sigma_hat
    bad = np.flatnonzero(~(np.isfinite(scale) & (sigma_hat >= np.finfo(np.float64).tiny)))
    if bad.size:
        j = bad[0]
        raise DegenerateVarianceError(f"variance estimate {float(sigma_hat[j])!r} is out of "
                                      f"floating-point range{where.format(j)}")
    t_stats = total / np.sqrt(scale)
    return PooledPanel(y=y, sigma_hat=sigma_hat, t_stats=t_stats)


def max_statistic(panel: PooledPanel) -> float:
    return float(np.abs(panel.t_stats).max())


def naive_test(x, alpha: float) -> TestResult:
    """The pooled statistic of one subset holding all p dimensions, i.e. the
    studentized full row sum, against the two-sided normal quantile."""
    ufuncs = _extension("scipy.special._ufuncs")  # here, not above: only this test needs scipy
    x = validate_matrix(x)
    alpha = _check_level("alpha", alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # `_studentized` checks the sums
        y = x.sum(axis=1)
    t = float(_studentized(y[:, None]).t_stats[0])
    z = float(ufuncs.ndtri(1 - alpha / 2))
    p_value = float(2 * ufuncs.ndtr(-abs(t)))
    return TestResult(
        statistic=t,
        critical_value=z,
        p_value=p_value,
        reject=abs(t) > z,
        alpha=alpha,
        method="naive",
    )


def multiplier_bootstrap(
    panel: PooledPanel, cfg: BootstrapConfig, one_sided: bool = False
) -> np.ndarray:
    """B bootstrap draws of the max statistic under standard-normal weights.

    Replicate b draws its weights from substream(cfg.rng, b), so the
    output is independent of evaluation order.  The weights depend only on
    (cfg.rng, B, n), never on the data, so they come from
    `cfg.weights(panel.n)`: every test on one config at one n shares one
    draw.  The pooled sums enter uncentered.  The weighted sums are taken
    over column blocks of subsets (`_blocks`), so about `_BLOCK_BYTES` of
    the B x d weighted sums exists at once and each block re-packs only the
    B x n weights, never the n x d panel; a running max over blocks is the
    max over all of them.
    """
    return _weighted_max(panel, cfg.weights(panel.n), one_sided)


def _weighted_max(panel: PooledPanel, xi: np.ndarray, one_sided: bool = False) -> np.ndarray:
    """The max statistic of each replicate, for a ready (B, n) weight matrix."""
    scale = np.sqrt(panel.n * panel.sigma_hat)
    draws = np.full(xi.shape[0], -np.inf)
    blocks = _blocks(panel.d, 8 * xi.shape[0])
    buf = np.empty((xi.shape[0], max(hi - lo for lo, hi in blocks)))
    for lo, hi in blocks:
        t_b = np.matmul(xi, panel.y[:, lo:hi], out=buf[:, :hi - lo])
        t_b /= scale[lo:hi]
        if not one_sided:
            np.abs(t_b, out=t_b)
        np.maximum(draws, t_b.max(axis=1), out=draws)
    return draws


# The replicates `_bootstrap_rejects` draws before it first counts.  A chunk
# costs about as much as 3 more rows of draws (n = 500, d = 200); over 20
# null repetitions of A1, B1 and B2 at B = 1000, a first chunk of 64 drew
# the fewest rows and chunks together, against 32, 48, 96, 128 and 192.
_FIRST_CHUNK = 64

# How many times its certified bound a chunked draw must lie from the statistic
# before `_bootstrap_rejects` takes its side without the full product.
_MARGIN_SLACK = 2.0


def _bootstrap_rejects(panel: PooledPanel, alpha: float, cfg: BootstrapConfig) -> bool:
    """The verdict of ``_bootstrap_result(panel, alpha, multiplier_bootstrap(
    panel, cfg), ...)``, drawing replicates only until it is fixed.

    The statistic rejects iff at least k of the B draws lie below it
    (`_order_index`).  Replicates are drawn in order, in chunks, from the
    same substreams, and the path stops once k draws lie below the
    statistic (reject) or B - k + 1 reach it (accept).  The first chunk is
    `_FIRST_CHUNK` replicates; each next one is the expected number of
    draws to the nearer verdict at the rates seen so far.

    A chunk's product need not match the full ``xi @ y`` bit for bit, so
    each draw must lie clear of the statistic by a certified margin.  Two
    evaluations of a length-n inner product differ by at most
    2 gamma_n |xi_b| |y_l| (gamma_n = n u / (1 - n u), u the unit roundoff),
    whatever their order of summation; dividing by the scale, taking the
    absolute value and the max over subsets add at most a few roundoffs of
    the values compared.  If any draw lies within `_MARGIN_SLACK` times that
    bound, all B draws of the full bootstrap are counted instead.
    """
    B = cfg.replicates
    k = _order_index(alpha, B)
    stat = max_statistic(panel)
    n = panel.n
    u = np.finfo(np.float64).eps / 2
    gamma = n * u / (1 - n * u)
    c = float((np.sqrt(np.einsum("ij,ij->j", panel.y, panel.y))
               / np.sqrt(n * panel.sigma_hat)).max())
    below = above = lo = 0
    hi = min(B, _FIRST_CHUNK)
    while True:
        xi = substream_normals(cfg.rng, range(lo, hi), n)
        draws = _weighted_max(panel, xi)
        bound = 2 * gamma * c * np.sqrt(np.einsum("ij,ij->i", xi, xi)) \
            + 4 * u * (abs(stat) + np.abs(draws))
        if not (np.abs(draws - stat) > _MARGIN_SLACK * bound).all():
            return np.count_nonzero(multiplier_bootstrap(panel, cfg) < stat) >= k
        n_below = int(np.count_nonzero(draws < stat))
        below += n_below
        above += hi - lo - n_below
        if below >= k:
            return True
        if above > B - k:
            return False
        expected = hi * min((k - below) / below if below else np.inf,
                            (B - k + 1 - above) / above if above else np.inf)
        lo, hi = hi, min(B, hi + int(np.ceil(expected)))


def _order_index(alpha: float, B: int) -> int:
    """k = min(ceil((1-alpha)(B+1)), B): the critical value of B draws is
    their k-th smallest, so a statistic exceeds it iff at least k draws lie
    below the statistic."""
    alpha = _check_level("alpha", alpha)
    return min(int(np.ceil((1 - alpha) * (B + 1))), B)


def bootstrap_quantile(draws, alpha: float) -> float:
    """The ceil((1-alpha)(B+1))-th order statistic, clamped to the max draw;
    a NaN or inf draw raises NonFiniteError at the first one."""
    draws = np.asarray(draws, dtype=np.float64)
    if draws.size == 0:
        raise PoolmaxError("no bootstrap draws")
    _raise_first_nonfinite(~np.isfinite(draws))
    return float(np.sort(draws)[_order_index(alpha, draws.size) - 1])


def _bootstrap_result(
    panel: PooledPanel,
    alpha: float,
    draws: np.ndarray,
    method: str,
    one_sided: bool = False,
) -> TestResult:
    stat = float(panel.t_stats.max()) if one_sided else max_statistic(panel)
    c = bootstrap_quantile(draws, alpha)
    B = draws.size
    p_value = float((1 + np.count_nonzero(draws >= stat)) / (B + 1))
    return TestResult(
        statistic=stat,
        critical_value=c,
        p_value=p_value,
        reject=stat > c,
        alpha=alpha,
        method=method,
        per_subset_t=panel.t_stats.copy(),
    )


def pool_test(
    x, fam: SubsetFamily, alpha: float, cfg: BootstrapConfig, one_sided: bool = False
) -> TestResult:
    """Subsets-based pooling max-test with multiplier-bootstrap calibration.

    Two-sided: the max absolute t-statistic against the max absolute
    bootstrap draws.  One-sided: the max signed t-statistic against the max
    signed draws, so only pooled sums above zero count as evidence.
    """
    alpha = _check_level("alpha", alpha)
    panel = pooled_panel(x, fam)
    draws = multiplier_bootstrap(panel, cfg, one_sided)
    return _bootstrap_result(panel, alpha, draws, "subsets-pool", one_sided)


def marginal_test(x, alpha: float, cfg: BootstrapConfig) -> TestResult:
    """Max-type test on individual dimensions: the subsets-pool test with
    singleton subsets, whose pooled sums are the columns of x themselves."""
    x = validate_matrix(x)
    alpha = _check_level("alpha", alpha)
    panel = _studentized(x)
    return _bootstrap_result(panel, alpha, multiplier_bootstrap(panel, cfg), "marginal")
