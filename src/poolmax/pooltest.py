"""The three mean-zero tests for shrinking observations.

* naive test: pool all dimensions into one row sum and compare the
  studentized total against a standard-normal quantile;
* subsets-pool test: max absolute studentized subset sum, calibrated by a
  Gaussian multiplier bootstrap;
* marginal test: the no-pooling baseline, i.e. the subsets-pool test with
  singleton subsets.

Variance estimates everywhere use divisor n, and the bootstrap multiplies
uncentered subset sums; both choices follow the displayed estimators
verbatim (see tests for the conditional-covariance identity this implies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngSpec, TestResult, substream_normals, validate_matrix
from .errors import DegenerateStatisticError, DegenerateVarianceError, PoolmaxError
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
    rng: RngSpec
    replicates: int = 1000

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one bootstrap replicate")


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


def pooled_panel(x, fam: SubsetFamily) -> PooledPanel:
    x = validate_matrix(x)
    n, p = x.shape
    if fam.p != p:
        raise PoolmaxError(f"family has p={fam.p}, panel has p={p}")
    y = x @ fam.indicator()
    constant = np.flatnonzero((y == y[0]).all(axis=0))
    if constant.size:
        raise DegenerateVarianceError(int(constant[0]))
    sigma_hat = y.var(axis=0)
    t_stats = y.sum(axis=0) / np.sqrt(n * sigma_hat)
    return PooledPanel(y=y, sigma_hat=sigma_hat, t_stats=t_stats)


def max_statistic(panel: PooledPanel) -> float:
    return float(np.abs(panel.t_stats).max())


def naive_test(x, alpha: float) -> TestResult:
    """Studentized full row sum against the two-sided normal quantile."""
    from scipy.special import ndtr, ndtri  # here, not above: only this test needs scipy

    x = validate_matrix(x)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    n = x.shape[0]
    y = x.sum(axis=1)
    if (y == y[0]).all():
        raise DegenerateVarianceError()
    sigma_hat = y.var()
    t = float(y.sum() / np.sqrt(n * sigma_hat))
    z = float(ndtri(1 - alpha / 2))
    p_value = float(2 * ndtr(-abs(t)))
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
    (cfg.rng, B, n), never on the data: ``substream_normals`` derives the
    Philox keys of all B replicates in one batch, and ``full_backtest``
    draws the weight matrix once for all of its tests.  The pooled sums
    enter uncentered.
    """
    return _weighted_max(panel, substream_normals(cfg.rng, cfg.replicates, panel.n),
                         one_sided)


def _weighted_max(panel: PooledPanel, xi: np.ndarray, one_sided: bool = False) -> np.ndarray:
    """The max statistic of each replicate, for a ready (B, n) weight matrix."""
    t_b = xi @ panel.y
    t_b /= np.sqrt(panel.n * panel.sigma_hat)
    if not one_sided:
        np.abs(t_b, out=t_b)
    return t_b.max(axis=1)


def bootstrap_quantile(draws, alpha: float) -> float:
    """The ceil((1-alpha)(B+1))-th order statistic, clamped to the max draw."""
    draws = np.asarray(draws, dtype=np.float64)
    if draws.size == 0:
        raise DegenerateStatisticError("no bootstrap draws")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    B = draws.size
    k = min(int(np.ceil((1 - alpha) * (B + 1))), B)
    return float(np.sort(draws)[k - 1])


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


def pool_test(x, fam: SubsetFamily, alpha: float, cfg: BootstrapConfig) -> TestResult:
    """Subsets-based pooling max-test with multiplier-bootstrap calibration."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    panel = pooled_panel(x, fam)
    return _bootstrap_result(panel, alpha, multiplier_bootstrap(panel, cfg), "subsets-pool")


def marginal_test(x, alpha: float, cfg: BootstrapConfig) -> TestResult:
    """Max-type test on individual dimensions (singleton pooling)."""
    x = validate_matrix(x)
    p = x.shape[1]
    fam = SubsetFamily(p=p, q=1, members=np.arange(1, p + 1)[:, None])
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    panel = pooled_panel(x, fam)
    return _bootstrap_result(panel, alpha, multiplier_bootstrap(panel, cfg), "marginal")
