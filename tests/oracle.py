"""The slow reference for every fast path of poolmax.

Each function computes one step of a test from its definition, with no fast
path and no option, and takes the arguments of the library function it
stands for:

- a pooled sum is the product with the dense p x d indicator built from
  `fam.members`, in one piece;
- bootstrap replicate b draws its weights from a generator of its own,
  ``substream(rng, b).generator().standard_normal(n)``;
- a variance is numpy's divisor-n ``np.var``;
- a critical value is the ``np.sort`` order statistic of all B draws, and
  every verdict, the sweep's included, comes from the full bootstrap;
- a random subset is one ``Generator.choice`` call.

It calls none of the paths it checks: `substream_normals`, `_philox_keys`,
`pooled_panel`, `_studentized`, `_weighted_max`, `_blocks`,
`_bootstrap_rejects`, `_floyd`, `random_extension` and
`SubsetFamily.indicator`.

The contract the tests hold the library to has two parts.  Where a
docstring promises bits (keys and weights, families, studentized sums and
variances, `full_backtest` cells against the single calls, sweep verdicts),
they compare bytes.  A product that the library takes in other blocks or
chunks than the reference need not keep its bits; there they allow
`product_bound`, the one certified rounding bound.
"""

import math

import numpy as np
from scipy.stats import norm

from poolmax import BootstrapConfig, RngSpec, SubsetFamily, TestResult, substream
from poolmax.errors import DegenerateVarianceError
from poolmax.pooltest import PooledPanel
from poolmax.simlab import generate_panel

U = np.finfo(np.float64).eps / 2  # the unit roundoff


def product_bound(a, b):
    """How far two evaluations of ``a @ b`` may lie apart, entry by entry,
    whatever their order of summation: 2 gamma_k |a| |b|, with k the inner
    length and gamma_k = k u / (1 - k u) (Higham 2002, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3).  `_bootstrap_rejects` uses
    the same bound, through Cauchy-Schwarz."""
    k = a.shape[-1]
    return 2 * k * U / (1 - k * U) * (np.abs(a) @ np.abs(b))


def weights(rng: RngSpec, rows: range, n: int) -> np.ndarray:
    """The (len(rows), n) multiplier weights, one generator per replicate."""
    out = np.empty((len(rows), n))
    for i, b in enumerate(rows):
        out[i] = substream(rng, b).generator().standard_normal(n)
    return out


def choice_rows(p: int, q: int, count: int, rng: RngSpec) -> np.ndarray:
    """count random subsets: one `Generator.choice` call per row, then a sort."""
    gen = rng.generator()
    out = np.empty((count, q), dtype=np.int64)
    for i in range(count):
        out[i] = gen.choice(p, size=q, replace=False)
    out.sort(axis=1)
    return out + 1


def family(p: int, q: int, d: int, rng: RngSpec, user_subsets=None) -> SubsetFamily:
    """The p circular q-windows, the user's subsets, then random ones up to d."""
    user = np.empty((0, q), dtype=np.int64) if user_subsets is None else np.asarray(user_subsets)
    windows = (np.arange(p)[:, None] + np.arange(q)) % p + 1
    extra = choice_rows(p, q, d - p - len(user), rng)
    return SubsetFamily(p=p, q=q, members=np.concatenate([windows, user, extra]))


def indicator(fam: SubsetFamily) -> np.ndarray:
    """The dense p x d 0/1 matrix whose column l marks the members of subset l."""
    s = np.zeros((fam.p, fam.d))
    for col, row in enumerate(fam.members):
        s[row - 1, col] = 1.0
    return s


def pooled_sums(x, fam: SubsetFamily):
    """The pooled sums x @ S, in one product, and their `product_bound`."""
    x = np.asarray(x, dtype=np.float64)
    s = indicator(fam)
    return x @ s, product_bound(x, s)


def studentized(y) -> PooledPanel:
    """The panel of pooled sums y: divisor-n variances and t-statistics;
    a constant column has no t-statistic."""
    y = np.asarray(y, dtype=np.float64).reshape(len(y), -1)
    if (y == y[0]).all(axis=0).any():
        raise DegenerateVarianceError("zero variance estimate")
    sigma_hat = y.var(axis=0)
    t_stats = y.sum(axis=0) / np.sqrt(len(y) * sigma_hat)
    return PooledPanel(y=y, sigma_hat=sigma_hat, t_stats=t_stats)


def bootstrap(panel: PooledPanel, cfg: BootstrapConfig, one_sided: bool = False):
    """The B max-statistic draws of the panel, from the one-shot product of
    all weights with all pooled sums, and how far a draw computed otherwise
    may lie from each: the product's bound, plus the roundings of the
    division by the scale."""
    xi = weights(cfg.rng, range(cfg.replicates), panel.n)
    scale = np.sqrt(panel.n * panel.sigma_hat)
    t = xi @ panel.y / scale
    draws = t.max(axis=1) if one_sided else np.abs(t).max(axis=1)
    return draws, (product_bound(xi, panel.y) / scale + 4 * U * np.abs(t)).max(axis=1)


def result(panel: PooledPanel, alpha: float, draws, method: str,
           one_sided: bool = False) -> TestResult:
    """The test of the panel's max statistic against its draws: the critical
    value is their ceil((1 - alpha)(B + 1))-th smallest, clamped to B."""
    t = panel.t_stats
    stat = float(t.max() if one_sided else np.abs(t).max())
    B = len(draws)
    c = float(np.sort(draws)[min(math.ceil((1 - alpha) * (B + 1)), B) - 1])
    return TestResult(statistic=stat, critical_value=c,
                      p_value=(1 + int(np.count_nonzero(draws >= stat))) / (B + 1),
                      reject=stat > c, alpha=float(alpha), method=method,
                      per_subset_t=t.copy())


def rejects(panel: PooledPanel, alpha: float, cfg: BootstrapConfig) -> bool:
    """The verdict of the full bootstrap."""
    return result(panel, alpha, bootstrap(panel, cfg)[0], "").reject


def naive_test(x, alpha: float) -> TestResult:
    """The studentized total of the row sums against the normal quantile."""
    t = float(studentized(np.asarray(x, dtype=np.float64).sum(axis=1)).t_stats[0])
    z = float(norm.ppf(1 - alpha / 2))
    return TestResult(statistic=t, critical_value=z, p_value=float(2 * norm.sf(abs(t))),
                      reject=abs(t) > z, alpha=float(alpha), method="naive")


def run_sweep(spec, q_grid, d_grid, alpha, B, mc_reps, methods):
    """{(q, d, method): rejection rate} over mc_reps repetitions.

    Repetition rep draws from rep_rng = substream(spec.rng, rep): its panel
    from stream 0, the marginal test's weights from 1, and grid point g's
    family from 2 + 2g and its weights from 3 + 2g.
    """
    grid = [(q, d) for q in q_grid for d in d_grid]
    counts = {(q, d, m): 0 for q, d in grid for m in methods}
    for rep in range(mc_reps):
        rep_rng = substream(spec.rng, rep)
        x = generate_panel(spec, substream(rep_rng, 0))
        for g, (q, d) in enumerate(grid):
            for m in methods:
                if m == "naive":
                    reject = naive_test(x, alpha).reject
                elif m == "marginal":
                    reject = rejects(studentized(x), alpha,
                                     BootstrapConfig(substream(rep_rng, 1), B))
                else:
                    fam = family(spec.p, q, d, substream(rep_rng, 2 + 2 * g))
                    reject = rejects(studentized(pooled_sums(x, fam)[0]), alpha,
                                     BootstrapConfig(substream(rep_rng, 3 + 2 * g), B))
                counts[(q, d, m)] += reject
    return {key: count / mc_reps for key, count in counts.items()}
