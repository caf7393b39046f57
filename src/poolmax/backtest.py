"""Validation and comparative VaR backtests plus the tail-dependence check.

A validation backtest centers exceedance indicators at the target
probability and feeds them to the pooling test.  A comparative backtest
does the same with differences of a strictly consistent quantile score.
The upper tail-dependence matrix of the filtered residuals is an informal
diagnostic for blockwise cross-sectional dependence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import TestResult, _check_level, _raise_first_nonfinite, csv_text, validate_matrix
from .errors import DegenerateVarianceError, NonFiniteError, PoolmaxError
from .pooltest import BootstrapConfig, pool_test
from .subsets import SubsetFamily

__all__ = [
    "logistic",
    "exceedance_matrix",
    "validation_test",
    "score",
    "score_diff_matrix",
    "comparative_test",
    "tail_dependence",
    "BacktestReport",
    "full_backtest",
]


def logistic(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _same_shape(*mats):
    arrs = [validate_matrix(m) for m in mats]
    shapes = {a.shape for a in arrs}
    if len(shapes) != 1:
        raise PoolmaxError(f"shapes differ: {sorted(shapes)}")
    return arrs


def exceedance_matrix(u, r, theta0: float) -> np.ndarray:
    """Centered violation indicators 1{U > R} - theta0 (ties are misses)."""
    u, r = _same_shape(u, r)
    theta0 = _check_level("theta0", theta0)
    return (u > r).astype(np.float64) - theta0


def validation_test(
    u, r, theta0: float, fam: SubsetFamily, alpha: float, cfg: BootstrapConfig
) -> TestResult:
    """Pooling test of whether the forecast hits its target exceedance rate."""
    return pool_test(exceedance_matrix(u, r, theta0), fam, alpha, cfg)


def score(r, x, theta: float):
    """Strictly consistent quantile score (theta - 1{x>r}) g(r) + 1{x>r} g(x),
    with g the logistic function.

    In expectation the score is minimized when r is the quantile with
    exceedance probability theta, i.e. the (1-theta) quantile of x, so
    lower mean scores mean better forecasts.
    """
    r = np.asarray(r, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    theta = _check_level("theta0", theta)
    _raise_first_nonfinite(~(np.isfinite(r) & np.isfinite(x)))
    hit = (x > r).astype(np.float64)
    out = (theta - hit) * logistic(r) + hit * logistic(x)
    return out if out.shape else float(out)


def score_diff_matrix(u, r, r_star, theta0: float) -> np.ndarray:
    """Entrywise score(r) - score(r_star); positive entries favor r_star."""
    u, r, r_star = _same_shape(u, r, r_star)
    return score(r, u, theta0) - score(r_star, u, theta0)


def comparative_test(
    u,
    r,
    r_star,
    theta0: float,
    fam: SubsetFamily,
    alpha: float,
    cfg: BootstrapConfig,
    one_sided: bool = False,
) -> TestResult:
    """Equal-predictive-accuracy test between two forecast panels: the
    pooling test on their score differences.  One-sided, a rejection is
    evidence that r_star (the column method) outperforms r (the row method).
    """
    return pool_test(score_diff_matrix(u, r, r_star, theta0), fam, alpha, cfg, one_sided)


def _average_ranks(z: np.ndarray) -> np.ndarray:
    """1-based ranks down each column; tied values share their mean rank.

    The values are those of `scipy.stats.rankdata(z, axis=0)`: a tie group
    at sorted positions first..last gets (first + last) / 2 + 1, which is
    exact in float64.
    """
    n = z.shape[0]
    order = np.argsort(z, axis=0, kind="stable")
    s = np.take_along_axis(z, order, axis=0)
    pos = np.arange(n)[:, None]
    starts = np.ones(s.shape, dtype=bool)
    starts[1:] = s[1:] != s[:-1]
    ends = np.ones(s.shape, dtype=bool)
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[::-1], axis=0)[::-1]
    ranks = np.empty(z.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=0)
    return ranks


def tail_dependence(zhat, u: float) -> np.ndarray:
    """Pairwise upper tail-dependence coefficients of a residual panel.

    Empirical CDF via ranks/n; a point is in the upper tail when its
    rank-CDF strictly exceeds 1 - u, so the top observation always
    qualifies.  Entry (j1, j2) is the joint tail count over max(t, c_j1,
    c_j2), with t the number of ranks r in 1..n whose r/n passes the same
    test and c_j the tail count of column j.  A column without ties has
    c_j = t, so its diagonal entry is 1; tied values that share an average
    rank in the tail can make c_j exceed t.  No entry exceeds 1.
    """
    z = validate_matrix(zhat)
    n = z.shape[0]
    u = _check_level("u", u, 0.5)
    if n * u < 1:
        raise PoolmaxError("need n * u >= 1")
    cdf = _average_ranks(z) / n
    hits = (cdf > 1.0 - u).astype(np.float64)
    tail = np.count_nonzero(np.arange(1, n + 1) / n > 1.0 - u)
    counts = np.maximum(hits.sum(axis=0), tail)
    return (hits.T @ hits) / np.maximum.outer(counts, counts)


@dataclass
class BacktestReport:
    """Validation p-values per method plus the lower-triangular
    comparative matrix; entry (row, col) tests whether the column method
    outperforms the row method."""

    method_names: List[str]
    validation: Dict[str, Optional[TestResult]] = field(default_factory=dict)
    comparative: Dict[Tuple[str, str], Optional[TestResult]] = field(
        default_factory=dict
    )
    errors: Dict[str, str] = field(default_factory=dict)
    config: Dict[str, float] = field(default_factory=dict)

    def _cell(self, res: Optional[TestResult]) -> Optional[float]:
        return None if res is None else res.p_value

    def to_dict(self) -> dict:
        return {
            "methods": self.method_names,
            "validation_pvalues": {
                m: self._cell(self.validation.get(m)) for m in self.method_names
            },
            "comparative_pvalues": [
                {"row": a, "col": b, "p_value": self._cell(res)}
                for (a, b), res in self.comparative.items()
            ],
            "errors": self.errors,
            "config": self.config,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def to_csv(self) -> str:
        """Square matrix layout: validation on the diagonal, one-sided
        comparisons in the lower triangle, blanks elsewhere."""
        names = self.method_names
        rows = [[""] + names]
        for a in names:
            row = [a]
            for b in names:
                if a == b:
                    p = self._cell(self.validation.get(a))
                else:
                    p = self._cell(self.comparative.get((a, b)))
                row.append("" if p is None else f"{p:.6g}")
            rows.append(row)
        return csv_text(rows)


def _forecast(name: str, r, shape) -> np.ndarray:
    try:
        r = validate_matrix(r)
    except NonFiniteError as e:
        raise NonFiniteError(e.row, e.col, f"forecast {name!r}") from None
    if r.shape != shape:
        raise PoolmaxError(f"forecast {name!r} has shape {r.shape}, losses {shape}")
    return r


def full_backtest(
    u,
    forecasts: Dict[str, np.ndarray],
    theta0: float,
    fam: SubsetFamily,
    alpha: float,
    cfg: BootstrapConfig,
) -> BacktestReport:
    """Validation test per method and one-sided comparisons per pair.

    The losses and every forecast are validated before any test runs.  Each
    cell is the `validation_test` or `comparative_test` call it stands for,
    so the tests share the weight matrix that `cfg` holds
    (`BootstrapConfig.weights`), drawn once for all of them.  Degenerate
    cells (no variation in indicators or score differences) are recorded in
    the report instead of aborting it.
    """
    alpha = _check_level("alpha", alpha)
    u = validate_matrix(u)
    fcs = {m: _forecast(m, r, u.shape) for m, r in forecasts.items()}
    theta0 = _check_level("theta0", theta0)
    names = list(fcs)
    report = BacktestReport(
        method_names=names,
        config={"theta0": theta0, "alpha": alpha, "B": cfg.replicates,
                "q": fam.q, "d": fam.d},
    )

    def cell(key: str, test, *args, **kwargs) -> Optional[TestResult]:
        try:
            return test(*args, **kwargs)
        except DegenerateVarianceError as e:
            report.errors[key] = str(e)
            return None

    for m in names:
        report.validation[m] = cell(m, validation_test, u, fcs[m], theta0, fam, alpha, cfg)
    for i, a in enumerate(names):
        for b in names[:i]:
            report.comparative[(a, b)] = cell(f"{a}|{b}", comparative_test, u, fcs[a], fcs[b],
                                              theta0, fam, alpha, cfg, one_sided=True)
    return report
