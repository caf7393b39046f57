"""Monte Carlo laboratory: synthetic data generators and size/power sweeps.

Two covariance templates (paired blocks and AR(1)-type decay) feed four
data-generating processes: rare-event indicator panels (A1/A2) and a
bounded continuous mixture (B1/B2).  Deviating parameters are placed at
the leading indices and are balanced so that the grand mean stays at its
null value, which makes the full-pooling naive test powerless by
construction.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import RngSpec, _check_count, _check_level, _extension, csv_text, substream
from .errors import PoolmaxError
from .pooltest import (
    BootstrapConfig,
    _bootstrap_rejects,
    _studentized,
    naive_test,
    pooled_panel,
)
from .subsets import build_family, check_design

_ufuncs = _extension("scipy.special._ufuncs")
ndtr, ndtri = _ufuncs.ndtr, _ufuncs.ndtri

__all__ = ["DgpSpec", "SweepResult", "generate_panel", "run_sweep", "sigma1", "sigma2"]

MODELS = ("A1", "A2", "B1", "B2")
METHODS = ("subsets-pool", "naive", "marginal")


def sigma1(p: int) -> np.ndarray:
    """Identity plus 0.7 coupling on disjoint adjacent pairs (2k-1, 2k)."""
    p = _check_count("p", p, 1)
    s = np.eye(p)
    for k in range(p // 2):
        s[2 * k, 2 * k + 1] = s[2 * k + 1, 2 * k] = 0.7
    return s


def sigma2(p: int) -> np.ndarray:
    """Toeplitz covariance with entries 0.5 ** |i - j|."""
    p = _check_count("p", p, 1)
    idx = np.arange(p)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class DgpSpec:
    """One data-generating process, and the one check of a design: every
    check runs when the spec is made, so `generate_panel` checks nothing.

    n, p and p0 are stored as Python ints (through `operator.index`), so a
    fractional one raises `TypeError`, and alpha_n as the Python float its
    check returns.  n below 2 raises the message of
    `validate_matrix`, and p below 1 that of `sigma1` and `sigma2`.  The
    deviating dimensions must fit in p: 4*p0 <= p for A, 2*p0 <= p for B,
    and p0 >= 0.
    """

    model: str
    n: int
    p: int
    p0: int
    under_null: bool
    rng: RngSpec
    alpha_n: float = 0.01

    def __post_init__(self):
        if self.model not in MODELS:
            raise PoolmaxError(f"model must be one of {MODELS}")
        for name in ("n", "p", "p0"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n < 2:
            raise PoolmaxError(f"need at least 2 observations, got {self.n}")
        _check_count("p", self.p, 1)
        object.__setattr__(self, "alpha_n", _check_level("alpha_n", self.alpha_n, 0.5))
        if self.p0 < 0:
            raise PoolmaxError(f"need p0 >= 0, got p0={self.p0}")
        m = 4 if self.model.startswith("A") else 2
        if m * self.p0 > self.p:
            raise PoolmaxError(f"need {m}*p0 <= p, got p0={self.p0}, p={self.p}")


def generate_panel(spec: DgpSpec, rng: RngSpec) -> np.ndarray:
    """One synthetic n x p panel of the checked `spec`, drawn from `rng` only.

    Its rows are i.i.d. Z ~ N(0, Sigma), with Sigma = sigma1(p) for A1 and
    B1 and sigma2(p) for A2 and B2, drawn as standard normals times the
    transposed Cholesky root of Sigma.  Deviating parameters sit at the
    leading indices, balanced so that the grand mean keeps its null value.

    - A1/A2, centered rare-event indicators:
      X_ij = 1{Z_ij > z_(1-theta_j)} - 0.01, with z_(1-theta) =
      Phi^-1(1 - theta).  Null: every theta_j is 0.01.  Alternative: p0
      raised to 0.025 and the next 3*p0 lowered to 0.005, so the average
      stays exactly 0.01.
    - B1/B2, bounded continuous observations: X_ij = g(Phi(Z_ij)) - mu_j.
      g maps [0, 1] onto [-1, 1], piecewise linearly: g(x) =
      2 alpha_n / (1 - alpha_n) x - alpha_n for x <= 1 - alpha_n (the left
      branch is closed there) and 2 x / alpha_n + 1 - 2 / alpha_n above.
      So g(U) is a thin uniform body on (-alpha_n, alpha_n) with
      probability 1 - alpha_n and a wide uniform tail on (-1, 1) with
      probability alpha_n; its mean is zero.  Null: every mu_j is 0.
      Alternative: p0 shifted to -0.0075 and the next p0 to 0.0075, so the
      profile sums to 0.

    The panel is a new C-contiguous float64 array of finite entries.
    """
    n, p, p0, a = spec.n, spec.p, spec.p0, spec.alpha_n
    root = np.linalg.cholesky(sigma1(p) if spec.model in ("A1", "B1") else sigma2(p))
    z = rng.generator().standard_normal((n, p)) @ root.T
    if spec.model.startswith("A"):
        theta = np.full(p, 0.01)
        if not spec.under_null:
            theta[:p0] = 0.025
            theta[p0 : 4 * p0] = 0.005
        return (z > ndtri(1 - theta)).astype(np.float64) - 0.01
    mu = np.zeros(p)
    if not spec.under_null:
        mu[:p0] = -0.0075
        mu[p0 : 2 * p0] = 0.0075
    x = ndtr(z)
    body = (2 * a / (1 - a)) * x - a
    tail = (2 / a) * x + 1 - 2 / a
    return np.where(x <= 1 - a, body, tail) - mu


@dataclass
class SweepResult:
    """Rejection rates per (q, d) grid point and method, long format."""

    rows: List[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        cols = ["model", "q", "d", "method", "alpha", "mc_reps", "reject_rate"]
        return csv_text([cols, *([row[c] for c in cols] for row in self.rows)])

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.rows, **kwargs)

    def rate(self, q: int, d: int, method: str) -> float:
        for r in self.rows:
            if r["q"] == q and r["d"] == d and r["method"] == method:
                return r["reject_rate"]
        raise KeyError((q, d, method))


def run_sweep(
    spec: DgpSpec,
    q_grid: Sequence[int],
    d_grid: Sequence[int],
    alpha: float = 0.05,
    B: int = 1000,
    mc_reps: int = 1000,
    methods: Sequence[str] = METHODS,
) -> SweepResult:
    """Empirical rejection rates over the (q, d) product grid.

    Each repetition generates one dataset (shared across grid points) and
    applies every requested method at every grid point (`_rep_outcomes`).
    Fully deterministic in (spec.rng, grids).  A fractional grid value or
    mc_reps, an empty grid or method list, a repeated q, d or method, an
    unknown method, an alpha outside (0, 1), a negative mc_reps or, for a
    bootstrap method, a B below 1 raises before any repetition runs.

    The pool and marginal verdicts are those of `pool_test` and
    `marginal_test`, but each bootstrap stops drawing replicates once its
    verdict is fixed (`_bootstrap_rejects`).
    """
    q_grid = [operator.index(q) for q in q_grid]
    d_grid = [operator.index(d) for d in d_grid]
    mc_reps = _check_count("mc_reps", mc_reps, 0)
    for name, values in (("q_grid", q_grid), ("d_grid", d_grid), ("methods", methods)):
        if not values:
            raise PoolmaxError(f"{name} is empty")
        seen = set()
        for v in values:
            if v in seen:
                raise PoolmaxError(f"{name} lists {v!r} more than once")
            seen.add(v)
    for m in methods:
        if m not in METHODS:
            raise PoolmaxError(f"unknown method {m!r}; expected one of {', '.join(METHODS)}")
    alpha = _check_level("alpha", alpha)
    if "marginal" in methods or "subsets-pool" in methods:
        BootstrapConfig(rng=spec.rng, replicates=B)  # checks B
    grid = [(q, d) for q in q_grid for d in d_grid]
    for q, d in grid:
        check_design(spec.p, q, d)
    if mc_reps == 0:
        return SweepResult()
    counts = {(q, d, m): 0 for (q, d) in grid for m in methods}
    for rep in range(mc_reps):
        for key, reject in _rep_outcomes(spec, rep, grid, methods, alpha, B).items():
            counts[key] += reject
    return SweepResult(rows=[
        {"model": spec.model, "q": q, "d": d, "method": m, "alpha": alpha,
         "mc_reps": mc_reps, "reject_rate": counts[(q, d, m)] / mc_reps}
        for q, d in grid for m in methods
    ])


def _rep_outcomes(spec: DgpSpec, rep: int, grid, methods, alpha: float,
                  B: int) -> Dict[Tuple[int, int, str], bool]:
    """Each (q, d, method)'s verdict in repetition `rep` of `run_sweep`.

    The repetition draws only from rep_rng = substream(spec.rng, rep): its
    panel from substream(rep_rng, 0), the marginal test's weights from 1,
    and grid point g's family from 2 + 2g and its weights from 3 + 2g.  So
    a verdict depends on nothing but (spec, rep, grid point, method).  The
    tests run naive, then marginal, then each grid point's pool test; the
    first degenerate one raises its `DegenerateVarianceError`.
    """
    rep_rng = substream(spec.rng, rep)
    x = generate_panel(spec, substream(rep_rng, 0))
    shared = {}
    if "naive" in methods:
        shared["naive"] = naive_test(x, alpha).reject
    if "marginal" in methods:
        cfg = BootstrapConfig(rng=substream(rep_rng, 1), replicates=B)
        shared["marginal"] = _bootstrap_rejects(_studentized(x), alpha, cfg)
    out = {(q, d, m): reject for q, d in grid for m, reject in shared.items()}
    if "subsets-pool" in methods:
        for g, (q, d) in enumerate(grid):
            fam = build_family(spec.p, q, d, substream(rep_rng, 2 + 2 * g))
            cfg = BootstrapConfig(rng=substream(rep_rng, 3 + 2 * g), replicates=B)
            out[(q, d, "subsets-pool")] = _bootstrap_rejects(pooled_panel(x, fam), alpha, cfg)
    return out
