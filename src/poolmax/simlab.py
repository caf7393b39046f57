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
from scipy.special import ndtr, ndtri

from .core import RngSpec, csv_text, substream, validate_matrix
from .errors import PoolmaxError
from .pooltest import (
    BootstrapConfig,
    _bootstrap_rejects,
    _check_alpha,
    _studentized,
    naive_test,
    pooled_panel,
)
from .subsets import build_family, check_design

__all__ = [
    "DgpSpec",
    "SweepResult",
    "sigma1",
    "sigma2",
    "sample_gaussian",
    "model_a",
    "theta_profile",
    "mu_profile",
    "g_transform",
    "model_b",
    "generate_panel",
    "run_sweep",
]

MODELS = ("A1", "A2", "B1", "B2")
METHODS = ("subsets-pool", "naive", "marginal")


def _check_p(p: int) -> None:
    if p < 1:
        raise ValueError("p must be positive")


def sigma1(p: int) -> np.ndarray:
    """Identity plus 0.7 coupling on disjoint adjacent pairs (2k-1, 2k)."""
    _check_p(p)
    s = np.eye(p)
    for k in range(p // 2):
        s[2 * k, 2 * k + 1] = s[2 * k + 1, 2 * k] = 0.7
    return s


def sigma2(p: int) -> np.ndarray:
    """Toeplitz covariance with entries 0.5 ** |i - j|."""
    _check_p(p)
    idx = np.arange(p)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def sample_gaussian(n: int, cov: np.ndarray, rng: RngSpec) -> np.ndarray:
    """n i.i.d. rows from N(0, cov) via Cholesky (eigen fallback)."""
    cov = np.asarray(cov, dtype=np.float64)
    try:
        root = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh((cov + cov.T) / 2)
        if w.min() < -1e-10:
            raise PoolmaxError(f"smallest eigenvalue {w.min():.3e}")
        root = v * np.sqrt(np.clip(w, 0.0, None))
    z = rng.generator().standard_normal((n, cov.shape[0]))
    return z @ root.T


def _check_p0(p: int, p0: int, m: int) -> None:
    """The one check of p0, the number of raised dimensions of a profile
    whose deviations take m*p0 of its p dimensions."""
    if p0 < 0:
        raise PoolmaxError(f"need p0 >= 0, got p0={p0}")
    if m * p0 > p:
        raise PoolmaxError(f"need {m}*p0 <= p, got p0={p0}, p={p}")


def _check_alpha_n(alpha_n: float) -> None:
    if not 0 < alpha_n < 0.5:
        raise PoolmaxError("alpha_n must lie in (0, 0.5)")


def theta_profile(p: int, p0: int, under_null: bool) -> np.ndarray:
    """Exceedance probabilities for the indicator models.

    Null: all 0.01.  Alternative: p0 raised to 0.025 and 3*p0 lowered to
    0.005 at the leading indices, so the average stays exactly 0.01.
    """
    _check_p0(p, p0, 4)
    theta = np.full(p, 0.01)
    if not under_null:
        theta[:p0] = 0.025
        theta[p0 : 4 * p0] = 0.005
    return theta


def mu_profile(p: int, p0: int, under_null: bool) -> np.ndarray:
    """Mean shifts for the mixture models; the profile always sums to 0."""
    _check_p0(p, p0, 2)
    mu = np.zeros(p)
    if not under_null:
        mu[:p0] = -0.0075
        mu[p0 : 2 * p0] = 0.0075
    return mu


def model_a(z: np.ndarray, thetas) -> np.ndarray:
    """Centered rare-event indicators: 1{Z > z_{1-theta_j}} - 0.01."""
    z = np.asarray(z, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape != (z.shape[1],):
        raise PoolmaxError("thetas must have one entry per column")
    if np.any((thetas <= 0) | (thetas >= 1)):
        raise PoolmaxError("thetas must lie in (0, 1)")
    cut = ndtri(1 - thetas)
    return (z > cut).astype(np.float64) - 0.01


def g_transform(x, alpha_n: float):
    """Piecewise-linear map of [0,1] onto [-1,1].

    Thin uniform body on (-alpha_n, alpha_n) with probability 1-alpha_n,
    wide uniform tail on (-1, 1) with probability alpha_n; mean zero.
    The left branch is closed at x = 1 - alpha_n.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_alpha_n(alpha_n)
    if np.any((x < 0) | (x > 1)):
        raise PoolmaxError("x must lie in [0, 1]")
    body = (2 * alpha_n / (1 - alpha_n)) * x - alpha_n
    tail = (2 / alpha_n) * x + 1 - 2 / alpha_n
    out = np.where(x <= 1 - alpha_n, body, tail)
    return out if out.shape else float(out)


def model_b(z: np.ndarray, mus, alpha_n: float = 0.01) -> np.ndarray:
    """Bounded continuous observations: g(Phi(Z)) - mu_j."""
    z = np.asarray(z, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    if mus.shape != (z.shape[1],):
        raise PoolmaxError("mus must have one entry per column")
    return g_transform(ndtr(z), alpha_n) - mus


@dataclass(frozen=True)
class DgpSpec:
    """One data-generating process; every check runs when it is made.

    n, p and p0 are stored as Python ints (through `operator.index`), so a
    fractional one raises `TypeError`.  n below 2 raises the `PoolmaxError`
    of `validate_matrix`, and p below 1 the `ValueError` of `sigma1`
    and `sigma2`.
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
            raise ValueError(f"model must be one of {MODELS}")
        for name in ("n", "p", "p0"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n < 2:
            raise PoolmaxError(f"need at least 2 observations, got {self.n}")
        _check_p(self.p)
        _check_alpha_n(self.alpha_n)
        _check_p0(self.p, self.p0, 4 if self.model.startswith("A") else 2)


def generate_panel(spec: DgpSpec, rng: RngSpec) -> np.ndarray:
    """One synthetic dataset from the given process, using `rng` only."""
    cov = sigma1(spec.p) if spec.model in ("A1", "B1") else sigma2(spec.p)
    z = sample_gaussian(spec.n, cov, rng)
    if spec.model.startswith("A"):
        x = model_a(z, theta_profile(spec.p, spec.p0, spec.under_null))
    else:
        x = model_b(z, mu_profile(spec.p, spec.p0, spec.under_null), spec.alpha_n)
    return validate_matrix(x)


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
    mc_reps, a repeated q, d or method, an unknown method, an alpha outside
    (0, 1), a negative mc_reps or, for a bootstrap method, a B below 1
    raises before any repetition runs.

    The pool and marginal verdicts are those of `pool_test` and
    `marginal_test`, but each bootstrap stops drawing replicates once its
    verdict is fixed (`_bootstrap_rejects`).
    """
    q_grid = [operator.index(q) for q in q_grid]
    d_grid = [operator.index(d) for d in d_grid]
    mc_reps = operator.index(mc_reps)
    for name, values in (("q_grid", q_grid), ("d_grid", d_grid), ("methods", methods)):
        seen = set()
        for v in values:
            if v in seen:
                raise PoolmaxError(f"{name} lists {v!r} more than once")
            seen.add(v)
    for m in methods:
        if m not in METHODS:
            raise PoolmaxError(f"unknown method {m!r}; expected one of {', '.join(METHODS)}")
    alpha = _check_alpha(alpha)
    if mc_reps < 0:
        raise ValueError("mc_reps must be >= 0")
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
