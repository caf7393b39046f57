"""Monte Carlo laboratory: synthetic data generators and size/power sweeps.

Two covariance templates (paired blocks and AR(1)-type decay) feed four
data-generating processes: rare-event indicator panels (A1/A2) and a
bounded continuous mixture (B1/B2).  Deviating parameters are placed at
the leading indices and are balanced so that the grand mean stays at its
null value, which makes the full-pooling naive test powerless by
construction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .core import RngSpec, substream, validate_matrix
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


def sigma1(p: int) -> np.ndarray:
    """Identity plus 0.7 coupling on disjoint adjacent pairs (2k-1, 2k)."""
    if p < 1:
        raise ValueError("p must be positive")
    s = np.eye(p)
    for k in range(p // 2):
        s[2 * k, 2 * k + 1] = s[2 * k + 1, 2 * k] = 0.7
    return s


def sigma2(p: int) -> np.ndarray:
    """Toeplitz covariance with entries 0.5 ** |i - j|."""
    if p < 1:
        raise ValueError("p must be positive")
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


def theta_profile(p: int, p0: int, under_null: bool) -> np.ndarray:
    """Exceedance probabilities for the indicator models.

    Null: all 0.01.  Alternative: p0 raised to 0.025 and 3*p0 lowered to
    0.005 at the leading indices, so the average stays exactly 0.01.
    """
    if 4 * p0 > p:
        raise PoolmaxError(f"need 4*p0 <= p, got p0={p0}, p={p}")
    theta = np.full(p, 0.01)
    if not under_null:
        theta[:p0] = 0.025
        theta[p0 : 4 * p0] = 0.005
    return theta


def mu_profile(p: int, p0: int, under_null: bool) -> np.ndarray:
    """Mean shifts for the mixture models; the profile always sums to 0."""
    if 2 * p0 > p:
        raise PoolmaxError(f"need 2*p0 <= p, got p0={p0}, p={p}")
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
    if not 0 < alpha_n < 0.5:
        raise PoolmaxError("alpha_n must lie in (0, 0.5)")
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
        if not 0 < self.alpha_n < 0.5:
            raise PoolmaxError("alpha_n must lie in (0, 0.5)")
        needed = 4 * self.p0 if self.model.startswith("A") else 2 * self.p0
        if needed > self.p:
            raise PoolmaxError(f"p0={self.p0} too large for p={self.p}")


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

    def to_csv(self, path) -> None:
        cols = ["model", "q", "d", "method", "alpha", "mc_reps", "reject_rate"]
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.DictWriter(f, fieldnames=cols)
            w.writeheader()
            w.writerows(self.rows)

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
    applies every requested method at every grid point.  Fully
    deterministic in (spec.rng, grids).  A repeated q, d or method, an
    unknown method, an alpha outside (0, 1), a negative mc_reps or, for a
    bootstrap method, a B below 1 raises before any repetition runs.

    The pool and marginal verdicts are those of `pool_test` and
    `marginal_test`, but each bootstrap stops drawing replicates once its
    verdict is fixed (`_bootstrap_rejects`).
    """
    for name, values in (("q_grid", q_grid), ("d_grid", d_grid), ("methods", methods)):
        seen = set()
        for v in values:
            if v in seen:
                raise PoolmaxError(f"{name} lists {v!r} more than once")
            seen.add(v)
    for m in methods:
        if m not in METHODS:
            raise PoolmaxError(f"unknown method {m!r}; expected one of {', '.join(METHODS)}")
    _check_alpha(alpha)
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
        rep_rng = substream(spec.rng, rep)
        x = generate_panel(spec, substream(rep_rng, 0))
        if "naive" in methods:
            if naive_test(x, alpha).reject:
                for q, d in grid:
                    counts[(q, d, "naive")] += 1
        if "marginal" in methods:
            cfg = BootstrapConfig(rng=substream(rep_rng, 1), replicates=B)
            if _bootstrap_rejects(_studentized(x), alpha, cfg):
                for q, d in grid:
                    counts[(q, d, "marginal")] += 1
        if "subsets-pool" in methods:
            for g, (q, d) in enumerate(grid):
                fam = build_family(spec.p, q, d, substream(rep_rng, 2 + 2 * g))
                cfg = BootstrapConfig(
                    rng=substream(rep_rng, 3 + 2 * g), replicates=B
                )
                if _bootstrap_rejects(pooled_panel(x, fam), alpha, cfg):
                    counts[(q, d, "subsets-pool")] += 1
    result = SweepResult()
    for q, d in grid:
        for m in methods:
            rate = counts[(q, d, m)] / mc_reps
            result.rows.append(
                {
                    "model": spec.model,
                    "q": q,
                    "d": d,
                    "method": m,
                    "alpha": alpha,
                    "mc_reps": mc_reps,
                    "reject_rate": rate,
                }
            )
    return result
