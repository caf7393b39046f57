"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a pass/fail line; the
bands are pinned here, not tuned elsewhere.  The Monte Carlo criteria use
exact binomial 99% acceptance intervals around the nominal level.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import binom, norm

from poolmax import (
    BootstrapConfig,
    RngSpec,
    SubsetFamily,
    build_family,
    exceedance_matrix,
    marginal_test,
    naive_test,
    pool_test,
    pooled_panel,
    substream,
    validation_test,
)
from poolmax.backtest import score
from poolmax.errors import DegenerateVarianceError
from poolmax.cli import run as cli_run
from poolmax.pooltest import multiplier_bootstrap
from poolmax.riskmodels import (
    GarchParams,
    VarMethod,
    evt_var,
    garch_filter,
    garch_fit,
    garch_simulate,
)
from poolmax.simlab import DgpSpec, generate_panel
from poolmax.subsets import verify_identifiability

from conftest import rational_rank, window_matrix

MC_REPS = 500
ALPHA = 0.05


def binomial_band(n_reps: int, level: float, conf: float = 0.99):
    lo = binom.ppf((1 - conf) / 2, n_reps, level) / n_reps
    hi = binom.ppf(1 - (1 - conf) / 2, n_reps, level) / n_reps
    return lo, hi


def report(num, ok, detail=""):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _a1_rates(under_null: bool, seed: int):
    spec = DgpSpec("A1", 500, 100, 20, under_null, RngSpec(seed))
    counts = {"pool": 0, "naive": 0, "marginal": 0}
    marginal_ok = 0
    for rep in range(MC_REPS):
        rr = substream(spec.rng, rep)
        x = generate_panel(spec, substream(rr, 0))
        fam = build_family(100, 49, 200, substream(rr, 2))
        cfg = BootstrapConfig(rng=substream(rr, 3), replicates=500)
        counts["pool"] += pool_test(x, fam, ALPHA, cfg).reject
        counts["naive"] += naive_test(x, ALPHA).reject
        # ungated diagnostic only: singleton columns of rare indicators can
        # be all-miss at n=500, which the marginal test rejects as degenerate
        cfg_m = BootstrapConfig(rng=substream(rr, 4), replicates=500)
        try:
            counts["marginal"] += marginal_test(x, ALPHA, cfg_m).reject
            marginal_ok += 1
        except DegenerateVarianceError:
            pass
    rates = {k: v / MC_REPS for k, v in counts.items()}
    rates["marginal"] = counts["marginal"] / max(marginal_ok, 1)
    return rates


def test_criterion_01_identifiability_oracle():
    """The library's verdict against the exact rational rank of the window
    matrix, which must also be full iff gcd(p, q) = 1; every witness is a
    nonzero integer vector that each window row maps to 0."""
    ok = True
    for p in range(2, 13):
        for q in range(1, p):
            rows = window_matrix(p, q)
            full = rational_rank(rows) == p
            res = verify_identifiability(p, q)
            if res.identifiable != full or full != (math.gcd(p, q) == 1):
                ok = False
            if res.identifiable:
                ok = ok and res.witness is None
            else:
                mu = res.witness
                if mu is None or len(mu) != p or not any(mu):
                    ok = False
                else:
                    ok = ok and all(isinstance(v, int) for v in mu) and all(
                        sum(a * m for a, m in zip(row, mu)) == 0 for row in rows)
    report(1, ok, "window-sum rational rank == library == coprimality, witnesses verified")


@pytest.mark.slow
def test_criterion_02_size_calibration():
    rates = _a1_rates(under_null=True, seed=20260826)
    lo, hi = binomial_band(MC_REPS, ALPHA)
    ok = lo <= rates["pool"] <= hi and lo <= rates["naive"] <= hi
    report(
        2,
        ok,
        f"pool={rates['pool']:.3f} naive={rates['naive']:.3f} "
        f"band=[{lo:.3f},{hi:.3f}]",
    )


@pytest.mark.slow
def test_criterion_03_cancellation_phenomenon():
    rates = _a1_rates(under_null=False, seed=20260827)
    lo, hi = binomial_band(MC_REPS, ALPHA)
    ok = lo <= rates["naive"] <= hi and rates["pool"] - rates["naive"] >= 0.25
    report(
        3,
        ok,
        f"pool={rates['pool']:.3f} naive={rates['naive']:.3f} "
        f"marginal={rates['marginal']:.3f} (marginal recorded, not gated)",
    )


def test_criterion_04_bootstrap_conditional_gaussianity():
    n, p, q, d, B = 200, 20, 7, 40, 10**5
    x = RngSpec(77).generator().standard_normal((n, p))
    fam = build_family(p, q, d, RngSpec(78))
    panel = pooled_panel(x, fam)
    boot_rng = RngSpec(79)
    xi = np.empty((B, n))
    for b in range(B):
        xi[b] = substream(boot_rng, b).generator().standard_normal(n)
    t_b = (xi @ panel.y) / np.sqrt(n * panel.sigma_hat)
    # independent oracle for the conditional covariance of the weighted sums
    scale = np.sqrt(panel.sigma_hat)
    target = (panel.y.T @ panel.y) / n / np.outer(scale, scale)
    sample_cov = (t_b.T @ t_b) / B
    cov_err = np.abs(sample_cov - target).max()
    mean_err = np.abs(t_b.mean(axis=0)).max()
    # the packaged draw path must match the replicated weights exactly
    draws = multiplier_bootstrap(
        panel, BootstrapConfig(rng=boot_rng, replicates=1000)
    )
    consistent = np.array_equal(draws, np.abs(t_b[:1000]).max(axis=1))
    ok = cov_err < 0.02 and mean_err < 0.01 and consistent
    report(4, ok, f"max cov err={cov_err:.4f} max mean err={mean_err:.4f}")


def test_criterion_05_reduction_identity():
    ok = True
    for k in range(100):
        gen = RngSpec(500 + k).generator()
        n = int(gen.integers(20, 60))
        p = int(gen.integers(2, 8))
        x = gen.standard_normal((n, p))
        fam = SubsetFamily(p=p, q=1, members=tuple((j,) for j in range(1, p + 1)))
        cfg = BootstrapConfig(rng=RngSpec(900 + k), replicates=60)
        a = pool_test(x, fam, ALPHA, cfg)
        b = marginal_test(x, ALPHA, cfg)
        ok = ok and (
            a.statistic == b.statistic
            and a.critical_value == b.critical_value
            and a.p_value == b.p_value
            and a.reject == b.reject
        )
    report(5, ok, "singleton pool test == marginal test on 100 datasets")


def test_criterion_06_scale_invariance():
    ok = True
    worst = 0.0
    for k in range(100):
        gen = RngSpec(1500 + k).generator()
        x = gen.standard_normal((30, 6))
        fam = build_family(6, 5, 12, RngSpec(1600 + k))
        cfg = BootstrapConfig(rng=RngSpec(1700 + k), replicates=50)
        base = pool_test(x, fam, ALPHA, cfg)
        for c in (1e-6, 1.0, 1e6):
            res = pool_test(c * x, fam, ALPHA, cfg)
            for u, v in (
                (res.statistic, base.statistic),
                (res.critical_value, base.critical_value),
                (res.p_value, base.p_value),
            ):
                rel = abs(u - v) / max(abs(v), 1e-300)
                worst = max(worst, rel)
                ok = ok and rel <= 1e-10
            ok = ok and res.reject == base.reject
    report(6, ok, f"worst relative drift={worst:.2e}")


def test_criterion_07_score_strict_consistency():
    theta = 0.01
    x = RngSpec(7007).generator().standard_normal(10**6)
    grid = np.round(np.arange(1.5, 3.5 + 1e-9, 0.01), 2)
    means = np.array([np.mean(score(r, x, theta)) for r in grid])
    argmin = grid[np.argmin(means)]
    true_q = norm.ppf(0.99)
    ok = abs(argmin - true_q) <= 0.05
    report(7, ok, f"argmin={argmin:.2f} true={true_q:.3f}")


def test_criterion_08_garch_recovery():
    true = GarchParams(a0=0.0, a1=0.1, b0=0.05, b1=0.1, b2=0.85)
    errs = []
    ok_roundtrip = True
    for k in range(20):
        u = garch_simulate(true, np.random.default_rng(8000 + k).standard_normal(3500))[500:]
        fit = garch_fit(u)
        errs.append(abs(fit.b1 + fit.b2 - 0.95))
        params = GarchParams(fit.a0, fit.a1, fit.b0, fit.b1, fit.b2)
        mu, vol, z = garch_filter(u, params)
        ok_roundtrip = ok_roundtrip and np.max(np.abs(mu + vol * z - u)) <= 1e-12
    med = float(np.median(errs))
    ok = med <= 0.05 and ok_roundtrip
    report(8, ok, f"median |b1+b2 - 0.95| = {med:.4f}, roundtrip <= 1e-12")


def test_criterion_09_evt_oracle():
    rel_pareto, rel_exp = [], []
    for k in range(50):
        gen = np.random.default_rng(9000 + k)
        pareto = gen.uniform(size=3000) ** (-0.5)
        rel_pareto.append(abs(evt_var(pareto, 0.01, 50) - 10.0) / 10.0)
        expo = gen.exponential(size=3000)
        truth = np.log(100.0)
        rel_exp.append(abs(evt_var(expo, 0.01, 50) - truth) / truth)
    mp, me = float(np.median(rel_pareto)), float(np.median(rel_exp))
    ok = mp <= 0.10 and me <= 0.10
    report(9, ok, f"median rel err: pareto={mp:.3f} exp={me:.3f}")


@pytest.mark.slow
def test_criterion_10_validation_calibration():
    theta0 = 0.01
    true_q = norm.ppf(1 - theta0)
    root = RngSpec(101010)
    rejections = 0
    for rep in range(MC_REPS):
        rr = substream(root, rep)
        u = substream(rr, 0).generator().standard_normal((500, 100))
        r = np.full((500, 100), true_q)
        fam = build_family(100, 49, 200, substream(rr, 2))
        cfg = BootstrapConfig(rng=substream(rr, 3), replicates=500)
        rejections += validation_test(u, r, theta0, fam, ALPHA, cfg).reject
    rate = rejections / MC_REPS
    lo, hi = binomial_band(MC_REPS, ALPHA)
    # composition identity, bit for bit
    rr = substream(root, 0)
    u = substream(rr, 0).generator().standard_normal((500, 100))
    r = np.full((500, 100), true_q)
    fam = build_family(100, 49, 200, substream(rr, 2))
    cfg = BootstrapConfig(rng=substream(rr, 3), replicates=500)
    a = validation_test(u, r, theta0, fam, ALPHA, cfg)
    b = pool_test(exceedance_matrix(u, r, theta0), fam, ALPHA, cfg)
    same = (
        a.statistic == b.statistic
        and a.critical_value == b.critical_value
        and a.p_value == b.p_value
        and np.array_equal(a.per_subset_t, b.per_subset_t)
    )
    ok = lo <= rate <= hi and same
    report(10, ok, f"rate={rate:.3f} band=[{lo:.3f},{hi:.3f}] composition={same}")


def test_criterion_11_tail_dependence():
    from poolmax import tail_dependence

    z = RngSpec(1111).generator().standard_normal(500)
    lam_dup = tail_dependence(np.column_stack([z, z]), 0.01)[0, 1]
    z2 = RngSpec(1112).generator().standard_normal((10**5, 2))
    lam_ind = tail_dependence(z2, 0.01)[0, 1]
    ok = lam_dup == 1.0 and abs(lam_ind - 0.01) <= 0.005
    report(11, ok, f"duplicated={lam_dup} independent={lam_ind:.4f}")


def test_criterion_12_cli_determinism(tmp_path):
    gen = RngSpec(1212).generator()
    x = gen.standard_normal((80, 10))
    panel = tmp_path / "x.csv"
    panel.write_text(
        ",".join(f"a{j}" for j in range(10))
        + "\n"
        + "\n".join(",".join(f"{v:.10f}" for v in row) for row in x)
        + "\n"
    )
    cfg = {
        "model": "B1", "n": 60, "p": 9, "p0": 2, "under_null": True,
        "seed": 3, "q_grid": [2], "d_grid": [18], "B": 30, "mc_reps": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = [
        ["pool-test", "--in", str(panel), "--q", "3", "--B", "100", "--seed", "7"],
        ["marginal-test", "--in", str(panel), "--B", "100", "--seed", "7"],
        ["subsets-check", "--p", "10", "--q", "3", "--d", "15", "--seed", "4"],
        ["simulate", "--config", str(cfg_path)],
        ["taildep", "--in", str(panel), "--u", "0.05"],
    ]
    ok = True
    for i, argv in enumerate(runs):
        a, b = tmp_path / f"out_{i}_a", tmp_path / f"out_{i}_b"
        assert cli_run(argv + ["--out", str(a)]) == 0
        assert cli_run(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(12, ok, "repeated CLI runs byte-identical")
