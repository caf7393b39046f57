"""The four perfbench workloads: seeded inputs, one operation, output checks.

Each workload turns the run's seed into inputs in ``make_inputs``; the
program receives only those arrays and files.  ``check`` runs after every
operation and returns the problems it found:

* invariants that hold on any seed (p-values in (0, 1], ``reject`` equal to
  ``statistic > critical_value``, finite VaR forecasts);
* repeatability: an input seen before must give the same output bytes;
* on ``REFERENCE_SEED`` only, agreement with the outputs recorded in
  ``reference/`` by ``record_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0
# Relative tolerance on the var-rolling reference forecasts.  It leaves room
# for a different optimizer path (analytic gradient, warm starts) and is also
# stated in the workload's "why" in BENCHMARK.json.
VAR_RTOL = 1e-3
CLI_TIMEOUT_S = 60

THETA0 = 0.01
ALPHA = 0.05
B = 1000
Q = 49


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def t4_quantile(prob: float) -> float:
    """Quantile of the unit-variance Student t with 4 degrees of freedom.

    Closed form for nu = 4 (Shaw, 2006), divided by sqrt(2), the standard
    deviation of t_4.
    """
    a = 4.0 * prob * (1.0 - prob)
    q = math.cos(math.acos(math.sqrt(a)) / 3.0) / math.sqrt(a)
    return math.copysign(2.0 * math.sqrt(q - 1.0), prob - 0.5) / math.sqrt(2.0)


def result_errors(label, statistic, critical_value, p_value, reject) -> list:
    errors = []
    if not 0.0 < p_value <= 1.0:
        errors.append(f"{label}: p-value {p_value!r} outside (0, 1]")
    if bool(reject) != (statistic > critical_value):
        errors.append(
            f"{label}: reject={reject} but statistic {statistic!r} "
            f"vs critical value {critical_value!r}"
        )
    return errors


class Workload:
    name = ""
    distinct_inputs = 1  # ops cycle through this many inputs
    digest_inputs = 1  # the first inputs whose outputs make the printed digest

    def __init__(self, seed: int, outdir: Path, env: dict, check_reference=True):
        self.seed = seed
        self.outdir = outdir
        self.env = env
        self.tracer = None  # set by a traced run
        self.seen = {}  # input id -> sha256 of its first output
        self.reference = None
        if check_reference and seed == REFERENCE_SEED:
            with open(REFERENCE_DIR / f"{self.name}.json") as f:
                self.reference = json.load(f)

    def input_id(self, k: int) -> int:
        return k % self.distinct_inputs

    def make_inputs(self) -> None:
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def output_bytes(self, out) -> bytes:
        raise NotImplementedError

    def invariants(self, out) -> list:
        return []

    def reference_errors(self, k: int, out, exc) -> list:
        return []

    def record_reference(self) -> dict:
        """This checkout's outputs on the current inputs, in reference/ form."""
        raise NotImplementedError

    def counts(self, out, exc) -> dict:
        """Per-op counts that the traced run reports as per-layer metrics."""
        return {}

    def check(self, k: int, out, exc) -> list:
        """Problems with op k's output (`out`) or exception (`exc`)."""
        errors = [] if exc is not None else self.invariants(out)
        data = f"error:{type(exc).__name__}".encode() if exc is not None else self.output_bytes(out)
        i = self.input_id(k)
        digest = sha256(data)
        if self.seen.setdefault(i, digest) != digest:
            errors.append(f"input {i}: output differs from an earlier run on the same input")
        if self.reference is not None:
            errors += self.reference_errors(k, out, exc)
        return errors

    def digest(self) -> dict:
        covered = [i for i in range(self.digest_inputs) if i in self.seen]
        text = "".join(f"{i} {self.seen[i]}\n" for i in covered)
        return {"sha256": sha256(text.encode()), "inputs": len(covered),
                "of": self.digest_inputs}


class BacktestM4(Workload):
    """full_backtest with 4 forecast methods: 4 validation + 6 comparative tests."""

    name = "backtest-m4"
    N, P, D = 250, 100, 200

    def make_inputs(self):
        import poolmax as pm

        g = np.random.default_rng([self.seed, 1])
        n, p = self.N, self.P
        days = np.arange(n)[:, None]
        scale = 0.01 * (0.5 + g.random(p))
        vol = scale * np.exp(0.4 * np.sin(2 * np.pi * (days / 125 + g.random(p))))
        self.losses = vol * g.standard_t(4, size=(n, p)) / np.sqrt(2.0)
        q99 = t4_quantile(1 - THETA0)
        # Distinct miscalibrations, so that validation and comparative cells vary.
        self.forecasts = {
            "exact": vol * q99,
            "static": np.broadcast_to(vol.mean(axis=0) * q99, (n, p)).copy(),
            "aggressive": vol * t4_quantile(1 - 2 * THETA0),
            "conservative": vol * t4_quantile(1 - THETA0 / 2),
        }
        self.family = pm.build_family(p, Q, self.D, pm.RngSpec(self.seed, 1))
        self.config = pm.BootstrapConfig(rng=pm.RngSpec(self.seed, 2), replicates=B)

    def op(self, k):
        import poolmax as pm

        return pm.full_backtest(self.losses, self.forecasts, THETA0, self.family,
                                ALPHA, self.config)

    def output_bytes(self, out):
        return out.to_json().encode()

    def invariants(self, out):
        cells = [(f"validation {m}", r) for m, r in out.validation.items()]
        cells += [(f"comparative {a}|{b}", r) for (a, b), r in out.comparative.items()]
        errors = []
        if len(cells) != 10:
            errors.append(f"expected 10 tests, report has {len(cells)}")
        for label, r in cells:
            if r is not None:
                errors += result_errors(label, r.statistic, r.critical_value,
                                        r.p_value, r.reject)
        return errors

    def reference_errors(self, k, out, exc):
        if exc is None and out.to_json() != self.reference["report_json"]:
            return ["report JSON differs from the reference"]
        return []

    def record_reference(self):
        return {"report_json": self.op(0).to_json()}

    def counts(self, out, exc):
        return {"backtest.degenerate_cells": 0 if out is None else len(out.errors)}


class SweepA1(Workload):
    """A1 Monte Carlo repetitions, REPS consecutive DgpSpec seeds per op.

    Each default method runs in its own run_sweep(mc_reps=1) call, so that a
    method that raises DegenerateVarianceError (ROADMAP item 4(b): run_sweep
    aborts on the first constant singleton column) does not stop the others.
    That exception is the program's output for the cell at this commit: it is
    checked like any other output and counted in simlab.degenerate_reps.  An
    op of REPS repetitions keeps the share of degenerate cells, which take
    less time, nearly the same in every op.
    """

    name = "sweep-a1"
    REPS = 10
    distinct_inputs = 1000  # batches of REPS specs
    digest_inputs = 8
    FIRST_SEED = 1000
    SEED_STRIDE = 100000
    METHODS = ("subsets-pool", "naive", "marginal")
    REFERENCE_SPECS = 600  # more than a run reaches
    ROW = {"model": "A1", "q": Q, "d": 200, "alpha": ALPHA, "mc_reps": 1}

    def make_inputs(self):
        import poolmax as pm

        first = self.FIRST_SEED + self.SEED_STRIDE * self.seed
        self.specs = [
            pm.DgpSpec(model="A1", n=500, p=100, p0=20, under_null=True,
                       rng=pm.RngSpec(first + i))
            for i in range(self.REPS * self.distinct_inputs)
        ]

    def rep(self, spec) -> dict:
        """Method -> its SweepResult, or the DegenerateVarianceError it raised."""
        import poolmax as pm
        from poolmax.errors import DegenerateVarianceError

        out = {}
        for m in self.METHODS:
            try:
                out[m] = pm.run_sweep(spec, q_grid=[Q], d_grid=[self.ROW["d"]],
                                      alpha=ALPHA, B=B, mc_reps=1, methods=(m,))
            except DegenerateVarianceError as e:
                out[m] = e
        return out

    def spec_ids(self, k):
        first = self.REPS * self.input_id(k)
        return range(first, first + self.REPS)

    def op(self, k):
        return [(i, self.rep(self.specs[i])) for i in self.spec_ids(k)]

    @staticmethod
    def outcome(result) -> str:
        """'E' for a degenerate cell, else the cell's reject rate as '0' or '1'."""
        if isinstance(result, Exception):
            return "E"
        return str(int(result.rows[0]["reject_rate"]))

    def output_bytes(self, out):
        return "\n".join(
            f"{i} {m} " + (f"{type(r).__name__}: {r}" if isinstance(r, Exception)
                          else r.to_json())
            for i, rep in out for m, r in rep.items()).encode()

    def invariants(self, out):
        errors = []
        for i, rep in out:
            for m, r in rep.items():
                if isinstance(r, Exception):
                    continue
                if [row.get("method") for row in r.rows] != [m]:
                    errors.append(f"spec {i}: {m} rows {r.rows}")
                elif r.rows[0].get("reject_rate") not in (0.0, 1.0) \
                        or r.rows[0].get("mc_reps") != 1:
                    errors.append(f"spec {i}: row {r.rows[0]} is not one repetition's outcome")
        return errors

    def reference_errors(self, k, out, exc):
        if exc is not None:
            return []
        outcomes = self.reference["outcomes"]
        errors = []
        for i, rep in out:
            if i >= len(outcomes):
                continue
            expected = dict(zip(self.reference["methods"], outcomes[i]))
            for m, r in rep.items():
                got = self.outcome(r)
                if got != expected[m]:
                    errors.append(f"spec {i}: {m} gave {got}, reference {expected[m]}")
                elif got != "E":
                    want = dict(self.ROW, method=m, reject_rate=float(got))
                    row = {key: r.rows[0].get(key) for key in want}
                    if row != want:
                        errors.append(f"spec {i}: {m} row {row} differs from {want}")
        return errors

    def record_reference(self):
        return {"methods": list(self.METHODS),
                "outcomes": ["".join(self.outcome(r) for r in self.rep(spec).values())
                             for spec in self.specs[:self.REFERENCE_SPECS]]}

    def counts(self, out, exc):
        if out is None:
            return {}
        return {"simlab.degenerate_reps":
                sum(any(isinstance(r, Exception) for r in rep.values()) for _, rep in out)}


def garch_losses(g: np.random.Generator, assets: int, n: int, burn: int = 500):
    """`assets` AR(1)-GARCH(1,1) loss series of length n with Student-t shocks.

    The parameters are fixed per asset; only the shocks come from `g`.
    """
    i = np.arange(assets)
    a0 = 0.01 * (i % 3)
    a1 = 0.02 + 0.02 * (i % 4)
    b0 = 0.02 + 0.01 * (i % 3)
    b1 = 0.05 + 0.01 * (i % 6)
    b2 = 0.92 - b1 - 0.01 * (i % 3)
    nu = 5.0 + i % 6
    z = g.standard_t(nu, size=(n + burn, assets)) * np.sqrt((nu - 2.0) / nu)
    u = np.empty((n + burn, assets))
    sig2 = b0 / (1.0 - b1 - b2)
    eps = np.zeros(assets)
    prev = a0 / (1.0 - a1)
    for t in range(n + burn):
        sig2 = b0 + b1 * eps**2 + b2 * sig2
        eps = np.sqrt(sig2) * z[t]
        prev = u[t] = a0 + a1 * prev + eps
    return np.ascontiguousarray(u[burn:].T)


class VarRolling(Workload):
    """rolling_forecasts with daily refits; ops cycle over assets x VaR methods.

    The fit's cost depends on the series, so consecutive ops take distinct
    assets: the run's median is then taken over as many series as it has ops.
    """

    name = "var-rolling"
    WINDOW, HORIZON, ASSETS = 1000, 1, 128
    KINDS = ("empirical", "skew-t", "evt")
    distinct_inputs = ASSETS * len(KINDS)  # op k: asset k % ASSETS, kind k % 3
    digest_inputs = 16

    def make_inputs(self):
        g = np.random.default_rng([self.seed, 3])
        self.series = garch_losses(g, self.ASSETS, self.WINDOW + self.HORIZON)

    def op(self, k):
        import poolmax as pm

        i = self.input_id(k)
        kind = self.KINDS[i % len(self.KINDS)]
        return pm.rolling_forecasts(self.series[i % self.ASSETS], self.WINDOW,
                                    self.HORIZON, pm.VarMethod(kind), THETA0,
                                    refit_every=1)

    def output_bytes(self, out):
        return np.ascontiguousarray(out, dtype="<f8").tobytes()

    def invariants(self, out):
        out = np.asarray(out)
        if out.shape != (self.HORIZON,) or not np.isfinite(out).all():
            return [f"forecasts {out!r} are not {self.HORIZON} finite values"]
        return []

    def reference_errors(self, k, out, exc):
        if exc is not None:
            return []
        i = self.input_id(k)
        want = np.array(self.reference["forecasts"][i])
        if not np.allclose(out, want, rtol=self.reference["rtol"], atol=0.0):
            return [f"input {i}: forecasts {list(out)} differ from reference "
                    f"{list(want)} beyond rtol {self.reference['rtol']}"]
        return []

    def record_reference(self):
        return {"rtol": VAR_RTOL,
                "forecasts": [self.op(k).tolist() for k in range(self.distinct_inputs)]}


class CliExit(Exception):
    """The CLI child exited with a non-zero code."""


class CliWide(Workload):
    """A cold `python -m poolmax pool-test` on a 250 x 2000 CSV, with defaults."""

    name = "cli-wide"
    N, P = 250, 2000

    def __init__(self, seed, outdir, env, check_reference=True):
        super().__init__(seed, outdir, env, check_reference)
        self.csv = outdir / "cli-wide.csv"
        self.out = outdir / "cli-wide-out.json"
        self.child_spans = outdir / "cli-wide-child-spans.npz"

    def make_inputs(self):
        g = np.random.default_rng([self.seed, 4])
        scale = 0.005 + 0.015 * g.random(self.P)
        x = scale * g.standard_t(4, size=(self.N, self.P)) / np.sqrt(2.0)
        with open(self.csv, "w") as f:
            f.write(",".join(f"a{j}" for j in range(self.P)) + "\n")
            np.savetxt(f, x, fmt="%.9g", delimiter=",")

    def argv(self):
        return ["pool-test", "--in", str(self.csv), "--out", str(self.out)]

    def op(self, k):
        self.out.unlink(missing_ok=True)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "poolmax", *self.argv()]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                   str(self.child_spans), *self.argv()]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise CliExit(f"exit code {proc.returncode}: {proc.stderr[-300:]}")
        if self.tracer is not None:
            self.tracer.merge(self.child_spans, op=k)
        return self.out.read_bytes()

    def output_bytes(self, out):
        return out

    def invariants(self, out):
        try:
            r = json.loads(out)
            errors = result_errors("pool-test", r["statistic"], r["critical_value"],
                                   r["p_value"], r["reject"])
            t = np.array(r["per_subset_t"], dtype=float)
        except (ValueError, KeyError, TypeError) as e:
            return [f"--out is not a pool-test result: {e!r}"]
        if t.shape != (2 * self.P,) or not np.isfinite(t).all():
            errors.append(f"per_subset_t has shape {t.shape} or non-finite entries")
        return errors

    def reference_errors(self, k, out, exc):
        if exc is None and sha256(out) != self.reference["out_sha256"]:
            return ["--out bytes differ from the reference"]
        return []

    def record_reference(self):
        out = self.op(0)
        result = json.loads(out)
        return {"out_sha256": sha256(out),
                **{k: result[k] for k in ("statistic", "critical_value", "p_value", "reject")}}


WORKLOADS = {w.name: w for w in (BacktestM4, SweepA1, VarRolling, CliWide)}
