"""perfbench: the poolmax benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a poolmax checkout; it imports the package from
``./src``.  Each workload is one closed-loop client in one process: the next
op starts when the previous one has returned.

  backtest-m4  full_backtest on n=250, p=100 with 4 forecast panels (10 tests),
               theta0=0.01, q=49, d=200, B=1000, one family and one BootstrapConfig
  sweep-a1     10 repetitions of run_sweep(mc_reps=1) at A1 size (n=500,
               p=100, p0=20, null, q=49, d=200, B=1000), one call per default
               method; op k takes the DgpSpec seeds 10k .. 10k+9
  var-rolling  rolling_forecasts, window 1000, horizon 1, refit_every=1, on
               simulated AR(1)-GARCH(1,1) losses, cycling assets x VaR methods
  cli-wide     a cold `python -m poolmax pool-test` on a 250 x 2000 CSV, defaults

Timings are scaled to a fixed host speed.  On a shared virtual machine the
speed can drift by up to half within a minute, more than a run of one
workload can average out.  So the process is pinned to one CPU, a
fixed calibration task is timed on it before and after every op and set-up
round, and each time is multiplied by REFERENCE_CALIBRATION_S over the mean
of the two calibrations around it.  The end-to-end metrics are
these scaled seconds; the raw seconds are printed and saved beside them.
Per-layer self times are raw: they are read against each other.

A run first sets up SETUP_ROUNDS times: import poolmax (in this process the
first time, in a fresh child process after that), generate the inputs from
--seed, run one warm-up op; setup_s is the median round.  It then runs ops
back to back for --seconds and checks every output (see workloads.py).
op_p50_s and op_tail_s are taken over the completed ops, and ops_per_s is
the completed ops over the time all attempted ops took.

--trace 0 reports the end-to-end metrics of BENCHMARK.json and never loads
the tracing wrappers.  --trace 1 runs half of --seconds untraced, then half
traced, and reports the per-layer metrics: self time and counts per op at
each poolmax module boundary (tracing.py), plus the tracing overhead as the
traced minus the untraced median op latency.

Every line of standard output but the last is for people: the machine and
provenance header, each metric with its unit, and a digest of the outputs
for comparing two commits.  The last line is the JSON result.  The full
result, and the spans of a traced run, are written to .perfbench_out/.

After an intended change of output, re-record the references compared on
seed 0 with:  python3 perfbench/record_reference.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("backtest-m4", "sweep-a1", "var-rolling", "cli-wide")
SUBPROCESS_WORKLOADS = ("cli-wide",)
SETUP_ROUNDS = 3
# One client needs no second BLAS thread; on a 2-core shared machine one made
# the median backtest-m4 op vary by 50% between runs, against 10% with one.
BLAS_THREADS = 1
TAIL_SAMPLES = 10
CALIBRATION_LOOPS = 100_000
CALIBRATION_NUMPY_CALLS = 1_500
REFERENCE_CALIBRATION_S = 0.02  # nominal time of calibrate()
IMPORT_PROBE = ("import time; t = time.perf_counter(); import poolmax; "
                "print(time.perf_counter() - t)")
# Per-layer counts that stay 0 when nothing reaches the code that adds to them.
ZERO_COUNTS = (
    "pooltest.bootstrap_replicates", "pooltest.bootstrap_flops_computed",
    "pooltest.bootstrap_bytes_computed", "riskmodels.optimizer_nit",
    "riskmodels.optimizer_unconverged", "backtest.degenerate_cells",
    "simlab.degenerate_reps",
)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


NPROC = nproc()


def calibrate() -> float:
    """Seconds a fixed task takes now: the host's current speed.

    Half of the task is a pure-Python loop and half is short vectorised numpy
    calls, the two kinds of work the workloads mix.  Over five minutes of a
    2-core shared VM, op times scaled by the loop alone still spread 12% on
    var-rolling; scaled by the mix, at most 9% on each workload tried.
    """
    import numpy as np

    v = np.linspace(-3.0, 3.0, 1000)
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    x = 0.0
    for _ in range(CALIBRATION_NUMPY_CALLS):
        x += float(np.exp(-0.5 * v).sum())
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that scales a time measured between two calibrations."""
    return 2.0 * REFERENCE_CALIBRATION_S / (before + after)


def configure_environment() -> dict:
    """Import poolmax from ./src, here and in child processes; pin BLAS
    threads, and pin this process and its children to one CPU."""
    if not (SRC / "poolmax" / "__init__.py").is_file():
        sys.exit(f"perfbench: no poolmax sources in {SRC}; "
                 "run from the root of a poolmax checkout")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return dict(os.environ)


def timed_import() -> float:
    t0 = time.perf_counter()
    import poolmax

    seconds = time.perf_counter() - t0
    if Path(poolmax.__file__).resolve().parent != SRC / "poolmax":
        sys.exit(f"perfbench: imported poolmax from {poolmax.__file__}, not {SRC}")
    return seconds


def child_import_s(env: dict) -> float:
    """`import poolmax` time measured inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_threads() -> dict:
    """Thread setting of each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def git_commit():
    """HEAD of the checkout's git repository, or None when it is not one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "poolmax").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, env: dict) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    threads = blas_threads()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "pinned_cpus": (sorted(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_within_nproc": all(t <= NPROC for t in threads.values()),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


class Ledger:
    """Latencies, failures and check results of the ops of one phase.

    `calibrations` holds a calibration before the first op and one after
    every op, so that op i lies between calibrations i and i + 1.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ops = []  # (raw latency, completed)
        self.calibrations = []
        self.attempted = 0
        self.failures = Counter()  # failure kind -> ops
        self.counts = Counter()  # per-op counts summed
        self.check_errors = []
        self.tracebacks = []

    def run(self, k: int) -> None:
        wl = self.workload
        t0 = time.perf_counter()
        try:
            out, exc = wl.op(k), None
        except Exception as e:  # a failed op is counted and the run goes on
            out, exc = None, e
        latency = time.perf_counter() - t0
        self.attempted += 1
        errors = wl.check(k, out, exc)
        self.check_errors += errors
        self.counts.update(wl.counts(out, exc))
        if exc is not None:
            self.failures[type(exc).__name__] += 1
            if len(self.tracebacks) < 3:
                self.tracebacks.append("".join(traceback.format_exception(exc)))
        elif errors:
            self.failures["wrong output"] += 1
        self.ops.append((latency, exc is None and not errors))

    def scaled(self) -> list:
        c = self.calibrations
        return [(latency * speed_scale(c[i], c[i + 1]), completed)
                for i, (latency, completed) in enumerate(self.ops)]

    @property
    def latencies(self) -> list:
        """Scaled latencies of the completed ops."""
        return [latency for latency, completed in self.scaled() if completed]

    @property
    def raw_latencies(self) -> list:
        return [latency for latency, completed in self.ops if completed]

    @property
    def op_time(self) -> float:
        """Scaled time of all attempted ops."""
        return sum(latency for latency, _ in self.scaled())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def correct(self) -> bool:
        return not self.check_errors and not self.failures


def timed_phase(wl, seconds: float, tracer=None) -> Ledger:
    """Closed loop: ops 0, 1, 2, ... back to back until `seconds` have passed."""
    ledger = Ledger(wl)
    ledger.calibrations.append(calibrate())
    k = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = k
        ledger.run(k)
        ledger.calibrations.append(calibrate())
        k += 1
    return ledger


def latency_summary(latencies) -> dict:
    """Median, and the highest percentile with TAIL_SAMPLES samples above it.

    The tail is never taken below the median: with fewer than
    2 * TAIL_SAMPLES + 1 samples it is the median.  The percentile and the
    number of samples above it are reported with it.
    """
    s = sorted(latencies)
    n = len(s)
    if n == 0:
        return {"p50": None, "tail": None, "tail_pct": None, "beyond": 0, "n": 0}
    p50 = statistics.median(s)
    i = max(n - 1 - TAIL_SAMPLES, 0)
    if s[i] < p50:
        return {"p50": p50, "tail": p50, "tail_pct": 50.0, "beyond": n // 2, "n": n}
    return {"p50": p50, "tail": s[i], "tail_pct": 100.0 * (i + 1) / n,
            "beyond": n - 1 - i, "n": n}


def end_to_end(ledger: Ledger, setup_rounds, subprocess_wl: bool) -> dict:
    lat = latency_summary(ledger.latencies)
    who = resource.RUSAGE_CHILDREN if subprocess_wl else resource.RUSAGE_SELF
    return {
        "op_p50_s": lat["p50"],
        "op_tail_s": lat["tail"],
        "ops_per_s": len(ledger.latencies) / ledger.op_time,
        "failed_share": ledger.failed / ledger.attempted,
        "setup_s": statistics.median(setup_rounds),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(tracer, ledger: Ledger, import_times, overhead_s) -> dict:
    """Self time and counts per op at each boundary, from the traced phase."""
    ops = ledger.attempted
    totals = tracer.layer_totals()
    m = dict.fromkeys(ZERO_COUNTS, 0.0)
    for name, (self_s, calls) in totals.items():
        m[f"{name}_s"] = self_s / ops
        m[f"{name}_calls"] = calls / ops
    for counts in (tracer.counters, ledger.counts):
        for name, value in counts.items():
            m[name] = value / ops
    m["riskmodels.nll_evals"] = m["sstd.logpdf_calls"]
    m["riskmodels.optimizer_starts"] = m["riskmodels.optimizer_calls"]
    reports = totals["backtest.full_backtest"][1]
    tests = totals["backtest.validation_test"][1] + totals["backtest.comparative_test"][1]
    m["backtest.tests_per_report"] = tests / reports if reports else 0.0
    m["cli.import_s"] = statistics.median(import_times) if import_times else None
    m["trace.overhead_s"] = overhead_s
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env = configure_environment()
    subprocess_wl = args.workload in SUBPROCESS_WORKLOADS
    first_import_s = 0.0 if subprocess_wl else timed_import()
    import workloads  # imports numpy, so only after the timed import

    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT, env)

    # Set-up: import, inputs, one warm-up op; a CLI op imports poolmax itself.
    # Each round lies between two calibrations, as one op of a phase does.
    setup = Ledger(wl)
    setup.calibrations.append(calibrate())
    raw_setup_rounds, setup_rounds, import_times = [], [], []
    for r in range(SETUP_ROUNDS):
        import_s = 0.0
        if not subprocess_wl:
            import_s = first_import_s if r == 0 else child_import_s(env)
            import_times.append(import_s)
        t0 = time.perf_counter()
        wl.make_inputs()
        setup.run(0)
        raw_setup_rounds.append(import_s + time.perf_counter() - t0)
        setup.calibrations.append(calibrate())
        setup_rounds.append(raw_setup_rounds[-1] * speed_scale(*setup.calibrations[-2:]))
    header = provenance(args, env)

    if args.trace == 0:
        phases = {"untraced": timed_phase(wl, args.seconds)}
        metrics = end_to_end(phases["untraced"], setup_rounds, subprocess_wl)
        selected = declared["end_to_end"]
    else:
        phases = {"untraced": timed_phase(wl, args.seconds / 2)}
        import tracing

        tracer = tracing.Tracer()
        if subprocess_wl:
            wl.tracer = tracer  # ops run traced CLI children
        else:
            tracer.install()
        phases["traced"] = timed_phase(wl, args.seconds / 2, tracer)
        if subprocess_wl:
            import_times = tracer.import_times
        p50 = {k: latency_summary(v.latencies)["p50"] for k, v in phases.items()}
        overhead = None if None in p50.values() else p50["traced"] - p50["untraced"]
        metrics = per_layer(tracer, phases["traced"], import_times, overhead)
        selected = declared["per_layer"]
        tracer.save(OUT / f"spans-{args.workload}.npz")

    ledgers = [setup, *phases.values()]
    final = {
        "correct": all(ledger.correct() for ledger in ledgers),
        "attempted": sum(p.attempted for p in phases.values()),
        "failed": sum(p.failed for p in phases.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in selected},
    }
    report = {
        "header": header,
        "setup_rounds_s": setup_rounds,
        "raw_setup_rounds_s": raw_setup_rounds,
        "import_s": import_times,
        "phases": {k: {"attempted": v.attempted, "completed": len(v.latencies),
                       "failures": dict(v.failures),
                       "raw_latency": latency_summary(v.raw_latencies),
                       "calibration_s": latency_summary(v.calibrations),
                       "counts_per_op": {c: n / v.attempted for c, n in v.counts.items()},
                       "latency": latency_summary(v.latencies)}
                   for k, v in phases.items()},
        "metrics": metrics,
        "outputs_digest": wl.digest(),
        "check_errors": [e for ledger in ledgers for e in ledger.check_errors][:20],
        "tracebacks": [t for ledger in ledgers for t in ledger.tracebacks][:3],
        "result": final,
    }
    if args.trace:
        report["trace_missing"] = tracer.missing
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print_report(report, selected, metrics)
    print(json.dumps(final), flush=True)
    return 0


def print_report(report: dict, selected, metrics: dict) -> None:
    h = report["header"]
    print(f"perfbench {h['workload']} seed={h['seed']} seconds={h['seconds']} "
          f"trace={h['trace']}")
    print("machine " + json.dumps(h, sort_keys=True))
    for name, phase in report["phases"].items():
        lat = phase["latency"]
        print(f"  {name} phase: {phase['attempted']} ops attempted, "
              f"{phase['completed']} completed, failures {phase['failures']}; "
              f"op_tail_s is p{lat['tail_pct'] or 0:.1f} of {lat['n']} completed ops "
              f"({lat['beyond']} beyond it); counts per op {phase['counts_per_op']}")
        print(f"    raw op_p50_s {phase['raw_latency']['p50']}, median calibration "
              f"{phase['calibration_s']['p50']} s against {REFERENCE_CALIBRATION_S} s")
    rows = [(m["name"], m["unit"]) for m in selected]
    if h["trace"] == 0:
        rows.insert(3, ("failed_share", "share"))  # in the result line as failed/attempted
    for name, unit in rows:
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit}")
    print("outputs " + json.dumps(report["outputs_digest"]))
    for line in report["check_errors"]:
        print("CHECK FAILED " + line)
    for tb in report["tracebacks"]:
        print("OP FAILED " + tb.rstrip().replace("\n", "\n    "))


if __name__ == "__main__":
    sys.exit(main())
