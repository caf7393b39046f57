"""Span tracing of poolmax from outside: wrappers around its public functions.

Only a traced run (``--trace 1``) and the traced CLI child import this module,
so an untraced run never loads it.  ``Tracer.install`` replaces each target
function in every loaded ``poolmax`` module that holds it, which covers the
names callers bound with ``from ... import`` (``backtest.pool_test``,
``pooltest.substream``, ``riskmodels.sstd_logpdf``, ``riskmodels.minimize``).
Spans (name, start, end, parent, op) are kept in memory, written out at the
end, and give each layer's self time: the span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module that defines the target, attribute path of the target)
TARGETS = [
    ("core.validate_matrix", "poolmax.core", "validate_matrix"),
    ("core.substream", "poolmax.core", "substream"),
    ("core.generator", "poolmax.core", "RngSpec.generator"),
    ("subsets.build_family", "poolmax.subsets", "build_family"),
    ("subsets.indicator", "poolmax.subsets", "SubsetFamily.indicator"),
    ("pooltest.pooled_panel", "poolmax.pooltest", "pooled_panel"),
    ("pooltest.multiplier_bootstrap", "poolmax.pooltest", "multiplier_bootstrap"),
    ("pooltest.bootstrap_quantile", "poolmax.pooltest", "bootstrap_quantile"),
    ("pooltest.naive_test", "poolmax.pooltest", "naive_test"),
    ("pooltest.pool_test", "poolmax.pooltest", "pool_test"),
    ("pooltest.marginal_test", "poolmax.pooltest", "marginal_test"),
    ("backtest.exceedance_matrix", "poolmax.backtest", "exceedance_matrix"),
    ("backtest.score_diff_matrix", "poolmax.backtest", "score_diff_matrix"),
    ("backtest.validation_test", "poolmax.backtest", "validation_test"),
    ("backtest.comparative_test", "poolmax.backtest", "comparative_test"),
    ("backtest.full_backtest", "poolmax.backtest", "full_backtest"),
    ("simlab.generate_panel", "poolmax.simlab", "generate_panel"),
    ("simlab.run_sweep", "poolmax.simlab", "run_sweep"),
    ("riskmodels.garch_filter", "poolmax.riskmodels", "garch_filter"),
    ("riskmodels.garch_fit", "poolmax.riskmodels", "garch_fit"),
    ("riskmodels.optimizer", "poolmax.riskmodels", "minimize"),
    ("riskmodels.empirical_var", "poolmax.riskmodels", "empirical_var"),
    ("riskmodels.evt_var", "poolmax.riskmodels", "evt_var"),
    ("riskmodels.forecast_var", "poolmax.riskmodels", "forecast_var"),
    ("riskmodels.rolling_forecasts", "poolmax.riskmodels", "rolling_forecasts"),
    ("sstd.logpdf", "poolmax.sstd", "sstd_logpdf"),
    ("sstd.quantile", "poolmax.sstd", "sstd_quantile"),
    ("cli.ingest_panel", "poolmax.cli", "ingest_panel"),
    ("cli.run", "poolmax.cli", "run"),
]
NAMES = [t[0] for t in TARGETS]


def _bootstrap_counts(counters, args, kwargs, result):
    # multiplier_bootstrap(panel, cfg, ...): xi (B x n) @ y (n x d)
    panel = args[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    b, n, d = cfg.replicates, panel.n, panel.d
    counters["pooltest.bootstrap_replicates"] += b
    counters["pooltest.bootstrap_flops_computed"] += 2 * b * n * d
    counters["pooltest.bootstrap_bytes_computed"] += 8 * (b * n + n * d + b * d)


def _optimizer_counts(counters, args, kwargs, result):
    counters["riskmodels.optimizer_nit"] += int(result.nit)
    counters["riskmodels.optimizer_unconverged"] += int(not result.success)


AFTER = {
    "pooltest.multiplier_bootstrap": _bootstrap_counts,
    "riskmodels.optimizer": _optimizer_counts,
}


class Tracer:
    def __init__(self):
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op_index = array("q")
        self.stack = []
        self.op = 0
        self.counters = defaultdict(float)
        self.missing = []  # targets whose module is loaded but lacks the name
        self.import_times = []  # `import poolmax` seconds of each merged child

    def _wrap(self, name_id, fn):
        after = AFTER.get(NAMES[name_id])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.name.append(name_id)
            self.op_index.append(self.op)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the loaded poolmax modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "poolmax" or n.startswith("poolmax."))]
        for name_id, (name, modname, path) in enumerate(TARGETS):
            home = sys.modules.get(modname)
            if home is None:
                continue  # layer not imported by this workload
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name_id, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op_index, dtype=np.int64),
        }

    def save(self, path, import_s: float = float("nan")) -> None:
        counters = sorted(self.counters.items())
        np.savez(path, names=np.array(NAMES), counter_names=np.array([k for k, _ in counters]),
                 counter_values=np.array([v for _, v in counters], dtype=float),
                 import_s=np.array(import_s), **self.arrays())

    def merge(self, path, op: int) -> None:
        """Append the spans, counters and import time a child process saved."""
        with np.load(path) as f:
            base = len(self.start)
            parent = f["parent"]
            self.start.extend(f["start"].tolist())
            self.end.extend(f["end"].tolist())
            self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
            self.name.extend(f["name"].tolist())
            self.op_index.extend([op] * len(parent))
            for k, v in zip(f["counter_names"].tolist(), f["counter_values"].tolist()):
                self.counters[k] += v
            self.import_times.append(f["import_s"].item())

    def layer_totals(self) -> dict:
        """Per span name: (self time in seconds, calls), summed over all spans."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        self_ns = np.bincount(a["name"], weights=dur - covered, minlength=len(NAMES))
        calls = np.bincount(a["name"], minlength=len(NAMES))
        return {n: (self_ns[i] / 1e9, int(calls[i])) for i, n in enumerate(NAMES)}
