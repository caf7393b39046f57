"""Command-line interface.

Subcommands: pool-test, naive-test, marginal-test, simulate, backtest,
taildep, subsets-check.  Every run is reproducible from (input files,
argv): all randomness derives from --seed.

Exit codes: 0 success, 2 usage error, 3 data error, 4 degenerate
statistics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .core import RngSpec, validate_matrix
from .errors import (
    DataError,
    DegenerateStatisticError,
    NotCoprimeError,
    ParseError,
    PoolmaxError,
    RaggedRowsError,
    SubsetDesignError,
)
from .pooltest import BootstrapConfig, marginal_test, naive_test, pool_test
from .subsets import build_family, check_design, verify_identifiability

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4


def ingest_panel(path):
    """Read a CSV loss/forecast panel: header row of identifiers, one
    column per asset, numeric body."""
    headers = None
    rows = []
    with open(path, newline="") as f:
        for lineno, rec in enumerate(csv.reader(f), start=1):
            if not rec:
                continue
            if headers is None:
                headers = [h.strip() for h in rec]
                continue
            if len(rec) != len(headers):
                raise RaggedRowsError(lineno)
            try:
                rows.append([float(v) for v in rec])
            except ValueError:
                raise ParseError(lineno)
    if headers is None:
        raise ParseError(0, "empty file")
    if not rows:
        raise DataError("header-only file: no observations")
    x = np.array(rows, dtype=np.float64).reshape(len(rows), len(headers))
    return headers, validate_matrix(x)


def _write(path, text):
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")


def _family(args, p):
    """The (p, --q, --d) design, d defaulting to 2p; the library checks it."""
    d = args.d if args.d is not None else 2 * p
    return build_family(p, args.q, d, RngSpec(args.seed, 1))


def _add_common(sp, with_design=True):
    sp.add_argument("--in", dest="infile", required=True, help="input CSV panel")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    if with_design:
        sp.add_argument("--q", type=int, default=49, help="subset cardinality (default 49)")
        sp.add_argument("--d", type=int, default=None, help="number of subsets (default 2p)")
    sp.add_argument("--B", type=int, default=1000, help="bootstrap replicates (default 1000)")
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolmax",
        description="Subsets-pooling mean tests and VaR backtesting",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pool-test", help="subsets-based pooling max test")
    _add_common(sp)

    sp = sub.add_parser("naive-test", help="full-pooling normal test")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("marginal-test", help="per-dimension max test baseline")
    _add_common(sp, with_design=False)

    sp = sub.add_parser("backtest", help="validation + comparative VaR backtests")
    sp.add_argument("--returns", required=True, help="CSV panel of realized losses")
    sp.add_argument(
        "--forecast",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="named VaR forecast panel; repeatable",
    )
    sp.add_argument("--theta0", type=float, default=0.01)
    sp.add_argument("--q", type=int, default=49)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--B", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")

    sp = sub.add_parser("taildep", help="upper tail-dependence matrix of residuals")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--u", type=float, default=0.01)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("subsets-check", help="design diagnostics for (p, q)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("simulate", help="Monte Carlo size/power sweep")
    sp.add_argument("--config", required=True, help="JSON sweep configuration")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


def _result_text(res, fmt):
    if fmt == "json":
        return res.to_json(indent=2)
    d = res.to_dict()
    d.pop("per_subset_t", None)
    lines = [",".join(d.keys()), ",".join(str(v) for v in d.values())]
    return "\n".join(lines)


def _cmd_pool_test(args, parser):
    headers, x = ingest_panel(args.infile)
    fam = _family(args, x.shape[1])
    cfg = BootstrapConfig(rng=RngSpec(args.seed, 2), replicates=args.B)
    res = pool_test(x, fam, args.alpha, cfg)
    _write(args.out, _result_text(res, args.format))


def _cmd_naive_test(args, parser):
    _, x = ingest_panel(args.infile)
    res = naive_test(x, args.alpha)
    _write(args.out, _result_text(res, args.format))


def _cmd_marginal_test(args, parser):
    _, x = ingest_panel(args.infile)
    cfg = BootstrapConfig(rng=RngSpec(args.seed, 2), replicates=args.B)
    res = marginal_test(x, args.alpha, cfg)
    _write(args.out, _result_text(res, args.format))


# Each command imports only the layers it computes with: simlab loads
# scipy.special, and pool-test, the cold-start path, needs neither it nor backtest.


def _cmd_backtest(args, parser):
    from .backtest import full_backtest

    _, u = ingest_panel(args.returns)
    forecasts = {}
    for item in args.forecast:
        if "=" not in item:
            parser.error(f"--forecast expects NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        _, forecasts[name] = ingest_panel(path)
    fam = _family(args, u.shape[1])
    cfg = BootstrapConfig(rng=RngSpec(args.seed, 2), replicates=args.B)
    report = full_backtest(u, forecasts, args.theta0, fam, args.alpha, cfg)
    if args.format == "json":
        _write(args.out, report.to_json(indent=2))
    else:
        if args.out is None:
            parser.error("csv backtest output requires --out")
        report.to_csv(args.out)


def _cmd_taildep(args, parser):
    from .backtest import tail_dependence

    headers, z = ingest_panel(args.infile)
    lam = tail_dependence(z, args.u)
    lines = [",".join([""] + headers)]
    for name, row in zip(headers, lam):
        lines.append(",".join([name] + [f"{v:.6g}" for v in row]))
    _write(args.out, "\n".join(lines))


def _cmd_subsets_check(args, parser):
    p, q = args.p, args.q
    out = {"p": p, "q": q, "gcd": math.gcd(p, q), "coprime": True}
    try:
        check_design(p, q)
    except NotCoprimeError as e:
        out["coprime"], out["suggested_q"] = False, e.suggested_q
    if p <= 64:
        ident = verify_identifiability(p, q)
        out["identifiable"] = ident.identifiable
        if ident.witness is not None:
            out["kernel_witness"] = list(ident.witness)
    if out["coprime"] and args.d is not None:
        fam = build_family(p, q, args.d, RngSpec(args.seed, 1))
        out["family"] = fam.to_dict()
    _write(args.out, json.dumps(out, indent=2, sort_keys=True))
    if not out["coprime"]:
        return EXIT_USAGE
    return EXIT_OK


def _cmd_simulate(args, parser):
    from .simlab import DgpSpec, run_sweep

    with open(args.config) as f:
        cfg = json.load(f)
    spec = DgpSpec.from_dict(cfg)
    result = run_sweep(
        spec,
        q_grid=cfg.get("q_grid", [49]),
        d_grid=cfg.get("d_grid", [2 * spec.p]),
        alpha=float(cfg.get("alpha", 0.05)),
        B=int(cfg.get("B", 1000)),
        mc_reps=int(cfg.get("mc_reps", 1000)),
        methods=tuple(cfg.get("methods", ("subsets-pool", "naive", "marginal"))),
    )
    if args.format == "json":
        _write(args.out, result.to_json(indent=2))
    else:
        if args.out is None:
            parser.error("csv sweep output requires --out")
        result.to_csv(args.out)


_COMMANDS = {
    "pool-test": _cmd_pool_test,
    "naive-test": _cmd_naive_test,
    "marginal-test": _cmd_marginal_test,
    "backtest": _cmd_backtest,
    "taildep": _cmd_taildep,
    "subsets-check": _cmd_subsets_check,
    "simulate": _cmd_simulate,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, parser)
        return EXIT_OK if code is None else code
    except SubsetDesignError as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateStatisticError as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (DataError, OSError, json.JSONDecodeError) as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_DATA
    except PoolmaxError as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())
