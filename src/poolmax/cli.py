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
import warnings

import numpy as np

from . import __version__
from .core import RngSpec, validate_matrix
from .errors import (
    DegenerateStatisticError,
    NotCoprimeError,
    ParseError,
    PoolmaxError,
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
    column per asset, numeric body.  Values use Python `float` syntax.

    numpy's C parser reads the body.  Any body it rejects, warns about or
    reads with another column count than the header is read again by
    `_ingest_rows`, which alone reports errors and alone accepts what
    `float` parses but numpy does not (quoted numbers, `1_000`, non-ASCII
    digits); where both accept a body, they give the same bytes.
    """
    with open(path, newline="") as f:
        headers = next((rec for _, rec in _records(f)), None)
        x = None
        if headers is not None:
            headers = [h.strip() for h in headers]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x = np.loadtxt(f, delimiter=",", comments=None, ndmin=2,
                                   dtype=np.float64)
            except (ValueError, Warning):
                pass
    if x is None or x.shape[1] != len(headers):
        headers, x = _ingest_rows(path)
    return headers, validate_matrix(x)


def _records(f):
    """(line, record) for each non-empty `csv` record of f, with the line the
    record starts on; a record `csv` cannot read, such as one with a field
    over its 131072-character limit, is a ParseError at its line."""
    reader = csv.reader(f)
    while True:
        line = reader.line_num + 1
        try:
            rec = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise ParseError(line, str(e)) from None
        if rec:
            yield line, rec


def _ingest_rows(path):
    """The row-by-row reader: every parse, ragged-row and empty-input error."""
    headers = None
    rows = []
    with open(path, newline="") as f:
        for lineno, rec in _records(f):
            if headers is None:
                headers = [h.strip() for h in rec]
                continue
            if len(rec) != len(headers):
                raise ParseError(lineno, "inconsistent number of fields")
            try:
                rows.append([float(v) for v in rec])
            except ValueError:
                raise ParseError(lineno)
    if headers is None:
        raise ParseError(0, "empty file")
    if not rows:
        raise PoolmaxError("header-only file: no observations")
    return headers, np.array(rows, dtype=np.float64).reshape(len(rows), len(headers))


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


def _checked(convert, ok, expected):
    """A converter for flag and config values: `convert`, then `ok`; on
    failure an ArgumentTypeError naming the value and what was expected."""

    def check(value):
        try:
            out = convert(value)
            if ok(out):
                return out
        except (TypeError, ValueError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")

    return check


def _whole(value):
    """The int of a flag string or a JSON number; a fraction, a non-finite
    number or a bool (all of which `int` would take) is a ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


_LEVEL = _checked(float, lambda v: 0 < v < 1, "a level in (0, 1)")
_TAIL = _checked(float, lambda v: 0 < v < 0.5, "a tail probability in (0, 0.5)")
_POSITIVE = _checked(_whole, lambda v: v >= 1, "an integer >= 1")
_NONNEGATIVE = _checked(_whole, lambda v: v >= 0, "an integer >= 0")


def _add_common(sp, with_design=True):
    sp.add_argument("--in", dest="infile", required=True, help="input CSV panel")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--alpha", type=_LEVEL, default=0.05)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    if with_design:
        sp.add_argument("--q", type=int, default=49, help="subset cardinality (default 49)")
        sp.add_argument("--d", type=int, default=None, help="number of subsets (default 2p)")
    sp.add_argument("--B", type=_POSITIVE, default=1000,
                    help="bootstrap replicates (default 1000)")
    sp.add_argument("--seed", type=_NONNEGATIVE, default=0)


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
    sp.add_argument("--alpha", type=_LEVEL, default=0.05)
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
    sp.add_argument("--theta0", type=_LEVEL, default=0.01)
    sp.add_argument("--q", type=int, default=49)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--alpha", type=_LEVEL, default=0.05)
    sp.add_argument("--B", type=_POSITIVE, default=1000)
    sp.add_argument("--seed", type=_NONNEGATIVE, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")

    sp = sub.add_parser("taildep", help="upper tail-dependence matrix of residuals")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--u", type=_TAIL, default=0.01)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("subsets-check", help="design diagnostics for (p, q)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--seed", type=_NONNEGATIVE, default=0)
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

    if args.format == "csv" and args.out is None:
        parser.error("csv backtest output requires --out")
    paths = {}
    for item in args.forecast:
        name, eq, path = item.partition("=")
        if not eq:
            parser.error(f"--forecast expects NAME=PATH, got {item!r}")
        if not name:
            parser.error(f"--forecast NAME is empty in {item!r}")
        if name in paths:
            parser.error(f"--forecast NAME {name!r} is given twice")
        paths[name] = path
    _, u = ingest_panel(args.returns)
    forecasts = {name: ingest_panel(path)[1] for name, path in paths.items()}
    fam = _family(args, u.shape[1])
    cfg = BootstrapConfig(rng=RngSpec(args.seed, 2), replicates=args.B)
    report = full_backtest(u, forecasts, args.theta0, fam, args.alpha, cfg)
    if args.format == "json":
        _write(args.out, report.to_json(indent=2))
    else:
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


def _list_of(convert):
    def parse(values):
        if not isinstance(values, list):
            raise TypeError(f"not a list: {values!r}")
        return [convert(v) for v in values]

    return parse


def _cmd_simulate(args, parser):
    from .simlab import METHODS, MODELS, DgpSpec, run_sweep

    if args.format == "csv" and args.out is None:
        parser.error("csv sweep output requires --out")
    with open(args.config) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise PoolmaxError(f"sweep config must be a JSON object, got a {type(cfg).__name__}")

    def setting(key, convert, default=None):
        """cfg[key] through `convert`, or `default` if absent; a missing key
        without a default, or a value `convert` rejects, is a PoolmaxError."""
        if key not in cfg:
            if default is None:
                raise PoolmaxError(f"sweep config {key!r}: missing")
            return default
        try:
            return convert(cfg[key])
        except argparse.ArgumentTypeError as e:
            raise PoolmaxError(f"sweep config {key!r}: {e}") from None

    model = _checked(str, MODELS.__contains__, f"one of {', '.join(MODELS)}")
    flag = _checked(lambda v: v, lambda v: isinstance(v, bool), "true or false")
    number = _checked(float, math.isfinite, "a finite number")
    grid = _checked(_list_of(_whole), bool, "a non-empty list of integers")
    methods = _checked(_list_of(str), lambda ms: ms and set(ms) <= set(METHODS),
                       f"a non-empty list of {', '.join(METHODS)}")
    spec = DgpSpec(
        model=setting("model", model),
        n=setting("n", _POSITIVE),
        p=setting("p", _POSITIVE),
        p0=setting("p0", _NONNEGATIVE),
        under_null=setting("under_null", flag),
        rng=RngSpec(setting("seed", _NONNEGATIVE, 0),
                    setting("stream_id", _NONNEGATIVE, 0)),
        alpha_n=setting("alpha_n", number, 0.01),
    )
    result = run_sweep(
        spec,
        q_grid=setting("q_grid", grid, [49]),
        d_grid=setting("d_grid", grid, [2 * spec.p]),
        alpha=setting("alpha", _LEVEL, 0.05),
        B=setting("B", _POSITIVE, 1000),
        mc_reps=setting("mc_reps", _NONNEGATIVE, 1000),
        methods=tuple(setting("methods", methods, METHODS)),
    )
    if args.format == "json":
        _write(args.out, result.to_json(indent=2))
    else:
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
    except (PoolmaxError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())
