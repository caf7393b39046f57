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
import os
import sys
import warnings

import numpy as np

from . import __version__
from .core import RngSpec, csv_text, validate_matrix
from .errors import DegenerateVarianceError, PoolmaxError, SubsetDesignError
from .pooltest import BootstrapConfig, marginal_test, naive_test, pool_test
from .subsets import build_family, verify_identifiability

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
    digits); where both accept a body, they give the same bytes.  The file
    is read as UTF-8 whatever the locale; one that is not UTF-8 is an
    error at the line of its first bad byte.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
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
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return headers, validate_matrix(x)


def _at_line(line, msg="unparseable value") -> PoolmaxError:
    """The error for an input file that cannot be read at `line` (0: no line)."""
    return PoolmaxError(f"line {line}: {msg}")


def _not_utf8(path) -> PoolmaxError:
    """The error for a file that does not decode as UTF-8: its path and the
    line that holds the first bad byte.  No UTF-8 sequence contains a
    newline byte, so each line decodes on its own.  Line 0 means the file
    decoded on this second read: it changed after the first."""
    with open(path, "rb") as f:
        for line, raw in enumerate(f, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return _at_line(line, f"{path} is not UTF-8 (byte 0x{raw[e.start]:02x})")
    return _at_line(0, f"{path} is not UTF-8")


def _records(f):
    """(line, record) for each non-empty `csv` record of f, with the line the
    record starts on; a record `csv` cannot read, such as one with a field
    over its 131072-character limit, is an error at its line."""
    reader = csv.reader(f)
    while True:
        line = reader.line_num + 1
        try:
            rec = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise _at_line(line, str(e)) from None
        if rec:
            yield line, rec


def _ingest_rows(path):
    """The row-by-row reader: every parse, ragged-row and empty-input error."""
    headers = None
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        for lineno, rec in _records(f):
            if headers is None:
                headers = [h.strip() for h in rec]
                continue
            if len(rec) != len(headers):
                raise _at_line(lineno, "inconsistent number of fields")
            try:
                rows.append([float(v) for v in rec])
            except ValueError:
                raise _at_line(lineno)
    if headers is None:
        raise _at_line(0, "empty file")
    if not rows:
        raise PoolmaxError("header-only file: no observations")
    return headers, np.array(rows, dtype=np.float64).reshape(len(rows), len(headers))


def _write(path, text):
    """Write text and a final newline to path, or to stdout when path is None.

    The bytes are UTF-8, the encoding inputs and `--forecast` names are
    read in, whatever the locale.
    """
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _family(args, p):
    """The (p, --q, --d) design, d defaulting to 2p, drawn from stream 1 of
    --seed; the library checks it."""
    d = args.d if args.d is not None else 2 * p
    return build_family(p, args.q, d, RngSpec(args.seed, 1))


def _bootstrap(args):
    """--B multiplier-bootstrap replicates, weighted from stream 2 of --seed."""
    return BootstrapConfig(rng=RngSpec(args.seed, 2), replicates=args.B)


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


# Every flag, defined once.  A command lists the flags it takes in _COMMANDS,
# with the settings it changes, if any.
_FLAGS = {
    "--in": dict(dest="infile", required=True, help="input CSV panel"),
    "--returns": dict(required=True, help="CSV panel of realized losses"),
    "--forecast": dict(action="append", required=True, metavar="NAME=PATH",
                       help="named VaR forecast panel; repeatable"),
    "--config": dict(required=True, help="JSON sweep configuration"),
    "--p": dict(type=int, required=True, help="dimension"),
    "--q": dict(type=int, default=49, help="subset cardinality (default %(default)s)"),
    "--d": dict(type=int, default=None, help="number of subsets (default 2p)"),
    "--theta0": dict(type=_LEVEL, default=0.01,
                     help="target exceedance probability (default %(default)s)"),
    "--u": dict(type=_TAIL, default=0.01, help="tail probability (default %(default)s)"),
    "--alpha": dict(type=_LEVEL, default=0.05, help="test level (default %(default)s)"),
    "--B": dict(type=_POSITIVE, default=1000,
                help="bootstrap replicates (default %(default)s)"),
    "--seed": dict(type=_NONNEGATIVE, default=0, help="random seed (default %(default)s)"),
    "--out": dict(default=None, help="output path (default: stdout)"),
    "--format": dict(choices=("json", "csv"), default="json",
                     help="output format (default %(default)s)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolmax",
        description="Subsets-pooling mean tests and VaR backtesting",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in flags:
            flag, changes = (flag, {}) if isinstance(flag, str) else flag
            sp.add_argument(flag, **{**_FLAGS[flag], **changes})
    return parser


def _cmd_test(args, parser):
    """pool-test, naive-test and marginal-test."""
    _, x = ingest_panel(args.infile)
    if args.command == "naive-test":
        res = naive_test(x, args.alpha)
    else:
        if args.command == "marginal-test":
            res = marginal_test(x, args.alpha, _bootstrap(args))
        else:
            res = pool_test(x, _family(args, x.shape[1]), args.alpha, _bootstrap(args))
    _write(args.out, _formatted(args, res))


def _formatted(args, result) -> str:
    """A result as --format asks: indented JSON or CSV text."""
    return result.to_json(indent=2) if args.format == "json" else result.to_csv()


# Each command imports only the layers it computes with: simlab loads
# scipy's compiled normal ufuncs, and pool-test, the cold-start path, needs
# neither it nor backtest.


def _cmd_backtest(args, parser):
    from .backtest import full_backtest

    paths = {}
    for item in args.forecast:
        name, eq, path = item.partition("=")
        if not eq:
            parser.error(f"--forecast expects NAME=PATH, got {item!r}")
        if not name:
            parser.error(f"--forecast NAME is empty in {item!r}")
        # argv arrives decoded with the locale codec: take a NAME as the UTF-8
        # of its bytes.  Text that codec cannot encode was given to run() as
        # text, not read from argv, and is kept as it is.
        try:
            name = os.fsencode(name).decode("utf-8")
        except UnicodeEncodeError:
            pass
        except UnicodeDecodeError:
            parser.error(f"--forecast NAME {os.fsencode(name)!r} is not UTF-8")
        if name in paths:
            parser.error(f"--forecast NAME {name!r} is given twice")
        paths[name] = path
    _, u = ingest_panel(args.returns)
    forecasts = {name: ingest_panel(path)[1] for name, path in paths.items()}
    fam = _family(args, u.shape[1])
    _write(args.out, _formatted(args, full_backtest(u, forecasts, args.theta0, fam,
                                                    args.alpha, _bootstrap(args))))


def _cmd_taildep(args, parser):
    from .backtest import tail_dependence

    headers, z = ingest_panel(args.infile)
    lam = tail_dependence(z, args.u)
    rows = [[name] + [f"{v:.6g}" for v in row] for name, row in zip(headers, lam)]
    _write(args.out, csv_text([[""] + headers, *rows]))


def _cmd_subsets_check(args, parser):
    p, q = args.p, args.q
    ident = verify_identifiability(p, q)
    out = {"p": p, "q": q, "gcd": math.gcd(p, q), "identifiable": ident.identifiable}
    if not ident.identifiable:
        out["suggested_q"], out["kernel_witness"] = ident.suggested_q, list(ident.witness)
    elif args.d is not None:
        out["family"] = _family(args, p).to_dict()
    _write(args.out, json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if ident.identifiable else EXIT_USAGE


def _list_of(convert):
    def parse(values):
        if not isinstance(values, list):
            raise TypeError(f"not a list: {values!r}")
        return [convert(v) for v in values]

    return parse


def _cmd_simulate(args, parser):
    from .simlab import MODELS, DgpSpec, run_sweep

    try:
        with open(args.config, encoding="utf-8") as f:
            cfg = json.load(f)
    except UnicodeDecodeError:
        raise _not_utf8(args.config) from None
    if not isinstance(cfg, dict):
        raise PoolmaxError(f"sweep config must be a JSON object, got a {type(cfg).__name__}")

    model = _checked(str, MODELS.__contains__, f"one of {', '.join(MODELS)}")
    flag = _checked(lambda v: v, lambda v: isinstance(v, bool), "true or false")
    number = _checked(float, math.isfinite, "a finite number")
    grid = _checked(_list_of(_whole), bool, "a non-empty list of integers")
    methods = _checked(lambda v: v, lambda ms: isinstance(ms, list) and ms
                       and all(isinstance(m, str) for m in ms), "a non-empty list of strings")
    # Every key a config may set, with its converter.  The required ones must
    # be given; seed and stream_id default to 0, q_grid to [49] and d_grid to
    # [2p], and any other key left out is not passed, so the library's
    # default stands.
    required = ("model", "n", "p", "p0", "under_null")
    converters = {"model": model, "n": _POSITIVE, "p": _POSITIVE, "p0": _NONNEGATIVE,
                  "under_null": flag, "seed": _NONNEGATIVE, "stream_id": _NONNEGATIVE,
                  "alpha_n": number, "q_grid": grid, "d_grid": grid, "alpha": _LEVEL,
                  "B": _POSITIVE, "mc_reps": _NONNEGATIVE, "methods": methods}
    for key in cfg:
        if key not in converters:
            raise PoolmaxError(f"sweep config {key!r}: unknown key")
    given = {}
    for key, convert in converters.items():
        if key not in cfg:
            if key in required:
                raise PoolmaxError(f"sweep config {key!r}: missing")
            continue
        try:
            given[key] = convert(cfg[key])
        except argparse.ArgumentTypeError as e:
            raise PoolmaxError(f"sweep config {key!r}: {e}") from None
    spec = DgpSpec(rng=RngSpec(given.pop("seed", 0), given.pop("stream_id", 0)),
                   **{key: given.pop(key) for key in (*required, "alpha_n") if key in given})
    given.setdefault("q_grid", [49])
    given.setdefault("d_grid", [2 * spec.p])
    _write(args.out, _formatted(args, run_sweep(spec, **given)))


_TEST_FLAGS = ["--in", "--out", "--alpha", "--format"]
_CSV_DEFAULT = ("--format", {"default": "csv"})
# name: (help, handler, flags in the order of the usage line)
_COMMANDS = {
    "pool-test": ("subsets-based pooling max test", _cmd_test,
                  [*_TEST_FLAGS, "--q", "--d", "--B", "--seed"]),
    "naive-test": ("full-pooling normal test", _cmd_test, _TEST_FLAGS),
    "marginal-test": ("per-dimension max test baseline", _cmd_test,
                      [*_TEST_FLAGS, "--B", "--seed"]),
    "backtest": ("validation + comparative VaR backtests", _cmd_backtest,
                 ["--returns", "--forecast", "--theta0", "--q", "--d", "--alpha", "--B",
                  "--seed", "--out", _CSV_DEFAULT]),
    "taildep": ("upper tail-dependence matrix of residuals", _cmd_taildep,
                ["--in", "--u", "--out"]),
    "subsets-check": ("design diagnostics for (p, q)", _cmd_subsets_check,
                      ["--p", ("--q", {"required": True, "default": None,
                                       "help": "subset cardinality"}),
                       ("--d", {"help": "build and report a family of d subsets"}),
                       "--seed", "--out"]),
    "simulate": ("Monte Carlo size/power sweep", _cmd_simulate,
                 ["--config", "--out", _CSV_DEFAULT]),
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command][1](args, parser)
        return EXIT_OK if code is None else code
    except SubsetDesignError as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateVarianceError as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (PoolmaxError, OSError, json.JSONDecodeError) as e:
        print(f"poolmax: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())
