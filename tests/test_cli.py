import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolmax import cli
from poolmax.cli import EXIT_DATA, EXIT_DEGENERATE, EXIT_USAGE, ingest_panel, run
from poolmax.errors import ParseError, PoolmaxError


@pytest.fixture
def panel_csv(tmp_path):
    gen = np.random.default_rng(0)
    x = gen.standard_normal((60, 10))
    path = tmp_path / "x.csv"
    header = ",".join(f"a{j}" for j in range(10))
    body = "\n".join(",".join(f"{v:.8f}" for v in row) for row in x)
    path.write_text(header + "\n" + body + "\n")
    return path


def test_ingest_happy_path(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    headers, x = ingest_panel(p)
    assert headers == ["a", "b"]
    assert x.shape == (3, 2)


def test_ingest_header_only(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("a,b\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PoolmaxError, match="^header-only file: no observations$"):
            ingest_panel(p)
    assert caught == []


def test_ingest_ragged(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError, match="^line 3: inconsistent number of fields$") as exc:
        ingest_panel(p)
    assert exc.value.line == 3


def test_ingest_parse_error(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("a,b\n1,x\n")
    with pytest.raises(ParseError):
        ingest_panel(p)


def test_ingest_error_line_counts_lines_not_records(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text('a,b\n1,"2\n"\nx,5\n')  # the second record spans lines 2-3
    with pytest.raises(ParseError) as exc:
        ingest_panel(p)
    assert exc.value.line == 4


def _force_row_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("numpy parser disabled")

    monkeypatch.setattr(np, "loadtxt", refuse)


def _ingest_outcome(path):
    """What ingest_panel gives: headers and bytes, or the error raised."""
    try:
        headers, x = ingest_panel(path)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None)
    return headers, x.shape, x.tobytes()


# Each body is read by numpy's parser and by the row reader alone; they must
# agree on headers and bytes, or on the error class, line and message.
EDGE_CASES = {
    "lf": "a,b\n1,2\n3,4\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr_only": "a,b\r1,2\r3,4\r",
    "no_final_newline": "a,b\n1,2\n3,4",
    "blank_line": "a,b\n1,2\n\n3,4\n",
    "crlf_blank_line": "a,b\r\n\r\n1,2\r\n3,4\r\n",
    "leading_blank_lines": "\n\na,b\n1,2\n3,4\n",
    "whitespace_line": "a,b\n1,2\n \n3,4\n",
    "whitespace_line_one_column": "a\n1\n \n3\n",
    "hash_line": "a,b\n1,2\n#c\n3,4\n",
    "hash_line_one_column": "a\n1\n#c\n3\n",
    "hash_after_value": "a,b\n1,2 # x\n3,4\n",
    "trailing_comma": "a,b\n1,2,\n3,4,\n",
    "trailing_comma_in_header": "a,b,\n1,2,\n3,4,\n",
    "quoted_value": 'a,b\n"1",2\n3,4\n',
    "quoted_header": '"a","b"\n1,2\n3,4\n',
    "multiline_quoted_value": 'a,b\n1,"2\n3"\n4,5\n',
    "underscore": "a,b\n1_000,2\n3,4\n",
    "arabic_digit": "a,b\n\u0661,2\n3,4\n",
    "inf": "a,b\n1,inf\n3,4\n",
    "nan": "a,b\nnan,2\n3,4\n",
    "overflow": "a,b\n1e999,2\n3,4\n",
    "hex": "a,b\n0x10,2\n3,4\n",
    "fortran_exponent": "a,b\n1d5,2\n3,4\n",
    "empty_field": "a,b\n1,\n3,4\n",
    "empty_middle_field": "a,b,c\n1,,2\n3,4,5\n",
    "header_only": "a,b\n",
    "header_then_blank_lines": "a,b\n\n\n",
    "empty": "",
    "one_column": "a\n1\n2\n3\n",
    "one_row": "a,b\n1,2\n",
    "ragged_row": "a,b\n1,2\n3\n",
    "text_value": "a,b\n1,x\n",
    "padded_fields": "a , b \n 1 , 2 \n3,4\n",
    "nbsp": "a,b\n\u00a01,2\n3,4\n",
    "vertical_tab_in_field": "a,b\n1\x0b,2\n3,4\n",
    "vertical_tab_between_rows": "a,b\n1,2\x0b3,4\n",
    "signs_and_points": "a,b\n+1,-2\n.5,5.\n-0,1e-320\n",
    # fields over csv's 131072-character limit
    "long_header_field": f'"{"h" * 140_000}",b\n1,2\n',
    "long_body_field": f'a,b\n1,2\n3,"{"4" * 140_000}"\n',
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_ingest_numpy_parser_agrees_with_row_reader(tmp_path, monkeypatch, text):
    p = tmp_path / "e.csv"
    p.write_bytes(text.encode())
    fast = _ingest_outcome(p)
    _force_row_reader(monkeypatch)
    assert _ingest_outcome(p) == fast


@pytest.mark.parametrize("text, line", [
    (f'"{"h" * 140_000}",b\n1,2\n', 1),
    (f'\na,b\n1,2\n3,"{"4" * 140_000}"\n', 4),
], ids=["quoted-header", "body"])
def test_field_over_csv_limit_exits_3(tmp_path, capsys, text, line):
    p = tmp_path / "long.csv"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        ingest_panel(p)
    assert exc.value.line == line
    assert run(["naive-test", "--in", str(p)]) == EXIT_DATA
    assert f"poolmax: line {line}: field larger than field limit" in capsys.readouterr().err


def test_ingest_plain_panel_skips_row_reader(panel_csv, monkeypatch):
    monkeypatch.setattr(cli, "_ingest_rows", None)
    headers, x = ingest_panel(panel_csv)
    assert x.shape == (60, 10) and headers[-1] == "a9"


@settings(max_examples=60, deadline=None)
@given(
    values=st.integers(2, 7).flatmap(lambda n: st.integers(1, 6).flatmap(
        lambda p: st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=p, max_size=p), min_size=n, max_size=n))),
    fmt=st.sampled_from([repr, "%.9g".__mod__, "%.17g".__mod__]),
    eol=st.sampled_from(["\n", "\r\n"]),
    final_eol=st.booleans(),
)
def test_ingest_returns_float_of_each_field(tmp_path_factory, values, fmt, eol, final_eol):
    fields = [[fmt(v) for v in row] for row in values]
    lines = [",".join(f"c{j}" for j in range(len(fields[0])))]
    lines += [",".join(row) for row in fields]
    p = tmp_path_factory.getbasetemp() / "property.csv"
    p.write_bytes((eol.join(lines) + (eol if final_eol else "")).encode())
    expected = np.array([[float(f) for f in row] for row in fields])
    headers, x = ingest_panel(p)
    assert len(headers) == x.shape[1]
    assert x.tobytes() == expected.tobytes()


def test_pool_test_bytes_equal_through_row_reader(panel_csv, tmp_path, monkeypatch):
    fast, rows = tmp_path / "fast.json", tmp_path / "rows.json"
    argv = ["pool-test", "--in", str(panel_csv), "--q", "3", "--B", "40"]
    assert run(argv + ["--out", str(fast)]) == 0
    _force_row_reader(monkeypatch)
    assert run(argv + ["--out", str(rows)]) == 0
    assert rows.read_bytes() == fast.read_bytes()


def test_pool_test_happy(panel_csv, tmp_path):
    out = tmp_path / "res.json"
    code = run(["pool-test", "--in", str(panel_csv), "--q", "3", "--d", "20",
                "--alpha", "0.05", "--B", "50", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["method_tag"] == "subsets-pool"
    assert 0 < res["p_value"] <= 1


def test_pool_test_non_coprime_exits_2(panel_csv, capsys):
    code = run(["pool-test", "--in", str(panel_csv), "--q", "5", "--B", "10"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "coprime" in err and "try q=3" in err


@pytest.mark.parametrize("design", [["--q", "0"], ["--q", "10"], ["--q", "3", "--d", "9"]])
def test_pool_test_bad_design_exits_2(panel_csv, capsys, design):
    code = run(["pool-test", "--in", str(panel_csv), "--B", "10", *design])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("poolmax: need")


def test_threads_env_is_ignored(panel_csv, monkeypatch):
    monkeypatch.setenv("POOLMAX_THREADS", "two")
    assert run(["naive-test", "--in", str(panel_csv)]) == 0


def test_unknown_flag_exits_2(panel_csv):
    with pytest.raises(SystemExit) as exc:
        run(["pool-test", "--in", str(panel_csv), "--bogus", "1"])
    assert exc.value.code == EXIT_USAGE


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv", [
    [cmd, "--in", "missing.csv", flag, value]
    for cmd in ("pool-test", "marginal-test", "naive-test")
    for flag, value in (("--alpha", "2"), ("--alpha", "0"), ("--alpha", "nan"),
                        ("--B", "0"), ("--seed", "-1"))
    if cmd != "naive-test" or flag == "--alpha"
] + [
    ["backtest", "--returns", "missing.csv", "--forecast", "f=missing.csv",
     "--out", "r.csv", flag, value]
    for flag, value in (("--alpha", "1"), ("--B", "0"), ("--seed", "-1"))
] + [
    ["backtest", "--returns", "missing.csv", "--forecast", "f=missing.csv",
     "--out", "r.csv", "--theta0", value] for value in ("0", "1", "nan")
] + [
    ["taildep", "--in", "missing.csv", "--u", value] for value in ("2", "0.5", "0")
] + [
    ["subsets-check", "--p", "10", "--q", "3", "--d", "12", "--seed", "-2"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_flag_value_exits_2_before_reading(argv, capsys):
    """A nonexistent input would exit 3 if it were opened."""
    assert _exit_code(argv) == EXIT_USAGE
    assert f"argument {argv[-2]}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["backtest", "--returns", "missing.csv", "--forecast", "f=missing.csv"],
    ["backtest", "--returns", "missing.csv", "--forecast", "missing.csv",
     "--format", "json"],
    ["simulate", "--config", "missing.json"],
], ids=["backtest-csv-without-out", "backtest-forecast-syntax", "simulate-csv-without-out"])
def test_usage_error_before_any_input_is_read(argv):
    assert _exit_code(argv) == EXIT_USAGE


def test_determinism_byte_identical(panel_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["pool-test", "--in", str(panel_csv), "--q", "3", "--B", "40",
            "--seed", "11"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_naive_and_marginal_commands(panel_csv, tmp_path):
    out = tmp_path / "n.json"
    assert run(["naive-test", "--in", str(panel_csv), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method_tag"] == "naive"
    assert run(["marginal-test", "--in", str(panel_csv), "--B", "30",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method_tag"] == "marginal"


def test_degenerate_exits_4(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("a\n1\n1\n1\n")
    assert run(["naive-test", "--in", str(p)]) == EXIT_DEGENERATE


def test_missing_file_exits_3(tmp_path):
    assert run(["naive-test", "--in", str(tmp_path / "nope.csv")]) == EXIT_DATA


def test_subsets_check(tmp_path):
    out = tmp_path / "s.json"
    assert run(["subsets-check", "--p", "10", "--q", "3", "--d", "12",
                "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["coprime"] and res["identifiable"]
    assert len(res["family"]["members"]) == 12
    assert run(["subsets-check", "--p", "10", "--q", "4",
                "--out", str(out)]) == EXIT_USAGE
    res = json.loads(out.read_text())
    assert not res["identifiable"] and "kernel_witness" in res
    assert res["suggested_q"] == 3


def test_taildep_command(tmp_path):
    gen = np.random.default_rng(1)
    z = gen.standard_normal((200, 3))
    p = tmp_path / "z.csv"
    p.write_text("x,y,w\n" + "\n".join(",".join(map(str, r)) for r in z) + "\n")
    out = tmp_path / "lam.csv"
    assert run(["taildep", "--in", str(p), "--u", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",x,y,w"
    assert len(lines) == 4


SWEEP_CONFIG = {
    "model": "B1", "n": 60, "p": 9, "p0": 2, "under_null": True,
    "seed": 3, "q_grid": [2], "d_grid": [18], "alpha": 0.1,
    "B": 20, "mc_reps": 3,
}


def test_simulate_command(tmp_path):
    cfg = SWEEP_CONFIG
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("model,q,d,method")
    assert len(lines) == 4


@pytest.mark.parametrize("edit, message", [
    ({"under_null": None}, "'under_null': missing"),
    ({"n": "abc"}, "'n': expected an integer >= 1, got 'abc'"),
    ({"model": "C3"}, "'model': expected one of A1, A2, B1, B2, got 'C3'"),
    ({"q_grid": "x"}, "'q_grid': expected a non-empty list of integers, got 'x'"),
    ({"under_null": "false"}, "'under_null': expected true or false, got 'false'"),
    ({"methods": ["naive", "pool"]}, "'methods': expected a non-empty list of"),
    ({"n": 60.7}, "'n': expected an integer >= 1, got 60.7"),
    ({"p": True}, "'p': expected an integer >= 1, got True"),
    ({"p0": 1.5}, "'p0': expected an integer >= 0, got 1.5"),
    ({"B": 20.5}, "'B': expected an integer >= 1, got 20.5"),
    ({"mc_reps": False}, "'mc_reps': expected an integer >= 0, got False"),
    ({"seed": 3.2}, "'seed': expected an integer >= 0, got 3.2"),
    ({"stream_id": True}, "'stream_id': expected an integer >= 0, got True"),
    ({"q_grid": [2.9]}, "'q_grid': expected a non-empty list of integers, got [2.9]"),
    ({"d_grid": [18, True]}, "'d_grid': expected a non-empty list of integers, got [18, True]"),
], ids=["missing-key", "bad-int", "unknown-model", "grid-not-list", "flag-string",
        "unknown-method", "n-fraction", "p-bool", "p0-fraction", "B-fraction",
        "mc_reps-bool", "seed-fraction", "stream_id-bool", "q_grid-fraction",
        "d_grid-bool"])
def test_simulate_bad_config_exits_3(tmp_path, capsys, edit, message):
    cfg = {k: v for k, v in {**SWEEP_CONFIG, **edit}.items() if v is not None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_DATA
    assert f"poolmax: sweep config {message}" in capsys.readouterr().err


def test_simulate_accepts_integral_json_numbers(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SWEEP_CONFIG, "n": 60.0, "q_grid": [2.0]}))
    out = tmp_path / "sweep.json"
    assert run(["simulate", "--config", str(cfg_path), "--format", "json",
                "--out", str(out)]) == 0
    assert {row["q"] for row in json.loads(out.read_text())} == {2}


def test_simulate_config_not_an_object_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([SWEEP_CONFIG]))
    assert run(["simulate", "--config", str(cfg_path), "--format", "json"]) == EXIT_DATA
    assert "must be a JSON object, got a list" in capsys.readouterr().err


def test_backtest_command(tmp_path):
    gen = np.random.default_rng(2)
    n, p = 300, 5
    u = gen.standard_normal((n, p))
    header = ",".join(f"s{j}" for j in range(p))

    def write(path, mat):
        path.write_text(header + "\n" +
                        "\n".join(",".join(map(str, r)) for r in mat) + "\n")

    up = tmp_path / "u.csv"
    write(up, u)
    f1 = tmp_path / "emp.csv"
    write(f1, np.full_like(u, 1.3))
    f2 = tmp_path / "evt.csv"
    write(f2, np.full_like(u, 1.6))
    out = tmp_path / "report.csv"
    code = run(["backtest", "--returns", str(up),
                "--forecast", f"emp={f1}", "--forecast", f"evt={f2}",
                "--theta0", "0.05", "--q", "2", "--d", "10",
                "--B", "40", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",emp,evt"


def _write_input(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _panel_text(x):
    header = ",".join(f"a{j}" for j in range(x.shape[1]))
    return header + "\n" + "\n".join(",".join(map(str, r)) for r in x) + "\n"


_NOISE = _panel_text(np.random.default_rng(3).standard_normal((60, 10)))
_SHORT = _panel_text(np.random.default_rng(3).standard_normal((30, 10)))
_CONSTANT_COLUMN = "a,b,c\n1,7,2\n3,7,5\n4,7,1\n"

# One CLI case per raise family: (argv with {csv}, {csv2} and {cfg} for input
# files, the files' contents, exit code, the whole stderr after "poolmax: ").
EXIT_CODE_TABLE = {
    "q-out-of-range": (["pool-test", "--in", "{csv}", "--q", "0"], {"csv": _NOISE},
                       EXIT_USAGE, "need 1 <= q < p, got p=10, q=0"),
    "d-below-p": (["pool-test", "--in", "{csv}", "--q", "3", "--d", "9"], {"csv": _NOISE},
                  EXIT_USAGE, "need d >= p, got d=9, p=10"),
    "q-not-coprime": (["pool-test", "--in", "{csv}", "--q", "5"], {"csv": _NOISE},
                      EXIT_USAGE, "p=10 and q=5 are not coprime; try q=3"),
    "constant-column": (["marginal-test", "--in", "{csv}", "--B", "10"],
                        {"csv": _CONSTANT_COLUMN},
                        EXIT_DEGENERATE, "zero variance estimate (subset/column 1)"),
    "constant-row-sum": (["naive-test", "--in", "{csv}"], {"csv": "a\n1\n1\n1\n"},
                         EXIT_DEGENERATE, "zero variance estimate"),
    "ragged-row": (["naive-test", "--in", "{csv}"], {"csv": "a,b\n1,2\n3\n"},
                   EXIT_DATA, "line 3: inconsistent number of fields"),
    "unparseable-value": (["naive-test", "--in", "{csv}"], {"csv": "a,b\n1,x\n"},
                          EXIT_DATA, "line 2: unparseable value"),
    "empty-file": (["naive-test", "--in", "{csv}"], {"csv": ""},
                   EXIT_DATA, "line 0: empty file"),
    "header-only": (["naive-test", "--in", "{csv}"], {"csv": "a,b\n"},
                    EXIT_DATA, "header-only file: no observations"),
    "one-row": (["naive-test", "--in", "{csv}"], {"csv": "a,b\n1,2\n"},
                EXIT_DATA, "need at least 2 observations, got 1"),
    "non-finite-entry": (["naive-test", "--in", "{csv}"], {"csv": "a,b\n1,2\n3,inf\n"},
                         EXIT_DATA, "non-finite entry at (1, 1)"),
    "forecast-shape": (["backtest", "--returns", "{csv}", "--forecast", "f={csv2}",
                        "--q", "3", "--B", "10", "--format", "json"],
                       {"csv": _NOISE, "csv2": _SHORT},
                       EXIT_DATA, "forecast 'f' has shape (30, 10), losses (60, 10)"),
    "taildep-n-u-below-1": (["taildep", "--in", "{csv}"], {"csv": _NOISE},
                            EXIT_DATA, "need n * u >= 1"),
    "alpha-n-out-of-range": (["simulate", "--config", "{cfg}", "--format", "json"],
                             {"cfg": json.dumps({**SWEEP_CONFIG, "alpha_n": 0.7})},
                             EXIT_DATA, "alpha_n must lie in (0, 0.5)"),
    "p0-too-large": (["simulate", "--config", "{cfg}", "--format", "json"],
                     {"cfg": json.dumps({**SWEEP_CONFIG, "p0": 5})},
                     EXIT_DATA, "p0=5 too large for p=9"),
}


@pytest.mark.parametrize("argv, files, code, message", EXIT_CODE_TABLE.values(),
                         ids=EXIT_CODE_TABLE.keys())
def test_exit_code_table(tmp_path, capsys, argv, files, code, message):
    paths = {key: _write_input(tmp_path, key, text) for key, text in files.items()}
    assert run([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == f"poolmax: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["naive-test", "--in", "{dir}/bad.csv"],
    ["pool-test", "--in", "{dir}/bad.csv", "--q", "1"],
    ["backtest", "--returns", "{dir}/ok.csv", "--forecast", "f={dir}/bad.csv", "--q", "1",
     "--format", "json"],
    ["simulate", "--config", "{dir}/bad.json", "--format", "json"],
], ids=["naive-test", "pool-test", "backtest-forecast", "simulate-config"])
def test_input_not_utf8_exits_3(tmp_path, capsys, argv):
    (tmp_path / "bad.csv").write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    (tmp_path / "bad.json").write_bytes(b'{"model": "\xff"}')
    (tmp_path / "ok.csv").write_text("a,b\n1,2\n3,5\n")
    assert run([arg.format(dir=tmp_path) for arg in argv]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("poolmax: ") and err.count("\n") == 1


@pytest.mark.parametrize("forecasts, message", [
    (["x=missing.csv", "x=other.csv"], "--forecast NAME 'x' is given twice"),
    (["=missing.csv"], "--forecast NAME is empty in '=missing.csv'"),
], ids=["repeated", "empty"])
def test_forecast_name_repeated_or_empty_exits_2_before_reading(capsys, forecasts, message):
    """A nonexistent input would exit 3 if it were opened."""
    argv = ["backtest", "--returns", "missing.csv", "--format", "json"]
    for item in forecasts:
        argv += ["--forecast", item]
    assert _exit_code(argv) == EXIT_USAGE
    assert f"poolmax: error: {message}" in capsys.readouterr().err
