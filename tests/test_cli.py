import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolmax
from poolmax import cli
from poolmax.cli import EXIT_DATA, EXIT_DEGENERATE, EXIT_USAGE, ingest_panel, run
from poolmax.errors import (
    DegenerateVarianceError,
    NonFiniteError,
    PoolmaxError,
    SubsetDesignError,
)


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
    with pytest.raises(PoolmaxError, match="^line 3: inconsistent number of fields$"):
        ingest_panel(p)


def test_ingest_parse_error(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("a,b\n1,x\n")
    with pytest.raises(PoolmaxError, match="^line 2: unparseable value$"):
        ingest_panel(p)


def test_ingest_error_line_counts_lines_not_records(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text('a,b\n1,"2\n"\nx,5\n')  # the second record spans lines 2-3
    with pytest.raises(PoolmaxError, match="^line 4: unparseable value$"):
        ingest_panel(p)


def _force_row_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("numpy parser disabled")

    monkeypatch.setattr(np, "loadtxt", refuse)


def _ingest_outcome(path):
    """What ingest_panel gives: headers and bytes, or the error raised."""
    try:
        headers, x = ingest_panel(path)
    except Exception as e:
        return type(e), str(e)
    return headers, x.shape, x.tobytes()


# Each body is read by numpy's parser and by the row reader alone; they must
# agree on headers and bytes, or on the error class and message.
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
    with pytest.raises(PoolmaxError, match=f"^line {line}: field larger than field limit"):
        ingest_panel(p)
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


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{poolmax.__version__}\n"


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
    ["backtest", "--returns", "missing.csv", "--forecast", "missing.csv",
     "--format", "json"],
], ids=["backtest-forecast-syntax"])
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
    # gcd and identifiable carry the coprimality; no key repeats them
    assert set(res) == {"p", "q", "gcd", "identifiable", "family"}
    assert res["identifiable"] and res["gcd"] == 1
    assert len(res["family"]["members"]) == 12
    assert run(["subsets-check", "--p", "10", "--q", "4",
                "--out", str(out)]) == EXIT_USAGE
    res = json.loads(out.read_text())
    assert set(res) == {"p", "q", "gcd", "identifiable", "suggested_q", "kernel_witness"}
    assert not res["identifiable"] and res["gcd"] == 2
    assert res["suggested_q"] == 3
    # identifiability and its witness are reported for every p
    assert run(["subsets-check", "--p", "100", "--q", "50",
                "--out", str(out)]) == EXIT_USAGE
    res = json.loads(out.read_text())
    assert not res["identifiable"] and res["suggested_q"] == 49
    mu = np.array(res["kernel_witness"])
    assert mu.shape == (100,) and mu.any()
    assert not np.convolve(np.tile(mu, 2), np.ones(50), "valid")[:100].any()
    assert run(["subsets-check", "--p", "100", "--q", "49", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["identifiable"]


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


def _taildep_panel(tmp_path, header):
    gen = np.random.default_rng(5)
    z = gen.standard_normal((300, 1)) + gen.standard_normal((300, 3))
    p = tmp_path / "z.csv"
    p.write_text(header + "\n" + "\n".join(",".join(map(repr, r)) for r in z.tolist()) + "\n")
    return p


def test_taildep_plain_names_keep_their_bytes(tmp_path, capsys):
    assert run(["taildep", "--in", str(_taildep_panel(tmp_path, "x,y,w")), "--u", "0.1"]) == 0
    assert capsys.readouterr().out == (",x,y,w\nx,1,0.433333,0.4\ny,0.433333,1,0.5\n"
                                       "w,0.4,0.5,1\n")


def test_taildep_quotes_names_as_csv(tmp_path):
    """A name holding a comma, a quote, a CR or a LF reads back whole: a
    square matrix.  Before Python 3.12, `csv` wrote a bare CR unquoted."""
    out = tmp_path / "lam.csv"
    for header, names in [('"a,b","d""e",c', ["a,b", 'd"e', "c"]),
                          ('"a\rb","c\nd",e', ["a\rb", "c\nd", "e"])]:
        panel = _taildep_panel(tmp_path, header)
        assert run(["taildep", "--in", str(panel), "--u", "0.1", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["", *names]
        assert [r[0] for r in rows[1:]] == names
        assert [len(r) for r in rows] == [4, 4, 4, 4]
        assert [r[1:] for r in rows[1:]] == [["1", "0.433333", "0.4"],
                                             ["0.433333", "1", "0.5"], ["0.4", "0.5", "1"]]


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


def test_simulate_leaves_library_defaults_to_the_library(tmp_path, monkeypatch):
    """A key the config leaves out is not passed, so `DgpSpec` and
    `run_sweep` hold the only definition of its default."""
    from poolmax import simlab

    calls = []

    def run_sweep(spec, **kwargs):
        calls.append((spec, kwargs))
        return simlab.SweepResult()

    monkeypatch.setattr(simlab, "run_sweep", run_sweep)
    cfg = {k: v for k, v in SWEEP_CONFIG.items() if k not in ("alpha", "B", "mc_reps")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 0
    [(spec, kwargs)] = calls
    assert spec.alpha_n == simlab.DgpSpec.alpha_n
    assert kwargs == {"q_grid": [2], "d_grid": [18]}


@pytest.mark.parametrize("edit, message", [
    ({"under_null": None}, "'under_null': missing"),
    ({"n": "abc"}, "'n': expected an integer >= 1, got 'abc'"),
    ({"model": "C3"}, "'model': expected one of A1, A2, B1, B2, got 'C3'"),
    ({"q_grid": "x"}, "'q_grid': expected a non-empty list of integers, got 'x'"),
    ({"under_null": "false"}, "'under_null': expected true or false, got 'false'"),
    ({"methods": ["naive", 3]}, "'methods': expected a non-empty list of strings, "
                                "got ['naive', 3]"),
    ({"n": 60.7}, "'n': expected an integer >= 1, got 60.7"),
    ({"p": True}, "'p': expected an integer >= 1, got True"),
    ({"p0": 1.5}, "'p0': expected an integer >= 0, got 1.5"),
    ({"B": 20.5}, "'B': expected an integer >= 1, got 20.5"),
    ({"mc_reps": False}, "'mc_reps': expected an integer >= 0, got False"),
    ({"seed": 3.2}, "'seed': expected an integer >= 0, got 3.2"),
    ({"stream_id": True}, "'stream_id': expected an integer >= 0, got True"),
    ({"q_grid": [2.9]}, "'q_grid': expected a non-empty list of integers, got [2.9]"),
    ({"d_grid": [18, True]}, "'d_grid': expected a non-empty list of integers, got [18, True]"),
    ({"mc_rep": 2, "method": ["naive"]}, "'mc_rep': unknown key"),
], ids=["missing-key", "bad-int", "unknown-model", "grid-not-list", "flag-string",
        "method-not-string", "n-fraction", "p-bool", "p0-fraction", "B-fraction",
        "mc_reps-bool", "seed-fraction", "stream_id-bool", "q_grid-fraction",
        "d_grid-bool", "unknown-key"])
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


def _crlf_csv_as_lf(rows):
    """rows through `csv`'s default writer, which ends lines in CRLF, with
    each CRLF then cut to a newline."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().replace("\r\n", "\n")


def test_csv_to_stdout_equals_csv_to_out(panel_csv, tmp_path, capsysbinary):
    """Every CSV output has the same bytes on stdout, where it goes without
    --out, as in --out, with each line ending in a bare newline.  The
    backtest and sweep tables hold the cells of their JSON in the layout
    they had when the library wrote them with CRLF line ends."""
    x = str(panel_csv)
    forecasts = []
    for name, level in [("lo", 1.3), ("hi", 1.6)]:
        path = tmp_path / f"{name}.csv"
        path.write_text(",".join(f"a{j}" for j in range(10)) + "\n"
                        + (",".join([str(level)] * 10) + "\n") * 60)
        forecasts += ["--forecast", f"{name}={path}"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    commands = {
        "pool-test": ["pool-test", "--in", x, "--q", "3", "--d", "20", "--B", "40",
                      "--format", "csv"],
        "naive-test": ["naive-test", "--in", x, "--format", "csv"],
        "marginal-test": ["marginal-test", "--in", x, "--B", "40", "--format", "csv"],
        "backtest": ["backtest", "--returns", x, *forecasts, "--theta0", "0.05", "--q", "3",
                     "--d", "20", "--B", "40"],
        "simulate": ["simulate", "--config", str(cfg)],
        "taildep": ["taildep", "--in", x, "--u", "0.1"],
    }
    text = {}
    for name, argv in commands.items():
        out = tmp_path / f"{name}.out"
        assert run(argv) == 0
        stdout = capsysbinary.readouterr().out
        assert run([*argv, "--out", str(out)]) == 0
        assert stdout == out.read_bytes(), name
        assert b"\r\n" not in stdout, name
        text[name] = stdout.decode("utf-8")

    assert run([*commands["backtest"], "--format", "json"]) == 0
    report = json.loads(capsysbinary.readouterr().out)
    names = report["methods"]
    cells = {(m, m): p for m, p in report["validation_pvalues"].items()}
    cells.update({(c["row"], c["col"]): c["p_value"] for c in report["comparative_pvalues"]})
    assert text["backtest"] == _crlf_csv_as_lf(
        [["", *names]] + [[a] + ["" if cells.get((a, b)) is None else f"{cells[a, b]:.6g}"
                                 for b in names] for a in names])

    assert run([*commands["simulate"], "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out)
    cols = ["model", "q", "d", "method", "alpha", "mc_reps", "reject_rate"]
    assert len(rows) == 3
    assert text["simulate"] == _crlf_csv_as_lf([cols] + [[r[c] for c in cols] for r in rows])


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
    "variance-underflow": (["marginal-test", "--in", "{csv}", "--B", "10"],
                           {"csv": "a,b\n1,2e-170\n2,-1e-170\n3,3e-170\n"},
                           EXIT_DEGENERATE,
                           "variance estimate 0.0 is out of floating-point range"
                           " (subset/column 1)"),
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
                     EXIT_DATA, "need 2*p0 <= p, got p0=5, p=9"),
    "q-grid-repeated": (["simulate", "--config", "{cfg}", "--format", "json"],
                        {"cfg": json.dumps({**SWEEP_CONFIG, "q_grid": [7, 7]})},
                        EXIT_DATA, "q_grid lists 7 more than once"),
    "unknown-method": (["simulate", "--config", "{cfg}", "--format", "json"],
                       {"cfg": json.dumps({**SWEEP_CONFIG, "methods": ["naive", "pool"]})},
                       EXIT_DATA, "unknown method 'pool'; expected one of subsets-pool, "
                                  "naive, marginal"),
}


@pytest.mark.parametrize("argv, files, code, message", EXIT_CODE_TABLE.values(),
                         ids=EXIT_CODE_TABLE.keys())
def test_exit_code_table(tmp_path, capsys, argv, files, code, message):
    paths = {key: _write_input(tmp_path, key, text) for key, text in files.items()}
    assert run([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == f"poolmax: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("error, code", [
    (SubsetDesignError("design"), EXIT_USAGE),
    (PoolmaxError("data"), EXIT_DATA),
    (NonFiniteError(1, 2), EXIT_DATA),
    (DegenerateVarianceError("variance"), EXIT_DEGENERATE),
], ids=["SubsetDesignError", "PoolmaxError", "NonFiniteError", "DegenerateVarianceError"])
def test_each_error_class_has_its_exit_code(monkeypatch, capsys, error, code):
    def handler(args, parser):
        raise error

    help_, _, flags = cli._COMMANDS["naive-test"]
    monkeypatch.setitem(cli._COMMANDS, "naive-test", (help_, handler, flags))
    assert run(["naive-test", "--in", "unread.csv"]) == code
    assert capsys.readouterr().err == f"poolmax: {error}\n"


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
    bad, line = (tmp_path / "bad.json", 1) if argv[0] == "simulate" else (tmp_path / "bad.csv", 3)
    assert capsys.readouterr().err == f"poolmax: line {line}: {bad} is not UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize("codec", ["latin-1", "cp1252"])
def test_inputs_decode_as_utf8_under_any_locale(tmp_path, capsys, monkeypatch, codec):
    """Under a locale whose codec decodes every byte (latin-1), a bad byte is
    still the UTF-8 error; under one that cannot decode valid UTF-8 (cp1252
    has no 0x81, the second byte of "ā"), a good file still reads."""
    def locale_open(file, mode="r", *args, encoding=None, **kwargs):
        if "b" not in mode and encoding is None:
            encoding = codec
        return io.open(file, mode, *args, encoding=encoding, **kwargs)

    monkeypatch.setattr(cli, "open", locale_open, raising=False)
    (tmp_path / "bad.csv").write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    (tmp_path / "bad.json").write_bytes(b'{"model": "\xff"}')
    (tmp_path / "good.csv").write_bytes("ā,b\n1,2\n3,5\n".encode("utf-8"))
    for argv, bad, line in [
        (["naive-test", "--in", "bad.csv"], "bad.csv", 3),
        (["simulate", "--config", "bad.json", "--format", "json"], "bad.json", 1),
    ]:
        argv = [str(tmp_path / a) if a.startswith("bad") else a for a in argv]
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"poolmax: line {line}: {tmp_path / bad} is not UTF-8 (byte 0xff)\n")
    headers, x = ingest_panel(tmp_path / "good.csv")
    assert headers == ["ā", "b"] and x.tolist() == [[1.0, 2.0], [3.0, 5.0]]


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale, with UTF-8 mode and locale coercion off, Python's
    default text encoding is ASCII; names read from UTF-8 inputs are still
    written, to a file or to stdout, as UTF-8."""
    header = "aktie_ø,株,b"
    body = np.random.default_rng(0).standard_normal((60, 3))
    (tmp_path / "r.csv").write_bytes("\n".join(
        [header] + [",".join(f"{v:.6f}" for v in row) for row in body]).encode("utf-8") + b"\n")
    (tmp_path / "f.csv").write_bytes(f"{header}\n".encode("utf-8") + b"1,1,1\n" * 60)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHON"))}
    env.update(PYTHONPATH=src, PYTHONCOERCECLOCALE="0", LC_ALL="C")

    def poolmax(*argv):
        return subprocess.run([sys.executable, "-X", "utf8=0", "-m", "poolmax", *argv],
                              env=env, cwd=tmp_path, capture_output=True, timeout=120)

    probe = subprocess.run([sys.executable, "-X", "utf8=0", "-c",
                            "import locale; print(locale.getpreferredencoding(False))"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert probe.stdout.strip().lower() in ("ascii", "ansi_x3.4-1968")
    taildep = ["taildep", "--in", "r.csv", "--u", "0.1"]
    backtest = ["backtest", "--returns", "r.csv", "--forecast", "ø=f.csv",
                "--forecast", "株=f.csv", "--q", "2", "--B", "20", "--format"]
    bt_json = poolmax(*backtest, "json")
    for proc in [poolmax(*taildep, "--out", "td.csv"), poolmax(*taildep),
                 poolmax(*backtest, "csv", "--out", "bt.csv"), bt_json]:
        assert (proc.returncode, proc.stderr) == (0, b"")
    first = f",{header}\naktie_ø,1,".encode("utf-8")
    assert (tmp_path / "td.csv").read_bytes().startswith(first)
    assert poolmax(*taildep).stdout == (tmp_path / "td.csv").read_bytes()
    assert (tmp_path / "bt.csv").read_bytes().startswith(",ø,株\nø,".encode("utf-8"))
    assert json.loads(bt_json.stdout)["methods"] == ["ø", "株"]
    # names given to run() as text, which the ASCII codec cannot encode
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", (
        "from poolmax.cli import run; raise SystemExit(run(["
        "'backtest', '--returns', 'r.csv', '--forecast', '\\u00f8=f.csv', "
        "'--forecast', '\\u682a=f.csv', '--q', '2', '--B', '20', '--format', 'json']))")],
        env=env, cwd=tmp_path, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", bt_json.stdout)
    # a NAME whose argv bytes are not UTF-8 is a usage error, before any read
    proc = poolmax("backtest", "--returns", "missing.csv", "--forecast",
                   b"\xff=missing.csv", "--format", "json")
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, b"")
    assert proc.stderr.endswith(b"error: --forecast NAME b'\\xff' is not UTF-8\n")


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


# Each subcommand's flags as the parser declared them before they were
# defined in one table: (option strings, dest, default, required, choices,
# action class), in the order of the usage line.
PARSER_FLAGS = {
    "pool-test": [
        (("--in",), "infile", None, True, None, "_StoreAction"),
        (("--out",), "out", None, False, None, "_StoreAction"),
        (("--alpha",), "alpha", 0.05, False, None, "_StoreAction"),
        (("--format",), "format", "json", False, ("json", "csv"), "_StoreAction"),
        (("--q",), "q", 49, False, None, "_StoreAction"),
        (("--d",), "d", None, False, None, "_StoreAction"),
        (("--B",), "B", 1000, False, None, "_StoreAction"),
        (("--seed",), "seed", 0, False, None, "_StoreAction"),
    ],
    "naive-test": [
        (("--in",), "infile", None, True, None, "_StoreAction"),
        (("--out",), "out", None, False, None, "_StoreAction"),
        (("--alpha",), "alpha", 0.05, False, None, "_StoreAction"),
        (("--format",), "format", "json", False, ("json", "csv"), "_StoreAction"),
    ],
    "marginal-test": [
        (("--in",), "infile", None, True, None, "_StoreAction"),
        (("--out",), "out", None, False, None, "_StoreAction"),
        (("--alpha",), "alpha", 0.05, False, None, "_StoreAction"),
        (("--format",), "format", "json", False, ("json", "csv"), "_StoreAction"),
        (("--B",), "B", 1000, False, None, "_StoreAction"),
        (("--seed",), "seed", 0, False, None, "_StoreAction"),
    ],
    "backtest": [
        (("--returns",), "returns", None, True, None, "_StoreAction"),
        (("--forecast",), "forecast", None, True, None, "_AppendAction"),
        (("--theta0",), "theta0", 0.01, False, None, "_StoreAction"),
        (("--q",), "q", 49, False, None, "_StoreAction"),
        (("--d",), "d", None, False, None, "_StoreAction"),
        (("--alpha",), "alpha", 0.05, False, None, "_StoreAction"),
        (("--B",), "B", 1000, False, None, "_StoreAction"),
        (("--seed",), "seed", 0, False, None, "_StoreAction"),
        (("--out",), "out", None, False, None, "_StoreAction"),
        (("--format",), "format", "csv", False, ("json", "csv"), "_StoreAction"),
    ],
    "taildep": [
        (("--in",), "infile", None, True, None, "_StoreAction"),
        (("--u",), "u", 0.01, False, None, "_StoreAction"),
        (("--out",), "out", None, False, None, "_StoreAction"),
    ],
    "subsets-check": [
        (("--p",), "p", None, True, None, "_StoreAction"),
        (("--q",), "q", None, True, None, "_StoreAction"),
        (("--d",), "d", None, False, None, "_StoreAction"),
        (("--seed",), "seed", 0, False, None, "_StoreAction"),
        (("--out",), "out", None, False, None, "_StoreAction"),
    ],
    "simulate": [
        (("--config",), "config", None, True, None, "_StoreAction"),
        (("--out",), "out", None, False, None, "_StoreAction"),
        (("--format",), "format", "csv", False, ("json", "csv"), "_StoreAction"),
    ],
}


def test_each_subcommand_keeps_its_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [(tuple(a.option_strings), a.dest, a.default, a.required, a.choices,
                type(a).__name__)
               for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        for name, sp in sub.choices.items()
    }
    assert got == PARSER_FLAGS
