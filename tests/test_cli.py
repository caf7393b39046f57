import json

import numpy as np
import pytest

from poolmax.cli import EXIT_DATA, EXIT_DEGENERATE, EXIT_USAGE, ingest_panel, run
from poolmax.errors import DataError, ParseError, RaggedRowsError


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
    with pytest.raises(DataError):
        ingest_panel(p)


def test_ingest_ragged(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(RaggedRowsError) as exc:
        ingest_panel(p)
    assert exc.value.line == 3


def test_ingest_parse_error(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("a,b\n1,x\n")
    with pytest.raises(ParseError):
        ingest_panel(p)


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


def test_simulate_command(tmp_path):
    cfg = {
        "model": "B1", "n": 60, "p": 9, "p0": 2, "under_null": True,
        "seed": 3, "q_grid": [2], "d_grid": [18], "alpha": 0.1,
        "B": 20, "mc_reps": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("model,q,d,method")
    assert len(lines) == 4


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
