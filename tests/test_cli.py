import csv
import json

import numpy as np
import pytest

from graphnls.cli import _build_parser, run


def read_json(path):
    return json.loads(path.read_text())


def test_validate_builtin(capsys):
    assert run(["validate", "double-bridge"]) == 0
    out = capsys.readouterr().out
    assert "1 bounded edges, 4 halflines" in out


def test_validate_unknown_graph():
    assert run(["validate", "no-such-graph"]) == 1


def test_usage_error_missing_flags():
    assert run(["solve", "--graph", "double-bridge"]) == 1


def test_example_emits_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["example", "4", "--out", str(out)]) == 0
    doc = read_json(out)
    assert {e["id"] for e in doc["edges"]} >= {"e", "f", "g"}


def test_validate_inline_json(capsys):
    doc = json.dumps(
        {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e", "from": "a", "to": "b", "length": 1.0},
                {"id": "h1", "from": "a", "halfline": True},
                {"id": "h2", "from": "b", "halfline": True},
            ],
        }
    )
    assert run(["validate", doc]) == 0
    assert "1 bounded edges, 2 halflines" in capsys.readouterr().out


def test_solve_report_and_csv(tmp_path):
    out = tmp_path / "report.json"
    series = tmp_path / "state.csv"
    rc = run(
        [
            "solve", "--graph", "double-bridge", "--edge", "e", "--mass", "8",
            "--h", "0.02", "--trunc", "8", "--out", str(out), "--csv", str(series),
        ]
    )
    assert rc == 0
    doc = read_json(out)
    assert doc["status"] == "interior"
    assert doc["edge"] == "e"
    assert doc["lambda"] > 0
    assert "manifest" in doc and "command" in doc["manifest"]
    assert {"python", "numpy", "scipy"} <= set(doc["manifest"])
    assert doc["manifest"]["numpy"] == np.__version__
    with open(series) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["edge", "x", "u"]
    assert any(r[0] == "e" for r in rows[1:])


def test_solve_unknown_edge_is_usage_error():
    rc = run(["solve", "--graph", "double-bridge", "--edge", "zz", "--mass", "8"])
    assert rc == 1


def test_solve_numerical_failure_exit_code():
    # halfline edge requested: solver refuses, exit code 2
    rc = run(["solve", "--graph", "double-bridge", "--edge", "h1", "--mass", "8",
              "--h", "0.05", "--trunc", "5"])
    assert rc == 2


def test_ground_halfline(tmp_path):
    out = tmp_path / "g.json"
    rc = run(
        ["ground", "--graph", "halfline", "--mass", "2", "--h", "0.01", "--out", str(out)]
    )
    assert rc == 0
    doc = read_json(out)
    assert doc["ground_claim"] is True
    assert doc["energy"]["total"] == pytest.approx(-1.0 / 3.0, rel=1e-3)


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.json"
    series = tmp_path / "scan.csv"
    rc = run(
        [
            "scan", "--graph", "double-bridge", "--edge", "e",
            "--masses", "0.5,50", "--h", "0.02", "--trunc", "20",
            "--out", str(out), "--csv", str(series),
        ]
    )
    assert rc == 0
    doc = read_json(out)
    assert doc["statuses"][-1] == "interior"
    with open(series) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mass", "status", "energy"]
    assert len(rows) == 3


def test_scan_parser_defaults():
    args = _build_parser().parse_args(
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "0.5,50"]
    )
    assert args.masses == "0.5,50"
    assert not hasattr(args, "mass")
    assert (args.p, args.h, args.trunc, args.tol, args.max_iter, args.seed) == (
        4.0, 0.01, "auto", 1e-8, 400, 0
    )
    assert not hasattr(args, "jobs")
    assert (args.out, args.csv) == (None, None)


def test_scan_bad_masses_is_usage_error():
    rc = run(["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "1,zz"])
    assert rc == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "nan"],
        ["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "inf"],
        ["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "-1"],
        ["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "0"],
        ["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "8", "--p", "7"],
        ["ground", "--graph", "halfline", "--mass", "2", "--p", "2"],
        ["catalogue", "--graph", "double-bridge", "--mass", "8", "--p", "nan"],
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "0.5,nan"],
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses=-1,2"],
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "1,inf"],
    ],
)
def test_bad_mass_or_exponent_is_usage_error(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag",
    [
        ["--h", "nan"],
        ["--h", "inf"],
        ["--h", "0"],
        ["--trunc", "nan"],
        ["--trunc", "inf"],
        ["--trunc=-3"],
        ["--trunc", "far"],
        ["--tol", "nan"],
        ["--tol=-1"],
        ["--tol", "inf"],
    ],
)
def test_bad_solver_flags_are_usage_errors(monkeypatch, capsys, flag):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a usage error")

    monkeypatch.setattr("graphnls.cli.minimize_on_edge", no_solve)
    argv = ["solve", "--graph", "example3", "--edge", "e", "--mass", "10"] + flag
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_overflowing_edge_length_is_graph_error(capsys):
    doc = (
        '{"vertices": ["a", "b"], "edges": ['
        '{"id": "e", "from": "a", "to": "b", "length": 1e400},'
        '{"id": "h1", "from": "a", "halfline": true},'
        '{"id": "h2", "from": "b", "halfline": true}]}'
    )
    assert run(["solve", "--graph", doc, "--edge", "e", "--mass", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "positive finite length" in err
    assert err.count("\n") == 1


def test_verify_subcommand(tmp_path):
    out = tmp_path / "v.json"
    rc = run(
        [
            "verify", "--graph", "double-bridge", "--edge", "e", "--mass", "8",
            "--h", "0.02", "--trunc", "8", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = read_json(out)
    assert doc["verify"]["all_ok"] is True
    assert doc["verify"]["positive"] is True


def test_evolve_subcommand(tmp_path):
    out = tmp_path / "e.json"
    rc = run(
        [
            "evolve", "--graph", "double-bridge", "--edge", "e", "--mass", "8",
            "--h", "0.02", "--trunc", "8", "--epsilon", "0.01",
            "--t-final", "0.2", "--dt", "0.01", "--stride", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = read_json(out)
    assert doc["stability"]["epsilon"] == 0.01
    assert max(doc["stability"]["orbital_distances"]) < 0.1
    assert doc["stability"]["sweeps"] >= 20
    assert doc["stability"]["sweeps_max"] >= 1


@pytest.mark.parametrize(
    "flag",
    [
        ["--dt", "nan"],
        ["--dt=-inf"],
        ["--t-final", "inf"],
        ["--epsilon", "nan"],
        ["--stride", "0"],
        ["--stride", "two"],
        ["--t-final", "1e300"],
        ["--dt", "1e-300"],
        ["--dt", "0"],
        ["--t-final", "-1"],
    ],
)
def test_evolve_rejects_bad_step_flags_before_solving(monkeypatch, capsys, flag):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a usage error")

    monkeypatch.setattr("graphnls.cli.minimize_on_edge", no_solve)
    argv = ["evolve", "--graph", "double-bridge", "--edge", "e", "--mass", "8"] + flag
    assert run(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("usage error:") and "\n" not in err
