import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphnls.cli import _build_parser, run
from graphnls.graphs import double_bridge_graph
from graphnls.solve import SolveConfig, minimize_on_edge

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_solve_numerical_failure_exit_code(capsys):
    # halfline edge requested: solver refuses, exit code 2
    rc = run(["solve", "--graph", "double-bridge", "--edge", "h1", "--mass", "8",
              "--h", "0.05", "--trunc", "5"])
    assert rc == 2
    # the scan refuses it the same way, before any solve
    capsys.readouterr()
    rc = run(["scan", "--graph", "double-bridge", "--edge", "h1", "--masses", "1,2",
              "--h", "0.02", "--trunc", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: edge 'h1' is a halfline") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "1e200"],
        ["ground", "--graph", "double-bridge", "--mass", "1e200"],
        ["verify", "--graph", "double-bridge", "--edge", "e", "--mass", "1e200"],
        ["catalogue", "--graph", "double-bridge", "--mass", "1e200"],
        [
            "solve", "--graph", "double-bridge", "--edge", "e", "--mass", "1e-200",
            "--h", "0.02", "--trunc", "20",
        ],
    ],
)
def test_huge_mass_is_a_numerical_failure_with_one_line(argv, capsys):
    # the line multiplier (mu / 4)^2 of mass 1e200 overflows a float at p = 4,
    # and that of mass 1e-200 underflows to 0
    assert run(argv) == 2
    mass = float(argv[argv.index("--mass") + 1])
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: mass {mass:g}") and err.count("\n") == 1


def test_a_halfline_too_long_for_h_is_an_error_with_one_line(capsys):
    # the "auto" truncation of mass 1e-100 at p = 4 is 3.2e101
    assert run(["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "1e-100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a halfline truncated at") and err.count("\n") == 1


def test_ground_halfline(tmp_path):
    out = tmp_path / "g.json"
    rc = run(
        ["ground", "--graph", "halfline", "--mass", "2", "--h", "0.01", "--out", str(out)]
    )
    assert rc == 0
    doc = read_json(out)
    assert doc["ground_claim"] is True
    assert doc["energy"]["total"] == pytest.approx(-1.0 / 3.0, rel=1e-3)


def test_catalogue_one_entry_per_bounded_edge(tmp_path):
    out = tmp_path / "catalogue.json"
    rc = run(
        ["catalogue", "--graph", "double-bridge", "--mass", "8", "--h", "0.05",
         "--trunc", "5", "--out", str(out)]
    )
    assert rc == 0
    doc = read_json(out)
    assert [entry["edge"] for entry in doc["entries"]] == ["e"]
    assert all("minimizer" not in entry for entry in doc["entries"])
    assert "command" in doc["manifest"]


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
    assert doc["reasons"] == [None, None]
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
    assert (args.p, args.h, args.trunc, args.tol, args.max_iter) == (
        4.0, 0.01, "auto", 1e-8, 400
    )
    assert not hasattr(args, "jobs")
    assert not hasattr(args, "seed")
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
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses", ","],
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "2,1"],
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "1,1"],
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
        ["--max-iter", "0"],
        ["--max-iter=-3"],
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


@pytest.mark.parametrize(
    "doc",
    [
        '{"vertices": ["a"], "edges": [{"id": "e", "from": "a", "to": "a", "length": true},'
        ' {"id": "h", "from": "a", "halfline": true}]}',
        '{"vertices": ["a"], "edges": [{"id": "h", "from": "a", "halfline": true, "length": 3}]}',
        '{"vertices": ["a", "a"], "edges": [{"id": "h", "from": "a", "halfline": true}]}',
        '{"vertices": ["a", "b"], "edges": [{"id": "h", "from": "a", "to": "b", "halfline": "false"},'
        ' {"id": "e", "from": "a", "to": "b", "length": 1}]}',
        '{"vertices": ["a"], "edges": [{"id": "h", "from": "a", "halfline": 1}]}',
        '{"vertices": ["a"], "edges": [{"id": "e", "from": "a", "to": "a", "length": "1.5"},'
        ' {"id": "h", "from": "a", "halfline": true}]}',
        '{"vertices": ["a", "b"], "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0},'
        ' {"id": "h", "from": "a", "to": "b", "halfline": true}]}',
    ],
    ids=[
        "boolean-length", "halfline-length", "repeated-vertex",
        "string-halfline-flag", "integer-halfline-flag", "string-length", "halfline-to",
    ],
)
def test_validate_rejects_malformed_documents_with_one_line(doc, capsys):
    assert run(["validate", doc]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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
    # at the defaults (h 0.01, trunc auto = 20) the tail underflows far below
    # any relative floor, and the interior state is still positive
    out = tmp_path / "e1.json"
    rc = run(["verify", "--graph", "example1", "--edge", "e1", "--mass", "16", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["status"] == "interior"
    assert doc["verify"]["all_ok"] is True


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
    # the probe steps in the frame that rotates at the solved multiplier
    assert doc["stability"]["omega"] == doc["lambda"]
    assert max(doc["stability"]["orbital_distances"]) < 0.1
    assert doc["stability"]["sweeps"] >= 20
    assert doc["stability"]["sweeps_max"] >= 1


def test_evolve_refuses_an_unconverged_state(capsys):
    # Example 1's edge e1 at mass 80 and h 0.02 stops short of tolerance,
    # and a probe of a state that is no bound state would show nothing
    argv = [
        "evolve", "--graph", "example1", "--edge", "e1", "--mass", "80", "--h", "0.02",
        "--t-final", "0.01", "--dt", "0.001",
    ]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "numerical failure: cannot probe a state that did not converge "
        "(status 'not-converged')\n"
    )


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
        ["--seed=-1"],
        ["--seed", "1.5"],
        ["--t-final", "0.15", "--dt", "0.1"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["ground", "--graph", "halfline", "--mass", "2", "--seed", "1"],
        ["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "8", "--seed", "1"],
    ],
)
def test_seed_is_an_evolve_flag_only(argv, capsys):
    # only the probe's perturbation is seeded; the solvers take no seed
    evolve = ["evolve", "--graph", "double-bridge", "--edge", "e", "--mass", "8"]
    assert _build_parser().parse_args(evolve).seed == 0
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--seed" in err


def _malformed_inputs(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    missing = str(tmp_path / "no-such-dir" / "x")
    return [
        ["validate", '{"vertices":["a"],"edges":[5]}'],
        ["validate", '{"vertices":["a"],"edges":5}'],
        ["validate", '{"vertices":["a"],"edges":[{"id":"e","from":"a","to":"a","length":"abc"}]}'],
        ["validate", '{"vertices":["a"],"edges":[{"id":"e","from":"a","to":"a","length":null}]}'],
        ["validate", str(tmp_path)],
        ["validate", str(binary)],
        ["example", "1", "--out", missing],
        ["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "50", "--h", "0.05",
         "--trunc", "5", "--out", str(tmp_path / "s.json"), "--csv", missing],
        # 1e202 elements of h = 0.01 on edge e
        ["solve", "--graph", '{"vertices": ["a", "b"], "edges": [{"id": "e", "from": "a", '
         '"to": "b", "length": 1e200}, {"id": "h1", "from": "a", "halfline": true}]}',
         "--edge", "e", "--mass", "8", "--h", "0.01", "--trunc", "5"],
    ]


def test_malformed_graphs_and_unwritable_paths_exit_1_with_one_line(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv in _malformed_inputs(tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "graphnls.cli", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1, argv
        assert "Traceback" not in proc.stderr, argv
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, argv


@pytest.mark.parametrize(
    "argv, header",
    [
        (["solve", "--graph", "double-bridge", "--edge", "e", "--mass", "8"], ["edge", "x", "u"]),
        (["ground", "--graph", "halfline", "--mass", "2"], ["edge", "x", "u"]),
        (["verify", "--graph", "double-bridge", "--edge", "e", "--mass", "8"], ["edge", "x", "u"]),
        (["evolve", "--graph", "double-bridge", "--edge", "e", "--mass", "8",
          "--t-final", "0.02", "--dt", "0.01"], ["edge", "x", "u"]),
        (["scan", "--graph", "double-bridge", "--edge", "e", "--masses", "50"],
         ["mass", "status", "energy"]),
    ],
    ids=["solve", "ground", "verify", "evolve", "scan"],
)
def test_csv_is_written_by_every_subcommand_that_takes_it(tmp_path, argv, header):
    series = tmp_path / "out.csv"
    coarse = ["--h", "0.05", "--trunc", "5", "--out", str(tmp_path / "r.json")]
    assert run(argv + coarse + ["--csv", str(series)]) == 0
    with open(series) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header and len(rows) > 1


def test_catalogue_takes_no_csv(tmp_path, capsys):
    argv = ["catalogue", "--graph", "double-bridge", "--mass", "8", "--csv", str(tmp_path / "c")]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "c").exists()


def test_verify_document_is_the_solve_report_plus_certificates(tmp_path):
    out = tmp_path / "v.json"
    flags = ["--h", "0.05", "--trunc", "5", "--out", str(out)]
    assert run(["verify", "--graph", "double-bridge", "--edge", "e", "--mass", "8"] + flags) == 0
    doc = read_json(out)
    assert {"verify", "manifest"} <= set(doc)
    rest = {k: v for k, v in doc.items() if k not in ("verify", "manifest")}
    cfg = SolveConfig(h=0.05, truncation=5.0)
    report = minimize_on_edge(double_bridge_graph(), "e", 8.0, 4.0, cfg)
    assert rest == json.loads(json.dumps(report.to_dict(include_function=False)))
