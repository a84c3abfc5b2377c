"""Command-line entry point.

Subcommands: validate, solve, catalogue, ground, scan, verify, evolve,
example.  Exit codes: 0 success, 1 usage error, 2 numerical failure.
Reports are JSON documents embedding a run manifest; --csv writes plotting
series (x, u per edge for states; mass, status, energy for scans).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .graphs import (
    GraphError,
    MetricGraph,
    double_bridge_graph,
    example_graph,
    halfline_graph,
    line_graph,
    load_graph,
    star_graph,
)
from .mesh import MeshError
from .soliton import SolitonError, make_model
from .solve import (
    SolveConfig,
    SolveError,
    bound_state_catalogue,
    ground_state,
    minimize_on_edge,
    scan_mass_threshold,
)
from .verify import certify
from .evolve import EvolveError, check_time_grid, stability_probe

_BUILTIN = {
    "line": lambda: line_graph(),
    "halfline": lambda: halfline_graph(),
    "star": lambda: star_graph(),
    "double-bridge": lambda: double_bridge_graph(),
    "example1": lambda: example_graph(1),
    "example2": lambda: example_graph(2),
    "example3": lambda: example_graph(3),
    "example4": lambda: example_graph(4),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_graph(arg: str) -> MetricGraph:
    if arg in _BUILTIN:
        return _BUILTIN[arg]()
    path = Path(arg)
    if path.exists():
        return load_graph(path)
    if arg.lstrip().startswith("{"):
        return load_graph(arg)
    raise GraphError(f"graph {arg!r}: not a file, builtin name, or JSON document")


def _manifest(argv, args, t0) -> dict:
    return {
        "command": " ".join(argv),
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wall_time": round(time.monotonic() - t0, 3),
    }


def _emit(doc: dict, out):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _write_state_csv(path: str, u) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["edge", "x", "u"])
        for em in u.mesh.edge_meshes:
            vals = u.edge_values(em.edge_id)
            for x, v in zip(em.coords, vals):
                w.writerow([em.edge_id, repr(float(x)), repr(float(abs(v)))])


def _number_in(text: str, lo: float, hi: float, what: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (lo < x < hi):
        raise argparse.ArgumentTypeError(f"{what} {text!r} is not a number in ({lo:g}, {hi:g})")
    return x


def _mass(text: str) -> float:
    return _number_in(text, 0.0, math.inf, "mass")


def _spacing(text: str) -> float:
    return _number_in(text, 0.0, math.inf, "h")


def _tolerance(text: str) -> float:
    return _number_in(text, 0.0, math.inf, "tolerance")


def _truncation(text: str):
    return text if text == "auto" else _number_in(text, 0.0, math.inf, "truncation")


def _exponent(text: str) -> float:
    return _number_in(text, 2.0, 6.0, "p")


def _finite(text: str) -> float:
    return _number_in(text, -math.inf, math.inf, "value")


def _count(what: str, least: int = 1):
    """Parser of an integer >= ``least``, named ``what`` in its error message."""

    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            k = least - 1
        if k < least:
            raise argparse.ArgumentTypeError(f"{what} {text!r} is not an integer >= {least}")
        return k

    return parse


def _config(args) -> SolveConfig:
    return SolveConfig(
        grad_tol=args.tol,
        max_iter=args.max_iter,
        h=args.h,
        truncation=args.trunc,
    )


def _add_solver_flags(
    p: argparse.ArgumentParser, need_edge: bool = False, need_mass: bool = True
):
    p.add_argument("--graph", required=True, help="path, builtin name, or JSON document")
    if need_edge:
        p.add_argument("--edge", required=True, help="bounded edge id")
    if need_mass:
        p.add_argument("--mass", type=_mass, required=True)
    p.add_argument("--p", type=_exponent, default=4.0)
    p.add_argument("--h", type=_spacing, default=0.01)
    p.add_argument("--trunc", type=_truncation, default="auto")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--max-iter", type=_count("max-iter"), default=400)
    p.add_argument("--out", default=None, help="report destination (default stdout)")
    p.add_argument("--csv", default=None, help="write per-edge (x, u) series here")


def _cmd_validate(args, argv, t0) -> int:
    g = _resolve_graph(args.graph)
    nb = len(g.bounded_edges)
    nh = len(g.halflines)
    print(f"{nb} bounded edges, {nh} halflines")
    return 0


def _cmd_example(args, argv, t0) -> int:
    g = example_graph(args.n)
    _emit(g.to_dict(), args.out)
    return 0


def _cmd_solve(args, argv, t0) -> int:
    g = _resolve_graph(args.graph)
    g.edge(args.edge)  # unknown edge -> usage error before any work
    report = minimize_on_edge(g, args.edge, args.mass, args.p, _config(args))
    doc = report.to_dict()
    doc["manifest"] = _manifest(argv, args, t0)
    _emit(doc, args.out)
    if args.csv:
        _write_state_csv(args.csv, report.minimizer)
    return 0


def _cmd_ground(args, argv, t0) -> int:
    g = _resolve_graph(args.graph)
    report = ground_state(g, args.mass, args.p, _config(args))
    doc = report.to_dict()
    doc["manifest"] = _manifest(argv, args, t0)
    _emit(doc, args.out)
    if args.csv:
        _write_state_csv(args.csv, report.minimizer)
    return 0


def _cmd_catalogue(args, argv, t0) -> int:
    g = _resolve_graph(args.graph)
    reports = bound_state_catalogue(g, args.mass, args.p, _config(args))
    doc = {
        "entries": [r.to_dict(include_function=False) for r in reports],
        "manifest": _manifest(argv, args, t0),
    }
    _emit(doc, args.out)
    return 0


def _cmd_scan(args, argv, t0) -> int:
    g = _resolve_graph(args.graph)
    g.edge(args.edge)
    try:
        grid = [_mass(tok) for tok in args.masses.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"bad --masses list: {exc}")
    report = scan_mass_threshold(g, args.edge, args.p, grid, _config(args))
    doc = report.to_dict()
    doc["manifest"] = _manifest(argv, args, t0)
    _emit(doc, args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["mass", "status", "energy"])
            for mu, s, e in zip(report.mu_grid, report.statuses, report.energies):
                w.writerow([repr(mu), s, repr(e)])
    return 0


def _cmd_verify(args, argv, t0) -> int:
    g = _resolve_graph(args.graph)
    g.edge(args.edge)
    report = minimize_on_edge(g, args.edge, args.mass, args.p, _config(args))
    verification = certify(report, make_model(args.p))
    doc = report.to_dict(include_function=False)
    doc["verify"] = verification.to_dict()
    doc["manifest"] = _manifest(argv, args, t0)
    _emit(doc, args.out)
    return 0


def _cmd_evolve(args, argv, t0) -> int:
    g = _resolve_graph(args.graph)
    g.edge(args.edge)
    try:
        check_time_grid(args.t_final, args.dt)
    except EvolveError as exc:
        raise _UsageError(str(exc))
    report = minimize_on_edge(g, args.edge, args.mass, args.p, _config(args))
    probe = stability_probe(
        report, args.epsilon, args.t_final, args.dt, seed=args.seed, stride=args.stride
    )
    doc = report.to_dict(include_function=False)
    doc["stability"] = probe.to_dict()
    doc["manifest"] = _manifest(argv, args, t0)
    _emit(doc, args.out)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="graphnls", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("validate", help="load a graph and report its shape")
    sp.add_argument("graph", help="path, builtin name, or JSON document")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("example", help="emit a built-in example graph")
    sp.add_argument("n", type=int, choices=(1, 2, 3, 4))
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_example)

    sp = sub.add_parser("solve", help="constrained minimization on one edge")
    _add_solver_flags(sp, need_edge=True)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("ground", help="ground-state search")
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_ground)

    sp = sub.add_parser("catalogue", help="one bound state per bounded edge")
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_catalogue)

    sp = sub.add_parser("scan", help="mass-threshold scan on one edge")
    _add_solver_flags(sp, need_edge=True, need_mass=False)
    sp.add_argument("--masses", required=True, help="comma-separated increasing masses")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("verify", help="solve on one edge and certify the result")
    _add_solver_flags(sp, need_edge=True)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("evolve", help="solve on one edge, perturb, and evolve")
    _add_solver_flags(sp, need_edge=True)
    sp.add_argument("--epsilon", type=_finite, default=1e-2)
    sp.add_argument("--t-final", type=_finite, default=10.0)
    sp.add_argument("--dt", type=_finite, default=1e-3)
    sp.add_argument("--stride", type=_count("stride"), default=10)
    sp.add_argument("--seed", type=_count("seed", least=0), default=0)
    sp.set_defaults(func=_cmd_evolve)

    return p


def run(argv: list[str]) -> int:
    parser = _build_parser()
    t0 = time.monotonic()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv, t0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolveError, SolitonError, EvolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
