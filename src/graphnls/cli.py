"""Command-line entry point.

Subcommands: validate, example, and the solver subcommands solve,
catalogue, ground, scan, verify and evolve.  A solver subcommand is a
function of the parsed arguments that returns its report document and its
CSV rows (None when it has none); ``run`` alone adds the run manifest,
writes the report to --out (default stdout) and the rows to --csv, and maps
errors to exit codes: 0 success, 1 usage error (bad flags, a malformed graph
document, a path that cannot be read or written), 2 numerical failure.
--csv is taken by solve, ground, verify and evolve, which write the state's
(edge, x, u) series, and by scan, which writes its (mass, status, energy)
table; catalogue has no single state and takes no --csv.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
import time
from functools import partial
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
    is_count,
    is_number,
    line_graph,
    load_graph,
    star_graph,
)
from .mesh import MeshError
from .soliton import SolitonError
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
    "line": line_graph,
    "halfline": halfline_graph,
    "star": star_graph,
    "double-bridge": double_bridge_graph,
    **{f"example{n}": partial(example_graph, n) for n in (1, 2, 3, 4)},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _graph(args) -> MetricGraph:
    """The graph ``args.graph`` names (builtin name, file path or JSON
    document), its --edge checked where the subcommand takes one: an
    unknown edge is an error before any work."""
    if args.graph in _BUILTIN:
        g = _BUILTIN[args.graph]()
    elif args.graph.lstrip().startswith("{") or Path(args.graph).exists():
        g = load_graph(args.graph)
    else:
        raise GraphError(f"graph {args.graph!r}: not a file, builtin name, or JSON document")
    if "edge" in args:
        g.edge(args.edge)
    return g


def _state_rows(u):
    """The (edge, x, u) series of a state under its header, one row per mesh node."""
    yield ["edge", "x", "u"]
    mesh = u.mesh
    for i, x, v in zip(mesh.node_edge, mesh.node_x, mesh.node_values(u.values)):
        yield [mesh.graph.edges[i].id, repr(float(x)), repr(float(abs(v)))]


def _number(what: str, lo: float = 0.0, hi: float = math.inf):
    """Parser of a number in (lo, hi), named ``what`` in its error message."""

    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not is_number(x, lo, hi):
            raise argparse.ArgumentTypeError(f"{what} {text!r} is not a number in ({lo:g}, {hi:g})")
        return x

    return parse


def _truncation(text: str):
    return text if text == "auto" else _number("truncation")(text)


def _count(what: str, least: int = 1):
    """Parser of an integer >= ``least``, named ``what`` in its error message."""

    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            k = least - 1
        if not is_count(k, least):
            raise argparse.ArgumentTypeError(f"{what} {text!r} is not an integer >= {least}")
        return k

    return parse


def _config(args) -> SolveConfig:
    return SolveConfig(grad_tol=args.tol, max_iter=args.max_iter, h=args.h, truncation=args.trunc)


def _cmd_solve(args):
    report = minimize_on_edge(_graph(args), args.edge, args.mass, args.p, _config(args))
    return report.to_dict(), _state_rows(report.minimizer)


def _cmd_ground(args):
    report = ground_state(_graph(args), args.mass, args.p, _config(args))
    return report.to_dict(), _state_rows(report.minimizer)


def _cmd_catalogue(args):
    reports = bound_state_catalogue(_graph(args), args.mass, args.p, _config(args))
    return {"entries": [r.to_dict(include_function=False) for r in reports]}, None


def _cmd_scan(args):
    g = _graph(args)
    try:
        grid = [_number("mass")(tok) for tok in args.masses.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"bad --masses list: {exc}")
    if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
        raise _UsageError(f"bad --masses list {args.masses!r}: give strictly increasing masses")
    report = scan_mass_threshold(g, args.edge, args.p, grid, _config(args))
    table = zip(report.mu_grid, report.statuses, report.energies)
    rows = [["mass", "status", "energy"]] + [[repr(mu), s, repr(e)] for mu, s, e in table]
    return report.to_dict(), rows


def _cmd_verify(args):
    report = minimize_on_edge(_graph(args), args.edge, args.mass, args.p, _config(args))
    verification = certify(report)
    doc = {**report.to_dict(include_function=False), "verify": verification.to_dict()}
    return doc, _state_rows(report.minimizer)


def _cmd_evolve(args):
    g = _graph(args)
    try:
        check_time_grid(args.t_final, args.dt)
    except EvolveError as exc:
        raise _UsageError(str(exc))
    report = minimize_on_edge(g, args.edge, args.mass, args.p, _config(args))
    probe = stability_probe(
        report, args.epsilon, args.t_final, args.dt, seed=args.seed, stride=args.stride
    )
    doc = {**report.to_dict(include_function=False), "stability": probe.to_dict()}
    return doc, _state_rows(report.minimizer)


# flags every solver subcommand takes
_SHARED = [
    ("--graph", dict(required=True, help="path, builtin name, or JSON document")),
    ("--p", dict(type=_number("p", 2.0, 6.0), default=4.0)),
    ("--h", dict(type=_number("h"), default=0.01)),
    ("--trunc", dict(type=_truncation, default="auto")),
    ("--tol", dict(type=_number("tolerance"), default=1e-8)),
    ("--max-iter", dict(type=_count("max-iter"), default=400)),
    ("--out", dict(default=None, help="report destination (default stdout)")),
]
_EDGE = ("--edge", dict(required=True, help="bounded edge id"))
_MASS = ("--mass", dict(type=_number("mass"), required=True))
_CSV = ("--csv", dict(default=None, help="write the state's (edge, x, u) series here"))
_FINITE = _number("value", -math.inf)

# subcommand: (help, handler, flags beyond the shared ones)
_SOLVERS = {
    "solve": ("constrained minimization on one edge", _cmd_solve, [_EDGE, _MASS, _CSV]),
    "ground": ("ground-state search", _cmd_ground, [_MASS, _CSV]),
    "catalogue": ("one bound state per bounded edge", _cmd_catalogue, [_MASS]),
    "scan": ("mass-threshold scan on one edge", _cmd_scan, [
        _EDGE,
        ("--masses", dict(required=True, help="comma-separated increasing masses")),
        ("--csv", dict(default=None, help="write the (mass, status, energy) table here")),
    ]),
    "verify": ("solve on one edge and certify the result", _cmd_verify, [_EDGE, _MASS, _CSV]),
    "evolve": ("solve on one edge, perturb, and evolve", _cmd_evolve, [
        _EDGE, _MASS, _CSV,
        ("--epsilon", dict(type=_FINITE, default=1e-2)),
        ("--t-final", dict(type=_FINITE, default=10.0)),
        ("--dt", dict(type=_FINITE, default=1e-3)),
        ("--stride", dict(type=_count("stride"), default=10)),
        ("--seed", dict(type=_count("seed", least=0), default=0)),
    ]),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="graphnls", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("validate", help="load a graph and report its shape")
    sp.add_argument("graph", help="path, builtin name, or JSON document")

    sp = sub.add_parser("example", help="emit a built-in example graph")
    sp.add_argument("n", type=int, choices=(1, 2, 3, 4))
    sp.add_argument("--out", default=None)

    for name, (help_text, _, flags) in _SOLVERS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in _SHARED + flags:
            sp.add_argument(flag, **kwargs)
    return p


def run(argv: list[str]) -> int:
    t0 = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        if args.subcommand == "validate":
            g = _graph(args)
            print(f"{len(g.bounded_edges)} bounded edges, {len(g.halflines)} halflines")
            return 0
        if args.subcommand == "example":
            doc, rows = example_graph(args.n).to_dict(), None
        else:
            doc, rows = _SOLVERS[args.subcommand][1](args)
            doc["manifest"] = {
                "command": " ".join(argv),
                "config": dict(sorted(vars(args).items())),
                "version": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "wall_time": round(time.monotonic() - t0, 3),
            }
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
        if rows is not None and args.csv:
            with open(args.csv, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolveError, SolitonError, EvolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
