"""Package hygiene: no module imports a name it never uses, every import
sits at module level, importing the package loads only the sparse parts of
scipy, one function forms the Euler-Lagrange residual, sparse matrices
are assembled, LAPACK called and the node table read only in ``mesh``, no
module reads a per-edge mesh record (``edge_meshes``, ``edge_mesh``), only
the twin loops of ``solve`` read ``first_twins``, numeric types are
tested only in ``graphs``, and every private function, method and class is
read."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphnls"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` that no
    expression reads (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_checker_flags_an_unused_import():
    src = "import os\nfrom typing import Optional, Union\nx: Optional[int] = None\n"
    assert unused_imports(src) == ["Union (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[str]:
    """Import statements inside a function body in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.add(f"{node.name} (line {inner.lineno})")
    return sorted(found)


def test_checker_flags_a_function_import():
    src = "import os\n\ndef f():\n    from math import pi\n    return os.sep, pi\n"
    assert function_imports(src) == ["f (line 4)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_imports(path.read_text()) == []


def name_readers(source: str, name: str) -> list[str]:
    """Functions in ``source`` that read ``name`` (a call, or a reference by
    name or attribute), each under its innermost enclosing function;
    ``<module>`` for a read outside any function."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) == name:
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_checker_flags_grad_energy_users():
    src = (
        "from . import functional as fn\nfrom .functional import grad_energy\n\n"
        "def grad_energy_free(u):\n    return u\n\n"
        "def f(u):\n    def g():\n        return fn.grad_energy(u, 4.0)\n    return g\n\n"
        "def h(u):\n    return grad_energy(u, 4.0)\n\nalias = fn.grad_energy\n"
    )
    assert name_readers(src, "grad_energy") == ["<module>", "g", "h"]


def test_only_residual_rows_forms_the_residual():
    # the solver's convergence norm, el_residual and kirchhoff_residual all
    # read the one row vector verify.residual_rows forms
    users = [
        f"{p.stem}.{name}" for p in ALL_MODULES for name in name_readers(p.read_text(), "grad_energy")
    ]
    assert users == ["verify.residual_rows"]


def test_checker_flags_edge_mesh_reads():
    src = (
        "def rows(u):\n    for em in u.mesh.edge_meshes:\n        yield em.edge_id\n\n"
        "def first(mesh):\n    return mesh.edge_meshes[0].edge_id\n\n"
        "def ends(mesh):\n    return mesh.node_edge, mesh.edge_mesh('e')\n"
    )
    assert name_readers(src, "edge_meshes") == ["first", "rows"]
    assert name_readers(src, "edge_mesh") == ["ends"]


def test_no_module_reads_edge_meshes():
    # the node table is the one per-edge layout: every per-edge read is a
    # slice of it (Mesh.edge_nodes) or a gather through it (node_values,
    # node_sum, node_edge, el_h), mesh.py included
    users = [
        f"{p.stem}.{name}"
        for p in ALL_MODULES
        for rec in ("edge_meshes", "edge_mesh")
        for name in name_readers(p.read_text(), rec)
    ]
    assert users == []


def test_checker_flags_first_twins_reads():
    src = (
        "from . import graphs\nfrom .graphs import first_twins\n\n"
        "def catalogue(g):\n    return [e for e in g.edges if first_twins(g)[e.id] == e.id]\n\n"
        "def ground(g):\n    first = graphs.first_twins(g)\n    return first\n\n"
        "def starts(g):\n    return g.halflines\n"
    )
    assert name_readers(src, "first_twins") == ["catalogue", "ground"]


def test_only_the_twin_loops_read_first_twins():
    # one loop solves the first edge of each twin class and mirrors the
    # rest, for the catalogue and the ground search alike; the halfline
    # starts skip twin halflines
    users = [
        f"{p.stem}.{name}" for p in ALL_MODULES for name in name_readers(p.read_text(), "first_twins")
    ]
    assert users == ["solve._edge_reports", "solve._halfline_starts"]


# the ways to build a sparse matrix other than filling the mesh's stencil
# pattern: a COO assembly, a format conversion, a diagonal matrix
ASSEMBLY_NAMES = ("coo_matrix", "tocsr", "tocsc", "diags")


def assembly_uses(source: str) -> list[str]:
    """``name (line n)`` for every import, name or attribute in ``source``
    that is one of ``ASSEMBLY_NAMES``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ASSEMBLY_NAMES:
            found.add(f"{name} (line {node.lineno})")
    return sorted(found)


def test_checker_flags_assembly_outside_the_pattern():
    src = (
        "import scipy.sparse as sp\nfrom scipy.sparse import coo_matrix\n\n"
        "def f(M, K, g):\n    A = (K + M).tocsc()\n    B = sp.diags(g)\n"
        "    return A, B, coo_matrix(B).tocsr(), M.tocoo(), sp.csc_matrix(A)\n"
    )
    assert assembly_uses(src) == [
        "coo_matrix (line 2)", "coo_matrix (line 7)", "diags (line 6)",
        "tocsc (line 5)", "tocsr (line 7)",
    ]


def test_only_mesh_assembles_sparse_matrices():
    # every matrix outside mesh.py is a sum of .data arrays on the stencil
    # pattern, wrapped by Mesh.stencil_matrix
    uses = {p.stem: assembly_uses(p.read_text()) for p in ALL_MODULES if p.name != "mesh.py"}
    assert {stem: found for stem, found in uses.items() if found} == {}


def lapack_uses(source: str) -> list[str]:
    """``what (line n)`` for every import of ``scipy.linalg`` or a module
    under it, and every name or attribute ``get_lapack_funcs``, in
    ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{a.name}" for a in node.names]
        else:
            modules = []
        if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
            found.add(f"import scipy.linalg (line {node.lineno})")
        if getattr(node, "id", getattr(node, "attr", None)) == "get_lapack_funcs":
            found.add(f"get_lapack_funcs (line {node.lineno})")
    return sorted(found)


def test_checker_flags_a_lapack_call():
    src = (
        "import scipy\nimport scipy.linalg as la\nfrom scipy import linalg\n"
        "from scipy.sparse.linalg import splu\nfrom scipy.linalg.lapack import dpttrf\n\n"
        "def f(d, e):\n    return scipy.linalg.get_lapack_funcs(('pttrf',))[0](d, e), splu\n"
    )
    assert lapack_uses(src) == [
        "get_lapack_funcs (line 8)", "import scipy.linalg (line 2)",
        "import scipy.linalg (line 3)", "import scipy.linalg (line 5)",
    ]


def test_only_mesh_calls_lapack():
    # the chain factorization, and the choice between LDL^T and pivoted LU,
    # live in Mesh.factor; every other module solves through it or SuperLU
    uses = {p.stem: lapack_uses(p.read_text()) for p in ALL_MODULES if p.name != "mesh.py"}
    assert {stem: found for stem, found in uses.items() if found} == {}


def node_dof_reads(source: str) -> list[str]:
    """``line n`` for every read of a ``node_dof`` attribute in ``source``."""
    return sorted(
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "node_dof"
    )


def test_checker_flags_a_node_dof_read():
    src = (
        "import numpy as np\n\ndef f(mesh, v, on):\n"
        "    w = np.append(v, 0.0)[mesh.node_dof]\n"
        "    return np.bincount(mesh.node_dof[on], w[on], mesh.ndof + 1), mesh.node_values(v)\n"
    )
    assert node_dof_reads(src) == ["line 4", "line 5"]


def test_only_mesh_reads_the_node_dof_table():
    # the node table holds the fixed zero at a truncated halfline end as dof
    # ndof; outside mesh.py it is read through Mesh.node_values and node_sum
    reads = {p.stem: node_dof_reads(p.read_text()) for p in ALL_MODULES if p.name != "mesh.py"}
    assert {stem: found for stem, found in reads.items() if found} == {}


def numeric_type_tests(source: str) -> list[str]:
    """``what (line n)`` for every ``isinstance(_, bool)`` call and every
    import of ``numbers`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(k, "id", None) == "bool" for k in kinds):
                found.append(f"isinstance bool (line {node.lineno})")
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if "numbers" in names or (isinstance(node, ast.ImportFrom) and node.module == "numbers"):
            found.append(f"import numbers (line {node.lineno})")
    return sorted(found)


def test_checker_flags_numeric_type_tests():
    src = (
        "import numbers\nfrom numbers import Real\n\n"
        "def f(x, n):\n    a = isinstance(x, bool) or isinstance(n, (int, bool))\n"
        "    return a, isinstance(x, numbers.Real), isinstance(n, int)\n"
    )
    assert numeric_type_tests(src) == [
        "import numbers (line 1)", "import numbers (line 2)",
        "isinstance bool (line 5)", "isinstance bool (line 5)",
    ]


def test_only_graphs_tests_numeric_types():
    # every numeric input check goes through graphs.is_number and is_count,
    # so a bool is refused as a number or a count by one rule
    uses = {p.stem: numeric_type_tests(p.read_text()) for p in ALL_MODULES if p.name != "graphs.py"}
    assert {stem: found for stem, found in uses.items() if found} == {}


def unread_private_defs(sources: list[str]) -> list[str]:
    """``name (line n)`` for every function, method or class in ``sources``
    named with a leading underscore (dunders excepted) that no name or
    attribute in ``sources`` reads outside a definition of that name."""
    defs, reads = [], set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defs.append(f"{name} (line {node.lineno})")
            enclosing = enclosing | {name}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name not in enclosing:
                reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return sorted(d for d in defs if d.split()[0] not in reads)


def test_checker_flags_an_unread_private_def():
    src = (
        "class _Used:\n    def _method(self):\n        return self._other()\n\n"
        "    def _other(self):\n        return 1\n\n    def __repr__(self):\n        return ''\n\n"
        "    def _unread(self):\n        return self._unread()\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _Used()._method()\n\n"
        "def public():\n    return _helper\n"
    )
    other = "def _helper():\n    return 0\n\nclass _Gone:\n    pass\n"
    assert unread_private_defs([src, other]) == [
        "_Gone (line 4)", "_recursive (line 14)", "_unread (line 11)",
    ]


def test_every_private_def_is_read():
    # a helper whose last caller goes is deleted with it
    assert unread_private_defs([p.read_text() for p in ALL_MODULES]) == []


def test_import_loads_no_scipy_quadrature_optimize_or_special():
    code = (
        "import sys, graphnls, graphnls.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'integrate'], ['scipy', 'optimize'], ['scipy', 'special'])))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def load_tracer():
    """The benchmark's tracer module, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # the traced benchmark run patches these names and fails on a missing one
    tracer = load_tracer()
    wrapped = [(module, attr) for module, attr, *_ in tracer._WRAPPED]
    wrapped.append(("graphnls.evolve", "splu"))
    missing = [f"{m}.{a}" for m, a in wrapped if not hasattr(importlib.import_module(m), a)]
    assert missing == []
    assert callable(importlib.import_module("graphnls.mesh").Mesh._assemble)


def test_the_benchmark_tracer_counts_a_traced_run():
    # a traced run reads the step count at index 3 of what _descend returns
    # and the CN steps from what evolve returns, then restores every name
    evolve, graphs, mesh, solve = (
        importlib.import_module(f"graphnls.{m}") for m in ("evolve", "graphs", "mesh", "solve")
    )
    tracer = load_tracer()
    patched = [(importlib.import_module(m), a) for m, a, *_ in tracer._WRAPPED]
    patched += [(evolve, "splu"), (mesh.Mesh, "_assemble")]
    originals = [getattr(owner, attr) for owner, attr in patched]
    cfg = solve.SolveConfig(h=0.05, truncation=5.0)
    t = tracer.Tracer()
    t.install()
    try:
        edge = solve.minimize_on_edge(graphs.double_bridge_graph(1.0), "e", 8.0, 4.0, cfg)
        free = solve.ground_state(graphs.halfline_graph(), 2.0, 4.0, cfg)
        probe = evolve.stability_probe(edge, epsilon=0.01, t_final=0.1, dt=0.01)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["solve.pgd_steps"] == edge.iterations + free.iterations
    assert metrics["evolve.cn_steps"] == 10
    # every sweep and each step's predictor solve goes through the traced
    # evolve.splu factors; a factorization that bypassed it would count 0
    assert metrics["evolve.fp_sweeps"] == probe.sweeps + 10
    assert all(getattr(o, a) is f for (o, a), f in zip(patched, originals))
