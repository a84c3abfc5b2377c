"""Package hygiene: no module imports a name it never uses, every import
sits at module level, importing the package loads only the sparse parts of
scipy, and one function forms the Euler-Lagrange residual."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphnls"
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


def grad_energy_users(source: str) -> list[str]:
    """Functions in ``source`` that read the name ``grad_energy`` (a call,
    or a reference by name or attribute), each under its innermost
    enclosing function; ``<module>`` for a read outside any function."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) == "grad_energy":
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
    assert grad_energy_users(src) == ["<module>", "g", "h"]


def test_only_residual_rows_forms_the_residual():
    # the solver's convergence norm, el_residual and kirchhoff_residual all
    # read the one row vector verify.residual_rows forms
    users = [f"{p.stem}.{name}" for p in ALL_MODULES for name in grad_energy_users(p.read_text())]
    assert users == ["verify.residual_rows"]


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
