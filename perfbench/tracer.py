"""Outside-in span tracing of the graphnls layers.

The tracer wraps functions of the package modules from the outside: it
replaces attributes of ``sys.modules["graphnls.<module>"]`` (and the names
that ``from ... import`` bound into ``graphnls.solve`` and
``graphnls.evolve``) with timing wrappers, and puts the originals back on
``uninstall``.  Nothing in the package changes when tracing is off.

Each call becomes a span ``[name, parent, thread, start, end, info]``.
The parent is the innermost open span on the same thread, kept on a
per-thread stack, so spans stay correct when the library runs work on a
thread pool (a worker thread's outermost span has no parent).  Spans are
kept in memory and written out by the caller at the end of the run.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, PARENT, THREAD, START, END, INFO = range(6)

# (module, attribute, span name, info extractor or None)
_WRAPPED = (
    ("graphnls.mesh", "build_mesh", "mesh.build", lambda r: r.ndof),
    ("graphnls.solve", "build_mesh", "mesh.build", lambda r: r.ndof),
    ("graphnls.solve", "ground_state", "solve.ground_state", None),
    ("graphnls.solve", "bound_state_catalogue", "solve.catalogue", None),
    ("graphnls.solve", "scan_mass_threshold", "solve.scan", None),
    ("graphnls.solve", "minimize_on_edge", "solve.minimize_on_edge", None),
    ("graphnls.solve", "_descend", "solve.descend", lambda r: r[3]),
    ("graphnls.solve", "_newton_refine", "solve.newton", lambda r: bool(r[3])),
    ("graphnls.solve", "_pinned_newton", "solve.pinned_newton", None),
    ("graphnls.solve", "_equilibrate_translation", "solve.equilibrate", None),
    ("graphnls.solve", "splu", "solve.splu", lambda r: int(r.nnz)),
    ("graphnls.solve", "compact_competitor", "soliton.competitor", None),
    ("graphnls.functional", "nonlinear_term", "functional.nonlinear_term", None),
    ("graphnls.functional", "nonlinear_jacobian", "functional.nonlinear_jacobian", None),
    ("graphnls.functional", "energy", "functional.energy", None),
    ("graphnls.verify", "el_residual", "verify.residual", None),
    ("graphnls.verify", "kirchhoff_residual", "verify.residual", None),
    ("graphnls.evolve", "stability_probe", "evolve.stability_probe", None),
    ("graphnls.evolve", "evolve", "evolve.evolve", lambda r: len(r.times) - 1),
    ("graphnls.evolve", "orbital_distance", "evolve.orbital_distance", None),
)

BORDERED_PARENTS = ("solve.newton", "solve.pinned_newton")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][NAME] if stack else None

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, stack[-1] if stack else -1, threading.get_ident(), 0.0, 0.0, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()

    def call(self, name, fn, args, kwargs, info=None):
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if info is not None:
            rec[INFO] = info(result)
        return result

    @contextmanager
    def span(self, name: str):
        """A harness-level span around a block."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrapper(self, name, fn, info):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, name, info in _WRAPPED:
            owner = sys.modules[module]
            self._patch(owner, attr, self._wrapper(name, getattr(owner, attr), info))

        mesh_cls = sys.modules["graphnls.mesh"].Mesh
        assemble = mesh_cls._assemble
        self._patch(mesh_cls, "_assemble",
                    lambda mesh: self.call("mesh.assemble", assemble, (mesh,), {}))

        # the Crank-Nicolson factorization is made once per evolve; its
        # per-sweep .solve calls are what cost time, so hand out a proxy
        evolve_mod = sys.modules["graphnls.evolve"]
        splu = evolve_mod.splu

        def traced_splu(*args, **kwargs):
            lu = self.call("evolve.splu", splu, args, kwargs)
            return _TimedLU(lu, self) if self.parent_name() == "evolve.evolve" else lu

        self._patch(evolve_mod, "splu", traced_splu)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TimedLU:
    """SuperLU stand-in whose ``solve`` is recorded as ``evolve.lu_solve``."""

    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("evolve.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# -- per-layer metrics ----------------------------------------------------

# per-layer metrics in report order; counts repeat exactly between runs
# at one seed, times (self time, seconds) do not
PER_LAYER = (
    ("solve.bordered_factor_calls", "count"), ("solve.bordered_factor_s", "s"),
    ("solve.bordered_fill_nnz", "count"),
    ("solve.pinned_newton_calls", "count"), ("solve.pinned_newton_s", "s"),
    ("solve.equilibrate_calls", "count"), ("solve.equilibrate_s", "s"),
    ("solve.newton_calls", "count"), ("solve.newton_s", "s"),
    ("solve.newton_ok_ratio", "ratio"),
    ("solve.precond_factor_calls", "count"), ("solve.precond_factor_s", "s"),
    ("solve.descend_calls", "count"), ("solve.pgd_steps", "count"),
    ("solve.pgd_self_s", "s"), ("solve.restarts", "count"),
    ("functional.nonlinear_term_calls", "count"), ("functional.nonlinear_term_s", "s"),
    ("functional.nonlinear_jacobian_calls", "count"),
    ("functional.nonlinear_jacobian_s", "s"),
    ("functional.energy_calls", "count"), ("functional.energy_s", "s"),
    ("soliton.competitor_calls", "count"), ("soliton.competitor_s", "s"),
    ("mesh.build_calls", "count"), ("mesh.build_s", "s"),
    ("mesh.assemble_calls", "count"), ("mesh.assemble_s", "s"), ("mesh.ndof", "count"),
    ("verify.residual_calls", "count"), ("verify.residual_s", "s"),
    ("evolve.cn_steps", "count"), ("evolve.fp_sweeps", "count"),
    ("evolve.lu_solve_s", "s"), ("evolve.orbital_distance_s", "s"),
    ("evolve.evolve_s", "s"),
)


def _kind(spans: list[list], s: list) -> str:
    """Span name, with factorizations named after what they factor: the
    bordered Newton system or the descent preconditioner."""
    if s[NAME] != "solve.splu":
        return s[NAME]
    parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
    if parent in BORDERED_PARENTS:
        return "solve.bordered_factor"
    return "solve.precond_factor" if parent == "solve.descend" else "solve.other_factor"


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children run on their parent's thread and one after another, so their
    intervals never overlap and the subtraction is exact."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_by_kind(spans: list[list]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        totals[_kind(spans, s)] += own[i]
    return dict(totals)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times (seconds) of one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    m: dict[str, int] = defaultdict(int)
    for s in spans:
        kind = _kind(spans, s)
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        calls[kind] += 1
        if kind == "solve.bordered_factor":
            m["fill"] += s[INFO] or 0
        elif kind == "solve.newton" and s[INFO]:
            m["newton_ok"] += 1
        elif kind == "solve.descend":
            m["pgd_steps"] += s[INFO] or 0
            m["constrained_descents"] += parent == "solve.minimize_on_edge"
        elif kind == "mesh.build":
            m["ndof"] += s[INFO] or 0
        elif kind == "evolve.evolve":
            m["cn_steps"] += s[INFO] or 0
        elif kind == "evolve.lu_solve":
            m["fp_sweeps"] += parent == "evolve.evolve"
    secs = defaultdict(float, self_time_by_kind(spans))

    out = {
        "solve.bordered_fill_nnz": m["fill"],
        "solve.newton_ok_ratio": (m["newton_ok"] / calls["solve.newton"]
                                  if calls["solve.newton"] else 0.0),
        "solve.pgd_steps": m["pgd_steps"],
        "solve.pgd_self_s": secs["solve.descend"],
        # every constrained solve makes one descent; further ones are restarts
        "solve.restarts": m["constrained_descents"] - calls["solve.minimize_on_edge"],
        "mesh.ndof": m["ndof"],
        "evolve.cn_steps": m["cn_steps"],
        "evolve.fp_sweeps": m["fp_sweeps"],
        "evolve.evolve_s": secs["evolve.evolve"],
    }
    for kind in ("solve.bordered_factor", "solve.pinned_newton", "solve.equilibrate",
                 "solve.newton", "solve.precond_factor",
                 "functional.nonlinear_term", "functional.nonlinear_jacobian",
                 "functional.energy", "soliton.competitor", "verify.residual"):
        out[f"{kind}_calls"] = calls[kind]
        out[f"{kind}_s"] = secs[kind]
    out["solve.descend_calls"] = calls["solve.descend"]
    out["mesh.build_calls"] = calls["mesh.build"]
    out["mesh.build_s"] = secs["mesh.build"]
    out["mesh.assemble_calls"] = calls["mesh.assemble"]
    out["mesh.assemble_s"] = secs["mesh.assemble"]
    out["evolve.lu_solve_s"] = secs["evolve.lu_solve"]
    out["evolve.orbital_distance_s"] = secs["evolve.orbital_distance"]
    return {name: out[name] for name, _ in PER_LAYER}


def counts_under(spans: list[list], root_name: str) -> list[dict[str, int]]:
    """Calls per span kind below each span called ``root_name``, one dict per
    such span in call order (children on the same thread only)."""
    root_of: list[int] = []
    out: dict[int, dict[str, int]] = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[NAME] == root_name:
            root_of.append(i)
            out[i] = {}
        else:
            root = root_of[p] if p >= 0 else -1
            root_of.append(root)
            if root >= 0:
                kind = _kind(spans, s)
                out[root][kind] = out[root].get(kind, 0) + 1
    return [out[i] for i in sorted(out)]
