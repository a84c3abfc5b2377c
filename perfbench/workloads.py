"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one pass
through the library API (``run``), and checks the outputs of that pass
(``check``).  Library functions are looked up in ``sys.modules`` at call
time, so the tracer's wrappers are seen when tracing is on.

An operation is one returned state (one ground state, one catalogue
entry, one scan mass) or one stability probe.  It fails when it returns
``not-converged``, raises ``SolveError`` / ``EvolveError``, or fails an
output check.  Non-interior statuses are not pinned: only the checks
below and the reference values of interior states are.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

import graphnls
from graphnls.evolve import EvolveError
from graphnls.solve import SolveConfig, SolveError

P = 4.0
JOBS = 2
REF_RTOL = 1e-6          # interior energies and multipliers against the reference
LEVEL_RTOL = 1e-3        # ground energies against the analytic levels
RESIDUAL_TOL = 1e-4      # catalogue EL and Kirchhoff residuals
SCAN_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


def _solve():
    return sys.modules["graphnls.solve"]


def _evolve():
    return sys.modules["graphnls.evolve"]


def _mesh_for(g, mu, cfg):
    """The mesh the solver builds for (g, mu, cfg), with assembly forced."""
    lam = graphnls.make_model(P).lambda_for_mass(mu)
    mesh = graphnls.build_mesh(g, cfg.h, trunc=cfg.truncation, lambda_est=lam)
    mesh.mass_matrix
    return mesh


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)   # failed output checks
    states: int = 0          # states returned with a status other than not-converged
    cn_steps: int = 0
    energy_rel_err: float | None = None

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _against_reference(label, values, reference, out: Outcome) -> bool:
    """Compare an interior state's values with the recorded reference."""
    ref = reference.get(label)
    if ref is None:
        out.problems.append(f"{label}: no reference value")
        return False
    ok = True
    for key, v in values.items():
        if _rel(v, ref[key]) > REF_RTOL:
            out.problems.append(f"{label}: {key} {v!r} differs from reference {ref[key]!r}")
            ok = False
    return ok


class GroundHalflineEx3:
    """Two ground-state searches.  The cost of a search depends strongly on
    its random starts (halfline: 0.04 s to 23 s over start seeds 0-9, with
    the same energies to 1e-8), so the timed starts are fixed and the
    benchmark seed does not reach them; ``start_seed`` varies them for the
    self-test."""

    name = "ground-halfline-ex3"

    def __init__(self, start_seed: int = 0):
        self.start_seed = start_seed

    def setup(self, seed):
        cases = []
        model = graphnls.make_model(P)
        for label, g, mu, trunc in (
            ("halfline", graphnls.halfline_graph(), 2.0, "auto"),
            ("ex3", graphnls.example_graph(3), 10.0, 6.0),
        ):
            cfg = SolveConfig(h=0.01, truncation=trunc, seed=self.start_seed)
            line, half = graphnls.energy_levels(model, mu)
            level = half if label == "halfline" else line
            cases.append((label, g, mu, cfg, line, half, level, _mesh_for(g, mu, cfg)))
        return cases

    def run(self, cases):
        out = []
        for label, g, mu, cfg, *_ in cases:
            try:
                out.append(_solve().ground_state(g, mu, P, cfg))
            except SolveError:
                out.append(None)
        return out

    def values(self, cases, reports):
        return {c[0]: {"energy": r.energy.total, "lam": float(r.lam)}
                for c, r in zip(cases, reports) if r is not None and r.status == "interior"}

    def check(self, cases, reports, reference):
        out = Outcome()
        vals = self.values(cases, reports)
        errs = []
        for (label, g, mu, cfg, line, half, level, _), rep in zip(cases, reports):
            if rep is None or rep.status == "not-converged":
                out.problems.append(f"{label}: no converged ground state")
                out.op(False)
                continue
            out.states += 1
            e = rep.energy.total
            tol = LEVEL_RTOL * abs(line)
            ok = half - tol <= e <= line + tol
            if not ok:
                out.problems.append(f"{label}: E={e!r} outside the sandwich [{half}, {line}]")
            err = _rel(e, level)
            errs.append(err)
            if err > LEVEL_RTOL:
                out.problems.append(f"{label}: E={e!r} off the analytic level {level!r}")
                ok = False
            if label in vals:
                ok = _against_reference(label, vals[label], reference, out) and ok
            out.op(ok)
        out.energy_rel_err = max(errs) if errs else None
        return out


class CatalogueEx1:
    name = "catalogue-ex1"

    def setup(self, seed):
        g = graphnls.example_graph(1)
        cfg = SolveConfig(h=0.02, truncation=2.0)
        return g, cfg, _mesh_for(g, 50.0, cfg)

    def run(self, inputs):
        g, cfg, _ = inputs
        return _solve().bound_state_catalogue(g, 50.0, P, cfg, jobs=JOBS)

    def values(self, inputs, reports):
        return {r.edge: {"energy": r.energy.total, "lam": float(r.lam)}
                for r in reports if r.status == "interior"}

    def check(self, inputs, reports, reference):
        out = Outcome()
        g = inputs[0]
        if len(reports) != len(g.bounded_edges):
            out.problems.append(f"{len(reports)} states for {len(g.bounded_edges)} bounded edges")
        vals = self.values(inputs, reports)
        for r in reports:
            out.states += r.status != "not-converged"
            bad = [
                what for what, ok in (
                    ("status " + r.status, r.status == "interior"),
                    ("lam <= 0", r.lam > 0),
                    ("min u <= 0", float(np.min(np.real(r.minimizer.values))) > 0),
                    ("margin <= 0", r.localization_margin > 0),
                    ("EL residual", r.el_residual < RESIDUAL_TOL),
                    ("Kirchhoff residual", r.kirchhoff_residual < RESIDUAL_TOL),
                ) if not ok
            ]
            out.problems += [f"edge {r.edge}: {what}" for what in bad]
            ok = not bad
            if r.edge in vals:
                ok = _against_reference(r.edge, vals[r.edge], reference, out) and ok
            out.op(ok)
        return out


class ProbeEx3:
    name = "probe-ex3"
    T_FINAL = 2.0
    DT = 1e-3

    def setup(self, seed):
        g = graphnls.example_graph(3)
        cfg = SolveConfig(h=0.01, truncation=6.0)
        mesh = _mesh_for(g, 10.0, cfg)
        state = graphnls.minimize_on_edge(g, "e", 10.0, P, cfg, mesh=mesh)
        return state, seed

    def run(self, inputs):
        state, seed = inputs
        try:
            return _evolve().stability_probe(
                state, epsilon=1e-2, t_final=self.T_FINAL, dt=self.DT,
                seed=seed, fp_tol=1e-12, stride=20,
            )
        except EvolveError:
            return None

    def values(self, inputs, probe):
        state = inputs[0]
        if state.status != "interior":
            return {}
        return {"state": {"energy": state.energy.total, "lam": float(state.lam)}}

    def check(self, inputs, probe, reference):
        out = Outcome()
        vals = self.values(inputs, probe)
        if not vals:
            out.problems.append(f"probed state has status {inputs[0].status}")
        else:
            _against_reference("state", vals["state"], reference, out)
        if probe is None:
            out.problems.append("Crank-Nicolson evolution failed")
            out.op(False)
            return out
        out.cn_steps = int(round(self.T_FINAL / self.DT))
        ok = True
        if not probe.mass_drift < 1e-8:
            out.problems.append(f"mass drift {probe.mass_drift:.3e}")
            ok = False
        if not probe.max_distance < 0.1:
            out.problems.append(f"max orbital distance {probe.max_distance:.3e}")
            ok = False
        out.op(ok)
        return out


class ScanDoubleBridge:
    name = "scan-double-bridge"

    def setup(self, seed):
        g = graphnls.double_bridge_graph(0.3)
        cfg = SolveConfig(h=0.02, truncation=30.0)
        return g, cfg, [_mesh_for(g, mu, cfg) for mu in SCAN_GRID]

    def run(self, inputs):
        g, cfg, _ = inputs
        return _solve().scan_mass_threshold(g, "e", P, SCAN_GRID, cfg, jobs=JOBS)

    def values(self, inputs, scan):
        return {f"mu={mu:g}": {"energy": e}
                for mu, s, e in zip(scan.mu_grid, scan.statuses, scan.energies)
                if s == "interior"}

    def check(self, inputs, scan, reference):
        out = Outcome()
        vals = self.values(inputs, scan)
        for mu, status in zip(scan.mu_grid, scan.statuses):
            label = f"mu={mu:g}"
            ok = status != "not-converged"
            out.states += status != "not-converged"
            if mu >= 1.0 and status != "interior":
                out.problems.append(f"{label}: status {status}, expected interior")
                ok = False
            if mu <= 0.5 and status == "interior":
                out.problems.append(f"{label}: interior below the threshold")
                ok = False
            if label in vals:
                ok = _against_reference(label, vals[label], reference, out) and ok
            out.op(ok)
        return out


WORKLOADS = {w.name: w for w in (GroundHalflineEx3(), CatalogueEx1(), ProbeEx3(), ScanDoubleBridge())}
