"""A-posteriori checks on computed bound states.

Residuals are measured in the discretization the solver actually works in:
the weak residual r = K u - n(u) + lambda M u, split into interior rows
(stationary equation on open edges) and vertex rows (flux balance).  The
interior part is reported as a strong-form L2 norm, the vertex part as the
worst flux imbalance.  When no multiplier is supplied the vertex check
falls back to one-sided three-point derivative stencils, which is the
natural diagnostic for functions that were not produced by the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import functional as fn
from .mesh import GraphFunction, argmax
from .soliton import SolitonModel, energy_levels, gn_sharp_constant


class VerifyError(ValueError):
    """Raised for malformed verification requests."""


def el_residual(u: GraphFunction, lam: float, p: float) -> float:
    """Strong-form L2 norm of the stationary-equation residual on the open
    edges: sqrt(sum_i r_i^2 / h_i) over interior rows of
    r = K u - n(u) + lambda M u."""
    mesh = u.mesh
    v = np.real(u.values).astype(float)
    r = fn.grad_energy(GraphFunction(mesh, v), p) + lam * (mesh.mass_matrix @ v)
    mask = mesh.interior_mask
    return math.sqrt(float(np.sum(r[mask] ** 2 / mesh.lumped_mass[mask])))


def kirchhoff_residual(
    u: GraphFunction, lam: Optional[float] = None, p: Optional[float] = None
) -> float:
    """Worst flux imbalance over the graph vertices.

    With ``lam`` and ``p`` given, the imbalance is the vertex row of the
    weak residual K u - n(u) + lambda M u, which is the flux balance
    consistent with the discretization.  Without them it is the sum of
    outgoing one-sided three-point derivative estimates, a purely geometric
    check suited to hand-built functions.
    """
    mesh = u.mesh
    if lam is not None:
        if p is None:
            raise VerifyError("p is required when lam is given")
        v = np.real(u.values).astype(float)
        r = fn.grad_energy(GraphFunction(mesh, v), p) + lam * (mesh.mass_matrix @ v)
        return float(np.max(np.abs(r[mesh.vertex_dofs]))) if mesh.ndof else 0.0

    sums = {vtx: 0.0 for vtx in mesh.graph.vertices}
    for em in mesh.edge_meshes:
        vals = np.real(u.edge_values(em.edge_id)).astype(float)
        if vals.size < 3:
            continue
        h = em.spacing
        e = mesh.graph.edge(em.edge_id)
        # outgoing derivative at src: one-sided second-order stencil
        d_src = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
        sums[e.src] += d_src
        if e.dst is not None:
            d_dst = (-3.0 * vals[-1] + 4.0 * vals[-2] - vals[-3]) / (2.0 * h)
            sums[e.dst] += d_dst
    return max(abs(s) for s in sums.values()) if sums else 0.0


def localization_margin(u: GraphFunction, edge_id: str) -> float:
    """sup |u| on the edge minus sup |u| on the rest of the graph.

    Positive means the maximum is attained on the edge only: the
    localization constraint is inactive there."""
    mesh = u.mesh
    on_edge = float(np.max(np.abs(u.edge_values(edge_id))))
    off = 0.0
    for em in mesh.edge_meshes:
        if em.edge_id == edge_id:
            continue
        off = max(off, float(np.max(np.abs(u.edge_values(em.edge_id)))))
    return on_edge - off


@dataclass
class VerificationReport:
    positive: bool
    min_value: float
    sandwich_ok: Optional[bool]   # None when the report is not a ground-state claim
    energy: float
    line_level: float
    halfline_level: float
    ge3_ok: bool
    ge3_level: float
    preimage_n: int
    gn_ok: bool
    gn_ratio: float
    gn_sharp: float
    linf_ok: bool
    linf_ratio: float

    @property
    def all_ok(self) -> bool:
        checks = [self.positive, self.ge3_ok, self.gn_ok, self.linf_ok]
        if self.sandwich_ok is not None:
            checks.append(self.sandwich_ok)
        return all(checks)

    def to_dict(self) -> dict:
        return {
            "positive": self.positive,
            "min_value": self.min_value,
            "sandwich_ok": self.sandwich_ok,
            "energy": self.energy,
            "line_level": self.line_level,
            "halfline_level": self.halfline_level,
            "ge3_ok": self.ge3_ok,
            "ge3_level": self.ge3_level,
            "preimage_n": self.preimage_n,
            "gn_ok": self.gn_ok,
            "gn_ratio": self.gn_ratio,
            "gn_sharp": self.gn_sharp,
            "linf_ok": self.linf_ok,
            "linf_ratio": self.linf_ratio,
            "all_ok": self.all_ok,
        }


def certify(report, model: SolitonModel, rel_tol: float = 1e-3) -> VerificationReport:
    """Run the analytic certificates against a solve report.

    Checks: strict positivity of the nodal values away from truncated ends,
    the universal line / halfline energy sandwich (only for ground-state
    reports, where it applies), the preimage-count lower bound at the
    measured essential count N, the sharp Gagliardo-Nirenberg inequality,
    and the L-infinity interpolation bound sup u^2 <= ||u|| ||u'||.
    """
    u = report.minimizer
    mesh = u.mesh
    mu = report.mass
    vals = np.real(u.values)
    peak = argmax(u)[2]
    min_value = float(np.min(vals))

    # the homogeneous Dirichlet condition at a truncated halfline end
    # suppresses the state inside a decay-length boundary layer; the strict
    # threshold applies outside that artificial layer only
    lam = max(float(getattr(report, "lam", 1.0)), 1e-12)
    layer = 1.0 / math.sqrt(lam)
    mask = np.ones(mesh.ndof, dtype=bool)
    for em in mesh.edge_meshes:
        if not em.is_halfline:
            continue
        cut = em.coords[-1] - min(layer, em.coords[-1] / 2.0)
        tail = em.dofs[(em.coords > cut) & (em.dofs < mesh.ndof)]
        mask[tail] = False
    positive = bool(np.all(vals[mask] > 1e-12 * peak) and np.all(vals[~mask] >= 0.0))

    line, half = energy_levels(model, mu)
    tol = rel_tol * abs(line) + 1e-12
    energy = report.energy.total
    is_ground_claim = bool(
        getattr(report, "ground_claim", False) or getattr(report, "edge", None) is None
    )
    sandwich_ok = bool(half - tol <= energy <= line + tol) if is_ground_claim else None

    _, preimage_n = fn.preimage_count(u, [0.5 * peak])
    preimage_n = max(preimage_n, 1)
    ge3_level = fn.ge3_bound(mu, preimage_n, model.p)
    ge3_ok = bool(energy >= ge3_level - max(tol, 1e-6))

    ratio = fn.gn_ratio(u, model.p)
    sharp = gn_sharp_constant(model)
    gn_ok = bool(ratio <= sharp * (1.0 + 1e-12) + 1e-15)

    lratio = fn.linf_ratio(u)
    linf_ok = bool(lratio <= 1.0 + 1e-12)

    return VerificationReport(
        positive=positive,
        min_value=min_value,
        sandwich_ok=sandwich_ok,
        energy=energy,
        line_level=line,
        halfline_level=half,
        ge3_ok=ge3_ok,
        ge3_level=ge3_level,
        preimage_n=preimage_n,
        gn_ok=gn_ok,
        gn_ratio=ratio,
        gn_sharp=sharp,
        linf_ok=linf_ok,
        linf_ratio=lratio,
    )
