"""A-posteriori checks on computed bound states.

Every residual the package reports is a norm of one row vector, the weak
residual r = K u - n(u) + lambda M u that ``residual_rows`` forms: the
solver's convergence norm is the strong-form L2 norm over all rows plus the
mass defect, ``el_residual`` the strong-form norm over the interior rows
(stationary equation on open edges), ``kirchhoff_residual`` the largest
vertex row (flux balance).  Without a multiplier the vertex check falls back
to one-sided three-point derivative stencils at each edge's end nodes, read
from the node table and summed onto the vertices, for hand-built functions.

``certify`` reads all it checks from a solve report, and its positivity
rule has no tolerance: zeros may only trail to a halfline's truncated end.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import functional as fn
from .mesh import GraphFunction, Mesh, argmax
from .soliton import SolitonModel, energy_levels, gn_sharp_constant, make_model


class VerifyError(ValueError):
    """Raised for malformed verification requests."""


def residual_rows(mesh: Mesh, x: np.ndarray, lam: float, p: float):
    """(r, M x) for the weak Euler-Lagrange residual r = K x - n(x) + lam M x
    at real nodal values x, one row per dof."""
    Mx = mesh.mass_matrix @ x
    return fn.grad_energy(GraphFunction(mesh, x), p) + lam * Mx, Mx


def strong_norm(mesh: Mesh, r: np.ndarray, rows=slice(None)) -> float:
    """Strong-form norm sqrt(sum r_i^2 / m_i) over the selected rows, m the lumped mass."""
    return math.sqrt(float(np.sum(r[rows] ** 2 / mesh.lumped_mass[rows])))


def row_norms(mesh: Mesh, r: np.ndarray) -> tuple[float, float]:
    """(``el_residual``, ``kirchhoff_residual``) of the residual rows r."""
    vertex = float(np.max(np.abs(r[:mesh.nv]), initial=0.0))
    return strong_norm(mesh, r, slice(mesh.nv, None)), vertex


def residual_norms(u: GraphFunction, lam: float, p: float) -> tuple[float, float]:
    """(``el_residual``, ``kirchhoff_residual``) of u at lam, from one residual vector."""
    r, _ = residual_rows(u.mesh, np.real(u.values).astype(float), lam, p)
    return row_norms(u.mesh, r)


def el_residual(u: GraphFunction, lam: float, p: float) -> float:
    """Strong-form L2 norm of the stationary-equation residual on the open
    edges: sqrt(sum_i r_i^2 / h_i) over interior rows of
    r = K u - n(u) + lambda M u."""
    return residual_norms(u, lam, p)[0]


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
    if lam is not None:
        if p is None:
            raise VerifyError("p is required when lam is given")
        return residual_norms(u, lam, p)[1]

    mesh = u.mesh
    v = mesh.node_values(np.real(u.values).astype(float))
    last = np.flatnonzero(np.append(mesh.node_edge[1:] != mesh.node_edge[:-1], True))
    first = np.append(0, last[:-1] + 1)
    # the outgoing one-sided second-order derivative at each edge end (an
    # edge has two elements or more); node_sum drops a truncated end's
    w = np.zeros(v.size)
    for end, step in ((first, 1), (last, -1)):
        w[end] = (-3.0 * v[end] + 4.0 * v[end + step] - v[end + 2 * step]) / (2.0 * mesh.edge_h)
    return float(np.max(np.abs(mesh.node_sum(w)[:mesh.nv]), initial=0.0))


def localization_margin(u: GraphFunction, edge_id: str) -> float:
    """sup |u| on the edge minus sup |u| on the rest of the graph.

    Positive means the maximum is attained on the edge only: the
    localization constraint is inactive there."""
    mesh = u.mesh
    vals = np.abs(mesh.node_values(u.values))
    run = mesh.edge_nodes(edge_id)
    return float(np.max(vals[run])) - float(np.max(np.delete(vals, run), initial=0.0))


# share of |line level| by which the energy sandwich is broadened
SANDWICH_RTOL = 1e-3


def energy_sandwich(model: SolitonModel, mu: float, energy: float):
    """(ok, line, half, tol): whether ``energy`` is in the universal sandwich
    [half, line] at mass mu broadened by tol = SANDWICH_RTOL |line| + 1e-12."""
    line, half = energy_levels(model, mu)
    tol = SANDWICH_RTOL * abs(line) + 1e-12
    return bool(half - tol <= energy <= line + tol), line, half, tol


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
        return {**asdict(self), "all_ok": self.all_ok}


def certify(report) -> VerificationReport:
    """Run the analytic certificates against a solve report, read alone.

    Checks: positivity (every nodal value > 0, except a run of exact zeros
    ending a halfline at its truncated end: a decaying tail that
    underflowed), the universal line / halfline energy sandwich (only for
    ground-state claims), the preimage-count lower bound at the measured
    essential count N, the sharp Gagliardo-Nirenberg inequality, and the
    L-infinity interpolation bound sup u^2 <= ||u|| ||u'||.
    """
    model = make_model(report.p)
    u = report.minimizer
    mesh = u.mesh
    mu = report.mass
    vals = np.real(u.values)
    peak = argmax(u)[2]
    min_value = float(np.min(vals))

    # a zero must be followed on its halfline by zeros up to the truncated end
    v = mesh.node_values(vals)
    end = np.append(mesh.node_edge[1:] != mesh.node_edge[:-1], True)
    trails = mesh.edge_halfline[mesh.node_edge] & (end | (np.append(v[1:], 0.0) == 0.0))
    positive = bool(np.all((v > 0) | ((v == 0) & trails)))

    energy = report.energy.total
    in_sandwich, line, half, tol = energy_sandwich(model, mu, energy)
    sandwich_ok = in_sandwich if report.ground_claim else None

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
