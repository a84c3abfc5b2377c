"""NLS energy, norms, gradient, and the rearrangement/inequality machinery.

The kinetic and L2 terms are exact for piecewise-linear functions (P1
element integrals); the p-power term uses composite Simpson quadrature per
element with midpoint evaluation, as one pass over the nodes and one over
the element midpoints.  The inequality checks (Gagliardo-Nirenberg,
L-infinity) use exact closed-form integrals of |linear|^r so that the
analytic bounds hold up to floating point, not up to quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import GraphFunction, interpolate


class FunctionalError(ValueError):
    """Raised for invalid exponents or inadmissible inputs."""


def _check_p(p: float) -> None:
    if not (2.0 < p < 6.0):
        raise FunctionalError(f"exponent p={p} outside the subcritical range (2, 6)")


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float     # (1/2) ||u'||_2^2
    potential: float   # (1/p) ||u||_p^p
    total: float       # kinetic - potential
    p: float


def mass(u: GraphFunction) -> float:
    """Squared L2 norm, exact for the piecewise-linear interpolant."""
    M = u.mesh.mass_matrix
    v = u.values
    return float(np.real(np.vdot(v, M @ v)))


def kinetic(u: GraphFunction) -> float:
    K = u.mesh.stiffness_matrix
    v = u.values
    return 0.5 * float(np.real(np.vdot(v, K @ v)))


def lp_power_quad(u: GraphFunction, p: float) -> float:
    """||u||_p^p by element Simpson with midpoint evaluation."""
    P, _, node_w, mid_w = u.mesh.simpson_rule
    return float(node_w @ np.abs(u.values) ** p + mid_w @ np.abs(P @ u.values) ** p)


def lp_power_exact(u: GraphFunction, r: float) -> float:
    """||u||_r^r, exact for the piecewise-linear (real) interpolant."""
    if u.is_complex:
        raise FunctionalError("exact L^r integral implemented for real functions")
    h = u.mesh.el_h
    a, b = u.mesh.element_values(u.values)
    d = b - a
    flat = np.abs(d) < 1e-14 * (np.abs(a) + np.abs(b) + 1e-300)
    ga = np.sign(a) * np.abs(a) ** (r + 1.0) / (r + 1.0)
    gb = np.sign(b) * np.abs(b) ** (r + 1.0) / (r + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = h * (gb - ga) / d
    seg[flat] = h[flat] * 0.5 * (np.abs(a[flat]) ** r + np.abs(b[flat]) ** r)
    return float(np.sum(seg))


def energy(u: GraphFunction, p: float) -> EnergyBreakdown:
    """NLS energy: (1/2)||u'||^2 - (1/p)||u||_p^p."""
    _check_p(p)
    kin = kinetic(u)
    pot = lp_power_quad(u, p) / p
    return EnergyBreakdown(kinetic=kin, potential=pot, total=kin - pot, p=p)


def nonlinear_term(u: GraphFunction, p: float) -> np.ndarray:
    """Gradient of the Simpson-quadrature potential (1/p)||u||_p^p.

    For complex values this is the Wirtinger gradient against conj(u),
    i.e. the weak form of |u|^(p-2) u.
    """
    _check_p(p)
    v = u.values
    return simpson_load(u.mesh, *simpson_nonlinearity(v, u.mesh.simpson_rule[0] @ v, p))


def simpson_nonlinearity(v: np.ndarray, m: np.ndarray, p: float):
    """|u|^(p-2) u at the nodes (values v) and at the element midpoints
    (values m = P v): the two samples the Simpson rule weighs."""
    # f is formed before it is weighted: regrouping the products moves the
    # roundoff enough to change where the slow low-mass descents end
    return np.abs(v) ** (p - 2.0) * v, np.abs(m) ** (p - 2.0) * m


def simpson_load(mesh, f_nodes: np.ndarray, f_mids: np.ndarray) -> np.ndarray:
    """Weak form (int f eta)_eta by element Simpson, from the nodal and
    midpoint samples of f."""
    _, P_t, node_w, mid_w = mesh.simpson_rule
    return node_w * f_nodes + P_t @ (mid_w * f_mids)


def nonlinear_jacobian(u: GraphFunction, p: float) -> sp.csr_matrix:
    """Derivative of ``nonlinear_term`` with respect to the nodal values
    (real functions only; used by the Newton refinement)."""
    _check_p(p)
    h = u.mesh.el_h
    a, b = u.mesh.element_values(u.values)
    m = 0.5 * (a + b)
    dfa = (p - 1.0) * np.abs(a) ** (p - 2.0)
    dfb = (p - 1.0) * np.abs(b) ** (p - 2.0)
    dfm = (p - 1.0) * np.abs(m) ** (p - 2.0)
    return u.mesh.element_matrix(
        h / 6.0 * (dfa + dfm), h / 6.0 * (dfb + dfm), h / 6.0 * dfm
    )


def grad_energy(u: GraphFunction, p: float) -> np.ndarray:
    """Weak-form residual of the energy: g with g.eta = int u' eta' - int |u|^(p-2) u eta."""
    _check_p(p)
    return u.mesh.stiffness_matrix @ u.values - nonlinear_term(u, p)


def gn_ratio(u: GraphFunction, p: float) -> float:
    """Gagliardo-Nirenberg ratio ||u||_p^p / (||u||_2^(p/2+1) ||u'||_2^(p/2-1)).

    Bounded by the sharp halfline constant on every noncompact graph; the
    implementation flags, never rejects, functions that approach it.
    """
    _check_p(p)
    l2sq = mass(u)
    kinsq = 2.0 * kinetic(u)
    if l2sq == 0.0:
        raise FunctionalError("ratio undefined for the zero function")
    if kinsq == 0.0:
        raise FunctionalError("ratio undefined for constant functions (zero derivative)")
    lpp = lp_power_exact(u, p)
    l2 = math.sqrt(l2sq)
    dl2 = math.sqrt(kinsq)
    return lpp / (l2 ** (p / 2.0 + 1.0) * dl2 ** (p / 2.0 - 1.0))


def linf_ratio(u: GraphFunction) -> float:
    """L-infinity interpolation ratio ||u||_inf^2 / (2 ||u||_2 ||u'||_2) <= 1."""
    l2 = math.sqrt(mass(u))
    dl2 = math.sqrt(2.0 * kinetic(u))
    if l2 == 0.0:
        raise FunctionalError("ratio undefined for the zero function")
    if dl2 == 0.0:
        raise FunctionalError("ratio undefined for constant functions (zero derivative)")
    sup = float(np.max(np.abs(u.values)))
    sup = max(sup, 0.0)
    return sup ** 2 / (2.0 * l2 * dl2)


# ---------------------------------------------------------------------------
# Rearrangement and preimage counting


def distribution_function(u: GraphFunction, levels: np.ndarray) -> np.ndarray:
    """Measure of the superlevel sets {u > t}, exact for piecewise-linear u.

    The levels go in blocks, so that each elements x levels temporary holds
    about 2^20 entries whatever the mesh size."""
    levels = np.asarray(levels, dtype=float)
    a, b = u.mesh.element_values(np.real(u.values))
    lo = np.minimum(a, b)[:, None]
    hi = np.maximum(a, b)[:, None]
    block = max(1, 2**20 // lo.shape[0])
    out = np.empty(levels.size)
    for s in range(0, levels.size, block):
        with np.errstate(divide="ignore", invalid="ignore"):
            # a flat element gives +inf below its level, -inf above, nan at it
            frac = (hi - levels[None, s : s + block]) / (hi - lo)
        np.clip(np.nan_to_num(frac, copy=False), 0.0, 1.0, out=frac)
        out[s : s + block] = u.mesh.el_h @ frac
    return out


def rearrangement(u: GraphFunction, n_nodes: int = 4001) -> GraphFunction:
    """Decreasing rearrangement of a nonnegative u onto a halfline.

    Built from the exact distribution function of the piecewise-linear
    input: the rearranged profile is itself polygonal with breakpoints at
    the sorted nodal values, then resampled on a fresh uniform mesh whose
    length is the measure of the support of u.
    """
    from .graphs import halfline_graph
    from .mesh import build_mesh

    vals = np.real(u.values)
    if np.min(vals) < -1e-12 * max(1.0, np.max(np.abs(vals))):
        raise FunctionalError("rearrangement requires a nonnegative function")
    vals = np.clip(vals, 0.0, None)
    peak = float(np.max(vals))
    if peak == 0.0:
        raise FunctionalError("rearrangement of the zero function is undefined")

    nodal = np.unique(np.concatenate([vals, [0.0]]))
    xs = distribution_function(u, nodal)  # decreasing in the level
    support = float(distribution_function(u, np.array([0.0]))[0])
    if support <= 0.0:
        raise FunctionalError("empty support")

    # exact polygon: u*(xs[k]) = nodal[k]; xs decreasing as nodal increases
    order = np.argsort(xs)
    px = xs[order]
    pv = nodal[order]

    g = halfline_graph(name="rearranged")
    target_h = support / (n_nodes - 1)
    m = build_mesh(g, target_h, trunc=support)
    return interpolate(m, {m.edge_meshes[0].edge_id: lambda x: np.interp(x, px, pv)})


def preimage_count(u: GraphFunction, levels) -> tuple[list[int], int]:
    """Per-level preimage counts and the essential minimum count N.

    Counts transversal crossings of each level on the piecewise-linear
    function; a plateau exactly at a queried level counts by its endpoints.
    The essential minimum is exact: counts are piecewise constant between
    consecutive nodal values, so the minimum over all level intervals in
    (0, max u) is evaluated at interval midpoints.
    """
    vals = np.real(u.values)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        raise FunctionalError("preimage counts undefined for the zero function")

    levels = list(np.atleast_1d(np.asarray(levels, dtype=float)))
    for t in levels:
        if not (0.0 < t < np.max(vals)):
            raise FunctionalError(f"level {t} outside (0, max u)")

    a, b = u.mesh.element_values(vals)
    los, his = np.minimum(a, b), np.maximum(a, b)
    sorted_lo, sorted_hi = np.sort(los), np.sort(his)
    flat = np.sort(los[los == his])

    def crossings(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per level: the elements with lo < t < hi, and those flat at t.
        As lo <= hi, #(lo < t < hi) = #(lo < t) - #(hi <= t) + #(lo = hi = t)."""
        flat_at = np.searchsorted(flat, t, "right") - np.searchsorted(flat, t, "left")
        strict = (
            np.searchsorted(sorted_lo, t, "left")
            - np.searchsorted(sorted_hi, t, "right")
            + flat_at
        )
        return strict, flat_at

    strict, plateaus = crossings(np.asarray(levels, dtype=float))
    counts = [int(c) for c in strict + 2 * plateaus]

    nodal = np.unique(vals)
    nodal = nodal[(nodal > 0.0) & (nodal <= np.max(vals))]
    grid = np.concatenate([[0.0], nodal])
    mids = 0.5 * (grid[:-1] + grid[1:])
    mids = mids[(mids > 0.0) & (mids < np.max(vals))]
    if mids.size == 0:
        essential = counts[0] if counts else 0
    else:
        essential = int(np.min(crossings(mids)[0]))
    return counts, essential


def ge3_bound(nu: float, n_preimages: int, p: float) -> float:
    """Energy lower bound -theta_p (2/N)^(2 beta) nu^(2 beta + 1) for a
    nonnegative function of squared L2 norm nu whose a.e. level has at
    least N preimages."""
    from .soliton import make_model

    if n_preimages < 1:
        raise FunctionalError("N must be at least 1")
    if nu < 0:
        raise FunctionalError("nu must be nonnegative")
    model = make_model(p)
    return -model.theta * (2.0 / n_preimages) ** (2.0 * model.beta) * nu ** (
        2.0 * model.beta + 1.0
    )
