"""Doubly-constrained energy minimization on the discrete mass sphere.

The minimizer over functions of mass mu whose maximum sits on a chosen
bounded edge is computed by projected gradient descent (retraction = exact
mass rescaling, H1 preconditioning, adaptive two-point step) followed by a
Newton refinement of the stationarity system.  The localization constraint
is handled by one start, one descent: it should be inactive at the
solution, so the first-order conditions coincide with the plain
Euler-Lagrange equation with a mass multiplier, and a final state whose
maximum lies off the edge is reported as escaped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.sparse.linalg import splu

from . import functional as fn
from . import verify
from .graphs import Edge, MetricGraph, first_twins, is_count, is_number
from .mesh import (
    GraphFunction,
    Mesh,
    MeshError,
    argmax,
    build_mesh,
    interpolate,
    place_profile,
    truncation_length,
)
from .soliton import (
    SolitonError,
    SolitonModel,
    _profile_callables,
    compact_competitor,
    make_model,
    soliton_profile,
)

logger = logging.getLogger(__name__)


class SolveError(RuntimeError):
    """Raised on non-convergence or invalid solver requests."""


@dataclass(frozen=True)
class SolveConfig:
    grad_tol: float = 1e-8
    # gradient-descent iterations before handing over to the Newton stage;
    # the Newton stage (with translation equilibration) finishes the job, so
    # the descent phase only needs to shape the iterate, not converge it
    max_iter: int = 400
    h: float = 0.01
    truncation: Union[float, str] = "auto"
    seed: int = 0   # unused: kept for callers that still pass it (the benchmark does)

    def __post_init__(self):
        for what, x in (("grad tolerance", self.grad_tol), ("mesh spacing", self.h)):
            if not is_number(x, 0.0):
                raise SolveError(f"{what} {x!r} is not positive and finite")
        if not (self.truncation == "auto" or is_number(self.truncation, 0.0)):
            raise SolveError(f"truncation {self.truncation!r} is not 'auto' or positive and finite")
        if not is_count(self.max_iter, 1):
            raise SolveError(f"max iterations {self.max_iter!r} is not an integer >= 1")


@dataclass
class SolveReport:
    minimizer: GraphFunction
    energy: fn.EnergyBreakdown
    lam: float                   # Lagrange multiplier (1/length^2)
    mass: float
    mass_loss: float             # mass on halfline elements past half the truncation length
    localization_margin: float
    el_residual: float
    kirchhoff_residual: float
    status: str                  # interior | constraint-active | escaped | not-converged
    converged: bool              # the stationarity residual reached tolerance
    iterations: int
    edge: Optional[str]          # localization edge (None for a free descent)
    p: float
    config: SolveConfig = field(default_factory=SolveConfig)
    ground_claim: bool = False   # True when produced by the ground-state search

    def to_dict(self, include_function: bool = True) -> dict:
        doc = {
            "edge": self.edge,
            "p": self.p,
            "mass": self.mass,
            "mass_loss": self.mass_loss,
            "energy": {
                "kinetic": self.energy.kinetic,
                "potential": self.energy.potential,
                "total": self.energy.total,
            },
            "lambda": self.lam,
            "localization_margin": self.localization_margin,
            "el_residual": self.el_residual,
            "kirchhoff_residual": self.kirchhoff_residual,
            "status": self.status,
            "converged": self.converged,
            "iterations": self.iterations,
            "ground_claim": self.ground_claim,
            "config": asdict(self.config),
        }
        if include_function:
            doc["minimizer"] = self.minimizer.to_dict()
        return doc


def project_mass(u: GraphFunction, mu: float) -> GraphFunction:
    """Rescale to mass mu: w = sqrt(mu / mass(u)) u (exact in discrete quadrature)."""
    m = fn.mass(u)
    if m <= 0.0:
        raise SolveError("cannot project the zero function onto the mass sphere")
    out = u.copy()
    out.values *= math.sqrt(mu / m)
    return out


def lagrange_multiplier(u: GraphFunction, p: float) -> float:
    """Multiplier from testing the weak form with u itself:
    lambda = (||u||_p^p - ||u'||_2^2) / ||u||_2^2."""
    m = fn.mass(u)
    if m <= 0.0:
        raise SolveError("multiplier undefined for the zero function")
    return (fn.lp_power_quad(u, p) - 2.0 * fn.kinetic(u)) / m


def migrated_mass(u: GraphFunction) -> float:
    """Mass sitting beyond the midpoint of any truncated halfline: a
    diagnostic for runaway toward infinity."""
    mesh = u.mesh
    sel = mesh.edge_halfline[mesh.el_edge] & (mesh.el_mid > mesh.truncation / 2.0)
    a, b = mesh.element_values(np.real(u.values))
    a, b = a[sel], b[sel]
    return float(np.sum(mesh.el_h[sel] / 3.0 * (a**2 + a * b + b**2)))


def _newton_tol(cfg: SolveConfig, mu: float) -> float:
    """Stationarity tolerance of the Newton polish at mass mu."""
    return cfg.grad_tol * max(1.0, mu)


def _resolved_multiplier(mesh: Mesh, mu: float, p: float) -> float:
    """Multiplier of the line soliton of mass mu, after checking that the
    mesh spacing resolves that soliton's width 1/sqrt(lambda)."""
    lam = make_model(p).lambda_for_mass(mu)
    width = 1.0 / math.sqrt(lam)
    if mesh.h > width:
        raise SolveError(
            f"mesh spacing h={mesh.h:g} does not resolve the soliton of mass {mu:g}, "
            f"whose width 1/sqrt(lambda) is {width:.3g}; take h <= {width:.3g}"
        )
    return lam


def _resolve_mesh(
    g: MetricGraph, cfg: SolveConfig, model: SolitonModel, mu: float
) -> Mesh:
    lam_est = model.lambda_for_mass(mu)
    return build_mesh(g, cfg.h, trunc=cfg.truncation, lambda_est=lam_est)


def _stationarity_residual(mesh, x, mults, mu, p, w=None):
    """Residual of K u - n(u) + lam M u [+ nu w] = 0, (u^T M u - mu)/2 = 0
    [, w . u = 0] at mults = (lam,) or (lam, nu): (F1, border residuals,
    norm, M u), the pin term scaled by the strong-form norm of w."""
    F1, Mx = verify.residual_rows(mesh, x, mults[0], p)
    Fb = [0.5 * (float(x @ Mx) - mu)]
    pin = 0.0
    if w is not None:
        F1 = F1 + mults[1] * w
        Fb.append(float(w @ x))
        pin = abs(Fb[1]) / (math.sqrt(float(np.sum(w * w * mesh.lumped_mass))) or 1.0)
    return F1, np.array(Fb), verify.strong_norm(mesh, F1) + abs(Fb[0]) + pin, Mx


# a chain solve whose backward error exceeds this, about a hundred unit
# roundoffs, lost digits to a small pivot; on the solver's Newton systems
# the chain solves measured below 1e-16
BACKWARD_ERROR = 1e-14


def _bordered_solve(mesh, data, B, f, g):
    """Solve [[H, B], [B^T, 0]] [x; m] = [f; g] for the stencil matrix H
    with entries ``data`` and k border columns B: Keller's bordering on the
    mesh's chain factorization (``Mesh.factor``), then iterative refinement
    on the full system, since the chain cannot pivot across a vertex and a
    weak chain pivot makes the plain elimination lose digits.  After each
    chain solve the normwise backward error (the bordered matrix in the
    Frobenius norm) is measured, and the first solution within
    ``BACKWARD_ERROR`` is returned (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 12); Newton systems almost always
    pass after one solve.  When the chain or the border's Schur complement
    is singular, or three solves leave the backward error above
    ``BACKWARD_ERROR``, SuperLU factors the full bordered matrix instead.
    Raises RuntimeError when that is singular too."""
    n = f.size
    rhs = np.concatenate([f, g])
    try:
        solve = mesh.factor(data, B)
    except np.linalg.LinAlgError:
        pass
    else:
        H = mesh.stencil_matrix(data)
        norm_A = math.sqrt(np.sum(data * data) + 2.0 * np.sum(B * B))
        norm_rhs = np.linalg.norm(rhs)
        z, r = 0.0, rhs
        for _ in range(3):
            z = z + np.concatenate(solve(r[:n], r[n:]))
            r = rhs - np.concatenate([H @ z[:n] + B @ z[n:], B.T @ z[:n]])
            if np.linalg.norm(r) <= BACKWARD_ERROR * (norm_rhs + norm_A * np.linalg.norm(z)):
                return z[:n], z[n:]
    z = splu(mesh.stencil_matrix(data, "csc", border=B)).solve(rhs)
    return z[:n], z[n:]


# Newton gives up after this many accepted steps in a row that each cut
# the residual by less than 10 %; runs that converge cut it far faster
STALL_STEPS = 5
STALL_RATIO = 0.9


def _bordered_newton(mesh, x0, lam, mu, p, tol, max_iter, w=None):
    """Newton on the stationarity system bordered by the mass constraint
    and, when w is given, by the pin w . u = 0 with its multiplier nu.

    Full Newton steps with a residual-norm backtracking line search.
    Returns (x, mults, res, ok) with mults = (lam,) or (lam, nu); a
    singular system, a step that cannot lower the residual, or a stall
    (``STALL_STEPS`` accepted steps in a row that each keep more than
    ``STALL_RATIO`` of the residual) ends the iteration at the last iterate.
    """
    M = mesh.mass_matrix
    K = mesh.stiffness_matrix
    x = np.array(x0, dtype=float)
    mults = np.array([lam] if w is None else [lam, 0.0])
    F1, Fb, res, Mx = _stationarity_residual(mesh, x, mults, mu, p, w)
    weak = 0
    for _ in range(max_iter):
        if res <= tol:
            break
        W = fn.nonlinear_jacobian(GraphFunction(mesh, x), p)
        B = np.column_stack([Mx] if w is None else [Mx, w])
        try:
            dx, dm = _bordered_solve(mesh, K.data - W.data + mults[0] * M.data, B, -F1, -Fb)
        except RuntimeError:
            return x, mults, res, False
        t = 1.0
        for _ in range(20):
            xn, mn = x + t * dx, mults + t * dm
            F1n, Fbn, rn, Mxn = _stationarity_residual(mesh, xn, mn, mu, p, w)
            if rn < res:
                weak = weak + 1 if rn > STALL_RATIO * res else 0
                x, mults, F1, Fb, res, Mx = xn, mn, F1n, Fbn, rn, Mxn
                break
            t *= 0.5
        else:
            return x, mults, res, False
        if weak == STALL_STEPS:
            break
    return x, mults, res, res <= tol


def _newton_refine(mesh, u, lam, mu, p, tol, max_iter=50):
    """Refine (u, lambda) on K u - n(u) + lambda M u = 0, u^T M u = mu.
    Returns (x, lam, res, ok)."""
    x, mults, res, ok = _bordered_newton(mesh, u, lam, mu, p, tol, max_iter)
    return x, mults[0], res, ok


def _translation_pin_vector(mesh, edge_id, p, lam, c):
    """Nodal samples of the soliton derivative centered at c on one edge:
    the approximate translation mode, used as a pinning functional."""
    _, df = _profile_callables(p, lam)
    run = mesh.edge_nodes(edge_id)
    w = np.zeros(mesh.node_x.size)
    w[run] = df(mesh.node_x[run] - c)
    return mesh.node_sum(w)


def _pinned_newton(mesh, x0, lam, mu, p, w, tol, max_iter=30):
    """Newton on the stationarity system with the extra pin w . u = 0 and
    its multiplier nu.  Returns (x, lam, nu, ok)."""
    x, mults, _, ok = _bordered_newton(mesh, x0, lam, mu, p, tol, max_iter, w=w)
    return x, mults[0], mults[1], ok


def _equilibrate_translation(mesh, x0, lam0, mu, p, edge_id, tol):
    """Find the equilibrium peak position along an edge.

    Sharp solitons on an edge have a nearly flat translation mode, so plain
    Newton fails when the peak is away from its equilibrium.  Pin the
    translation mode at a trial center c, solve the pinned system, and take
    secant steps on the pin multiplier nu(c) until it vanishes.  Since
    nu ~ (dE/dc) / |w|^2, the first step goes downhill.  Returns (x, lam)
    at the unpinned critical point, or None when a pinned solve fails, a
    center leaves [2h, L - 2h], or 40 solves do not converge.
    """
    run = mesh.edge_nodes(edge_id)
    coords = mesh.node_x[run]
    length = coords[-1]
    h = mesh.edge_h[mesh.node_edge[run.start]]
    lo_c, hi_c = 2.0 * h, length - 2.0 * h
    if hi_c <= lo_c:
        return None

    vals = np.abs(mesh.node_values(x0)[run])
    c = float(np.clip(coords[int(np.argmax(vals))], lo_c, hi_c))
    x, lam = np.array(x0, dtype=float), lam0
    pin_tol = max(tol, 1e-10)
    xtol = 1e-12 * max(1.0, length)
    c_prev = nu_prev = None
    for _ in range(40):
        w = _translation_pin_vector(mesh, edge_id, p, max(lam, 1e-6), c)
        x, lam, nu, ok = _pinned_newton(mesh, x, lam, mu, p, w, pin_tol)
        if not ok:
            return None
        if nu == 0.0 or (c_prev is not None and abs(c - c_prev) <= xtol):
            return x, lam
        if c_prev is None:
            c_next = c - math.copysign(max(0.05 * length, 2.0 * h), nu)
        else:
            # nu is a numpy float: a flat secant gives an infinite step,
            # which leaves the edge below
            c_next = c - nu * (c - c_prev) / (nu - nu_prev)
        c_prev, nu_prev, c = c, nu, c_next
        if not (lo_c <= c <= hi_c):
            return None
    return None


class _Iterate(NamedTuple):
    """A descent iterate x with what the next step reuses: K x, M x, the
    element-midpoint values P x and the Simpson nonlinearity at both."""

    x: np.ndarray
    Kx: np.ndarray
    Mx: np.ndarray
    Px: np.ndarray
    f_nodes: np.ndarray
    f_mids: np.ndarray


def _iterate_at(mesh: Mesh, x: np.ndarray, p: float) -> _Iterate:
    """The iterate at x with every product computed from x itself."""
    Px = mesh.simpson_rule[0] @ x
    return _Iterate(
        x, mesh.stiffness_matrix @ x, mesh.mass_matrix @ x, Px,
        *fn.simpson_nonlinearity(x, Px, p),
    )


def _iterate_gradient(mesh: Mesh, it: _Iterate) -> np.ndarray:
    """The weak energy gradient K x - n(x) of ``fn.grad_energy``."""
    return it.Kx - fn.simpson_load(mesh.simpson_rule, it.f_nodes, it.f_mids)


class _Direction(NamedTuple):
    """A search direction d with K d, M d, P d and the coefficients of the
    quadratics u.Mu and u.Ku along u = x - alpha d."""

    d: np.ndarray
    Kd: np.ndarray
    Md: np.ndarray
    Pd: np.ndarray
    mass: tuple   # (x.Mx, d.Mx, d.Md)
    kin: tuple    # (x.Kx, d.Kx, d.Kd)


def _direction(mesh: Mesh, it: _Iterate, d: np.ndarray) -> _Direction:
    Kd = mesh.stiffness_matrix @ d
    Md = mesh.mass_matrix @ d
    return _Direction(
        d, Kd, Md, mesh.simpson_rule[0] @ d,
        (float(it.x @ it.Mx), float(d @ it.Mx), float(d @ Md)),
        (float(it.x @ it.Kx), float(d @ it.Kx), float(d @ Kd)),
    )


def _line_trial(mesh: Mesh, it: _Iterate, dn: _Direction, alpha: float, mu: float, p: float):
    """Energy of the line-search trial s y, y = x - alpha d, rescaled to
    mass mu (s^2 = mu / y.My).  Mass and kinetic term are quadratics in
    alpha; the potential ||y||_p^p = int f y takes one Simpson pass over
    y and P y = P x - alpha P d.  Returns (energy, accept), where accept()
    builds the iterate at s y by scaling the held products (the
    nonlinearity by s^(p-1)), or None when y has no mass."""
    m0, m1, m2 = dn.mass
    my = m0 - alpha * (2.0 * m1 - alpha * m2)
    if not my > 0.0:
        return None
    k0, k1, k2 = dn.kin
    y = it.x - alpha * dn.d
    Py = it.Px - alpha * dn.Pd
    f_nodes, f_mids = fn.simpson_nonlinearity(y, Py, p)
    _, _, node_w, mid_w = mesh.simpson_rule
    lpp = float(node_w @ (f_nodes * y) + mid_w @ (f_mids * Py))
    s2 = mu / my
    energy = 0.5 * s2 * (k0 - alpha * (2.0 * k1 - alpha * k2)) - s2 ** (0.5 * p) * lpp / p

    def accept() -> _Iterate:
        s = math.sqrt(s2)
        sf = s ** (p - 1.0)
        return _Iterate(
            s * y, s * (it.Kx - alpha * dn.Kd), s * (it.Mx - alpha * dn.Md), s * Py,
            sf * f_nodes, sf * f_mids,
        )

    return energy, accept


def _bb_step(
    it: _Iterate, prev: _Iterate, r: np.ndarray, prev_r: np.ndarray, shift: float, step: float
) -> float:
    """Barzilai-Borwein step measured in the metric of the preconditioner
    K + s M: dx.(K + s M) dx / dx.dr (Molina and Raydan, Numer. Algorithms
    13, 1996), with (K + s M) dx from the K x and M x both iterates hold.
    Keeps ``step`` when dx.dr <= 0; clipped to [1e-6, 1e3]."""
    dx = it.x - prev.x
    denom = float(dx @ (r - prev_r))
    if denom > 0:
        step = float(dx @ (it.Kx - prev.Kx + shift * (it.Mx - prev.Mx))) / denom
    return min(max(step, 1e-6), 1e3)


def _descend(
    mesh: Mesh,
    u0: GraphFunction,
    mu: float,
    p: float,
    cfg: SolveConfig,
):
    """Monotone projected-gradient descent plus Newton refinement.

    The preconditioner is K + s M with s the larger of the start's
    multiplier and the line soliton's at mass mu (the multiplier the descent
    heads for), factored once by the mesh's chain factorization
    (``Mesh.factor``; K + s M is positive definite, so its chain takes the
    LDL^T path); the mesh must resolve that soliton
    (``_resolved_multiplier``).  Each step pays one preconditioner solve and
    four sparse products (the gradient's P^T and K d, M d, P d); its first
    trial is the Barzilai-Borwein step measured in the metric of K + s M,
    from the K x and M x the last two iterates hold (``_bb_step``), and a
    line-search trial costs one Simpson pass (``_line_trial``).  The
    descent hands over to Newton at a residual of min(1e-3 max(1, mu),
    1e-2 lambda_line), and no less than 10 times the Newton tolerance: a
    bound that does not scale with the line multiplier lambda_line leaves a
    small multiplier 10 % off, too far for Newton.  The descent folds once,
    at the hand-over: Newton starts from |x| rescaled to mass mu, so the
    result depends on where the descent ends, not on the path it took.  The
    Newton polish gives up when it stalls: ``STALL_STEPS`` accepted steps
    in a row that each cut the residual by less than 10 %.

    The descent knows nothing of a localization edge: edge starts and free
    halfline starts run alike, and ``_classify`` judges where the final
    state peaks.  Returns (u, lambda, residual, iterations, converged, r)
    where r is the residual row vector of ``verify.residual_rows`` at the
    returned (u, lambda).
    """
    M = mesh.mass_matrix
    K = mesh.stiffness_matrix

    x = np.real(project_mass(u0, mu).values).astype(float)
    tol = _newton_tol(cfg, mu)
    lam_line = _resolved_multiplier(mesh, mu, p)
    switch_tol = max(min(1e-3 * max(1.0, mu), 1e-2 * lam_line), 10.0 * tol)

    def residual(it):
        g = _iterate_gradient(mesh, it)
        lam = -float(it.x @ g) / mu
        return g + lam * it.Mx, lam

    it = _iterate_at(mesh, x, p)
    r, lam = residual(it)
    shift = max(lam, lam_line)
    precond = mesh.factor(K.data + shift * M.data)

    e_now = fn.energy(GraphFunction(mesh, x), p).total
    step = 0.5
    prev = None
    prev_r = None
    iterations = 0

    for k in range(cfg.max_iter):
        iterations = k + 1
        res = verify.strong_norm(mesh, r)
        if res <= switch_tol:
            break

        d = precond(r)[0]
        d = d - (float(d @ it.Mx) / mu) * it.x

        if prev is not None:
            step = _bb_step(it, prev, r, prev_r, shift, step)
        prev, prev_r = it, r

        dn = _direction(mesh, it, d)
        alpha = step
        for _ in range(40):
            trial = _line_trial(mesh, it, dn, alpha, mu, p)
            if trial is not None and trial[0] <= e_now + 1e-14 * abs(e_now):
                break
            alpha *= 0.5
        else:
            break  # stalled; hand over to Newton
        e_now, accept = trial
        it = accept()
        r = residual(it)[0]

    # fold once, at the hand-over: |x| rescaled to mass mu (|x|.M|x| >=
    # x.Mx = mu > 0, since M is entrywise nonnegative)
    x = np.abs(it.x)
    x *= math.sqrt(mu / float(x @ (M @ x)))

    r, lam = residual(_iterate_at(mesh, x, p))
    xn, lamn, _, ok = _newton_refine(mesh, x, lam, mu, p, tol)
    if not ok:
        # sharp solitons on an edge carry a nearly flat translation
        # mode; equilibrate the peak position before the final polish
        top_edge = argmax(GraphFunction(mesh, x))[0]
        eq = _equilibrate_translation(mesh, x, lam, mu, p, top_edge, tol)
        if eq is not None:
            xn, lamn, _, ok = _newton_refine(mesh, eq[0], eq[1], mu, p, tol)
    if ok:
        # the far tails sit at float-noise scale where Newton may leave
        # tiny negative values; fold them back (energy and mass unchanged)
        x, lam = np.abs(xn), lamn
        r, _, res, _ = _stationarity_residual(mesh, x, (lam,), mu, p)
    else:
        res = verify.strong_norm(mesh, r)
    converged = res <= tol
    return GraphFunction(mesh, x), lam, res, iterations, converged, r


def _branch_vertex_distance(mesh: Mesh, edge_id: str, coord: float) -> float:
    """Distance from a point on an edge to the nearest incident vertex of
    degree >= 3 (inf when no such vertex is incident)."""
    g = mesh.graph
    e = g.edge(edge_id)
    dist = math.inf
    if g.degree(e.src) >= 3:
        dist = min(dist, coord)
    if e.dst is not None and g.degree(e.dst) >= 3:
        dist = min(dist, e.length - coord)
    return dist


def _classify(
    mesh: Mesh,
    u: GraphFunction,
    lam: float,
    mu: float,
    edge_id: Optional[str],
    converged: bool,
):
    """Status of a final state per the interiority analysis: a genuine
    bound state sits in the interior of the localization constraint,
    carries a positive multiplier, and does not leak mass toward the
    truncated ends.

    A maximum off ``edge_id``, or a multiplier lam <= 0 (a positive
    solution of u'' = lam u - u^(p-1) decays along a halfline only if
    lam > 0), rules out a bound state on the edge on its own, so either
    decides ``escaped`` whether or not the run converged.  Only then does
    a run short of tolerance get ``not-converged``.  Returns ``(status,
    margin, mass_loss)``.
    """
    top_edge, top_x, _ = argmax(u)
    m_loss = migrated_mass(u)
    ref_edge = edge_id if edge_id is not None else top_edge
    margin = verify.localization_margin(u, ref_edge)
    if lam <= 0.0 or (edge_id is not None and top_edge != edge_id):
        return "escaped", margin, m_loss
    if not converged:
        return "not-converged", margin, m_loss
    if m_loss > 0.05 * mu:
        return "escaped", margin, m_loss
    if margin <= 0.0:
        return "constraint-active", margin, m_loss
    if _branch_vertex_distance(mesh, top_edge, top_x) <= 2.0 * mesh.h:
        return "constraint-active", margin, m_loss
    return "interior", margin, m_loss


def _finish_report(mesh, descent, mu, p, cfg, edge_id):
    """The report of one ``_descend`` result, its residual norms read from
    the row vector the descent returns."""
    u, lam, _, iters, converged, r = descent
    status, margin, m_loss = _classify(mesh, u, lam, mu, edge_id, converged)
    el, kirchhoff = verify.row_norms(mesh, r)
    return SolveReport(
        minimizer=u,
        energy=fn.energy(u, p),
        lam=lam,
        mass=fn.mass(u),
        mass_loss=m_loss,
        localization_margin=margin,
        el_residual=el,
        kirchhoff_residual=kirchhoff,
        status=status,
        converged=converged,
        iterations=iters,
        edge=edge_id,
        p=p,
        config=cfg,
    )


def _bounded_edge(g: MetricGraph, edge_id: str) -> Edge:
    """The edge ``edge_id`` of g, refused when it is a halfline: a
    constrained solve needs a bounded edge."""
    e = g.edge(edge_id)
    if e.is_halfline:
        raise SolveError(f"edge {edge_id!r} is a halfline; pick a bounded edge")
    return e


def minimize_on_edge(
    g: MetricGraph,
    edge_id: str,
    mu: float,
    p: float,
    cfg: SolveConfig = SolveConfig(),
    mesh: Optional[Mesh] = None,
) -> SolveReport:
    """Minimize the energy at mass mu among functions peaking on ``edge_id``.

    One start, one descent: the start is the eps = 0.1 compact competitor
    on the edge, or a hat on the edge when the competitor does not fit
    (mass below the fitting threshold).  The descent runs to its end
    wherever the maximum wanders; a final state that peaks off the edge is
    reported ``escaped``.  A given ``mesh`` must be the one that
    ``_resolve_mesh`` would build: the graph g (by value), spacing
    ``cfg.h`` and the truncation length of ``cfg.truncation`` at mass mu;
    any other raises ``SolveError``.
    """
    e = _bounded_edge(g, edge_id)
    model = make_model(p)
    if mesh is None:
        mesh = _resolve_mesh(g, cfg, model, mu)
    else:
        L = truncation_length(g, cfg.h, cfg.truncation, model.lambda_for_mass(mu))
        if (mesh.graph, mesh.h, mesh.truncation) != (g, cfg.h, L):
            raise SolveError(
                f"the mesh (graph {mesh.graph.name!r}, h {mesh.h:g}, truncation "
                f"{mesh.truncation:g}) is not the one of graph {g.name!r} at h {cfg.h:g}, "
                f"truncation {L:g}"
            )
    pass_through = [v for v in dict.fromkeys((e.src, e.dst)) if g.degree(v) == 2]
    if pass_through:
        logger.warning(
            "edge %r has endpoints of degree two (%s); normalize the graph "
            "to merge pass-through vertices", edge_id, ", ".join(pass_through),
        )
    try:
        u0 = compact_competitor(model, mu, 0.1, mesh, edge_id)
    except SolitonError:
        # the competitor does not fit on the edge, or holds no mesh node
        u0 = place_profile(
            mesh, edge_id, lambda x: np.clip(1.0 - np.abs(x) / (e.length / 2.0), 0.0, None),
            e.length / 2.0,
        )
        u0 = project_mass(u0, mu)
    descent = _descend(mesh, u0, mu, p, cfg)
    return _finish_report(mesh, descent, mu, p, cfg, edge_id)


def _edge_reports(
    g: MetricGraph, mesh: Mesh, mu: float, p: float, cfg: SolveConfig
) -> list[SolveReport]:
    """One report per bounded edge, in input order.  Only the first edge of
    each class of twins (``graphs.first_twins``) is solved: a later twin's
    report is its mirror image, the minimizer moved by ``Mesh.swap_twins``
    and every number copied, ``iterations`` included, with the status and
    margin judged again on the moved state (``argmax`` breaks ties by input
    order)."""
    first = first_twins(g)
    reports = {}
    for e in g.bounded_edges:
        if first[e.id] == e.id:
            reports[e.id] = minimize_on_edge(g, e.id, mu, p, cfg, mesh=mesh)
            continue
        rep = reports[first[e.id]]
        u = GraphFunction(mesh, mesh.swap_twins(rep.minimizer.values, rep.edge, e.id))
        status, margin, _ = _classify(mesh, u, rep.lam, mu, e.id, rep.converged)
        reports[e.id] = replace(
            rep, minimizer=u, status=status, localization_margin=margin, edge=e.id
        )
    return list(reports.values())


def bound_state_catalogue(
    g: MetricGraph,
    mu: float,
    p: float,
    cfg: SolveConfig = SolveConfig(),
    jobs: int = 1,
) -> list[SolveReport]:
    """One report per bounded edge, in input order (k bound states for k
    bounded edges at large mass), from one solve per class of twin edges
    (``_edge_reports``).  ``jobs`` is accepted for callers that still pass
    it (the benchmark does) and ignored: the edges are solved serially."""
    if not g.bounded_edges:
        raise SolveError("graph has no bounded edge")
    return _edge_reports(g, _resolve_mesh(g, cfg, make_model(p), mu), mu, p, cfg)


def _halfline_starts(mesh: Mesh, model: SolitonModel, mu: float):
    """One half-soliton start per class of twin halflines
    (``graphs.first_twins``: the halflines at one vertex), on its first
    halfline in input order: twins are swapped by an isometry of the graph,
    so their descents are mirror images."""
    f = soliton_profile(model, 2.0 * mu)[0]
    first = first_twins(mesh.graph)
    return [interpolate(mesh, {e.id: f}) for e in mesh.graph.halflines if first[e.id] == e.id]


def ground_state(
    g: MetricGraph,
    mu: float,
    p: float,
    cfg: SolveConfig = SolveConfig(),
) -> SolveReport:
    """Best-of search for a mass-mu ground state: the catalogue's reports,
    one per bounded edge (``_edge_reports``), then one unconstrained descent
    per halfline vertex from a half-soliton start (``_halfline_starts``),
    the lowest converged energy winning.  Candidates within the Newton
    tolerance grad_tol * max(1, mu) of the lowest energy tie, and the first
    of them in that order wins, so that mirror images, or one state reached
    by two routes, do not swap on roundoff or on solver noise: a mirrored
    twin has its first edge's energy and comes after it.  The returned
    energy is checked against the universal line / halfline sandwich
    (broadened by tolerance)."""
    model = make_model(p)
    mesh = _resolve_mesh(g, cfg, model, mu)
    # every descent below would raise this; say why rather than that none converged
    _resolved_multiplier(mesh, mu, p)
    candidates = _edge_reports(g, mesh, mu, p, cfg)
    for u0 in _halfline_starts(mesh, model, mu):
        try:
            descent = _descend(mesh, u0, mu, p, cfg)
        except SolveError:
            continue
        candidates.append(_finish_report(mesh, descent, mu, p, cfg, None))

    converged = [r for r in candidates if r.converged]
    if not converged:
        raise SolveError("no descent run converged")
    e_min = min(r.energy.total for r in converged)
    best = next(r for r in converged if r.energy.total <= e_min + _newton_tol(cfg, mu))

    ok, line_level, half_level, _ = verify.energy_sandwich(model, mu, best.energy.total)
    if not ok:
        logger.warning(
            "ground-state energy %.6g outside the universal sandwich [%.6g, %.6g]",
            best.energy.total, half_level, line_level,
        )
    best.ground_claim = True
    return best


@dataclass
class ThresholdReport:
    mu_grid: list[float]
    statuses: list[str]
    energies: list[float]
    threshold: Optional[float]   # smallest grid mass with an interior minimizer
    monotone: bool               # no two interior masses in a row followed by one that is not
    reasons: list[Optional[str]]  # error message of each failed mass, else None

    def to_dict(self) -> dict:
        return asdict(self)


def scan_mass_threshold(
    g: MetricGraph,
    edge_id: str,
    p: float,
    mu_grid: Sequence[float],
    cfg: SolveConfig = SolveConfig(),
    jobs: int = 1,
) -> ThresholdReport:
    """Empirical probe of the mass threshold: solve at each grid mass and
    record the first with an interior minimizer as ``threshold``;
    ``monotone`` is false when two interior masses in a row are followed by
    one that is not.  Masses whose meshes have the same truncation length
    share one mesh.  A mass whose solve raises ``SolveError`` or
    ``SolitonError`` (a multiplier that overflows or underflows), or whose
    mesh ``truncation_length`` refuses as too large for h, is
    ``not-converged``, with the error's message as its entry of
    ``reasons``.  A bad grid or a halfline ``edge_id`` raises
    ``SolveError``, and a spacing that no mass could mend ``MeshError``,
    before any solve.
    ``jobs`` is accepted for callers that still pass it (the benchmark does)
    and ignored: the masses are solved serially."""
    grid = list(mu_grid)
    positive = all(is_number(mu, 0.0) for mu in grid)
    if not (grid and positive and all(a < b for a, b in zip(grid, grid[1:]))):
        raise SolveError(f"mass grid {grid} must be nonempty, strictly increasing, finite and > 0")
    _bounded_edge(g, edge_id)
    model = make_model(p)
    truncation_length(g, cfg.h, cfg.truncation)   # the smallest mesh: a refusal no mass avoids
    meshes = {}   # by truncation length, the only part of a mesh that depends on mu

    def run(mu):
        try:
            L = truncation_length(g, cfg.h, cfg.truncation, model.lambda_for_mass(mu))
        except (SolitonError, MeshError) as exc:
            return "not-converged", float("nan"), str(exc)
        if L not in meshes:
            meshes[L] = _resolve_mesh(g, cfg, model, mu)
        try:
            rep = minimize_on_edge(g, edge_id, mu, p, cfg, mesh=meshes[L])
        except (SolveError, SolitonError) as exc:
            return "not-converged", float("nan"), str(exc)
        return rep.status, rep.energy.total, None

    results = [run(mu) for mu in grid]
    statuses = [s for s, _, _ in results]
    energies = [e for _, e, _ in results]
    reasons = [r for _, _, r in results]

    threshold = next((mu for mu, s in zip(grid, statuses) if s == "interior"), None)
    interior = [s == "interior" for s in statuses]
    monotone = not any(a and b and not c for a, b, c in zip(interior, interior[1:], interior[2:]))
    if not monotone:
        logger.warning("interior status did not persist along the scan grid")
    return ThresholdReport(grid, statuses, energies, threshold, monotone, reasons)
