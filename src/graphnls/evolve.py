"""Crank-Nicolson time stepping and orbital-stability diagnostics.

The semidiscrete flow, in the frame that rotates at frequency omega, is
i M dv/dt = L v - n(v) with L = K + omega M; omega = 0 is the lab frame,
and u = exp(i omega t) v maps one onto the other.  One step solves

    (i M / dt - L / 2) v_new = (i M / dt + L / 2) v_old - n(v_mid)

with v_mid = (v_old + v_new) / 2, by fixed-point sweeps on a prefactored
linear operator.  That operator also carries G = lumped mass times
(p/2)|u0|^(p-2), the complex-linear part of the derivative of the load at
the start.  It depends on |u| only, so it is the same in every frame, and
for a bound state it is stationary.  A sweep solves

    (i M / dt - L / 2 + G / 2) v_new = (i M / dt + L / 2 - G / 2) v_old - r(v_mid)

for the rest r(v) = n(v) - G v, which is the step above rewritten, so the
fixed point does not change; near |u0| the sweeps contract faster.  The
two operators sum to 2i M / dt, so a sweep solves for w = v_old + v_new,

    (i M / dt - L / 2 + G / 2) w = (2i / dt) M v_old - r(w / 2),

and v_new = w - v_old: the right side needs M v_old only, and the update
of w is that of v_new.  The rest and the recorded potential are formed on
|v|^2 = Re(v)^2 + Im(v)^2, with |v|^(p-2) and |v|^p taken as its powers
(p-2)/2 and p/2, which at p = 4 are a copy and a square.

Each step starts from one solve with the rest r(v_mid) predicted by the
quadratic extrapolation of the last three steps' final rests, the rest
at the start standing in for the steps before the first: the linear part,
and with it the stiff modes, is then exact from the start, and only the
smooth error of the rest is left to the sweeps.
At fixed-point convergence the scheme conserves the discrete mass exactly.
A bound state of multiplier lambda is a fixed point of the scheme in the
frame omega = lambda, and evolves as exp(i lambda t) times itself in the
lab frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import functional as fn
from .graphs import is_count, is_number
from .mesh import GraphFunction, Mesh

# most Crank-Nicolson steps one run may take: the histories are allocated
# up front, so a larger t_final / dt fails to allocate or never finishes
MAX_STEPS = 10**7
# most fixed-point sweeps one Crank-Nicolson step may take before it stalls
MAX_SWEEPS = 50


class EvolveError(RuntimeError):
    """Raised when a time step fails to converge or the state blows up."""


@dataclass
class EvolveResult:
    final: GraphFunction   # in the rotating frame
    times: np.ndarray
    mass_history: np.ndarray
    energy_history: np.ndarray   # the physical energy, the same in every frame
    sweeps_max: int
    sweeps_total: int

    @property
    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass_history - self.mass_history[0])))

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy_history - self.energy_history[0])))


def check_time_grid(t_final: float, dt: float) -> None:
    """Raise EvolveError unless 0 < dt <= t_final, both finite, the run
    takes at most MAX_STEPS steps, and those steps end at t_final: t_final /
    dt is an integer up to a relative 1e-9."""
    if not (is_number(t_final) and is_number(dt, 0.0) and dt <= t_final):
        raise EvolveError(f"need finite 0 < dt <= t_final, got dt={dt!r}, t_final={t_final!r}")
    n = t_final / dt
    if n > MAX_STEPS:
        raise EvolveError(f"t_final / dt = {n:.3g} exceeds the limit of {MAX_STEPS} steps")
    if abs(n - round(n)) > 1e-9 * n:
        raise EvolveError(
            f"t_final / dt = {n:.10g} is not a whole number of steps; "
            f"the run would not end at t_final={t_final!r}"
        )


def evolve(
    u0: GraphFunction,
    p: float,
    t_final: float,
    dt: float,
    fp_tol: float = 1e-10,
    callback: Optional[Callable[[float, GraphFunction], None]] = None,
    omega: float = 0.0,
) -> EvolveResult:
    """March the Crank-Nicolson flow from 0 to ``t_final`` in steps of
    ``dt``, in the frame that rotates at frequency ``omega``.

    A step converges when a sweep's update is at most ``fp_tol`` times
    max |u0|; ``fp_tol`` must be finite and > 0.  The operator is factored
    once with G = lumped mass times (p/2)|u0|^(p-2) on its diagonal (see
    the module docstring), so a state whose modulus stays near |u0|, such
    as a perturbed bound state, takes about 2 sweeps per step; a state
    whose modulus moves far from it gains nothing and may take a few more.
    ``sweeps_total`` and ``sweeps_max`` count the fixed-point sweeps, not
    the predictor solve that starts each step.
    """
    check_time_grid(t_final, dt)
    if not is_number(p, 2.0, 6.0):
        raise EvolveError(f"exponent p={p!r} outside the subcritical range (2, 6)")
    if not is_number(omega):
        raise EvolveError(f"omega must be finite, got {omega!r}")
    if not is_number(fp_tol, 0.0):
        raise EvolveError(f"fp_tol must be finite and > 0, got {fp_tol!r}")
    if not np.all(np.isfinite(u0.values)):
        raise EvolveError("initial state has non-finite values")
    n_steps = int(round(t_final / dt))
    mesh = u0.mesh
    n = mesh.ndof
    P, _, node_w, mid_w = mesh.simpson_rule
    # complex copies, so that no product upcasts the matrices on every call;
    # a record takes M v, K v and P v as slices of one product with [M; K; P]
    stack = sp.vstack([mesh.mass_matrix, mesh.stiffness_matrix, P], format="csr").astype(complex)
    P = P.astype(complex)
    P_t = P.T

    u = u0.values.astype(complex)
    scale0 = float(np.max(np.abs(u))) or 1.0
    # the complex-linear part of the derivative of the load at |u0|, lumped;
    # it depends on |u| only, so it is the same in every frame
    with np.errstate(over="ignore"):
        G = (0.5 * p) * mesh.lumped_mass * np.abs(u) ** (p - 2.0)
    if not np.all(np.isfinite(G)):
        raise EvolveError("non-finite values at step 0; the state blew up")
    J = (1j / dt - 0.5 * omega) * mesh.mass_matrix.data - 0.5 * mesh.stiffness_matrix.data
    J[mesh.diagonal_slots] += 0.5 * G
    # the pattern is symmetric, so SuperLU's symmetric mode with a
    # minimum-degree order on A^T + A applies; its solves are faster than
    # those of the default column order, at no more fill, and than
    # Mesh.factor's on this complex symmetric operator
    solver = splu(
        mesh.stencil_matrix(J, "csc"), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
    )
    times = np.zeros(n_steps + 1)
    masses = np.zeros(n_steps + 1)
    energies = np.zeros(n_steps + 1)
    sweeps_max = sweeps_total = 0

    def rest(v):
        """The Simpson load n(v) less the part G v that the factored
        operator carries, with |v|^(p-2) taken as (|v|^2)^((p-2)/2)."""
        m = P @ v
        return (node_w * _abs2(v) ** (0.5 * p - 1.0) - G) * v + P_t @ (
            mid_w * _abs2(m) ** (0.5 * p - 1.0) * m
        )

    def record(step, v):
        """Store the mass and energy of v, the potential's Simpson sum taken
        on (|v|^2)^(p/2); return M v, from which the next step's right side
        is formed."""
        x = stack @ v
        Mv, Kv, m = x[:n], x[n:2 * n], x[2 * n:]
        power = node_w @ _abs2(v) ** (0.5 * p) + mid_w @ _abs2(m) ** (0.5 * p)
        masses[step] = np.real(np.vdot(v, Mv))
        energies[step] = 0.5 * np.real(np.vdot(v, Kv)) - power / p
        return Mv

    # a state that blows up overflows before its update turns non-finite;
    # the check on the update reports it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        Mu = record(0, u)
        # final rests of the last three steps, newest first; the rest at the
        # start stands in for the steps before the first
        rests = [rest(u)] * 3
        for step in range(n_steps):
            b = (2j / dt) * Mu
            # start from the solve with the rest extrapolated quadratically
            w = solver.solve(b - (3.0 * (rests[0] - rests[1]) + rests[2]))
            for sweep in range(MAX_SWEEPS):
                r = rest(0.5 * w)
                w_next = solver.solve(b - r)
                # w - u is the new state, so this is the update of the state
                delta = float(np.max(np.abs(w_next - w)))
                if not math.isfinite(delta):
                    raise EvolveError(f"non-finite values at step {step}; the state blew up")
                w = w_next
                if delta <= fp_tol * scale0:
                    sweeps_max = max(sweeps_max, sweep + 1)
                    sweeps_total += sweep + 1
                    break
            else:
                raise EvolveError(
                    f"fixed-point iteration stalled at step {step}: "
                    f"last update {delta:.3e} (try a smaller dt)"
                )
            rests = [r] + rests[:2]
            u = w - u
            Mu = record(step + 1, u)
            times[step + 1] = (step + 1) * dt
            if callback is not None:
                callback(times[step + 1], GraphFunction(mesh, u))

    return EvolveResult(
        final=GraphFunction(mesh, u),
        times=times,
        mass_history=masses,
        energy_history=energies,
        sweeps_max=sweeps_max,
        sweeps_total=sweeps_total,
    )


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 of complex values, without the square root of np.abs."""
    return v.real ** 2 + v.imag ** 2


def _h1_product(mesh: Mesh, a: np.ndarray, b: np.ndarray) -> complex:
    K = mesh.stiffness_matrix
    M = mesh.mass_matrix
    return complex(np.vdot(a, K @ b) + np.vdot(a, M @ b))


def h1_norm(u: GraphFunction) -> float:
    return math.sqrt(max(float(np.real(_h1_product(u.mesh, u.values, u.values))), 0.0))


def orbital_distance(u: GraphFunction, v: GraphFunction) -> float:
    """min over phases theta of the H1 distance || exp(i theta) u - v ||.

    The squared distance is ||u||^2 + ||v||^2 - 2 Re(exp(i theta) z) with
    z = <v, u>, least at theta = -arg z.  The difference is formed at that
    phase rather than through the norms, which cancel when u and v are close.
    """
    if u.mesh is not v.mesh:
        raise EvolveError("orbital distance requires functions on the same mesh")
    z = _h1_product(u.mesh, v.values, u.values)
    w = np.exp(-1j * np.angle(z)) * u.values - v.values
    return h1_norm(GraphFunction(u.mesh, w))


def smoothed_perturbation(mesh: Mesh, seed: int = 0) -> np.ndarray:
    """Unit-H1-norm smooth random direction: white nodal noise passed twice
    through (K + M)^{-1}, factored by ``Mesh.factor`` (K + M is positive
    definite, so its chain takes the LDL^T path), its real and imaginary
    parts as separate solves."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(mesh.ndof) + 1j * rng.standard_normal(mesh.ndof)
    solve = mesh.factor(mesh.stiffness_matrix.data + mesh.mass_matrix.data)

    def smooth(b):
        return solve(solve(b)[0])[0]

    v = smooth(raw.real) + 1j * smooth(raw.imag)
    norm = math.sqrt(float(np.real(_h1_product(mesh, v, v))))
    return v / norm


@dataclass
class StabilityReport:
    times: np.ndarray
    orbital_distances: np.ndarray   # H1 distance to the phase orbit of the state
    mass_drift: float
    energy_drift: float
    epsilon: float
    omega: float        # frequency of the frame the probe stepped in
    sweeps: int         # fixed-point sweeps over all Crank-Nicolson steps
    sweeps_max: int     # most sweeps taken by one step

    @property
    def max_distance(self) -> float:
        return float(np.max(self.orbital_distances))

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "orbital_distances": self.orbital_distances.tolist(),
            "mass_drift": self.mass_drift,
            "energy_drift": self.energy_drift,
            "epsilon": self.epsilon,
            "omega": self.omega,
            "max_distance": self.max_distance,
            "sweeps": self.sweeps,
            "sweeps_max": self.sweeps_max,
        }


def stability_probe(
    report,
    epsilon: float,
    t_final: float,
    dt: float,
    seed: int = 0,
    fp_tol: float = 1e-10,
    stride: int = 1,
) -> StabilityReport:
    """Perturb the minimizer of a solve report by ``epsilon`` times a seeded
    smooth unit-H1 direction, restore the mass, evolve with the report's
    exponent p in the frame that rotates at the report's multiplier (where
    the unperturbed state is a fixed point of the scheme), and record the
    orbital H1 distance back to the unperturbed state along the trajectory;
    ``stride`` thins the recorded samples.  A report that did not converge
    holds no bound state, so it is refused.
    """
    if not is_number(epsilon):
        raise EvolveError(f"epsilon must be finite, got {epsilon!r}")
    if not is_count(stride, 1):
        raise EvolveError(f"stride must be an integer >= 1, got {stride!r}")
    if not is_count(seed, 0):
        raise EvolveError(f"seed must be an integer >= 0, got {seed!r}")
    if not report.converged:
        raise EvolveError(
            f"cannot probe a state that did not converge (status {report.status!r})"
        )
    state = report.minimizer
    mesh = state.mesh
    mu = fn.mass(state)
    pert = state.values.astype(complex)
    if epsilon != 0.0:
        pert = pert + epsilon * smoothed_perturbation(mesh, seed)
    gf = GraphFunction(mesh, pert)
    m = fn.mass(gf)
    if m <= 0:
        raise EvolveError("perturbed state lost all mass")
    gf.values = gf.values * math.sqrt(mu / m)

    times = [0.0]
    dists = [orbital_distance(gf, state)]
    counter = [0]

    def watch(t, u):
        counter[0] += 1
        if counter[0] % stride == 0:
            times.append(t)
            dists.append(orbital_distance(u, state))

    omega = float(report.lam)
    result = evolve(
        gf, report.p, t_final=t_final, dt=dt, fp_tol=fp_tol, callback=watch, omega=omega
    )
    return StabilityReport(
        times=np.array(times),
        orbital_distances=np.array(dists),
        mass_drift=result.mass_drift,
        energy_drift=result.energy_drift,
        epsilon=epsilon,
        omega=omega,
        sweeps=result.sweeps_total,
        sweeps_max=result.sweeps_max,
    )
