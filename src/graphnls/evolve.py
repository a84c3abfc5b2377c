"""Crank-Nicolson time stepping and orbital-stability diagnostics.

The semidiscrete flow is i M du/dt = K u - n(u).  One step solves

    (i M / dt - K / 2) u_new = (i M / dt + K / 2) u_old - n(u_mid)

with u_mid = (u_old + u_new) / 2, by fixed-point iteration on the
prefactored linear operator, started from the quadratic extrapolation of
the last three states.  At fixed-point convergence the scheme conserves
the discrete mass exactly and a stationary state evolves as
exp(i lambda t) times itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import splu

from . import functional as fn
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
    final: GraphFunction
    times: np.ndarray
    mass_history: np.ndarray
    energy_history: np.ndarray
    sweeps_max: int
    sweeps_total: int

    @property
    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass_history - self.mass_history[0])))

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy_history - self.energy_history[0])))


def check_time_grid(t_final: float, dt: float) -> None:
    """Raise EvolveError unless 0 < dt <= t_final, both finite, and the run
    takes at most MAX_STEPS steps."""
    if not (math.isfinite(t_final) and 0 < dt <= t_final):
        raise EvolveError("need finite 0 < dt <= t_final")
    if t_final / dt > MAX_STEPS:
        raise EvolveError(
            f"t_final / dt = {t_final / dt:.3g} exceeds the limit of {MAX_STEPS} steps"
        )


def evolve(
    u0: GraphFunction,
    p: float,
    t_final: float,
    dt: float,
    fp_tol: float = 1e-10,
    callback: Optional[Callable[[float, GraphFunction], None]] = None,
) -> EvolveResult:
    """March the Crank-Nicolson flow from 0 to ``t_final`` in steps of ``dt``."""
    check_time_grid(t_final, dt)
    if not np.all(np.isfinite(u0.values)):
        raise EvolveError("initial state has non-finite values")
    n_steps = int(round(t_final / dt))
    mesh = u0.mesh
    M = mesh.mass_matrix
    K = mesh.stiffness_matrix
    A = ((1j / dt) * M - 0.5 * K).tocsc()
    B = (1j / dt) * M + 0.5 * K
    solver = splu(A)

    u = u0.values.astype(complex)
    scale0 = float(np.max(np.abs(u))) or 1.0
    times = np.zeros(n_steps + 1)
    masses = np.zeros(n_steps + 1)
    energies = np.zeros(n_steps + 1)
    gf = GraphFunction(mesh, u)
    sweeps_max = sweeps_total = 0
    u_prev = u_prev2 = None

    # a state that blows up overflows before its update turns non-finite;
    # the check on the update reports it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        masses[0] = fn.mass(gf)
        energies[0] = fn.energy(gf, p).total
        for step in range(n_steps):
            c = B @ u
            if u_prev is None:
                un = u.copy()
            elif u_prev2 is None:
                un = 2.0 * u - u_prev
            else:
                un = 3.0 * (u - u_prev) + u_prev2
            converged = False
            for sweep in range(MAX_SWEEPS):
                mid = 0.5 * (u + un)
                rhs = c - fn.nonlinear_term(GraphFunction(mesh, mid), p)
                un_next = solver.solve(rhs)
                delta = float(np.max(np.abs(un_next - un)))
                if not math.isfinite(delta):
                    raise EvolveError(f"non-finite values at step {step}; the state blew up")
                un = un_next
                if delta <= fp_tol * scale0:
                    converged = True
                    sweeps_max = max(sweeps_max, sweep + 1)
                    sweeps_total += sweep + 1
                    break
            if not converged:
                raise EvolveError(
                    f"fixed-point iteration stalled at step {step}: "
                    f"last update {delta:.3e} (try a smaller dt)"
                )
            u_prev2, u_prev, u = u_prev, u, un
            gf = GraphFunction(mesh, u)
            times[step + 1] = (step + 1) * dt
            masses[step + 1] = fn.mass(gf)
            energies[step + 1] = fn.energy(gf, p).total
            if callback is not None:
                callback(times[step + 1], gf)

    return EvolveResult(
        final=GraphFunction(mesh, u),
        times=times,
        mass_history=masses,
        energy_history=energies,
        sweeps_max=sweeps_max,
        sweeps_total=sweeps_total,
    )


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
    through (K + M)^{-1}."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(mesh.ndof) + 1j * rng.standard_normal(mesh.ndof)
    smooth = splu((mesh.stiffness_matrix + mesh.mass_matrix).tocsc())
    v = smooth.solve(smooth.solve(raw.real)) + 1j * smooth.solve(smooth.solve(raw.imag))
    norm = math.sqrt(float(np.real(_h1_product(mesh, v, v))))
    return v / norm


@dataclass
class StabilityReport:
    times: np.ndarray
    orbital_distances: np.ndarray   # H1 distance to the phase orbit of the state
    mass_drift: float
    energy_drift: float
    epsilon: float
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
    exponent p, and record the orbital H1 distance back to the unperturbed
    state along the trajectory; ``stride`` thins the recorded samples.
    """
    if not math.isfinite(epsilon):
        raise EvolveError(f"epsilon must be finite, got {epsilon}")
    if stride < 1:
        raise EvolveError(f"stride must be at least 1, got {stride}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise EvolveError(f"seed must be an integer >= 0, got {seed!r}")
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

    result = evolve(gf, report.p, t_final=t_final, dt=dt, fp_tol=fp_tol, callback=watch)
    return StabilityReport(
        times=np.array(times),
        orbital_distances=np.array(dists),
        mass_drift=result.mass_drift,
        energy_drift=result.energy_drift,
        epsilon=epsilon,
        sweeps=result.sweeps_total,
        sweeps_max=result.sweeps_max,
    )
