"""Closed-form NLS ground states on the line and halfline.

For exponent p in (2, 6) the stationary equation u'' + u^(p-1) = lambda*u
has the sech-power solution

    phi(x) = A * sech(B x)^q,   q = 2/(p-2),
    B = sqrt(lambda) * (p-2)/2,  A = (lambda * p / 2)^(1/(p-2)).

The ground-state energy at mass mu is -theta_p * mu^(2 beta + 1) on the
line and 2^(2 beta) times that on the halfline, with beta = (p-2)/(6-p).
These profiles serve as oracles throughout, and as the compactly supported
competitors that initialize the constrained solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import gammaln

from .mesh import GraphFunction, Mesh, place_profile


class SolitonError(ValueError):
    """Raised for invalid exponents or infeasible competitor requests."""


def _check_p(p: float) -> None:
    if not (2.0 < p < 6.0):
        raise SolitonError(f"exponent p={p} outside the subcritical range (2, 6)")


def _sech_power_integral(s: float) -> float:
    """Integral of sech(y)^s over the real line (s > 0)."""
    return math.sqrt(math.pi) * math.exp(gammaln(s / 2.0) - gammaln((s + 1.0) / 2.0))


@dataclass(frozen=True)
class SolitonModel:
    """Scaling exponents and the soliton energy constant for one p."""

    p: float
    beta: float    # (p-2)/(6-p): energy exponent
    alpha: float   # 2/(6-p): amplitude exponent of the natural rescaling
    theta: float   # minus the line ground-state energy at unit mass

    @property
    def q(self) -> float:
        return 2.0 / (self.p - 2.0)

    def lambda_for_mass(self, mu: float) -> float:
        """Multiplier of the line soliton with mass mu."""
        if mu <= 0:
            raise SolitonError("mass must be positive")
        p = self.p
        k = (p / 2.0) ** (2.0 / (p - 2.0)) * (2.0 / (p - 2.0)) * _sech_power_integral(2.0 * self.q)
        gamma = (6.0 - p) / (2.0 * (p - 2.0))
        return (mu / k) ** (1.0 / gamma)

    def mass_for_lambda(self, lam: float) -> float:
        p = self.p
        k = (p / 2.0) ** (2.0 / (p - 2.0)) * (2.0 / (p - 2.0)) * _sech_power_integral(2.0 * self.q)
        gamma = (6.0 - p) / (2.0 * (p - 2.0))
        return k * lam ** gamma


@lru_cache(maxsize=None)
def make_model(p: float) -> SolitonModel:
    """Build the model for exponent p; theta_p by adaptive quadrature of the
    unit-mass soliton energy (relative tolerance 1e-12)."""
    _check_p(p)
    beta = (p - 2.0) / (6.0 - p)
    alpha = 2.0 / (6.0 - p)
    partial = SolitonModel(p=p, beta=beta, alpha=alpha, theta=float("nan"))
    lam = partial.lambda_for_mass(1.0)
    f, _ = _profile_callables(p, lam)
    energy = _energy_on_line(f, p, lam)
    return SolitonModel(p=p, beta=beta, alpha=alpha, theta=-energy)


def _profile_callables(p: float, lam: float) -> tuple[Callable, Callable]:
    """Profile and derivative of the lambda-soliton centered at 0."""
    q = 2.0 / (p - 2.0)
    B = math.sqrt(lam) / q
    A = (lam * p / 2.0) ** (1.0 / (p - 2.0))

    def f(x):
        return A * np.cosh(B * np.asarray(x, dtype=float)) ** (-q)

    def df(x):
        x = np.asarray(x, dtype=float)
        return -A * q * B * np.cosh(B * x) ** (-q) * np.tanh(B * x)

    return f, df


def _energy_on_line(f: Callable, p: float, lam: float, df: Callable = None) -> float:
    if df is None:
        df = _profile_callables(p, lam)[1]
    q = 2.0 / (p - 2.0)
    B = math.sqrt(lam) / q
    cutoff = 50.0 / B
    kin, _ = quad(lambda x: df(x) ** 2, 0.0, cutoff, epsrel=1e-12, epsabs=0.0, limit=200)
    pot, _ = quad(lambda x: f(x) ** p, 0.0, cutoff, epsrel=1e-12, epsabs=0.0, limit=200)
    return 2.0 * (0.5 * kin - pot / p)


def soliton_profile(model: SolitonModel, mu: float) -> tuple[Callable, Callable, float, float]:
    """Closed-form line soliton of mass mu, centered at 0.

    Returns (profile, derivative, lambda, peak value).
    """
    lam = model.lambda_for_mass(mu)
    f, df = _profile_callables(model.p, lam)
    peak = (lam * model.p / 2.0) ** (1.0 / (model.p - 2.0))
    return f, df, lam, peak


def soliton_residual(model: SolitonModel, mu: float, x: np.ndarray) -> np.ndarray:
    """Pointwise residual of u'' + u^(p-1) - lambda u at the closed form."""
    p = model.p
    lam = model.lambda_for_mass(mu)
    q = 2.0 / (p - 2.0)
    B = math.sqrt(lam) / q
    A = (lam * p / 2.0) ** (1.0 / (p - 2.0))
    s = np.cosh(B * np.asarray(x, dtype=float)) ** -1.0
    u = A * s ** q
    upp = A * B * B * (q * q * s ** q - q * (q + 1.0) * s ** (q + 2.0))
    return upp + u ** (p - 1.0) - lam * u


def energy_levels(model: SolitonModel, mu: float) -> tuple[float, float]:
    """Ground-state energy levels at mass mu: (line, halfline).

    The halfline level is 2^(2 beta) times the line level; together they
    sandwich the ground-state level of any noncompact graph.
    """
    if mu < 0:
        raise SolitonError("mass must be nonnegative")
    line = -model.theta * mu ** (2.0 * model.beta + 1.0)
    half = 2.0 ** (2.0 * model.beta) * line
    return line, half


def gn_sharp_constant(model: SolitonModel) -> float:
    """Sharp Gagliardo-Nirenberg constant on noncompact graphs.

    Computed from the halfline extremal (the half-soliton) at unit
    multiplier; the ratio is invariant under both scalings.
    """
    p = model.p
    f, df = _profile_callables(p, 1.0)
    q = 2.0 / (p - 2.0)
    cutoff = 50.0 * q
    l2sq, _ = quad(lambda x: f(x) ** 2, 0.0, cutoff, epsrel=1e-12, epsabs=0.0, limit=200)
    kinsq, _ = quad(lambda x: df(x) ** 2, 0.0, cutoff, epsrel=1e-12, epsabs=0.0, limit=200)
    lpp, _ = quad(lambda x: f(x) ** p, 0.0, cutoff, epsrel=1e-12, epsabs=0.0, limit=200)
    return lpp / (l2sq ** (p / 4.0 + 0.5) * kinsq ** (p / 4.0 - 0.5))


# ---------------------------------------------------------------------------
# Compactly supported competitors


def _truncated_profile(model: SolitonModel, mu: float, cut: float, half: bool):
    """(soliton - cut)+ with the requested total mass, plus its support radius
    and exact energy.  ``half`` uses the mass-2mu soliton restricted to x>=0."""
    base_mass = 2.0 * mu if half else mu
    f, df, lam, peak = soliton_profile(model, base_mass)
    if not (0.0 < cut < peak):
        raise SolitonError("cut level must lie in (0, peak)")
    p = model.p
    q = 2.0 / (p - 2.0)
    B = math.sqrt(lam) / q
    x_c = np.arccosh((peak / cut) ** (1.0 / q)) / B

    def g(x):
        return np.clip(f(x) - cut, 0.0, None)

    with warnings.catch_warnings():
        # truncated integrands kink at x_c; roundoff chatter there is benign
        warnings.simplefilter("ignore", IntegrationWarning)
        m_half, _ = quad(lambda x: g(x) ** 2, 0.0, x_c, epsrel=1e-11, epsabs=0.0, limit=200)
        kin_half, _ = quad(lambda x: df(x) ** 2, 0.0, x_c, epsrel=1e-11, epsabs=0.0, limit=200)
        factor = 1.0 if half else 2.0
        raw_mass = factor * m_half
        scale = math.sqrt(mu / raw_mass)
        pot_half, _ = quad(
            lambda x: (scale * g(x)) ** p, 0.0, x_c, epsrel=1e-11, epsabs=0.0, limit=200
        )
    energy = factor * (0.5 * scale ** 2 * kin_half - pot_half / p)

    def profile(x):
        return scale * g(x)

    return profile, x_c, energy, lam


@lru_cache(maxsize=None)
def _cut_fraction(p: float, eps: float) -> float:
    """Truncation level over the peak of the competitor for eps: 0.95 times
    the level at which the truncated, renormalized soliton meets the energy
    target -(1 - eps) theta_p mu^(2 beta + 1), a margin strictly below it.

    Under y = B x every integral of ``_truncated_profile`` depends only on p
    and cut / peak, and the energy scales as mu^(2 beta + 1) like the
    target, so the fraction is free of the mass.  The half-soliton of mass
    2 mu is the full one reflected onto the halfline, so the terminal
    variant shares it.  Found once, at unit mass.
    """
    model = make_model(p)
    target = (1.0 - eps) * energy_levels(model, 1.0)[0]
    peak = soliton_profile(model, 1.0)[3]

    def gap(cut):
        return _truncated_profile(model, 1.0, cut, False)[2] - target

    lo, hi = 1e-9 * peak, (1.0 - 1e-9) * peak
    if gap(lo) > 0:
        raise SolitonError("competitor energy target unreachable; eps too small")
    if gap(hi) < 0:
        cut = hi
    else:
        cut = brentq(gap, lo, hi, xtol=1e-12 * peak)
    return 0.95 * cut / peak


def compact_competitor(
    model: SolitonModel,
    mu: float,
    eps: float,
    mesh: Mesh,
    edge_id: str,
    terminal: bool = False,
) -> GraphFunction:
    """Mass-mu competitor supported on one bounded edge.

    A truncated, renormalized soliton.  The continuum profile has energy at
    most -(1-eps) * theta_p * mu^(2 beta + 1); on a terminal edge the
    half-soliton variant is used with its peak at the degree-one tip,
    reaching (1-eps) times the 2^(2 beta)-enhanced level.  The nodal
    interpolant only approaches that bound as h -> 0: on Example 2's
    terminal edge at mu = 50, eps = 0.1 it reaches 0.883 of the halfline
    level at h = 0.02 and 0.901 at h = 0.01.  Raises when the support cannot
    fit on the edge (mass below the fitting threshold).
    """
    if not (0.0 < eps < 1.0):
        raise SolitonError("eps must lie in (0, 1)")
    em = mesh.edge_mesh(edge_id)
    if em.is_halfline:
        raise SolitonError(f"edge {edge_id!r} is a halfline; competitors need a bounded edge")
    length = em.coords[-1]

    base_mass = 2.0 * mu if terminal else mu
    _, _, lam, peak = soliton_profile(model, base_mass)
    frac = _cut_fraction(model.p, eps)
    B = math.sqrt(lam) / model.q
    x_c = math.acosh(frac ** (-1.0 / model.q)) / B  # closed form: no quadrature

    needed = x_c if terminal else 2.0 * x_c
    if needed > length + 1e-12:
        raise SolitonError(
            f"mass {mu} below the fitting threshold for edge {edge_id!r}: "
            f"support {needed:.4g} exceeds length {length:.4g}"
        )
    profile, x_c, _, _ = _truncated_profile(model, mu, frac * peak, terminal)

    # place, then renormalize the *discrete* mass exactly
    e = mesh.graph.edge(edge_id)
    if terminal:
        tip_at_src = mesh.graph.degree(e.src) == 1
        if tip_at_src:
            u = place_profile(mesh, edge_id, profile, 0.0)
        else:
            u = place_profile(mesh, edge_id, lambda x: profile(-x), length)
    else:
        u = place_profile(mesh, edge_id, profile, length / 2.0, support_radius=x_c)
    M = mesh.mass_matrix
    m = float(u.values @ (M @ u.values))
    if m <= 0:
        raise SolitonError("competitor lost all mass in discretization; refine the mesh")
    u.values *= math.sqrt(mu / m)
    return u
