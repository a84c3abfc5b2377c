"""Closed-form NLS ground states on the line and halfline.

For exponent p in (2, 6) the stationary equation u'' + u^(p-1) = lambda*u
has the sech-power solution

    phi(x) = A * sech(B x)^q,   q = 2/(p-2),
    B = sqrt(lambda) * (p-2)/2,  A = (lambda * p / 2)^(1/(p-2)).

Testing the equation with phi and integrating its first integral
phi'^2 = lambda phi^2 - (2/p) phi^p give the soliton identities
||phi'||^2 = (p-2)/(2p) P and lambda mu = (p+2)/(2p) P, P = ||phi||_p^p,
so the energy is -lambda mu (6-p) / (2(p+2)).  The ground-state energy at
mass mu is -theta_p * mu^(2 beta + 1) on the line and 2^(2 beta) times
that on the halfline, with beta = (p-2)/(6-p).  These profiles serve as
oracles throughout, and as the compactly supported competitors that
initialize the constrained solver.  Only the truncated competitor's
energy, which fixes its cut level, needs quadrature.
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


def _mass_law(p: float) -> tuple[float, float]:
    """(k, gamma) of the line soliton's mass law mu = k * lambda^gamma."""
    q = 2.0 / (p - 2.0)
    k = (p / 2.0) ** q * q * _sech_power_integral(2.0 * q)
    gamma = (6.0 - p) / (2.0 * (p - 2.0))
    return k, gamma


def _amplitude_width(p: float, lam: float) -> tuple[float, float]:
    """(A, B) of the lambda-soliton A * sech(B x)^q."""
    q = 2.0 / (p - 2.0)
    return (lam * p / 2.0) ** (1.0 / (p - 2.0)), math.sqrt(lam) / q


def _check_positive(x: float, what: str) -> None:
    if not (0.0 < x < math.inf):
        raise SolitonError(f"{what} must be positive and finite, got {x}")


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
        _check_positive(mu, "mass")
        k, gamma = _mass_law(self.p)
        return (mu / k) ** (1.0 / gamma)

    def mass_for_lambda(self, lam: float) -> float:
        """Mass of the line soliton with multiplier lam."""
        _check_positive(lam, "multiplier")
        k, gamma = _mass_law(self.p)
        return k * lam ** gamma


@lru_cache(maxsize=None)
def make_model(p: float) -> SolitonModel:
    """Build the model for exponent p; theta_p = lambda_1 (6-p) / (2(p+2)) by
    the soliton identities, lambda_1 = k^(-1/gamma) the unit-mass multiplier."""
    _check_p(p)
    k, gamma = _mass_law(p)
    theta = k ** (-1.0 / gamma) * (6.0 - p) / (2.0 * (p + 2.0))
    return SolitonModel(p=p, beta=(p - 2.0) / (6.0 - p), alpha=2.0 / (6.0 - p), theta=theta)


def _profile_callables(p: float, lam: float) -> tuple[Callable, Callable]:
    """Profile and derivative of the lambda-soliton centered at 0."""
    q = 2.0 / (p - 2.0)
    A, B = _amplitude_width(p, lam)

    def f(x):
        return A * np.cosh(B * np.asarray(x, dtype=float)) ** (-q)

    def df(x):
        x = np.asarray(x, dtype=float)
        return -A * q * B * np.cosh(B * x) ** (-q) * np.tanh(B * x)

    return f, df


def soliton_profile(model: SolitonModel, mu: float) -> tuple[Callable, Callable, float, float]:
    """Closed-form line soliton of mass mu, centered at 0.

    Returns (profile, derivative, lambda, peak value).
    """
    lam = model.lambda_for_mass(mu)
    f, df = _profile_callables(model.p, lam)
    return f, df, lam, _amplitude_width(model.p, lam)[0]


def soliton_residual(model: SolitonModel, mu: float, x: np.ndarray) -> np.ndarray:
    """Pointwise residual of u'' + u^(p-1) - lambda u at the closed form."""
    p, q = model.p, model.q
    lam = model.lambda_for_mass(mu)
    A, B = _amplitude_width(p, lam)
    s = np.cosh(B * np.asarray(x, dtype=float)) ** -1.0
    u = A * s ** q
    upp = A * B * B * (q * q * s ** q - q * (q + 1.0) * s ** (q + 2.0))
    return upp + u ** (p - 1.0) - lam * u


def energy_levels(model: SolitonModel, mu: float) -> tuple[float, float]:
    """Ground-state energy levels at mass mu: (line, halfline).

    The halfline level is 2^(2 beta) times the line level; together they
    sandwich the ground-state level of any noncompact graph.
    """
    if not 0.0 <= mu < math.inf:
        raise SolitonError(f"mass {mu} is not nonnegative and finite")
    line = -model.theta * mu ** (2.0 * model.beta + 1.0)
    half = 2.0 ** (2.0 * model.beta) * line
    return line, half


def gn_sharp_constant(model: SolitonModel) -> float:
    """Sharp Gagliardo-Nirenberg constant on noncompact graphs.

    Attained by the halfline extremal (the half-soliton); the ratio is
    invariant under both scalings, so it is taken at unit multiplier.  There
    P = ||phi||_p^p = A^p / (2B) * int sech^(pq), and the soliton identities
    give the mass (p+2)/(2p) P and the kinetic term (p-2)/(2p) P.
    """
    p = model.p
    A, B = _amplitude_width(p, 1.0)
    lpp = A ** p / (2.0 * B) * _sech_power_integral(p * model.q)
    l2sq = (p + 2.0) / (2.0 * p) * lpp
    kinsq = (p - 2.0) / (2.0 * p) * lpp
    return lpp / (l2sq ** (p / 4.0 + 0.5) * kinsq ** (p / 4.0 - 0.5))


# ---------------------------------------------------------------------------
# Compactly supported competitors


def _truncated_energy(model: SolitonModel, mu: float, cut: float, half: bool) -> float:
    """Energy of (soliton - cut)+ renormalized to mass mu, by quadrature
    (no closed form exists).  ``half`` uses the mass-2mu soliton restricted
    to x >= 0."""
    lam = model.lambda_for_mass(2.0 * mu if half else mu)
    peak, B = _amplitude_width(model.p, lam)
    if not (0.0 < cut < peak):
        raise SolitonError("cut level must lie in (0, peak)")
    p = model.p
    f, df = _profile_callables(p, lam)
    x_c = np.arccosh((peak / cut) ** (1.0 / model.q)) / B

    def g(x):
        return np.clip(f(x) - cut, 0.0, None)

    with warnings.catch_warnings():
        # truncated integrands kink at x_c; roundoff chatter there is benign
        warnings.simplefilter("ignore", IntegrationWarning)
        m_half, _ = quad(lambda x: g(x) ** 2, 0.0, x_c, epsrel=1e-11, epsabs=0.0, limit=200)
        kin_half, _ = quad(lambda x: df(x) ** 2, 0.0, x_c, epsrel=1e-11, epsabs=0.0, limit=200)
        factor = 1.0 if half else 2.0
        scale = math.sqrt(mu / (factor * m_half))
        pot_half, _ = quad(
            lambda x: (scale * g(x)) ** p, 0.0, x_c, epsrel=1e-11, epsabs=0.0, limit=200
        )
    return factor * (0.5 * scale ** 2 * kin_half - pot_half / p)


@lru_cache(maxsize=None)
def _cut_fraction(p: float, eps: float) -> float:
    """Truncation level over the peak of the competitor for eps: 0.95 times
    the level at which the truncated, renormalized soliton meets the energy
    target -(1 - eps) theta_p mu^(2 beta + 1), a margin strictly below it.

    Under y = B x every integral of ``_truncated_energy`` depends only on p
    and cut / peak, and the energy scales as mu^(2 beta + 1) like the
    target, so the fraction is free of the mass.  The half-soliton of mass
    2 mu is the full one reflected onto the halfline, so the terminal
    variant shares it.  Found once, at unit mass.
    """
    model = make_model(p)
    target = (1.0 - eps) * energy_levels(model, 1.0)[0]
    peak = soliton_profile(model, 1.0)[3]

    def gap(cut):
        return _truncated_energy(model, 1.0, cut, False) - target

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

    (soliton - cut)+ at the cut level of ``_cut_fraction``, renormalized to
    mass mu on the mesh.  At mass mu the continuum profile has energy at
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

    lam = model.lambda_for_mass(2.0 * mu if terminal else mu)
    peak, B = _amplitude_width(model.p, lam)
    frac = _cut_fraction(model.p, eps)
    x_c = math.acosh(frac ** (-1.0 / model.q)) / B

    needed = x_c if terminal else 2.0 * x_c
    if needed > length + 1e-12:
        raise SolitonError(
            f"mass {mu} below the fitting threshold for edge {edge_id!r}: "
            f"support {needed:.4g} exceeds length {length:.4g}"
        )
    f = _profile_callables(model.p, lam)[0]
    cut = frac * peak

    def profile(x):
        return np.clip(f(x) - cut, 0.0, None)

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
