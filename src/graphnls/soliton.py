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
initialize the constrained solver.

Only the truncated competitor's energy, which fixes its cut level, needs
quadrature.  In soliton units y = B x its three integrals run over
[0, y_c], where sech(y)^q falls to the cut fraction kappa.  One fixed
composite Gauss-Legendre rule covers them: unit-width panels, then panels
halving in width toward y_c, where (sech^q y - kappa)^p has an algebraic
zero of order p.  The cut level is the root of that energy minus its
target, found by bisection on a fixed bracket to float resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .graphs import is_number
from .mesh import GraphFunction, Mesh, place_profile


class SolitonError(ValueError):
    """Raised for invalid exponents or infeasible competitor requests."""


def _sech_power_integral(s: float) -> float:
    """Integral of sech(y)^s over the real line (s > 0)."""
    return math.sqrt(math.pi) * math.exp(math.lgamma(s / 2.0) - math.lgamma((s + 1.0) / 2.0))


def _mass_law(p: float) -> tuple[float, float]:
    """(k, gamma) of the line soliton's mass law mu = k * lambda^gamma."""
    q = 2.0 / (p - 2.0)
    k = (p / 2.0) ** q * q * _sech_power_integral(2.0 * q)
    gamma = (6.0 - p) / (2.0 * (p - 2.0))
    return k, gamma


def _power_law(c: float, x: float, e: float, arg: str, image: str) -> float:
    """c * x^e (e > 0), or a SolitonError when it leaves the positive finite
    floats: ``arg`` is then too large (an overflow counts as inf) or too
    small (an underflow to 0)."""
    try:
        y = c * x ** e
    except OverflowError:
        y = math.inf
    if not is_number(y, 0.0):
        size = "small" if y == 0.0 else "large"
        raise SolitonError(f"{arg} is too {size}: its {image} {y:g} is not positive and finite")
    return y


def _amplitude_width(p: float, lam: float) -> tuple[float, float]:
    """(A, B) of the lambda-soliton A * sech(B x)^q."""
    q = 2.0 / (p - 2.0)
    return (lam * p / 2.0) ** (1.0 / (p - 2.0)), math.sqrt(lam) / q


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
        if not is_number(mu, 0.0):
            raise SolitonError(f"mass must be positive and finite, got {mu!r}")
        k, gamma = _mass_law(self.p)
        return _power_law(1.0, mu / k, 1.0 / gamma, f"mass {mu:g}", "multiplier")

    def mass_for_lambda(self, lam: float) -> float:
        """Mass of the line soliton with multiplier lam."""
        if not is_number(lam, 0.0):
            raise SolitonError(f"multiplier must be positive and finite, got {lam!r}")
        k, gamma = _mass_law(self.p)
        return _power_law(k, lam, gamma, f"multiplier {lam:g}", "mass")


@lru_cache(maxsize=None)
def make_model(p: float) -> SolitonModel:
    """Build the model for exponent p; theta_p = lambda_1 (6-p) / (2(p+2)) by
    the soliton identities, lambda_1 = k^(-1/gamma) the unit-mass multiplier."""
    if not is_number(p, 2.0, 6.0):
        raise SolitonError(f"exponent p={p!r} outside the subcritical range (2, 6)")
    k, gamma = _mass_law(p)
    theta = k ** (-1.0 / gamma) * (6.0 - p) / (2.0 * (p + 2.0))
    return SolitonModel(p=p, beta=(p - 2.0) / (6.0 - p), alpha=2.0 / (6.0 - p), theta=theta)


def _profile_callables(p: float, lam: float) -> tuple[Callable, Callable]:
    """Profile and derivative of the lambda-soliton centered at 0.  Far out
    cosh overflows to inf and the sech power to its exact limit 0, so the
    overflow is not warned about (here and in ``soliton_residual``)."""
    q = 2.0 / (p - 2.0)
    A, B = _amplitude_width(p, lam)

    def f(x):
        with np.errstate(over="ignore"):
            return A * np.cosh(B * np.asarray(x, dtype=float)) ** (-q)

    def df(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore"):
        s = np.cosh(B * np.asarray(x, dtype=float)) ** -1.0
    u = A * s ** q
    upp = A * B * B * (q * q * s ** q - q * (q + 1.0) * s ** (q + 2.0))
    return upp + u ** (p - 1.0) - lam * u


def energy_levels(model: SolitonModel, mu: float) -> tuple[float, float]:
    """Ground-state energy levels at mass mu: (line, halfline).

    The halfline level is 2^(2 beta) times the line level; together they
    sandwich the ground-state level of any noncompact graph.
    """
    if not (is_number(mu) and mu >= 0.0):
        raise SolitonError(f"mass {mu!r} is not nonnegative and finite")
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


# Gauss-Legendre nodes per panel, and the panels that halve in width toward
# the cut point.  Over p in [2.2, 5.9] and cut fractions 1e-9 to 0.999 the
# rule agrees with adaptive quadrature at epsrel 1e-13 to about 1e-12;
# uniform 30-node panels alone miss its p-th power integral by 2e-10 at
# p = 2.2, cut fraction 0.9.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GRADED_PANELS = 14


def _graded_rule(y_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, y_c]:
    unit-width panels up to y_c - 1, then panels halving in width toward
    y_c (the whole interval is graded when y_c <= 1)."""
    graded = min(1.0, y_c)
    breaks = np.concatenate((
        np.linspace(0.0, y_c - graded, math.ceil(y_c - graded) + 1),
        y_c - graded * 0.5 ** np.arange(1, _GRADED_PANELS + 1),
        [y_c],
    ))
    half = 0.5 * np.diff(breaks)[:, None]
    mid = 0.5 * (breaks[:-1] + breaks[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _truncated_energy(model: SolitonModel, mu: float, cut: float, half: bool) -> float:
    """Energy of (soliton - cut)+ renormalized to mass mu, by quadrature
    (no closed form exists).  ``half`` uses the mass-2mu soliton restricted
    to x >= 0.  With phi = A sech(y)^q, y = B x, and kappa = cut / A, the
    integrals over x in [0, x_c] become A^2 / B int (sech^q - kappa)^2,
    (A q)^2 B int sech^2q tanh^2 and A^p / B int (sech^q - kappa)^p."""
    lam = model.lambda_for_mass(2.0 * mu if half else mu)
    peak, B = _amplitude_width(model.p, lam)
    if not (0.0 < cut < peak):
        raise SolitonError("cut level must lie in (0, peak)")
    p, q = model.p, model.q
    kappa = cut / peak
    y, w = _graded_rule(math.acosh(kappa ** (-1.0 / q)))
    s = np.cosh(y) ** -q
    # roundoff can put nodes next to y_c a hair below the cut
    g = np.maximum(s - kappa, 0.0)
    m_half = peak ** 2 / B * (w @ g ** 2)
    kin_half = (peak * q) ** 2 * B * (w @ (s * np.tanh(y)) ** 2)
    factor = 1.0 if half else 2.0
    scale = math.sqrt(mu / (factor * m_half))
    pot_half = (scale * peak) ** p / B * (w @ g ** p)
    return float(factor * (0.5 * scale ** 2 * kin_half - pot_half / p))


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
    # bisection to float resolution, gap(lo) < 0 <= gap(hi), until the
    # midpoint is an end; none when the target lies past hi
    cut = 0.5 * (lo + hi) if gap(hi) >= 0 else hi
    while lo < cut < hi:
        lo, hi = (cut, hi) if gap(cut) < 0 else (lo, cut)
        cut = 0.5 * (lo + hi)
    return 0.95 * cut / peak


def compact_competitor(
    model: SolitonModel,
    mu: float,
    eps: float,
    mesh: Mesh,
    edge_id: str,
) -> GraphFunction:
    """Mass-mu competitor supported on one bounded edge.

    (soliton - cut)+ at the cut level of ``_cut_fraction``, renormalized to
    mass mu on the mesh.  At mass mu the continuum profile has energy at
    most -(1-eps) * theta_p * mu^(2 beta + 1); on a terminal edge (an end
    of degree one) the half-soliton variant is used with its peak at the tip,
    reaching (1-eps) times the 2^(2 beta)-enhanced level.  The nodal
    interpolant only approaches that bound as h -> 0: on Example 2's
    terminal edge at mu = 50, eps = 0.1 it reaches 0.883 of the halfline
    level at h = 0.02 and 0.901 at h = 0.01.  Raises when the support cannot
    fit on the edge (mass below the fitting threshold).
    """
    if not is_number(eps, 0.0, 1.0):
        raise SolitonError(f"eps must lie in (0, 1), got {eps!r}")
    e = mesh.graph.edge(edge_id)
    if e.is_halfline:
        raise SolitonError(f"edge {edge_id!r} is a halfline; competitors need a bounded edge")
    length = e.length
    tip_at_src = mesh.graph.degree(e.src) == 1
    terminal = tip_at_src or mesh.graph.degree(e.dst) == 1

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
    if tip_at_src:
        u = place_profile(mesh, edge_id, profile, 0.0)
    elif terminal:
        u = place_profile(mesh, edge_id, lambda x: profile(-x), length)
    else:
        u = place_profile(mesh, edge_id, profile, length / 2.0, support_radius=x_c)
    M = mesh.mass_matrix
    m = float(u.values @ (M @ u.values))
    if m <= 0:
        raise SolitonError("competitor lost all mass in discretization; refine the mesh")
    u.values *= math.sqrt(mu / m)
    return u
