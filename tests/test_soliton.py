import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from graphnls import soliton
from graphnls.functional import energy, mass
from graphnls.graphs import Edge, MetricGraph, double_bridge_graph, example_graph
from graphnls.mesh import argmax, build_mesh
from graphnls.soliton import (
    SolitonError,
    _cut_fraction,
    _profile_callables,
    _truncated_energy,
    compact_competitor,
    energy_levels,
    gn_sharp_constant,
    make_model,
    soliton_profile,
    soliton_residual,
)
from graphnls.verify import certify


def test_exponent_range_enforced():
    for p in (2.0, 6.0, 7.5, -1.0):
        with pytest.raises(SolitonError):
            make_model(p)


def test_theta_quartic_closed_form():
    # at p = 4 the soliton energy constant is 1/96 exactly
    model = make_model(4.0)
    assert model.theta == pytest.approx(1.0 / 96.0, abs=1e-12)
    assert model.beta == pytest.approx(1.0)
    assert model.alpha == pytest.approx(1.0)


def test_quartic_multiplier_closed_form():
    # mass mu soliton at p = 4 has lambda = (mu / 4)^2
    model = make_model(4.0)
    for mu in (0.5, 2.0, 10.0):
        assert model.lambda_for_mass(mu) == pytest.approx((mu / 4.0) ** 2, rel=1e-12)
        assert model.mass_for_lambda((mu / 4.0) ** 2) == pytest.approx(mu, rel=1e-12)


def test_mass_lambda_inverse_pair():
    rng = np.random.default_rng(11)
    for p in (2.5, 3.0, 4.0, 5.0, 5.7):
        model = make_model(p)
        for mu in rng.uniform(0.2, 30.0, size=4):
            lam = model.lambda_for_mass(mu)
            assert model.mass_for_lambda(lam) == pytest.approx(mu, rel=1e-10)


def test_profile_mass_matches_request():
    for p in (3.0, 4.0, 5.0):
        model = make_model(p)
        f, df, lam, peak = soliton_profile(model, 3.0)
        x = np.linspace(-80.0 / math.sqrt(lam), 80.0 / math.sqrt(lam), 400001)
        m = np.trapezoid(f(x) ** 2, x)
        assert m == pytest.approx(3.0, rel=1e-6)
        assert f(0.0) == pytest.approx(peak, rel=1e-12)


def test_soliton_residual_vanishes():
    rng = np.random.default_rng(5)
    for p in (2.5, 3.5, 4.0, 5.5):
        model = make_model(p)
        x = rng.uniform(-5.0, 5.0, size=64)
        r = soliton_residual(model, 2.0, x)
        assert np.max(np.abs(r)) < 1e-10


def test_energy_levels_scaling_and_halfline_gain():
    model = make_model(4.0)
    line1, half1 = energy_levels(model, 1.0)
    line2, half2 = energy_levels(model, 2.0)
    assert line1 == pytest.approx(-1.0 / 96.0, rel=1e-10)
    assert line2 / line1 == pytest.approx(2.0 ** 3, rel=1e-10)  # mu^(2 beta + 1)
    assert half1 / line1 == pytest.approx(4.0, rel=1e-12)       # 2^(2 beta)
    assert half1 < line1 < 0.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, True, "3"])
def test_energy_levels_reject_bad_mass(bad):
    with pytest.raises(SolitonError, match="nonnegative and finite"):
        energy_levels(make_model(4.0), bad)


def _quad_half(g, cutoff):
    return quad(g, 0.0, cutoff, epsrel=1e-12, epsabs=0.0, limit=200)[0]


def _theta_by_quadrature(model):
    """Reference: minus the unit-mass soliton energy by adaptive quadrature."""
    p, q = model.p, model.q
    lam = model.lambda_for_mass(1.0)
    f, df = _profile_callables(p, lam)
    cutoff = 50.0 * q / math.sqrt(lam)
    kin = _quad_half(lambda x: df(x) ** 2, cutoff)
    pot = _quad_half(lambda x: f(x) ** p, cutoff)
    return -2.0 * (0.5 * kin - pot / p)


def _gn_sharp_by_quadrature(model):
    """Reference: the GN ratio of the unit-lambda half-soliton by quadrature."""
    p, q = model.p, model.q
    f, df = _profile_callables(p, 1.0)
    l2sq = _quad_half(lambda x: f(x) ** 2, 50.0 * q)
    kinsq = _quad_half(lambda x: df(x) ** 2, 50.0 * q)
    lpp = _quad_half(lambda x: f(x) ** p, 50.0 * q)
    return lpp / (l2sq ** (p / 4.0 + 0.5) * kinsq ** (p / 4.0 - 0.5))


@pytest.mark.parametrize("p", [2.1, 2.5, 3.0, 4.0, 5.0, 5.7, 5.95])
def test_closed_forms_match_quadrature(p):
    model = make_model(p)
    assert model.theta == pytest.approx(_theta_by_quadrature(model), rel=1e-10, abs=0.0)
    sharp = gn_sharp_constant(model)
    assert sharp == pytest.approx(_gn_sharp_by_quadrature(model), rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "bad", [0.0, -1.0, math.nan, math.inf, -math.inf, True, "3", 1e-200, 1e300, 10**400]
)
def test_mass_lambda_maps_reject_bad_arguments(bad):
    # an argument, or a result, that is not positive and finite: the
    # multiplier (mu / 4)^2 at p = 4 and the mass k lam^3.5 at p = 2.5
    # underflow to 0 at 1e-200 and overflow at 1e300; the integer 10**400
    # is past what a float holds
    with pytest.raises(SolitonError, match="positive and finite"):
        make_model(4.0).lambda_for_mass(bad)
    with pytest.raises(SolitonError, match="positive and finite"):
        make_model(2.5).mass_for_lambda(bad)


def test_lambda_for_a_huge_mass_is_a_soliton_error():
    # at p = 4, lambda = (mu / 4)^2 overflows a float past mu of about 5e154
    with pytest.raises(SolitonError, match=r"mass 1e\+200 is too large"):
        make_model(4.0).lambda_for_mass(1e200)


def test_gn_sharp_constant_quartic():
    # p = 4 sharp constant on noncompact graphs is 2 / sqrt(3)
    model = make_model(4.0)
    assert gn_sharp_constant(model) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-10)


def test_compact_competitor_beats_target():
    g = double_bridge_graph(4.0)
    mesh = build_mesh(g, h=0.01, trunc=5.0)
    model = make_model(4.0)
    mu, eps = 10.0, 0.1
    u = compact_competitor(model, mu, eps, mesh, "e")
    assert mass(u) == pytest.approx(mu, rel=1e-12)
    line, _ = energy_levels(model, mu)
    assert energy(u, 4.0).total <= (1.0 - eps) * line
    eid, _, _ = argmax(u)
    assert eid == "e"
    # supported on the edge only
    for e in g.edges:
        if e.id != "e":
            assert np.max(np.abs(u.edge_values(e.id))) < 1e-12 * np.max(u.values)


def test_compact_competitor_terminal_tip():
    # terminal variant peaks at the degree-one tip of the edge
    g = example_graph(4)  # edge g: v2 - v4 with v4 of degree 1
    mesh = build_mesh(g, h=0.01, trunc=5.0)
    model = make_model(4.0)
    u = compact_competitor(model, 10.0, 0.1, mesh, "g")
    vals = u.edge_values("g")
    tip_end = vals[-1] if mesh.graph.degree(mesh.graph.edge("g").dst) == 1 else vals[0]
    assert tip_end == pytest.approx(np.max(vals), rel=1e-12)
    _, half = energy_levels(model, 10.0)
    assert energy(u, 4.0).total <= 0.9 * half


def test_compact_competitor_terminal_tip_at_src_mirrors_tip_at_dst():
    # every built-in terminal edge has its tip at dst; the tip-at-src
    # variant is the mirror image of the same edge oriented the other way
    model = make_model(4.0)
    vals = {}
    for tip_at_src in (True, False):
        t = Edge("t", "tip", "v", 2.0) if tip_at_src else Edge("t", "v", "tip", 2.0)
        g = MetricGraph(("tip", "v"), (t, Edge("h1", "v"), Edge("h2", "v")))
        assert 1 in (g.degree(t.src), g.degree(t.dst))   # a terminal edge
        mesh = build_mesh(g, h=0.01, trunc=5.0)
        u = compact_competitor(model, 10.0, 0.1, mesh, "t")
        vals[tip_at_src] = u.edge_values("t")
    peak = np.max(vals[True])
    assert vals[True][0] == peak
    np.testing.assert_allclose(vals[True], vals[False][::-1], rtol=0.0, atol=1e-12 * peak)


def test_compact_competitor_far_from_its_peak_warns_nothing():
    # cosh overflows for B x > 710, where sech^q takes its exact limit 0:
    # at p = 4, mu = 400 (B = 100) the nodes of the 20-long edge more than
    # 7.1 from the center overflow, and the support keeps five nodes
    model = make_model(4.0)
    mesh = build_mesh(double_bridge_graph(20.0), h=0.01, trunc=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = compact_competitor(model, 400.0, 0.1, mesh, "e")
        f, df = _profile_callables(4.0, 1e4)
        far = np.array([8.0, -8.0])
        assert np.all(f(far) == 0.0) and np.all(df(far) == 0.0)
        assert np.all(soliton_residual(model, 400.0, far) == 0.0)
    assert mass(u) == pytest.approx(400.0, rel=1e-12)
    assert np.count_nonzero(u.values) == 5


def test_compact_competitor_too_narrow_for_the_mesh_raises_without_warning():
    # p = 5, mu = 100 on the 0.3-long edge: the support (radius 1e-4) holds
    # no node at h = 0.02, so the competitor has no mass; the solver then
    # starts from the hat
    model = make_model(5.0)
    mesh = build_mesh(
        double_bridge_graph(0.3), h=0.02, lambda_est=model.lambda_for_mass(100.0)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolitonError, match="lost all mass"):
            compact_competitor(model, 100.0, 0.1, mesh, "e")


def test_compact_competitor_mass_too_small():
    g = double_bridge_graph(0.3)
    mesh = build_mesh(g, h=0.01, trunc=5.0)
    model = make_model(4.0)
    with pytest.raises(SolitonError, match="fitting threshold"):
        compact_competitor(model, 0.1, 0.1, mesh, "e")


def test_compact_competitor_rejects_halfline():
    g = double_bridge_graph(4.0)
    mesh = build_mesh(g, h=0.02, trunc=5.0)
    with pytest.raises(SolitonError):
        compact_competitor(make_model(4.0), 10.0, 0.1, mesh, "h1")


def _truncated_energy_by_quadrature(model, mu, kappa, half):
    """Reference: the truncated competitor's energy by adaptive quadrature in
    x, with the cut at kappa times the peak."""
    p, q = model.p, model.q
    lam = model.lambda_for_mass(2.0 * mu if half else mu)
    f, df = _profile_callables(p, lam)
    peak, cut = float(f(0.0)), kappa * float(f(0.0))
    x_c = math.acosh(kappa ** (-1.0 / q)) * q / math.sqrt(lam)

    def integral(h):
        return quad(h, 0.0, x_c, epsrel=1e-13, epsabs=0.0, limit=200)[0]

    def g(x):
        return max(float(f(x)) - cut, 0.0)

    factor = 1.0 if half else 2.0
    scale = math.sqrt(mu / (factor * integral(lambda x: g(x) ** 2)))
    kin = integral(lambda x: float(df(x)) ** 2)
    pot = integral(lambda x: (scale * g(x)) ** p)
    return factor * (0.5 * scale ** 2 * kin - pot / p), cut


@pytest.mark.parametrize("p", [2.2, 2.5, 3.0, 4.0, 5.0, 5.5, 5.9])
def test_truncated_energy_matches_adaptive_quadrature(p):
    # the fixed graded rule against quad, from a cut far out in the tail to
    # one just below the peak, where the (f - cut)^p kink dominates
    model = make_model(p)
    for kappa in (1e-9, 1e-6, 0.01, 0.1, 0.3, 0.6, 0.9, 0.999):
        for half in (False, True):
            ref, cut = _truncated_energy_by_quadrature(model, 2.0, kappa, half)
            got = _truncated_energy(model, 2.0, cut, half)
            assert got == pytest.approx(ref, rel=1e-11, abs=0.0), (kappa, half)


def _cut_fraction_at_mass(model, mu, eps, terminal):
    """Reference: the truncation level over the peak found at the given
    mass, with the 0.95 safety margin, as each competitor call once did."""
    line, half = energy_levels(model, mu)
    target = (1.0 - eps) * (half if terminal else line)
    peak = soliton_profile(model, 2.0 * mu if terminal else mu)[3]

    def gap(cut):
        return _truncated_energy(model, mu, cut, terminal) - target

    cut = brentq(gap, 1e-9 * peak, (1.0 - 1e-9) * peak, xtol=1e-16 * peak)
    return 0.95 * cut / peak


@pytest.mark.parametrize("p", [2.5, 4.0, 5.0])
def test_cut_fraction_is_free_of_the_mass(p):
    model = make_model(p)
    frac = _cut_fraction(p, 0.1)
    for mu in (0.1, 1.0, 10.0, 50.0):
        for terminal in (False, True):
            ref = _cut_fraction_at_mass(model, mu, 0.1, terminal)
            assert frac == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_competitor_fit_check_runs_no_quadrature(monkeypatch):
    g = double_bridge_graph(0.3)
    mesh = build_mesh(g, h=0.01, trunc=5.0)
    model = make_model(4.0)
    _cut_fraction(4.0, 0.1)  # warm the cache

    def no_quad(*args, **kwargs):
        raise AssertionError("quadrature ran before the fit check")

    monkeypatch.setattr(soliton, "_graded_rule", no_quad)
    with pytest.raises(SolitonError, match="fitting threshold"):
        compact_competitor(model, 0.1, 0.1, mesh, "e")


def test_fitting_competitor_and_certify_run_no_quadrature(monkeypatch):
    # past the cached cut fraction, a fitting competitor and the certificates
    # (GN constant included) are closed form
    g = example_graph(1)
    mesh = build_mesh(g, h=0.02, trunc=2.0)
    model = make_model(4.0)
    _cut_fraction(4.0, 0.1)  # warm the cache

    def no_quad(*args, **kwargs):
        raise AssertionError("quadrature ran after the cut fraction was cached")

    monkeypatch.setattr(soliton, "_graded_rule", no_quad)
    edge = g.bounded_edges[0].id
    u = compact_competitor(model, 50.0, 0.1, mesh, edge)
    assert mass(u) == pytest.approx(50.0, rel=1e-12)
    report = SimpleNamespace(
        minimizer=u, mass=50.0, energy=energy(u, 4.0), p=4.0, ground_claim=False
    )
    ver = certify(report)
    assert ver.gn_sharp == gn_sharp_constant(model)
    assert ver.gn_ok


def test_catalogue_competitors_beat_their_targets():
    # every bounded edge of Example 1 at the catalogue's mass 50 and h = 0.02
    g = example_graph(1)
    mesh = build_mesh(g, h=0.02, trunc=2.0)
    model = make_model(4.0)
    mu, eps = 50.0, 0.1
    line, half = energy_levels(model, mu)
    for e in g.bounded_edges:
        u = compact_competitor(model, mu, eps, mesh, e.id)
        assert mass(u) == pytest.approx(mu, rel=1e-12)
        assert energy(u, 4.0).total <= (1.0 - eps) * line
    # the terminal edge f of Example 2 takes the half-soliton of mass 100,
    # which is half as wide and needs h = 0.01 to resolve it
    g = example_graph(2)
    f = g.edge("f")
    assert 1 in (g.degree(f.src), g.degree(f.dst))   # a terminal edge
    mesh = build_mesh(g, h=0.01, trunc=2.0)
    u = compact_competitor(model, mu, eps, mesh, "f")
    assert energy(u, 4.0).total <= (1.0 - eps) * half
