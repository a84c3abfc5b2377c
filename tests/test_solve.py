import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

from graphnls import functional as fn
from graphnls import solve as solve_module
from graphnls.graphs import (
    double_bridge_graph,
    example_graph,
    halfline_graph,
    line_graph,
    star_graph,
)
from graphnls.mesh import GraphFunction, argmax, build_mesh, place_profile, zero_function
from graphnls.solve import (
    SolveConfig,
    SolveError,
    SolveReport,
    ThresholdReport,
    _bordered_solve,
    _classify,
    _direction,
    _equilibrate_translation,
    _iterate_at,
    _iterate_gradient,
    _line_trial,
    _newton_refine,
    _translation_pin_vector,
    bound_state_catalogue,
    ground_state,
    lagrange_multiplier,
    migrated_mass,
    minimize_on_edge,
    project_mass,
    scan_mass_threshold,
)
from graphnls.soliton import energy_levels, make_model, soliton_profile
from graphnls.verify import VerificationReport

CFG = SolveConfig(h=0.02, truncation=8.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_config_rejects_bad_grad_tol(bad):
    with pytest.raises(SolveError, match="not positive and finite"):
        SolveConfig(grad_tol=bad)


def test_line_trial_matches_direct_energy_and_gradient():
    """A line-search trial's energy, and the gradient after its update,
    equal the direct evaluations at the rescaled trial s (x - alpha d)."""
    p, mu = 4.0, 5.0
    mesh = build_mesh(double_bridge_graph(0.3), h=0.02, trunc=5.0)
    M = mesh.mass_matrix
    rng = np.random.default_rng(3)
    x = 0.1 + rng.random(mesh.ndof)
    x *= math.sqrt(mu / (x @ (M @ x)))
    d = rng.standard_normal(mesh.ndof)
    it = _iterate_at(mesh, x, p)
    dn = _direction(mesh, it, d)
    for alpha in (1e-3, 0.05, 0.3, 1.0, 4.0):
        energy, accept = _line_trial(mesh, it, dn, alpha, mu, p)
        y = x - alpha * d
        u = GraphFunction(mesh, math.sqrt(mu / (y @ (M @ y))) * y)
        assert energy == pytest.approx(fn.energy(u, p).total, rel=1e-12, abs=0.0)
        new = accept()
        np.testing.assert_allclose(new.x, u.values, rtol=1e-13, atol=0.0)
        ref = fn.grad_energy(u, p)
        err = np.linalg.norm(_iterate_gradient(mesh, new) - ref)
        assert err <= 1e-12 * np.linalg.norm(ref)


def test_project_mass_exact():
    mesh = build_mesh(star_graph(3), h=0.05, trunc=3.0)
    rng = np.random.default_rng(0)
    u = zero_function(mesh)
    u.values = rng.standard_normal(mesh.ndof)
    w = project_mass(u, 2.5)
    assert fn.mass(w) == pytest.approx(2.5, rel=1e-14)


def test_project_mass_rejects_zero():
    mesh = build_mesh(star_graph(3), h=0.1, trunc=2.0)
    with pytest.raises(SolveError):
        project_mass(zero_function(mesh), 1.0)


def test_lagrange_multiplier_of_stationary_state():
    rep = minimize_on_edge(double_bridge_graph(1.0), "e", 8.0, 4.0, CFG)
    lam = lagrange_multiplier(rep.minimizer, 4.0)
    assert lam == pytest.approx(rep.lam, rel=1e-8)
    assert lam > 0


def test_minimize_on_edge_interior_report():
    rep = minimize_on_edge(double_bridge_graph(1.0), "e", 8.0, 4.0, CFG)
    assert rep.status == "interior"
    assert rep.edge == "e"
    assert rep.mass == pytest.approx(8.0, rel=1e-6)
    assert rep.localization_margin > 0
    assert rep.el_residual < 1e-4
    assert rep.kirchhoff_residual < 1e-8
    assert np.all(np.real(rep.minimizer.values) >= 0.0)
    eid, _, _ = argmax(rep.minimizer)
    assert eid == "e"
    # a localized bound state on a short edge is not a ground state, so no
    # sandwich applies; it must still sit strictly below zero energy
    assert rep.energy.total < 0.0


def test_minimize_on_edge_small_mass_not_interior():
    # tiny mass on a short edge: the maximum constraint activates or the
    # state spreads out; interior localization needs large mass
    rep = minimize_on_edge(double_bridge_graph(0.3), "e", 0.2, 4.0, CFG)
    assert rep.status in ("constraint-active", "escaped")


def _bump_on_edge_e(mu):
    mesh = build_mesh(double_bridge_graph(1.0), h=0.05, trunc=4.0)
    u = place_profile(mesh, "e", lambda x: np.exp(-8.0 * x * x), 0.5)
    return mesh, project_mass(u, mu)


def test_classify_unconverged_nonpositive_multiplier_is_escaped():
    # a positive state with lam <= 0 cannot decay along a halfline, so no
    # bound state exists whether or not the descent converged
    mesh, u = _bump_on_edge_e(1.0)
    for lam in (0.0, -0.02):
        status, margin, _, top = _classify(
            mesh, u, lam, 1.0, "e", converged=False, left_edge=False
        )
        assert status == "escaped"
        assert top == "e"
        assert margin > 0.0


def test_classify_unconverged_positive_multiplier_is_not_converged():
    mesh, u = _bump_on_edge_e(1.0)
    status, margin, m_loss, _ = _classify(
        mesh, u, 0.5, 1.0, "e", converged=False, left_edge=False
    )
    assert status == "not-converged"
    assert margin > 0.0
    assert m_loss == pytest.approx(migrated_mass(u))
    status, *_ = _classify(mesh, u, 0.5, 1.0, "e", converged=False, left_edge=True)
    assert status == "escaped"


def test_minimize_on_edge_below_threshold_escapes_without_converging():
    # the 400-step descent phase stops short of tolerance with lam < 0:
    # the multiplier alone decides the status
    mu = 0.1
    rep = minimize_on_edge(
        double_bridge_graph(0.3), "e", mu, 4.0, SolveConfig(h=0.02, truncation=30.0)
    )
    assert rep.status == "escaped"
    assert rep.lam <= 0.0
    assert rep.converged is False
    assert rep.to_dict(include_function=False)["converged"] is False
    assert rep.mass_loss == pytest.approx(migrated_mass(rep.minimizer))
    assert rep.mass_loss > 0.05 * mu


def _descents_that_leave(monkeypatch):
    """Make every descent report that its argmax left the edge; record the
    start of each call and the eps of each competitor request."""
    starts, eps_seen = [], []

    def leaving_descent(mesh, u0, mu, p, cfg, monitor_edge=None):
        starts.append(u0.values.copy())
        return project_mass(u0, mu), 1.0, 1.0, 0, False, True

    def spy_competitor(model, mu, eps, *args, **kwargs):
        eps_seen.append(eps)
        return solve_module.compact_competitor.__wrapped__(model, mu, eps, *args, **kwargs)

    spy_competitor.__wrapped__ = solve_module.compact_competitor
    monkeypatch.setattr(solve_module, "_descend", leaving_descent)
    monkeypatch.setattr(solve_module, "compact_competitor", spy_competitor)
    return starts, eps_seen


def test_minimize_on_edge_tries_the_fallback_hat_once(monkeypatch):
    # below the fitting threshold every attempt would rebuild the same
    # eps-independent hat, so one descent is enough
    starts, eps_seen = _descents_that_leave(monkeypatch)
    minimize_on_edge(double_bridge_graph(0.3), "e", 0.5, 4.0, CFG)
    assert eps_seen == [0.1]
    assert len(starts) == 1


def test_minimize_on_edge_restarts_narrower_competitors(monkeypatch):
    # at mass 100 the competitors for eps = 0.1, 0.05 and 0.025 fit on the
    # edge of length 0.3; the fourth attempt falls back to the hat
    starts, eps_seen = _descents_that_leave(monkeypatch)
    minimize_on_edge(double_bridge_graph(0.3), "e", 100.0, 4.0, CFG)
    assert eps_seen == [0.1, 0.05, 0.025, 0.0125]
    assert len(starts) == 4
    for a, b in zip(starts, starts[1:]):
        assert not np.array_equal(a, b)


def test_minimize_on_edge_rejects_halfline():
    with pytest.raises(SolveError):
        minimize_on_edge(star_graph(3), "h1", 1.0, 4.0, CFG)


def test_solve_report_serializes():
    rep = minimize_on_edge(double_bridge_graph(1.0), "e", 8.0, 4.0, CFG)
    doc = rep.to_dict()
    assert doc["status"] == "interior"
    assert doc["edge"] == "e"
    assert "minimizer" in doc
    assert doc["ground_claim"] is False
    assert doc["converged"] is True
    slim = rep.to_dict(include_function=False)
    assert "minimizer" not in slim


def test_report_dict_keys():
    # the serialized documents keep their keys, in field order
    mesh = build_mesh(halfline_graph(), h=0.1, trunc=2.0)
    rep = SolveReport(
        zero_function(mesh), fn.EnergyBreakdown(0.0, 0.0, 0.0, 4.0), 1.0, 1.0, 0.0, 0.1,
        0.0, 0.0, "interior", True, 3, "e", 4.0, SolveConfig(truncation="auto"),
    )
    config = rep.to_dict(include_function=False)["config"]
    assert list(config) == ["grad_tol", "max_iter", "h", "truncation", "seed"]
    assert config["truncation"] == "auto"
    scan = ThresholdReport([0.5, 5.0], ["escaped", "interior"], [-0.1, -2.0], 5.0, True)
    assert list(scan.to_dict()) == ["mu_grid", "statuses", "energies", "threshold", "monotone"]
    ver = VerificationReport(
        True, 0.0, None, -1.0, -1.0, -4.0, True, -5.0, 2, True, 1.0, 1.2, True, 0.5
    )
    assert list(ver.to_dict()) == [
        "positive", "min_value", "sandwich_ok", "energy", "line_level", "halfline_level",
        "ge3_ok", "ge3_level", "preimage_n", "gn_ok", "gn_ratio", "gn_sharp", "linf_ok",
        "linf_ratio", "all_ok",
    ]
    assert ver.to_dict()["all_ok"] is True
    json.dumps([rep.to_dict(), scan.to_dict(), ver.to_dict()])


def test_migrated_mass_small_for_localized_state():
    rep = minimize_on_edge(double_bridge_graph(1.0), "e", 8.0, 4.0, CFG)
    assert migrated_mass(rep.minimizer) < 0.05 * 8.0


def test_catalogue_one_report_per_bounded_edge():
    g = example_graph(4)
    reports = bound_state_catalogue(g, 20.0, 4.0, SolveConfig(h=0.02, truncation=4.0))
    assert sorted(r.edge for r in reports) == ["e", "f", "g"]
    for r in reports:
        assert r.status == "interior"
        assert r.lam > 0


def test_catalogue_needs_bounded_edges():
    with pytest.raises(SolveError):
        bound_state_catalogue(star_graph(3), 5.0, 4.0, CFG)


@pytest.fixture(scope="module")
def ex3_newton_system():
    """Newton matrix H = K - W + lam M at the converged Example 3 state on
    edge e, with the mass border M u and the translation pin w."""
    rep = minimize_on_edge(example_graph(3), "e", 10.0, 4.0, SolveConfig(h=0.01, truncation=6.0))
    assert rep.converged
    u = rep.minimizer
    mesh = u.mesh
    x = np.real(u.values)
    H = (mesh.stiffness_matrix - fn.nonlinear_jacobian(u, 4.0) + rep.lam * mesh.mass_matrix).tocsc()
    w = _translation_pin_vector(mesh, "e", 4.0, rep.lam, argmax(u)[1])
    return rep, H, mesh.mass_matrix @ x, w


def _check_bordered_solve(H, B, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(H.shape[0])
    g = rng.standard_normal(B.shape[1])
    x, m = _bordered_solve(H, B, f, g)
    A = sp.bmat([[H, B], [B.T, None]], format="csc")
    rhs = np.concatenate([f, g])
    z = np.concatenate([x, m])
    assert np.linalg.norm(A @ z - rhs) <= 1e-10 * np.linalg.norm(rhs)
    ref = splu(A).solve(rhs)
    assert np.linalg.norm(z - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_solve_matches_assembled_system(ex3_newton_system, k):
    _, H, Mu, w = ex3_newton_system
    B = np.column_stack([Mu, w][:k])
    _check_bordered_solve(H, B, seed=k)


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_solve_refines_nearly_singular_hessian(ex3_newton_system, k):
    # shift the eigenvalue of H nearest zero to 1e-8: without refinement
    # the bordered residual is then about 5e-8
    _, H, Mu, w = ex3_newton_system
    nearest = eigsh(H, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0]
    Hs = (H - (nearest - 1e-8) * sp.identity(H.shape[0])).tocsc()
    B = np.column_stack([Mu, w][:k])
    _check_bordered_solve(Hs, B, seed=10 + k)


def test_newton_refine_keeps_converged_state(ex3_newton_system):
    rep, _, _, _ = ex3_newton_system
    mesh = rep.minimizer.mesh
    x = np.real(rep.minimizer.values)
    _, lam, _, ok = _newton_refine(mesh, x, rep.lam, 10.0, 4.0, 1e-8 * 10.0)
    assert ok
    assert lam == pytest.approx(rep.lam, rel=1e-10)
    # a tighter tolerance forces Newton steps; lam moves only by about the
    # residual of the descended state
    _, lam, res, ok = _newton_refine(mesh, x, rep.lam, 10.0, 4.0, 1e-10)
    assert ok and res <= 1e-10
    assert lam == pytest.approx(rep.lam, rel=1e-9)


@pytest.fixture(scope="module")
def ex1_e1_state():
    rep = minimize_on_edge(example_graph(1), "e1", 50.0, 4.0, SolveConfig(h=0.02, truncation=2.0))
    assert rep.converged
    return rep


@pytest.mark.parametrize("offset", [-0.2, -0.1, 0.1, 0.2])
def test_equilibrate_translation_recovers_off_center_soliton(ex1_e1_state, offset):
    # a line soliton placed off the equilibrium peak position stalls plain
    # Newton on the flat translation mode; equilibration moves it back
    rep = ex1_e1_state
    mesh = rep.minimizer.mesh
    mu, p, tol = 50.0, 4.0, 1e-8 * 50.0
    c_star = argmax(rep.minimizer)[1]
    f = soliton_profile(make_model(p), mu)[0]
    u = project_mass(place_profile(mesh, "e1", f, c_star + offset), mu)
    lam = lagrange_multiplier(u, p)
    assert not _newton_refine(mesh, u.values, lam, mu, p, tol)[3]
    eq = _equilibrate_translation(mesh, u.values, lam, mu, p, "e1", tol)
    assert eq is not None
    x, lam, _, ok = _newton_refine(mesh, eq[0], eq[1], mu, p, tol)
    assert ok
    energy = fn.energy(GraphFunction(mesh, x), p).total
    assert energy == pytest.approx(rep.energy.total, rel=1e-10)
    assert lam == pytest.approx(rep.lam, rel=1e-10)


def test_equilibrate_translation_needs_room_on_the_edge(monkeypatch):
    # on an edge of length 4h the admissible centers [2h, L - 2h] collapse,
    # so no pinned solve is tried
    def no_pinned_solve(*args, **kwargs):
        raise AssertionError("pinned solve on an edge without room")

    monkeypatch.setattr(solve_module, "_pinned_newton", no_pinned_solve)
    mesh = build_mesh(double_bridge_graph(0.04), h=0.01, trunc=2.0)
    u = project_mass(place_profile(mesh, "e", lambda x: 1.0 - np.abs(x) / 0.02, 0.02), 1.0)
    lam = lagrange_multiplier(u, 4.0)
    assert _equilibrate_translation(mesh, u.values, lam, 1.0, 4.0, "e", 1e-8) is None


def test_ground_state_halfline_matches_half_soliton():
    rep = ground_state(halfline_graph(), 2.0, 4.0, SolveConfig(h=0.01, truncation="auto"))
    assert rep.ground_claim
    _, half = energy_levels(make_model(4.0), 2.0)
    assert rep.energy.total == pytest.approx(half, rel=1e-3)


def test_ground_state_line_matches_soliton():
    rep = ground_state(line_graph(10.0), 2.0, 4.0, SolveConfig(h=0.01, truncation="auto"))
    line, half = energy_levels(make_model(4.0), 2.0)
    assert rep.energy.total == pytest.approx(line, rel=1e-3)
    assert half - 1e-9 <= rep.energy.total


@pytest.mark.parametrize("gap, expected", [(1e-15, "e"), (1e-9, "f")])
def test_ground_state_ties_go_to_the_first_candidate(monkeypatch, gap, expected):
    # edge f sits below edge e by a relative gap: within roundoff (1e-15)
    # the first candidate in search order wins, beyond it the minimum does
    energies = {"e": -100.0, "f": -100.0 * (1.0 + gap), "g": -50.0}
    assert energies["f"] < energies["e"]

    def stub_solve(g, edge_id, mu, p, cfg, mesh=None):
        return SimpleNamespace(
            edge=edge_id,
            converged=True,
            energy=SimpleNamespace(total=energies[edge_id]),
            ground_claim=False,
        )

    def no_descent(*args, **kwargs):
        raise SolveError("free descents are not part of this test")

    monkeypatch.setattr(solve_module, "minimize_on_edge", stub_solve)
    monkeypatch.setattr(solve_module, "_descend", no_descent)
    rep = ground_state(example_graph(4), 10.0, 4.0, SolveConfig(h=0.05, truncation=2.0))
    assert rep.edge == expected
    assert rep.ground_claim


def test_scan_mass_threshold_transitions():
    g = double_bridge_graph(0.3)
    report = scan_mass_threshold(
        g, "e", 4.0, [0.5, 5.0, 50.0], SolveConfig(h=0.02, truncation=20.0)
    )
    assert report.statuses[0] in ("constraint-active", "escaped")
    assert report.statuses[-1] == "interior"
    assert report.threshold is not None and report.threshold <= 50.0
    assert report.monotone


def test_scan_rejects_bad_grid():
    g = double_bridge_graph(0.3)
    with pytest.raises(SolveError):
        scan_mass_threshold(g, "e", 4.0, [1.0, 1.0, 2.0], CFG)
    with pytest.raises(SolveError):
        scan_mass_threshold(g, "e", 4.0, [], CFG)
