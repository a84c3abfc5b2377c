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
    _bordered_solve,
    _classify,
    _equilibrate_translation,
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

CFG = SolveConfig(h=0.02, truncation=8.0)


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
