import json
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh, splu

from graphnls import functional as fn
from graphnls import solve as solve_module
from graphnls.graphs import (
    Edge,
    MetricGraph,
    double_bridge_graph,
    example_graph,
    halfline_graph,
    line_graph,
    star_graph,
)
from graphnls.mesh import (
    GraphFunction,
    Mesh,
    MeshError,
    argmax,
    build_mesh,
    place_profile,
    zero_function,
)
from graphnls.solve import (
    SolveConfig,
    SolveError,
    SolveReport,
    ThresholdReport,
    _bb_step,
    _bordered_solve,
    _classify,
    _direction,
    _equilibrate_translation,
    _halfline_starts,
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
from graphnls.soliton import SolitonError, energy_levels, make_model, soliton_profile
from graphnls.verify import VerificationReport

CFG = SolveConfig(h=0.02, truncation=8.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, True])
def test_config_rejects_bad_grad_tol(bad):
    with pytest.raises(SolveError, match="not positive and finite"):
        SolveConfig(grad_tol=bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h": math.nan},
        {"h": 0.0},
        {"h": -0.01},
        {"h": math.inf},
        {"h": "0.01"},
        {"h": True},
        {"h": 10**400},
        {"truncation": "x"},
        {"truncation": math.nan},
        {"truncation": 0.0},
        {"truncation": -3.0},
        {"truncation": math.inf},
        {"truncation": True},
        {"max_iter": 2.5},
        {"max_iter": 0},
        {"max_iter": -3},
        {"max_iter": "400"},
        {"max_iter": True},
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(SolveError):
        SolveConfig(**kwargs)


@pytest.mark.parametrize("mu", [True, "3"])
def test_minimize_on_edge_rejects_a_mass_that_is_not_a_number(mu):
    # the mass meets the multiplier map first, as a mass of 0 does
    with pytest.raises(SolitonError, match="positive and finite"):
        minimize_on_edge(example_graph(3), "e", mu, 4.0, CFG)


def test_config_accepts_numpy_scalars_and_auto():
    cfg = SolveConfig(h=np.float64(0.02), truncation=np.float32(8.0), max_iter=np.int64(3))
    assert cfg.max_iter == 3
    assert SolveConfig(truncation="auto").truncation == "auto"


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


def _bb_pair(shift):
    """Two descent iterates, the second from an accepted line-search trial
    (its K x and M x held, not recomputed), with residuals whose secant
    dx.dr is positive."""
    p, mu = 4.0, 5.0
    mesh = build_mesh(double_bridge_graph(0.3), h=0.02, trunc=5.0)
    H = mesh.stiffness_matrix + shift * mesh.mass_matrix
    rng = np.random.default_rng(5)
    x = 0.1 + rng.random(mesh.ndof)
    x *= math.sqrt(mu / (x @ (mesh.mass_matrix @ x)))
    prev = _iterate_at(mesh, x, p)
    dn = _direction(mesh, prev, rng.standard_normal(mesh.ndof))
    it = _line_trial(mesh, prev, dn, 0.05, mu, p)[1]()
    prev_r = rng.standard_normal(mesh.ndof)
    r = prev_r + 0.5 * (H @ (it.x - prev.x))
    return H, it, prev, r, prev_r


def test_bb_step_is_measured_in_the_preconditioner_metric():
    shift = 3.7
    H, it, prev, r, prev_r = _bb_pair(shift)
    dx, dr = it.x - prev.x, r - prev_r
    direct = dx @ (H @ dx) / (dx @ dr)
    assert 1e-6 < direct < 1e3
    assert _bb_step(it, prev, r, prev_r, shift, 0.5) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_bb_step_keeps_the_last_step_without_positive_curvature():
    H, it, prev, r, prev_r = _bb_pair(1.0)
    flipped = prev_r - (r - prev_r)  # dx.dr < 0
    assert _bb_step(it, prev, flipped, prev_r, 1.0, 0.37) == 0.37
    assert _bb_step(it, prev, prev_r, prev_r, 1.0, 0.37) == 0.37  # dx.dr = 0


@pytest.mark.parametrize("edge", ["e1", "e4", "e6"])
def test_catalogue_descents_take_few_steps(edge):
    # the secant step in the preconditioner's metric lands near the line
    # minimum; a Euclidean step needs 71 steps on these edges
    cfg = SolveConfig(h=0.02, truncation=2.0)
    rep = minimize_on_edge(example_graph(1), edge, 50.0, 4.0, cfg)
    assert rep.status == "interior"
    assert rep.iterations <= 20


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


def test_minimize_on_edge_warns_once_naming_the_degree_two_endpoints(caplog):
    # both ends of the line's edge are pass-through vertices: one warning
    # per solve names them, not one per endpoint
    with caplog.at_level(logging.WARNING, logger="graphnls.solve"):
        minimize_on_edge(line_graph(10.0), "e", 2.0, 4.0, CFG)
    assert [r.getMessage() for r in caplog.records] == [
        "edge 'e' has endpoints of degree two (v1, v2); normalize the graph "
        "to merge pass-through vertices"
    ]


def _bump_on_edge_e(mu):
    mesh = build_mesh(double_bridge_graph(1.0), h=0.05, trunc=4.0)
    u = place_profile(mesh, "e", lambda x: np.exp(-8.0 * x * x), 0.5)
    return mesh, project_mass(u, mu)


def test_classify_unconverged_nonpositive_multiplier_is_escaped():
    # a positive state with lam <= 0 cannot decay along a halfline, so no
    # bound state exists whether or not the descent converged
    mesh, u = _bump_on_edge_e(1.0)
    for lam in (0.0, -0.02):
        status, margin, _ = _classify(mesh, u, lam, 1.0, "e", converged=False)
        assert status == "escaped"
        assert argmax(u)[0] == "e"
        assert margin > 0.0


def test_classify_unconverged_positive_multiplier_is_not_converged():
    mesh, u = _bump_on_edge_e(1.0)
    status, margin, m_loss = _classify(mesh, u, 0.5, 1.0, "e", converged=False)
    assert status == "not-converged"
    assert margin > 0.0
    assert m_loss == pytest.approx(migrated_mass(u))


def test_classify_unconverged_state_peaked_off_its_edge_is_escaped():
    # where the maximum lies is read from the final state: a state peaked on
    # the halfline h1 holds no bound state on e, converged or not
    mesh, _ = _bump_on_edge_e(1.0)
    u = project_mass(place_profile(mesh, "h1", lambda x: np.exp(-8.0 * x * x), 1.0), 1.0)
    status, margin, _ = _classify(mesh, u, 0.5, 1.0, "e", converged=False)
    assert (status, argmax(u)[0]) == ("escaped", "h1")
    assert margin < 0.0


def test_classify_maximum_on_a_vertex_is_constraint_active():
    # the maximum sits on the vertex v1 of e, shared with h1 and h2: margin 0
    mesh, _ = _bump_on_edge_e(1.0)
    u = project_mass(place_profile(mesh, "e", lambda x: np.exp(-8.0 * x * x), 0.0), 1.0)
    status, margin, _ = _classify(mesh, u, 0.5, 1.0, "e", converged=True)
    assert (status, margin, argmax(u)[0]) == ("constraint-active", 0.0, "e")


def test_classify_maximum_next_to_a_branch_vertex_is_constraint_active():
    # the maximum is one node (h = 0.05) from the degree-3 vertex v1 and
    # strictly above it: margin > 0, but within 2h of the branch vertex
    mesh, _ = _bump_on_edge_e(1.0)
    u = project_mass(place_profile(mesh, "e", lambda x: np.exp(-8.0 * x * x), 0.05), 1.0)
    status, margin, _ = _classify(mesh, u, 0.5, 1.0, "e", converged=True)
    assert (status, argmax(u)[0]) == ("constraint-active", "e")
    assert margin > 0.0
    assert argmax(u)[1] == pytest.approx(0.05)


SCAN_CFG = SolveConfig(h=0.02, truncation=30.0)


def test_minimize_on_edge_below_threshold_converges_with_negative_multiplier():
    # the descent converges with lam < 0: no positive state of mass 0.1
    # decays along the halflines, so the state is escaped
    mu = 0.1
    rep = minimize_on_edge(double_bridge_graph(0.3), "e", mu, 4.0, SCAN_CFG)
    assert rep.status == "escaped"
    assert rep.lam <= 0.0
    assert rep.converged is True
    assert rep.to_dict(include_function=False)["converged"] is True
    assert rep.mass_loss == pytest.approx(migrated_mass(rep.minimizer))
    assert rep.mass_loss > 0.05 * mu


@pytest.mark.parametrize("mu", [0.25, 1.0, 5.0])
def test_scan_descents_stop_well_before_the_step_cap(mu):
    # preconditioned at the multiplier it heads for, the descent converges
    # in tens of steps, far from the 400-step cap
    rep = minimize_on_edge(double_bridge_graph(0.3), "e", mu, 4.0, SCAN_CFG)
    assert rep.converged
    assert rep.iterations < 100


@pytest.mark.parametrize("mu, trunc", [(0.5, 60.0), (0.5, 120.0), (0.8, 60.0), (0.8, 120.0)])
def test_small_multiplier_descents_hand_over_to_newton_in_reach(mu, trunc):
    # lambda is 0.004-0.01 here: a hand-over at a residual of 1e-3 leaves it
    # 7-12 % off and Newton fails; scaled with the line multiplier, Newton
    # converges to a resolved interior state
    cfg = SolveConfig(h=0.02, truncation=trunc, max_iter=3000)
    rep = minimize_on_edge(double_bridge_graph(0.3), "e", mu, 4.0, cfg)
    assert rep.status == "interior"
    assert rep.el_residual <= 1e-12


@pytest.mark.parametrize("mu", [0.1, 1.0, 5.0, 20.0])
def test_minimize_on_edge_follows_the_scaling_law(mu):
    # at p = 4, u -> s u(s x) maps mass mu to s mu, energy E to s^3 E and
    # lam to s^2 lam: doubling every length (s = 1/2) halves the mass and
    # must give the same status with E / 8 and lam / 4
    small = minimize_on_edge(double_bridge_graph(0.3), "e", mu, 4.0, SCAN_CFG)
    big = minimize_on_edge(
        double_bridge_graph(0.6), "e", mu / 2.0, 4.0, SolveConfig(h=0.04, truncation=60.0)
    )
    assert big.status == small.status
    assert small.energy.total == pytest.approx(8.0 * big.energy.total, rel=1e-6)
    assert small.lam == pytest.approx(4.0 * big.lam, rel=1e-6)


def test_minimize_on_edge_rejects_an_unresolved_soliton():
    # at p = 5 and mass 100 the line soliton's width is 3e-5, far below h
    message = r"h=0\.02 .*width 1/sqrt\(lambda\)"
    with pytest.raises(SolveError, match=message):
        minimize_on_edge(double_bridge_graph(0.3), "e", 100.0, 5.0, SolveConfig(h=0.02))
    with pytest.raises(SolveError, match=message):
        ground_state(double_bridge_graph(0.3), 100.0, 5.0, SolveConfig(h=0.02))


def _descents_that_leave(monkeypatch):
    """Make every descent end on a state peaked on the halfline h1; record
    the start of each call and the eps of each competitor request."""
    starts, eps_seen = [], []

    def leaving_descent(mesh, u0, mu, p, cfg):
        starts.append(u0.values.copy())
        u = project_mass(place_profile(mesh, "h1", lambda x: np.exp(-x * x), 1.0), mu)
        return u, 1.0, 1.0, 0, False, np.zeros(mesh.ndof)

    def spy_competitor(model, mu, eps, *args, **kwargs):
        eps_seen.append(eps)
        return solve_module.compact_competitor.__wrapped__(model, mu, eps, *args, **kwargs)

    spy_competitor.__wrapped__ = solve_module.compact_competitor
    monkeypatch.setattr(solve_module, "_descend", leaving_descent)
    monkeypatch.setattr(solve_module, "compact_competitor", spy_competitor)
    return starts, eps_seen


def test_minimize_on_edge_tries_the_fallback_hat_once(monkeypatch):
    # one start, one descent: below the fitting threshold (mu = 0.5) the
    # start is the hat, at mu = 100 the eps = 0.1 competitor; a descent that
    # ends off the edge is reported, not retried
    starts, eps_seen = _descents_that_leave(monkeypatch)
    support = {}
    for mu in (0.5, 100.0):
        starts.clear()
        eps_seen.clear()
        rep = minimize_on_edge(double_bridge_graph(0.3), "e", mu, 4.0, CFG)
        assert eps_seen == [0.1]
        assert len(starts) == 1
        assert rep.status == "escaped"
        support[mu] = np.count_nonzero(starts[0])
    assert support[100.0] < support[0.5]


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
    scan = ThresholdReport(
        [0.5, 5.0], ["escaped", "interior"], [-0.1, -2.0], 5.0, True, [None, None]
    )
    assert list(scan.to_dict()) == [
        "mu_grid", "statuses", "energies", "threshold", "monotone", "reasons"
    ]
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
    """Entries of the Newton matrix H = K - W + lam M at the converged
    Example 3 state on edge e, with the mass border M u and the translation
    pin w."""
    rep = minimize_on_edge(example_graph(3), "e", 10.0, 4.0, SolveConfig(h=0.01, truncation=6.0))
    assert rep.converged
    u = rep.minimizer
    mesh = u.mesh
    x = np.real(u.values)
    W = fn.nonlinear_jacobian(u, 4.0)
    data = mesh.stiffness_matrix.data - W.data + rep.lam * mesh.mass_matrix.data
    w = _translation_pin_vector(mesh, "e", 4.0, rep.lam, argmax(u)[1])
    return rep, data, mesh.mass_matrix @ x, w


def _check_bordered_solve(mesh, data, B, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(mesh.ndof)
    g = rng.standard_normal(B.shape[1])
    x, m = _bordered_solve(mesh, data, B, f, g)
    A = mesh.stencil_matrix(data, "csc", border=B)
    rhs = np.concatenate([f, g])
    z = np.concatenate([x, m])
    assert np.linalg.norm(A @ z - rhs) <= 1e-10 * np.linalg.norm(rhs)
    ref = splu(A).solve(rhs)
    assert np.linalg.norm(z - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_solve_matches_assembled_system(ex3_newton_system, k):
    rep, data, Mu, w = ex3_newton_system
    B = np.column_stack([Mu, w][:k])
    _check_bordered_solve(rep.minimizer.mesh, data, B, seed=k)


def _count_chain_solves(monkeypatch):
    """Wrap ``Mesh.factor`` so that each factorization appends a counter of
    the calls of the solve it returns; the list of counters is returned."""
    counts = []
    factor = Mesh.factor

    def counting_factor(self, data, border=None):
        solve = factor(self, data, border)
        counts.append(0)

        def counted(f, g=()):
            counts[-1] += 1
            return solve(f, g)

        return counted

    monkeypatch.setattr(Mesh, "factor", counting_factor)
    return counts


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_solve_stops_after_one_chain_solve_on_newton_systems(ex3_newton_system, k, monkeypatch):
    rep, data, Mu, w = ex3_newton_system
    solves = _count_chain_solves(monkeypatch)
    _check_bordered_solve(rep.minimizer.mesh, data, np.column_stack([Mu, w][:k]), seed=k)
    assert solves == [1]


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_solve_matches_assembled_system_at_nearly_singular_hessian(
    ex3_newton_system, k, monkeypatch
):
    # shift the eigenvalue of H nearest zero to 1e-8: the bordered system
    # stays regular, and the first chain solve already passes the
    # backward-error test, so the agreement needs no refinement
    rep, data, Mu, w = ex3_newton_system
    mesh = rep.minimizer.mesh
    nearest = eigsh(mesh.stencil_matrix(data), k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0]
    shifted = data.copy()
    shifted[mesh.diagonal_slots] -= nearest - 1e-8
    B = np.column_stack([Mu, w][:k])
    solves = _count_chain_solves(monkeypatch)
    _check_bordered_solve(mesh, shifted, B, seed=10 + k)
    assert solves == [1]


def test_bordered_solve_uses_the_chain_factorization_on_newton_systems(ex3_newton_system, monkeypatch):
    rep, data, Mu, w = ex3_newton_system
    calls = []
    monkeypatch.setattr(solve_module, "splu", lambda A: calls.append(A) or splu(A))
    _check_bordered_solve(rep.minimizer.mesh, data, np.column_stack([Mu, w]), seed=3)
    assert calls == []


def _stencil_slot(mesh, r, c):
    """The data slot of entry (r, c) of the stencil pattern."""
    lo, hi = mesh.stencil_indptr[r], mesh.stencil_indptr[r + 1]
    return lo + int(np.flatnonzero(mesh.stencil_indices[lo:hi] == c)[0])


@pytest.mark.parametrize("pivot", [0.0, 1e-15])
def test_bordered_solve_falls_back_to_superlu_when_the_chain_is_singular(pivot, monkeypatch):
    # the first interior dof keeps only its vertex coupling and a diagonal
    # entry ``pivot``: at 0 the chain is singular, at 1e-15 its elimination
    # loses digits, though the bordered matrix is well conditioned either way
    mesh = build_mesh(double_bridge_graph(0.3), h=0.05, trunc=3.0)
    M, K = mesh.mass_matrix, mesh.stiffness_matrix
    data = K.data + M.data
    first = mesh.vertex_dofs.size
    data[_stencil_slot(mesh, first, first)] = pivot
    data[[_stencil_slot(mesh, first, first + 1), _stencil_slot(mesh, first + 1, first)]] = 0.0
    B = (M @ np.ones(mesh.ndof))[:, None]
    assert np.linalg.cond(mesh.stencil_matrix(data, border=B).toarray()) < 1e4
    if pivot == 0.0:
        with pytest.raises(np.linalg.LinAlgError, match="chain singular"):
            mesh.factor(data, B)
    else:
        mesh.factor(data, B)   # factors; the refined solve fails the backward-error check
    calls = []
    monkeypatch.setattr(solve_module, "splu", lambda A: calls.append(A) or splu(A))
    _check_bordered_solve(mesh, data, B, seed=4)
    assert len(calls) == 1


@pytest.mark.parametrize("pivot, solves", [(1e-8, 2), (1e-12, 3)])
def test_bordered_solve_refines_a_weak_chain_pivot(pivot, solves, monkeypatch):
    # the first interior dof keeps only its vertex coupling and a small
    # diagonal entry: the first chain solve fails the backward-error test,
    # and refinement passes it before SuperLU is needed
    mesh = build_mesh(double_bridge_graph(0.3), h=0.05, trunc=3.0)
    M, K = mesh.mass_matrix, mesh.stiffness_matrix
    data = K.data + M.data
    first = mesh.vertex_dofs.size
    data[_stencil_slot(mesh, first, first)] = pivot
    data[[_stencil_slot(mesh, first, first + 1), _stencil_slot(mesh, first + 1, first)]] = 0.0
    B = (M @ np.ones(mesh.ndof))[:, None]
    counts = _count_chain_solves(monkeypatch)
    calls = []
    monkeypatch.setattr(solve_module, "splu", lambda A: calls.append(A) or splu(A))
    _check_bordered_solve(mesh, data, B, seed=4)
    assert counts == [solves] and calls == []


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


def test_newton_stops_when_it_stalls(ex1_e1_state, monkeypatch):
    # an off-center soliton creeps along the flat translation mode: Newton
    # gives up after STALL_STEPS weak steps instead of running to its cap
    rep = ex1_e1_state
    mesh = rep.minimizer.mesh
    mu, p, tol = 50.0, 4.0, 1e-8 * 50.0
    f = soliton_profile(make_model(p), mu)[0]
    u = project_mass(place_profile(mesh, "e1", f, argmax(rep.minimizer)[1] + 0.1), mu)
    lam = lagrange_multiplier(u, p)
    jacobian = fn.nonlinear_jacobian
    calls = []

    def counted_jacobian(*args):
        calls.append(1)
        return jacobian(*args)

    monkeypatch.setattr(fn, "nonlinear_jacobian", counted_jacobian)
    stall = solve_module.STALL_STEPS
    steps = []
    for stall_steps in (stall, 10**9):
        monkeypatch.setattr(solve_module, "STALL_STEPS", stall_steps)
        calls.clear()
        assert not _newton_refine(mesh, u.values, lam, mu, p, tol, max_iter=50)[3]
        steps.append(len(calls))
    assert stall <= steps[0] < 2 * stall
    assert steps[1] == 50


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


@pytest.mark.parametrize(
    "g, first_halflines",
    [
        (example_graph(1), ["h1", "h2", "h3", "h5"]),  # h3 and h4 both at v7
        (example_graph(3), ["h1"]),
        (star_graph(3), ["h1"]),
        (line_graph(), ["h1", "h2"]),
    ],
)
def test_halfline_starts_one_per_halfline_vertex(g, first_halflines):
    # halflines at one vertex are swapped by an automorphism: only the
    # first of them in input order gets the half-soliton start
    mesh = build_mesh(g, h=0.1, trunc=2.0)
    model = make_model(4.0)
    f = soliton_profile(model, 2.0 * 3.0)[0]
    starts = _halfline_starts(mesh, model, 3.0)
    assert len(starts) == len(first_halflines)
    for u0, eid in zip(starts, first_halflines):
        expected = place_profile(mesh, eid, f, 0.0)
        np.testing.assert_array_equal(u0.values, expected.values)


def _counting_edge_solves(monkeypatch):
    """The edges that ``minimize_on_edge`` is called on, as they come."""
    edges = []
    real_solve = solve_module.minimize_on_edge

    def counting_solve(g, edge_id, *args, **kwargs):
        edges.append(edge_id)
        return real_solve(g, edge_id, *args, **kwargs)

    monkeypatch.setattr(solve_module, "minimize_on_edge", counting_solve)
    return edges


def _reversed(g, edge_ids):
    """``g`` with the bounded edges ``edge_ids`` run the other way."""
    return MetricGraph(
        g.vertices,
        tuple(Edge(e.id, e.dst, e.src, e.length) if e.id in edge_ids else e for e in g.edges),
        g.name,
    )


def test_ground_state_solves_one_edge_per_twin_class(monkeypatch):
    # f and g are twins: g's solve would be f's mirror image and lose the tie
    edges = _counting_edge_solves(monkeypatch)
    rep = ground_state(example_graph(3), 10.0, 4.0, SolveConfig(h=0.01, truncation=6.0))
    assert edges == ["e", "f"]
    assert (rep.edge, rep.status) == ("e", "interior")
    assert rep.energy.total == pytest.approx(-10.415907361771684, rel=1e-12)


def test_catalogue_mirrors_a_twin_onto_its_reversed_edge(monkeypatch):
    g = _reversed(example_graph(3), {"g"})
    cfg = SolveConfig(h=0.02, truncation=4.0)
    edges = _counting_edge_solves(monkeypatch)
    reports = bound_state_catalogue(g, 20.0, 4.0, cfg)
    assert edges == ["e", "f"]
    twin = reports[2]
    alone = minimize_on_edge(g, "g", 20.0, 4.0, cfg, mesh=twin.minimizer.mesh)
    assert (twin.edge, twin.status) == ("g", alone.status) == ("g", "interior")
    assert twin.iterations == reports[1].iterations
    assert twin.energy.total == pytest.approx(alone.energy.total, rel=1e-12)
    assert twin.lam == pytest.approx(alone.lam, rel=1e-12)
    np.testing.assert_allclose(
        twin.minimizer.values, alone.minimizer.values,
        rtol=0, atol=1e-9 * np.max(alone.minimizer.values),
    )


@pytest.mark.parametrize("n", [3, 4])
def test_catalogue_is_invariant_under_reversing_every_edge(n):
    g = example_graph(n)
    cfg = SolveConfig(h=0.02, truncation=4.0)
    forward = bound_state_catalogue(g, 20.0, 4.0, cfg)
    backward = bound_state_catalogue(_reversed(g, {e.id for e in g.bounded_edges}), 20.0, 4.0, cfg)
    for a, b in zip(forward, backward):
        assert (a.edge, a.status) == (b.edge, b.status)
        assert b.energy.total == pytest.approx(a.energy.total, rel=1e-12)


def test_ground_state_halfline_makes_one_free_descent(monkeypatch):
    # no bounded edge and one halfline vertex: one half-soliton start, no
    # random starts
    calls = []
    real_descend = solve_module._descend

    def counting_descend(*args):
        calls.append(args)
        return real_descend(*args)

    monkeypatch.setattr(solve_module, "_descend", counting_descend)
    rep = ground_state(halfline_graph(), 2.0, 4.0, SolveConfig(h=0.01))
    assert len(calls) == 1
    assert rep.ground_claim and rep.converged


def _ground_pick(monkeypatch, energies, cfg):
    """The ground search's pick among stub edge solves of given energies."""

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
    rep = ground_state(example_graph(4), 10.0, 4.0, cfg)
    assert rep.ground_claim
    return rep.edge


@pytest.mark.parametrize("gap, expected", [(1e-15, "e"), (1e-9, "f")])
def test_ground_state_ties_go_to_the_first_candidate(monkeypatch, gap, expected):
    # edge f sits below edge e by a relative gap: within the tie window
    # (grad_tol * max(1, mu) = 1e-11 here) the first candidate in search
    # order wins, beyond it the minimum does
    energies = {"e": -100.0, "f": -100.0 * (1.0 + gap), "g": -50.0}
    assert energies["f"] < energies["e"]
    cfg = SolveConfig(h=0.05, truncation=2.0, grad_tol=1e-12)
    assert _ground_pick(monkeypatch, energies, cfg) == expected


@pytest.mark.parametrize("gap, expected", [(0.5, "e"), (2.0, "f")])
def test_ground_state_tie_window_is_the_newton_tolerance(monkeypatch, gap, expected):
    # one state reached by two routes differs by up to the Newton tolerance
    # grad_tol * max(1, mu) (1e-7 at mu = 10): a gap in units of it
    window = 1e-8 * 10.0
    energies = {"e": -100.0, "f": -100.0 - gap * window, "g": -50.0}
    cfg = SolveConfig(h=0.05, truncation=2.0)
    assert _ground_pick(monkeypatch, energies, cfg) == expected


def test_scan_mass_threshold_transitions():
    g = double_bridge_graph(0.3)
    report = scan_mass_threshold(
        g, "e", 4.0, [0.5, 5.0, 50.0], SolveConfig(h=0.02, truncation=20.0)
    )
    assert report.statuses[0] in ("constraint-active", "escaped")
    assert report.statuses[-1] == "interior"
    assert report.threshold is not None and report.threshold <= 50.0
    assert report.monotone
    assert report.reasons == [None, None, None]


def _counting_build_mesh(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(build_mesh(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(solve_module, "build_mesh", counted)
    return built


SCAN_GRID = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]


def test_scan_builds_one_mesh_per_truncation_length(monkeypatch):
    built = _counting_build_mesh(monkeypatch)
    g = double_bridge_graph(0.3)
    scan_mass_threshold(g, "e", 4.0, SCAN_GRID, SolveConfig(h=0.02, truncation=30.0))
    assert [m.truncation for m in built] == [30.0]
    # "auto" truncates at max(20, 32 / mu) for p = 4: every mu >= 2 shares L = 20
    built.clear()
    scan_mass_threshold(g, "e", 4.0, [0.5, 1.0, 2.0, 5.0, 10.0, 50.0], SolveConfig(h=0.05))
    assert [m.truncation for m in built] == [64.0, 32.0, 20.0]


def test_scan_with_shared_meshes_matches_separate_solves():
    g = double_bridge_graph(0.3)
    cfg = SolveConfig(h=0.02, truncation=30.0)
    report = scan_mass_threshold(g, "e", 4.0, SCAN_GRID, cfg)
    solves = [minimize_on_edge(g, "e", mu, 4.0, cfg) for mu in SCAN_GRID]
    assert report.statuses == [r.status for r in solves]
    assert report.energies == [r.energy.total for r in solves]
    assert {"escaped", "interior"} <= set(report.statuses)


def test_scan_keeps_the_reason_a_mass_failed():
    # at p = 5 the mass-100 soliton is far narrower than h = 0.02
    report = scan_mass_threshold(double_bridge_graph(0.3), "e", 5.0, [100.0], SolveConfig(h=0.02))
    assert report.statuses == ["not-converged"]
    assert report.reasons[0].startswith("mesh spacing h=0.02 does not resolve the soliton")


def test_scan_reports_a_mass_whose_multiplier_overflows():
    # or underflows to 0, as the multiplier of mass 1e-200 does at p = 4
    cfg = SolveConfig(h=0.02, truncation=20.0)
    report = scan_mass_threshold(double_bridge_graph(1.0), "e", 4.0, [1e-200, 1.0, 1e300], cfg)
    assert report.statuses == ["not-converged", "escaped", "not-converged"]
    assert report.reasons[0].startswith("mass 1e-200 is too small")
    assert report.reasons[1] is None
    assert report.reasons[2].startswith("mass 1e+300 is too large")


def test_scan_reports_a_mass_whose_halfline_is_too_long():
    # at p = 4 and h = 0.02 the "auto" truncation 8 / sqrt(lambda) of mass
    # 1e-4 takes 1.6e7 elements, that of mass 1e-100 1.6e103
    grid = [1e-100, 1e-4, 1.0]
    report = scan_mass_threshold(double_bridge_graph(1.0), "e", 4.0, grid, SolveConfig(h=0.02))
    assert report.statuses[:2] == ["not-converged", "not-converged"]
    assert all("over the limit" in reason for reason in report.reasons[:2])
    assert report.reasons[2] is None


def test_scan_reports_a_mass_whose_whole_mesh_is_too_large(monkeypatch):
    # at p = 4 and h = 0.02 each halfline of mass 3e-3 takes 5.3e5 elements,
    # under the limit, but the four of them 2.13e6; refused before any node
    # array exists
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated before the size check")

    monkeypatch.setattr(np, "linspace", no_grid)
    report = scan_mass_threshold(double_bridge_graph(1.0), "e", 4.0, [3e-3], SolveConfig(h=0.02))
    assert report.statuses == ["not-converged"]
    assert "2.13e+06 elements, over the limit of 1000000" in report.reasons[0]


@pytest.mark.parametrize(
    "statuses, threshold, monotone",
    [
        (["escaped", "interior", "interior", "escaped"], 2.0, False),
        (["interior", "escaped", "interior", "interior"], 1.0, True),
        (["escaped", "escaped"], None, True),
    ],
)
def test_scan_summary_reads_the_statuses(monkeypatch, statuses, threshold, monotone):
    # stub solves at the masses 1, 2, ... end in the given statuses: the
    # threshold is the first interior mass, and interior fails to persist
    # only when two interior masses in a row are followed by one that is not
    grid = [float(k) for k in range(1, len(statuses) + 1)]
    by_mass = dict(zip(grid, statuses))

    def stub_solve(g, edge_id, mu, p, cfg, mesh=None):
        return SimpleNamespace(status=by_mass[mu], energy=SimpleNamespace(total=-mu))

    monkeypatch.setattr(solve_module, "minimize_on_edge", stub_solve)
    cfg = SolveConfig(h=0.05, truncation=2.0)
    report = scan_mass_threshold(double_bridge_graph(0.3), "e", 4.0, grid, cfg)
    assert report.statuses == statuses
    assert (report.threshold, report.monotone) == (threshold, monotone)


def test_scan_raises_for_a_spacing_no_mass_mends():
    g = double_bridge_graph(1.0)
    with pytest.raises(MeshError, match="over the limit"):
        scan_mass_threshold(g, "e", 4.0, [1e-4, 1.0], SolveConfig(h=0.02, truncation=1e5))
    with pytest.raises(MeshError, match="too coarse"):
        scan_mass_threshold(g, "e", 4.0, [1e-4, 1.0], SolveConfig(h=0.6))
    # a bounded edge of 1e11 elements of h = 0.01, whatever the mass
    long_edge = MetricGraph(("a", "b"), (Edge("e", "a", "b", 1e9), Edge("h1", "a")))
    with pytest.raises(MeshError, match="edge 'e' of length .* over the limit"):
        scan_mass_threshold(long_edge, "e", 4.0, [1.0, 2.0], SolveConfig(h=0.01, truncation=5.0))


def test_scan_rejects_bad_grid():
    g = double_bridge_graph(0.3)
    with pytest.raises(SolveError):
        scan_mass_threshold(g, "e", 4.0, [1.0, 1.0, 2.0], CFG)
    with pytest.raises(SolveError):
        scan_mass_threshold(g, "e", 4.0, [], CFG)
    # a failed solve would be recorded as not-converged: the raise is up front
    with pytest.raises(SolveError, match="'h1' is a halfline"):
        scan_mass_threshold(g, "h1", 4.0, [1.0, 2.0], CFG)


@pytest.mark.parametrize(
    "grid", [[math.nan], [-1.0, 2.0], [0.0, 1.0], [1.0, math.inf], [True, 2.0]]
)
def test_scan_rejects_a_grid_mass_that_is_not_positive_and_finite(grid):
    # refused up front with the scan's own error, not by the first solve
    # (NaN compares false both ways, so an order check alone lets it pass)
    with pytest.raises(SolveError, match="finite and > 0"):
        scan_mass_threshold(double_bridge_graph(0.3), "e", 4.0, grid, CFG)
