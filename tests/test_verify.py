from types import SimpleNamespace

import numpy as np
import pytest

from graphnls import verify
from graphnls.graphs import (
    double_bridge_graph,
    example_graph,
    halfline_graph,
    line_graph,
    star_graph,
)
from graphnls.functional import energy, ge3_bound, mass
from graphnls.mesh import GraphFunction, build_mesh, interpolate, place_profile
from graphnls.solve import SolveConfig, ground_state, minimize_on_edge
from graphnls.soliton import energy_levels, gn_sharp_constant, make_model, soliton_profile
from graphnls.verify import (
    VerifyError,
    certify,
    el_residual,
    kirchhoff_residual,
    localization_margin,
)


@pytest.fixture(scope="module")
def bridge_report():
    return minimize_on_edge(
        double_bridge_graph(1.0), "e", 8.0, 4.0, SolveConfig(h=0.02, truncation=8.0)
    )


@pytest.fixture(scope="module")
def ex3_report():
    return minimize_on_edge(example_graph(3), "e", 10.0, 4.0, SolveConfig(h=0.01, truncation=6.0))


@pytest.fixture(scope="module")
def halfline_ground():
    return ground_state(halfline_graph(), 2.0, 4.0, SolveConfig(h=0.01))


@pytest.mark.parametrize("name, edge", [("ex3_report", "e"), ("halfline_ground", None)])
def test_report_residuals_are_the_public_ones(request, name, edge):
    # a constrained solve and a free-descent report take both residuals
    # from one vector; they equal the public functions bit for bit
    rep = request.getfixturevalue(name)
    assert rep.edge == edge
    u, lam = rep.minimizer, rep.lam
    assert rep.el_residual == el_residual(u, lam, rep.p)
    assert rep.kirchhoff_residual == kirchhoff_residual(u, lam=lam, p=rep.p)


@pytest.mark.parametrize("kind", ["interior", "vertex"])
def test_el_and_kirchhoff_read_disjoint_rows(monkeypatch, bridge_report, kind):
    # a spike in one interior row moves el_residual alone, a spike in one
    # vertex row moves kirchhoff_residual alone
    u, lam = bridge_report.minimizer, bridge_report.lam
    mesh = u.mesh
    rows = np.arange(mesh.nv) if kind == "vertex" else np.arange(mesh.nv, mesh.ndof)
    row = rows[rows.size // 2]
    before = (el_residual(u, lam, 4.0), kirchhoff_residual(u, lam=lam, p=4.0))
    real = verify.residual_rows

    def spiked(mesh, x, lam, p):
        r, Mx = real(mesh, x, lam, p)
        r[row] += 1e-3
        return r, Mx

    monkeypatch.setattr(verify, "residual_rows", spiked)
    after = (el_residual(u, lam, 4.0), kirchhoff_residual(u, lam=lam, p=4.0))
    moved = 1 if kind == "vertex" else 0
    assert after[moved] > before[moved] + 1e-4
    assert after[1 - moved] == before[1 - moved]


def test_el_residual_small_for_solver_output(bridge_report):
    r = el_residual(bridge_report.minimizer, bridge_report.lam, 4.0)
    assert r < 1e-6


def test_el_residual_large_for_wrong_multiplier(bridge_report):
    good = el_residual(bridge_report.minimizer, bridge_report.lam, 4.0)
    bad = el_residual(bridge_report.minimizer, bridge_report.lam + 1.0, 4.0)
    assert bad > 1e3 * max(good, 1e-12)


def test_kirchhoff_weak_form_residual(bridge_report):
    r = kirchhoff_residual(bridge_report.minimizer, lam=bridge_report.lam, p=4.0)
    assert r < 1e-10


def test_kirchhoff_requires_p_with_lam(bridge_report):
    with pytest.raises(VerifyError):
        kirchhoff_residual(bridge_report.minimizer, lam=1.0)


def test_kirchhoff_stencil_smooth_vs_kinked():
    # exp(-x) continued smoothly across both junctions balances; replacing
    # one branch by a constant leaves a slope jump of exactly 1
    g = line_graph(10.0)
    mesh = build_mesh(g, h=0.01, trunc=3.0)
    smooth = interpolate(
        mesh,
        {
            "e": lambda x: np.exp(-x),
            "h1": lambda x: np.exp(x),
            "h2": lambda x: np.exp(-10.0) * np.exp(-x),
        },
    )
    assert kirchhoff_residual(smooth) < 1e-4
    kinked = interpolate(
        mesh,
        {
            "e": lambda x: np.exp(-x),
            "h1": lambda x: np.ones_like(x),
            "h2": lambda x: np.exp(-10.0) * np.exp(-x),
        },
    )
    assert kirchhoff_residual(kinked) == pytest.approx(1.0, abs=1e-4)


def test_kirchhoff_stencil_smooth_tent_balances():
    # symmetric profile around the star center: fluxes cancel
    mesh = build_mesh(star_graph(2), h=0.01, trunc=4.0)
    u = interpolate(mesh, {"h1": lambda x: np.exp(-x ** 2), "h2": lambda x: np.exp(-x ** 2)})
    assert kirchhoff_residual(u) < 1e-4  # stencil truncation error only


def _kirchhoff_per_edge(u):
    """Reference: the outgoing one-sided three-point derivative at each end
    of each edge, summed per vertex in a loop over the edges."""
    mesh = u.mesh
    sums = {vtx: 0.0 for vtx in mesh.graph.vertices}
    for e in mesh.graph.edges:
        vals = np.real(u.edge_values(e.id)).astype(float)
        x = mesh.node_x[mesh.edge_nodes(e.id)]
        h = x[-1] / (x.size - 1)
        sums[e.src] += (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
        if e.dst is not None:
            sums[e.dst] += (-3.0 * vals[-1] + 4.0 * vals[-2] - vals[-3]) / (2.0 * h)
    return max(abs(s) for s in sums.values())


@pytest.mark.parametrize(
    "graph",
    [example_graph(n) for n in (1, 2, 3, 4)] + [star_graph(3), halfline_graph()],
    ids=["example1", "example2", "example3", "example4", "star", "halfline"],
)
def test_kirchhoff_stencil_matches_per_edge_loop(graph):
    # self-loops (example 1), a triple edge and terminal edges among them;
    # the stencils read the node table, the fixed zero at a truncated end
    # too; h divides neither the truncation nor a unit edge, so the
    # halflines and the bounded edges get different spacings
    mesh = build_mesh(graph, h=0.03, trunc=2.2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = GraphFunction(mesh, rng.standard_normal(mesh.ndof))
        assert kirchhoff_residual(u) == pytest.approx(_kirchhoff_per_edge(u), rel=1e-12, abs=0.0)


def test_localization_margin_sign():
    mesh = build_mesh(double_bridge_graph(1.0), h=0.02, trunc=3.0)
    f, _, _, _ = soliton_profile(make_model(4.0), 8.0)
    u = place_profile(mesh, "e", f, 0.5)
    assert localization_margin(u, "e") > 0
    assert localization_margin(u, "h1") < 0


def test_certify_interior_bound_state(bridge_report):
    rep = certify(bridge_report)
    assert rep.positive
    assert rep.sandwich_ok is None  # not a ground-state claim
    assert rep.gn_ok
    assert rep.linf_ok
    assert rep.ge3_ok
    assert rep.all_ok
    doc = rep.to_dict()
    assert doc["all_ok"] is True


def test_certify_ground_state_sandwich(halfline_ground):
    ver = certify(halfline_ground)
    assert ver.sandwich_ok is True
    assert ver.positive
    assert ver.all_ok
    assert ver.halfline_level < ver.line_level < 0.0


def test_certify_flags_energy_outside_sandwich(bridge_report):
    # force the ground-claim path on a state that is not a ground state:
    # its energy sits above the line level, outside the sandwich
    import copy

    fake = copy.copy(bridge_report)
    fake.ground_claim = True
    ver = certify(fake)
    assert ver.sandwich_ok is False
    assert not ver.all_ok


@pytest.mark.parametrize(
    "graph, edge, mu, cfg, underflows",
    [
        (example_graph(1), "e1", 16.0, SolveConfig(), False),
        (example_graph(3), "e", 150.0, SolveConfig(h=0.02), True),
    ],
    ids=["example1-mu16", "example3-mu150"],
)
def test_certify_accepts_a_tail_that_decays_below_any_floor(graph, edge, mu, cfg, underflows):
    # at trunc auto the tail falls far below 1e-12 of the peak; at mu 150 it
    # underflows to exact zeros that trail to the truncated end
    rep = minimize_on_edge(graph, edge, mu, 4.0, cfg)
    assert rep.status == "interior"
    ver = certify(rep)
    assert ver.positive
    assert ver.all_ok
    assert ver.min_value < 1e-40 * rep.minimizer.values.max()
    assert (ver.min_value == 0.0) is underflows


@pytest.mark.parametrize(
    "where, positive",
    [
        ("trailing", True),
        ("mid-halfline", False),
        ("bounded", False),
        ("bounded-run", False),
        ("vertex", False),
        ("negative", False),
    ],
)
def test_positivity_allows_only_zeros_that_trail_to_a_truncated_end(where, positive):
    mesh = build_mesh(double_bridge_graph(1.0), h=0.05, trunc=4.0)
    u = GraphFunction(mesh, np.ones(mesh.ndof))
    dofs = {e.id: mesh.node_dof[mesh.edge_nodes(e.id)] for e in mesh.graph.edges}
    tail = dofs["h1"][1:-1]   # interior dofs, toward the truncated end
    half = tail.size // 2
    if where == "trailing":
        u.values[tail[half:]] = 0.0
    elif where == "mid-halfline":
        u.values[tail[half]] = 0.0
    elif where == "bounded":
        u.values[dofs["e"][2]] = 0.0
    elif where == "bounded-run":   # zero from mid-e over its end v2 and all of h3, h4
        e = dofs["e"]
        u.values[e[e.size // 2:]] = 0.0
        for h in ("h3", "h4"):
            u.values[dofs[h][:-1]] = 0.0
    elif where == "vertex":
        u.values[dofs["h1"][0]] = 0.0
    else:   # below zero next to the truncated end
        u.values[tail[-1]] = -1e-300
    report = SimpleNamespace(
        minimizer=u, mass=mass(u), energy=energy(u, 4.0), p=4.0, ground_claim=False
    )
    assert certify(report).positive is positive


def test_certify_reads_the_exponent_from_the_report():
    # a p = 3 state is measured against the p = 3 levels and constants
    rep = minimize_on_edge(example_graph(3), "e", 10.0, 3.0, SolveConfig(h=0.01, truncation=6.0))
    ver = certify(rep)
    model = make_model(3.0)
    line, half = energy_levels(model, rep.mass)
    assert ver.line_level == line
    assert ver.halfline_level == half
    assert ver.gn_sharp == gn_sharp_constant(model)
    assert ver.ge3_level == ge3_bound(rep.mass, ver.preimage_n, 3.0)
