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
from graphnls.mesh import build_mesh, interpolate, place_profile
from graphnls.solve import SolveConfig, ground_state, minimize_on_edge
from graphnls.soliton import make_model, soliton_profile
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
    rows = mesh.vertex_dofs if kind == "vertex" else np.flatnonzero(mesh.interior_mask)
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


def test_localization_margin_sign():
    mesh = build_mesh(double_bridge_graph(1.0), h=0.02, trunc=3.0)
    f, _, _, _ = soliton_profile(make_model(4.0), 8.0)
    u = place_profile(mesh, "e", f, 0.5)
    assert localization_margin(u, "e") > 0
    assert localization_margin(u, "h1") < 0


def test_certify_interior_bound_state(bridge_report):
    rep = certify(bridge_report, make_model(4.0))
    assert rep.positive
    assert rep.sandwich_ok is None  # not a ground-state claim
    assert rep.gn_ok
    assert rep.linf_ok
    assert rep.ge3_ok
    assert rep.all_ok
    doc = rep.to_dict()
    assert doc["all_ok"] is True


def test_certify_ground_state_sandwich(halfline_ground):
    ver = certify(halfline_ground, make_model(4.0))
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
    ver = certify(fake, make_model(4.0))
    assert ver.sandwich_ok is False
    assert not ver.all_ok
