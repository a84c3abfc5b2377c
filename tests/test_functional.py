import math

import numpy as np
import pytest

from graphnls import functional as fn
from graphnls.graphs import (
    double_bridge_graph,
    example_graph,
    halfline_graph,
    line_graph,
    star_graph,
)
from graphnls.mesh import build_mesh, interpolate, place_profile, zero_function
from graphnls.soliton import make_model, soliton_profile


def random_state(mesh, seed, nonneg=False):
    rng = np.random.default_rng(seed)
    u = zero_function(mesh)
    u.values = rng.standard_normal(mesh.ndof)
    if nonneg:
        u.values = np.abs(u.values)
    return u


@pytest.fixture(scope="module")
def line_mesh():
    return build_mesh(line_graph(10.0), h=0.01, trunc=6.0)


def test_mass_and_kinetic_of_soliton(line_mesh):
    model = make_model(4.0)
    mu = 6.0  # sharp enough that the tails vanish before the edge endpoints
    f, df, lam, _ = soliton_profile(model, mu)
    L = line_mesh.edge_mesh("e").coords[-1]
    u = place_profile(line_mesh, "e", f, L / 2.0)
    assert fn.mass(u) == pytest.approx(mu, rel=1e-4)
    # half the quartic soliton's |u'|^2, which is lambda * mu / 3
    assert fn.kinetic(u) == pytest.approx(lam * mu / 6.0, rel=1e-3)


def test_lp_power_exact_vs_quadrature(line_mesh):
    u = interpolate(
        line_mesh,
        {
            "e": lambda x: np.exp(-0.5 * (x - 5.0) ** 2) * (1.3 + np.sin(2.0 * x)),
            "h1": lambda x: np.exp(-x),
            "h2": lambda x: np.exp(-2.0 * x),
        },
    )
    for p in (2.5, 3.0, 4.0, 5.0):
        exact = fn.lp_power_exact(u, p)
        simpson = fn.lp_power_quad(u, p)
        assert simpson == pytest.approx(exact, rel=1e-4)
    # r = 2 reduces to the mass
    assert fn.lp_power_exact(u, 2.0) == pytest.approx(fn.mass(u), rel=1e-12)


def test_energy_breakdown_consistency(line_mesh):
    u = random_state(line_mesh, 1)
    e = fn.energy(u, 4.0)
    assert e.total == pytest.approx(e.kinetic - e.potential, rel=1e-14)
    assert e.kinetic == pytest.approx(fn.kinetic(u), rel=1e-14)
    assert e.potential == pytest.approx(fn.lp_power_quad(u, 4.0) / 4.0, rel=1e-14)


def test_gradient_matches_finite_differences(line_mesh):
    # directional derivative against centered differences, 20 random pairs
    rng = np.random.default_rng(42)
    p = 4.0
    for _ in range(20):
        u = random_state(line_mesh, rng.integers(1 << 30))
        eta = rng.standard_normal(line_mesh.ndof)
        g = fn.grad_energy(u, p)
        directional = float(g @ eta)
        t = 1e-6
        up, um = u.copy(), u.copy()
        up.values = u.values + t * eta
        um.values = u.values - t * eta
        fd = (fn.energy(up, p).total - fn.energy(um, p).total) / (2.0 * t)
        assert directional == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_nonlinear_jacobian_matches_term(line_mesh):
    u = random_state(line_mesh, 3)
    p = 4.0
    J = fn.nonlinear_jacobian(u, p)
    eta = np.random.default_rng(4).standard_normal(line_mesh.ndof)
    t = 1e-7
    up, um = u.copy(), u.copy()
    up.values = u.values + t * eta
    um.values = u.values - t * eta
    fd = (fn.nonlinear_term(up, p) - fn.nonlinear_term(um, p)) / (2.0 * t)
    assert np.max(np.abs(J @ eta - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_distribution_function_exact_on_hat():
    mesh = build_mesh(double_bridge_graph(1.0), h=0.01, trunc=2.0)
    hat = lambda x: np.clip(1.0 - np.abs(x) / 0.25, 0.0, None)
    u = place_profile(mesh, "e", hat, 0.5, support_radius=0.25)
    levels = np.array([0.25, 0.5, 0.75])
    rho = fn.distribution_function(u, levels)
    # |{hat > t}| = 0.5 (1 - t) for the width-0.5 hat
    assert np.allclose(rho, 0.5 * (1.0 - levels), atol=1e-12)


def test_distribution_function_blocks_of_levels():
    # 14000 elements put 74 levels in a block, so 999 levels take 14 blocks
    mesh = build_mesh(double_bridge_graph(1.0), h=0.0005, trunc=1.5)
    hat = lambda x: np.clip(1.0 - np.abs(x) / 0.25, 0.0, None)
    u = place_profile(mesh, "e", hat, 0.5, support_radius=0.25)
    levels = np.linspace(0.0, 1.0, 1001)[1:-1]
    rho = fn.distribution_function(u, levels)
    assert np.allclose(rho, 0.5 * (1.0 - levels), atol=1e-12)


def test_rearrangement_preserves_norms_and_drops_kinetic():
    mesh = build_mesh(star_graph(3), h=0.02, trunc=8.0)
    rng = np.random.default_rng(9)
    for seed in rng.integers(1 << 30, size=5):
        u = random_state(mesh, seed, nonneg=True)
        # smooth a little so the kinetic energy is meaningful
        from scipy.sparse.linalg import spsolve
        A = (mesh.stiffness_matrix + mesh.mass_matrix).tocsc()
        u.values = np.abs(spsolve(A, mesh.mass_matrix @ u.values))
        v = fn.rearrangement(u)
        assert fn.mass(v) == pytest.approx(fn.mass(u), rel=1e-4)
        assert fn.lp_power_exact(v, 4.0) == pytest.approx(fn.lp_power_exact(u, 4.0), rel=1e-4)
        assert fn.kinetic(v) <= fn.kinetic(u) + 1e-10
        # monotone decreasing from the halfline origin
        vals = v.edge_values(v.mesh.edge_meshes[0].edge_id)
        assert np.all(np.diff(vals) <= 1e-12)


def test_rearrangement_symmetric_star_factor():
    # an N-fold symmetric bump on an N = 3 star loses a factor N^2 of kinetic
    mesh = build_mesh(star_graph(3), h=0.005, trunc=6.0)
    prof = lambda x: np.exp(-((x - 1.5) ** 2))
    u = interpolate(mesh, {f"h{i}": prof for i in (1, 2, 3)})
    v = fn.rearrangement(u)
    assert fn.kinetic(v) <= fn.kinetic(u) / 9.0 + 1e-6


def test_preimage_count_essential():
    mesh = build_mesh(line_graph(10.0), h=0.01, trunc=3.0)
    # two separated bumps on the bounded edge: essential count 4 at mid levels
    prof = lambda x: np.exp(-8.0 * (x - 3.0) ** 2) + np.exp(-8.0 * (x - 7.0) ** 2)
    u = interpolate(mesh, {"e": prof, "h1": lambda x: 0.0 * x, "h2": lambda x: 0.0 * x})
    counts, essential = fn.preimage_count(u, [0.5])
    assert counts[0] == 4
    assert essential >= 2


def test_ge3_bound_values():
    # bound -theta (2/N)^(2 beta) nu^(2 beta + 1): N = 1 recovers the
    # halfline level, N = 2 the line level, larger N pushes the level up
    model = make_model(4.0)
    b1 = fn.ge3_bound(1.0, 1, 4.0)
    b2 = fn.ge3_bound(1.0, 2, 4.0)
    b3 = fn.ge3_bound(1.0, 3, 4.0)
    assert b1 == pytest.approx(-4.0 * model.theta, rel=1e-10)
    assert b2 == pytest.approx(-model.theta, rel=1e-10)
    assert b1 < b2 < b3 < 0.0
    with pytest.raises(fn.FunctionalError):
        fn.ge3_bound(1.0, 0, 4.0)


def test_gn_and_linf_ratio_on_soliton():
    # the line soliton does not saturate the graph-sharp constant (the
    # halfline half-soliton does) but must stay below it
    mesh = build_mesh(line_graph(30.0), h=0.005, trunc=8.0)
    model = make_model(4.0)
    f, _, _, _ = soliton_profile(model, 2.0)
    u = place_profile(mesh, "e", f, 15.0)
    from graphnls.soliton import gn_sharp_constant
    assert fn.gn_ratio(u, 4.0) < gn_sharp_constant(model)
    assert fn.linf_ratio(u) <= 1.0 + 1e-10


def test_halfline_half_soliton_saturates_gn():
    mesh = build_mesh(halfline_graph(), h=0.002, trunc=40.0)
    model = make_model(4.0)
    f, _, _, _ = soliton_profile(model, 4.0)  # mass 4 line soliton, half on R+
    u = place_profile(mesh, "h1", f, 0.0)
    from graphnls.soliton import gn_sharp_constant
    sharp = gn_sharp_constant(model)
    assert fn.gn_ratio(u, 4.0) == pytest.approx(sharp, rel=1e-4)
    assert fn.gn_ratio(u, 4.0) <= sharp * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# The mesh's element table against an edge-by-edge reference


def per_edge_reference(mesh, v, p):
    """Mass, stiffness, nonlinear term, its Jacobian and the two L^p powers,
    assembled edge by edge and element by element into dense arrays; the
    row and column of the fixed zero are dropped at the end."""
    n = mesh.ndof
    ext = np.append(v, 0.0)
    M, K, W = (np.zeros((n + 1, n + 1)) for _ in range(3))
    nl = np.zeros(n + 1, dtype=ext.dtype)
    quad = exact = 0.0
    f = lambda z: abs(z) ** (p - 2.0) * z
    df = lambda z: (p - 1.0) * abs(z) ** (p - 2.0)
    G = lambda z: np.sign(z) * abs(z) ** (p + 1.0) / (p + 1.0)
    for em in mesh.edge_meshes:
        h = em.spacing
        for i, j in zip(em.dofs[:-1], em.dofs[1:]):
            a, b = ext[i], ext[j]
            m = 0.5 * (a + b)
            for (r, c, mv, kv, wv) in (
                (i, i, h / 3.0, 1.0 / h, h / 6.0 * (df(a) + df(m))),
                (j, j, h / 3.0, 1.0 / h, h / 6.0 * (df(b) + df(m))),
                (i, j, h / 6.0, -1.0 / h, h / 6.0 * df(m)),
                (j, i, h / 6.0, -1.0 / h, h / 6.0 * df(m)),
            ):
                M[r, c] += mv
                K[r, c] += kv
                W[r, c] += wv
            nl[i] += h / 6.0 * (f(a) + 2.0 * f(m))
            nl[j] += h / 6.0 * (f(b) + 2.0 * f(m))
            quad += h / 6.0 * (abs(a) ** p + 4.0 * abs(m) ** p + abs(b) ** p)
            if not np.iscomplexobj(ext):
                exact += h * (G(b) - G(a)) / (b - a)
    return {
        "M": M[:n, :n], "K": K[:n, :n], "lumped": M[:n, :n].sum(axis=1),
        "W": W[:n, :n], "nl": nl[:n], "quad": quad, "exact": exact,
    }


def assert_rel_close(got, ref, rtol=1e-13):
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.fixture(
    scope="module",
    params=[lambda: example_graph(1), lambda: double_bridge_graph(0.3)],
    ids=["example1-self-loop", "double-bridge-halflines"],
)
def table_mesh(request):
    return build_mesh(request.param(), h=0.05, trunc=2.0)


def test_element_table_covers_every_element(table_mesh):
    n_elem = sum(em.dofs.size - 1 for em in table_mesh.edge_meshes)
    assert table_mesh.el_left.shape == table_mesh.el_right.shape == table_mesh.el_h.shape
    assert table_mesh.el_h.size == n_elem
    # the fixed zero appears only on halfline elements
    assert np.sum(table_mesh.el_right == table_mesh.ndof) == len(table_mesh.graph.halflines)


def test_matrices_match_per_edge_assembly(table_mesh):
    ref = per_edge_reference(table_mesh, random_state(table_mesh, 5).values, 4.0)
    assert_rel_close(table_mesh.mass_matrix, ref["M"])
    assert_rel_close(table_mesh.stiffness_matrix, ref["K"])
    assert_rel_close(table_mesh.lumped_mass, ref["lumped"])


@pytest.mark.parametrize("p", [3.0, 4.0, 5.5])
def test_real_functionals_match_per_edge_loop(table_mesh, p):
    u = random_state(table_mesh, 17)
    ref = per_edge_reference(table_mesh, u.values, p)
    assert_rel_close(fn.nonlinear_term(u, p), ref["nl"])
    assert_rel_close(fn.nonlinear_jacobian(u, p), ref["W"])
    assert fn.lp_power_quad(u, p) == pytest.approx(ref["quad"], rel=1e-13)
    assert fn.lp_power_exact(u, p) == pytest.approx(ref["exact"], rel=1e-13)


def test_complex_functionals_match_per_edge_loop(table_mesh):
    rng = np.random.default_rng(23)
    n = table_mesh.ndof
    u = zero_function(table_mesh, complex_valued=True)
    u.values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = per_edge_reference(table_mesh, u.values, 4.0)
    assert_rel_close(fn.nonlinear_term(u, 4.0), ref["nl"])
    assert fn.lp_power_quad(u, 4.0) == pytest.approx(ref["quad"], rel=1e-13)
