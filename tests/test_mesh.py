import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from graphnls import functional as fn
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
    MeshError,
    argmax,
    build_mesh,
    interpolate,
    place_profile,
    truncation_length,
    zero_function,
)
from graphnls.soliton import _profile_callables, make_model
from graphnls.solve import _translation_pin_vector, migrated_mass
from graphnls.verify import certify, localization_margin


def test_build_mesh_shapes():
    g = double_bridge_graph(0.3)
    mesh = build_mesh(g, h=0.05, trunc=5.0)
    assert mesh.edge_halfline.size == 5
    run = mesh.edge_nodes("e")
    x = mesh.node_x[run]
    assert not mesh.edge_halfline[mesh.node_edge[run.start]]
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(0.3)
    for e in g.halflines:
        assert mesh.node_x[mesh.edge_nodes(e.id)][-1] == pytest.approx(5.0)


def test_shared_vertex_dofs():
    g = star_graph(3)
    mesh = build_mesh(g, h=0.1, trunc=2.0)
    runs = [mesh.node_dof[mesh.edge_nodes(f"h{i}")] for i in (1, 2, 3)]
    assert len({d[0] for d in runs}) == 1  # all halflines start at the same center dof
    # truncated halfline ends map to the Dirichlet sentinel outside the system
    for d in runs:
        assert d[-1] == mesh.ndof


def test_mesh_too_coarse():
    g = double_bridge_graph(0.3)
    with pytest.raises(MeshError, match="too coarse"):
        build_mesh(g, h=0.2, trunc=5.0)


@pytest.mark.parametrize(
    "kw",
    [
        {"h": math.nan}, {"h": math.inf}, {"h": True},
        {"trunc": math.nan}, {"trunc": math.inf}, {"trunc": True}, {"trunc": "x"},
    ],
)
def test_build_mesh_rejects_non_finite_spacing_or_truncation(kw):
    args = {"h": 0.02, "trunc": 5.0, **kw}
    with pytest.raises(MeshError, match="not positive and finite"):
        build_mesh(halfline_graph(), **args)


def test_mass_matrix_integrates_constants():
    # int 1 dx = total meshed length, up to the clipped Dirichlet end nodes
    g = line_graph(10.0)
    mesh = build_mesh(g, h=0.01, trunc=3.0)
    u = interpolate(mesh, {e.id: lambda x: np.ones_like(x) for e in mesh.graph.edges})
    total = float(u.values @ (mesh.mass_matrix @ u.values))
    assert total == pytest.approx(16.0, rel=2e-3)
    assert total < 16.0


def test_stiffness_energy_of_hat():
    # a hat of height 1 over [a, b] has kinetic energy 2 / (b - a) after
    # assembly; exact for P1 elements when the breakpoints are nodes
    g = double_bridge_graph(1.0)
    mesh = build_mesh(g, h=0.01, trunc=2.0)
    # place_profile passes coordinates relative to the center point
    hat = lambda x: np.clip(1.0 - np.abs(x) / 0.25, 0.0, None)
    u = place_profile(mesh, "e", hat, 0.5, support_radius=0.25)
    kin = float(u.values @ (mesh.stiffness_matrix @ u.values))
    assert kin == pytest.approx(2.0 / 0.25, rel=1e-12)


def test_matrices_symmetric_and_psd():
    mesh = build_mesh(star_graph(3), h=0.1, trunc=3.0)
    K = mesh.stiffness_matrix
    M = mesh.mass_matrix
    assert abs(K - K.T).max() < 1e-14
    assert abs(M - M.T).max() < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(mesh.ndof)
        assert x @ (K @ x) >= 0.0
        assert x @ (M @ x) > 0.0


def test_lumped_mass_positive():
    mesh = build_mesh(star_graph(4), h=0.1, trunc=3.0)
    assert np.all(mesh.lumped_mass > 0)


def test_interpolate_and_edge_values():
    g = halfline_graph()
    mesh = build_mesh(g, h=0.01, trunc=8.0)
    u = interpolate(mesh, {"h1": lambda x: np.exp(-x)})
    vals = u.edge_values("h1")
    x = mesh.node_x[mesh.edge_nodes("h1")]
    assert vals[0] == pytest.approx(1.0)
    assert vals[-1] == 0.0  # Dirichlet sentinel
    assert np.allclose(vals[:-1], np.exp(-x[:-1]))


def test_place_profile_and_argmax():
    g = double_bridge_graph(1.0)
    mesh = build_mesh(g, h=0.01, trunc=4.0)
    u = place_profile(mesh, "e", lambda x: 1.0 / np.cosh(5.0 * x), 0.5)
    eid, coord, peak = argmax(u)
    assert eid == "e"
    assert coord == pytest.approx(0.5, abs=0.011)
    assert peak == pytest.approx(1.0, rel=1e-6)


def test_argmax_tie_break_is_input_order():
    mesh = build_mesh(star_graph(2), h=0.1, trunc=2.0)
    u = zero_function(mesh)
    u.values[:] = 1.0
    eid, _, _ = argmax(u)
    assert eid == "h1"


def _argmax_per_edge(u):
    """Reference: scan the edges in input order, keep a strictly larger
    maximum, take the first maximum within an edge."""
    best = None
    for e in u.mesh.graph.edges:
        vals = np.abs(u.edge_values(e.id))
        k = int(np.argmax(vals))
        if best is None or vals[k] > best[2]:
            best = (e.id, float(u.mesh.node_x[u.mesh.edge_nodes(e.id)][k]), float(vals[k]))
    return best


def _argmax_gather(u):
    """Reference: gather |u| through the node table, fixed zeros included,
    and take the first maximum."""
    mesh = u.mesh
    vals = np.abs(np.append(u.values, 0.0))[mesh.node_dof]
    k = int(np.argmax(vals))
    return mesh.graph.edges[mesh.node_edge[k]].id, float(mesh.node_x[k]), float(vals[k])


@pytest.mark.parametrize(
    "graph", [example_graph(1), double_bridge_graph(0.3)], ids=["example1", "double-bridge"]
)
def test_argmax_matches_per_edge_scan(graph):
    # example 1 has a self-loop; the double bridge has halfline fixed zeros
    mesh = build_mesh(graph, h=0.05, trunc=2.0)
    rng = np.random.default_rng(3)
    states = []
    for _ in range(50):
        v = np.zeros(mesh.ndof)
        idx = rng.choice(mesh.ndof, size=5, replace=False)
        v[idx] = rng.integers(1, 4, size=5)  # small integers: many ties
        states.append(v)
    states.append(np.ones(mesh.ndof))
    states.append(-np.ones(mesh.ndof))
    vertex_only = np.zeros(mesh.ndof)
    vertex_only[:mesh.nv] = 2.0  # ties at the shared vertex dofs
    states.append(vertex_only)
    states.append(rng.standard_normal(mesh.ndof) + 1j * rng.standard_normal(mesh.ndof))
    states.extend(rng.standard_normal(mesh.ndof) for _ in range(20))
    first_interior = mesh.node_dof[mesh.edge_nodes(graph.edges[0].id)][1]
    last_interior = mesh.node_dof[mesh.edge_nodes(graph.edges[-1].id)][1]
    for vd in range(mesh.nv):
        alone = rng.uniform(-1.0, 1.0, mesh.ndof)
        alone[vd] = -3.0  # a vertex dof shared by several edges, alone at the top
        states.append(alone)
        tied = alone.copy()
        tied[first_interior] = 3.0  # ties the vertex with the first edge's interior
        states.append(tied)
    two_edges = rng.uniform(-1.0, 1.0, mesh.ndof)
    two_edges[[first_interior, last_interior]] = 3.0  # a tie between two edges
    states.append(two_edges)
    for v in states:
        u = zero_function(mesh, complex_valued=np.iscomplexobj(v))
        u.values[:] = v
        assert argmax(u) == _argmax_gather(u) == _argmax_per_edge(u)
    with pytest.raises(MeshError):
        argmax(zero_function(mesh))


@pytest.mark.parametrize(
    "graph",
    [example_graph(1), example_graph(3), double_bridge_graph(0.3), halfline_graph()],
    ids=["example1", "example3", "double-bridge", "halfline"],
)
def test_node_table_follows_its_definition(graph):
    # h does not divide the lengths: the element count rounds up
    h = 0.03
    mesh = build_mesh(graph, h, trunc=2.2)
    vertex_dof = {v: i for i, v in enumerate(graph.vertices)}
    interior = []
    for i, e in enumerate(graph.edges):
        run = mesh.edge_nodes(e.id)
        length = mesh.truncation if e.is_halfline else e.length
        n = max(2, math.ceil(length / h - 1e-12))
        x = mesh.node_x[run]
        assert np.array_equal(x, np.linspace(0.0, length, n + 1))
        assert np.all(mesh.node_edge[run] == i)
        assert mesh.edge_halfline[i] == e.is_halfline
        dofs = mesh.node_dof[run]
        assert dofs[0] == vertex_dof[e.src]
        assert dofs[-1] == (mesh.ndof if e.is_halfline else vertex_dof[e.dst])
        assert np.array_equal(np.diff(dofs[1:-1]), np.ones(n - 2, dtype=int))
        interior.append(dofs[1:-1])
        on = mesh.el_edge == i
        assert np.all(mesh.el_h[on] == length / n) and on.sum() == n
        assert np.array_equal(mesh.el_mid[on], 0.5 * (x[:-1] + x[1:]))
    # the runs cover the node table in edge order, and the interior dofs
    # follow the vertex dofs in that order
    assert sum(mesh.node_x[mesh.edge_nodes(e.id)].size for e in graph.edges) == mesh.node_x.size
    assert np.array_equal(np.concatenate(interior), np.arange(len(graph.vertices), mesh.ndof))
    with pytest.raises(MeshError, match="unknown edge"):
        mesh.edge_nodes("nope")


# Per-edge reference loops for the reads that go through the node and
# element tables.


def _migrated_mass_per_edge(u):
    total = 0.0
    for e in u.mesh.graph.halflines:
        x = u.mesh.node_x[u.mesh.edge_nodes(e.id)]
        vals = u.edge_values(e.id)
        a, b = vals[:-1], vals[1:]
        sel = 0.5 * (x[:-1] + x[1:]) > x[-1] / 2.0
        h = x[-1] / (x.size - 1)
        total += h / 3.0 * float(np.sum(a[sel] ** 2 + a[sel] * b[sel] + b[sel] ** 2))
    return total


def _margin_per_edge(u, edge_id):
    on = float(np.max(np.abs(u.edge_values(edge_id))))
    off = 0.0
    for e in u.mesh.graph.edges:
        if e.id != edge_id:
            off = max(off, float(np.max(np.abs(u.edge_values(e.id)))))
    return on - off


def _positive_per_edge(u):
    for e in u.mesh.graph.edges:
        v = u.edge_values(e.id)
        if e.is_halfline:   # zeros trailing to the truncated end are allowed
            v = np.trim_zeros(v, "b")
        if not np.all(v > 0.0):
            return False
    return True


def _pin_vector_per_edge(mesh, edge_id, p, lam, c):
    _, df = _profile_callables(p, lam)
    run = mesh.edge_nodes(edge_id)
    buf = np.zeros(mesh.ndof + 1)
    np.add.at(buf, mesh.node_dof[run], df(mesh.node_x[run] - c))
    return buf[:-1]


@pytest.mark.parametrize(
    "graph", [example_graph(1), double_bridge_graph(0.3)], ids=["example1", "double-bridge"]
)
def test_table_reads_match_per_edge_loops(graph):
    # example 1 has a self-loop, whose vertex dof the pin vector sums twice,
    # and bounded edges longer than half the truncation; the double bridge
    # has four truncated halflines
    mesh = build_mesh(graph, h=0.05, trunc=1.0)
    halfline_dofs = np.concatenate(
        [mesh.node_dof[mesh.edge_nodes(e.id)][1:-1] for e in graph.halflines]
    )
    rng = np.random.default_rng(5)
    for _ in range(4):
        u = GraphFunction(mesh, rng.uniform(0.0, 1.0, mesh.ndof))
        assert migrated_mass(u) == pytest.approx(_migrated_mass_per_edge(u), rel=1e-12)
        for e in graph.edges:
            assert localization_margin(u, e.id) == _margin_per_edge(u, e.id)
    outcomes = set()
    for lam in (0.25, 16.0):   # two multipliers for the pin vector
        base = rng.uniform(0.1, 1.0, mesh.ndof)
        # one zero at each halfline node in turn; only the one next to the
        # truncated end trails to it
        for k in halfline_dofs:
            u = GraphFunction(mesh, base.copy())
            u.values[k] = 0.0
            report = SimpleNamespace(
                minimizer=u, mass=fn.mass(u), energy=fn.energy(u, 4.0), p=4.0, ground_claim=True
            )
            positive = certify(report).positive
            assert positive == _positive_per_edge(u)
            outcomes.add(positive)
        for e in graph.edges:
            c = rng.uniform(0.0, mesh.node_x[mesh.edge_nodes(e.id)][-1])
            assert np.array_equal(
                _translation_pin_vector(mesh, e.id, 4.0, lam, c),
                _pin_vector_per_edge(mesh, e.id, 4.0, lam, c),
            )
    assert outcomes == {True, False}


def _coo_element_matrix(mesh, waa, wbb, wab):
    """Reference assembly of the element blocks [[waa, wab], [wab, wbb]]:
    COO triplets without the fixed zero, summed by the CSR conversion."""
    a, b = mesh.el_left, mesh.el_right
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([waa, wbb, wab, wab])
    keep = (rows < mesh.ndof) & (cols < mesh.ndof)
    shape = (mesh.ndof, mesh.ndof)
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape).tocsr()


@pytest.mark.parametrize(
    "graph, trunc",
    [
        (example_graph(1), 2.0),   # a self-loop and a triple edge
        (example_graph(3), 6.0),
        (double_bridge_graph(0.3), 30.0),
        (halfline_graph(), 20.0),   # the fixed zero at the truncated end
    ],
    ids=["example1", "example3", "double-bridge", "halfline"],
)
def test_stencil_assembly_matches_coo_assembly(graph, trunc):
    mesh = build_mesh(graph, h=0.02, trunc=trunc)
    h = mesh.el_h
    x = np.random.default_rng(7).uniform(0.0, 1.0, mesh.ndof)
    a, b = mesh.element_values(x)
    dfa, dfb, dfm = (3.0 * v**2 for v in (a, b, 0.5 * (a + b)))   # p = 4
    W = fn.nonlinear_jacobian(GraphFunction(mesh, x), 4.0)
    M, K = mesh.mass_matrix, mesh.stiffness_matrix
    for got, want in (
        (M, _coo_element_matrix(mesh, h / 3.0, h / 3.0, h / 6.0)),
        (K, _coo_element_matrix(mesh, 1.0 / h, 1.0 / h, -1.0 / h)),
        (W, _coo_element_matrix(mesh, h / 6.0 * (dfa + dfm), h / 6.0 * (dfb + dfm), h / 6.0 * dfm)),
    ):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        # one pattern, shared rather than copied
        assert np.shares_memory(got.indices, mesh.stencil_indices)
        assert np.shares_memory(got.indptr, mesh.stencil_indptr)
    lam = 0.7
    H = mesh.stencil_matrix(K.data - W.data + lam * M.data, "csc")
    want = (K - W + lam * M).tocsc()
    assert H.format == "csc"
    for arr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(H, arr), getattr(want, arr))
    assert np.array_equal(mesh.stencil_indices[mesh.diagonal_slots], np.arange(mesh.ndof))
    assert np.array_equal(K.data[mesh.diagonal_slots], K.diagonal())


_FACTOR_GRAPHS = {
    **{f"example{n}": example_graph(n) for n in (1, 2, 3, 4)},
    "star": star_graph(3),
    "line": line_graph(),
    "halfline": halfline_graph(),
    "double-bridge": double_bridge_graph(),
}


def _factor_case(graph, elements, kind, k):
    """A mesh whose shortest bounded edges have ``elements`` elements, the
    entries of one stencil matrix of ``kind`` on it, and k random border
    columns (None for k = 0)."""
    ell = graph.shortest_bounded_length or 1.0
    # build_mesh takes ceil(length / h) elements, at least 2, and h < ell / 2
    h = ell / 2.5 if elements == 3 else 0.5 * ell * (1.0 - 1e-13)
    mesh = build_mesh(graph, h, trunc=12.0 * h)
    rng = np.random.default_rng(k)
    M, K = mesh.mass_matrix, mesh.stiffness_matrix
    W = fn.nonlinear_jacobian(GraphFunction(mesh, rng.uniform(0.0, 3.0, mesh.ndof)), 4.0)
    data = {
        "spd": K.data + 2.0 * M.data,
        "indefinite": K.data - W.data + M.data,
        "complex": 20j * M.data - 0.5 * (K.data - W.data + M.data),   # a CN step, dt = 0.1
    }[kind]
    B = rng.standard_normal((mesh.ndof, k)) if k else None
    if k and kind == "complex":
        B = B + 1j * rng.standard_normal((mesh.ndof, k))
    return mesh, data, B


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ["spd", "indefinite", "complex"])
@pytest.mark.parametrize("elements", [2, 3])
@pytest.mark.parametrize("graph", _FACTOR_GRAPHS.values(), ids=_FACTOR_GRAPHS.keys())
def test_factor_matches_superlu(graph, elements, kind, k):
    mesh, data, B = _factor_case(graph, elements, kind, k)
    sizes = {mesh.node_x[mesh.edge_nodes(e.id)].size - 1 for e in graph.bounded_edges}
    assert not sizes or min(sizes) == elements
    rng = np.random.default_rng(100 + k)
    f = rng.standard_normal(mesh.ndof) + (1j * rng.standard_normal(mesh.ndof) if kind == "complex" else 0)
    g = rng.standard_normal(k)
    solve = mesh.factor(data, B)
    x, m = solve(f, g) if k else solve(f)
    assert x.shape == (mesh.ndof,) and m.shape == (k,)
    A = mesh.stencil_matrix(data, "csc", border=B)
    rhs = np.concatenate([f, g])
    z = np.concatenate([x, m])
    assert np.linalg.norm(A @ z - rhs) <= 1e-12 * np.linalg.norm(rhs)
    ref = splu(A).solve(rhs.astype(A.dtype))
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)


def test_graph_function_to_dict_roundtrips_values():
    mesh = build_mesh(halfline_graph(), h=0.1, trunc=2.0)
    u = interpolate(mesh, {"h1": lambda x: x * (2.0 - x)})
    doc = u.to_dict()
    assert "h1" in doc["edges"]
    back = np.asarray(doc["edges"]["h1"]["u"])
    assert np.allclose(back, u.edge_values("h1"))


def test_auto_truncation_grows_with_flat_states():
    g = star_graph(3)
    m1 = build_mesh(g, h=0.05, trunc="auto", lambda_est=1.0)
    m2 = build_mesh(g, h=0.05, trunc="auto", lambda_est=0.01)
    L1 = m1.node_x[m1.edge_nodes("h1")][-1]
    L2 = m2.node_x[m2.edge_nodes("h1")][-1]
    assert L2 > L1  # flatter decay needs a longer computational box


@pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf, True])
def test_truncation_rejects_a_multiplier_estimate_that_is_not_positive_and_finite(lam):
    with pytest.raises(MeshError, match="multiplier estimate"):
        build_mesh(halfline_graph(), 0.01, lambda_est=lam)


def _no_grid(*args, **kwargs):
    raise AssertionError("a grid was allocated before the size check")


@pytest.mark.parametrize("mu", [1e-4, 1e-100])
def test_truncation_refuses_a_halfline_past_the_element_limit(monkeypatch, mu):
    # at p = 4 the "auto" length 8 / sqrt(lambda) of mass 1e-4 is 3.2e5, so
    # 3.2e7 elements of h = 0.01; refused before any node array exists
    lam = make_model(4.0).lambda_for_mass(mu)
    monkeypatch.setattr(np, "linspace", _no_grid)
    with pytest.raises(MeshError, match="over the limit of 1000000"):
        truncation_length(halfline_graph(), 0.01, "auto", lam)
    with pytest.raises(MeshError, match="over the limit of 1000000"):
        build_mesh(halfline_graph(), 0.01, lambda_est=lam)


@pytest.mark.parametrize("length", [1e9, 1e200])
def test_build_mesh_refuses_a_bounded_edge_past_the_element_limit(monkeypatch, length):
    # 1e11 and 1e202 elements of h = 0.01; refused before any node array exists
    g = MetricGraph(("a", "b"), (Edge("e", "a", "b", length), Edge("h1", "a")))
    monkeypatch.setattr(np, "linspace", _no_grid)
    with pytest.raises(MeshError, match="edge 'e' of length .* over the limit of 1000000"):
        build_mesh(g, 0.01, trunc=5.0)


def test_truncation_admits_a_fixed_length_up_to_the_element_limit():
    assert truncation_length(halfline_graph(), 0.01, 9999.0) == 9999.0
    with pytest.raises(MeshError, match="over the limit"):
        truncation_length(halfline_graph(), 0.01, 10001.0)


def test_build_mesh_refuses_a_whole_mesh_past_the_element_limit(monkeypatch):
    # each halfline takes 999 900 elements of h = 0.01, under the limit, but
    # the eight of them 8.0e6; refused before any node array exists
    monkeypatch.setattr(np, "linspace", _no_grid)
    with pytest.raises(MeshError, match="a halfline truncated at 9999 .* 8e\\+06 elements"):
        build_mesh(star_graph(8), 0.01, trunc=9999.0)


def test_swap_twins_moves_a_function_onto_its_reversed_twin():
    # g runs v2 -> v1, f v1 -> v2: the swap reverses each run
    g = MetricGraph(
        ("v1", "v2"),
        tuple(Edge("g", "v2", "v1", 1.0) if e.id == "g" else e for e in example_graph(3).edges),
    )
    mesh = build_mesh(g, h=0.1, trunc=2.0)
    u = interpolate(mesh, {"f": lambda x: x * (1.0 - x) ** 2, "h1": lambda x: 0.1 * (2.0 - x)})
    w = GraphFunction(mesh, mesh.swap_twins(u.values, "f", "g"))
    np.testing.assert_array_equal(w.edge_values("g")[1:-1], u.edge_values("f")[-2:0:-1])
    np.testing.assert_array_equal(w.edge_values("f")[1:-1], u.edge_values("g")[-2:0:-1])
    for eid in ("e", "h1", "h2"):
        np.testing.assert_array_equal(w.edge_values(eid), u.edge_values(eid))
    np.testing.assert_array_equal(mesh.swap_twins(w.values, "f", "g"), u.values)
    with pytest.raises(MeshError, match="not twins"):
        mesh.swap_twins(u.values, "e", "h1")


def test_halfline_needs_room():
    with pytest.raises(MeshError):
        build_mesh(halfline_graph(), h=0.5, trunc=1.0)


def test_mesh_and_function_compare_by_identity():
    m1 = build_mesh(halfline_graph(), h=0.1, trunc=2.0)
    m2 = build_mesh(halfline_graph(), h=0.1, trunc=2.0)
    assert (m1 == m2) is False
    assert (m1 == m1) is True
    assert m1 in [m2, m1] and m1 not in [m2]
    u, v = zero_function(m1), zero_function(m1)
    assert (u == v) is False
    assert (u == u) is True
    assert u in [v, u] and u not in [v]
