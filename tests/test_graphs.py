import json

import pytest

from graphnls.graphs import (
    Edge,
    GraphError,
    MetricGraph,
    classify_edges,
    double_bridge_graph,
    example_graph,
    halfline_graph,
    line_graph,
    load_graph,
    normalize,
    star_graph,
)


def test_edge_basics():
    e = Edge("e", "a", "b", 2.0)
    assert not e.is_halfline and not e.is_self_loop
    h = Edge("h", "a", None, None)
    assert h.is_halfline
    loop = Edge("l", "a", "a", 1.0)
    assert loop.is_self_loop


def test_edge_validation():
    with pytest.raises(GraphError):
        Edge("e", "a", "b", -1.0)
    with pytest.raises(GraphError):
        Edge("e", "a", "b", None)  # bounded edge needs a length
    with pytest.raises(GraphError):
        Edge("h", "a", None, 3.0)  # halfline must not carry a length
    for length in (float("inf"), float("nan")):
        with pytest.raises(GraphError, match="positive finite length"):
            Edge("e", "a", "b", length)


def test_load_graph_rejects_overflowing_length():
    # JSON 1e400 parses to inf; it must fail as a graph error, not in meshing
    doc = (
        '{"vertices": ["a", "b"], "edges": ['
        '{"id": "e", "from": "a", "to": "b", "length": 1e400},'
        '{"id": "h", "from": "a", "halfline": true}]}'
    )
    with pytest.raises(GraphError, match="positive finite length"):
        load_graph(doc)


def test_graph_lookup_and_degree():
    g = star_graph(3)
    assert g.degree("v1") == 3
    assert len(g.halflines) == 3
    assert g.bounded_edges == ()
    assert g.shortest_bounded_length is None
    with pytest.raises(GraphError):
        g.edge("nope")


def test_duplicate_edge_ids_rejected():
    with pytest.raises(GraphError):
        MetricGraph(
            vertices=("a", "b"),
            edges=(Edge("e", "a", "b", 1.0), Edge("e", "a", "b", 2.0)),
        )


def test_edge_with_unknown_vertex_rejected():
    with pytest.raises(GraphError):
        MetricGraph(vertices=("a",), edges=(Edge("e", "a", "zz", 1.0),))


def test_load_graph_roundtrip(tmp_path):
    g = double_bridge_graph(0.3)
    doc = g.to_dict()
    g2 = load_graph(doc)
    assert {e.id for e in g2.edges} == {e.id for e in g.edges}
    assert g2.edge("e").length == pytest.approx(0.3)

    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    g3 = load_graph(path)
    assert g3.shortest_bounded_length == pytest.approx(0.3)

    g4 = load_graph(json.dumps(doc))
    assert len(g4.halflines) == 4


def test_load_graph_rejects_garbage():
    with pytest.raises(GraphError):
        load_graph({"vertices": ["a"]})
    with pytest.raises(GraphError):
        load_graph('{"edges": []}')


def test_normalize_merges_degree_two():
    g = MetricGraph(
        vertices=("a", "b", "c", "d"),
        edges=(
            Edge("e1", "a", "b", 1.0),
            Edge("e2", "b", "c", 2.0),
            Edge("e3", "c", "d", 0.5),
            Edge("h1", "a", None, None),
            Edge("h2", "a", None, None),
            Edge("h3", "d", None, None),
            Edge("h4", "d", None, None),
        ),
    )
    gn = normalize(g)
    merged = [e for e in gn.bounded_edges]
    assert len(merged) == 1
    assert merged[0].length == pytest.approx(3.5)
    assert "+" in merged[0].id
    # chain endpoints have degree 3, so they survive
    assert set(gn.vertices) == {"a", "d"}


def test_normalize_absorbs_bounded_edge_into_halfline():
    g = MetricGraph(
        vertices=("a", "b"),
        edges=(
            Edge("e1", "a", "b", 1.0),
            Edge("h1", "b", None, None),
            Edge("h2", "a", None, None),
            Edge("h3", "a", None, None),
        ),
    )
    gn = normalize(g)
    assert gn.bounded_edges == ()
    assert len(gn.halflines) == 3
    assert any("+" in e.id for e in gn.halflines)


def test_normalize_flags_two_halfline_junction():
    g = MetricGraph(
        vertices=("a",),
        edges=(Edge("h1", "a", None, None), Edge("h2", "a", None, None)),
    )
    gn = normalize(g)
    # a vertex joining exactly two halflines is kept but flagged: removing it
    # would leave a full line with no bounded edge to localize on
    assert "a" in gn.flagged_vertices
    assert len(gn.halflines) == 2


def test_classify_edges_roles():
    g = example_graph(4)
    cls = classify_edges(g)
    assert cls.by_edge["h1"].kind == "halfline"
    assert cls.by_edge["e"].kind == "bounded"
    assert cls.shortest_bounded == pytest.approx(2.0)
    # terminal role: one endpoint of degree 1
    g2 = MetricGraph(
        vertices=("a", "b"),
        edges=(Edge("t", "a", "b", 1.0), Edge("h", "a", None, None)),
    )
    assert classify_edges(g2).by_edge["t"].role == "terminal"


def test_fixture_shapes():
    assert len(line_graph(10.0).halflines) == 2
    assert len(halfline_graph().halflines) == 1
    g1 = example_graph(1)
    assert len(g1.bounded_edges) == 13
    assert len(g1.halflines) == 5
    g2 = example_graph(2)
    assert len(g2.bounded_edges) == 14
    g3 = example_graph(3)
    assert len(g3.bounded_edges) == 3
    assert any(e.is_self_loop for e in g3.edges)
    g4 = example_graph(4)
    assert sorted(e.id for e in g4.bounded_edges) == ["e", "f", "g"]
    assert g4.edge("f").length == pytest.approx(4.0)


def test_example_graph_bad_index():
    with pytest.raises(GraphError):
        example_graph(7)
