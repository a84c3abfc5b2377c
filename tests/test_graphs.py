import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnls.graphs import (
    Edge,
    GraphError,
    MetricGraph,
    double_bridge_graph,
    example_graph,
    first_twins,
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


_HALFLINE = {"id": "h", "from": "a", "halfline": True}
_BAD_EDGES = {
    "edge entry not an object": [5, _HALFLINE],
    "edges not a list": 5,
    "length not a number": [{"id": "e", "from": "a", "to": "a", "length": "abc"}, _HALFLINE],
    "length null": [{"id": "e", "from": "a", "to": "a", "length": None}, _HALFLINE],
    "integer length beyond float": [{"id": "e", "from": "a", "to": "a", "length": 10**400}, _HALFLINE],
    "halfline with a to end": [{**_HALFLINE, "to": "a"}],
}


@pytest.mark.parametrize("edges", _BAD_EDGES.values(), ids=_BAD_EDGES.keys())
def test_load_graph_malformed_edges_are_graph_errors(edges):
    # each document is a valid graph but for its malformed edge field
    with pytest.raises(GraphError, match="malformed"):
        load_graph(json.dumps({"vertices": ["a"], "edges": edges}))


# documents that once loaded without complaint, with what the error names
_BAD_DOCUMENTS = {
    "boolean length": (
        {"vertices": ["a"], "edges": [{"id": "e", "from": "a", "to": "a", "length": True}, _HALFLINE]},
        "boolean is not a length",
    ),
    "halfline length": (
        {"vertices": ["a"], "edges": [{**_HALFLINE, "length": 3.0}]},
        "must not carry a length",
    ),
    "repeated vertex": (
        {"vertices": ["a", "a"], "edges": [_HALFLINE]},
        r"repeated vertex names \['a'\]",
    ),
    "string halfline flag": (
        {"vertices": ["a", "b"], "edges": [
            {"id": "h", "from": "a", "to": "b", "halfline": "false"},
            {"id": "e", "from": "a", "to": "b", "length": 1.0},
        ]},
        "halfline 'false' is not a boolean",
    ),
    "integer halfline flag": (
        {"vertices": ["a"], "edges": [{**_HALFLINE, "halfline": 1}]},
        "halfline 1 is not a boolean",
    ),
    "string length": (
        {"vertices": ["a"], "edges": [{"id": "e", "from": "a", "to": "a", "length": "1.5"}, _HALFLINE]},
        "length '1.5' is not a number",
    ),
}


@pytest.mark.parametrize("doc, match", _BAD_DOCUMENTS.values(), ids=_BAD_DOCUMENTS.keys())
def test_load_graph_rejects_boolean_lengths_halfline_lengths_and_repeated_vertices(doc, match):
    with pytest.raises(GraphError, match=match):
        load_graph(json.dumps(doc))


def test_load_graph_unreadable_file_is_graph_error(tmp_path):
    with pytest.raises(GraphError, match="cannot read graph file"):
        load_graph(tmp_path)
    binary = tmp_path / "g.json"
    binary.write_bytes(b"\xff\xfe{")
    with pytest.raises(GraphError, match="cannot read graph file"):
        load_graph(binary)


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


def test_metric_graph_refuses_a_vertex_whose_only_edge_is_a_self_loop():
    # alone, it has no halfline; beside a valid component, it is disconnected
    loop = Edge("l", "b", "b", 1.0)
    with pytest.raises(GraphError, match="at least one halfline"):
        MetricGraph(vertices=("b",), edges=(loop,))
    with pytest.raises(GraphError, match="disconnected graph"):
        MetricGraph(vertices=("a", "b"), edges=(Edge("h", "a"), loop))


def test_normalize_turns_two_parallel_edges_into_an_unflagged_self_loop():
    # b joins the parallel edges e1 and e2: merging them leaves the loop at
    # a, whose halfline keeps its degree at 3
    g = MetricGraph(
        vertices=("a", "b"),
        edges=(Edge("e1", "a", "b", 1.0), Edge("e2", "a", "b", 2.0), Edge("h", "a")),
    )
    gn = normalize(g)
    assert gn.vertices == ("a",)
    assert gn.edges == (Edge("e1+e2", "a", "a", 3.0), Edge("h", "a"))
    assert gn.flagged_vertices == ()


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


def test_example_graph_takes_no_length_keywords():
    # its edge lengths are fixed: a keyword is refused, not silently ignored
    with pytest.raises(TypeError):
        example_graph(3, loop=5.0)


def test_example_graph_bad_index():
    with pytest.raises(GraphError):
        example_graph(7)


@pytest.mark.parametrize("n", [0, True, 2.5, 1.0, "1"])
def test_example_graph_needs_an_integer_index(n):
    with pytest.raises(GraphError, match="no built-in example"):
        example_graph(n)


@pytest.mark.parametrize("n", [0, -1, True, 2.5, "3"])
def test_star_graph_needs_a_count_of_at_least_one(n):
    with pytest.raises(GraphError, match="star size"):
        star_graph(n)


@pytest.mark.parametrize(
    "g, classes",
    [
        # e6/e7/e8 and e9/e10 share endpoints and length, h3/h4 their vertex
        (example_graph(1), {"e7": "e6", "e8": "e6", "e10": "e9", "h4": "h3"}),
        (example_graph(3), {"g": "f", "h2": "h1"}),
        # the direction of an edge does not matter
        (MetricGraph(("v1", "v2"), tuple(Edge("g", "v2", "v1", 1.0) if e.id == "g" else e
                                         for e in example_graph(3).edges)),
         {"g": "f", "h2": "h1"}),
        # nor does it for a self-loop, but its length does
        (MetricGraph(("a",), (Edge("l1", "a", "a", 1.0), Edge("l2", "a", "a", 1.0),
                              Edge("l3", "a", "a", 2.0), Edge("h", "a"))), {"l2": "l1"}),
        (MetricGraph(("a", "b"), (Edge("f", "a", "b", 1.0), Edge("g", "a", "b", 1.5),
                                  Edge("h", "a"))), {}),
        (example_graph(4), {}),
        (star_graph(3), {"h2": "h1", "h3": "h1"}),
        (line_graph(), {}),
    ],
)
def test_first_twins_maps_each_edge_to_the_first_of_its_class(g, classes):
    assert first_twins(g) == {e.id: classes.get(e.id, e.id) for e in g.edges}


# Property tests: derandomized and small, so that they run the same
# examples every time and stay fast.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def graphs(draw):
    """Connected noncompact graphs: a random spanning tree, extra bounded
    edges (self-loops and multi-edges included) and at least one halfline,
    in shuffled order."""
    n = draw(st.integers(1, 5))
    vertices = [f"v{i}" for i in range(n)]
    length = st.floats(0.1, 10.0)
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    edges = [
        Edge(f"e{k}", vertices[a], vertices[b], draw(length)) for k, (a, b) in enumerate(pairs)
    ]
    edges += [
        Edge(f"h{k}", vertices[v])
        for k, v in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))
    ]
    return MetricGraph(vertices=tuple(vertices), edges=tuple(draw(st.permutations(edges))))


@PROPERTY
@given(st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan, True, "2"]))
def test_edge_rejects_every_nonpositive_or_nonfinite_length(length):
    with pytest.raises(GraphError, match="positive finite length"):
        Edge("e", "a", "b", length)


@PROPERTY
@given(graphs())
def test_load_graph_inverts_to_dict(g):
    back = load_graph(g.to_dict())
    assert (back.vertices, back.edges) == (g.vertices, g.edges)


@PROPERTY
@given(graphs())
def test_normalize_properties(g):
    gn = normalize(g)
    assert normalize(gn) == gn
    assert len(gn.halflines) == len(g.halflines)
    assert all(gn.degree(v) != 2 or v in gn.flagged_vertices for v in gn.vertices)
