"""Noncompact metric graphs: representation, validation, normalization, fixtures.

A metric graph is a finite collection of intervals (bounded edges) and
halflines glued at vertices.  Self-loops and multi-edges are allowed; at
least one halfline is required (noncompactness).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union


class GraphError(ValueError):
    """Raised for invalid graph documents or invalid graph structure."""


def is_number(x, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """x is a real number, not a bool, with lo < x < hi (so finite), that a
    float holds: an integer past the float range is refused."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and lo < float(x) < hi
    except OverflowError:
        return False


def is_count(x, least: int) -> bool:
    """x is an integer, not a bool, and x >= least."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


@dataclass(frozen=True)
class Edge:
    """One edge of a metric graph.

    A bounded edge is an interval [0, length] running from ``src`` to ``dst``;
    a halfline is [0, inf) attached at ``src`` (``dst`` is None, length None).
    """

    id: str
    src: str
    dst: Optional[str] = None
    length: Optional[float] = None

    @property
    def is_halfline(self) -> bool:
        return self.dst is None

    @property
    def is_self_loop(self) -> bool:
        return self.dst is not None and self.src == self.dst

    def __post_init__(self):
        if self.is_halfline:
            if self.length is not None:
                raise GraphError(f"halfline edge {self.id!r} must not carry a length")
        elif not is_number(self.length, 0.0):
            raise GraphError(f"edge {self.id!r}: {self.length!r} is not a positive finite length")


@dataclass(frozen=True)
class MetricGraph:
    """A connected noncompact metric graph.

    ``flagged_vertices`` lists degree-two vertices that ``normalize`` could
    not eliminate: the junction of two halflines.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    name: str = ""
    flagged_vertices: tuple[str, ...] = ()

    def __post_init__(self):
        _validate(self)

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise GraphError(f"unknown edge {edge_id!r}")

    def degree(self, v: str) -> int:
        d = 0
        for e in self.edges:
            if e.src == v:
                d += 1
            if e.dst == v:
                d += 1
        return d

    @property
    def bounded_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if not e.is_halfline)

    @property
    def halflines(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.is_halfline)

    @property
    def shortest_bounded_length(self) -> Optional[float]:
        lens = [e.length for e in self.bounded_edges]
        return min(lens) if lens else None

    def to_dict(self) -> dict:
        edges = []
        for e in self.edges:
            if e.is_halfline:
                edges.append({"id": e.id, "from": e.src, "halfline": True})
            else:
                edges.append({"id": e.id, "from": e.src, "to": e.dst, "length": e.length})
        return {"name": self.name, "vertices": list(self.vertices), "edges": edges}


def first_twins(g: MetricGraph) -> dict[str, str]:
    """Each edge id mapped to the first edge, in input order, of its twin
    class.  Twins have the same unordered endpoints and the same length
    (``None`` for a halfline), so exchanging two of them is an isometry of
    the graph, and their constrained problems are mirror images."""
    first: dict = {}
    return {e.id: first.setdefault((frozenset((e.src, e.dst)), e.length), e.id) for e in g.edges}


def _validate(g: MetricGraph) -> None:
    if len(set(g.vertices)) != len(g.vertices):
        repeated = sorted({v for v in g.vertices if g.vertices.count(v) > 1})
        raise GraphError(f"repeated vertex names {repeated}")
    seen = set()
    for e in g.edges:
        if e.id in seen:
            raise GraphError(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        if e.src not in g.vertices:
            raise GraphError(f"edge {e.id!r} references unknown vertex {e.src!r}")
        if e.dst is not None and e.dst not in g.vertices:
            raise GraphError(f"edge {e.id!r} references unknown vertex {e.dst!r}")
    if not any(e.is_halfline for e in g.edges):
        raise GraphError("compact graph: at least one halfline is required")
    # connectivity over vertices (halflines do not connect vertices)
    if g.vertices:
        adj: dict[str, set[str]] = {v: set() for v in g.vertices}
        for e in g.edges:
            if e.dst is not None:
                adj[e.src].add(e.dst)
                adj[e.dst].add(e.src)
        root = g.vertices[0]
        stack, comp = [root], {root}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        if comp != set(g.vertices):
            raise GraphError("disconnected graph")


def load_graph(doc: Union[str, Path, Mapping]) -> MetricGraph:
    """Load a metric graph from a JSON document, file path, or mapping."""
    if isinstance(doc, (str, Path)):
        try:
            is_file = Path(str(doc)).exists()
        except (OSError, ValueError):
            # e.g. a JSON document long enough to overflow the path limit
            is_file = False
        try:
            text = Path(doc).read_text() if is_file else str(doc)
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError(f"cannot read graph file {str(doc)!r}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"cannot parse graph document: {exc}") from exc
    else:
        data = doc
    try:
        vertices = tuple(str(v) for v in data["vertices"])
        raw_edges = list(data["edges"])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    edges = []
    for item in raw_edges:
        # only the reading of fields is guarded: Edge's own GraphError passes unchanged
        try:
            # a halfline's length stays as given, for Edge to reject
            fields = {"id": str(item["id"]), "src": str(item["from"]), "length": item.get("length")}
            halfline = item.get("halfline", False)
            if not isinstance(halfline, bool):
                raise TypeError(f"halfline {halfline!r} is not a boolean")
            if halfline and "to" in item:
                raise ValueError("a halfline has no 'to' end")
            if not halfline:
                length = item["length"]
                if isinstance(length, bool):
                    raise TypeError("a boolean is not a length")
                if not isinstance(length, numbers.Real):
                    raise TypeError(f"length {length!r} is not a number")
                fields.update(dst=str(item["to"]), length=float(length))
        except KeyError as exc:
            raise GraphError(f"edge entry missing field {exc}") from exc
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed edge entry {item!r}: {exc}") from exc
        edges.append(Edge(**fields))
    return MetricGraph(vertices=vertices, edges=tuple(edges), name=str(data.get("name", "")))


def normalize(g: MetricGraph) -> MetricGraph:
    """Eliminate degree-two vertices by merging their two incident edges.

    Chains of bounded edges merge into a single bounded edge with summed
    length (a self-loop, when the two edges are parallel); a bounded edge
    followed by a halfline merges into a halfline.  The junction of two
    halflines cannot be eliminated: it is retained and flagged.  No merge
    leaves a vertex whose only edge is a self-loop: in a connected graph
    with a halfline, that vertex would be a component of its own.
    """
    edges = list(g.edges)
    vertices = list(g.vertices)
    flagged = set(g.flagged_vertices)

    changed = True
    while changed:
        changed = False
        for v in list(vertices):
            incident = [e for e in edges if e.src == v or e.dst == v]
            deg = sum((e.src == v) + (e.dst == v) for e in incident)
            if deg != 2 or v in flagged:
                continue
            a, b = incident
            if a.is_halfline and b.is_halfline:
                # the real line: two halflines glued at v
                flagged.add(v)
                continue
            if a.is_halfline:
                a, b = b, a
            # a is bounded with one endpoint at v
            a_far = a.dst if a.src == v else a.src
            merged_id = f"{a.id}+{b.id}"
            if b.is_halfline:
                merged = Edge(id=merged_id, src=a_far)
            else:
                b_far = b.dst if b.src == v else b.src
                merged = Edge(id=merged_id, src=a_far, dst=b_far, length=a.length + b.length)
            pos = min(edges.index(a), edges.index(b))
            edges.remove(a)
            edges.remove(b)
            edges.insert(pos, merged)
            vertices.remove(v)
            changed = True
            break
    return MetricGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        name=g.name,
        flagged_vertices=tuple(sorted(flagged)),
    )


# ---------------------------------------------------------------------------
# Built-in fixtures.  The examples' edge lengths are fixed: every bounded
# edge has length 1 except in example 4 (terminal edges 2, middle edge 4).


def line_graph(length: float = 10.0) -> MetricGraph:
    """One bounded edge with a halfline attached at each end (a model of R)."""
    return MetricGraph(
        vertices=("v1", "v2"),
        edges=(
            Edge("e", "v1", "v2", length),
            Edge("h1", "v1"),
            Edge("h2", "v2"),
        ),
        name="line",
    )


def halfline_graph(name: str = "halfline") -> MetricGraph:
    """A single halfline: the graph R+."""
    return MetricGraph(vertices=("v1",), edges=(Edge("h1", "v1"),), name=name)


def star_graph(n: int = 3) -> MetricGraph:
    """n halflines joined at a single vertex."""
    if not is_count(n, 1):
        raise GraphError(f"star size {n!r} is not an integer >= 1")
    return MetricGraph(
        vertices=("v1",),
        edges=tuple(Edge(f"h{i+1}", "v1") for i in range(n)),
        name="star",
    )


def double_bridge_graph(length: float = 0.3) -> MetricGraph:
    """A bounded edge whose endpoints each carry two halflines.

    Both endpoints have degree 3, so the bounded edge survives normalization;
    used for mass-threshold scans on a short edge.
    """
    return MetricGraph(
        vertices=("v1", "v2"),
        edges=(
            Edge("e", "v1", "v2", length),
            Edge("h1", "v1"),
            Edge("h2", "v1"),
            Edge("h3", "v2"),
            Edge("h4", "v2"),
        ),
        name="double-bridge",
    )


def example_graph(n: int) -> MetricGraph:
    """Built-in example graphs 1-4.

    1: 13 bounded edges (with a self-loop, triple and double edges), 5
       halflines, no terminal edge.
    2: example 1 plus one terminal edge ``f``.
    3: two halflines at one vertex, two parallel edges ``f``/``g`` of equal
       length to a second vertex carrying the self-loop ``e``.
    4: halfline - terminal edge ``e`` / middle edge ``f`` / terminal edge
       ``g`` - halfline.
    """
    if not (is_count(n, 1) and n <= 4):
        raise GraphError(f"no built-in example {n!r}; choose 1-4")
    if n <= 2:
        vertices = ("v1", "v3", "v4", "v6", "v7", "v8", "v9")
        edges = (
            Edge("e1", "v1", "v3", 1.0),
            Edge("e2", "v1", "v4", 1.0),
            Edge("e3", "v3", "v4", 1.0),
            Edge("e4", "v3", "v3", 1.0),  # self-loop
            Edge("e5", "v3", "v6", 1.0),
            Edge("e6", "v6", "v7", 1.0),
            Edge("e7", "v6", "v7", 1.0),
            Edge("e8", "v6", "v7", 1.0),
            Edge("e9", "v6", "v8", 1.0),
            Edge("e10", "v6", "v8", 1.0),
            Edge("e11", "v7", "v8", 1.0),
            Edge("e12", "v8", "v9", 1.0),
            Edge("e13", "v7", "v9", 1.0),
            Edge("h1", "v1"),
            Edge("h2", "v4"),
            Edge("h3", "v7"),
            Edge("h4", "v7"),
            Edge("h5", "v9"),
        )
        if n == 2:
            vertices += ("v13",)
            edges += (Edge("f", "v4", "v13", 1.0),)
        return MetricGraph(vertices=vertices, edges=edges, name=f"example{n}")
    if n == 3:
        return MetricGraph(
            vertices=("v1", "v2"),
            edges=(
                Edge("e", "v2", "v2", 1.0),
                Edge("f", "v1", "v2", 1.0),
                Edge("g", "v1", "v2", 1.0),
                Edge("h1", "v1"),
                Edge("h2", "v1"),
            ),
            name="example3",
        )
    return MetricGraph(
        vertices=("v1", "v2", "v3", "v4"),
        edges=(
            Edge("e", "v1", "v3", 2.0),
            Edge("f", "v1", "v2", 4.0),
            Edge("g", "v2", "v4", 2.0),
            Edge("h1", "v1"),
            Edge("h2", "v2"),
        ),
        name="example4",
    )
