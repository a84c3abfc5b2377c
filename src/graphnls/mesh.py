"""P1 finite elements on a metric graph.

Each edge carries a uniform grid; endpoint nodes meeting at a vertex share a
single global degree of freedom, which encodes continuity across vertices.
Halflines are truncated at a finite length with a homogeneous Dirichlet
condition at the far end (bound states decay, so the truncation length is
the accuracy knob).  Kirchhoff vertex conditions are never imposed
strongly: they are the natural conditions of the assembled quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

import numpy as np
import scipy.sparse as sp

from .graphs import MetricGraph

DEFAULT_TRUNCATION = 20.0


class MeshError(ValueError):
    """Raised for invalid meshing parameters or mesh/function mismatches."""


@dataclass(frozen=True)
class EdgeMesh:
    edge_id: str
    coords: np.ndarray      # nodal coordinates along the edge, starting at src
    dofs: np.ndarray        # global dof per node; == ndof marks a fixed zero
    spacing: float
    is_halfline: bool


@dataclass(eq=False)
class Mesh:
    """Glued per-edge grids with a global degree-of-freedom map, assembled
    when built."""

    graph: MetricGraph
    h: float
    edge_meshes: tuple[EdgeMesh, ...]
    vertex_dof: Mapping[str, int]
    ndof: int
    truncation: float

    # element table: the left and right dof, the length, the edge index and
    # the midpoint coordinate of every element of every edge, in edge order;
    # dof ndof is the fixed zero at a truncated halfline end
    el_left: np.ndarray = field(init=False, repr=False)
    el_right: np.ndarray = field(init=False, repr=False)
    el_h: np.ndarray = field(init=False, repr=False)
    el_edge: np.ndarray = field(init=False, repr=False)
    el_mid: np.ndarray = field(init=False, repr=False)
    # node table: the dof, edge index and coordinate of every node of every
    # edge, in edge order (vertex dofs appear once per incident edge end)
    node_dof: np.ndarray = field(init=False, repr=False)
    node_edge: np.ndarray = field(init=False, repr=False)
    node_x: np.ndarray = field(init=False, repr=False)
    # per edge index: whether the edge is a (truncated) halfline
    edge_halfline: np.ndarray = field(init=False, repr=False)
    vertex_dofs: np.ndarray = field(init=False, repr=False)      # sorted
    interior_mask: np.ndarray = field(init=False, repr=False)    # not a vertex dof
    mass_matrix: sp.csr_matrix = field(init=False, repr=False)
    stiffness_matrix: sp.csr_matrix = field(init=False, repr=False)
    lumped_mass: np.ndarray = field(init=False, repr=False)
    # element Simpson rule as ``(P, P.T, node_w, mid_w)``: ``P`` maps nodal
    # values to element midpoint values, and the integral of f is
    # ``node_w @ f(v) + mid_w @ f(P @ v)``
    simpson_rule: tuple = field(init=False, repr=False)
    _edge_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        ems = self.edge_meshes
        self.el_left = np.concatenate([em.dofs[:-1] for em in ems])
        self.el_right = np.concatenate([em.dofs[1:] for em in ems])
        self.el_h = np.concatenate([np.full(em.dofs.size - 1, em.spacing) for em in ems])
        self.el_mid = np.concatenate([0.5 * (em.coords[:-1] + em.coords[1:]) for em in ems])
        self.node_dof = np.concatenate([em.dofs for em in ems])
        self.node_x = np.concatenate([em.coords for em in ems])
        sizes = np.array([em.dofs.size for em in ems])
        self.node_edge = np.repeat(np.arange(len(ems)), sizes)
        self.el_edge = np.repeat(np.arange(len(ems)), sizes - 1)
        self.edge_halfline = np.array([em.is_halfline for em in ems])
        self._edge_index = {em.edge_id: i for i, em in enumerate(ems)}
        self.vertex_dofs = np.array(sorted(self.vertex_dof.values()), dtype=int)
        self.interior_mask = np.ones(self.ndof, dtype=bool)
        self.interior_mask[self.vertex_dofs] = False
        self._assemble()

    def edge_index(self, edge_id: str) -> int:
        """Position of the edge in ``edge_meshes``, as in ``node_edge`` and
        ``el_edge``."""
        try:
            return self._edge_index[edge_id]
        except KeyError:
            raise MeshError(f"unknown edge {edge_id!r}") from None

    def edge_mesh(self, edge_id: str) -> EdgeMesh:
        return self.edge_meshes[self.edge_index(edge_id)]

    def element_values(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodal values ``(a, b)`` at the left and right end of every element."""
        ext = np.append(v, 0.0)
        return ext[self.el_left], ext[self.el_right]

    def scatter(self, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
        """Nodal vector summing real per-element contributions ``wa`` to the
        left and ``wb`` to the right dofs."""
        n = self.ndof + 1
        out = np.bincount(self.el_left, wa, n) + np.bincount(self.el_right, wb, n)
        return out[:-1]

    def element_matrix(self, waa, wbb, wab) -> sp.csr_matrix:
        """Sum of the symmetric element blocks [[waa, wab], [wab, wbb]]."""
        a, b = self.el_left, self.el_right
        rows = np.concatenate([a, b, a, b])
        cols = np.concatenate([a, b, b, a])
        vals = np.concatenate([waa, wbb, wab, wab])
        keep = (rows < self.ndof) & (cols < self.ndof)
        shape = (self.ndof, self.ndof)
        return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape).tocsr()

    def _assemble(self) -> None:
        h = self.el_h
        self.mass_matrix = self.element_matrix(h / 3.0, h / 3.0, h / 6.0)
        self.stiffness_matrix = self.element_matrix(1.0 / h, 1.0 / h, -1.0 / h)
        self.lumped_mass = np.asarray(self.mass_matrix.sum(axis=1)).ravel()
        rows = np.tile(np.arange(h.size), 2)
        cols = np.concatenate([self.el_left, self.el_right])
        keep = cols < self.ndof
        P = sp.csr_matrix(
            (np.full(int(keep.sum()), 0.5), (rows[keep], cols[keep])),
            shape=(h.size, self.ndof),
        )
        # P.T is a CSC view on P's arrays, kept so that no product pays for a
        # fresh transpose.  Simpson's end weights h/6 collect on the nodes
        # (not lumped/3: the lumped mass drops the coupling to a fixed zero).
        self.simpson_rule = (P, P.T, self.scatter(h / 6.0, h / 6.0), 2.0 * h / 3.0)


def build_mesh(
    g: MetricGraph,
    h: float,
    trunc: Union[float, str] = "auto",
    lambda_est: Optional[float] = None,
) -> Mesh:
    """Build a glued P1 mesh with target spacing ``h``.

    ``trunc`` is the halfline truncation length; "auto" selects
    max(20, 8/sqrt(lambda_est)) so that exp(-sqrt(lambda) x) tails are
    negligible at the far end.
    """
    if not 0.0 < h < math.inf:
        raise MeshError(f"mesh spacing h={h} is not positive and finite")
    ell = g.shortest_bounded_length
    if ell is not None and h >= ell / 2.0:
        raise MeshError(
            f"mesh too coarse: h={h} but the shortest bounded edge has length {ell}"
        )
    if trunc == "auto":
        lam = lambda_est if lambda_est else 0.16
        L = max(DEFAULT_TRUNCATION, 8.0 / math.sqrt(lam))
    else:
        L = float(trunc)
        if not 0.0 < L < math.inf:
            raise MeshError(f"truncation length {L} is not positive and finite")
        if L < 10 * h:
            raise MeshError(f"truncation length {L} shorter than 10 h = {10 * h}")

    vertex_dof = {v: i for i, v in enumerate(g.vertices)}
    next_dof = len(g.vertices)
    edge_meshes = []
    for e in g.edges:
        length = L if e.is_halfline else e.length
        n_elem = max(2, math.ceil(length / h - 1e-12))
        he = length / n_elem
        coords = np.linspace(0.0, length, n_elem + 1)
        dofs = np.empty(n_elem + 1, dtype=int)
        dofs[0] = vertex_dof[e.src]
        dofs[1:-1] = np.arange(next_dof, next_dof + n_elem - 1)
        next_dof += n_elem - 1
        if e.is_halfline:
            dofs[-1] = -1  # fixed later to ndof (homogeneous Dirichlet)
        else:
            dofs[-1] = vertex_dof[e.dst]
        edge_meshes.append(EdgeMesh(e.id, coords, dofs, he, e.is_halfline))
    ndof = next_dof
    for em in edge_meshes:
        d = em.dofs
        d[d == -1] = ndof
    return Mesh(
        graph=g,
        h=h,
        edge_meshes=tuple(edge_meshes),
        vertex_dof=vertex_dof,
        ndof=ndof,
        truncation=L,
    )


@dataclass(eq=False)
class GraphFunction:
    """Nodal values of a continuous function on the mesh, one per global DOF."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.mesh.ndof,):
            raise MeshError(
                f"expected {self.mesh.ndof} nodal values, got {self.values.shape}"
            )

    def copy(self) -> "GraphFunction":
        return GraphFunction(self.mesh, self.values.copy())

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def edge_values(self, edge_id: str) -> np.ndarray:
        """Nodal values along one edge, including the fixed zero at a
        truncated halfline end."""
        em = self.mesh.edge_mesh(edge_id)
        ext = np.append(self.values, 0.0)
        return ext[em.dofs]

    def to_dict(self) -> dict:
        return {
            "h": self.mesh.h,
            "truncation": self.mesh.truncation,
            "edges": {
                em.edge_id: {
                    "x": em.coords.tolist(),
                    "u": _values_to_list(self.edge_values(em.edge_id)),
                }
                for em in self.mesh.edge_meshes
            },
        }


def _values_to_list(v: np.ndarray):
    if np.iscomplexobj(v):
        return [[float(z.real), float(z.imag)] for z in v]
    return [float(x) for x in v]


def zero_function(mesh: Mesh, complex_valued: bool = False) -> GraphFunction:
    dtype = complex if complex_valued else float
    return GraphFunction(mesh, np.zeros(mesh.ndof, dtype=dtype))


def interpolate(mesh: Mesh, profiles: Mapping[str, Callable]) -> GraphFunction:
    """Nodal sampling of closed-form profiles placed on selected edges.

    ``profiles`` maps edge id to a callable of the edge coordinate.  Values
    are zero elsewhere; at shared vertices the last-listed edge wins, so
    profiles should agree (or vanish) at shared endpoints.
    """
    u = zero_function(mesh)
    ext = np.zeros(mesh.ndof + 1)
    for edge_id, f in profiles.items():
        em = mesh.edge_mesh(edge_id)
        ext[em.dofs] = f(em.coords)
    u.values[:] = ext[: mesh.ndof]
    return u


def place_profile(
    mesh: Mesh,
    edge_id: str,
    f: Callable,
    center: float,
    support_radius: Optional[float] = None,
) -> GraphFunction:
    """Place a profile ``f(x - center)`` on one edge, zero elsewhere.

    Raises if the stated support does not fit inside the edge.
    """
    em = mesh.edge_mesh(edge_id)
    length = em.coords[-1]
    if support_radius is not None:
        if center - support_radius < -1e-12 or center + support_radius > length + 1e-12:
            raise MeshError(
                f"profile support [{center - support_radius:.4g}, "
                f"{center + support_radius:.4g}] exceeds edge {edge_id!r} of length {length:.4g}"
            )
    return interpolate(mesh, {edge_id: lambda x: f(x - center)})


def argmax(u: GraphFunction) -> tuple[str, float, float]:
    """Location of the maximum of |u|: (edge id, coordinate, value).

    Ties break by edge input order, then by smallest coordinate (the first
    maximum of the node table).
    """
    mesh = u.mesh
    vals = np.abs(np.append(u.values, 0.0))[mesh.node_dof]
    k = int(np.argmax(vals))
    if vals[k] == 0.0:
        raise MeshError("argmax of the zero function is undefined")
    em = mesh.edge_meshes[mesh.node_edge[k]]
    return em.edge_id, float(mesh.node_x[k]), float(vals[k])
