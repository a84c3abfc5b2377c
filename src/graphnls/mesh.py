"""P1 finite elements on a metric graph.

Each edge carries a uniform grid; endpoint nodes meeting at a vertex share a
single global degree of freedom, which encodes continuity across vertices.
Halflines are truncated at a finite length with a homogeneous Dirichlet
condition at the far end (bound states decay, so the truncation length is
the accuracy knob).  Kirchhoff vertex conditions are never imposed
strongly: they are the natural conditions of the assembled quadratic form.
The vertex dofs come first, then each edge's interior dofs in order along
the edge, so every stencil matrix is a tridiagonal chain over the interior
dofs bordered by the vertex dofs, the split that ``Mesh.factor`` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import get_lapack_funcs

from .graphs import MetricGraph, is_number

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
    # per dof: the first node-table position that holds it
    dof_first_node: np.ndarray = field(init=False, repr=False)
    # per edge index: whether the edge is a (truncated) halfline
    edge_halfline: np.ndarray = field(init=False, repr=False)
    vertex_dofs: np.ndarray = field(init=False, repr=False)      # sorted
    interior_mask: np.ndarray = field(init=False, repr=False)    # not a vertex dof
    # the sparsity pattern of the P1 stencil, shared (read-only) by every
    # matrix on it: its column indices and row pointers, the data slot of
    # every entry of the element blocks that ``element_matrix`` stacks (nnz
    # for an entry on the fixed zero), and the slot of every diagonal entry
    stencil_indices: np.ndarray = field(init=False, repr=False)
    stencil_indptr: np.ndarray = field(init=False, repr=False)
    element_slots: np.ndarray = field(init=False, repr=False)
    diagonal_slots: np.ndarray = field(init=False, repr=False)
    # the split that ``factor`` uses: the chain's sub-diagonal as (position,
    # slot), counted from the first interior dof, and the vertex-interior
    # couplings (interior row counted likewise) and the vertex block as
    # (row, column, slot)
    chain_entries: tuple = field(init=False, repr=False)
    coupling_entries: tuple = field(init=False, repr=False)
    vertex_entries: tuple = field(init=False, repr=False)
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
        dofs, first = np.unique(self.node_dof, return_index=True)
        self.dof_first_node = first[dofs < self.ndof]
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

    def node_values(self, v: np.ndarray) -> np.ndarray:
        """Nodal values ``v`` at every node-table entry, the fixed zero at a
        truncated halfline end included."""
        return np.append(v, 0.0)[self.node_dof]

    def node_sum(self, w: np.ndarray) -> np.ndarray:
        """Nodal vector summing the real per-node weights ``w`` (one per
        node-table entry) onto their dofs; a fixed zero's weight is dropped."""
        return np.bincount(self.node_dof, w, self.ndof + 1)[:-1]

    def swap_twins(self, v: np.ndarray, a: str, b: str) -> np.ndarray:
        """``v`` with the interior values of the twin edges ``a`` and ``b``
        (``graphs.first_twins``) exchanged, each run reversed when the two
        edges run opposite ways: ``v`` moved by the isometry that swaps
        them."""
        da, db = self.edge_mesh(a).dofs[1:-1], self.edge_mesh(b).dofs[1:-1]
        if da.size != db.size:
            raise MeshError(f"edges {a!r} and {b!r} are not twins")
        if self.graph.edge(a).src != self.graph.edge(b).src:
            db = db[::-1]
        out = v.copy()
        out[da], out[db] = v[db], v[da]
        return out

    def stencil_matrix(self, data: np.ndarray, fmt: str = "csr", border=None):
        """The matrix A with entries ``data`` on the stencil pattern, as CSR
        or (``fmt="csc"``, for ``splu``; ``factor`` is the faster solver on
        this pattern) CSC.  The pattern and every matrix assembled on it are
        symmetric, so one set of arrays reads either way, and matrices on
        the pattern combine by their ``data``.  With k columns ``border`` B,
        the bordered matrix [[A, B], [B^T, 0]] instead."""
        cls = sp.csc_matrix if fmt == "csc" else sp.csr_matrix
        shape = (self.ndof, self.ndof)
        A = cls((data, self.stencil_indices, self.stencil_indptr), shape=shape)
        if border is None:
            return A
        return sp.bmat([[A, border], [border.T, None]], format=fmt)

    def factor(self, data: np.ndarray, border=None):
        """Factor [[A, B], [B^T, 0]] for the stencil matrix A with entries
        ``data`` and the k columns ``border`` B (k = 0 when None), and
        return ``solve(f, g=()) -> (x, m)`` for the right-hand side [f; g].

        The interior dofs form a tridiagonal chain, factored by LAPACK
        ``?gttrf``; the vertex dofs and B form one border of width nv + k,
        eliminated through its dense Schur complement (Keller's bordering,
        Govaerts, Numerical Methods for Bifurcations of Dynamical
        Equilibria, SIAM 2000).  Real or complex symmetric (transposes, not
        adjoints) by the dtype of ``data`` and B.  The chain cannot pivot
        across a vertex, so this raises LinAlgError when the chain or the
        Schur complement is exactly singular, whether or not the whole
        matrix is."""
        nv = self.vertex_dofs.size
        B = np.zeros((self.ndof, 0)) if border is None else border
        dtype = np.result_type(data, B)
        gttrf, gttrs, getrf, getrs = get_lapack_funcs(
            ("gttrf", "gttrs", "getrf", "getrs"), dtype=dtype
        )
        pos, slots = self.chain_entries
        off = np.zeros(self.ndof - nv - 1, dtype)
        off[pos] = data[slots]
        dl, d, du, du2, ipiv, info = gttrf(off, data[self.diagonal_slots[nv:]], off)
        if info > 0:
            raise np.linalg.LinAlgError(f"interior chain singular at dof {nv + info - 1}")

        # E: the border's interior rows, D: its own block
        nb = nv + B.shape[1]
        E = np.zeros((self.ndof - nv, nb), dtype, order="F")
        rows, cols, slots = self.coupling_entries
        E[rows, cols] = data[slots]
        E[:, nv:] = B[nv:]
        D = np.zeros((nb, nb), dtype)
        rows, cols, slots = self.vertex_entries
        D[rows, cols] = data[slots]
        D[:nv, nv:] = B[:nv]
        D[nv:, :nv] = B[:nv].T
        Z = gttrs(dl, d, du, du2, ipiv, E)[0]
        lu, piv, info = getrf(D - E.T @ Z)
        if info > 0:
            raise np.linalg.LinAlgError("bordered Schur complement singular")

        def solve(f, g=()):
            y = gttrs(dl, d, du, du2, ipiv, f[nv:])[0]
            z = getrs(lu, piv, np.concatenate([f[:nv], g]) - E.T @ y)[0]
            y -= Z @ z
            return np.concatenate([z[:nv], y]), z[nv:]

        return solve

    def element_matrix(self, waa, wbb, wab) -> sp.csr_matrix:
        """Sum of the symmetric element blocks [[waa, wab], [wab, wbb]],
        each entry added into its slot of the stencil pattern, in element
        order."""
        vals = np.concatenate([waa, wbb, wab, wab])
        nnz = self.stencil_indices.size
        return self.stencil_matrix(np.bincount(self.element_slots, vals, nnz + 1)[:-1])

    def _stencil_pattern(self) -> None:
        n = self.ndof
        a, b = self.el_left, self.el_right
        rows = np.concatenate([a, b, a, b])
        cols = np.concatenate([a, b, b, a])
        keep = (rows < n) & (cols < n)
        entries, slots = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        self.element_slots = np.full(rows.size, entries.size)
        self.element_slots[keep] = slots
        row, col = np.divmod(entries, n)
        self.diagonal_slots = np.flatnonzero(row == col)
        nv = self.vertex_dofs.size
        chain = (row == col + 1) & (col >= nv)
        coupling = (row >= nv) & (col < nv)
        vertex = (row < nv) & (col < nv)
        self.chain_entries = (col[chain] - nv, np.flatnonzero(chain))
        self.coupling_entries = (row[coupling] - nv, col[coupling], np.flatnonzero(coupling))
        self.vertex_entries = (row[vertex], col[vertex], np.flatnonzero(vertex))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))])
        # the index type SuperLU takes, so that no factorization copies them
        self.stencil_indices = col.astype(np.int32)
        self.stencil_indptr = indptr.astype(np.int32)
        for arr in (self.stencil_indices, self.stencil_indptr):
            arr.flags.writeable = False

    def _assemble(self) -> None:
        self._stencil_pattern()
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


def truncation_length(
    h: float, trunc: Union[float, str] = "auto", lambda_est: Optional[float] = None
) -> float:
    """The halfline truncation length ``build_mesh`` uses: ``trunc`` itself,
    or for "auto" max(20, 8/sqrt(lambda_est)) so that exp(-sqrt(lambda) x)
    tails are negligible at the far end; ``lambda_est`` None stands for
    0.16."""
    if lambda_est is None:
        lambda_est = 0.16
    elif not is_number(lambda_est, 0.0):
        raise MeshError(f"multiplier estimate {lambda_est!r} is not positive and finite")
    if trunc == "auto":
        return max(DEFAULT_TRUNCATION, 8.0 / math.sqrt(lambda_est))
    if not is_number(trunc, 0.0):
        raise MeshError(f"truncation length {trunc!r} is not positive and finite")
    L = float(trunc)
    # up to roundoff, as in build_mesh: rearrangement may take h = L / 10
    if L < 10 * h * (1.0 - 1e-12):
        raise MeshError(f"truncation length {L} shorter than 10 h = {10 * h}")
    return L


def build_mesh(
    g: MetricGraph,
    h: float,
    trunc: Union[float, str] = "auto",
    lambda_est: Optional[float] = None,
) -> Mesh:
    """Build a glued P1 mesh with target spacing ``h`` and the halfline
    truncation length ``truncation_length(h, trunc, lambda_est)``."""
    if not is_number(h, 0.0):
        raise MeshError(f"mesh spacing h={h!r} is not positive and finite")
    ell = g.shortest_bounded_length
    if ell is not None and h >= ell / 2.0:
        raise MeshError(
            f"mesh too coarse: h={h} but the shortest bounded edge has length {ell}"
        )
    L = truncation_length(h, trunc, lambda_est)

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
    maximum of the node table): of the dofs attaining the maximum, the one
    whose first node-table position is smallest wins.
    """
    mesh = u.mesh
    vals = np.abs(u.values)
    top = vals.max()
    if top == 0.0:
        raise MeshError("argmax of the zero function is undefined")
    k = int(mesh.dof_first_node[vals == top].min())
    em = mesh.edge_meshes[mesh.node_edge[k]]
    return em.edge_id, float(mesh.node_x[k]), float(top)
