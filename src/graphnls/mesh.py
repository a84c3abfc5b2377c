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
``build_mesh`` makes the node table (``node_dof``, ``node_edge``,
``node_x``: every edge's nodes in edge order, then coordinate order) and
``Mesh`` derives the element table from it; every per-edge read is the
edge's run of the node table, ``Mesh.edge_nodes`` (``argmax`` is one
``np.argmax`` over it).  A mesh of more than ``MAX_MESH_ELEMENTS``
elements is refused before it is built (``truncation_length``).
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
# the most elements a mesh may take, summed over its edges: a longer edge,
# a longer halfline truncation (the "auto" one of a tiny mass), or too many
# of them, is refused before anything is allocated
MAX_MESH_ELEMENTS = 10**6


class MeshError(ValueError):
    """Raised for invalid meshing parameters or mesh/function mismatches."""


@dataclass(eq=False)
class Mesh:
    """Glued per-edge grids with a global degree-of-freedom map, assembled
    when built."""

    graph: MetricGraph
    h: float
    ndof: int
    truncation: float
    # node table: the dof, edge index and coordinate of every node of every
    # edge, in edge order, then coordinate order from the edge's src (vertex
    # dofs appear once per incident edge end); dof ndof is the fixed zero at
    # a truncated halfline end
    node_dof: np.ndarray = field(repr=False)
    node_edge: np.ndarray = field(repr=False)
    node_x: np.ndarray = field(repr=False)
    # per edge index: the element length
    edge_h: np.ndarray = field(repr=False)
    # element table, one entry per node whose successor lies on its edge:
    # the left and right dof, the length, the edge index and the midpoint
    el_left: np.ndarray = field(init=False, repr=False)
    el_right: np.ndarray = field(init=False, repr=False)
    el_h: np.ndarray = field(init=False, repr=False)
    el_edge: np.ndarray = field(init=False, repr=False)
    el_mid: np.ndarray = field(init=False, repr=False)
    # per edge index: whether the edge is a (truncated) halfline
    edge_halfline: np.ndarray = field(init=False, repr=False)
    vertex_dofs: np.ndarray = field(init=False, repr=False)      # 0 ... nv - 1
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
    _edge_nodes: dict = field(init=False, repr=False)

    def __post_init__(self):
        el = np.flatnonzero(self.node_edge[1:] == self.node_edge[:-1])
        self.el_left = self.node_dof[el]
        self.el_right = self.node_dof[el + 1]
        self.el_edge = self.node_edge[el]
        self.el_mid = 0.5 * (self.node_x[el] + self.node_x[el + 1])
        self.el_h = self.edge_h[self.el_edge]
        edges = self.graph.edges
        self.edge_halfline = np.array([e.is_halfline for e in edges])
        bounds = np.searchsorted(self.node_edge, np.arange(len(edges) + 1)).tolist()
        self._edge_nodes = {e.id: slice(a, b) for e, a, b in zip(edges, bounds, bounds[1:])}
        self.vertex_dofs = np.arange(len(self.graph.vertices))
        self.interior_mask = np.ones(self.ndof, dtype=bool)
        self.interior_mask[self.vertex_dofs] = False
        self._assemble()

    def edge_nodes(self, edge_id: str) -> slice:
        """The edge's run of the node table, from its src end."""
        try:
            return self._edge_nodes[edge_id]
        except KeyError:
            raise MeshError(f"unknown edge {edge_id!r}") from None

    def element_values(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodal values ``(a, b)`` at the left and right end of every element."""
        ext = np.append(v, 0.0)
        return ext[self.el_left], ext[self.el_right]

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
        da, db = (self.node_dof[self.edge_nodes(e)][1:-1] for e in (a, b))
        if da.size != db.size:
            raise MeshError(f"edges {a!r} and {b!r} are not twins")
        if self.graph.edge(a).src != self.graph.edge(b).src:
            db = db[::-1]
        out = v.copy()
        out[da], out[db] = v[db], v[da]
        return out

    def stencil_matrix(self, data: np.ndarray, fmt: str = "csr", border=None):
        """The matrix A with entries ``data`` on the stencil pattern, as CSR
        or (``fmt="csc"``, for ``splu``) CSC.  The pattern and every matrix
        assembled on it are symmetric, so one set of arrays reads either
        way, and matrices on the pattern combine by their ``data``.  With k
        columns ``border`` B, the bordered matrix [[A, B], [B^T, 0]]
        instead."""
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

        The interior dofs form a tridiagonal chain.  A real chain is factored
        by LAPACK ``dpttrf``, an unpivoted LDL^T, and solved by ``dpttrs``
        when ``dpttrf`` finds it positive definite (every pivot positive);
        an indefinite or complex chain goes to ``?gttrf``/``?gttrs``, LU with
        partial pivoting (never ``zpttrf``: it factors Hermitian matrices,
        and the complex chains here are complex symmetric).  The vertex dofs
        and B form one border of width nv + k, eliminated through its dense
        Schur complement (Keller's bordering, Govaerts, Numerical Methods
        for Bifurcations of Dynamical Equilibria, SIAM 2000).  Real or
        complex symmetric (transposes, not adjoints) by the dtype of
        ``data`` and B.  The chain cannot pivot across a vertex, so this
        raises LinAlgError when the chain or the Schur complement is exactly
        singular, whether or not the whole matrix is."""
        nv = self.vertex_dofs.size
        B = np.zeros((self.ndof, 0)) if border is None else border
        dtype = np.result_type(data, B)
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), dtype=dtype)
        pos, slots = self.chain_entries
        off = np.zeros(self.ndof - nv - 1, dtype)
        off[pos] = data[slots]
        diag = data[self.diagonal_slots[nv:]]
        chain = None
        if dtype.kind == "f":
            pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=dtype)
            d, e, info = pttrf(diag, off)
            if info == 0:
                def chain(b):
                    return pttrs(d, e, b)[0]
        if chain is None:
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=dtype)
            dl, d, du, du2, ipiv, info = gttrf(off, diag, off)
            if info > 0:
                raise np.linalg.LinAlgError(f"interior chain singular at dof {nv + info - 1}")

            def chain(b):
                return gttrs(dl, d, du, du2, ipiv, b)[0]

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
        Z = chain(E)
        lu, piv, info = getrf(D - E.T @ Z)
        if info > 0:
            raise np.linalg.LinAlgError("bordered Schur complement singular")

        def solve(f, g=()):
            y = chain(f[nv:])
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
        n = self.ndof + 1
        node_w = np.bincount(self.el_left, h / 6.0, n) + np.bincount(self.el_right, h / 6.0, n)
        self.simpson_rule = (P, P.T, node_w[:-1], 2.0 * h / 3.0)


def truncation_length(
    g: MetricGraph,
    h: float,
    trunc: Union[float, str] = "auto",
    lambda_est: Optional[float] = None,
) -> float:
    """The halfline truncation length ``build_mesh`` uses: ``trunc`` itself,
    or for "auto" max(20, 8/sqrt(lambda_est)) so that exp(-sqrt(lambda) x)
    tails are negligible at the far end; ``lambda_est`` None stands for
    0.16.  Makes every check of ``build_mesh``, before it allocates: h
    below half the shortest bounded edge, and at most ``MAX_MESH_ELEMENTS``
    elements in the whole mesh of g (its bounded lengths plus each
    truncated halfline, over h), a refusal that names the longest edge."""
    if not is_number(h, 0.0):
        raise MeshError(f"mesh spacing h={h!r} is not positive and finite")
    if lambda_est is None:
        lambda_est = 0.16
    elif not is_number(lambda_est, 0.0):
        raise MeshError(f"multiplier estimate {lambda_est!r} is not positive and finite")
    if trunc == "auto":
        L = max(DEFAULT_TRUNCATION, 8.0 / math.sqrt(lambda_est))
    elif not is_number(trunc, 0.0):
        raise MeshError(f"truncation length {trunc!r} is not positive and finite")
    else:
        L = float(trunc)
        # up to roundoff, as in build_mesh: rearrangement may take h = L / 10
        if L < 10 * h * (1.0 - 1e-12):
            raise MeshError(f"truncation length {L} shorter than 10 h = {10 * h}")
    ell = g.shortest_bounded_length
    if ell is not None and h >= ell / 2.0:
        raise MeshError(f"mesh too coarse: h={h} but the shortest bounded edge has length {ell}")
    lengths = {e: L if e.is_halfline else e.length for e in g.edges}
    n_elem = sum(lengths.values()) / h
    if n_elem > MAX_MESH_ELEMENTS:
        e = max(lengths, key=lengths.get)
        what = (f"a halfline truncated at {L:.4g}" if e.is_halfline
                else f"edge {e.id!r} of length {e.length:.4g}")
        raise MeshError(
            f"{what} with h={h} is the longest edge of a mesh of {n_elem:.3g} elements, over "
            f"the limit of {MAX_MESH_ELEMENTS}; give a larger h or a shorter fixed truncation"
        )
    return L


def build_mesh(
    g: MetricGraph,
    h: float,
    trunc: Union[float, str] = "auto",
    lambda_est: Optional[float] = None,
) -> Mesh:
    """Build a glued P1 mesh with target spacing ``h`` and the halfline
    truncation length ``truncation_length(g, h, trunc, lambda_est)``."""
    L = truncation_length(g, h, trunc, lambda_est)
    vertex_dof = {v: i for i, v in enumerate(g.vertices)}
    next_dof = len(g.vertices)
    node_dof, node_x, edge_h = [], [], []
    for e in g.edges:
        length = L if e.is_halfline else e.length
        n_elem = max(2, math.ceil(length / h - 1e-12))
        edge_h.append(length / n_elem)
        node_x.append(np.linspace(0.0, length, n_elem + 1))
        # -1 at a truncated halfline end: the fixed zero, ndof once it is known
        end = -1 if e.is_halfline else vertex_dof[e.dst]
        node_dof.append(np.r_[vertex_dof[e.src], np.arange(next_dof, next_dof + n_elem - 1), end])
        next_dof += n_elem - 1
    dofs = np.concatenate(node_dof)
    dofs[dofs == -1] = next_dof
    return Mesh(
        graph=g,
        h=h,
        ndof=next_dof,
        truncation=L,
        node_dof=dofs,
        node_edge=np.repeat(np.arange(len(node_x)), [x.size for x in node_x]),
        node_x=np.concatenate(node_x),
        edge_h=np.array(edge_h),
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
        return self.mesh.node_values(self.values)[self.mesh.edge_nodes(edge_id)]

    def to_dict(self) -> dict:
        mesh = self.mesh
        vals = mesh.node_values(self.values)
        edges = {}
        for e in mesh.graph.edges:
            run = mesh.edge_nodes(e.id)
            edges[e.id] = {"x": mesh.node_x[run].tolist(), "u": _values_to_list(vals[run])}
        return {"h": mesh.h, "truncation": mesh.truncation, "edges": edges}


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
        run = mesh.edge_nodes(edge_id)
        ext[mesh.node_dof[run]] = f(mesh.node_x[run])
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
    length = mesh.node_x[mesh.edge_nodes(edge_id)][-1]
    if support_radius is not None:
        if center - support_radius < -1e-12 or center + support_radius > length + 1e-12:
            raise MeshError(
                f"profile support [{center - support_radius:.4g}, "
                f"{center + support_radius:.4g}] exceeds edge {edge_id!r} of length {length:.4g}"
            )
    return interpolate(mesh, {edge_id: lambda x: f(x - center)})


def argmax(u: GraphFunction) -> tuple[str, float, float]:
    """Location of the maximum of |u|: (edge id, coordinate, value).

    Ties break by edge input order, then by smallest coordinate: the first
    maximum of the node table, which runs in edge order, then coordinate
    order.
    """
    mesh = u.mesh
    vals = np.abs(mesh.node_values(u.values))
    k = int(np.argmax(vals))
    if vals[k] == 0.0:
        raise MeshError("argmax of the zero function is undefined")
    return mesh.graph.edges[mesh.node_edge[k]].id, float(mesh.node_x[k]), float(vals[k])
