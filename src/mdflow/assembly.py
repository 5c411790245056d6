"""Mass-lumped mixed assembly and its reduction to a cell/node pressure system.

The mixed system couples face fluxes, scaled transfer fluxes and edge
fluxes q to cell and node pressures p through one sparse operator G:

    [ D   G ] [q]   [ -lift ]
    [ G'  0 ] [p] = [ -r    ]

D = diag(d) holds the lumped flux weights, r the integrated sources and
lift the Dirichlet root pressures as each flux row sees them.  Rows of
G are interior faces, then support rows (the support table's rows, in
its order), then edges; columns are active cells, then free nodes.
(G, d, lift) defines the scheme: the pressure system is A = G' D^{-1} G,
b = r - G' D^{-1} lift; the fluxes q = -(G p + lift) / d; the balance
residual -(G' q + r); the global balance (G 1)' q + sum(r), as G 1 is
nonzero exactly on rows that reach a Dirichlet root.  The components
of the scheme are those of A's pattern, since two unknowns share a row
of G exactly where A has an off-diagonal entry.

Flux unknowns use the face-integrated convention: the half-cell face
weight is d_f / (k |f|), making the two-point transmissibility across
an interior face the harmonic k |f| / d form.  A support row couples
its cell and terminal with +-ks vol against the weight vol; edge rows
are the negated network incidence with weight 1/k.  Zero-Neumann
boundary faces carry no unknowns, and Dirichlet root columns are
dropped from G, their values moving into lift.  Only edge rows can
reach a root, so lift is zero on every face and support row and only
its edge rows are stored; the full vector is formed where a consumer
asks for it.

A and b are assembled straight from the transmissibilities: 1/d_f of
each interior face, ((1/vol) m) m of each support row with m = ks vol,
and 1/(1/k) of each edge, summed in G's row order, so they equal the
product G' D^{-1} G bit for bit without forming it.  G, d and r are
derived values of the blocks, built from the grid's faces, the
coefficients' support table and kD, and the forest's incidence; they
exist only for the consumers that run after the pressure solve (flux
recovery, the conservation checks, `mixed_matrix`), which build them on
first use.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .geometry import CartesianGrid, Forest, incidence, index_dtype
from .model import CoefficientField


def face_weight(grid: CartesianGrid, axis, k_axis):
    """Half-cell weight of a face seen from one adjacent cell.

    ``k_axis`` is the cell's permeability along the face normal.  The
    induced transmissibility of an interior face is 1/(w_lo + w_hi).
    """
    axis = np.asarray(axis)
    k_axis = np.asarray(k_axis, dtype=float)
    if np.any(k_axis <= 0):
        raise ValueError("nonpositive permeability")
    d_f = 0.5 * grid.spacing[axis]
    area = grid.face_area[axis]
    return d_f / (k_axis * area)


def _face_weights_by_axis(grid: CartesianGrid, kD):
    """(faces, d) of each axis in turn: the face rows of d, one axis at a time.

    Faces come grouped by axis, so each axis's face weights are computed
    with that axis's spacing and area as scalars.
    """
    start = 0
    for a, count in enumerate(grid.face_counts):
        faces = slice(start, start + count)
        start += count
        d = face_weight(grid, a, kD[grid.face_lo[faces], a])
        d += face_weight(grid, a, kD[grid.face_hi[faces], a])
        yield faces, d


@dataclass
class LumpedBlocks:
    """The mixed operator (G, d, lift) of one grid/forest/coefficient triple.

    Flux rows are [interior faces; support rows; edges] and pressure
    columns [active cells; free nodes].  Support rows are the rows of
    the coefficients' support table, in its order; row i couples cell
    ``sup_cell[i]`` to its terminal with the scaled coefficient
    ``sup_ks[i]``.  Of lift only the edge rows, ``lift_N``, are held;
    the ``lift`` property returns the (n_flux,) vector, zero on the
    face and support rows.  ``E`` is the forest's signed incidence with
    the Dirichlet columns dropped, so the edge rows of G are -E.

    G, d and the sources r are derived from the grid, the forest and the
    coefficients, and cached on first use.  `schur_tpfa` assembles the
    pressure system from transmissibilities without them, so G and d
    are built only by the consumers that run after the solve.  `release`
    drops G, d, r and the grid's face arrays they are built from; the
    next access rebuilds them bit for bit.
    """

    grid: CartesianGrid
    forest: Forest
    coeffs: CoefficientField

    lift_N: np.ndarray  # (n_edges,) Dirichlet term of the edge rows
    sup_cell: np.ndarray  # (n_sup,)
    sup_ks: np.ndarray  # (n_sup,)
    edge_k: np.ndarray  # (n_edges,) conductivities, d_N = 1/k
    free_node_ids: tuple[int, ...]
    E: sp.csr_matrix  # (n_edges, n_free_nodes) signed incidence

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @property
    def n_free_nodes(self) -> int:
        return len(self.free_node_ids)

    @property
    def n_unknowns(self) -> int:
        return self.n_cells + self.n_free_nodes

    @property
    def lift(self) -> np.ndarray:
        """(n_flux,) Dirichlet term of every row, so the full product is G p + lift."""
        n_pairs = self.grid.n_faces + self.sup_cell.size
        return np.concatenate([np.zeros(n_pairs), self.lift_N])

    @property
    def sup_node(self) -> np.ndarray:
        """(n_sup,) free-node column of each support row's terminal."""
        sup = self.coeffs.supports
        col = {nid: j for j, nid in enumerate(self.free_node_ids)}
        terminal_col = np.array([col[i] for i in sup.terminal_ids], dtype=np.int64)
        return terminal_col[sup.terminal]

    @property
    def d_D(self) -> np.ndarray:
        """Total face weights, the face rows of d."""
        return self.d[: self.grid.n_faces]

    @functools.cached_property
    def G(self) -> sp.csr_matrix:
        """(n_flux, n_unknowns) coupling of flux rows to pressure columns.

        The CSR arrays are filled in place: each face and support row
        holds its two entries in ascending column order, and the edge
        rows are those of the negated incidence, shifted past the cell
        columns.
        """
        grid, E = self.grid, self.E
        nc, n = grid.n_cells, self.n_unknowns
        m = self.sup_ks * grid.cell_volume

        nf, ns = grid.n_faces, self.sup_cell.size
        n_pairs = nf + ns
        n_flux = n_pairs + E.shape[0]
        index = index_dtype(max(2 * n_pairs + E.nnz, n_flux, n))
        indptr = np.empty(n_flux + 1, dtype=index)
        indptr[: n_pairs + 1] = np.arange(0, 2 * n_pairs + 1, 2, dtype=index)
        indptr[n_pairs + 1 :] = E.indptr[1:]
        indptr[n_pairs + 1 :] += 2 * n_pairs
        indices = np.empty(indptr[-1], dtype=index)
        data = np.empty(indptr[-1])
        pair_cols = indices[: 2 * n_pairs].reshape(-1, 2)
        pair_vals = data[: 2 * n_pairs].reshape(-1, 2)
        pair_cols[:nf, 0], pair_cols[:nf, 1] = grid.face_lo, grid.face_hi
        pair_vals[:nf] = -1.0, 1.0
        pair_cols[nf:, 0] = self.sup_cell
        pair_cols[nf:, 1] = nc + self.sup_node
        pair_vals[nf:, 0], pair_vals[nf:, 1] = m, -m
        indices[2 * n_pairs :] = E.indices
        indices[2 * n_pairs :] += nc
        data[2 * n_pairs :] = -E.data
        return sp.csr_matrix((data, indices, indptr), shape=(n_flux, n))

    @functools.cached_property
    def d(self) -> np.ndarray:
        """(n_flux,) lumped flux weights [d_D; d_S; d_N]."""
        grid = self.grid
        nf, ns = grid.n_faces, self.sup_cell.size
        d = np.empty(nf + ns + self.edge_k.size)
        for faces, d_axis in _face_weights_by_axis(grid, self.coeffs.kD):
            d[faces] = d_axis
        d[nf : nf + ns] = grid.cell_volume
        d[nf + ns :] = 1 / self.edge_k
        return d

    @functools.cached_property
    def r(self) -> np.ndarray:
        """(n_unknowns,) integrated sources [cells; free nodes]."""
        rN = [self.coeffs.rN.get(nid, 0.0) for nid in self.free_node_ids]
        return np.concatenate([self.coeffs.rD * self.grid.cell_volume, rN])

    def release(self):
        """Drop the cached G, d, r and grid face arrays; the next access rebuilds them."""
        for name in ("G", "d", "r"):
            self.__dict__.pop(name, None)
        self.grid.release_faces()


@dataclass
class MixedState:
    """Discrete solution: fluxes on faces/support cells/edges plus pressures."""

    qD: np.ndarray  # interior-face fluxes, face-integrated
    qS: np.ndarray  # support rows (see LumpedBlocks)
    qN: np.ndarray  # per edge
    pD: np.ndarray  # per active cell
    pN: np.ndarray  # per non-Dirichlet node

    @property
    def q(self) -> np.ndarray:
        """All fluxes in the row order of G."""
        return np.concatenate([self.qD, self.qS, self.qN])


def assemble_blocks(
    grid: CartesianGrid, forest: Forest, coeffs: CoefficientField
) -> LumpedBlocks:
    """The blocks (G, d, lift) and sources of a grid/forest/coefficient triple.

    A grid without a network takes the empty forest,
    ``build_forest([], [])``.  Only the inputs are checked and the
    incidence built here; G, d and r are derived on first use (see
    `LumpedBlocks`), and `schur_tpfa` does not use G or d.
    """
    coeffs.validate(grid, forest)
    inc = incidence(forest)
    sup = coeffs.supports
    blocks = LumpedBlocks(
        grid=grid,
        forest=forest,
        coeffs=coeffs,
        lift_N=-inc.dirichlet,
        sup_cell=sup.cell_idx,
        sup_ks=sup.ks,
        edge_k=inc.edge_k,
        free_node_ids=inc.node_ids,
        E=inc.matrix,
    )
    return blocks


@np.errstate(over="ignore")
def schur_tpfa(blocks: LumpedBlocks):
    """Assemble the pressure system; return (A, b) over [pD; pN].

    A = G' D^{-1} G and b = r - G' D^{-1} lift, filled straight into
    A's CSR arrays from the transmissibility of each row of G: 1/d_f of
    an interior face, ((1/vol) m) m of a support row with m = ks vol,
    and 1/(1/k) of an edge.  Every off-diagonal entry comes from a
    single row, so A is exactly symmetric.  Each diagonal entry sums its
    rows in the order of G's rows (faces axis by axis, a cell's face as
    upper cell before its face as lower cell, then support rows in table
    order, then edges), and b subtracts the edge rows' lift term, so A
    and b equal the sparse product G' D^{-1} G bit for bit; as there,
    entries that come to exactly zero are not stored, and a term or sum
    that overflows is inf, for the solve to reject.  Neither G nor d is
    built.

    A is positive definite when every component reaches a Dirichlet
    root and positive semidefinite otherwise, with constants per
    Dirichlet-free component in the kernel.
    """
    grid, E = blocks.grid, blocks.E
    nc, n = blocks.n_cells, blocks.n_unknowns
    vol = grid.cell_volume
    sup_cell, sup_node = blocks.sup_cell, blocks.sup_node
    ns = sup_cell.size
    d_N = 1 / blocks.edge_k
    if (ns and vol <= 0) or np.any(d_N <= 0):
        raise ValueError("zero or negative diagonal flux weight")
    m = blocks.sup_ks * vol
    s = ((1.0 / vol) * m) * m
    t_N = 1.0 / d_N
    n_ends = np.diff(E.indptr)
    two = n_ends == 2
    pair = E.indptr[:-1][two]
    tail, head = E.indices[pair], E.indices[pair + 1]

    # node rows, (local row, column) pairs: support rows' cells, edges
    # joining two free nodes, the diagonal
    node_rows = np.concatenate([sup_node, tail, head, np.arange(n - nc)])
    node_cols = np.concatenate([sup_cell, nc + head, nc + tail, np.arange(nc, n)])
    node_order = np.lexsort((node_cols, node_rows))

    # a cell row holds its lower neighbours, itself, its upper neighbours
    # and its terminals, which is ascending column order
    n_sup = np.bincount(sup_cell, minlength=nc)
    nnz = nc + 2 * (grid.n_faces + ns + pair.size) + (n - nc)
    index = index_dtype(max(nnz, n))
    indptr = np.zeros(n + 1, dtype=index)
    indptr[1 : nc + 1] = np.bincount(grid.face_lo, minlength=nc)
    indptr[1 : nc + 1] += np.bincount(grid.face_hi, minlength=nc)
    indptr[1 : nc + 1] += n_sup + 1
    indptr[nc + 1 :] = np.bincount(node_rows, minlength=n - nc)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    diag = np.zeros(n)

    # faces, axis by axis: lower neighbours fill from the row's start
    # forwards and upper neighbours from its terminals backwards, so
    # both runs come out in ascending column order
    below = indptr[:nc].copy()
    above = indptr[1 : nc + 1].copy()
    above -= n_sup
    for faces, t in _face_weights_by_axis(grid, blocks.coeffs.kD):
        if np.any(t <= 0):
            raise ValueError("zero or negative diagonal flux weight")
        lo, hi = grid.face_lo[faces], grid.face_hi[faces]
        np.divide(1.0, t, out=t)
        diag[hi] += t
        diag[lo] += t
        np.negative(t, out=t)
        at = below[hi]
        indices[at] = lo
        data[at] = t
        at += 1
        below[hi] = at
        at = above[lo]
        at -= 1
        above[lo] = at
        indices[at] = hi
        data[at] = t
        del at, t

    np.add.at(diag, sup_cell, s)
    np.add.at(diag, nc + sup_node, s)
    np.add.at(diag, nc + E.indices, np.repeat(t_N, n_ends))
    indices[below] = np.arange(nc, dtype=index)
    data[below] = diag[:nc]
    del below, above

    order = np.lexsort((sup_node, sup_cell))
    cells = sup_cell[order]
    at = indptr[cells + 1] - np.cumsum(n_sup)[cells] + np.arange(ns)
    indices[at] = nc + sup_node[order]
    data[at] = -s[order]

    node_vals = np.concatenate([-s, -t_N[two], -t_N[two], diag[nc:]])
    indices[indptr[nc] :] = node_cols[node_order]
    data[indptr[nc] :] = node_vals[node_order]

    A = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    if not data.all():
        A.eliminate_zeros()
    w = blocks.lift_N / d_N
    b = blocks.r.copy()
    b[nc:] -= np.bincount(
        E.indices, weights=-E.data * np.repeat(w, n_ends), minlength=n - nc
    )
    return A, b


def pressure_kernel(blocks: LumpedBlocks, A):
    """Orthonormal null-space basis of A = schur_tpfa(blocks)[0], or None.

    Two unknowns share a row of G exactly where A has an off-diagonal
    entry, so the components of A's pattern are those of the scheme.  A
    component is singular exactly when none of its unknowns lies on a
    row that reaches a Dirichlet root; such components are permitted,
    and the constants on each of them span the kernel.  Returns None
    when every component is rooted.  The rows that reach a root, where
    G 1 != 0, are the edge rows -E whose sum is nonzero, as face and
    support rows sum to zero, so G itself is not needed.
    """
    E = blocks.E
    # A is structurally symmetric, so its strong components are its
    # components, and scipy needs no transpose to find them
    n_comp, labels = connected_components(A, directed=True, connection="strong")
    singular = np.ones(n_comp, dtype=bool)
    rooted = E[E @ np.ones(E.shape[1]) != 0].indices
    singular[labels[blocks.n_cells + rooted]] = False
    if not singular.any():
        return None
    K = (labels[:, None] == np.flatnonzero(singular)).astype(float)
    return K / np.linalg.norm(K, axis=0)


def recover_fluxes(blocks: LumpedBlocks, pressures: np.ndarray) -> MixedState:
    """Back-substitute a pressure vector into the eliminated flux unknowns."""
    p = np.asarray(pressures, dtype=float)
    if p.shape != (blocks.n_unknowns,):
        raise ValueError(
            f"pressure vector has length {p.size}, expected {blocks.n_unknowns}"
        )
    q = -(blocks.G @ p + blocks.lift) / blocks.d
    nc, nf = blocks.n_cells, blocks.grid.n_faces
    qD, qS, qN = np.split(q, [nf, nf + blocks.sup_cell.size])
    return MixedState(qD=qD, qS=qS, qN=qN, pD=p[:nc], pN=p[nc:])


def conservation_residual(blocks: LumpedBlocks, state: MixedState):
    """Cell and node balance residuals -(G' q + r) of a state.

    Both vectors vanish for the exact solution of the pressure system;
    for an iterative solve they equal the solver residual up to sign.
    """
    res = -(blocks.G.T @ state.q + blocks.r)
    return res[: blocks.n_cells], res[blocks.n_cells :]


def graph_stokes_check(blocks: LumpedBlocks, state: MixedState) -> float:
    """Global mass balance residual of a state.

    With zero-Neumann walls the discrete counterpart of the divergence
    theorem says the flow entering the Dirichlet roots equals the total
    of all sources.  The rows of G that reach a root are those where
    G 1 is nonzero, so (G 1)' q + sum(r) is zero.  Returns the absolute
    defect.
    """
    root_flow = (blocks.G @ np.ones(blocks.n_unknowns)) @ state.q
    return abs(float(root_flow + blocks.r.sum()))


def mixed_matrix(blocks: LumpedBlocks):
    """The full mass-lumped block system (M, rhs) before flux elimination.

    Unknown order: [qD; qS; qN; pD; pN].  Used for direct inspection of
    the saddle structure, e.g. singular-value stability checks.
    """
    G = blocks.G
    M = sp.bmat([[sp.diags(blocks.d), G], [G.T, None]], format="csr")
    return M, -np.concatenate([blocks.lift, blocks.r])


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_matrix_market(A, path):
    """Matrix Market coordinate export (for external cross-checks)."""
    import scipy.io

    scipy.io.mmwrite(str(path), sp.coo_matrix(A))


def read_matrix_market(path):
    import scipy.io

    return sp.csr_matrix(scipy.io.mmread(str(path)))


def export_state_csv(blocks: LumpedBlocks, state: MixedState, prefix):
    """Write the state as four CSV files: cells, faces, nodes, edges.

    Every value is a Python float in repr's shortest round-trip digits,
    so np.loadtxt reads back exactly the state's bits.
    """
    prefix = str(prefix)
    grid = blocks.grid
    with io.open(prefix + "_cells.csv", "w") as f:
        coord_names = ",".join(f"x{a+1}" for a in range(grid.dim))
        f.write(f"cell,{coord_names},pD\n")
        rows = zip(grid.cell_centers().tolist(), state.pD.tolist())
        for i, (coords, p) in enumerate(rows):
            f.write(f"{i},{','.join(map(repr, coords))},{p!r}\n")
    with io.open(prefix + "_faces.csv", "w") as f:
        f.write("face,axis,cell_lo,cell_hi,qD\n")
        rows = zip(grid.face_axis.tolist(), grid.face_lo.tolist(),
                   grid.face_hi.tolist(), state.qD.tolist())
        for i, (axis, lo, hi, q) in enumerate(rows):
            f.write(f"{i},{axis},{lo},{hi},{q!r}\n")
    with io.open(prefix + "_nodes.csv", "w") as f:
        f.write("node,pN\n")
        for nid, val in zip(blocks.free_node_ids, state.pN.tolist()):
            f.write(f"{nid},{val!r}\n")
    with io.open(prefix + "_edges.csv", "w") as f:
        f.write("edge,tail,head,qN\n")
        for i, (e, q) in enumerate(zip(blocks.forest.edges, state.qN.tolist())):
            f.write(f"{i},{e.tail},{e.head},{q!r}\n")
