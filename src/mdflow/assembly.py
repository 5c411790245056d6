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
its edge rows are stored.

Every row of G has a closed form, so no consumer forms G: each reads
the faces axis by axis on the grid's brick (`CartesianGrid.sides`; a
face that touches an inactive cell, where k = 1 stands in, adds +0.0),
the support table's rows and the incidence E.  `schur_tpfa` sums each
row's transmissibility (1/d_f of an interior face, ((1/vol) m) m of a
support row with m = ks vol, 1/(1/k) of an edge) into A and b;
`recover_fluxes` takes each row's pressure drop over its weight; the
balance checks scatter each row's flux to its unknowns.  Each does the
product form's floating-point operations in its order, so each equals
it bit for bit.  Nothing in the package forms G or d.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import CartesianGrid, Forest, components, incidence, index_dtype
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
    """(axis, w) of each axis in turn, w the axis's face slab of total weights.

    Computed with the axis's spacing and area as scalars from kD's brick,
    where inactive cells take k = 1; w's interior entries are the axis's rows of d.
    """
    for a in range(grid.dim):
        lower, upper = grid.sides(grid.spread(kD[:, a], fill=1.0), a)
        d = face_weight(grid, a, lower)
        d += face_weight(grid, a, upper)
        yield a, d


@dataclass
class LumpedBlocks:
    """Inputs of the mixed operator (G, d, lift) of a grid/forest/coefficient triple.

    Flux rows are [interior faces; support rows; edges] and pressure
    columns [active cells; free nodes].  Support rows are the rows of
    the coefficients' support table, in its order; row i couples cell
    ``sup_cell[i]`` to its terminal with the scaled coefficient
    ``sup_ks[i]``.  Of lift only the edge rows, ``lift_N``, are held, as
    it is zero on the face and support rows.  ``E`` is the forest's
    signed incidence with the Dirichlet columns dropped, so the edge
    rows of G are -E.  The fields are set once, by `assemble_blocks`;
    everything else (the sources r, each row of G and d) is computed
    from them where it is used.
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
    def sup_node(self) -> np.ndarray:
        """(n_sup,) free-node column of each support row's terminal."""
        sup = self.coeffs.supports
        col = {nid: j for j, nid in enumerate(self.free_node_ids)}
        terminal_col = np.array([col[i] for i in sup.terminal_ids], dtype=np.int64)
        return terminal_col[sup.terminal]

    @property
    def r(self) -> np.ndarray:
        """(n_unknowns,) integrated sources [cells; free nodes], a new array."""
        rN = [self.coeffs.rN.get(nid, 0.0) for nid in self.free_node_ids]
        return np.concatenate([self.coeffs.rD * self.grid.cell_volume, rN])


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
    incidence built here; the rows of G and d are read from the fields
    where they are used (see `LumpedBlocks`).
    """
    coeffs.validate(grid, forest)
    inc = incidence(forest)
    sup = coeffs.supports
    return LumpedBlocks(
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
    that overflows is inf, for the solve to reject.

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
    count = grid.spread(indptr[1 : nc + 1])  # interior faces, from the mask
    for a in range(grid.dim):
        for side in grid.sides(count, a):
            side += grid.face_mask(a)
    indptr[1 : nc + 1] = grid.gather(count)
    indptr[1 : nc + 1] += n_sup + 1
    indptr[nc + 1 :] = np.bincount(node_rows, minlength=n - nc)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    diag = np.zeros(n)

    # faces, axis by axis, on bricks: lower neighbours fill from the
    # row's start forwards and upper neighbours from its terminals
    # backwards, so both runs come out in ascending column order
    cell_diag = grid.spread(diag[:nc])
    below = grid.spread(indptr[:nc].copy())
    above = grid.spread(np.subtract(indptr[1 : nc + 1], n_sup, dtype=index))
    for a, t in _face_weights_by_axis(grid, blocks.coeffs.kD):
        if np.any(t <= 0):
            raise ValueError("zero or negative diagonal flux weight")
        np.divide(1.0, t, out=t)
        inner = grid.face_mask(a)
        t *= inner
        for side in grid.sides(cell_diag, a)[::-1]:  # as upper cell first
            side += t
        np.negative(t, out=t)
        t = grid.gather(t, a)
        lo, hi = grid.sides(grid.active_index, a)
        lower, upper = grid.sides(below, a)
        at = grid.gather(upper, a)
        indices[at] = grid.gather(lo, a)
        data[at] = t
        upper += inner
        lower, upper = grid.sides(above, a)
        lower -= inner
        at = grid.gather(lower, a)
        indices[at] = grid.gather(hi, a)
        data[at] = t
        del at, t
    diag[:nc] = grid.gather(cell_diag)

    np.add.at(diag, sup_cell, s)
    np.add.at(diag, nc + sup_node, s)
    np.add.at(diag, nc + E.indices, np.repeat(t_N, n_ends))
    at = grid.gather(below)
    indices[at] = np.arange(nc, dtype=index)
    data[at] = diag[:nc]
    del below, above, at

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
    b = blocks.r
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
    # A is structurally symmetric, so a walk of its rows alone finds its
    # components, numbered by their smallest unknown
    n_comp, labels = components(A)
    singular = np.ones(n_comp, dtype=bool)
    rooted = E[E @ np.ones(E.shape[1]) != 0].indices
    singular[labels[blocks.n_cells + rooted]] = False
    if not singular.any():
        return None
    K = (labels[:, None] == np.flatnonzero(singular)).astype(float)
    return K / np.linalg.norm(K, axis=0)


def recover_fluxes(blocks: LumpedBlocks, pressures: np.ndarray) -> MixedState:
    """Back-substitute a pressure vector into the eliminated flux unknowns.

    Row by row q = -(G p + lift) / d, rounded as the product is: a face's
    p_hi - p_lo, a support row's m p_cell - m p_node (m = ks vol) and an
    edge's -E pN, each plus its lift (0.0 off the edges, which turns a
    difference of -0.0 into +0.0), negated and divided by its weight.
    """
    p = np.asarray(pressures, dtype=float)
    if p.shape != (blocks.n_unknowns,):
        raise ValueError(
            f"pressure vector has length {p.size}, expected {blocks.n_unknowns}"
        )
    grid = blocks.grid
    pD, pN = p[: blocks.n_cells], p[blocks.n_cells :]
    brick = grid.spread(pD)
    qD = np.empty(grid.n_faces)
    parts = np.split(qD, np.cumsum(grid.face_counts)[:-1])
    for a, d in _face_weights_by_axis(grid, blocks.coeffs.kD):
        q = np.diff(brick, axis=a)
        q += 0.0  # lift
        np.negative(q, out=q)
        q /= d
        parts[a][:] = grid.gather(q, a)
    m = blocks.sup_ks * grid.cell_volume
    qS = m * pD[blocks.sup_cell]
    qS -= m * pN[blocks.sup_node]
    qS += 0.0  # lift
    qN = blocks.E @ -pN
    qN += blocks.lift_N
    for q, d in ((qS, grid.cell_volume), (qN, 1 / blocks.edge_k)):
        np.negative(q, out=q)
        q /= d
    return MixedState(qD=qD, qS=qS, qN=qN, pD=pD, pN=pN)


def conservation_residual(blocks: LumpedBlocks, state: MixedState):
    """Cell and node balance residuals -(G' q + r) of a state.

    Both vectors vanish for the exact solution of the pressure system;
    for an iterative solve they equal the solver residual up to sign.
    G' q is summed per unknown in the order of G's rows, as the product
    adds it: a cell's faces axis by axis (as upper cell before lower
    cell), then its support rows; a node's support rows, then its edges.
    """
    grid, E = blocks.grid, blocks.E
    nc = blocks.n_cells
    res = np.zeros(blocks.n_unknowns)
    cells, nodes = res[:nc], res[nc:]
    brick = grid.spread(cells)
    for a, q in enumerate(grid.face_slabs(state.qD)):
        lower, upper = grid.sides(brick, a)
        upper += q
        lower -= q
    cells[:] = grid.gather(brick)
    mq = (blocks.sup_ks * grid.cell_volume) * state.qS
    np.add.at(cells, blocks.sup_cell, mq)
    np.subtract.at(nodes, blocks.sup_node, mq)
    np.subtract.at(nodes, E.indices, E.data * np.repeat(state.qN, np.diff(E.indptr)))
    res += blocks.r
    np.negative(res, out=res)
    return cells, nodes


def graph_stokes_check(blocks: LumpedBlocks, state: MixedState) -> float:
    """Global mass balance residual of a state.

    With zero-Neumann walls the discrete counterpart of the divergence
    theorem says the flow entering the Dirichlet roots equals the total
    of all sources.  The rows of G that reach a root are those where
    G 1 is nonzero, so (G 1)' q + sum(r) is zero.  Face and support
    rows sum to zero, so G 1 is read off the edge rows, -E 1.  Returns
    the absolute defect.
    """
    E = blocks.E
    root_flow = (E @ -np.ones(E.shape[1])) @ state.qN
    return abs(float(root_flow + blocks.r.sum()))


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


def _atomic_write(path, text: str):
    """Write text to path: a reader sees the whole file or none of it.

    The text goes to a temporary file beside path, which takes the final
    name only through os.replace once complete; on failure it is removed.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def export_state_csv(blocks: LumpedBlocks, state: MixedState, prefix):
    """Write the state as four CSV files: cells, faces, nodes, edges.

    Every value is a Python float in repr's shortest round-trip digits,
    so np.loadtxt reads back exactly the state's bits.  Each file is
    written atomically (see `_atomic_write`).
    """
    prefix = str(prefix)
    grid = blocks.grid
    coord_names = ",".join(f"x{a+1}" for a in range(grid.dim))
    rows = zip(grid.cell_centers().tolist(), state.pD.tolist())
    _atomic_write(prefix + "_cells.csv", f"cell,{coord_names},pD\n" + "".join(
        f"{i},{','.join(map(repr, coords))},{p!r}\n" for i, (coords, p) in enumerate(rows)))
    faces = ((axis, lo, hi) for axis in range(grid.dim)
             for lo, hi in zip(*(cells.tolist() for cells in grid.faces(axis))))
    _atomic_write(prefix + "_faces.csv", "face,axis,cell_lo,cell_hi,qD\n" + "".join(
        f"{i},{axis},{lo},{hi},{q!r}\n"
        for i, ((axis, lo, hi), q) in enumerate(zip(faces, state.qD.tolist()))))
    _atomic_write(prefix + "_nodes.csv", "node,pN\n" + "".join(
        f"{nid},{val!r}\n" for nid, val in zip(blocks.free_node_ids, state.pN.tolist())))
    _atomic_write(prefix + "_edges.csv", "edge,tail,head,qN\n" + "".join(
        f"{i},{e.tail},{e.head},{q!r}\n"
        for i, (e, q) in enumerate(zip(blocks.forest.edges, state.qN.tolist()))))
