"""Independent dense constructions used as test oracles.

The mixed lumped system is rebuilt here from basis principles (trapezoid
lumping of the lowest-order face-element mass matrix, divergence from
the flux of each basis function, piecewise-constant coupling integrals)
and reduced by dense linear algebra, without reusing any assembly code
paths from the package.  The interior faces are listed by a scan of
the brick with np.take, and the CSR G is built from them as three
blocks joined by sp.vstack.  With d in the gathered form, every
consumer of (G, d, lift) is kept here as its sparse product: the
pressure system G' D^{-1} G, its kernel read from the rows where
G 1 != 0, the fluxes -(G p + lift) / d and the balances -(G' q + r) and
(G 1)' q + sum(r), which the assembly's G-free forms must match bit
for bit.
The greedy pairwise matching is kept here as
the plain two-loop scan in natural order that the solver's vectorised
matching must reproduce exactly, the strength graph as the
whole-matrix formula that the solver's blocked test must reproduce bit
for bit, the 0/1 prolongation P of an aggregate map, whose whole
product ((A P)' P)' the solver's blocked Galerkin product must
reproduce bit for bit, one level's passes composed with the plain
Galerkin product P' (A P), the support of one terminal as the
per-terminal evaluation that the batched support table must reproduce,
the transfers' checks run one transfer at a time, which the one-pass
validation must match offender for offender, and the measure of a disc
in a box by adaptive quadrature of its chord length.  The graph facts
come from scipy.sparse.csgraph, which the package does not
import: the components of a pattern, whose labels the package's numpy
walk must reproduce, and a forest's orientation by breadth-first order.
"""

import numpy as np
import scipy.integrate as si
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from mdflow.geometry import (
    SUPPORT_SUBDIV_SPATIAL,
    NodeKind,
    _anchor,
    _box_average,
    _check_profile,
    _compartment,
    _compartment_fraction,
    _radial_axes,
    _taper_average,
    incidence,
    transfer_profile,
)


def lumped_mixed_dense(grid, forest, coeffs):
    """Dense (D, G_full, r_full, free_cols, dirichlet) of the mixed system.

    Flux rows: interior faces, then support cells, then edges.  Pressure
    columns: cells, then all forest nodes (Dirichlet ones included; the
    caller eliminates them).
    """
    n_cells = grid.n_cells
    nodes = list(forest.nodes)
    node_col = {n.id: n_cells + j for j, n in enumerate(nodes)}
    n_p = n_cells + len(nodes)

    # face flux block: trapezoid-lumped mass of the face basis functions.
    # The basis for face f, normalized to unit face-integrated flux, has
    # normal component 1/|f| at its own face and 0 at the opposite one,
    # varying linearly; the two-point trapezoid rule along the normal
    # axis makes the element mass diagonal.
    face_lo, face_hi, face_axis = (f.tolist() for f in face_arrays(grid))
    nf = len(face_lo)
    D_faces = np.zeros(nf)
    for i in range(nf):
        a = face_axis[i]
        area = grid.face_area[a]
        for cell in (face_lo[i], face_hi[i]):
            k = coeffs.kD[cell, a]
            phi_own, phi_opp = 1.0 / area, 0.0
            D_faces[i] += (grid.cell_volume / 2.0) / k * phi_own**2
            D_faces[i] += (grid.cell_volume / 2.0) / k * phi_opp**2

    sup = coeffs.supports
    sup_rows = [
        (int(c), node_col[sup.terminal_ids[t]], ks * grid.cell_volume)
        for t, c, ks in zip(sup.terminal, sup.cell_idx, sup.ks)
    ]
    ns = len(sup_rows)

    edges = forest.edges
    ne = len(edges)

    nq = nf + ns + ne
    D = np.zeros(nq)
    D[:nf] = D_faces
    D[nf : nf + ns] = grid.cell_volume
    for j, e in enumerate(edges):
        D[nf + ns + j] = 1.0 / e.k

    G = np.zeros((nq, n_p))
    for i in range(nf):
        # divergence of the face basis is +-1/vol; pairing with the cell
        # indicator gives -+1 after the sign in the weak form
        G[i, face_lo[i]] = -1.0
        G[i, face_hi[i]] = 1.0
    for j, (cell, ncol, m) in enumerate(sup_rows):
        G[nf + j, cell] = m
        G[nf + j, ncol] = -m
    for j, e in enumerate(edges):
        G[nf + ns + j, node_col[e.tail]] = -1.0
        G[nf + ns + j, node_col[e.head]] = 1.0

    r_full = np.zeros(n_p)
    r_full[:n_cells] = coeffs.rD * grid.cell_volume
    for n in nodes:
        if n.kind != NodeKind.DIRICHLET_ROOT:
            r_full[node_col[n.id]] = coeffs.rN.get(n.id, 0.0)

    dirichlet = {
        node_col[n.id]: n.value for n in nodes if n.kind == NodeKind.DIRICHLET_ROOT
    }
    free_cols = [j for j in range(n_p) if j not in dirichlet]
    return D, G, r_full, free_cols, dirichlet


def face_arrays(grid):
    """(lo, hi, axis) of every interior face, axis by axis, lower cells in C order.

    Each axis's candidate pairs are the brick's cells below and above
    along it, taken with np.take; pairs with an inactive cell are dropped.
    """
    idx = grid.active_index
    lo, hi, axis = [], [], []
    for a, n in enumerate(grid.cells):
        below = np.take(idx, np.arange(n - 1), axis=a).ravel()
        above = np.take(idx, np.arange(1, n), axis=a).ravel()
        keep = (below >= 0) & (above >= 0)
        lo.append(below[keep])
        hi.append(above[keep])
        axis.append(np.full(np.count_nonzero(keep), a))
    return tuple(np.concatenate(f) for f in (lo, hi, axis))


def _pair_rows(col_a, col_b, val_a, val_b, n_cols):
    """CSR block whose row i holds val_a[i] at col_a[i] and val_b[i] at col_b[i]."""
    n_rows = len(col_a)
    return sp.csr_matrix(
        (
            np.column_stack([val_a, val_b]).ravel(),
            np.column_stack([col_a, col_b]).ravel(),
            2 * np.arange(n_rows + 1),
        ),
        shape=(n_rows, n_cols),
    )


def stacked_pair_G(grid, forest, coeffs):
    """G as three stacked CSR blocks.

    Face pairs, support pairs, and the negated incidence beside an
    empty cell block.
    """
    nc = grid.n_cells
    lo, hi, _ = face_arrays(grid)
    inc = incidence(forest)
    n = nc + len(inc.node_ids)
    col = {nid: j for j, nid in enumerate(inc.node_ids)}
    sup = coeffs.supports
    sup_node = np.array([col[i] for i in sup.terminal_ids], dtype=np.int64)[sup.terminal]
    m = sup.ks * grid.cell_volume
    return sp.vstack(
        [
            _pair_rows(lo, hi, np.full(lo.size, -1.0), np.ones(lo.size), n),
            _pair_rows(sup.cell_idx, nc + sup_node, m, -m, n),
            sp.hstack([sp.csr_matrix((inc.matrix.shape[0], nc)), -inc.matrix]),
        ],
        format="csr",
    )


def product_form(blocks):
    """(G, d, lift, r) of the blocks' grid, forest and coefficients, built here.

    G is `stacked_pair_G`; d takes each face's two half-cell weights
    d_f / (k |f|) gathered over all faces at once, vol on support rows
    and 1/k on edges; lift is minus each edge's Dirichlet value, zero
    on the other rows.
    """
    grid, forest, coeffs = blocks.grid, blocks.forest, blocks.coeffs
    G = stacked_pair_G(grid, forest, coeffs)
    lo, hi, ax = face_arrays(grid)
    half, area = 0.5 * grid.spacing[ax], grid.face_area[ax]
    d_D = half / (coeffs.kD[lo, ax] * area) + half / (coeffs.kD[hi, ax] * area)
    inc = incidence(forest)
    n_sup = coeffs.supports.cell_idx.size
    d = np.concatenate([d_D, np.full(n_sup, grid.cell_volume), 1 / inc.edge_k])
    lift = np.concatenate([np.zeros(lo.size + n_sup), -inc.dirichlet])
    rN = [coeffs.rN.get(nid, 0.0) for nid in inc.node_ids]
    r = np.concatenate([coeffs.rD * grid.cell_volume, rN])
    return G, d, lift, r


def product_schur(blocks):
    """(A, b) as the sparse products A = G' D^{-1} G and b = r - G' D^{-1} lift."""
    G, d, lift, r = product_form(blocks)
    A = (G.T @ (sp.diags(1.0 / d) @ G)).tocsr()
    A.sort_indices()
    b = r - G.T @ (lift / d)
    return A, b


def scipy_components(A):
    """(count, labels) of the strong components of A's pattern, by scipy.

    For a structurally symmetric pattern these are its components,
    numbered by their smallest index.
    """
    return connected_components(A, directed=True, connection="strong")


def bfs_orientation(nodes, edges):
    """(oriented edges, tree_of) of a valid forest, by scipy's breadth-first order.

    Each edge runs from the node that scipy's breadth-first order out of
    a virtual node joined to every root reaches first; trees are
    numbered by their first node in node order.
    """
    index = {nd.id: j for j, nd in enumerate(nodes)}
    n = len(nodes)
    a = [index[e[0]] for e in edges] + [n] * sum(nd.is_root for nd in nodes)
    b = [index[e[1]] for e in edges] + [j for j, nd in enumerate(nodes) if nd.is_root]
    graph = sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n + 1, n + 1))
    parent = breadth_first_order(graph, n, directed=False, return_predecessors=True)[1]
    oriented = [(t, h, k) if parent[index[h]] == index[t] else (h, t, k) for t, h, k in edges]
    label = connected_components(graph[:n, :n], directed=False)[1]
    first = {}
    for j, lab in enumerate(label.tolist()):
        first.setdefault(lab, len(first))
    return oriented, {nd.id: first[label[j]] for j, nd in enumerate(nodes)}


def product_kernel(blocks, A):
    """The pressure kernel with the rooted unknowns read off the rows where G 1 != 0."""
    G = stacked_pair_G(blocks.grid, blocks.forest, blocks.coeffs)
    n_comp, labels = scipy_components(A)
    singular = np.ones(n_comp, dtype=bool)
    singular[labels[G[G @ np.ones(G.shape[1]) != 0].indices]] = False
    if not singular.any():
        return None
    K = (labels[:, None] == np.flatnonzero(singular)).astype(float)
    return K / np.linalg.norm(K, axis=0)


def lumped_rt0_schur_dense(grid, forest, coeffs):
    """Dense pressure system (A, b) by brute-force elimination."""
    D, G, r_full, free_cols, dirichlet = lumped_mixed_dense(grid, forest, coeffs)
    A_full = G.T @ np.diag(1.0 / D) @ G
    A = A_full[np.ix_(free_cols, free_cols)]
    b = r_full[free_cols].copy()
    for col, value in dirichlet.items():
        b -= A_full[free_cols, col] * value
    return A, b


def dense_pseudo_solve(A, b):
    """Minimum-norm least-squares solve (kernel-aware reference)."""
    return np.linalg.lstsq(A, b, rcond=None)[0]


def strength_graph(A, theta):
    """The strength graph as one whole-matrix formula, without blocks.

    Off-diagonal entries of abs(A) with |a_ij| >= theta sqrt(a_ii a_jj),
    weak and zero entries eliminated, indices sorted.
    """
    S = abs(A)
    d = S.diagonal()
    rows = np.repeat(np.arange(S.shape[0], dtype=np.int32), np.diff(S.indptr))
    cols = S.indices
    with np.errstate(over="ignore"):
        t = d[rows] * d[cols]
    t = theta * np.sqrt(t)
    S.data[(S.data < t) | (rows == cols)] = 0.0
    S.eliminate_zeros()
    S.sort_indices()
    return S


def l1_row_sums(A):
    """sum_j |a_ij| of each row as one whole-matrix formula: abs(A) times ones."""
    return abs(sp.csr_matrix(A)) @ np.ones(A.shape[1])


def piecewise_constant(agg):
    """The 0/1 prolongation P of an aggregate map: p_ij = 1 iff agg[i] = j."""
    n = agg.size
    return sp.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, agg.max() + 1))


def compose_passes(A, theta, passes, coarse_size):
    """One level's aggregation by the plain scan and Galerkin formula.

    Composes up to ``passes`` greedy matching passes on strength graphs
    of threshold ``theta``, each coarse operator formed as P' (A P) in
    CSR, stopping early when nothing pairs or at ``coarse_size``
    unknowns.  Returns (agg, Ac) as the solver's aggregation does.
    """
    agg, Ac = None, A
    for _ in range(passes):
        sub = greedy_match_pass(strength_graph(Ac, theta))
        if sub is None:
            break
        agg = sub if agg is None else sub[agg]
        P = piecewise_constant(sub)
        Ac = (P.T @ (Ac @ P)).tocsr()
        if Ac.shape[0] <= coarse_size:
            break
    return agg, Ac


def greedy_match_pass(S):
    """One greedy pairwise matching sweep in natural order.

    Returns the fine-to-coarse map, or None if nothing aggregated.
    Unmatched nodes with an aggregated strong neighbor join the
    strongest such aggregate; isolated nodes stay singletons.
    """
    n = S.shape[0]
    indptr, indices, data = S.indptr, S.indices, S.data
    agg = np.full(n, -1, dtype=np.int64)
    n_agg = 0
    paired = False
    for i in range(n):
        if agg[i] >= 0:
            continue
        best = -1
        best_w = 0.0
        for pos in range(indptr[i], indptr[i + 1]):
            j = indices[pos]
            if agg[j] < 0:
                w = data[pos]
                if w > best_w:
                    best_w = w
                    best = j
        if best >= 0:
            agg[i] = agg[best] = n_agg
            n_agg += 1
            paired = True
    for i in range(n):
        if agg[i] >= 0:
            continue
        best = -1
        best_w = 0.0
        for pos in range(indptr[i], indptr[i + 1]):
            j = indices[pos]
            if agg[j] >= 0:
                w = data[pos]
                if w > best_w:
                    best_w = w
                    best = j
        if best >= 0:
            agg[i] = agg[best]
            paired = True
        else:
            agg[i] = n_agg
            n_agg += 1
    return agg if paired else None


def support_rows(table, terminal_id):
    """(cell_idx, ks) of one terminal's rows of a support table."""
    rows = table.terminal == table.terminal_ids.index(terminal_id)
    return table.cell_idx[rows], table.ks[rows]


def terminal_support(grid, t):
    """(cell_idx, ks) of one transfer's support, evaluated on its own.

    The candidate box is built with `np.indices` and the radial average
    is broadcast over the other axes by reshaping, one transfer at a
    time; parameters are assumed valid.
    """
    r0, r1, kT0 = t.r0, t.r1, t.kT0
    anchor = np.asarray(t.anchor, dtype=float)
    axes = np.arange(grid.dim) if t.radial_axes is None else np.asarray(t.radial_axes)
    order = np.argsort(axes)
    axes, anchor = axes[order], anchor[order]
    lo, h = grid.origin[axes], grid.spacing[axes]
    n = np.asarray(grid.cells)[axes]
    first = np.maximum(np.ceil((anchor - r1 - lo) / h) - 1, 0).astype(np.int64)
    last = np.minimum(np.floor((anchor + r1 - lo) / h), n - 1).astype(np.int64)
    box = [slice(None)] * grid.dim
    shape = [1] * grid.dim
    for a, i0, i1 in zip(axes, first, last):
        box[a] = slice(i0, i1 + 1)
        shape[a] = i1 - i0 + 1
    multi = np.indices(last - first + 1).reshape(axes.size, -1).T + first
    rel = lo + (multi + 0.5) * h - anchor
    if axes.size <= 2:
        kt = _taper_average(rel, h, r0, r1, kT0)
    else:
        kt = _box_average(
            rel, h, lambda r: transfer_profile(r, r0, r1, kT0),
            ((r0, r1),), SUPPORT_SUBDIV_SPATIAL,
        )
    kt = kt.reshape(shape)
    if t.compartment is not None:
        axis, side = t.compartment
        frac = _compartment_fraction(grid, axis, side)[box[axis]]
        kt = kt * np.expand_dims(frac, [a for a in range(grid.dim) if a != axis])
    cells = grid.active_index[tuple(box)]
    kt = np.broadcast_to(kt, cells.shape)
    keep = (cells >= 0) & (kt > 0.0)
    return cells[keep], np.sqrt(kt[keep])


def first_transfer_failure(grid, transfers):
    """(terminal id, message): what `build_support` reports, found one transfer at a time.

    Each transfer in turn is checked for its radial axes, anchor,
    profile and compartment until one raises; the message is that
    ValueError's (None if all pass), and the terminal id is that of the
    first transfer before it whose `terminal_support` is empty (None if
    there is none), which is reported first.
    """
    message, checked = None, len(transfers)
    for j, t in enumerate(transfers):
        try:
            _anchor(grid, _radial_axes(grid, t.radial_axes), t.anchor)
            _check_profile(t.r0, t.r1, t.kT0)
            _compartment(grid, t.compartment)
        except ValueError as exc:
            message, checked = str(exc), j
            break
    empty = (t.terminal_id for t in transfers[:checked] if not terminal_support(grid, t)[0].size)
    return next(empty, None), message


def taper_cell_average(grid, cells, anchor, axes, radii, kT0):
    """Exact-in-r averages of `transfer_profile` over selected cells.

    The profile is radial about ``anchor`` over one or two ``axes``;
    ``radii`` is (r0, r1).
    """
    axes = list(axes)
    rel = grid.cell_centers()[np.ix_(cells, axes)] - np.asarray(anchor, dtype=float)
    return _taper_average(rel, grid.spacing[axes], *radii, kT0)


def disc_box_area(box, r):
    """Area of the disc of radius r about 0 within box ((x0, x1), (y0, y1)).

    scipy.integrate.quad of the disc's chord length within [y0, y1] over
    x in [x0, x1] clipped to [-r, r], split where the circle meets the
    lines y = y0 and y = y1 and at x = 0, the kinks of the chord length.
    The absolute tolerance is 1e-16 of the smaller of r^2 and the box's
    area; the relative one, 5e-14, sits above the 50 ulps that QUADPACK's
    error estimate cannot go below.
    """
    (x0, x1), (y0, y1) = box
    scale = min(r * r, (x1 - x0) * (y1 - y0))
    a, b = max(x0, -r), min(x1, r)
    if not a < b:
        return 0.0

    def chord(x):
        s = np.sqrt(max(r * r - x * x, 0.0))
        return max(0.0, min(y1, s) - max(y0, -s))

    kinks = {sign * np.sqrt(r * r - y * y) for y in (y0, y1) if abs(y) < r for sign in (-1, 1)}
    kinks = sorted(x for x in kinks | {0.0} if a < x < b)
    return si.quad(chord, a, b, points=kinks or None,
                   epsabs=1e-16 * scale, epsrel=5e-14, limit=200)[0]
