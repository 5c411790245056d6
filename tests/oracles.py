"""Independent dense constructions used as test oracles.

The mixed lumped system is rebuilt here from basis principles (trapezoid
lumping of the lowest-order face-element mass matrix, divergence from
the flux of each basis function, piecewise-constant coupling integrals)
and reduced by dense linear algebra, without reusing any assembly code
paths from the package.  The greedy pairwise matching is kept here as
the plain two-loop scan in natural order that the solver's vectorised
matching must reproduce exactly.
"""

import numpy as np

from mdflow.geometry import NodeKind


def lumped_mixed_dense(grid, forest, coeffs):
    """Dense (D, G_full, r_full, free_cols, dirichlet) of the mixed system.

    Flux rows: interior faces, then support cells, then edges.  Pressure
    columns: cells, then all forest nodes (Dirichlet ones included; the
    caller eliminates them).
    """
    n_cells = grid.n_cells
    nodes = list(forest.nodes) if forest is not None else []
    node_col = {n.id: n_cells + j for j, n in enumerate(nodes)}
    n_p = n_cells + len(nodes)

    # face flux block: trapezoid-lumped mass of the face basis functions.
    # The basis for face f, normalized to unit face-integrated flux, has
    # normal component 1/|f| at its own face and 0 at the opposite one,
    # varying linearly; the two-point trapezoid rule along the normal
    # axis makes the element mass diagonal.
    nf = grid.n_faces
    D_faces = np.zeros(nf)
    for i in range(nf):
        a = grid.face_axis[i]
        area = grid.face_area[a]
        h = grid.spacing[a]
        for cell in (grid.face_lo[i], grid.face_hi[i]):
            k = coeffs.kD[cell, a]
            phi_own, phi_opp = 1.0 / area, 0.0
            D_faces[i] += (grid.cell_volume / 2.0) / k * phi_own**2
            D_faces[i] += (grid.cell_volume / 2.0) / k * phi_opp**2

    sup_rows = []
    for s in coeffs.supports:
        for c, ks in zip(s.cell_idx, s.ks):
            sup_rows.append((int(c), node_col[s.terminal_id], ks * grid.cell_volume))
    ns = len(sup_rows)

    edges = forest.edges if forest is not None else ()
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
        G[i, grid.face_lo[i]] = -1.0
        G[i, grid.face_hi[i]] = 1.0
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
