"""Mixed-dimensional geometry: rooted-tree forests, Cartesian grids, supports.

The computational domain is the disjoint union of an n-dimensional
Cartesian cell grid (the porous continuum) and a forest of rooted trees
(the resolved vessel network).  Leaves of the trees ("terminals")
exchange fluid with the continuum over a compactly supported region,
represented here extensionally as the set of cells where the scaled
transfer coefficient is nonzero.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .quadrature import BASE_POINTS, composite_rule, reference_rule


class NodeKind(enum.Enum):
    DIRICHLET_ROOT = "dirichlet"
    NEUMANN_ROOT = "neumann"
    INTERIOR = "interior"
    TERMINAL = "terminal"


@dataclass(frozen=True)
class Node:
    """A network node.

    ``value`` is the prescribed pressure for Dirichlet roots, ``anchor``
    the spatial coupling point for terminals; both are None otherwise.
    """

    id: int
    kind: NodeKind
    value: float | None = None
    anchor: tuple[float, ...] | None = None

    @property
    def is_root(self) -> bool:
        return self.kind in (NodeKind.DIRICHLET_ROOT, NodeKind.NEUMANN_ROOT)


def dirichlet_root(node_id: int, value: float) -> Node:
    return Node(node_id, NodeKind.DIRICHLET_ROOT, value=float(value))


def neumann_root(node_id: int) -> Node:
    return Node(node_id, NodeKind.NEUMANN_ROOT)


def interior(node_id: int) -> Node:
    return Node(node_id, NodeKind.INTERIOR)


def terminal(node_id: int, anchor) -> Node:
    return Node(node_id, NodeKind.TERMINAL, anchor=tuple(float(a) for a in anchor))


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    k: float


@dataclass(frozen=True)
class Forest:
    """A validated forest of rooted trees with root-to-terminal edge orientation."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    tree_of: dict[int, int]  # node id -> tree id

    @property
    def n_trees(self) -> int:
        return len(set(self.tree_of.values())) if self.tree_of else 0

    def nodes_of_kind(self, kind: NodeKind) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind == kind)

    @property
    def terminals(self) -> tuple[Node, ...]:
        return self.nodes_of_kind(NodeKind.TERMINAL)

    @property
    def dirichlet_roots(self) -> tuple[Node, ...]:
        return self.nodes_of_kind(NodeKind.DIRICHLET_ROOT)

    @property
    def free_nodes(self) -> tuple[Node, ...]:
        """Nodes carrying pressure unknowns (everything but Dirichlet roots)."""
        return tuple(n for n in self.nodes if n.kind != NodeKind.DIRICHLET_ROOT)


# entries of a pattern's rows that `components` reads at once: small next
# to the pressure system, whose components `pressure_kernel` finds
COMPONENT_BLOCK = 1 << 14


def components(A) -> tuple[int, np.ndarray]:
    """Connected components of a structurally symmetric square CSR pattern.

    Returns (count, labels), the components numbered in the order of
    their smallest index, as scipy.sparse.csgraph numbers those of a
    symmetric pattern.  Every node points at a node no larger than
    itself, at first itself.  Each pass over the rows, in blocks of about
    COMPONENT_BLOCK entries, hangs the root of each entry's row under
    the root of its column where that is smaller, and pointer jumping
    then points every node at its root.  Once a pass hangs nothing, the
    two ends of every entry share a root, so each component is one tree
    whose root is its smallest node.  Only arrays of length n and blocks
    of entries are held, none of A's length.
    """
    n = A.shape[0]
    indptr, indices = A.indptr, A.indices
    root = np.arange(n, dtype=index_dtype(n))
    blocks = [root[a : a + COMPONENT_BLOCK] for a in range(0, n, COMPONENT_BLOCK)]
    hung = True
    while hung:
        hung = False
        r0 = 0
        while r0 < n:
            r1 = int(np.searchsorted(indptr, indptr[r0] + COMPONENT_BLOCK, side="right")) - 1
            r1 = min(max(r1, r0 + 1), n)
            at_row = np.repeat(root[r0:r1], np.diff(indptr[r0 : r1 + 1]))
            at_col = np.take(root, indices[indptr[r0] : indptr[r1]])
            lower = at_col < at_row
            if lower.any():
                np.minimum.at(root, at_row[lower], at_col[lower])
                hung = True
            r0 = r1
        jumped = True
        while jumped:
            jumped = False
            for block in blocks:
                up = np.take(root, block)
                if not np.array_equal(up, block):
                    block[:] = up
                    jumped = True
    roots = np.flatnonzero(root == np.arange(n, dtype=root.dtype))
    for block in blocks:
        block[:] = np.searchsorted(roots, block)
    return roots.size, root


def build_forest(nodes, edges) -> Forest:
    """Validate node/edge specs and return a Forest.

    Edges may be given in either orientation; they are reoriented to run
    from the root towards the terminals.  Raises ValueError on cycles,
    trees with root count != 1, roots or terminals of degree != 1, and
    nonpositive edge conductivities.
    """
    nodes = tuple(nodes)
    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate node ids")
    index = {nid: j for j, nid in enumerate(ids)}
    n = len(nodes)

    ends, ks = [], []
    for e in edges:
        tail, head, k = (e.tail, e.head, e.k) if isinstance(e, Edge) else e
        if tail not in index or head not in index:
            raise ValueError(f"edge ({tail}, {head}) references unknown node")
        if tail == head:
            raise ValueError(f"self-loop at node {tail} forms a cycle")
        if not k > 0:
            raise ValueError(f"nonpositive conductivity {k} on edge ({tail}, {head})")
        ends.append((index[tail], index[head]))
        ks.append(float(k))
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)

    # the nodes' adjacency, each edge both ways; trees are numbered by
    # their first node in node order
    a = np.concatenate([ends[:, 0], ends[:, 1]])
    b = np.concatenate([ends[:, 1], ends[:, 0]])
    graph = sp.csr_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    n_trees, tree = components(graph)
    if len(ends) != n - n_trees:
        raise ValueError(
            f"cycle detected: {len(ends)} edges for {n} nodes in {n_trees} trees"
        )

    is_root = np.array([nd.is_root for nd in nodes], dtype=bool)
    roots_per_tree = np.bincount(tree[is_root], minlength=n_trees)
    bad = np.flatnonzero(roots_per_tree != 1)
    if bad.size:
        in_tree = tree == bad[0]
        if roots_per_tree[bad[0]] > 1:
            roots = sorted(ids[j] for j in np.flatnonzero(in_tree & is_root))
            raise ValueError(f"multiple roots in one tree: nodes {roots}")
        raise ValueError(f"tree containing node {ids[np.argmax(in_tree)]} has no root")

    degree = np.bincount(ends.ravel(), minlength=n)
    is_terminal = np.array([nd.kind == NodeKind.TERMINAL for nd in nodes], dtype=bool)
    degree_one = is_root | is_terminal
    bad = np.flatnonzero(degree_one & (degree != 1))
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"{nodes[j].kind.value} node {ids[j]} has degree {degree[j]}, expected 1"
        )

    # Orient every edge away from its tree's root: a breadth-first walk
    # out of a virtual node n joined to every root, whose first frontier
    # is the roots, gives each node its parent.  In a tree each node is
    # reached once, from its parent.
    frontier = np.flatnonzero(is_root)
    parent = np.full(n, -1)
    parent[frontier] = n
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        lengths = indptr[frontier + 1] - indptr[frontier]
        # each entry's position in indices: its row's start plus its rank
        # among the frontier's entries, less the entries of earlier rows
        pos = np.repeat(indptr[frontier] - (np.cumsum(lengths) - lengths), lengths)
        cols = indices[pos + np.arange(pos.size)]
        new = parent[cols] < 0
        parent[cols[new]] = np.repeat(frontier, lengths)[new]
        frontier = cols[new]
    flip = parent[ends[:, 0]] == ends[:, 1]
    tails = np.where(flip, ends[:, 1], ends[:, 0]).tolist()
    heads = np.where(flip, ends[:, 0], ends[:, 1]).tolist()
    oriented = tuple(Edge(ids[t], ids[h], k) for t, h, k in zip(tails, heads, ks))
    return Forest(nodes=nodes, edges=oriented, tree_of=dict(zip(ids, tree.tolist())))


@dataclass(frozen=True)
class SignedIncidence:
    """Edge-by-node signed incidence matrix with Dirichlet columns dropped.

    Row for an edge holds +1 at its tail column and -1 at its head
    column; columns of Dirichlet root nodes are omitted, so a row whose
    tail is a Dirichlet root keeps only the -1 entry.  ``dirichlet``
    holds what the dropped columns contribute against the prescribed
    root pressures, so the full product is ``matrix @ p + dirichlet``.
    Acting on node pressures the matrix is a discrete gradient; its
    transpose is a discrete divergence.
    """

    matrix: sp.csr_matrix
    node_ids: tuple[int, ...]  # column order
    dirichlet: np.ndarray  # (n_edges,) dropped columns times root values
    edge_k: np.ndarray  # (n_edges,) conductivities


def incidence(forest: Forest) -> SignedIncidence:
    node_ids = tuple(n.id for n in forest.free_nodes)
    col = {nid: j for j, nid in enumerate(node_ids)}
    root_value = {n.id: n.value for n in forest.dirichlet_roots}
    edges = forest.edges

    # per edge end (tail, head): its free column, or -1 and the root value
    ends = [i for e in edges for i in (e.tail, e.head)]
    end_col = np.array([col.get(i, -1) for i in ends], dtype=np.int64).reshape(-1, 2)
    end_value = np.array([root_value.get(i, 0.0) for i in ends]).reshape(-1, 2)
    sign = np.broadcast_to([1.0, -1.0], end_col.shape)
    rows = np.indices(end_col.shape)[0]
    kept = end_col >= 0
    mat = sp.csr_matrix(
        (sign[kept], (rows[kept], end_col[kept])), shape=(len(edges), len(node_ids))
    )
    dirichlet = (sign * end_value).sum(axis=1)
    k = np.array([e.k for e in edges], dtype=float)
    return SignedIncidence(mat, node_ids, dirichlet, k)


def index_dtype(count: int):
    """int32 when indices 0..count-1 (and -1) fit in it, else int64."""
    return np.int32 if count <= np.iinfo(np.int32).max else np.int64


class CartesianGrid:
    """Tensor-product cell grid with per-axis spacing and an active-cell mask.

    Cells are indexed in C order over the full brick; only active cells
    carry unknowns.  Faces exist between axis-adjacent active cells
    (interior faces, the flux unknowns) and on the boundary of the
    active region (zero-Neumann faces, eliminated from the system).

    ``active_index`` (the brick's active numbering, -1 off the mask,
    read-only) is int32 whenever the brick's cell count fits
    (`index_dtype`), int64 above 2^31 - 1.  The faces of axis a are the
    entries of its face slab, the brick one cell shorter along a, between
    the two `sides` of a brick array; the interior ones (`face_mask`)
    join two active cells and are counted at construction.  `spread` and
    `gather` move cell and face values, flat in C order, to and from
    bricks; `faces` reads the slabs of ``active_index`` on each call.
    """

    def __init__(self, cells, extent, origin=None, mask=None):
        self.cells = tuple(int(c) for c in cells)
        self.dim = len(self.cells)
        if not 2 <= self.dim <= 4:
            raise ValueError(f"grid dimension must be in 2..4, got {self.dim}")
        if any(c < 1 for c in self.cells):
            raise ValueError("cell counts must be positive")
        extent = np.asarray(extent, dtype=float)
        self.spacing = extent / np.asarray(self.cells)
        if not np.all(np.isfinite(self.spacing) & (self.spacing > 0)):
            raise ValueError(f"spacings must be finite and positive, got {self.spacing}")
        # distances across the grid are summed from their squares
        if not np.all(extent < math.sqrt(sys.float_info.max / self.dim)):
            raise ValueError(
                f"extent {extent.tolist()} is too large: squared distances overflow"
            )
        self.origin = (
            np.zeros(self.dim) if origin is None else np.asarray(origin, dtype=float)
        )
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if mask is None:
            mask = np.ones(self.cells, dtype=bool)
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != self.cells:
            raise ValueError("mask shape does not match cell counts")

        # active cell numbering (C order)
        dtype = index_dtype(self.mask.size)
        self.n_cells = int(np.count_nonzero(self.mask))
        if self.n_cells == 0:
            raise ValueError("grid has no active cells")
        self.active_index = np.full(self.cells, -1, dtype=dtype)
        self.active_index[self.mask] = np.arange(self.n_cells, dtype=dtype)
        self.active_index.flags.writeable = False

        self._centers = None
        self.cell_volume = float(np.prod(self.spacing))
        self.face_area = self.cell_volume / self.spacing  # per axis

        self.face_counts = tuple(
            int(np.count_nonzero(self.face_mask(a))) for a in range(self.dim)
        )
        self.n_faces = sum(self.face_counts)

    def sides(self, brick, axis: int):
        """(lower, upper): views of a brick array on the two sides of axis's faces."""
        along = brick.swapaxes(0, axis)
        return along[:-1].swapaxes(0, axis), along[1:].swapaxes(0, axis)

    def face_mask(self, axis=None) -> np.ndarray:
        """Axis's face slab, True on interior faces; the cell mask for axis None."""
        return self.mask if axis is None else np.logical_and(*self.sides(self.mask, axis))

    def spread(self, values, axis=None, fill=0.0) -> np.ndarray:
        """Active-cell values (axis None) or axis's interior-face values on their brick.

        Entries without a value take ``fill``; where all have one, this is
        a reshape, a view where it can be.
        """
        mask = self.face_mask(axis)
        if np.size(values) == mask.size:
            return np.reshape(values, mask.shape)
        out = np.full(mask.shape, fill, dtype=np.result_type(values))
        out[mask] = values
        return out

    def gather(self, brick, axis=None) -> np.ndarray:
        """Inverse of `spread`: the active-cell or interior-face entries, flat."""
        count = self.n_cells if axis is None else self.face_counts[axis]
        return brick.ravel() if count == brick.size else brick[self.face_mask(axis)]

    def face_slabs(self, values):
        """Each axis's face slab of a face vector (axis by axis, as `face_counts`)."""
        parts = np.split(values, np.cumsum(self.face_counts)[:-1])
        return [self.spread(part, a) for a, part in enumerate(parts)]

    def faces(self, axis: int):
        """(lo, hi): active indices of the cells of axis's interior faces, in its dtype."""
        return tuple(self.gather(s, axis) for s in self.sides(self.active_index, axis))

    @property
    def cell_multi_index(self) -> np.ndarray:
        """(n_cells, dim) integer multi-indices of the active cells, from the mask."""
        return np.stack(np.unravel_index(np.flatnonzero(self.mask), self.cells), axis=-1)

    def cell_centers(self) -> np.ndarray:
        """(n_cells, dim) centres of the active cells, computed once, read-only."""
        if self._centers is None:
            self._centers = self.origin + (self.cell_multi_index + 0.5) * self.spacing
            self._centers.flags.writeable = False
        return self._centers

    def quadrature(self, cells=None):
        """Base-rule quadrature of all (or the selected) active cells.

        Returns the (n, npts, dim) physical points and the (npts,) weights,
        which sum to 1, so ``f(points) @ weights`` is each cell's average.
        """
        centers = self.cell_centers()
        if cells is not None:
            centers = centers[cells]
        ref, w = reference_rule(self.dim, BASE_POINTS)
        return centers[:, None, :] + ref * self.spacing, w


# Decimal digits of float64's ~16 that a taper's r1^2 - r0^2 must keep:
# narrower tapers lose their mass to cancellation (one ulp above r0, the
# support of case 1A at 1/h = 8 comes out empty).
TAPER_DIGITS = 8


def _check_profile(r0: float, r1: float, kT0: float):
    """Raise ValueError unless the profile's radii and kT0 are usable.

    The comparisons are written so that NaN fails them.  The taper forms
    r1^2 and (r0 r1)^2, so neither may overflow, and divides by
    r1^2 - r0^2, which must keep TAPER_DIGITS of its digits.
    """
    if not 0 < r0 <= r1 < math.inf:
        raise ValueError(f"need 0 < r0 <= r1 < inf, got r0={r0}, r1={r1}")
    # float products, which overflow to inf where ** raises OverflowError
    r0, r1 = float(r0), float(r1)
    r0r1, r1r1 = r0 * r1, r1 * r1
    if not (r1r1 < math.inf and r0r1 * r0r1 < math.inf):
        raise ValueError(f"r1 = {r1} is too large: r1^2 or (r0 r1)^2 overflows")
    kept = 10.0**TAPER_DIGITS * sys.float_info.epsilon * r1r1
    if r0 < r1 and r1r1 - r0 * r0 < kept:
        raise ValueError(
            f"taper r0 = {r0}, r1 = {r1} is too narrow: r1^2 - r0^2 keeps fewer "
            f"than {TAPER_DIGITS} digits; use r1 = r0 for a sharp cutoff"
        )
    if not 0 < kT0 < math.inf:
        raise ValueError(f"need kT0 > 0 and finite, got {kT0}")


def transfer_profile(r, r0: float, r1: float, kT0: float):
    """Radial transfer permeability: kT0 inside r0, tapering to 0 at r1.

    For r0 < r1 the taper is kT0 * a0^2 (r1^2 - r^2) / r^2 with
    a0^2 = r0^2 / (r1^2 - r0^2), which is continuous at r0.  For
    r0 == r1 the profile is the sharp cutoff kT0 * 1_{r <= r0}.
    """
    _check_profile(r0, r1, kT0)
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= r0] = kT0
    if r1 > r0:
        a0sq = r0**2 / (r1**2 - r0**2)
        mid = (r > r0) & (r <= r1)
        rm = r[mid]
        out[mid] = kT0 * a0sq * (r1**2 - rm**2) / rm**2
    return out


# Finest sub-cell count per radial axis when a support cell with three or
# more radial axes is cut by a kink circle and refined.
SUPPORT_SUBDIV_SPATIAL = 4
# Gauss points per piece of the r-integral of `_taper_average`.
PIECE_POINTS = 12
# Gauss points per radial axis on boxes where the profile is smooth.
SMOOTH_POINTS = 6
# Batch sizes that bound the memory of one call.  `_rule_average` takes
# 2^16 points at a time, so its temporaries stay in cache (2^19 made
# case 2's supports at 1/h = 32 twice as slow); `_taper_average` takes 2^19
# point evaluations' worth of boxes (1,213), since 2^16 made case 1A's
# support at 1/h = 1024 about 25% slower.
_CHUNK_POINTS = 1 << 16
_TAPER_POINTS = 1 << 19
_CHUNK_BOXES = 1 << 18


def _distance_range(rel, half):
    """Least and greatest distance from the anchor to boxes centred at `rel` from it."""
    delta = np.abs(rel)
    nearest = np.maximum(delta - half, 0.0)
    farthest = delta + half
    return np.sqrt((nearest**2).sum(axis=1)), np.sqrt((farthest**2).sum(axis=1))


def _crossed(dmin, dmax, radii):
    """Boxes whose distance range contains one of `radii`."""
    out = np.zeros(dmin.shape, dtype=bool)
    for rb in radii:
        out |= (dmin <= rb) & (rb <= dmax)
    return out


def _rule_average(rel, width, func, rule):
    """Reference-rule averages of func(|x|) over equal boxes centred at `rel`."""
    ref, w = rule
    out = np.empty(len(rel))
    step = max(1, _CHUNK_POINTS // w.size)
    for s in range(0, len(rel), step):
        r2 = 0.0
        for k in range(rel.shape[1]):
            d = rel[s : s + step, k, None] + ref[:, k] * width[k]
            r2 = r2 + d * d
        out[s : s + step] = func(np.sqrt(r2)) @ w
    return out


@functools.lru_cache(maxsize=32)
def _rule_table(dim: int, subdiv: int):
    """Read-only (base, smooth, per-span) reference rules for `_box_average`.

    The rule for an uncrossed box between the kink circles, ``span``
    finest sub-cells wide, is the base rule on every finest sub-cell or
    the smooth rule, whichever needs fewer points.  Spans run subdiv,
    subdiv/2, ..., 2; a box one finest sub-cell wide takes the base rule.
    """
    base = reference_rule(dim, BASE_POINTS)
    smooth = reference_rule(dim, SMOOTH_POINTS)
    by_span = {}
    span = subdiv
    while span >= 2:
        fewer = BASE_POINTS * span <= SMOOTH_POINTS
        by_span[span] = composite_rule(dim, BASE_POINTS, span) if fewer else smooth
        span //= 2
    for rule in (base, smooth, *by_span.values()):
        for arr in rule:
            arr.flags.writeable = False
    return base, smooth, by_span


def _box_average(rel, width, func, breaks, subdiv):
    """`radial_cell_average` on boxes centred at `rel` from the anchor.

    Each box is evaluated at its reflection into the first orthant,
    ``np.abs(rel)``, so boxes that mirror each other about the anchor
    along any axes get the same bits.
    """
    if subdiv < 1 or subdiv & (subdiv - 1):
        raise ValueError(f"subdiv must be a power of two, got {subdiv}")
    rel = np.abs(rel)
    n, dim = rel.shape
    radii = sorted({float(x) for rb in breaks for x in np.atleast_1d(rb)})
    base, smooth, by_span = _rule_table(dim, subdiv)

    dmin, dmax = _distance_range(rel, 0.5 * width)
    cut = _crossed(dmin, dmax, radii)
    in_band = np.zeros(n, dtype=bool)
    for a, b in (rb for rb in breaks if np.ndim(rb)):
        in_band |= (dmin <= b) & (a <= dmax)
    out = np.empty(n)
    for mask, rule in ((~cut & ~in_band, base), (~cut & in_band, smooth)):
        out[mask] = _rule_average(rel[mask], width, func, rule)

    # Inside a cut cell, a box a kink circle crosses splits in two along
    # every axis until it is one finest sub-cell wide.  An uncrossed box
    # inside the innermost or outside the outermost circle takes the base
    # rule, as a whole cell there does; one between circles takes the
    # rule for its width.
    children = (np.indices((2,) * dim).reshape(dim, -1).T - 0.5) / 2
    cut_cells = np.flatnonzero(cut)
    step = max(1, _CHUNK_BOXES // (2**dim * subdiv ** (dim - 1)))
    for s in range(0, cut_cells.size, step):
        chunk = cut_cells[s : s + step]
        acc = np.zeros(chunk.size)
        owner = np.arange(chunk.size)
        boxes = rel[chunk]
        size, span, vol = width, subdiv, 1.0
        while span > 1:
            dmin, dmax = _distance_range(boxes, 0.5 * size)
            split = _crossed(dmin, dmax, radii)
            outer = ~split & ((dmax <= radii[0]) | (dmin >= radii[-1]))
            for mask, rule in ((outer, base), (~split & ~outer, by_span[span])):
                vals = _rule_average(boxes[mask], size, func, rule)
                acc += vol * np.bincount(owner[mask], vals, minlength=chunk.size)
            boxes = (boxes[split][:, None, :] + children * size).reshape(-1, dim)
            owner = np.repeat(owner[split], 2**dim)
            size, span, vol = 0.5 * size, span // 2, vol / 2**dim
        vals = _rule_average(boxes, size, func, base)
        out[chunk] = acc + vol * np.bincount(owner, vals, minlength=chunk.size)
    return out


def radial_cell_average(grid: "CartesianGrid", anchor, func, breaks, subdiv: int):
    """Quadrature averages of a radial profile over every active cell.

    ``func`` maps the distance r to the anchor, over all axes of the
    grid, to a value.  ``breaks`` entries are either a radius (a kink
    circle) or an (inner, outer) band whose two edges are kink circles
    and inside which the profile is smooth but curved.

    - A cell a kink circle crosses is refined adaptively: a box splits
      only where a circle crosses it, down to ``subdiv`` finest
      sub-cells per axis (a power of two).  An uncrossed box between
      two circles takes the ``SMOOTH_POINTS``-point Gauss rule or the
      base rule on each of its finest sub-cells, whichever needs fewer
      points; one inside the innermost or outside the outermost circle
      takes the base rule.
    - An uncut cell inside a band takes the ``SMOOTH_POINTS``-point
      Gauss rule per axis.
    - Every other cell takes the 2-point Gauss base rule per axis.

    Points are evaluated in fixed-size batches, so memory stays bounded
    whatever the number of cells.  This rule serves the ring source;
    `build_support` applies the same rule to supports with three or more
    radial axes and the exact-in-r `_taper_average` to those with one or
    two.

    The average is a function of each cell's mirror class: cells whose
    centres are reflections of each other about the anchor along any
    axes, |x - anchor| equal in every coordinate, get the same bits, and
    one cell per class is evaluated.  Each column of |x - anchor| is
    coded by a 1-D `np.unique`, and the codes of a cell, combined into
    one integer, name its class.  Swapping axes is not a symmetry of
    the rule's bits, so a grid symmetric under x <-> y still evaluates
    both cells of such a pair.
    """
    rel = grid.cell_centers() - np.asarray(anchor, dtype=float)
    columns = [np.unique(np.abs(col), return_inverse=True) for col in rel.T]
    key = np.ravel_multi_index([code for _, code in columns], [v.size for v, _ in columns])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return _box_average(rel[first], grid.spacing, func, breaks, subdiv)[inverse]


def _quadrant_measure(x0, x1, y0, y1, r):
    """Measure of the disc of radius r about 0 within [x0, x1] x [y0, y1], 0 <= x0, y0.

    Along x the disc's chord spans all of [y0, y1] up to xa, where the
    circle leaves y = y1, and ends at the circle up to xb, where it meets
    y = y0; both are clipped to [x0, x1] and (xa, ya), (xb, yb) lie on
    the circle.  The arc between them integrates to half the chord's
    triangle terms plus r^2 times the angle it subtends, which is one
    arctangent.
    """
    rr = r * r
    xa = np.clip(np.sqrt(np.maximum(rr - y1 * y1, 0.0)), x0, x1)
    xb = np.clip(np.sqrt(np.maximum(rr - y0 * y0, 0.0)), x0, x1)
    ya = np.sqrt(np.maximum(rr - xa * xa, 0.0))
    yb = np.sqrt(np.maximum(rr - xb * xb, 0.0))
    angle = np.arctan2(xb * ya - xa * yb, xa * xb + ya * yb)
    return (y1 - y0) * (xa - x0) + 0.5 * (xb * yb - xa * ya + rr * angle) - y0 * (xb - xa)


def _ball_measure(lo, hi, r):
    """Measure of the ball of radius r about 0 within the boxes [lo, hi].

    ``lo`` and ``hi`` have shape (p, 1, dim) and ``r`` shape (p, q): q
    radii per box.  With one axis this is the clipped overlap length.
    With two the disc is symmetric in each axis, so a box folds onto
    the first quadrant: along an axis it covers [near, far] of |x|, and
    a box that straddles 0 also covers [0, min(-lo, hi)] a second time.
    The measure is the sum of `_quadrant_measure` over those two or four
    pieces, which only the straddling boxes evaluate.  Round-off below 0
    is clamped.
    """
    if lo.shape[-1] == 1:
        return np.clip(hi[..., 0], -r, r) - np.clip(lo[..., 0], -r, r)
    near = np.maximum(np.maximum(lo, -hi), 0.0)
    far = np.maximum(-lo, hi)
    fold = np.minimum(-lo, hi)  # > 0 where the box straddles 0
    (nx, ny), (fx, fy), (mx, my) = (np.moveaxis(v, -1, 0) for v in (near, far, fold))
    area = _quadrant_measure(nx, fx, ny, fy, r)
    sx, sy = mx[:, 0] > 0.0, my[:, 0] > 0.0
    k = np.flatnonzero(sx)
    area[k] += _quadrant_measure(0.0, mx[k], ny[k], fy[k], r[k])
    k = np.flatnonzero(sy)
    area[k] += _quadrant_measure(nx[k], fx[k], 0.0, my[k], r[k])
    k = np.flatnonzero(sx & sy)
    area[k] += _quadrant_measure(0.0, mx[k], 0.0, my[k], r[k])
    return np.maximum(area, 0.0)


def _breakpoints(lo, hi):
    """Radii at which `_ball_measure` of each box is not smooth, one row per box.

    The distances to the edge lines (entries where the circle touches a
    line outside the box read 0) and, with two axes, to the corners.
    """
    ends = np.abs(np.hstack([lo, hi]))
    if lo.shape[1] == 1:
        return ends
    # a circle touches the line x = X at (X, 0), which is on the box's
    # edge only if the box straddles y = 0, and likewise for y = Y
    tangent = np.tile(((lo < 0.0) & (hi > 0.0))[:, ::-1], 2)
    corners = np.hypot(ends[:, [0, 0, 2, 2]], ends[:, [1, 3, 1, 3]])
    return np.hstack([np.where(tangent, ends, 0.0), corners])


@functools.lru_cache(maxsize=1)
def _piece_rule():
    """Gauss rule in t on [0, 1] under the substitution u = 3t^2 - 2t^3.

    Returns u at the nodes and du/dt times the weights, read-only.  The
    substitution flattens both ends of a piece, where the ball measure
    behaves like (r - d)^(3/2).
    """
    t, w = np.polynomial.legendre.leggauss(PIECE_POINTS)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    rule = (t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t) * w)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _taper_average(rel, width, r0: float, r1: float, kT0: float):
    """Averages of `transfer_profile` over boxes centred at `rel` from the anchor.

    The boxes span one or two radial axes, and the average is exact in
    r: integrating by parts,

        int_box kT = -int_{r0}^{r1} kT'(r) A(r) dr
                   = 2 kT0 a0^2 r1^2 int_{r0}^{r1} A(r) r^-3 dr,

    where A(r) is the measure of the ball of radius r about the anchor
    inside the box, in closed form (`_ball_measure`).  The r-integral
    runs up to the box's farthest point, where A reaches the box volume
    and the rest is analytic; it is split at the radii where A is not
    smooth (`_breakpoints`) and each piece takes a ``PIECE_POINTS``-point
    Gauss rule in log r under a substitution that flattens both ends.
    The sharp cutoff (r0 == r1) is kT0 A(r0) / |box|.  Boxes are
    evaluated in fixed-size batches, so memory stays bounded.  Each box
    is evaluated at its reflection into the first quadrant,
    ``np.abs(rel)``, so boxes that mirror each other about the anchor
    along either axis get the same bits.
    """
    rel = np.abs(rel)
    n, dim = rel.shape
    vol = float(np.prod(width))
    u, du = _piece_rule()
    out = np.empty(n)
    # a box has at most 9 pieces between its breakpoints, and each point
    # is evaluated on at most 4 quadrant pieces of the box
    step = max(1, _TAPER_POINTS // (9 * 4 * PIECE_POINTS))
    for s in range(0, n, step):
        lo = rel[s : s + step] - 0.5 * width
        hi = lo + width
        dmin, dmax = _distance_range(rel[s : s + step], 0.5 * width)
        if r0 == r1:
            area = _ball_measure(lo[:, None], hi[:, None], np.full((len(lo), 1), r0))
            frac = np.where(dmax <= r0, 1.0, area[:, 0] / vol)
            out[s : s + step] = np.where(dmin < r0, kT0 * frac, 0.0)
            continue
        a = np.maximum(r0, dmin)[:, None]
        b = np.minimum(r1, dmax)[:, None]
        knots = np.log(np.sort(np.clip(np.hstack([_breakpoints(lo, hi), a, b]), a, b)))
        own, k = np.nonzero(knots[:, 1:] > knots[:, :-1])
        la, lb = knots[own, k], knots[own, k + 1]
        # int A r^-3 dr = int A r^-2 d(log r), whose integrand is smooth
        # over wide pieces and constant where A = pi r^2
        r = np.exp(la[:, None] + (lb - la)[:, None] * u)
        f = _ball_measure(lo[own, None], hi[own, None], r) / (r * r) @ du
        inner = np.bincount(own, f * (lb - la), minlength=len(lo)) / vol
        tail = np.where(dmax < r1, 0.5 / np.maximum(r0, dmax) ** 2 - 0.5 / r1**2, 0.0)
        scale = 2.0 * kT0 * (r0 * r1) ** 2 / (r1**2 - r0**2)  # 2 kT0 a0^2 r1^2
        out[s : s + step] = scale * (inner + tail)
    return out


@dataclass(frozen=True)
class TransferSpec:
    """Radial transfer coupling for one terminal."""

    terminal_id: int
    anchor: tuple[float, ...]
    r0: float
    r1: float
    kT0: float = 1.0
    radial_axes: tuple[int, ...] | None = None
    # (axis, 'lower'|'upper'): confine the support to one side of the
    # axis midpoint, e.g. one compartment of a two-compartment model.
    compartment: tuple[int, str] | None = None


@dataclass(frozen=True)
class SupportTable:
    """The cells coupled to every terminal, one row per (terminal, cell) pair.

    Each row is one support row of the mixed operator, which names its
    terminal by id, so no consumer depends on the order of the rows.
    `build_support` groups them by terminal in the order of
    ``terminal_ids``, which is the order of its transfers, each
    terminal's cells ascending.  ``ks`` holds the cellwise square root
    of the quadrature-averaged transfer coefficient, so ks^2 * volume
    reproduces the cell integral of kT; a terminal's rows are exactly
    the cells where that value is positive.
    """

    terminal_ids: tuple[int, ...]  # one per terminal
    terminal: np.ndarray  # (n_rows,) position in terminal_ids of the row's terminal
    cell_idx: np.ndarray  # (n_rows,) active cell indices
    ks: np.ndarray  # (n_rows,) scaled transfer coefficient, > 0


def _compartment_fraction(grid: CartesianGrid, axis: int, side: str):
    """Per-cell fraction along `axis` on one side of the axis midpoint.

    Index arithmetic: the midpoint lies at cells[axis]/2 in cell units,
    so on a uniform axis every fraction is exactly 0, 1/2 or 1.  An axis
    that is not an integer (2.0, "2", True) is refused, as `_radial_axes`
    refuses one.
    """
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)):
        raise ValueError(f"compartment axis {axis!r} is not an integer")
    if not 0 <= axis < grid.dim:
        raise ValueError(f"compartment axis {axis} outside 0..{grid.dim - 1}")
    if side not in ("lower", "upper"):
        raise ValueError(f"compartment side must be 'lower' or 'upper', got {side!r}")
    n = grid.cells[axis]
    below = np.clip(0.5 * n - np.arange(n), 0.0, 1.0)
    return below if side == "lower" else 1.0 - below


def _radial_axes(grid: CartesianGrid, radial_axes) -> np.ndarray:
    """A transfer's radial axes as given; ValueError unless distinct axes of the grid."""
    axes = np.arange(grid.dim) if radial_axes is None else np.asarray(radial_axes)
    if not (
        axes.dtype.kind in "iu"
        and axes.ndim == 1
        and 0 < axes.size == np.unique(axes).size
        and 0 <= axes.min()
        and axes.max() < grid.dim
    ):
        raise ValueError(
            f"radial_axes {radial_axes!r} must be distinct axes in 0..{grid.dim - 1}"
        )
    return axes


def _grid_bounds(grid: CartesianGrid, axes):
    """The grid's lower and upper corners along `axes`."""
    lo = grid.origin[axes]
    return lo, lo + np.asarray(grid.cells)[axes] * grid.spacing[axes]


def _anchor(grid: CartesianGrid, axes, anchor) -> np.ndarray:
    """A transfer's anchor along `axes`; ValueError unless one coordinate per axis, in the grid."""
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (axes.size,):
        raise ValueError(
            f"anchor has {anchor.size} coordinates for {axes.size} radial axes"
        )
    lo, hi = _grid_bounds(grid, axes)
    if not np.all((lo <= anchor) & (anchor <= hi)):  # NaN fails it
        raise ValueError(f"anchor {anchor.tolist()} lies outside the grid")
    return anchor


def _compartment(grid: CartesianGrid, compartment):
    """A transfer's compartment as an (axis, side) tuple, or None; ValueError if invalid."""
    if compartment is None:
        return None
    axis, side = compartment = tuple(compartment)
    _compartment_fraction(grid, axis, side)  # validates the compartment
    return compartment


def _checked_transfers(grid: CartesianGrid, transfers):
    """Sorted radial axes, anchors along them and compartments of the valid transfers.

    Returns (axes, anchors, compartments, failure).  The transfers are
    checked in order, each for its radial axes, anchor, profile
    (`_check_profile`) and compartment, and the first check to fail
    ends the pass: the lists hold the transfers before it, and failure
    is its ValueError (None if all pass).  Each distinct radial_axes
    value, profile and compartment is checked once, radial axes and
    compartments keyed by their repr, since equal values of other types
    (1 and 1.0) differ in validity there.  An anchor is tested against
    the grid bounds cached with its axes, and `_anchor` runs only where
    that test fails, to raise its message.
    """
    axes_of, profiles, compartment_of = {}, set(), {}
    radial, anchors, compartments = [], [], []
    for t in transfers:
        try:
            key = repr(t.radial_axes)
            if key not in axes_of:
                axes = _radial_axes(grid, t.radial_axes)
                order = np.argsort(axes)
                lo, hi = _grid_bounds(grid, axes)
                axes_of[key] = axes, order, tuple(axes[order].tolist()), lo.tolist(), hi.tolist()
            axes, order, sorted_axes, lo, hi = axes_of[key]
            anchor = np.asarray(t.anchor, dtype=float)  # `_anchor`'s conversion
            if not (anchor.shape == axes.shape
                    and all(a <= x <= b for a, x, b in zip(lo, anchor.tolist(), hi))):
                _anchor(grid, axes, t.anchor)  # raises its message; NaN fails the test
            if (profile := (t.r0, t.r1, t.kT0)) not in profiles:
                _check_profile(*profile)
                profiles.add(profile)
            if (where := repr(t.compartment)) not in compartment_of:
                compartment_of[where] = _compartment(grid, t.compartment)
        except ValueError as exc:
            return radial, anchors, compartments, exc
        radial.append(sorted_axes)
        anchors.append(anchor[order])
        compartments.append(compartment_of[where])
    return radial, anchors, compartments, None


def _group_rows(grid, axes, r0, r1, kT0, anchors, compartments, terminal_ids):
    """(owner, cell, kt) over the candidate boxes of transfers sharing a profile.

    ``anchors`` (m, len(axes)), ``compartments`` (m,) and
    ``terminal_ids`` (m,) belong to the m transfers whose radial
    ``axes`` and profile (r0, r1, kT0) agree; each candidate cell's
    centre is taken relative to its transfer's anchor once, here.  Rows
    run over the transfers in order, each box in C order over the grid;
    only active cells with kt > 0 are kept.  A ValueError names the
    first terminal whose cell average overflows, before any compartment
    fraction multiplies it.
    """
    axes = np.asarray(axes)
    lo = grid.origin[axes]
    h = grid.spacing[axes]
    n = np.asarray(grid.cells)[axes]
    # Candidate box: along each radial axis, the cells meeting
    # [anchor - r1, anchor + r1]; along the other axes, every cell.
    # Every box takes the group's widest width, shifted to stay inside
    # the grid: the extra cells lie at least r1 from their anchor, so
    # their kt is 0 and they drop out.
    first = np.maximum(np.ceil((anchors - r1 - lo) / h) - 1, 0).astype(np.int64)
    last = np.minimum(np.floor((anchors + r1 - lo) / h), n - 1).astype(np.int64)
    width = (last - first + 1).max(axis=0)
    first = np.minimum(first, n - width)
    m = len(anchors)
    # along axis j, the offsets (m, width[j]) of the box's cell centres
    # from their anchor, and the box's entries along it
    offsets = [
        lo[j] + (first[:, j, None] + np.arange(width[j]) + 0.5) * h[j] - anchors[:, j, None]
        for j in range(axes.size)
    ]
    along = lambda j, v: v.reshape(m, *(w if k == j else 1 for k, w in enumerate(width)))

    # Mirror classes.  An anchor's offsets along an axis increase, so
    # offset t has at most one offset of equal magnitude before it, its
    # reflection s = S - t, where S is the nearest integer to
    # -2 offsets[0] / h, twice the anchor's distance in cells from the
    # box's first centre.  Offset t is coded by s where the magnitudes
    # agree and by t otherwise; `rep` is the flat index of the box its
    # codes name, and a box is its class's representative (`own`) when
    # no offset of it pairs.  The kernels average |rel|, so only the
    # representatives are evaluated and the rest copy their bits.
    rep = np.arange(m).reshape(-1, *(1,) * axes.size) * int(np.prod(width))
    own = True
    for j, (o, step) in enumerate(zip(offsets, h)):
        t = np.arange(width[j])
        s = np.rint(-2.0 * o[:, :1] / step).astype(np.int64) - t
        mag = np.abs(o)
        pair = (0 <= s) & (s < t)
        pair &= np.take_along_axis(mag, np.clip(s, 0, t.size - 1), axis=1) == mag
        rep = rep + along(j, np.where(pair, s, t)) * int(np.prod(width[j + 1:]))
        own = own & along(j, ~pair)
    rel = [np.broadcast_to(along(j, o), own.shape)[own] for j, o in enumerate(offsets)]
    rel = np.stack(rel, axis=-1)
    kt = np.empty(own.shape)
    if axes.size <= 2:
        kt[own] = _taper_average(rel, h, r0, r1, kT0)
    else:
        profile = lambda r: transfer_profile(r, r0, r1, kT0)
        kt[own] = _box_average(rel, h, profile, ((r0, r1),), SUPPORT_SUBDIV_SPATIAL)
    kt = kt.ravel()[rep]
    finite = np.isfinite(kt).reshape(m, -1).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"transfer coefficient of terminal {terminal_ids[np.argmin(finite)]} "
            f"overflows: kT0 = {kT0!r} is too large"
        )

    # The average is computed once per radial cell and broadcast along
    # the other axes of the grid; index arrays are (m, *box shape).
    shape = np.array(grid.cells)
    shape[axes] = width
    index = [i[None] for i in np.ix_(*map(np.arange, shape))]
    ones = (1,) * grid.dim
    for j, a in enumerate(axes):
        index[a] = index[a] + first[:, j].reshape(-1, *ones)
    other = [1 + a for a in range(grid.dim) if a not in axes]
    kt = np.expand_dims(kt.reshape(m, *width), other)
    for key in {c for c in compartments if c is not None}:
        rows = np.array([c == key for c in compartments]).reshape(-1, *ones)
        frac = _compartment_fraction(grid, *key)[index[key[0]]]
        kt = kt * np.where(rows, frac, 1.0)
    cells = grid.active_index[tuple(index)]
    keep = (cells >= 0) & (kt > 0.0)
    owner = np.repeat(np.arange(m), keep.reshape(m, -1).sum(axis=1))
    return owner, cells[keep], np.broadcast_to(kt, cells.shape)[keep]


def build_support(grid: CartesianGrid, transfers) -> SupportTable:
    """Evaluate the scaled transfer coefficients around all terminal anchors.

    Each `TransferSpec` measures the distance to its anchor over its
    ``radial_axes`` only (default: all axes; distinct axes of the grid),
    so a 4D grid can carry supports that are radial in space and
    constant through the extra axis.  Its optional ``compartment``, an
    (axis, 'lower' | 'upper') pair, confines the support to one side of
    that axis's midpoint; it enters as each cell's exact volume fraction
    on that side.

    The per-cell transfer coefficient is the cell average of kT(x).
    With one or two radial axes it comes from `_taper_average`, which
    is exact in r: an integration by parts turns the cell integral into
    a one-dimensional integral over the cell's disc (or interval)
    measure, evaluated piecewise to round-off level, and the sharp
    cutoff (r0 == r1) is the exact disc or interval overlap.  With
    three or more radial axes it comes from the rule of
    `radial_cell_average` with the taper annulus [r0, r1] as its band:
    cells the kink circles cut are refined towards them to
    ``SUPPORT_SUBDIV_SPATIAL`` finest sub-cells per axis, and uncut
    annulus cells take a 6-point Gauss rule.  That rule is not exact:
    against itself at 32 subdivisions, case 2's kt is off by up to
    4.5e-4 kT0 per cell at 1/h=8, in the cut cells.  The candidate
    cells are the box of cells within r1 of the anchor along every
    radial axis; the average is computed once per
    distinct radial cell and broadcast along the other axes.  It is a
    function of the radial cell's mirror class: both kernels average
    the box at |x - anchor|, so boxes that are reflections of each
    other about the anchor along any radial axes get the same bits,
    and each class is evaluated once.  On a grid symmetric about the
    anchor, the support is bitwise symmetric under each reflection;
    swapping two axes is not a symmetry of the kernels' bits.  The
    stored scaled coefficient is the cellwise square root of the
    average; cells where it vanishes are excluded.  The support is
    truncated at the domain boundary without renormalization.

    All supports that share their radial axes and profile (r0, r1, kT0)
    are evaluated in one batch, on box centres taken relative to each
    box's own anchor.  The table's terminals are the transfers' in the
    order given.  A ValueError names the first transfer, in that order,
    with an invalid parameter or an empty support; `_checked_transfers`
    checks the transfers in order up to the first invalid one, each
    distinct radial axes, profile and compartment once, and only the
    transfers before it are evaluated, so an empty support among them
    is reported first.  A cell average that
    overflows (kT0 near the float maximum) is rejected as its group is
    evaluated, naming the group's first such terminal.
    """
    transfers = tuple(transfers)
    radial, anchors, compartments, failure = _checked_transfers(grid, transfers)
    groups: dict[tuple, list[int]] = {}
    for j, (t, axes) in enumerate(zip(transfers, radial)):
        groups.setdefault((axes, t.r0, t.r1, t.kT0), []).append(j)

    owner, cells, kt = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for (axes, r0, r1, kT0), members in groups.items():
        o, c, k = _group_rows(
            grid, axes, r0, r1, kT0,
            np.array([anchors[j] for j in members]),
            [compartments[j] for j in members],
            [transfers[j].terminal_id for j in members],
        )
        owner.append(np.asarray(members, dtype=np.int64)[o])
        cells.append(c)
        kt.append(k)
    owner, cells, kt = (np.concatenate(x) for x in (owner, cells, kt))
    empty = np.flatnonzero(np.bincount(owner, minlength=len(anchors)) == 0)
    if empty.size:
        raise ValueError(
            f"empty support for terminal {transfers[empty[0]].terminal_id}: "
            "transfer coefficient vanishes on all active cells"
        )
    if failure is not None:
        raise failure
    if np.any(owner[1:] < owner[:-1]):  # groups interleave in transfer order
        order = np.argsort(owner, kind="stable")
        owner, cells, kt = owner[order], cells[order], kt[order]
    return SupportTable(
        terminal_ids=tuple(t.terminal_id for t in transfers),
        terminal=owner,
        cell_idx=cells,
        ks=np.sqrt(kt),
    )


# ---------------------------------------------------------------------------
# Plain-text forest format
#
#   nodes N trees T
#   node <id> dirichlet <pressure>
#   node <id> neumann
#   node <id> interior
#   node <id> terminal <x> <y> [...]
#   edge <tail> <head> <kN>
#
# Whitespace-delimited; '#' starts a comment.
# ---------------------------------------------------------------------------

def forest_to_text(forest: Forest) -> str:
    lines = [f"nodes {len(forest.nodes)} trees {forest.n_trees}"]
    for n in forest.nodes:
        if n.kind == NodeKind.DIRICHLET_ROOT:
            lines.append(f"node {n.id} dirichlet {n.value!r}")
        elif n.kind == NodeKind.NEUMANN_ROOT:
            lines.append(f"node {n.id} neumann")
        elif n.kind == NodeKind.INTERIOR:
            lines.append(f"node {n.id} interior")
        else:
            coords = " ".join(repr(c) for c in n.anchor)
            lines.append(f"node {n.id} terminal {coords}")
    for e in forest.edges:
        lines.append(f"edge {e.tail} {e.head} {e.k!r}")
    return "\n".join(lines) + "\n"


def forest_from_text(text: str) -> Forest:
    nodes: list[Node] = []
    edges: list[tuple[int, int, float]] = []
    header = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "nodes":
            if len(tok) != 4 or tok[2] != "trees":
                raise ValueError(f"bad header line: {raw!r}")
            header = (int(tok[1]), int(tok[3]))
        elif tok[0] == "node":
            if len(tok) < 3 or (tok[2] == "dirichlet" and len(tok) < 4):
                raise ValueError(f"short node line: {raw!r}")
            nid, kind = int(tok[1]), tok[2]
            if kind == "dirichlet":
                nodes.append(dirichlet_root(nid, float(tok[3])))
            elif kind == "neumann":
                nodes.append(neumann_root(nid))
            elif kind == "interior":
                nodes.append(interior(nid))
            elif kind == "terminal":
                nodes.append(terminal(nid, [float(c) for c in tok[3:]]))
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        elif tok[0] == "edge":
            if len(tok) < 4:
                raise ValueError(f"short edge line: {raw!r}")
            edges.append((int(tok[1]), int(tok[2]), float(tok[3])))
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
    forest = build_forest(nodes, edges)
    if header is not None:
        n_nodes, n_trees = header
        if n_nodes != len(forest.nodes) or n_trees != forest.n_trees:
            raise ValueError(
                f"header declares {n_nodes} nodes / {n_trees} trees, "
                f"found {len(forest.nodes)} / {forest.n_trees}"
            )
    return forest
