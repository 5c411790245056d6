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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .quadrature import (
    cell_points,
    composite_rule,
    gauss_points_per_axis,
    reference_rule,
)


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

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    @property
    def _by_id(self) -> dict[int, Node]:
        return {n.id: n for n in self.nodes}

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
    by_id = {n.id: n for n in nodes}

    raw_edges = []
    for e in edges:
        tail, head, k = (e.tail, e.head, e.k) if isinstance(e, Edge) else e
        if tail not in by_id or head not in by_id:
            raise ValueError(f"edge ({tail}, {head}) references unknown node")
        if tail == head:
            raise ValueError(f"self-loop at node {tail} forms a cycle")
        if not k > 0:
            raise ValueError(f"nonpositive conductivity {k} on edge ({tail}, {head})")
        raw_edges.append((tail, head, float(k)))

    # Connected components by union-find.
    parent = {i: i for i in ids}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for tail, head, _ in raw_edges:
        a, b = find(tail), find(head)
        if a != b:
            parent[a] = b
    roots_of_comp: dict[int, int] = {}
    tree_of = {}
    for i in ids:
        comp = find(i)
        tree_of[i] = roots_of_comp.setdefault(comp, len(roots_of_comp))

    n_trees = len(roots_of_comp)
    if len(raw_edges) != len(nodes) - n_trees:
        raise ValueError(
            f"cycle detected: {len(raw_edges)} edges for {len(nodes)} nodes "
            f"in {n_trees} trees"
        )

    degree = {i: 0 for i in ids}
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for idx, (tail, head, _) in enumerate(raw_edges):
        degree[tail] += 1
        degree[head] += 1
        adjacency[tail].append((head, idx))
        adjacency[head].append((tail, idx))

    for tree in range(n_trees):
        members = [i for i in ids if tree_of[i] == tree]
        roots = [i for i in members if by_id[i].is_root]
        if len(roots) > 1:
            raise ValueError(f"multiple roots in one tree: nodes {sorted(roots)}")
        if len(roots) == 0:
            raise ValueError(f"tree containing node {members[0]} has no root")

    for i in ids:
        n = by_id[i]
        if (n.is_root or n.kind == NodeKind.TERMINAL) and degree[i] != 1:
            raise ValueError(
                f"{n.kind.value} node {i} has degree {degree[i]}, expected 1"
            )

    # Orient every edge away from its tree's root (BFS).
    oriented: list[Edge | None] = [None] * len(raw_edges)
    for root in (i for i in ids if by_id[i].is_root):
        stack = [root]
        seen = {root}
        while stack:
            u = stack.pop()
            for v, eidx in adjacency[u]:
                if v in seen:
                    continue
                seen.add(v)
                k = raw_edges[eidx][2]
                oriented[eidx] = Edge(u, v, k)
                stack.append(v)

    return Forest(nodes=nodes, edges=tuple(oriented), tree_of=tree_of)


@dataclass(frozen=True)
class SignedIncidence:
    """Edge-by-node signed incidence matrix with Dirichlet columns dropped.

    Row for an edge holds +1 at its tail column and -1 at its head
    column; columns of Dirichlet root nodes are omitted, so a row whose
    tail is a Dirichlet root keeps only the -1 entry.  Acting on node
    pressures the matrix is a discrete gradient; its transpose is a
    discrete divergence.
    """

    matrix: sp.csr_matrix
    node_ids: tuple[int, ...]  # column order
    edge_list: tuple[Edge, ...]  # row order


def incidence(forest: Forest) -> SignedIncidence:
    free = forest.free_nodes
    col = {n.id: j for j, n in enumerate(free)}
    rows, cols, vals = [], [], []
    for i, e in enumerate(forest.edges):
        if e.tail in col:
            rows.append(i)
            cols.append(col[e.tail])
            vals.append(1.0)
        if e.head in col:
            rows.append(i)
            cols.append(col[e.head])
            vals.append(-1.0)
    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(forest.edges), len(free))
    )
    return SignedIncidence(mat, tuple(n.id for n in free), forest.edges)


class CartesianGrid:
    """Tensor-product cell grid with per-axis spacing and an active-cell mask.

    Cells are indexed in C order over the full brick; only active cells
    carry unknowns.  Faces exist between axis-adjacent active cells
    (interior faces, the flux unknowns) and on the boundary of the
    active region (zero-Neumann faces, eliminated from the system).
    """

    def __init__(self, cells, extent=None, spacing=None, origin=None, mask=None):
        self.cells = tuple(int(c) for c in cells)
        self.dim = len(self.cells)
        if not 2 <= self.dim <= 4:
            raise ValueError(f"grid dimension must be in 2..4, got {self.dim}")
        if any(c < 1 for c in self.cells):
            raise ValueError("cell counts must be positive")
        if (extent is None) == (spacing is None):
            raise ValueError("give exactly one of extent or spacing")
        if spacing is None:
            self.spacing = np.asarray(extent, dtype=float) / np.asarray(self.cells)
        else:
            self.spacing = np.asarray(spacing, dtype=float)
        if np.any(self.spacing <= 0):
            raise ValueError("spacings must be positive")
        self.origin = (
            np.zeros(self.dim) if origin is None else np.asarray(origin, dtype=float)
        )
        if mask is None:
            mask = np.ones(self.cells, dtype=bool)
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != self.cells:
            raise ValueError("mask shape does not match cell counts")

        # active cell numbering (C order)
        self.active_index = -np.ones(self.cells, dtype=np.int64)
        flat = np.flatnonzero(self.mask.ravel())
        self.active_index.ravel()[flat] = np.arange(flat.size)
        self.n_cells = flat.size
        if self.n_cells == 0:
            raise ValueError("grid has no active cells")
        self._active_multi = np.stack(
            np.unravel_index(flat, self.cells), axis=-1
        )  # (n_cells, dim)

        self._centers = None
        self.cell_volume = float(np.prod(self.spacing))
        self.face_area = self.cell_volume / self.spacing  # per axis

        self._build_faces()

    def _build_faces(self):
        """Enumerate interior faces axis by axis, C order within each axis."""
        lo_list, hi_list, axis_list = [], [], []
        idx = self.active_index
        for a in range(self.dim):
            sl_lo = [slice(None)] * self.dim
            sl_hi = [slice(None)] * self.dim
            sl_lo[a] = slice(0, self.cells[a] - 1)
            sl_hi[a] = slice(1, self.cells[a])
            lo = idx[tuple(sl_lo)].ravel()
            hi = idx[tuple(sl_hi)].ravel()
            keep = (lo >= 0) & (hi >= 0)
            lo_list.append(lo[keep])
            hi_list.append(hi[keep])
            axis_list.append(np.full(keep.sum(), a, dtype=np.int64))
        self.face_lo = np.concatenate(lo_list) if lo_list else np.zeros(0, np.int64)
        self.face_hi = np.concatenate(hi_list) if hi_list else np.zeros(0, np.int64)
        self.face_axis = (
            np.concatenate(axis_list) if axis_list else np.zeros(0, np.int64)
        )
        self.n_faces = self.face_lo.size

    @property
    def cell_multi_index(self) -> np.ndarray:
        """(n_cells, dim) integer multi-indices of the active cells."""
        return self._active_multi

    def cell_face_maps(self):
        """Per cell and axis, the interior face below/above it (-1 at walls)."""
        dn = -np.ones((self.n_cells, self.dim), dtype=np.int64)
        up = -np.ones((self.n_cells, self.dim), dtype=np.int64)
        up[self.face_lo, self.face_axis] = np.arange(self.n_faces)
        dn[self.face_hi, self.face_axis] = np.arange(self.n_faces)
        return dn, up

    def cell_centers(self) -> np.ndarray:
        """(n_cells, dim) centres of the active cells, computed once, read-only."""
        if self._centers is None:
            self._centers = self.origin + (self._active_multi + 0.5) * self.spacing
            self._centers.flags.writeable = False
        return self._centers

    def face_centers(self) -> np.ndarray:
        lo_centers = self.cell_centers()[self.face_lo]
        shift = 0.5 * self.spacing[self.face_axis]
        out = lo_centers.copy()
        out[np.arange(self.n_faces), self.face_axis] += shift
        return out

    def quadrature(self, order: int = 4, cells=None):
        """Quadrature points/weights for all (or selected) active cells."""
        centers = self.cell_centers()
        if cells is not None:
            centers = centers[cells]
        return cell_points(centers, self.spacing, order)

    def locate(self, point) -> int:
        """Active index of the cell containing `point`; -1 if outside/inactive."""
        point = np.asarray(point, dtype=float)
        upper = self.origin + np.asarray(self.cells) * self.spacing
        if np.any(point < self.origin) or np.any(point > upper):
            return -1
        ijk = np.floor((point - self.origin) / self.spacing).astype(int)
        ijk = np.clip(ijk, 0, np.asarray(self.cells) - 1)
        return int(self.active_index[tuple(ijk)])


def transfer_profile(r, r0: float, r1: float, kT0: float):
    """Radial transfer permeability: kT0 inside r0, tapering to 0 at r1.

    For r0 < r1 the taper is kT0 * a0^2 (r1^2 - r^2) / r^2 with
    a0^2 = r0^2 / (r1^2 - r0^2), which is continuous at r0.  For
    r0 == r1 the profile is the sharp cutoff kT0 * 1_{r <= r0}.
    """
    if not 0 < r0 <= r1:
        raise ValueError(f"need 0 < r0 <= r1, got r0={r0}, r1={r1}")
    if not kT0 > 0:
        raise ValueError(f"need kT0 > 0, got {kT0}")
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= r0] = kT0
    if r1 > r0:
        a0sq = r0**2 / (r1**2 - r0**2)
        mid = (r > r0) & (r <= r1)
        rm = r[mid]
        out[mid] = kT0 * a0sq * (r1**2 - rm**2) / rm**2
    return out


# Finest sub-cell count per radial axis when a support cell cut by a kink
# circle is refined: h/32 with up to two radial axes, h/4 with three or more.
SUPPORT_SUBDIV_PLANAR = 32
SUPPORT_SUBDIV_SPATIAL = 4
# Gauss points per radial axis on boxes where the profile is smooth.
SMOOTH_POINTS = 6
# Batch sizes that bound the memory of one call to a few tens of MB.
_CHUNK_POINTS = 1 << 19
_CHUNK_BOXES = 1 << 18


def _distance_range(centers, half, anchor):
    """Least and greatest distance from `anchor` to each box."""
    delta = np.abs(centers - anchor)
    nearest = np.maximum(delta - half, 0.0)
    farthest = delta + half
    return np.sqrt((nearest**2).sum(axis=1)), np.sqrt((farthest**2).sum(axis=1))


def _crossed(dmin, dmax, radii):
    """Boxes whose distance range contains one of `radii`."""
    out = np.zeros(dmin.shape, dtype=bool)
    for rb in radii:
        out |= (dmin <= rb) & (rb <= dmax)
    return out


def _rule_average(centers, width, anchor, func, rule):
    """Averages of func(|x - anchor|) over equal boxes under a reference rule."""
    ref, w = rule
    out = np.empty(len(centers))
    step = max(1, _CHUNK_POINTS // w.size)
    for s in range(0, len(centers), step):
        r2 = 0.0
        for k in range(centers.shape[1]):
            d = centers[s : s + step, k, None] + ref[:, k] * width[k] - anchor[k]
            r2 = r2 + d * d
        out[s : s + step] = func(np.sqrt(r2)) @ w
    return out


@functools.lru_cache(maxsize=32)
def _rule_table(dim: int, quad_order: int, subdiv: int):
    """Read-only (base, smooth, per-span) reference rules for `_box_average`.

    The rule for an uncrossed box between the kink circles, ``span``
    finest sub-cells wide, is the base rule on every finest sub-cell or
    the smooth rule, whichever needs fewer points.
    """
    base = reference_rule(dim, quad_order)
    smooth = reference_rule(dim, 2 * SMOOTH_POINTS)
    by_span = {}
    span = subdiv
    while span >= 1:
        fewer = gauss_points_per_axis(quad_order) * span <= SMOOTH_POINTS
        by_span[span] = composite_rule(dim, quad_order, span) if fewer else smooth
        span //= 2
    for rule in (base, smooth, *by_span.values()):
        for arr in rule:
            arr.flags.writeable = False
    return base, smooth, by_span


def _box_average(centers, width, anchor, func, breaks, quad_order, subdiv):
    """`radial_cell_average` on boxes given in the radial subspace."""
    if subdiv < 1 or subdiv & (subdiv - 1):
        raise ValueError(f"subdiv must be a power of two, got {subdiv}")
    n, dim = centers.shape
    radii = sorted({float(x) for rb in breaks for x in np.atleast_1d(rb)})
    base, smooth, by_span = _rule_table(dim, quad_order, subdiv)

    dmin, dmax = _distance_range(centers, 0.5 * width, anchor)
    cut = _crossed(dmin, dmax, radii)
    in_band = np.zeros(n, dtype=bool)
    for a, b in (rb for rb in breaks if np.ndim(rb)):
        in_band |= (dmin <= b) & (a <= dmax)
    out = np.empty(n)
    for mask, rule in ((~cut & ~in_band, base), (~cut & in_band, smooth)):
        out[mask] = _rule_average(centers[mask], width, anchor, func, rule)

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
        boxes = centers[chunk]
        size, span, vol = width, subdiv, 1.0
        while span > 1:
            dmin, dmax = _distance_range(boxes, 0.5 * size, anchor)
            split = _crossed(dmin, dmax, radii)
            outer = ~split & ((dmax <= radii[0]) | (dmin >= radii[-1]))
            for mask, rule in ((outer, base), (~split & ~outer, by_span[span])):
                vals = _rule_average(boxes[mask], size, anchor, func, rule)
                acc += vol * np.bincount(owner[mask], vals, minlength=chunk.size)
            boxes = (boxes[split][:, None, :] + children * size).reshape(-1, dim)
            owner = np.repeat(owner[split], 2**dim)
            size, span, vol = 0.5 * size, span // 2, vol / 2**dim
        vals = _rule_average(boxes, size, anchor, func, base)
        out[chunk] = acc + vol * np.bincount(owner, vals, minlength=chunk.size)
    return out


def radial_cell_average(
    grid: "CartesianGrid",
    cells,
    anchor,
    axes,
    func,
    breaks=(),
    quad_order: int = 4,
    subdiv: int = 8,
):
    """Quadrature cell averages of a radial profile over selected cells.

    ``func`` maps the distance r to the anchor, measured over ``axes``,
    to a value; quadrature points span the radial axes only, since the
    profile is constant along the others.  ``breaks`` entries are either
    a radius (a kink circle) or an (inner, outer) band whose two edges
    are kink circles and inside which the profile is smooth but curved.

    - A cell a kink circle crosses is refined adaptively: a box splits
      only where a circle crosses it, down to ``subdiv`` finest
      sub-cells per radial axis (a power of two).  An uncrossed box
      between two circles takes the ``SMOOTH_POINTS``-point Gauss rule
      or the base rule on each of its finest sub-cells, whichever needs
      fewer points; one inside the innermost or outside the outermost
      circle takes the base rule.
    - An uncut cell inside a band takes the ``SMOOTH_POINTS``-point
      Gauss rule per radial axis.
    - Every other cell takes the base rule of order ``quad_order``.

    Points are evaluated in fixed-size batches, so memory stays bounded
    whatever the number of cells.
    """
    cells = np.asarray(cells, dtype=np.int64)
    axes = list(axes)
    return _box_average(
        grid.cell_centers()[cells][:, axes],
        grid.spacing[axes],
        np.asarray(anchor, dtype=float),
        func,
        breaks,
        quad_order,
        subdiv,
    )


def _disc_strip_area(R: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Exact area of {x^2 + y^2 <= R^2} within the box [x0,x1] x [y0,y1].

    Integrates the clipped vertical extent of the disc in closed form,
    splitting at the abscissae where the circle crosses the horizontal
    box edges so every piece is analytic.
    """
    lo, hi = max(x0, -R), min(x1, R)
    if lo >= hi:
        return 0.0

    def F(x):
        x = min(max(x, -R), R)
        return 0.5 * (x * np.sqrt(max(R * R - x * x, 0.0)) + R * R * np.arcsin(x / R))

    cuts = {lo, hi}
    for yy in (y0, y1):
        if abs(yy) < R:
            xc = np.sqrt(R * R - yy * yy)
            for t in (-xc, xc):
                if lo < t < hi:
                    cuts.add(t)
    xs = sorted(cuts)
    total = 0.0
    for a, b in zip(xs, xs[1:]):
        xm = 0.5 * (a + b)
        s = np.sqrt(max(R * R - xm * xm, 0.0))
        top_is_cap = s < y1
        bot_is_cap = -s > y0
        top_mid = s if top_is_cap else y1
        bot_mid = -s if bot_is_cap else y0
        if top_mid <= bot_mid:
            continue
        total += (F(b) - F(a)) if top_is_cap else y1 * (b - a)
        total -= -(F(b) - F(a)) if bot_is_cap else y0 * (b - a)
    return total


def _disc_fractions(centers, width, center, radius: float):
    """Covered-area fraction of a disc for 2D boxes; exact for cut boxes."""
    dmin, dmax = _distance_range(centers, 0.5 * width, center)
    out = (dmax <= radius).astype(float)
    hx, hy = width
    for i in np.flatnonzero((dmin < radius) & (radius < dmax)):
        x, y = centers[i] - center
        out[i] = _disc_strip_area(
            radius, x - hx / 2, x + hx / 2, y - hy / 2, y + hy / 2
        ) / (hx * hy)
    return out


def disc_cell_fractions(grid: "CartesianGrid", cells, center, radius: float):
    """Exact covered-area fraction of a 2D disc for each listed cell."""
    if grid.dim != 2:
        raise ValueError("exact disc overlap is implemented for 2D grids")
    cells = np.asarray(cells, dtype=np.int64)
    return _disc_fractions(
        grid.cell_centers()[cells], grid.spacing, np.asarray(center, dtype=float), radius
    )


@dataclass(frozen=True)
class SupportRegion:
    """Cells coupled to one terminal, with the scaled coefficient per cell.

    ``ks`` holds the cellwise square root of the quadrature-averaged
    transfer coefficient, so ks^2 * volume reproduces the cell integral
    of kT; the represented region is exactly the cells where that value
    is positive.
    """

    terminal_id: int
    cell_idx: np.ndarray  # active cell indices, sorted
    ks: np.ndarray  # per-cell scaled transfer coefficient, > 0

    def integral(self, cell_volume: float) -> float:
        """Total scaled coupling mass, sum(ks * vol)."""
        return float(self.ks.sum() * cell_volume)


def _compartment_fraction(grid: CartesianGrid, axis: int, side: str):
    """Per-cell fraction along `axis` on one side of the axis midpoint.

    Index arithmetic: the midpoint lies at cells[axis]/2 in cell units,
    so on a uniform axis every fraction is exactly 0, 1/2 or 1.
    """
    if not 0 <= axis < grid.dim:
        raise ValueError(f"compartment axis {axis} outside 0..{grid.dim - 1}")
    if side not in ("lower", "upper"):
        raise ValueError(f"compartment side must be 'lower' or 'upper', got {side!r}")
    n = grid.cells[axis]
    below = np.clip(0.5 * n - np.arange(n), 0.0, 1.0)
    return below if side == "lower" else 1.0 - below


def build_support(
    grid: CartesianGrid,
    terminal_id: int,
    anchor,
    radii,
    kT0: float,
    radial_axes=None,
    compartment: tuple[int, str] | None = None,
    quad_order: int = 4,
) -> SupportRegion:
    """Evaluate the scaled transfer coefficient around a terminal anchor.

    The distance to the anchor is measured over ``radial_axes`` only
    (default: all axes), so a 4D grid can carry supports that are radial
    in space and constant through the extra axis.  ``compartment`` is an
    optional (axis, 'lower' | 'upper') pair confining the support to one
    side of that axis's midpoint; it enters as each cell's exact volume
    fraction on that side.

    The per-cell transfer coefficient is the average of kT(x) under
    `radial_cell_average` with the taper annulus [r0, r1] as its band:
    cells the kink circles r0 or r1 cut are refined adaptively towards
    the circles, to ``SUPPORT_SUBDIV_PLANAR`` finest sub-cells per axis
    for up to two radial axes and ``SUPPORT_SUBDIV_SPATIAL`` for more,
    and uncut cells in the annulus take a 6-point Gauss rule, so the
    coupling conductance the scheme sees is resolved well below
    discretization error.  With two radial axes the sharp cutoff
    (r0 == r1) uses exact disc overlaps instead.  The candidate cells
    are the box of cells within r1 of the anchor along every radial
    axis; the quadrature runs once per distinct radial cell and is
    broadcast along the other axes.  The stored scaled coefficient is
    the cellwise square root of the average; cells where it vanishes are
    excluded.  The support is truncated at the domain boundary without
    renormalization.
    """
    r0, r1 = radii
    anchor = np.asarray(anchor, dtype=float)
    axes = np.arange(grid.dim) if radial_axes is None else np.asarray(radial_axes)
    if anchor.shape != (axes.size,):
        raise ValueError(
            f"anchor has {anchor.size} coordinates for {axes.size} radial axes"
        )
    lo = grid.origin[axes]
    h = grid.spacing[axes]
    n = np.asarray(grid.cells)[axes]
    if np.any(anchor < lo) or np.any(anchor > lo + n * h):
        raise ValueError(f"anchor {anchor.tolist()} lies outside the grid")
    transfer_profile(0.0, r0, r1, kT0)  # validates the profile parameters

    # Candidate box: along each radial axis, the cells meeting
    # [anchor - r1, anchor + r1].  Axes are taken in grid order so the
    # box reshapes onto the grid.
    order = np.argsort(axes)
    axes, anchor, lo, h = axes[order], anchor[order], lo[order], h[order]
    first = np.maximum(np.ceil((anchor - r1 - lo) / h) - 1, 0).astype(np.int64)
    last = np.minimum(np.floor((anchor + r1 - lo) / h), n[order] - 1).astype(np.int64)
    box = [slice(None)] * grid.dim
    shape = [1] * grid.dim
    for a, i0, i1 in zip(axes, first, last):
        box[a] = slice(i0, i1 + 1)
        shape[a] = i1 - i0 + 1
    multi = np.indices(last - first + 1).reshape(axes.size, -1).T + first
    centers = lo + (multi + 0.5) * h

    if r0 == r1 and axes.size == 2:
        # sharp cutoff: quadrature of an indicator converges poorly, but
        # the disc-cell overlap has a closed form
        kt = kT0 * _disc_fractions(centers, h, anchor, r1)
    else:
        subdiv = SUPPORT_SUBDIV_PLANAR if axes.size <= 2 else SUPPORT_SUBDIV_SPATIAL
        kt = _box_average(
            centers,
            h,
            anchor,
            lambda r: transfer_profile(r, r0, r1, kT0),
            ((r0, r1),),
            quad_order,
            subdiv,
        )
    kt = kt.reshape(shape)
    if compartment is not None:
        axis, side = compartment
        frac = _compartment_fraction(grid, axis, side)[box[axis]]
        kt = kt * np.expand_dims(frac, [a for a in range(grid.dim) if a != axis])
    cells = grid.active_index[tuple(box)]
    kt = np.broadcast_to(kt, cells.shape)
    keep = (cells >= 0) & (kt > 0.0)
    if not np.any(keep):
        raise ValueError("empty support: transfer coefficient vanishes on all cells")
    # C order over the box keeps active indices ascending
    return SupportRegion(
        terminal_id=terminal_id, cell_idx=cells[keep], ks=np.sqrt(kt[keep])
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
