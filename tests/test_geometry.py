"""Forest validation, incidence structure, grids, and the support table."""

import collections
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate as si

from mdflow import geometry
from mdflow.geometry import (
    SUPPORT_SUBDIV_SPATIAL,
    CartesianGrid,
    TransferSpec,
    _ball_measure,
    _box_average,
    _taper_average,
    build_forest,
    build_support,
    dirichlet_root,
    forest_from_text,
    forest_to_text,
    incidence,
    index_dtype,
    interior,
    neumann_root,
    radial_cell_average,
    terminal,
    transfer_profile,
)
from mdflow.model import SOURCE_SUBDIV, CaseSpec, case1, case2, ring_profile

from oracles import (
    bfs_orientation,
    disc_box_area,
    face_arrays,
    first_transfer_failure,
    taper_cell_average,
    terminal_support,
)

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import forest_gen  # noqa: E402


def two_node_forest(k=1.0, value=0.0):
    return build_forest(
        [dirichlet_root(0, value), terminal(1, (0.0, 0.0))], [(0, 1, k)]
    )


def y_forest():
    nodes = [
        dirichlet_root(0, 0.0),
        interior(1),
        terminal(2, (0.25, 0.25)),
        terminal(3, (-0.25, -0.25)),
    ]
    return build_forest(nodes, [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)])


def random_forest_spec(rng, n_trees, max_extra):
    """Node and edge specs of a random valid forest, scrambled.

    Node ids are shuffled distinct integers (some negative), nodes are
    listed in random order, edges in random order and direction.
    """
    kinds, edges = [], []  # by position; edges root -> leaf here
    for _ in range(n_trees):
        root = len(kinds)
        kinds += ["root", "node"]
        members = [root + 1]
        edges.append((root, root + 1))
        for _ in range(rng.integers(0, max_extra + 1)):
            edges.append((int(rng.choice(members)), len(kinds)))
            members.append(len(kinds))
            kinds.append("node")
    degree = np.bincount(np.array(edges).ravel(), minlength=len(kinds))
    ids = (rng.permutation(4 * len(kinds))[: len(kinds)] - len(kinds)).tolist()
    nodes = []
    for pos, kind in enumerate(kinds):
        if kind == "root" and rng.uniform() < 0.5:
            nodes.append(dirichlet_root(ids[pos], float(rng.uniform())))
        elif kind == "root":
            nodes.append(neumann_root(ids[pos]))
        elif degree[pos] == 1:
            nodes.append(terminal(ids[pos], (0.0, 0.0)))
        else:
            nodes.append(interior(ids[pos]))
    specs = []
    for a, b in edges:
        a, b = (b, a) if rng.uniform() < 0.5 else (a, b)
        specs.append((ids[a], ids[b], float(rng.uniform(0.5, 2.0))))
    nodes = [nodes[i] for i in rng.permutation(len(nodes))]
    return nodes, [specs[i] for i in rng.permutation(len(specs))]


def brute_force_orientation(nodes, edges):
    """(oriented edges, tree_of) by repeated relaxation over the edge list."""
    ids = [n.id for n in nodes]
    label = {i: pos for pos, i in enumerate(ids)}  # smallest node position
    depth = {n.id: 0 if n.is_root else len(ids) for n in nodes}
    changed = True
    while changed:
        changed = False
        for a, b, _ in edges:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
            for u, v in ((a, b), (b, a)):
                if depth[u] + 1 < depth[v]:
                    depth[v] = depth[u] + 1
                    changed = True
    oriented = [(a, b, k) if depth[a] < depth[b] else (b, a, k) for a, b, k in edges]
    rank = {low: t for t, low in enumerate(sorted(set(label.values())))}
    return oriented, {i: rank[label[i]] for i in ids}


class TestBuildForest:
    def test_two_node_tree(self):
        f = two_node_forest()
        assert f.n_trees == 1
        assert len(f.edges) == 1
        assert (f.edges[0].tail, f.edges[0].head) == (0, 1)

    def test_y_tree(self):
        f = y_forest()
        assert f.n_trees == 1
        assert len(f.terminals) == 2
        assert all(f.tree_of[n.id] == 0 for n in f.nodes)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            build_forest(
                [dirichlet_root(0, 0.0), terminal(1, (0, 0))],
                [(0, 1, 1.0), (1, 0, 1.0)],
            )

    def test_two_roots_rejected(self):
        nodes = [dirichlet_root(0, 0.0), neumann_root(1), interior(2)]
        with pytest.raises(ValueError, match="multiple roots"):
            build_forest(nodes, [(0, 2, 1.0), (1, 2, 1.0)])

    def test_rootless_tree_rejected(self):
        with pytest.raises(ValueError, match="no root"):
            build_forest([interior(0), terminal(1, (0, 0))], [(0, 1, 1.0)])

    def test_terminal_degree_rejected(self):
        nodes = [dirichlet_root(0, 0.0), terminal(1, (0, 0)), terminal(2, (1, 1))]
        with pytest.raises(ValueError, match="degree"):
            build_forest(nodes, [(0, 1, 1.0), (1, 2, 1.0)])

    def test_nonpositive_conductivity(self):
        with pytest.raises(ValueError, match="conductivity"):
            build_forest(
                [dirichlet_root(0, 0.0), terminal(1, (0, 0))], [(0, 1, 0.0)]
            )

    def test_edges_reoriented_root_to_terminal(self):
        f = build_forest(
            [terminal(5, (0, 0)), dirichlet_root(7, 1.0)], [(5, 7, 2.0)]
        )
        e = f.edges[0]
        assert (e.tail, e.head) == (7, 5)
        assert e.k == 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_count_invariant(self, seed):
        # random forests: edges = nodes - trees, exactly
        rng = np.random.default_rng(seed)
        nodes, edges = [], []
        nid = 0
        for _ in range(rng.integers(1, 4)):
            root = nid
            nodes.append(neumann_root(root))
            nid += 1
            # the root gets exactly one child; further nodes attach to
            # any non-root member so root degree stays 1
            members = [nid]
            edges.append((root, nid, float(rng.uniform(0.5, 2.0))))
            nid += 1
            for _ in range(rng.integers(0, 5)):
                parent = int(rng.choice(members))
                edges.append((parent, nid, float(rng.uniform(0.5, 2.0))))
                members.append(nid)
                nid += 1
        degree = {n_id: 0 for n_id in range(nid)}
        for t, h, _ in edges:
            degree[t] += 1
            degree[h] += 1
        for i in range(nid):
            if any(n.id == i for n in nodes):
                continue
            nodes.append(terminal(i, (0.0, 0.0)) if degree[i] == 1 else interior(i))
        f = build_forest(nodes, edges)
        assert len(f.edges) == len(f.nodes) - f.n_trees

    @pytest.mark.parametrize(
        "seed,n_trees,max_extra", [(0, 1, 6), (1, 3, 8), (2, 7, 3), (3, 4096, 3)]
    )
    def test_matches_brute_force_orientation(self, seed, n_trees, max_extra):
        nodes, edges = random_forest_spec(
            np.random.default_rng(seed), n_trees, max_extra
        )
        oriented, tree_of = brute_force_orientation(nodes, edges)
        f = build_forest(nodes, edges)
        assert [(e.tail, e.head, e.k) for e in f.edges] == oriented
        assert f.tree_of == tree_of
        assert f.n_trees == n_trees

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scipys_breadth_first_order(self, seed):
        # a few hundred trees whose edges are all listed leaf to root, in
        # shuffled order
        rng = np.random.default_rng(seed)
        nodes, edges = random_forest_spec(rng, 300, 8)
        edges = [(h, t, k) for t, h, k in bfs_orientation(nodes, edges)[0]]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        oriented, tree_of = bfs_orientation(nodes, edges)
        assert all((t, h) == (e[1], e[0]) for (t, h, _), e in zip(oriented, edges))
        f = build_forest(nodes, edges)
        assert [(e.tail, e.head, e.k) for e in f.edges] == oriented
        assert f.tree_of == tree_of
        assert f.n_trees == 300

    def test_deep_chain_matches_scipys_breadth_first_order(self):
        # one walk level per node, the edges leaf to root and shuffled
        rng = np.random.default_rng(5)
        ids = rng.permutation(500).tolist()
        nodes = [neumann_root(ids[0])] + [interior(i) for i in ids[1:-1]]
        nodes.append(terminal(ids[-1], (0.0, 0.0)))
        edges = [(ids[j + 1], ids[j], 1.0) for j in rng.permutation(499)]
        oriented, tree_of = bfs_orientation(nodes, edges)
        f = build_forest(nodes, edges)
        assert [(e.tail, e.head, e.k) for e in f.edges] == oriented
        assert f.tree_of == tree_of

    def test_empty_forest(self):
        f = build_forest([], [])
        assert f.edges == () and f.tree_of == {} and f.n_trees == 0
        assert bfs_orientation([], []) == ([], {})


class TestIncidence:
    def test_two_node_matrix(self):
        inc = incidence(two_node_forest())
        assert inc.matrix.shape == (1, 1)
        assert inc.matrix.toarray().tolist() == [[-1.0]]

    def test_y_tree_matrix(self):
        inc = incidence(y_forest())
        M = inc.matrix.toarray()
        assert M.shape == (3, 3)
        # root edge row has a single -1; each other row has one +1, one -1
        assert sorted(M[0].tolist()) == [-1.0, 0.0, 0.0]
        for row in M[1:]:
            assert sorted(row.tolist()) == [-1.0, 0.0, 1.0]

    def test_neumann_rows_sum_to_zero(self):
        nodes = [
            neumann_root(0),
            interior(1),
            terminal(2, (0, 0)),
            terminal(3, (0, 0)),
        ]
        f = build_forest(nodes, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
        M = incidence(f).matrix.toarray()
        assert np.all(M.sum(axis=1) == 0.0)

    def test_all_ones_in_null_space_of_neumann_tree(self):
        nodes = [neumann_root(0), interior(1), terminal(2, (0, 0))]
        f = build_forest(nodes, [(0, 1, 1.0), (1, 2, 1.0)])
        inc = incidence(f)
        assert np.linalg.norm(inc.matrix @ np.ones(3)) == 0.0


class TestCartesianGrid:
    def test_volumes_and_areas(self):
        g = CartesianGrid((4, 2), extent=(2.0, 1.0))
        assert g.cell_volume == pytest.approx(0.25)
        assert np.allclose(g.face_area, [0.5, 0.5])
        assert g.n_faces == 3 * 2 + 4 * 1

    def test_active_mask_faces(self):
        mask = np.ones((2, 2), dtype=bool)
        mask[1, 1] = False
        g = CartesianGrid((2, 2), extent=(1, 1), mask=mask)
        assert g.n_cells == 3
        assert g.n_faces == 2  # only faces between active pairs remain

    def test_anisotropic_spacing(self):
        g = CartesianGrid((4, 4, 4, 2), extent=(1, 1, 1, 1))
        assert np.allclose(g.spacing, [0.25, 0.25, 0.25, 0.5])
        assert g.cell_volume == pytest.approx(0.25**3 * 0.5)

    @pytest.mark.parametrize("masked", [False, True])
    def test_index_arrays_are_narrow(self, masked):
        mask = np.ones((6, 5, 4), dtype=bool)
        if masked:
            mask[2:4, :, 1] = False
        g = CartesianGrid(mask.shape, extent=(1, 1, 1), mask=mask)
        assert g.active_index.dtype == np.int32
        for a in range(g.dim):
            lo, hi = g.faces(a)
            assert lo.dtype == hi.dtype == np.int32
        assert g.active_index[~mask].tolist() == [-1] * int((~mask).sum())
        assert g.active_index[mask].tolist() == list(range(g.n_cells))
        assert np.array_equal(g.cell_multi_index, np.argwhere(mask))

    @pytest.mark.parametrize("masked", [False, True])
    def test_faces_are_the_active_pairs_and_not_stored(self, masked):
        mask = np.ones((5, 4, 3), dtype=bool)
        if masked:
            mask[1:3, 2, :] = False
        g = CartesianGrid(mask.shape, extent=(1, 1, 1), mask=mask)
        state = dict(vars(g))
        lo, hi, axis = face_arrays(g)
        for a in range(g.dim):
            on = axis == a
            got = g.faces(a)
            assert got[0].size == g.face_counts[a] == np.count_nonzero(g.face_mask(a))
            assert np.array_equal(got[0], lo[on]) and np.array_equal(got[1], hi[on])
        # faces that are views of the numbering cannot write into it
        assert not g.active_index.flags.writeable
        assert vars(g).keys() == state.keys()

    @pytest.mark.parametrize("masked", [False, True])
    def test_spread_and_gather_move_values_between_bricks(self, masked):
        mask = np.ones((5, 4, 3), dtype=bool)
        if masked:
            mask[1:3, 1:3, 1] = False
            mask[0, 0, 0] = False
        g = CartesianGrid(mask.shape, extent=(1, 1, 1), mask=mask)
        x = np.arange(g.n_cells, dtype=float) + 1.0
        brick = g.spread(x, fill=-1.0)
        assert np.array_equal(brick[mask], x) and np.all(brick[~mask] == -1.0)
        assert np.array_equal(g.gather(brick), x)
        lo, hi, axis = face_arrays(g)
        for a in range(g.dim):
            # a face's drop is np.diff of the brick, its flux reaches its
            # cells as two slab adds
            drop = g.gather(np.diff(brick, axis=a), a)
            assert np.array_equal(drop, x[hi[axis == a]] - x[lo[axis == a]])
            q = np.arange(g.face_counts[a], dtype=float) + 1.0
            cells = np.zeros(g.cells)
            lower, upper = g.sides(cells, a)
            upper += g.spread(q, a)
            lower -= g.spread(q, a)
            want = np.zeros(g.n_cells)
            np.add.at(want, hi[axis == a], q)
            np.subtract.at(want, lo[axis == a], q)
            assert np.array_equal(g.gather(cells), want)
            assert np.all(cells[~mask] == 0.0)

    def test_index_dtype_widens_past_int32(self):
        # decided on the count alone: nothing of that size is allocated
        limit = 2**31 - 1
        assert index_dtype(0) == index_dtype(limit) == np.int32
        assert index_dtype(limit + 1) == index_dtype(4096**3) == np.int64

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            CartesianGrid((4,), extent=(1.0,))

    @pytest.mark.parametrize("extent", [(1.0, 1e308), (1e154, 1e154), (1.0, 1e200)])
    def test_extent_whose_squares_overflow_rejected(self, extent):
        # distances across the grid are summed from their squares
        with pytest.raises(ValueError, match="is too large: squared distances overflow"):
            CartesianGrid((8, 8), extent=extent)
        CartesianGrid((8, 8), extent=(1.0, 1e150))


class TestTransferProfile:
    def test_inner_plateau_and_cutoff(self):
        kt = transfer_profile(np.array([0.0, 0.05, 0.1, 0.25]), 0.1, 0.2, 1.0)
        assert np.allclose(kt[:3], 1.0)
        assert kt[3] == 0.0

    def test_continuity_at_r0(self):
        lo = transfer_profile(0.1 - 1e-12, 0.1, 0.2, 1.0)
        hi = transfer_profile(0.1 + 1e-12, 0.1, 0.2, 1.0)
        assert lo == pytest.approx(hi, abs=1e-9)

    def test_taper_value(self):
        # r0=0.1, r1=0.2, kT0=1 at r=0.15: (1/3)(0.04-0.0225)/0.0225
        val = transfer_profile(0.15, 0.1, 0.2, 1.0)
        assert val == pytest.approx(0.0175 / 3 / 0.0225, rel=1e-14)
        assert val == pytest.approx(0.25925925925925924, rel=1e-12)

    def test_heaviside_variant(self):
        kt = transfer_profile(np.array([0.19, 0.2, 0.2000001]), 0.2, 0.2, 1.0)
        assert kt.tolist() == [1.0, 1.0, 0.0]

    @pytest.mark.parametrize("r1", [np.nextafter(0.1, 1.0), 0.1 + 1e-14, 0.1 + 1e-12])
    def test_taper_too_narrow_for_float64_rejected(self, r1):
        # r1^2 - r0^2 keeps too few digits: the taper's mass would come out
        # wrong (0.99956x the sharp cutoff's at r0 + 1e-14 on case 1A at
        # 1/h = 8), or its support empty one ulp above r0
        message = f"taper r0 = 0.1, r1 = {r1} is too narrow.*use r1 = r0"
        with pytest.raises(ValueError, match=message):
            transfer_profile(0.15, 0.1, r1, 1.0)
        grid = CartesianGrid((8, 8), extent=(1, 1), origin=(-0.5, -0.5))
        with pytest.raises(ValueError, match=message):
            one_support(grid, 1, (0.0, 0.0), (0.1, r1), 1.0)

    def test_narrowest_accepted_taper_keeps_the_sharp_mass(self):
        grid = CartesianGrid((8, 8), extent=(1, 1), origin=(-0.5, -0.5))
        sharp = one_support(grid, 1, (0.0, 0.0), (0.1, 0.1), 1.0).ks.sum()
        narrow = one_support(grid, 1, (0.0, 0.0), (0.1, 0.1 * (1 + 1.2e-8)), 1.0)
        assert narrow.ks.sum() == pytest.approx(sharp, rel=1e-7)


def one_support(grid, terminal_id, anchor, radii, kT0, **kwargs):
    """The support table of a single transfer."""
    transfer = TransferSpec(terminal_id, anchor, *radii, kT0, **kwargs)
    return build_support(grid, [transfer])


class TestBuildSupport:
    def grid(self, m=16):
        return CartesianGrid((m, m), extent=(1, 1), origin=(-0.5, -0.5))

    def test_heaviside_interior_cells_equal_kT0(self):
        g = self.grid()
        sup = one_support(g, 1, (0.0, 0.0), (0.2, 0.2), 3.0)
        centers = g.cell_centers()[sup.cell_idx]
        r = np.linalg.norm(centers, axis=1)
        inside = r <= 0.2 - g.spacing[0]  # fully covered cells
        assert np.allclose(sup.ks[inside] ** 2, 3.0)

    def test_taper_continuity_at_r0(self):
        kt = transfer_profile(np.array([0.1 - 1e-9, 0.1 + 1e-9]), 0.1, 0.2, 1.0)
        assert kt[0] == pytest.approx(kt[1], abs=1e-6)

    def test_empty_support_raises(self):
        # the support box around the anchor is the inactive corner
        mask = np.ones((4, 4), dtype=bool)
        mask[:2, :2] = False
        g = CartesianGrid((4, 4), extent=(1, 1), origin=(-0.5, -0.5), mask=mask)
        with pytest.raises(ValueError, match="empty support for terminal 7"):
            one_support(g, 7, (-0.3, -0.3), (0.1, 0.2), 1.0)

    def test_anchor_outside_raises(self):
        with pytest.raises(ValueError, match="outside"):
            one_support(self.grid(), 1, (2.0, 0.0), (0.1, 0.2), 1.0)

    @pytest.mark.parametrize("axes", [(5,), (0, 0), (-1,), ()])
    def test_bad_radial_axes(self, axes):
        anchor = (0.0,) * len(axes)
        with pytest.raises(ValueError, match=r"radial_axes .* distinct axes in 0\.\.1"):
            one_support(self.grid(), 1, anchor, (0.1, 0.2), 1.0, radial_axes=axes)

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            one_support(self.grid(), 1, (0.0, 0.0), (0.3, 0.2), 1.0)

    def test_integral_converges_to_analytic(self):
        # closed form of the scaled-coefficient mass for the taper profile
        r0, r1, kT0 = 0.1, 0.2, 1.0
        a0 = np.sqrt(r0**2 / (r1**2 - r0**2))
        inner = np.pi * r0**2
        outer = (
            2 * np.pi * a0
            * si.quad(lambda r: np.sqrt(r1**2 - r**2), r0, r1)[0]
        )
        exact = np.sqrt(kT0) * (inner + outer)
        errs = []
        for m in (16, 32, 64):
            g = self.grid(m)
            sup = one_support(g, 1, (0.0, 0.0), (r0, r1), kT0)
            errs.append(abs(sup.ks.sum() * g.cell_volume - exact))
        rate = np.log2(errs[0] / errs[-1]) / 2
        assert rate >= 1.0

    def test_truncation_at_boundary(self):
        # anchor near the wall: support clipped, integral still positive
        g = self.grid(16)
        sup = one_support(g, 1, (0.45, 0.0), (0.1, 0.2), 1.0)
        assert sup.ks.sum() * g.cell_volume > 0
        centers = g.cell_centers()[sup.cell_idx]
        assert centers[:, 0].max() < 0.5


class TestSupportCandidates:
    @staticmethod
    def check_against_brute_force(grid, t):
        """The support equals the cell averages evaluated at every cell.

        The brute force evaluates `taper_cell_average` (one or two radial
        axes) or `radial_cell_average`'s rule (three) over all cells, with no
        candidate box and no sharing of radial cells, and applies the
        compartment by cell centre.  Its nonzero cells also all meet the
        open ball of radius r1.
        """
        axes = list(range(grid.dim) if t.radial_axes is None else t.radial_axes)
        sup = build_support(grid, [t])
        every = np.arange(grid.n_cells)
        centers = grid.cell_centers()
        if len(axes) <= 2:
            kt = taper_cell_average(grid, every, t.anchor, axes, (t.r0, t.r1), t.kT0)
        else:
            kt = _box_average(
                centers[:, axes] - np.asarray(t.anchor), grid.spacing[axes],
                lambda r: transfer_profile(r, t.r0, t.r1, t.kT0),
                ((t.r0, t.r1),), SUPPORT_SUBDIV_SPATIAL,
            )
        if t.compartment is not None:
            axis, side = t.compartment
            x = centers[:, axis]
            kt[(x > 0.5) if side == "lower" else (x < 0.5)] = 0.0
        expected = np.flatnonzero(kt > 0)
        assert np.array_equal(sup.cell_idx, expected)
        assert np.allclose(sup.ks**2, kt[expected], rtol=1e-13, atol=0.0)
        delta = np.abs(centers[expected][:, axes] - np.asarray(t.anchor))
        nearest = np.maximum(delta - 0.5 * grid.spacing[axes], 0.0)
        assert np.all(np.sqrt((nearest**2).sum(axis=1)) < t.r1)

    @pytest.mark.parametrize("m", [16, 64])
    def test_case1a_matches_brute_force(self, m):
        spec = case1("A")
        self.check_against_brute_force(spec.grid(m), spec.transfers[0])

    def test_case2_matches_brute_force(self):
        spec = case2()
        grid = spec.grid(8)
        for t in spec.transfers:
            self.check_against_brute_force(grid, t)

    @pytest.mark.parametrize("side, layers", [("lower", (1.0, 0.5)), ("upper", (0.5, 1.0))])
    def test_compartment_straddling_cell_gets_half(self, side, layers):
        # three cells along the compartment axis: its midpoint is the
        # centre of the middle cell, which lies half in each compartment
        grid = CartesianGrid((8, 8, 3), extent=(1.0, 1.0, 1.0))
        sup = one_support(
            grid, 1, (0.5, 0.5), (0.1, 0.2), 1.0,
            radial_axes=(0, 1), compartment=(2, side),
        )
        layer = grid.cell_multi_index[sup.cell_idx, 2]
        kept = (0, 1) if side == "lower" else (1, 2)
        assert set(layer.tolist()) == set(kept)
        kt = {k: sup.ks[layer == k] ** 2 for k in kept}
        full = kt[kept[layers.index(1.0)]]
        half = kt[kept[layers.index(0.5)]]
        assert np.allclose(half, 0.5 * full, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "compartment, match",
        [
            ((2, "middle"), "compartment side"),
            ((3, "lower"), "compartment axis"),
            ((2.0, "lower"), r"compartment axis 2\.0 is not an integer"),
        ],
    )
    def test_bad_compartment(self, compartment, match):
        grid = CartesianGrid((8, 8, 2), extent=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=match):
            one_support(
                grid, 1, (0.5, 0.5), (0.1, 0.2), 1.0,
                radial_axes=(0, 1), compartment=compartment,
            )


def star_case(cells, transfers, terminal_order):
    """A case whose terminals hang from one Dirichlet tree in `terminal_order`."""
    anchors = {t.terminal_id: t.anchor for t in transfers}
    nodes = [dirichlet_root(0, 0.0), interior(1000)]
    nodes += [terminal(tid, anchors[tid]) for tid in terminal_order]
    edges = [(0, 1000, 1.0)] + [(1000, tid, 1.0) for tid in terminal_order]
    dim = len(cells)
    return CaseSpec(
        name="star", dim=dim, origin=(0.0,) * dim, extent=(1.0,) * dim,
        refine_axes=(False,) * dim, fixed_cells=cells,
        forest=build_forest(nodes, edges), kD=(1.0,) * dim,
        transfers=tuple(transfers), source=None,
    )


def masked_support_case():
    """Planar supports on a 3D grid with an inactive slab and compartments.

    One group shares radial axes (0, 1), given in either order, and its
    transfers confine themselves to either compartment or to neither.
    """
    c = lambda tid, anchor, comp, axes=(0, 1): TransferSpec(
        tid, anchor, 0.06, 0.12, 1.3, radial_axes=axes, compartment=comp
    )
    transfers = [
        c(4, (0.55, 0.3), (2, "lower")),
        c(2, (0.31, 0.62), None),
        c(9, (0.8, 0.58), (2, "upper"), axes=(1, 0)),
        c(5, (0.04, 0.97), (2, "lower")),
    ]
    spec = star_case((24, 24, 3), transfers, (2, 4, 5, 9))
    mask = np.ones((24, 24, 3), dtype=bool)
    mask[12:15, :, 1:] = False
    grid = CartesianGrid(spec.fixed_cells, extent=spec.extent, mask=mask)
    return spec, grid


def custom_support_case():
    """Two radius groups interleaved, plus supports radial along one axis."""
    transfers = [
        TransferSpec(1, (0.5, 0.5), 0.05, 0.1),
        TransferSpec(2, (0.03, 0.41), 0.03, 0.07, 2.0),
        TransferSpec(3, (0.97, 0.99), 0.05, 0.1),
        TransferSpec(4, (0.2131,), 0.02, 0.06, radial_axes=(0,)),
        TransferSpec(5, (0.77, 0.12), 0.03, 0.07, 2.0),
        TransferSpec(6, (0.6, 0.58), 0.05, 0.1),
        TransferSpec(7, (0.905,), 0.02, 0.06, radial_axes=(1,)),
    ]
    spec = star_case((64, 48), transfers, (3, 7, 1, 5, 2, 6, 4))
    return spec, spec.grid(0)


SUPPORT_CASES = {
    **{
        f"w3_k{k}_seed{seed}_m{m}": (
            lambda k=k, seed=seed, m=m: (forest_gen.forest_case(k, seed), m)
        )
        for k in (6, 8) for seed in (0, 1) for m in (128, 32)
    },
    "case1b_m64": lambda: (case1("B"), 64),
    "case2_m8": lambda: (case2(), 8),
    "masked": masked_support_case,
    "custom": custom_support_case,
}


class TestSupportTable:
    @staticmethod
    def profile_group(grid, t):
        axes = range(grid.dim) if t.radial_axes is None else t.radial_axes
        return tuple(sorted(axes)), t.r0, t.r1, t.kT0

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_matches_per_terminal_oracle(self, case):
        spec, grid = SUPPORT_CASES[case]()
        if isinstance(grid, int):
            grid = spec.grid(grid)
        table = spec.coefficients(grid).supports
        assert table.terminal_ids == tuple(t.terminal_id for t in spec.transfers)
        assert np.all(np.diff(table.terminal) >= 0)
        groups = collections.Counter(self.profile_group(grid, t) for t in spec.transfers)
        for j, t in enumerate(spec.transfers):
            cells, ks = terminal_support(grid, t)
            rows = table.terminal == j
            assert np.array_equal(table.cell_idx[rows], cells)
            assert np.allclose(table.ks[rows], ks, rtol=1e-15, atol=0.0)
            axes, *_ = key = self.profile_group(grid, t)
            if groups[key] == 1 or len(axes) >= 3:
                assert np.array_equal(table.ks[rows], ks)

    def test_transfer_order_kept(self):
        spec, grid = custom_support_case()
        table = spec.coefficients(grid).supports
        assert table.terminal_ids == tuple(t.terminal_id for t in spec.transfers)
        assert table.terminal_ids != tuple(n.id for n in spec.forest.terminals)
        assert np.all(np.diff(table.terminal) >= 0)

    def test_no_transfers(self):
        table = build_support(CartesianGrid((4, 4), extent=(1, 1)), ())
        assert table.terminal_ids == ()
        assert table.cell_idx.size == table.ks.size == table.terminal.size == 0

    @staticmethod
    def masked_grid():
        mask = np.ones((4, 4), dtype=bool)
        mask[:2, :2] = False
        return CartesianGrid((4, 4), extent=(1, 1), origin=(-0.5, -0.5), mask=mask)

    def test_empty_support_of_second_terminal(self):
        transfers = [
            TransferSpec(3, (0.3, 0.3), 0.1, 0.2),
            TransferSpec(7, (-0.3, -0.3), 0.1, 0.2),
            TransferSpec(9, (0.3, -0.3), 0.1, 0.2),
        ]
        with pytest.raises(ValueError, match="empty support for terminal 7"):
            build_support(self.masked_grid(), transfers)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(radial_axes=(0, 0)), r"radial_axes \(0, 0\) must be distinct axes"),
            (dict(anchor=(0.3, 0.3, 0.3)), "anchor has 3 coordinates for 2 radial"),
            (dict(anchor=(0.3, 0.7)), "lies outside the grid"),
            (dict(r0=0.3), "need 0 < r0 <= r1"),
            (dict(kT0=0.0), "need kT0 > 0"),
            (dict(compartment=(2, "lower")), "compartment axis 2 outside 0..1"),
        ],
    )
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_first_offending_transfer_raises(self, bad, match, bad_first):
        fields = dict(terminal_id=5, anchor=(0.3, 0.3), r0=0.1, r1=0.2)
        invalid = TransferSpec(**{**fields, **bad})
        empty = TransferSpec(7, (-0.3, -0.3), 0.1, 0.2)
        later = [invalid, empty] if bad_first else [empty, invalid]
        transfers = [TransferSpec(3, (0.3, -0.3), 0.1, 0.2), *later]
        if not bad_first:
            match = "empty support for terminal 7"
        with pytest.raises(ValueError, match=match):
            build_support(self.masked_grid(), transfers)

    @staticmethod
    def many_transfers():
        """1,000 valid transfers on an 8x8x2 grid whose lower-left quarter is inactive.

        Their radial axes are (0, 1) or (1, 0), they take two profiles,
        and their compartments are None, a tuple or a list.
        """
        mask = np.ones((8, 8, 2), dtype=bool)
        mask[:4, :4] = False
        grid = CartesianGrid((8, 8, 2), extent=(1, 1, 1), origin=(-0.5, -0.5, 0.0), mask=mask)
        rng = np.random.default_rng(0)
        anchors = np.column_stack([rng.uniform(0.05, 0.45, 1000), rng.uniform(-0.45, 0.45, 1000)])
        transfers = []
        for j, (x, y) in enumerate(anchors.tolist()):
            axes = (0, 1) if j % 3 else (1, 0)
            transfers.append(TransferSpec(
                j, (x, y) if axes == (0, 1) else (y, x),
                *((0.1, 0.2) if j % 2 else (0.05, 0.15)),
                radial_axes=axes, compartment=(None, (2, "lower"), [2, "upper"])[j % 5 % 3],
            ))
        return grid, transfers

    @pytest.mark.parametrize(
        "bad",
        [
            dict(radial_axes=(0, 0)),
            dict(radial_axes=(0.0, 1.0)),  # equals (0, 1), but not integers
            dict(anchor=(0.3, 0.3, 0.3)),
            dict(anchor=(0.3, 0.7)),
            dict(anchor=(0.3, float("nan"))),
            dict(anchor=((0.3,), 0.2)),
            dict(r0=0.3),
            dict(kT0=0.0),
            dict(r1=0.1 * (1 + 1e-12)),
            dict(compartment=(3, "lower")),
            dict(compartment=(2, "middle")),
            dict(compartment=(2,)),
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    @pytest.mark.parametrize("empty_before", [False, True])
    def test_one_pass_names_the_offender_of_the_per_transfer_checks(self, bad, empty_before):
        # one bad entry at 537, and later ones of the axes and profile checks; an
        # empty support earlier is reported first
        grid, transfers = self.many_transfers()
        transfers[537] = replace(transfers[537], **{**dict(r0=0.1, r1=0.2), **bad})
        transfers[700] = replace(transfers[700], r0=0.4, radial_axes=(0, 1))
        transfers[900] = replace(transfers[900], radial_axes=(5,))
        if empty_before:
            transfers[100] = replace(transfers[100], anchor=(-0.3, -0.3), radial_axes=(0, 1))
        empty, message = first_transfer_failure(grid, transfers)
        assert message is not None and (empty is not None) == empty_before
        if empty_before:
            message = f"empty support for terminal {empty}: "
        with pytest.raises(ValueError) as info:
            build_support(grid, transfers)
        assert str(info.value).startswith(message)

    def test_one_pass_accepts_valid_transfers(self):
        grid, transfers = self.many_transfers()
        assert first_transfer_failure(grid, transfers) == (None, None)
        table = build_support(grid, transfers)
        assert np.array_equal(np.unique(table.terminal), np.arange(1000))

    # replacements that make a transfer of `many_transfers` invalid, empty or
    # (the numeric strings and equal axes given in the other order) neither;
    # one transfer may take several, to test the order of the checks
    OFFENDERS = [
        dict(radial_axes=(0.0, 1.0)),
        dict(radial_axes=(5,)),
        dict(radial_axes=(0, 0)),
        dict(radial_axes=(1, 0), anchor=(0.2, 0.3)),
        dict(anchor=(0.3, float("nan"))),
        dict(anchor=(0.3, 0.7)),
        dict(anchor=(0.3, 0.3, 0.3)),
        dict(anchor=((0.5,), 0.5)),
        dict(anchor=("a", "0.3")),
        dict(anchor=("0.3", "0.2")),
        dict(r0=0.3),
        dict(kT0=0.0),
        dict(r1=float("nan")),
        dict(r0=0.1, r1=0.1 * (1 + 1e-12)),
        dict(compartment=None),
        dict(compartment=(2, "lower")),
        dict(compartment=[2, "upper"]),
        dict(compartment=(3, "lower")),
        dict(compartment=(2,)),
        dict(anchor=(-0.3, -0.3), radial_axes=(0, 1)),  # an empty support
    ]

    def test_one_pass_matches_the_per_transfer_checks_on_random_lists(self):
        grid, transfers = self.many_transfers()
        rng = np.random.default_rng(1)
        for _ in range(300):
            picked = [transfers[j] for j in rng.choice(1000, size=12, replace=False)]
            for j in rng.integers(12, size=rng.integers(0, 5)):
                picked[j] = replace(picked[j], **self.OFFENDERS[rng.integers(len(self.OFFENDERS))])
            empty, message = first_transfer_failure(grid, picked)
            if empty is None and message is None:
                table = build_support(grid, picked)
                assert table.terminal_ids == tuple(t.terminal_id for t in picked)
                continue
            with pytest.raises(ValueError) as info:
                build_support(grid, picked)
            if empty is None:
                assert str(info.value) == message
            else:
                assert str(info.value).startswith(f"empty support for terminal {empty}: ")

    def test_one_pass_checks_each_distinct_value_once(self, monkeypatch):
        # two radial_axes values, two profiles and three compartment values
        # (None, a tuple and a list), and no anchor checked one at a time
        grid, transfers = self.many_transfers()
        calls = collections.defaultdict(list)

        def spy(name, check):
            def counted(*args):
                calls[name].append(args)
                return check(*args)
            return counted

        for name in ("_radial_axes", "_check_profile", "_compartment", "_anchor"):
            monkeypatch.setattr(geometry, name, spy(name, getattr(geometry, name)))
        *_, failure = geometry._checked_transfers(grid, transfers)
        assert failure is None
        keys = {
            "_radial_axes": [repr(axes) for _, axes in calls["_radial_axes"]],
            "_check_profile": calls["_check_profile"],
            "_compartment": [repr(c) for _, c in calls["_compartment"]],
        }
        assert sorted(keys["_radial_axes"]) == ["(0, 1)", "(1, 0)"]
        assert sorted(keys["_check_profile"]) == [(0.05, 0.15, 1.0), (0.1, 0.2, 1.0)]
        assert sorted(keys["_compartment"]) == ["(2, 'lower')", "None", "[2, 'upper']"]
        assert not calls["_anchor"]


class TestMirrorClasses:
    """Averages are functions of a box's mirror class, evaluated once per class.

    Boxes whose centres reflect into each other about the anchor, along
    any axes, get the same bits, and evaluating one box per class gives
    the kernel's values on every box, to rounding.  The forest's supports,
    where no box has a mirror, are checked against `terminal_support` in
    `TestSupportTable`.
    """

    @staticmethod
    def flipped(rng, rel):
        return rel * rng.choice([-1.0, 1.0], size=rel.shape)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("radii", [(0.1, 0.2), (0.15, 0.15)], ids=["taper", "sharp"])
    def test_taper_average_of_reflected_boxes(self, dim, radii):
        rng = np.random.default_rng(dim)
        width = rng.uniform(0.01, 0.05, dim)
        rel = rng.uniform(-0.25, 0.25, (3000, dim))
        kt = _taper_average(rel, width, *radii, 1.3)
        assert np.array_equal(_taper_average(self.flipped(rng, rel), width, *radii, 1.3), kt)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_box_average_of_reflected_boxes(self, dim):
        rng = np.random.default_rng(dim)
        width = rng.uniform(0.02, 0.05, dim)
        rel = rng.uniform(-0.3, 0.3, (800, dim))
        for func, breaks in [
            (lambda r: transfer_profile(r, 0.1, 0.2, 1.3), ((0.1, 0.2),)),
            (lambda r: ring_profile(r, 1.0, 0.15, 0.25), (0.15, 0.25)),
        ]:
            avg = _box_average(rel, width, func, breaks, 4)
            assert np.array_equal(_box_average(self.flipped(rng, rel), width, func, breaks, 4), avg)

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("m", [16, 64, 256])
    def test_case1_fields_are_mirror_symmetric(self, variant, m):
        # the grid and the anchor are symmetric in x and in y, so rD and
        # ks are too, to the bit
        spec = case1(variant)
        grid = spec.grid(m)
        coeffs = spec.coefficients(grid)
        ks = np.zeros(grid.n_cells)
        ks[coeffs.supports.cell_idx] = coeffs.supports.ks
        for field in (coeffs.rD, ks):
            brick = grid.spread(field)
            for axis in (0, 1):
                assert np.array_equal(np.flip(brick, axis), brick)

    @pytest.mark.parametrize("m", [16, 64, 256, 1024])
    def test_ring_source_equals_the_rule_on_every_cell(self, m):
        # to rounding only: OpenBLAS rounds the last (rows mod 4) rows of a
        # matrix-vector product in another order, and a class's
        # representative sits at another row of the batch than in the
        # whole grid (13 cells of 1,048,576 differ by an ulp at 1/h = 1024)
        spec = case1("A")
        grid, s = spec.grid(m), spec.source
        func = lambda r: ring_profile(r, s.rD0, s.r2, s.r3)
        every = _box_average(
            grid.cell_centers() - np.asarray(s.center), grid.spacing, func,
            (s.r2, s.r3), SOURCE_SUBDIV,
        )
        rD = radial_cell_average(grid, s.center, func, (s.r2, s.r3), SOURCE_SUBDIV)
        assert np.allclose(rD, every, rtol=1e-15, atol=0.0)

    @staticmethod
    def one_axis_case():
        """Supports radial along x, anchored on a face and on a cell centre."""
        transfers = [
            TransferSpec(1, (0.5,), 0.05, 0.15, radial_axes=(0,)),
            TransferSpec(2, (16.5 / 32,), 0.05, 0.15, radial_axes=(0,)),
        ]
        return star_case((32, 8), transfers, (1, 2))

    @pytest.mark.parametrize(
        "case", ["case1a_m16", "case1a_m64", "case1a_m256", "case1a_m1024", "case2_m8", "one_axis_m0"]
    )
    def test_support_equals_the_kernel_on_every_box(self, case):
        # `terminal_support` applies the kernel to every box of one
        # terminal's candidate box; the cells agree exactly and ks to
        # rounding, for the batch-position reason above (case 1A: 1 cell
        # of 8,452 at 1/h = 256 and 6 of 132,572 at 1024 differ by an ulp)
        name, m = case.split("_m")
        spec = {"case1a": lambda: case1("A"), "case2": case2, "one_axis": self.one_axis_case}
        spec = spec[name]()
        grid = spec.grid(int(m))
        table = build_support(grid, spec.transfers)
        for j, t in enumerate(spec.transfers):
            cells, ks = terminal_support(grid, t)
            rows = table.terminal == j
            assert np.array_equal(table.cell_idx[rows], cells)
            assert np.allclose(table.ks[rows], ks, rtol=1e-15, atol=0.0)


def _taper(r, r0, r1, kT0):
    """transfer_profile at one radius, written out independently."""
    if r <= r0:
        return kT0
    return kT0 * r0**2 / (r1**2 - r0**2) * (r1**2 - r**2) / r**2 if r <= r1 else 0.0


def _circle_cuts(radii, c, lo, hi):
    """Where the circles of `radii` about 0 meet the line through c, in (lo, hi)."""
    cuts = (s * np.sqrt(R * R - c * c) for R in radii if abs(c) < R for s in (-1, 1))
    return sorted(x for x in cuts if lo < x < hi)


def _reference_average(box, anchor, r0, r1, kT0):
    """Cell average of the taper profile by nested adaptive quadrature."""
    (x0, x1), (y0, y1) = (np.asarray(box) - np.asarray(anchor)[:, None]).tolist()
    radii = (r0, r1)
    tol = dict(epsabs=1e-14 * kT0 * (y1 - y0), epsrel=1e-13, limit=200)

    def column(x):
        f = lambda y: _taper(np.hypot(x, y), r0, r1, kT0)
        cuts = _circle_cuts(radii, x, y0, y1)
        return si.quad(f, y0, y1, points=cuts or None, **tol)[0]

    kinks = {x for y in (y0, y1) for x in _circle_cuts(radii, y, x0, x1)}
    kinks |= {x for R in radii for x in (-R, R) if x0 < x < x1}
    total = si.quad(column, x0, x1, points=sorted(kinks) or None, **tol)[0]
    return total / ((x1 - x0) * (y1 - y0))


def _taper_mass_2d(r0, r1, kT0):
    a0sq = r0**2 / (r1**2 - r0**2)
    return kT0 * np.pi * r0**2 + 2 * np.pi * kT0 * a0sq * (
        r1**2 * np.log(r1 / r0) - (r1**2 - r0**2) / 2
    )


class TestTaperCellAverage:
    """Exact-in-r cell averages of the taper profile over planar supports."""

    @pytest.mark.parametrize(
        "cells, extent, origin, anchor, radii",
        [
            ((128, 128), (1.0, 1.0), (0.0, 0.0), (0.3312, 0.5871), (0.01, 0.02)),
            ((64, 64), (1.0, 1.0), (-0.5, -0.5), (0.0, 0.0), (0.1, 0.2)),  # case 1A
            ((96, 40), (1.0, 1.0), (0.0, 0.0), (0.4713, 0.5189), (0.1, 0.2)),
        ],
    )
    def test_total_mass_matches_closed_form(self, cells, extent, origin, anchor, radii):
        kT0 = 2.5
        g = CartesianGrid(cells, extent=extent, origin=origin)
        sup = one_support(g, 1, anchor, radii, kT0)
        mass = (sup.ks**2).sum() * g.cell_volume
        assert mass == pytest.approx(_taper_mass_2d(*radii, kT0), rel=1e-11, abs=0.0)

    def test_one_radial_axis_mass_matches_closed_form(self):
        r0, r1, kT0 = 0.05, 0.15, 1.7
        g = CartesianGrid((200, 3), extent=(1.0, 0.3))
        sup = one_support(g, 1, (0.4813,), (r0, r1), kT0, radial_axes=(0,))
        a0sq = r0**2 / (r1**2 - r0**2)
        exact = 2 * kT0 * (r0 + a0sq * (r1**2 * (1 / r0 - 1 / r1) - (r1 - r0)))
        mass = (sup.ks**2).sum() * g.cell_volume / 0.3
        assert mass == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "cells, anchor, radii, pick",
        [
            # a support a few cells wide (r1/h = 2.6): the anchor cell and
            # its neighbours
            ((128, 128), (0.3312, 0.5871), (0.01, 0.02), "near"),
            # anchor 1e-7 from a cell edge, r1 = 30 r0
            ((64, 64), (0.5 + 1e-7, 0.4977), (0.01, 0.3), "near"),
            # non-square cells, hy = 2.7 hx
            ((128, 48), (0.3312, 0.5871), (0.01, 0.03), "near"),
            # case 1A's support at 1/h = 512: cells at r/h >= 50, cut by r0,
            # by r1 or by neither
            ((512, 512), (0.5, 0.5), (0.1, 0.2), "far"),
        ],
    )
    def test_cells_match_independent_reference(self, cells, anchor, radii, pick):
        kT0 = 1.3
        g = CartesianGrid(cells, extent=(1.0, 1.0))
        centers = g.cell_centers()
        dist = np.linalg.norm(centers - anchor, axis=1)
        if pick == "near":
            chosen = np.argsort(dist)[:9]
        else:
            h = g.spacing[0]
            radii_at = (0.1, 0.1 + h / 3, 0.15, 0.2, 0.2 - h / 3)
            chosen = [np.argmin(np.abs(dist - r)) for r in radii_at]
            assert np.all(dist[chosen] >= 50 * h)
        got = taper_cell_average(g, chosen, anchor, (0, 1), radii, kT0)
        half = 0.5 * g.spacing
        for value, c in zip(got, centers[chosen]):
            box = np.stack([c - half, c + half], axis=1)
            ref = _reference_average(box, anchor, *radii, kT0)
            assert abs(value - ref) <= 1e-9 * kT0

    def test_sharp_cutoff_matches_exact_overlap(self):
        # case 1B at 1/h = 128 against the disc overlap by adaptive quadrature
        spec = case1("B")
        g = spec.grid(128)
        (t,) = spec.transfers
        sup = spec.coefficients(g).supports
        R, half = t.r1, 0.5 * g.spacing
        for value, c in zip(sup.ks**2, g.cell_centers()[sup.cell_idx]):
            (x0, y0), (x1, y1) = c - half, c + half
            chord = lambda x: max(
                0.0, min(y1, np.sqrt(max(R * R - x * x, 0.0)))
                - max(y0, -np.sqrt(max(R * R - x * x, 0.0)))
            )
            kinks = {x for y in (y0, y1) for x in _circle_cuts((R,), y, x0, x1)}
            kinks |= {x for x in (-R, R) if x0 < x < x1}
            area = si.quad(chord, x0, x1, points=sorted(kinks) or None,
                           epsabs=1e-16, epsrel=1e-14, limit=200)[0]
            assert abs(value - t.kT0 * area / g.cell_volume) <= 1e-12 * t.kT0

    def test_memory_bounded(self):
        spec = case1("A")
        g = spec.grid(1024)
        (t,) = spec.transfers
        tracemalloc.start()
        try:
            sup = one_support(g, 1, t.anchor, (t.r0, t.r1), t.kT0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sup.cell_idx.size > 130_000
        assert peak < 32 * 2**20


class TestDiscOverlap:
    def test_full_and_empty_cells(self):
        g = CartesianGrid((8, 8), extent=(1, 1), origin=(-0.5, -0.5))
        cells = np.arange(g.n_cells)
        frac = taper_cell_average(g, cells, (0.0, 0.0), (0, 1), (0.3, 0.3), 1.0)
        centers = g.cell_centers()
        r = np.linalg.norm(centers, axis=1)
        assert np.allclose(frac[r < 0.3 - 0.1], 1.0)
        assert np.allclose(frac[r > 0.3 + 0.1], 0.0)

    def test_total_area(self):
        g = CartesianGrid((64, 64), extent=(1, 1), origin=(-0.5, -0.5))
        cells = np.arange(g.n_cells)
        frac = taper_cell_average(g, cells, (0.013, -0.007), (0, 1), (0.2, 0.2), 1.0)
        area = frac.sum() * g.cell_volume
        assert area == pytest.approx(np.pi * 0.04, rel=1e-12)


def _distances(boxes):
    """Least and greatest distance from 0 to each box ((x0, x1), (y0, y1))."""
    near = np.maximum(np.maximum(boxes[:, :, 0], -boxes[:, :, 1]), 0.0)
    far = np.abs(boxes).max(axis=2)
    return np.hypot(*near.T), np.hypot(*far.T)


def _mirrored(box):
    """A box in the first quadrant and its mirror images in the other three."""
    box = np.asarray(box, dtype=float)
    flip = lambda b, a: np.concatenate([b[:a], -b[a : a + 1, ::-1], b[a + 1 :]])
    return [box, flip(box, 0), flip(box, 1), flip(flip(box, 0), 1)]


class TestBallMeasure:
    """The planar `_ball_measure` against `disc_box_area`, to 1e-14 r^2."""

    @staticmethod
    def check(boxes, radii=None):
        """Compare at `radii` (p, q), by default 17 across each box's distances."""
        boxes = np.asarray(boxes, dtype=float)  # (p, 2, 2)
        if radii is None:
            near, far = _distances(boxes)
            radii = np.linspace(0.5 * near, 1.2 * far + 0.01, 17, axis=1)
        radii = np.asarray(radii, dtype=float)
        got = _ball_measure(boxes[:, None, :, 0], boxes[:, None, :, 1], radii)
        want = [[disc_box_area(box, r) for r in rs] for box, rs in zip(boxes, radii)]
        assert np.all(np.abs(got - want) <= 1e-14 * radii**2)
        return got

    def test_boxes_inside_one_quadrant(self):
        boxes = [*_mirrored([[0.1, 0.4], [0.2, 0.7]]), *_mirrored([[0.0, 0.3], [0.05, 0.06]])]
        got = self.check(boxes + _mirrored([[2.9, 3.0], [0.001, 0.5]]))
        # mirror images hold the same area
        assert np.allclose(got.reshape(-1, 4, got.shape[1]), got[::4, None], rtol=0,
                           atol=1e-14 * 3.2**2)

    @pytest.mark.parametrize(
        "box", [[[-0.2, 0.5], [0.1, 0.4]], [[0.1, 0.4], [-0.3, 0.2]], [[-0.2, 0.5], [-0.6, 0.1]]],
        ids=["x=0", "y=0", "both"],
    )
    def test_boxes_straddling_an_axis(self, box):
        self.check(_mirrored(box))

    def test_box_containing_the_anchor(self):
        box = [[-0.3, 0.5], [-0.2, 0.4]]
        radii = [[0.05, 0.1, 0.199, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.64, 0.7]]
        got = self.check([box], radii)
        inside = np.array(radii) <= 0.2  # the disc lies in the box
        assert np.allclose(got[inside], np.pi * np.array(radii)[inside] ** 2, rtol=1e-14)

    def test_corner_on_the_circle(self):
        boxes = [
            *_mirrored([[0.1, 0.4], [0.2, 0.7]]),
            [[-0.2, 0.5], [0.1, 0.4]],
            [[-0.2, 0.5], [-0.6, 0.1]],
            [[0.375, 0.5], [0.25, 0.375]],
        ]
        corners = np.array([np.hypot(*np.meshgrid(*box)).ravel() for box in boxes])
        self.check(boxes, corners)

    def test_radius_below_nearest_and_above_farthest_point(self):
        boxes = np.array([
            *_mirrored([[0.1, 0.4], [0.2, 0.7]]),
            [[-0.2, 0.5], [0.1, 0.4]],
            [[0.1, 0.4], [-0.3, 0.2]],
            [[-0.3, 0.5], [-0.2, 0.4]],
        ])
        near, far = _distances(boxes)
        radii = np.column_stack([0.5 * near, (1 - 1e-9) * near, (1 + 1e-9) * far, 2 * far])
        got = self.check(boxes, radii)
        volume = np.prod(boxes[:, :, 1] - boxes[:, :, 0], axis=1)
        assert np.all(got[:, :2] == 0.0)
        assert np.allclose(got[:, 2:], volume[:, None], rtol=0, atol=1e-14 * radii[:, 2:] ** 2)

    def test_cells_where_the_circle_runs_along_an_edge(self):
        # cells of 1/h = 1024 about (r, 0) and (0, r), where the circle is
        # nearly tangent to their edges, to 1e-12 of a cell's area: there
        # an arcsin(x / r) corner term, with x / r near 1, is off by 3e-10
        h, r = 2.0**-10, 0.2
        across = (np.arange(201, 207)[:, None] + [0, 1]) * h
        along = (np.arange(-3, 3)[:, None] + [0, 1]) * h
        boxes = np.array([[a, b] for a in across for b in along])
        boxes = np.concatenate([boxes, boxes[:, ::-1]])
        got = self.check(boxes, np.full((len(boxes), 1), r))[:, 0]
        want = [disc_box_area(box, r) for box in boxes]
        assert np.all(np.abs(got - want) <= 1e-12 * h * h)

    def test_random_boxes(self):
        rng = np.random.default_rng(0)
        centre = rng.uniform(-1.0, 1.0, (200, 2))
        half = 0.5 * rng.uniform(0.01, 1.0, (200, 2))
        boxes = np.stack([centre - half, centre + half], axis=2)
        self.check(boxes, rng.uniform(0.0, 2.0, (200, 5)))


class TestForestText:
    def test_round_trip(self):
        f = y_forest()
        text = forest_to_text(f)
        g = forest_from_text(text)
        assert [n.id for n in g.nodes] == [n.id for n in f.nodes]
        assert [(e.tail, e.head, e.k) for e in g.edges] == [
            (e.tail, e.head, e.k) for e in f.edges
        ]

    def test_comments_and_header_check(self):
        text = """
        # a two-node tree
        nodes 2 trees 1
        node 0 dirichlet 0.5
        node 1 terminal 0.0 0.0
        edge 0 1 2.0
        """
        f = forest_from_text(text)
        assert f.nodes[0].id == 0 and f.nodes[0].value == 0.5
        assert f.edges[0].k == 2.0

    def test_header_mismatch_raises(self):
        text = "nodes 3 trees 1\nnode 0 dirichlet 0\nnode 1 terminal 0 0\nedge 0 1 1"
        with pytest.raises(ValueError, match="header"):
            forest_from_text(text)
