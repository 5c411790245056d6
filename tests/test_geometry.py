"""Forest validation, incidence structure, grids, and support regions."""

import numpy as np
import pytest
import scipy.integrate as si

from mdflow.geometry import (
    SUPPORT_SUBDIV_PLANAR,
    SUPPORT_SUBDIV_SPATIAL,
    CartesianGrid,
    build_forest,
    build_support,
    dirichlet_root,
    disc_cell_fractions,
    forest_from_text,
    forest_to_text,
    incidence,
    interior,
    neumann_root,
    radial_cell_average,
    terminal,
    transfer_profile,
)
from mdflow.model import case1, case2


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

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            CartesianGrid((4,), extent=(1.0,))

    def test_locate(self):
        g = CartesianGrid((4, 4), extent=(1, 1), origin=(-0.5, -0.5))
        assert g.locate((-0.49, -0.49)) == 0
        assert g.locate((0.6, 0.0)) == -1


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


class TestBuildSupport:
    def grid(self, m=16):
        return CartesianGrid((m, m), extent=(1, 1), origin=(-0.5, -0.5))

    def test_heaviside_interior_cells_equal_kT0(self):
        g = self.grid()
        sup = build_support(g, 1, (0.0, 0.0), (0.2, 0.2), 3.0)
        centers = g.cell_centers()[sup.cell_idx]
        r = np.linalg.norm(centers, axis=1)
        inside = r <= 0.2 - g.spacing[0]  # fully covered cells
        assert np.allclose(sup.ks[inside] ** 2, 3.0)

    def test_taper_continuity_at_r0(self):
        kt = transfer_profile(np.array([0.1 - 1e-9, 0.1 + 1e-9]), 0.1, 0.2, 1.0)
        assert kt[0] == pytest.approx(kt[1], abs=1e-6)

    def test_empty_support_raises(self):
        g = self.grid(4)
        with pytest.raises(ValueError, match="empty support|outside"):
            build_support(g, 1, (0.6, 0.6), (0.01, 0.01), 1.0)

    def test_anchor_outside_raises(self):
        with pytest.raises(ValueError, match="outside"):
            build_support(self.grid(), 1, (2.0, 0.0), (0.1, 0.2), 1.0)

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            build_support(self.grid(), 1, (0.0, 0.0), (0.3, 0.2), 1.0)

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
            sup = build_support(g, 1, (0.0, 0.0), (r0, r1), kT0)
            errs.append(abs(sup.integral(g.cell_volume) - exact))
        rate = np.log2(errs[0] / errs[-1]) / 2
        assert rate >= 1.0

    def test_truncation_at_boundary(self):
        # anchor near the wall: support clipped, integral still positive
        g = self.grid(16)
        sup = build_support(g, 1, (0.45, 0.0), (0.1, 0.2), 1.0)
        assert sup.integral(g.cell_volume) > 0
        centers = g.cell_centers()[sup.cell_idx]
        assert centers[:, 0].max() < 0.5


class TestSupportCandidates:
    @staticmethod
    def check_against_brute_force(grid, t):
        """The support equals the quadrature evaluated at every cell.

        The brute force evaluates `radial_cell_average` over all cells,
        with no candidate box and no sharing of radial cells, and applies
        the compartment by cell centre.  Its nonzero cells also all meet
        the open ball of radius r1.
        """
        axes = list(range(grid.dim) if t.radial_axes is None else t.radial_axes)
        sup = build_support(
            grid, t.terminal_id, t.anchor, (t.r0, t.r1), t.kT0,
            radial_axes=t.radial_axes, compartment=t.compartment,
        )
        every = np.arange(grid.n_cells)
        subdiv = SUPPORT_SUBDIV_PLANAR if len(axes) <= 2 else SUPPORT_SUBDIV_SPATIAL
        kt = radial_cell_average(
            grid, every, t.anchor, axes,
            lambda r: transfer_profile(r, t.r0, t.r1, t.kT0),
            breaks=((t.r0, t.r1),), subdiv=subdiv,
        )
        centers = grid.cell_centers()
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
        sup = build_support(
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
        [((2, "middle"), "compartment side"), ((3, "lower"), "compartment axis")],
    )
    def test_bad_compartment(self, compartment, match):
        grid = CartesianGrid((8, 8, 2), extent=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=match):
            build_support(
                grid, 1, (0.5, 0.5), (0.1, 0.2), 1.0,
                radial_axes=(0, 1), compartment=compartment,
            )


class TestDiscOverlap:
    def test_full_and_empty_cells(self):
        g = CartesianGrid((8, 8), extent=(1, 1), origin=(-0.5, -0.5))
        frac = disc_cell_fractions(g, np.arange(g.n_cells), (0.0, 0.0), 0.3)
        centers = g.cell_centers()
        r = np.linalg.norm(centers, axis=1)
        assert np.allclose(frac[r < 0.3 - 0.1], 1.0)
        assert np.allclose(frac[r > 0.3 + 0.1], 0.0)

    def test_total_area(self):
        g = CartesianGrid((64, 64), extent=(1, 1), origin=(-0.5, -0.5))
        frac = disc_cell_fractions(g, np.arange(g.n_cells), (0.013, -0.007), 0.2)
        area = frac.sum() * g.cell_volume
        assert area == pytest.approx(np.pi * 0.04, rel=1e-12)


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
        assert f.node(0).value == 0.5
        assert f.edges[0].k == 2.0

    def test_header_mismatch_raises(self):
        text = "nodes 3 trees 1\nnode 0 dirichlet 0\nnode 1 terminal 0 0\nedge 0 1 1"
        with pytest.raises(ValueError, match="header"):
            forest_from_text(text)
