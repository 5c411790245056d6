"""Block assembly, the reduced pressure system, and flux recovery."""

import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mdflow.assembly import (
    _face_weights_by_axis,
    assemble_blocks,
    conservation_residual,
    export_state_csv,
    face_weight,
    graph_stokes_check,
    pressure_kernel,
    read_matrix_market,
    recover_fluxes,
    schur_tpfa,
    write_matrix_market,
)
from mdflow.cli import main
import mdflow.geometry as geometry
from mdflow.geometry import (
    CartesianGrid,
    SupportTable,
    TransferSpec,
    build_forest,
    components,
    build_support,
    dirichlet_root,
    interior,
    neumann_root,
    terminal,
)
from mdflow.model import CoefficientField, case1, case2
from mdflow.solver import SolverConfig, solve_pressure

from oracles import (
    face_arrays,
    lumped_mixed_dense,
    lumped_rt0_schur_dense,
    product_form,
    product_kernel,
    product_schur,
    scipy_components,
)

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import forest_gen  # noqa: E402


NO_NETWORK = build_forest([], [])


def plain_coeffs(grid, rN=None):
    return CoefficientField(
        kD=np.ones((grid.n_cells, grid.dim)),
        supports=build_support(grid, ()),
        rD=np.zeros(grid.n_cells),
        rN=rN or {},
    )


def unit_square(m, dim=2):
    return CartesianGrid((m,) * dim, extent=(1.0,) * dim, origin=(-0.5,) * dim)


def tree_on_cell(grid, cell=0, ks=0.7):
    forest = build_forest(
        [dirichlet_root(0, 0.0), terminal(1, (0.0, 0.0))], [(0, 1, 1.0)]
    )
    sup = SupportTable((1,), np.array([0]), np.array([cell]), np.array([ks]))
    return forest, sup


class TestFaceWeight:
    def test_unit_transmissibility_in_grid_units(self):
        # uniform 2D grid with unit kD: T = k |f| / (d1 + d2) = 1
        g = unit_square(2)
        w = face_weight(g, 0, 1.0)
        assert 1.0 / (2 * w) == pytest.approx(1.0)

    def test_doubling_k_doubles_transmissibility(self):
        g = unit_square(4)
        t1 = 1.0 / (2 * face_weight(g, 0, 1.0))
        t2 = 1.0 / (2 * face_weight(g, 0, 2.0))
        assert t2 == pytest.approx(2 * t1)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            face_weight(unit_square(2), 0, 0.0)

    def test_boundary_faces_carry_no_unknowns(self):
        g = unit_square(3)
        # 3x3 grid: 2*3 interior faces per axis
        assert g.n_faces == 12
        # one off-diagonal pair of A per interior face, none per boundary face
        A, _ = schur_tpfa(assemble_blocks(g, NO_NETWORK, plain_coeffs(g)))
        assert A.nnz == g.n_cells + 2 * 12


class TestSchurStructure:
    def test_pure_neumann_zero_row_sums(self):
        g = unit_square(2)
        A, b = schur_tpfa(assemble_blocks(g, NO_NETWORK, plain_coeffs(g)))
        assert np.abs(A @ np.ones(A.shape[0])).max() == 0.0
        assert np.all(b == 0.0)

    def test_exact_symmetry(self):
        spec = case1("A")
        grid = spec.grid(16)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        A, _ = schur_tpfa(blocks)
        assert (A - A.T).nnz == 0 or np.abs((A - A.T).data).max() == 0.0

    def test_dimension_case1(self):
        spec = case1("A")
        grid = spec.grid(16)
        A, b = schur_tpfa(assemble_blocks(grid, spec.forest, spec.coefficients(grid)))
        assert A.shape == (257, 257)  # 256 cells + 1 free node

    def test_spd_with_dirichlet_root(self):
        spec = case1("A")
        grid = spec.grid(8)
        A, _ = schur_tpfa(assemble_blocks(grid, spec.forest, spec.coefficients(grid)))
        lam = np.linalg.eigvalsh(A.toarray())
        assert lam.min() > 0

    def test_five_point_stencil_away_from_supports(self):
        spec = case1("A")
        grid = spec.grid(16)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        A = schur_tpfa(blocks)[0].toarray()
        centers = grid.cell_centers()
        r = np.linalg.norm(centers, axis=1)
        interior = np.flatnonzero(r > 0.25)  # outside the support
        multi = grid.cell_multi_index
        inner = [
            i
            for i in interior
            if np.all(multi[i] > 0) and np.all(multi[i] < 15)
        ]
        # with unit coefficients the transmissibility is 1 in grid units
        for i in inner[:20]:
            row = A[i]
            assert row[i] == pytest.approx(4.0)
            assert sorted(row[row != 0].tolist()) == pytest.approx(
                [-1.0, -1.0, -1.0, -1.0, 4.0]
            )

    def test_single_cell_with_tree_hand_schur(self):
        # one cell, one two-node tree: eliminate fluxes by hand; the
        # coupling weight is (ks vol)^2 / vol and the root folds k into
        # the diagonal and rhs
        g = CartesianGrid((1, 1), extent=(1, 1))
        forest, sup = tree_on_cell(g, ks=0.7)
        coeffs = CoefficientField(
            kD=np.ones((1, 2)),
            supports=sup,
            rD=np.array([2.0]),
            rN={1: 0.5},
        )
        forest2 = build_forest(
            [dirichlet_root(0, 1.5), terminal(1, (0.0, 0.0))], [(0, 1, 3.0)]
        )
        A, b = schur_tpfa(assemble_blocks(g, forest2, coeffs))
        w = 0.7**2 * 1.0
        expected_A = np.array([[w, -w], [-w, w + 3.0]])
        expected_b = np.array([2.0, 0.5 + 3.0 * 1.5])
        assert np.allclose(A.toarray(), expected_A, atol=1e-15)
        assert np.allclose(b, expected_b, atol=1e-15)

    def test_disconnected_region_flagged(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[:, 2] = False  # two disconnected strips
        g = CartesianGrid((4, 4), extent=(1, 1), mask=mask)
        blocks = assemble_blocks(g, NO_NETWORK, plain_coeffs(g))
        K = pressure_kernel(blocks, schur_tpfa(blocks)[0])
        assert K is not None
        assert K.shape[1] == 2

    def test_rooted_system_has_no_kernel(self):
        spec = case1("A")
        grid = spec.grid(8)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        assert pressure_kernel(blocks, schur_tpfa(blocks)[0]) is None


class TestOracleEquivalence:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("with_tree", [False, True])
    def test_matches_brute_force_lumped_rt0(self, m, with_tree):
        g = unit_square(m)
        rng = np.random.default_rng(m)
        if with_tree:
            forest = build_forest(
                [dirichlet_root(0, 0.8), terminal(1, (0.0, 0.0))], [(0, 1, 2.0)]
            )
            transfer = TransferSpec(1, (0.0, 0.0), 0.2, 0.3, 1.5)
            supports = build_support(g, [transfer])
        else:
            forest, supports = NO_NETWORK, build_support(g, ())
        coeffs = CoefficientField(
            kD=rng.uniform(0.5, 2.0, size=(g.n_cells, 2)),
            supports=supports,
            rD=rng.standard_normal(g.n_cells),
            rN={1: 0.3} if with_tree else {},
        )
        A, b = schur_tpfa(assemble_blocks(g, forest, coeffs))
        A_ref, b_ref = lumped_rt0_schur_dense(g, forest, coeffs)
        assert np.abs(A.toarray() - A_ref).max() <= 1e-13
        assert np.abs(b - b_ref).max() <= 1e-13


def two_tree_masked_case():
    """Masked 4x4 grid split into two strips, one tree coupled to each.

    The left strip (columns 0-1) meets a Dirichlet tree with an interior
    node and two terminals; the right strip (column 3) meets a tree
    whose only root is Neumann, so that strip and tree float.
    """
    mask = np.ones((4, 4), dtype=bool)
    mask[:, 2] = False  # active cell (i, j) is 3 i + (0, 1, -, 2)[j]
    g = CartesianGrid((4, 4), extent=(1, 1), mask=mask)
    forest = build_forest(
        [
            dirichlet_root(0, 0.7),
            interior(1),
            terminal(2, (0.1, 0.1)),
            terminal(3, (0.3, 0.6)),
            neumann_root(10),
            terminal(11, (0.9, 0.4)),
        ],
        [(0, 1, 2.0), (1, 2, 0.5), (3, 1, 1.5), (10, 11, 3.0)],
    )
    rng = np.random.default_rng(7)
    cells = [[0, 1, 3], [4, 7, 10], [2, 5]]
    supports = SupportTable(
        (2, 3, 11),
        np.repeat([0, 1, 2], [len(c) for c in cells]),
        np.concatenate(cells),
        np.concatenate([rng.uniform(0.5, 2.0, len(c)) for c in cells]),
    )
    coeffs = CoefficientField(
        kD=rng.uniform(0.5, 2.0, size=(g.n_cells, 2)),
        supports=supports,
        rD=rng.standard_normal(g.n_cells),
        rN={1: 0.2, 11: -0.3},
    )
    return g, forest, coeffs


def check_mixed_matrix(grid, forest, coeffs):
    """The product form's saddle system equals the dense oracle; returns the lift.

    This ties the oracle that pins every G-free consumer bit for bit to
    the brute-force dense assembly.
    """
    D, G, r_full, free_cols, dirichlet = lumped_mixed_dense(grid, forest, coeffs)
    nq = D.size
    G_free = G[:, free_cols]
    expected = np.zeros((nq + len(free_cols),) * 2)
    expected[:nq, :nq] = np.diag(D)
    expected[:nq, nq:] = G_free
    expected[nq:, :nq] = G_free.T
    dir_cols = list(dirichlet)
    lifted = G[:, dir_cols] @ np.array([dirichlet[c] for c in dir_cols])
    expected_rhs = np.concatenate([-lifted, -r_full[free_cols]])

    G_sp, d, lift, r = product_form(assemble_blocks(grid, forest, coeffs))
    M = sp.bmat([[sp.diags(d), G_sp], [G_sp.T, None]])
    rhs = -np.concatenate([lift, r])
    assert M.shape == expected.shape
    assert np.abs(M.toarray() - expected).max() <= 1e-13
    assert np.abs(rhs - expected_rhs).max() <= 1e-13
    return lifted


class TestMixedOperatorMaskedForest:
    def setup_method(self):
        self.grid, self.forest, self.coeffs = two_tree_masked_case()
        self.blocks = assemble_blocks(self.grid, self.forest, self.coeffs)

    def test_mixed_matrix_matches_dense_oracle(self):
        lifted = check_mixed_matrix(self.grid, self.forest, self.coeffs)
        assert np.count_nonzero(lifted) == 1  # only the root edge row

    def test_supports_out_of_forest_order(self):
        # each support row names its terminal, so any row order assembles
        transfers = [
            TransferSpec(n.id, n.anchor, 0.15, 0.3) for n in self.forest.terminals
        ]
        systems = []
        for given in (transfers, transfers[::-1]):
            coeffs = replace(self.coeffs, supports=build_support(self.grid, given))
            check_mixed_matrix(self.grid, self.forest, coeffs)
            systems.append(schur_tpfa(assemble_blocks(self.grid, self.forest, coeffs)))
        assert coeffs.supports.terminal_ids == (11, 3, 2)
        (A, b), (A_rev, b_rev) = systems
        scale = abs(A).max()
        assert abs(A_rev - A).max() <= 1e-14 * scale
        assert np.abs(b_rev - b).max() <= 1e-14 * np.abs(b).max()

    def test_balance_residual_is_pressure_residual(self):
        A, b = schur_tpfa(self.blocks)
        rng = np.random.default_rng(3)
        for _ in range(3):
            p = rng.standard_normal(self.blocks.n_unknowns)
            rc, rn = conservation_residual(
                self.blocks, recover_fluxes(self.blocks, p)
            )
            res = A @ p - b
            scale = np.abs(A).sum(axis=1).max() * np.abs(p).max() + np.abs(b).max()
            assert np.abs(np.concatenate([rc, rn]) - res).max() <= 1e-14 * scale

    def test_kernel_spans_the_neumann_component(self):
        blocks = self.blocks
        A, _ = schur_tpfa(blocks)
        K = pressure_kernel(blocks, A)
        assert K.shape == (blocks.n_unknowns, 1)
        nodes = [blocks.n_cells + blocks.free_node_ids.index(i) for i in (10, 11)]
        floating = [2, 5, 8, 11] + nodes
        assert np.flatnonzero(K[:, 0]).tolist() == floating
        assert np.allclose(K[floating, 0], 1 / np.sqrt(len(floating)))
        assert np.abs(A @ K).max() <= 1e-14
        # the Dirichlet strip and tree are nonsingular: removing the
        # kernel leaves a definite system
        lam = np.linalg.eigvalsh(A.toarray())
        assert lam[0] == pytest.approx(0.0, abs=1e-13) and lam[1] > 1e-6


def free_ends_case(root=dirichlet_root(0, 0.7)):
    """6x6 grid under one tree whose edges keep one or two free ends.

    The root edge (0, 1) keeps one free end when the root is Dirichlet;
    the edges below node 1 keep two.  The two terminals' supports
    overlap, so some cells couple to both.  The values are chosen so
    the bits show which form of each term was computed: vol = 1/36 is
    not a power of two, so ((1/vol) m) m != ks^2 vol, and the root
    edge's k = 3.7 has 1/(1/k) != k and 0.7/(1/k) != 0.7 k.
    """
    g = unit_square(6)
    forest = build_forest(
        [root, interior(1), terminal(2, (0.0, 0.0)), terminal(3, (0.1, 0.05))],
        [(0, 1, 3.7), (1, 2, 0.5), (1, 3, 1.5)],
    )
    transfers = [TransferSpec(n.id, n.anchor, 0.1, 0.3, 1.3) for n in forest.terminals]
    rng = np.random.default_rng(5)
    coeffs = CoefficientField(
        kD=rng.uniform(0.5, 2.0, size=(g.n_cells, 2)),
        supports=build_support(g, transfers),
        rD=rng.standard_normal(g.n_cells),
        rN={1: 0.2, 3: -0.7},
    )
    return g, forest, coeffs


def masked_brick_case():
    """5x4x6 brick without an interior block and a corner, under one tree.

    The block (cells 1-2 along axes 0 and 1, 2-3 along axis 2) drops
    faces on both of its sides along every axis, the corner (4, 3, 5)
    drops the upper ends of three rows.  A cell is coupled to both
    terminals.
    """
    mask = np.ones((5, 4, 6), dtype=bool)
    mask[1:3, 1:3, 2:4] = False
    mask[4, 3, 5] = False
    g = CartesianGrid(mask.shape, extent=(1.0, 0.7, 1.3), mask=mask)
    forest = build_forest(
        [dirichlet_root(0, 0.4), interior(1), terminal(2, (0.1, 0.1, 0.1)),
         terminal(3, (0.8, 0.5, 1.0))],
        [(0, 1, 2.5), (1, 2, 0.75), (1, 3, 1.25)],
    )
    rng = np.random.default_rng(11)
    cells = [0, 1, 7, 7, 30, 50]
    supports = SupportTable(
        (2, 3), np.repeat([0, 1], 3), np.array(cells), rng.uniform(0.5, 2.0, 6)
    )
    coeffs = CoefficientField(
        kD=rng.uniform(0.5, 2.0, size=(g.n_cells, 3)),
        supports=supports,
        rD=rng.standard_normal(g.n_cells),
        rN={1: 0.2, 3: -0.4},
    )
    return g, forest, coeffs


def spec_case(spec, m):
    grid = spec.grid(m)
    return grid, spec.forest, spec.coefficients(grid)


def islands_case():
    """Masked 8x8 grid in four pieces and an isolated cell, under four trees.

    The Dirichlet tree meets the left block (columns 0-3).  One Neumann
    tree meets the right block's top rows, another joins two strips of
    its lower rows, and the third has no support, so its two nodes float
    alone.  Cell (7, 7) has no active neighbour and no support, so its
    row of A is empty.  Of the five components four float.
    """
    mask = np.ones((8, 8), dtype=bool)
    mask[:, 4] = False
    mask[3, 5:] = mask[5, 5:] = False
    mask[7, 6] = mask[6, 7] = False
    g = CartesianGrid((8, 8), extent=(1, 1), mask=mask)
    forest = build_forest(
        [dirichlet_root(0, 0.7), interior(1), terminal(2, (0.1, 0.1)),
         terminal(3, (0.9, 0.3)), neumann_root(10), terminal(11, (0.1, 0.8)),
         neumann_root(20), interior(21), terminal(22, (0.5, 0.7)),
         terminal(23, (0.85, 0.7)), neumann_root(30), terminal(31, (0.5, 0.5))],
        [(1, 0, 2.0), (1, 2, 0.5), (3, 1, 1.5), (11, 10, 3.0), (20, 21, 1.0),
         (22, 21, 0.5), (21, 23, 2.0), (31, 30, 1.0)],
    )
    cells = {2: [(0, 0), (1, 1)], 3: [(6, 3)], 11: [(0, 5), (1, 6)], 22: [(4, 5)],
             23: [(6, 6)], 31: []}
    rng = np.random.default_rng(3)
    supports = SupportTable(
        tuple(cells),
        np.repeat(np.arange(len(cells)), [len(c) for c in cells.values()]),
        np.array([g.active_index[ij] for c in cells.values() for ij in c], dtype=int),
        rng.uniform(0.5, 2.0, sum(len(c) for c in cells.values())),
    )
    coeffs = CoefficientField(
        kD=rng.uniform(0.5, 2.0, size=(g.n_cells, 2)),
        supports=supports,
        rD=rng.standard_normal(g.n_cells),
    )
    return g, forest, coeffs


ASSEMBLY_CASES = {
    "case1a": lambda: spec_case(case1("A"), 32),
    "case1b": lambda: spec_case(case1("B"), 16),
    "case2_8": lambda: spec_case(case2(), 8),
    "case2_16": lambda: spec_case(case2(), 16),
    "masked_two_trees": two_tree_masked_case,
    "masked_brick": masked_brick_case,
    "forest_k6": lambda: spec_case(forest_gen.forest_case(6, 0), 128),
    "free_ends": free_ends_case,
    "pure_neumann": lambda: free_ends_case(neumann_root(0)),
}


class TestTransmissibilityAssembly:
    @pytest.mark.parametrize("case", [
        "case1a", "case1b", "case2_8", "case2_16", "masked_two_trees", "masked_brick",
        "forest_k6", "free_ends",
    ])
    def test_equals_the_product_form_bitwise(self, case):
        grid, forest, coeffs = ASSEMBLY_CASES[case]()
        blocks = assemble_blocks(grid, forest, coeffs)
        A, b = schur_tpfa(blocks)
        A_want, b_want = product_schur(blocks)
        assert A.shape == A_want.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(A_want, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert b.dtype == b_want.dtype and b.tobytes() == b_want.tobytes()

    @pytest.mark.parametrize("case", ["forest_k6", "free_ends"])
    def test_cases_cover_shared_cells_and_both_edge_kinds(self, case):
        # cells on several terminals' supports, and edges with one free
        # end (at a Dirichlet root) next to edges with two
        grid, forest, coeffs = ASSEMBLY_CASES[case]()
        assert np.bincount(coeffs.supports.cell_idx).max() > 1
        ends = np.diff(assemble_blocks(grid, forest, coeffs).E.indptr)
        assert {1, 2} <= set(ends.tolist())

    @pytest.mark.parametrize("case", ["masked_two_trees", "pure_neumann", "islands"])
    def test_kernel_equals_the_G_form(self, case):
        grid, forest, coeffs = {**ASSEMBLY_CASES, "islands": islands_case}[case]()
        blocks = assemble_blocks(grid, forest, coeffs)
        A, _ = schur_tpfa(blocks)
        K = pressure_kernel(blocks, A)
        want = product_kernel(blocks, A)
        assert K is not None and K.shape == want.shape
        assert K.tobytes() == want.tobytes()


def assert_labels_equal_scipys(A):
    count, labels = components(A)
    want_count, want = scipy_components(A)
    assert count == want_count
    assert labels.dtype == np.int32 and np.array_equal(labels, want)
    return count


class TestComponents:
    # `components` must give scipy's labels, not only its partition:
    # the kernel's columns follow them

    @pytest.mark.parametrize("case", [*ASSEMBLY_CASES, "islands"])
    def test_operator_labels_equal_scipys(self, case):
        grid, forest, coeffs = {**ASSEMBLY_CASES, "islands": islands_case}[case]()
        A, _ = schur_tpfa(assemble_blocks(grid, forest, coeffs))
        count = assert_labels_equal_scipys(A)
        assert count == {"masked_two_trees": 2, "pure_neumann": 1, "islands": 5}.get(case, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_operator(self, seed):
        grid, forest, coeffs = islands_case()
        A, _ = schur_tpfa(assemble_blocks(grid, forest, coeffs))
        p = np.random.default_rng(seed).permutation(A.shape[0])
        assert assert_labels_equal_scipys(A[p][:, p].tocsr()) == 5

    def test_rows_without_off_diagonal_entries(self):
        # a path of 5 among isolated rows: some hold only the diagonal,
        # some nothing at all
        n, i = 12, np.array([2, 3, 4, 5])
        M = sp.csr_matrix((np.ones(4), (i, i + 1)), shape=(n, n))
        diagonal = sp.diags(np.arange(n) % 3 != 0, dtype=float)
        assert assert_labels_equal_scipys((M + M.T + diagonal).tocsr()) == 8

    def test_empty_matrix(self):
        assert assert_labels_equal_scipys(sp.csr_matrix((0, 0))) == 0

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_random_patterns_in_small_blocks(self, monkeypatch, block):
        # blocks of a few entries: each pass hangs roots over many blocks
        # of rows, some roots already hung earlier in the same pass
        monkeypatch.setattr(geometry, "COMPONENT_BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(100):
            n = int(rng.integers(1, 120))
            i, j = rng.integers(0, n, (2, int(rng.integers(0, 2 * n))))
            M = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
            diagonal = sp.identity(n) if rng.random() < 0.5 else 0
            assert_labels_equal_scipys((M + M.T + diagonal).tocsr())


def consistent_islands():
    """`islands_case`'s blocks with the sources made consistent.

    On a floating component b is r, so taking b's kernel part off r
    leaves a consistent system, and the empty row 47's source is 0.
    """
    grid, forest, coeffs = islands_case()
    blocks = assemble_blocks(grid, forest, coeffs)
    A, b = schur_tpfa(blocks)
    K = pressure_kernel(blocks, A)
    r = blocks.r - K @ (K.T @ b)
    nc = grid.n_cells
    coeffs = replace(coeffs, rD=r[:nc] / grid.cell_volume,
                     rN=dict(zip(blocks.free_node_ids, r[nc:].tolist())))
    return assemble_blocks(grid, forest, coeffs)


class TestEmptyRows:
    """An empty row of A is a component of its own, solved as x_i = 0."""

    def test_islands_solve_conserves(self):
        blocks = consistent_islands()
        A, b = schur_tpfa(blocks)
        assert A.indptr[47] == A.indptr[48] and b[47] == 0.0
        tol = 1e-12
        x, report = solve_pressure(A, b, SolverConfig(tol=tol), kernel=pressure_kernel(blocks, A))
        assert report.converged and report.dof == A.shape[0]
        assert x[47] == 0.0
        # criterion 8's bounds
        state = recover_fluxes(blocks, x)
        rc, rn = conservation_residual(blocks, state)
        assert max(np.abs(rc).max(), np.abs(rn).max()) <= 10 * tol * np.linalg.norm(b)
        assert graph_stokes_check(blocks, state) <= 1e-10 * np.abs(b).sum()

    def test_source_in_an_empty_row_is_named(self):
        A, b = schur_tpfa(consistent_islands())
        b[47] = 0.5
        with pytest.raises(ValueError, match="row 47 of A is empty, but b_47 = 0.5"):
            solve_pressure(A, b)

    def test_cli_solves_the_exported_system(self, tmp_path):
        A, b = schur_tpfa(consistent_islands())
        write_matrix_market(A, tmp_path / "A.mtx")
        np.savetxt(tmp_path / "b.txt", b)
        rc = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                   "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path)])
        assert rc == 0
        assert np.loadtxt(tmp_path / "solution.txt")[47] == 0.0

    def test_other_rows_solved_as_without_the_empty_ones(self):
        # case 1A's system with empty rows put in: the rest keeps its bits
        spec = case1("A")
        grid = spec.grid(16)
        A, b = schur_tpfa(assemble_blocks(grid, spec.forest, spec.coefficients(grid)))
        n = A.shape[0] + 3
        keep = np.ones(n, dtype=bool)
        keep[[0, 100, n - 1]] = False
        P = sp.csr_matrix((np.ones(A.shape[0]), (np.flatnonzero(keep), np.arange(A.shape[0]))),
                          shape=(n, A.shape[0]))
        x, report = solve_pressure(P @ A @ P.T, P @ b)
        want, want_report = solve_pressure(A, b)
        assert np.all(x[~keep] == 0.0) and x[keep].tobytes() == want.tobytes()
        assert report.residuals == want_report.residuals and report.dof == n


class TestAfterTheSolve:
    @pytest.mark.parametrize("pressure", ["solved", "zero", "repeated"])
    @pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
    def test_fluxes_and_balances_equal_the_product_form_bitwise(self, case, pressure):
        # q = -(G p + lift) / d, -(G' q + r) and (G 1)' q + sum(r) without
        # G; repeated values and signed zeros in p make the rows' zero
        # pressure drops, and the sign each zero takes, show in the bits
        grid, forest, coeffs = ASSEMBLY_CASES[case]()
        blocks = assemble_blocks(grid, forest, coeffs)
        held = set(vars(blocks)), set(vars(grid))
        n = blocks.n_unknowns
        if pressure == "solved":
            A, b = schur_tpfa(blocks)
            K = pressure_kernel(blocks, A)
            if K is not None:  # a floating component's sources need not balance
                b -= K @ (K.T @ b)
            p, _ = solve_pressure(A, b, SolverConfig(), kernel=K)
        elif pressure == "zero":
            p = np.zeros(n)
        else:
            p = np.random.default_rng(2).choice([-0.0, 0.0, 0.5, -1.25], size=n)
        state = recover_fluxes(blocks, p)
        G, d, lift, r = product_form(blocks)
        q = -(G @ p + lift) / d
        assert state.q.tobytes() == q.tobytes()
        assert state.pD.tobytes() + state.pN.tobytes() == p.tobytes()
        res_c, res_n = conservation_residual(blocks, state)
        want = -(G.T @ q + r)
        assert np.concatenate([res_c, res_n]).tobytes() == want.tobytes()
        want = abs(float((G @ np.ones(n)) @ q + r.sum()))
        assert np.float64(graph_stokes_check(blocks, state)).tobytes() == \
            np.float64(want).tobytes()
        # nothing is cached on the blocks or the grid along the way
        assert (set(vars(blocks)), set(vars(grid))) == held

    @pytest.mark.parametrize("case", ["case2_8", "masked_brick"])
    def test_face_weights_by_axis_equal_the_gathered_form(self, case):
        # d_D is built on one axis's face slab at a time, and its interior
        # entries have the bits of the form gathered over the face pairs
        grid, _, coeffs = ASSEMBLY_CASES[case]()
        kD = coeffs.kD
        d = np.concatenate([grid.gather(w, a) for a, w in _face_weights_by_axis(grid, kD)])
        lo, hi, ax = face_arrays(grid)
        want = face_weight(grid, ax, kD[lo, ax]) + face_weight(grid, ax, kD[hi, ax])
        assert d.tobytes() == want.tobytes()


class TestRecoverFluxes:
    def test_zero_rhs_zero_state(self):
        g = unit_square(4)
        blocks = assemble_blocks(g, NO_NETWORK, plain_coeffs(g))
        state = recover_fluxes(blocks, np.zeros(blocks.n_unknowns))
        assert not np.any(state.qD)
        assert not np.any(state.pD)

    def test_constitutive_relations(self):
        spec = case1("A")
        grid = spec.grid(8)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        rng = np.random.default_rng(0)
        p = rng.standard_normal(blocks.n_unknowns)
        state = recover_fluxes(blocks, p)
        # face flux is transmissibility times the pressure drop
        i = 5
        lo, hi = (int(cells[i]) for cells in grid.faces(0))
        kD = blocks.coeffs.kD
        d = face_weight(grid, 0, kD[lo, 0]) + face_weight(grid, 0, kD[hi, 0])
        assert state.qD[i] == pytest.approx((p[lo] - p[hi]) / d)
        # edge flux reinserts the Dirichlet root value
        root_val = spec.forest.nodes[0].value
        pN1 = p[blocks.n_cells + blocks.free_node_ids.index(1)]
        assert state.qN[0] == pytest.approx(-1.0 * (pN1 - root_val))

    def test_exact_solve_conserves(self):
        spec = case1("A")
        grid = spec.grid(8)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        A, b = schur_tpfa(blocks)
        p = np.linalg.solve(A.toarray(), b)
        state = recover_fluxes(blocks, p)
        rc, rn = conservation_residual(blocks, state)
        tol = 1e-12 * np.linalg.norm(b)
        assert np.abs(rc).max() <= tol
        assert np.abs(rn).max() <= tol
        assert graph_stokes_check(blocks, state) <= 1e-10 * np.abs(b).sum()

    def test_dimension_mismatch(self):
        g = unit_square(2)
        blocks = assemble_blocks(g, NO_NETWORK, plain_coeffs(g))
        with pytest.raises(ValueError):
            recover_fluxes(blocks, np.zeros(3))


class TestGraphStokes:
    def test_random_state_nonzero(self):
        spec = case1("A")
        grid = spec.grid(8)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        rng = np.random.default_rng(1)
        state = recover_fluxes(blocks, rng.standard_normal(blocks.n_unknowns))
        assert graph_stokes_check(blocks, state) > 1e-8

    def test_zero_state_zero_sources(self):
        g = unit_square(4)
        blocks = assemble_blocks(g, NO_NETWORK, plain_coeffs(g))
        state = recover_fluxes(blocks, np.zeros(blocks.n_unknowns))
        assert graph_stokes_check(blocks, state) == 0.0


class TestExports:
    def test_matrix_market_round_trip(self, tmp_path):
        spec = case1("A")
        grid = spec.grid(8)
        A, _ = schur_tpfa(assemble_blocks(grid, spec.forest, spec.coefficients(grid)))
        path = tmp_path / "A.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert (A - B).nnz == 0 or np.abs((A - B).data).max() < 1e-14

    def test_state_csv_files(self, tmp_path):
        spec = case1("A")
        grid = spec.grid(4)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        state = recover_fluxes(blocks, np.zeros(blocks.n_unknowns))
        export_state_csv(blocks, state, tmp_path / "run")
        for part in ("cells", "faces", "nodes", "edges"):
            text = (tmp_path / f"run_{part}.csv").read_text().splitlines()
            assert len(text) > 1 or part in ("nodes", "edges")

    def test_state_csv_files_are_written_atomically(self, tmp_path, monkeypatch):
        # a file takes its final name only through os.replace of a complete
        # temporary file, which is removed if the replace fails
        spec = case1("A")
        grid = spec.grid(4)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        state = recover_fluxes(blocks, np.zeros(blocks.n_unknowns))
        names = sorted(f"run_{part}.csv" for part in ("cells", "faces", "nodes", "edges"))
        export_state_csv(blocks, state, tmp_path / "run")
        assert sorted(p.name for p in tmp_path.iterdir()) == names

        def refuse(src, dst):
            raise OSError("replace refused")

        failed = tmp_path / "failed"
        failed.mkdir()
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            export_state_csv(blocks, state, failed / "run")
        assert not list(failed.iterdir())

    @pytest.mark.parametrize("case", [
        lambda: spec_case(case1("A"), 4), masked_brick_case, lambda: spec_case(case2(), 4),
    ], ids=["case1a_4", "masked_brick", "case2_4"])
    def test_state_csv_values_read_back_bitwise(self, tmp_path, case):
        # every field is a plain number in shortest round-trip digits, so
        # np.loadtxt recovers the state and the cell centres bit for bit
        grid, forest, coeffs = case()
        blocks = assemble_blocks(grid, forest, coeffs)
        x = np.random.default_rng(0).standard_normal(blocks.n_unknowns)
        state = recover_fluxes(blocks, x)
        export_state_csv(blocks, state, tmp_path / "run")

        def load(part):
            return np.loadtxt(tmp_path / f"run_{part}.csv", delimiter=",",
                              skiprows=1, ndmin=2)

        def same(column, expected):
            return column.tobytes() == np.asarray(expected, dtype=float).tobytes()

        cells, faces, nodes, edges = map(load, ("cells", "faces", "nodes", "edges"))
        assert same(cells[:, 0], np.arange(grid.n_cells))
        assert same(cells[:, 1:-1], grid.cell_centers())
        assert same(cells[:, -1], state.pD)
        face_lo, face_hi, face_axis = face_arrays(grid)
        assert same(faces[:, 0], np.arange(grid.n_faces))
        assert same(faces[:, 1], face_axis)
        assert same(faces[:, 2], face_lo)
        assert same(faces[:, 3], face_hi)
        assert same(faces[:, 4], state.qD)
        assert same(nodes[:, 0], blocks.free_node_ids)
        assert same(nodes[:, 1], state.pN)
        edge_ends = [(e.tail, e.head) for e in forest.edges]
        assert same(edges[:, 0], np.arange(len(edge_ends)))
        assert same(edges[:, 1:3], edge_ends)
        assert same(edges[:, 3], state.qN)
