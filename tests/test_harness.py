"""Error norms, restriction operators, convergence tables, and CSV output."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdflow.assembly import (
    MixedState,
    assemble_blocks,
    conservation_residual,
    graph_stokes_check,
    pressure_kernel,
    recover_fluxes,
    schur_tpfa,
)
from mdflow import harness as harness_module
from mdflow.geometry import CartesianGrid
from mdflow.harness import (
    ConvergenceTable,
    ErrorRecord,
    FineReference,
    SeriesReference,
    emit_tables,
    error_norms,
    restrict_cellwise,
    restrict_face_flux,
    run_case,
    solve_case_mesh,
    transfer_density,
)
from mdflow.model import case1, case2
from mdflow.reference import eval_solution, solve_constants
from mdflow.solver import SolverConfig, build_hierarchy

from oracles import face_arrays


class TestSeriesProjection:
    def test_projected_state_scores_zero_on_dof_norms(self):
        # the series solution sampled as the error norms sample it is its
        # own reference for everything scored at the discrete unknowns
        spec = case1("A")
        grid = spec.grid(16)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        sol = solve_constants(spec.reference[1])
        pD = eval_solution(sol, np.linalg.norm(grid.cell_centers(), axis=1))[0]
        pts, w = grid.quadrature(cells=blocks.sup_cell)
        r = np.linalg.norm(pts, axis=2)
        p_exact = eval_solution(sol, r.ravel())[0].reshape(r.shape)
        state = MixedState(
            qD=np.zeros(grid.n_faces),
            qS=-blocks.sup_ks * ((p_exact - sol.pN1) @ w),
            qN=np.full(blocks.edge_k.size, sol.qN),
            pD=pD,
            pN=np.full(blocks.n_free_nodes, sol.pN1),
        )
        rec = error_norms(state, blocks, SeriesReference(sol, (0.0, 0.0)), 16)
        assert rec.pD == 0.0
        assert rec.pN == 0.0
        assert rec.qS == 0.0
        assert rec.qN == 0.0


class TestFineRestriction:
    def setup_pair(self, fine=8, coarse=4):
        spec = case2(reference_resolution=fine)
        fg = spec.grid(fine)
        cg = spec.grid(coarse)
        f_coeffs = spec.coefficients(fg)
        c_coeffs = spec.coefficients(cg)
        fb = assemble_blocks(fg, spec.forest, f_coeffs)
        cb = assemble_blocks(cg, spec.forest, c_coeffs)
        return spec, fb, cb

    def test_cell_restriction_is_conservative(self):
        _, fb, cb = self.setup_pair()
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(fb.grid.n_cells)
        coarse = restrict_cellwise(fb.grid, cb.grid, vals)
        assert coarse.sum() * cb.grid.cell_volume == pytest.approx(
            vals.sum() * fb.grid.cell_volume, rel=1e-13
        )

    def test_face_restriction_sums_fluxes(self):
        _, fb, cb = self.setup_pair()
        rng = np.random.default_rng(1)
        q = rng.standard_normal(fb.grid.n_faces)
        qc = restrict_face_flux(fb.grid, cb.grid, q)
        assert qc.shape == (cb.grid.n_faces,)
        # a constant unit flux through every fine face of one axis sums
        # to the number of fine faces per coarse face
        q1 = np.where(face_arrays(fb.grid)[2] == 0, 1.0, 0.0)
        qc1 = restrict_face_flux(fb.grid, cb.grid, q1)
        on_axis = face_arrays(cb.grid)[2] == 0
        assert np.allclose(qc1[on_axis], 4.0)  # 2x2 spatial x 1 compartment
        assert np.allclose(qc1[~on_axis], 0.0)

    @staticmethod
    def brute_force(fine, coarse, values, q):
        """Loop over fine cells and faces, mapping cells by multi_index // ratio."""
        ratio = np.asarray(fine.cells) // np.asarray(coarse.cells)
        fine_multi = fine.cell_multi_index
        cells = np.zeros(coarse.n_cells)
        for i, multi in enumerate(fine_multi):
            c = coarse.active_index[tuple(multi // ratio)]
            cells[c] += values[i] * fine.cell_volume / coarse.cell_volume
        faces = np.zeros(coarse.n_faces)
        coarse_lo, _, coarse_axis = face_arrays(coarse)
        coarse_face = {
            (a, lo): f
            for f, (a, lo) in enumerate(zip(coarse_axis.tolist(), coarse_lo.tolist()))
        }
        fine_lo, _, fine_axis = (f.tolist() for f in face_arrays(fine))
        for f in range(fine.n_faces):
            a = fine_axis[f]
            lo = fine_multi[fine_lo[f]]
            if (lo[a] + 1) % ratio[a] == 0:
                c_lo = coarse.active_index[tuple(lo // ratio)]
                faces[coarse_face[a, c_lo]] += q[f]
        return cells, faces

    @pytest.mark.parametrize("case", ["case2", "planar"])
    def test_matches_brute_force(self, case):
        if case == "case2":
            _, fb, cb = self.setup_pair()
            fine, coarse = fb.grid, cb.grid
        else:  # unequal per-axis ratios (3, 2)
            fine = CartesianGrid((12, 8), extent=(1.0, 1.0))
            coarse = CartesianGrid((4, 4), extent=(1.0, 1.0))
        rng = np.random.default_rng(3)
        values = rng.standard_normal(fine.n_cells)
        q = rng.standard_normal(fine.n_faces)
        cells, faces = self.brute_force(fine, coarse, values, q)
        np.testing.assert_allclose(
            restrict_cellwise(fine, coarse, values), cells, rtol=1e-13, atol=1e-13
        )
        np.testing.assert_allclose(
            restrict_face_flux(fine, coarse, q), faces, rtol=1e-13, atol=1e-13
        )

    @pytest.mark.parametrize("masked", ["fine", "coarse"])
    def test_masked_grid_rejected(self, masked):
        grids = {}
        for name, m in (("fine", 8), ("coarse", 4)):
            mask = np.ones((m, m), dtype=bool)
            mask[0, 0] = name != masked
            grids[name] = CartesianGrid((m, m), extent=(1.0, 1.0), mask=mask)
        fine, coarse = grids["fine"], grids["coarse"]
        with pytest.raises(ValueError, match="unmasked"):
            restrict_cellwise(fine, coarse, np.ones(fine.n_cells))
        with pytest.raises(ValueError, match="unmasked"):
            restrict_face_flux(fine, coarse, np.ones(fine.n_faces))

    def test_transfer_density_conservative(self):
        _, fb, cb = self.setup_pair()
        rng = np.random.default_rng(2)
        state = recover_fluxes(fb, rng.standard_normal(fb.n_unknowns))
        dens = transfer_density(fb, state)
        coarse = restrict_cellwise(fb.grid, cb.grid, dens)
        assert coarse.sum() * cb.grid.cell_volume == pytest.approx(
            dens.sum() * fb.grid.cell_volume, rel=1e-12
        )

    def test_state_equals_reference_gives_zero_errors(self):
        # restriction of a solve against itself (ratio 1) vanishes
        spec = case2(reference_resolution=4)
        grid = spec.grid(4)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        A, b = schur_tpfa(blocks)
        x = np.linalg.solve(A.toarray(), b)
        state = recover_fluxes(blocks, x)
        ref = FineReference(blocks, state, None)
        rec = error_norms(state, blocks, ref, 4)
        for var in ("pD", "pN", "qD", "qS", "qN", "qP"):
            assert rec.get(var) == 0.0

    def test_non_nesting_grids_rejected(self):
        spec = case2(reference_resolution=8)
        with pytest.raises(ValueError, match="nest"):
            run_case(spec, [3, 6])


class TestConvergenceTable:
    def test_rates_and_average(self):
        records = [
            ErrorRecord(16, 1.0, 1.0, 1.0, 1.0, 1.0),
            ErrorRecord(32, 0.25, 0.5, 0.25, 0.125, 0.5),
        ]
        t = ConvergenceTable(records)
        assert t.rates("pD") == [pytest.approx(2.0)]
        assert t.rates("qS") == [pytest.approx(3.0)]
        assert t.average_rate("qD") == pytest.approx(2.0)

    def test_zero_errors_give_no_rate(self):
        records = [
            ErrorRecord(16, 1.0, 0.0, 1.0, 1.0, 1.0),
            ErrorRecord(32, 0.5, 0.0, 0.5, 0.5, 0.5),
        ]
        assert ConvergenceTable(records).rates("pN") == [None]

    def test_mesh_sequence_must_double(self):
        with pytest.raises(ValueError, match="double"):
            run_case(case1("A"), [16, 48])

    def test_case_without_reference_solves_any_meshes(self, tmp_path):
        spec = replace(case1("A"), reference=("none",))
        result = run_case(spec, (8, 24))
        assert len(result.reports) == 2
        assert [c.inv_h for c in result.checks] == [8, 24]
        assert result.table.records == []
        paths = emit_tables(result, tmp_path, no_timings=True)
        assert [p.name for p in map(Path, paths)] == ["case1a_solver.csv"]
        assert len(Path(paths[0]).read_text().splitlines()) == 3


class TestCase1Properties:
    def test_error_monotonicity(self, case1a_result):
        t = case1a_result.table
        for var in ("pD", "pN", "qD", "qS", "qN"):
            errs = t.errors(var)
            assert all(a > b for a, b in zip(errs, errs[1:])), var

    def test_superconvergence_presence(self, case1a_result):
        # second-order cell pressures from a first-order flux scheme
        t = case1a_result.table
        assert t.average_rate("pD") > 1.7
        assert 0.8 < t.average_rate("qD") < 1.3

    def test_network_variables_track_quadrature(self, case1a_result):
        t = case1a_result.table
        assert t.average_rate("pN") >= 3.0
        assert t.average_rate("qN") >= 3.0

    def test_case1b_matches_case1a_bands(self, case1b_result):
        t = case1b_result.table
        assert 1.77 <= t.average_rate("pD") <= 2.27
        assert 0.85 <= t.average_rate("qD") <= 1.15

    def test_conservation_checks_recorded(self, case1a_result):
        for check in case1a_result.checks:
            assert check.local_cells <= 10 * 1e-10 * check.rhs_l2

    def test_case2_solver_complexities_bounded(self, case2_result):
        reports = list(case2_result.reports) + [case2_result.reference_report]
        for rep in reports:
            assert rep.grid_complexity <= 2.2
            assert rep.operator_complexity <= 2.2


class TestEmitTables:
    def test_case1_header_and_shape(self, tmp_path, case1a_result):
        paths = emit_tables(case1a_result, tmp_path)
        lines = open(paths[0]).read().splitlines()
        assert lines[0] == "variable,inv_h,errD,rateD,errS,rateS,errN,rateN"
        # 4 meshes + average, twice (p rows then q rows)
        assert len(lines) == 1 + 2 * 5
        assert lines[1].startswith("p,16,")
        assert lines[5].split(",")[1] == "average"
        solver_lines = open(paths[1]).read().splitlines()
        assert solver_lines[0] == (
            "inv_h,nlevel,grid_comp,oper_comp,niter,cpu_setup,cpu_solve,dof"
        )
        assert len(solver_lines) == 5

    def test_case2_header_includes_transfer_and_perfusion(self, tmp_path, case2_result):
        paths = emit_tables(case2_result, tmp_path, no_timings=True)
        lines = open(paths[0]).read().splitlines()
        assert lines[0] == (
            "variable,inv_h,errD,rateD,errT,rateT,errN,rateN,errP,rateP"
        )
        # solver table includes the fine reference row
        solver_lines = open(paths[1]).read().splitlines()
        assert solver_lines[-1].startswith("64,")

    def test_empty_results_header_only(self, tmp_path):
        from mdflow.harness import CaseResult

        result = CaseResult(
            spec=case1("A"),
            meshes=(),
            table=ConvergenceTable([]),
            reports=[],
            checks=[],
        )
        paths = emit_tables(result, tmp_path)
        for p in paths:
            lines = open(p).read().splitlines()
            assert len(lines) >= 1 and lines[0].startswith(("variable", "inv_h"))


class TestStageMemory:
    def test_each_stage_peaks_below_two_and_a_half_times_the_operator(self):
        # no stage of a solve allocates more than a small multiple of the
        # final system: the Python-side peak above each stage's start, on
        # case 2 at 1/h=32 (at 1/h=16 the fixed-size quadrature batches
        # of coefficients outweigh A).  scipy's C++ allocations are not
        # traced; TestSetupMemory bounds the setup's resident peak.  The
        # steps after the solve take b for the pressures: their memory
        # does not depend on the values.
        spec = case2()
        peaks = {}

        def stage(name, func, *args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = func(*args)
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
            return out

        tracemalloc.start()
        try:
            grid = stage("spec.grid", spec.grid, 32)
            coeffs = stage("coefficients", spec.coefficients, grid)
            blocks = stage("assemble_blocks", assemble_blocks, grid, spec.forest, coeffs)
            A, b = stage("schur_tpfa", schur_tpfa, blocks)
            stage("pressure_kernel", pressure_kernel, blocks, A)
            stage("build_hierarchy", build_hierarchy, A)
            state = stage("recover_fluxes", recover_fluxes, blocks, b)
            stage("conservation_residual", conservation_residual, blocks, state)
            stage("graph_stokes_check", graph_stokes_check, blocks, state)
        finally:
            tracemalloc.stop()
        nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        ratios = {name: round(peak / nbytes, 2) for name, peak in peaks.items()}
        assert max(ratios.values()) <= 2.5, ratios
        # each stage's own bound: its measured multiple plus about 10%
        # (0.09, 1.03, 0.09, 1.53, 0.12, 1.74, 0.66, 0.25 and 0.16: A is
        # filled from transmissibilities and the steps after the solve
        # read each row of G from the faces, support rows and edges, each
        # axis's faces computed on slabs of a brick; the strength graph
        # is tested in row blocks and the Galerkin products summed in
        # blocks of coarse rows)
        bounds = {"spec.grid": 0.1, "coefficients": 1.13, "assemble_blocks": 0.1,
                  "schur_tpfa": 1.68, "pressure_kernel": 0.13, "build_hierarchy": 1.91,
                  "recover_fluxes": 0.73, "conservation_residual": 0.27,
                  "graph_stokes_check": 0.18}
        over = {name: ratios[name] for name, bound in bounds.items()
                if ratios[name] > bound}
        assert not over, (over, ratios)


class TestReleaseBeforeSolve:
    def test_solve_starts_without_the_flux_arrays(self, monkeypatch):
        # nothing derived from the blocks is held when solve_pressure is
        # entered: the bytes traced there beyond A, b and the kernel (the
        # grid's index arrays, the coefficients and the incidence) are
        # pinned at their measured 0.08 x A plus about 10%, so holding
        # G, d, the sources r (0.08 x A) or the grid's face arrays
        # (0.31 x A) fails it (case 2, 1/h=32)
        held = {}

        class Entered(Exception):
            pass

        def solve(A, b, solver, kernel=None):
            held["traced"] = tracemalloc.get_traced_memory()[0]
            held["A"] = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
            held["b, kernel"] = b.nbytes + (0 if kernel is None else kernel.nbytes)
            raise Entered

        monkeypatch.setattr(harness_module, "solve_pressure", solve)
        tracemalloc.start()
        try:
            with pytest.raises(Entered):
                solve_case_mesh(case2(), 32, SolverConfig())
        finally:
            tracemalloc.stop()
        beyond = held["traced"] - held["A"] - held["b, kernel"]
        assert beyond <= 0.088 * held["A"], (held, beyond / held["A"])
