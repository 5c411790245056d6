"""Convergence studies: run a case over a mesh sequence and score errors.

Pressure errors use the cell-centered L2 quadrature; flux errors use the
lumped inverse-permeability weights (face fluxes), plain volume weights
(scaled transfer fluxes), and inverse edge conductivities (network
fluxes).  On 4D grids the flux along the last axis is reported
separately as the perfusion flux.

Two reference kinds are supported.  A series reference compares against
the closed-form radial solution: pressures sampled at cell centres,
transfer fluxes by the assembly's cell quadrature, and face fluxes
scored as a field error of the reconstructed flux field.  A fine-grid
reference restricts a fine solve on a nested unmasked grid
conservatively: cell quantities by volume averaging over blocks of
fine cells, face fluxes by summing the fine fluxes across each coarse
face, and the transfer exchange by volume-averaging the physical
transfer flux density.  A case without a reference yields solver
reports and conservation checks with an empty error table.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    LumpedBlocks,
    MixedState,
    _atomic_write,
    _face_weights_by_axis,
    assemble_blocks,
    conservation_residual,
    graph_stokes_check,
    pressure_kernel,
    recover_fluxes,
    schur_tpfa,
)
from .geometry import CartesianGrid
from .model import CaseSpec
from .reference import RadialSolution, eval_solution, solve_constants
from .solver import SolverConfig, SolveReport, solve_pressure


@dataclass
class ErrorRecord:
    inv_h: int
    pD: float
    pN: float
    qD: float
    qS: float
    qN: float
    qP: float | None = None

    def get(self, var: str):
        return getattr(self, var)


@dataclass
class ConvergenceTable:
    """Error records over a doubling mesh sequence, with log2 rates."""

    records: list

    def errors(self, var: str):
        return [r.get(var) for r in self.records]

    def rates(self, var: str):
        errs = self.errors(var)
        out = []
        for coarse, fine in zip(errs, errs[1:]):
            if coarse is None or fine is None or coarse <= 0 or fine <= 0:
                out.append(None)
            else:
                out.append(math.log2(coarse / fine))
        return out

    def average_rate(self, var: str):
        rates = [r for r in self.rates(var) if r is not None]
        return sum(rates) / len(rates) if rates else None


@dataclass
class SeriesReference:
    solution: RadialSolution
    center: tuple[float, float]


@dataclass
class FineReference:
    blocks: LumpedBlocks
    state: MixedState
    report: SolveReport


def flux_field_error(
    state: MixedState, blocks: LumpedBlocks, ref: SeriesReference
) -> float:
    """Inverse-permeability-weighted L2 error of the reconstructed flux field.

    The face unknowns induce a per-cell flux field linear along each
    axis between the two face normal components (zero on walls); this
    integrates its difference to the exact radial flux over the domain.
    Unlike the face-value comparison, which superconverges at face
    midpoints on uniform grids, this measures the flux field the scheme
    actually represents and converges first order.
    """
    grid = blocks.grid
    sol = ref.solution
    center = np.asarray(ref.center, dtype=float)
    centers = grid.cell_centers()
    pts, w = grid.quadrature()
    r = np.linalg.norm(pts - center, axis=2)
    qr = eval_solution(sol, r)[1]
    total = 0.0
    for a, q in enumerate(grid.face_slabs(state.qD)):
        # normal flux density on each cell's lower and upper face of axis a, 0 on walls
        qn = q / grid.face_area[a]
        qn_dn, qn_up = (grid.gather(np.insert(qn, i, 0.0, axis=a)) for i in (0, qn.shape[a]))
        xi = (pts[:, :, a] - centers[:, None, a]) / grid.spacing[a] + 0.5
        recon = (1.0 - xi) * qn_dn[:, None] + xi * qn_up[:, None]
        with np.errstate(invalid="ignore"):
            exact = np.where(
                r > 0, qr * (pts[:, :, a] - center[a]) / np.where(r > 0, r, 1.0), 0.0
            )
        err2 = ((recon - exact) ** 2) @ w
        total += float((err2 / blocks.coeffs.kD[:, a]).sum()) * grid.cell_volume
    return math.sqrt(total)


def _grid_ratio(fine: CartesianGrid, coarse: CartesianGrid) -> np.ndarray:
    if fine.dim != coarse.dim:
        raise ValueError("grid dimensions differ")
    if not np.allclose(fine.origin, coarse.origin):
        raise ValueError("grid origins differ")
    if not (fine.mask.all() and coarse.mask.all()):
        raise ValueError("restriction needs unmasked grids")
    ratio = np.asarray(fine.cells) // np.asarray(coarse.cells)
    if np.any(ratio * np.asarray(coarse.cells) != np.asarray(fine.cells)):
        raise ValueError(f"grids do not nest: {fine.cells} vs {coarse.cells}")
    return ratio


def _block_sum(values: np.ndarray, ratio) -> np.ndarray:
    """Sums of blocks of ratio[k] entries along each axis k, C order, flat.

    Reshaped to (c0, r0, c1, r1, ...), the block axes are moved in front
    and summed one block entry after another in C order, so every sum
    is rounded the same whatever the array's shape.
    """
    shape = [n for size, r in zip(values.shape, ratio) for n in (size // r, r)]
    order = [*range(1, len(shape), 2), *range(0, len(shape), 2)]
    blocks = values.reshape(shape).transpose(order)
    return blocks.reshape(math.prod(ratio), -1).sum(axis=0)


def restrict_cellwise(fine: CartesianGrid, coarse: CartesianGrid, values):
    """Volume-average a fine cell field into coarse cells (conservative)."""
    ratio = _grid_ratio(fine, coarse)
    weights = (np.asarray(values) * fine.cell_volume).reshape(fine.cells)
    return _block_sum(weights, ratio) / coarse.cell_volume


def restrict_face_flux(fine: CartesianGrid, coarse: CartesianGrid, q_fine):
    """Sum fine face-integrated fluxes across each coarse interior face.

    The fine faces of axis a fill its face slab (`CartesianGrid.face_slabs`);
    the coarse faces are every ratio[a]-th plane of it, summed in blocks
    along the other axes.
    """
    ratio = _grid_ratio(fine, coarse)
    out = []
    for a, q in enumerate(fine.face_slabs(q_fine)):
        planes = q.take(np.arange(ratio[a] - 1, q.shape[a], ratio[a]), axis=a)
        across = ratio.copy()
        across[a] = 1
        out.append(_block_sum(planes, across))
    return np.concatenate(out)


def transfer_density(blocks: LumpedBlocks, state: MixedState) -> np.ndarray:
    """Physical transfer flux density kS * qS summed per cell, dense."""
    weights = blocks.sup_ks * state.qS
    return np.bincount(blocks.sup_cell, weights, minlength=blocks.n_cells)


def error_norms(
    state: MixedState,
    blocks: LumpedBlocks,
    reference,
    inv_h: int,
) -> ErrorRecord:
    """Weighted error norms of a state against a reference."""
    grid = blocks.grid
    vol = grid.cell_volume

    if isinstance(reference, SeriesReference):
        # pressure sampled at cell centres; transfer flux from the
        # assembly's cell quadrature of the exact pressure drop
        sol = reference.solution
        center = np.asarray(reference.center, dtype=float)
        r_cells = np.linalg.norm(grid.cell_centers() - center, axis=1)
        ref_pD = eval_solution(sol, r_cells)[0]
        ref_qD = None  # flux scored as a field error below
        pts, w = grid.quadrature(cells=blocks.sup_cell)
        r = np.linalg.norm(pts - center, axis=2)
        p_exact = eval_solution(sol, r)[0]
        ref_qS = -blocks.sup_ks * ((p_exact - sol.pN1) @ w)
        err_qS = math.sqrt(float(vol * ((state.qS - ref_qS) ** 2).sum()))
        ref_pN, ref_qN = sol.pN1, sol.qN
    elif isinstance(reference, FineReference):
        fine_grid = reference.blocks.grid
        ref_pD = restrict_cellwise(fine_grid, grid, reference.state.pD)
        ref_qD = restrict_face_flux(fine_grid, grid, reference.state.qD)
        t_fine = restrict_cellwise(
            fine_grid, grid, transfer_density(reference.blocks, reference.state)
        )
        t_coarse = transfer_density(blocks, state)
        err_qS = math.sqrt(float(vol * ((t_coarse - t_fine) ** 2).sum()))
        ref_pN, ref_qN = reference.state.pN, reference.state.qN
    else:
        raise TypeError(f"unsupported reference {type(reference).__name__}")

    err_pD = math.sqrt(float(vol * ((state.pD - ref_pD) ** 2).sum()))
    err_pN = math.sqrt(float(((state.pN - ref_pN) ** 2).sum()))
    err_qP = None
    if ref_qD is None:
        err_qD = flux_field_error(state, blocks, reference)
    else:
        dq = state.qD - ref_qD
        faces = _face_weights_by_axis(grid, blocks.coeffs.kD)
        wq = np.concatenate([grid.gather(d, a) for a, d in faces]) * dq**2
        # the faces of a 4D grid's last axis, the perfusion faces, come last
        perf = grid.n_faces - (grid.face_counts[3] if grid.dim == 4 else 0)
        err_qD = math.sqrt(float(wq[:perf].sum()))
        if grid.dim == 4:
            err_qP = math.sqrt(float(wq[perf:].sum()))
    err_qN = math.sqrt(float(((state.qN - ref_qN) ** 2 / blocks.edge_k).sum()))
    return ErrorRecord(
        inv_h=inv_h, pD=err_pD, pN=err_pN, qD=err_qD, qS=err_qS, qN=err_qN, qP=err_qP
    )


@dataclass
class MeshCheck:
    """Conservation diagnostics of one converged run."""

    inv_h: int
    graph_stokes: float
    local_cells: float
    local_nodes: float
    rhs_l1: float
    rhs_l2: float


@dataclass
class CaseResult:
    spec: CaseSpec
    meshes: tuple
    table: ConvergenceTable
    reports: list
    checks: list
    reference_report: SolveReport | None = None
    states: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def all_converged(self) -> bool:
        ok = all(r.converged for r in self.reports)
        if self.reference_report is not None:
            ok = ok and self.reference_report.converged
        return ok


def solve_case_mesh(spec: CaseSpec, m: int, solver: SolverConfig):
    """Assemble and solve one mesh of a case; returns (blocks, state, report, b).

    Every step reads the grid's faces, the support rows and the
    incidence held by the blocks and forms G and d nowhere, so the solve
    holds only A, b and the kernel beyond the blocks' inputs.
    """
    grid = spec.grid(m)
    coeffs = spec.coefficients(grid)
    blocks = assemble_blocks(grid, spec.forest, coeffs)
    A, b = schur_tpfa(blocks)
    kernel = pressure_kernel(blocks, A)
    x, report = solve_pressure(A, b, solver, kernel=kernel)
    state = recover_fluxes(blocks, x)
    return blocks, state, report, b


def run_case(
    spec: CaseSpec,
    meshes,
    solver: SolverConfig | None = None,
    keep_states: bool = False,
) -> CaseResult:
    """Run a case over a mesh sequence and collect errors.

    The default solver tolerance (1e-10) is deliberately far below the
    discretization error at these scales so that measured rates show
    the scheme, not the iterative solver.  A fine-grid reference is
    solved once, at the tighter of that tolerance and 1e-10, at a
    resolution that every mesh divides and none reaches.  Rates need
    the meshes of a case with a reference to double; a case
    without one ("none") takes any mesh list and yields its reports and
    checks with an empty table.
    """
    meshes = tuple(int(m) for m in meshes)
    kind = spec.reference[0]
    if kind != "none":
        for coarse, fine in zip(meshes, meshes[1:]):
            if fine != 2 * coarse:
                raise ValueError(f"mesh sequence must double: {meshes}")
    solver = solver or SolverConfig(tol=1e-10)

    t_start = time.perf_counter()
    reference = reference_report = None
    if kind == "series":
        sol = solve_constants(spec.reference[1])
        center = spec.transfers[0].anchor if spec.transfers else (0.0, 0.0)
        reference = SeriesReference(solution=sol, center=tuple(center))
    elif kind == "finegrid":
        resolution = spec.reference[1]
        finest = max(meshes, default=0)
        if resolution <= finest:
            # a reference no finer than a mesh scores that mesh against itself
            raise ValueError(
                f"reference resolution {resolution} is not finer than mesh {finest}"
            )
        for m in meshes:
            if resolution % m:
                raise ValueError(
                    f"reference resolution {resolution} does not nest mesh {m}"
                )
        fine_solver = replace(solver, tol=min(solver.tol, 1e-10))
        fb, fstate, freport, _ = solve_case_mesh(spec, resolution, fine_solver)
        reference = FineReference(blocks=fb, state=fstate, report=freport)
        reference_report = freport
    elif kind != "none":
        raise ValueError(f"unknown reference kind {kind!r}")

    records, reports, check_list = [], [], []
    states = {}
    for m in meshes:
        blocks, state, report, b = solve_case_mesh(spec, m, solver)
        res_c, res_n = conservation_residual(blocks, state)
        check_list.append(
            MeshCheck(
                inv_h=m,
                graph_stokes=graph_stokes_check(blocks, state),
                local_cells=float(np.max(np.abs(res_c), initial=0.0)),
                local_nodes=float(np.max(np.abs(res_n), initial=0.0)),
                rhs_l1=float(np.abs(b).sum()),
                rhs_l2=float(np.linalg.norm(b)),
            )
        )
        if reference is not None:
            records.append(error_norms(state, blocks, reference, m))
        reports.append(report)
        if keep_states:
            states[m] = (blocks, state)

    return CaseResult(
        spec=spec,
        meshes=meshes,
        table=ConvergenceTable(records),
        reports=reports,
        checks=check_list,
        reference_report=reference_report,
        states=states,
        elapsed_seconds=time.perf_counter() - t_start,
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt_err(e):
    return "" if e is None else f"{e:.6e}"


def _fmt_rate(r):
    return "" if r is None else f"{r:.4f}"


def emit_tables(result: CaseResult, outdir, no_timings: bool = False):
    """Write the convergence and solver CSV tables; returns the paths.

    The convergence table mirrors the two-row-group layout (pressure
    variables, then flux variables); 4D cases get extra transfer and
    perfusion columns, and each unconverged mesh, and an unconverged
    fine reference, a trailing comment line.  A case without a reference
    gets the solver table alone.
    """
    os.makedirs(outdir, exist_ok=True)
    name = result.spec.name
    table = result.table
    # (suffix, pressure variable, flux variable) of each err/rate column pair
    columns = [("D", "pD", "qD"), ("S", None, "qS"), ("N", "pN", "qN")]
    if result.spec.dim == 4:
        columns[1:] = [("T", None, "qS"), ("N", "pN", "qN"), ("P", None, "qP")]
    lines = ["variable,inv_h," + ",".join(f"err{c},rate{c}" for c, _, _ in columns)]
    for label, pos in (("p", 1), ("q", 2)) if table.records else ():
        variables = [col[pos] for col in columns]
        rates = {v: [None] + table.rates(v) for v in variables if v}
        for i, rec in enumerate(table.records):
            row = [label, str(rec.inv_h)]
            for v in variables:
                row += [_fmt_err(rec.get(v)), _fmt_rate(rates[v][i])] if v else ["", ""]
            lines.append(",".join(row))
        avg = [label, "average"]
        for v in variables:
            avg += ["", _fmt_rate(table.average_rate(v)) if v else ""]
        lines.append(",".join(avg))
    for rec, rep in zip(table.records, result.reports):
        if not rep.converged:
            lines.append(f"# mesh {rec.inv_h}: solver did not converge")
    if result.reference_report is not None and not result.reference_report.converged:
        lines.append(f"# reference {result.spec.reference[1]}: solver did not converge")
    paths = []
    if result.spec.reference[0] != "none":
        paths.append(os.path.join(outdir, f"{name}_convergence.csv"))
        _atomic_write(paths[-1], "\n".join(lines) + "\n")

    solver_rows = list(zip(result.meshes, result.reports))
    if result.reference_report is not None:
        solver_rows.append((result.spec.reference[1], result.reference_report))
    solver_lines = [SolveReport.CSV_HEADER]
    solver_lines += [rep.csv_row(m, no_timings=no_timings) for m, rep in solver_rows]
    paths.append(os.path.join(outdir, f"{name}_solver.csv"))
    _atomic_write(paths[-1], "\n".join(solver_lines) + "\n")
    return paths
