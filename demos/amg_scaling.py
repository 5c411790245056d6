"""Solver scaling: V-cycle against K-cycle on one aggregation hierarchy.

Builds the pressure system at a few resolutions and reports the
multigrid hierarchy metrics plus preconditioned iteration counts for
both cycles.  Grid and operator complexity stay bounded (the cost of
one V-cycle is a fixed multiple of a matrix pass).  With the paper's
V(1,1)-cycle the iterations of plain aggregation grow with 1/h; the
K-cycle, which solves each coarse system with up to two flexible-CG
steps, holds them nearly flat.
"""

from mdflow import assemble_blocks, case1, schur_tpfa, solve_pressure
from mdflow.solver import SolverConfig

spec = case1("A")
print(f"{'1/h':>5} {'dof':>7} {'levels':>6} {'grid':>6} {'oper':>6} "
      f"{'V iters':>7} {'V solve s':>9} {'K iters':>7} {'K solve s':>9}")
for m in (16, 32, 64, 128, 256):
    grid = spec.grid(m)
    blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
    A, b = schur_tpfa(blocks)
    reps = {}
    for cycle in ("V", "K"):
        config = SolverConfig(tol=1e-6, cycle=cycle)
        reps[cycle] = solve_pressure(A, b, config)[1]
    v, k = reps["V"], reps["K"]
    print(f"{m:>5} {k.dof:>7} {k.nlevels:>6} {k.grid_complexity:>6.2f} "
          f"{k.operator_complexity:>6.2f} {v.iterations:>7} "
          f"{v.solve_seconds:>9.3f} {k.iterations:>7} {k.solve_seconds:>9.3f}")
