"""A two-compartment model as a 4D grid: arterial and venous Y-trees.

The fourth grid axis has exactly two cells; flux along it is the
perfusion exchange between the compartments.  Arterial terminals feed
the lower compartment (root pressure 1), venous terminals drain the
upper one (root pressure 0).  Errors are measured against a finer solve
of the same model, restricted conservatively.  The demo runs a scaled-
down version of the full study so it finishes in seconds.
"""

from mdflow import case2, run_case, solve_case_mesh
from mdflow.solver import SolverConfig

spec = case2(reference_resolution=16)
result = run_case(spec, meshes=(4, 8))

print("convergence against the fine solve (errors, then rates):")
for rec in result.table.records:
    print(
        f"  1/h={rec.inv_h}: pD={rec.pD:.2e} qD={rec.qD:.2e} "
        f"qT={rec.qS:.2e} qP={rec.qP:.2e}"
    )
for var, label in (("pD", "pressure"), ("qP", "perfusion flux")):
    print(f"  {label} rate: {result.table.rates(var)[0]:.2f}")

# look at the perfusion pattern on one mesh: net flow crosses from the
# arterial to the venous compartment
blocks, state, report, _ = solve_case_mesh(spec, 8, SolverConfig(tol=1e-10))
n_perf = blocks.grid.face_counts[3]  # perfusion faces, the last axis's, come last
q_perf = state.qD[-n_perf:]
print(f"\nperfusion faces: {n_perf}, net arterial->venous flow "
      f"{q_perf.sum():+.4e}")
print(f"root-edge flows (arterial in, venous out): "
      f"{state.qN[0]:+.4e}, {state.qN[3]:+.4e}")
print(f"solver: {report.iterations} iterations, {report.nlevels} levels")
