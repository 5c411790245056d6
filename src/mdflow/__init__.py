"""Mixed-dimensional Darcy flow: tree networks coupled to Cartesian grids.

A finite-volume (two-point flux) discretization of pressure-driven flow
in an n-dimensional porous domain exchanging mass with rooted-tree
networks through distributed terminal supports, together with an
aggregation-based algebraic multigrid solver and a Bessel-series
radial reference solution for verification.
"""

__version__ = "0.1.0"

from .geometry import (
    CartesianGrid,
    Edge,
    Forest,
    Node,
    NodeKind,
    SignedIncidence,
    SupportTable,
    build_forest,
    build_support,
    dirichlet_root,
    forest_from_text,
    forest_to_text,
    incidence,
    interior,
    neumann_root,
    terminal,
    transfer_profile,
)
from .model import (
    CaseSpec,
    CoefficientField,
    RadialParams,
    RingSourceSpec,
    TransferSpec,
    builtin_case,
    case1,
    case2,
    case_from_text,
    case_to_text,
)
from .assembly import (
    LumpedBlocks,
    MixedState,
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
from .solver import (
    AmgHierarchy,
    SolveReport,
    SolverConfig,
    build_hierarchy,
    fgmres,
    solve_pressure,
    vcycle,
)
from .reference import (
    RadialSolution,
    bessel,
    bessel_deriv,
    eval_solution,
    ode_residual_check,
    profile_table,
    solve_constants,
    transfer_balance,
    volume_balance_qN,
)
from .harness import (
    CaseResult,
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
)
