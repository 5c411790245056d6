"""Command-line entry point.

Subcommands:
  case1a | case1b | case2   run a built-in case over a mesh sequence
  reference                 dump the radial reference profile as CSV
  solve                     solve an exported system (Matrix Market + rhs)
  custom                    run a case described by a plain-text config

Outputs land in --out (or $MDFLOW_OUT, or the working directory) and
are written atomically.  Exit codes: 0 success, 1 validation error or
failed allocation, 2 solver non-convergence.  Re-running a command
with identical inputs reproduces the CSVs byte for byte except for
timing columns; pass --no-timings to zero those for golden-file
comparisons.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .assembly import _atomic_write, export_state_csv, read_matrix_market
from .harness import emit_tables, run_case
from .model import builtin_case, case_from_text
from .reference import profile_table, solve_constants
from .solver import CYCLES, SolveReport, SolverConfig, solve_pressure


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, maxit=args.maxit, cycle=args.cycle)


def _parse_meshes(text: str, require_pow2: bool):
    try:
        meshes = tuple(int(m) for m in text.split(","))
    except ValueError as exc:
        raise _CliError(f"bad mesh list {text!r}") from exc
    if not meshes or any(m <= 0 for m in meshes):
        raise _CliError("mesh sizes must be positive")
    if require_pow2 and any(m & (m - 1) for m in meshes):
        raise _CliError(f"built-in cases need power-of-two meshes, got {meshes}")
    return meshes


def _outdir(args) -> str:
    return args.out or os.environ.get("MDFLOW_OUT") or "."


def _add_solver_flags(p, tol):
    """Flags the case commands and `solve` share; tol is the --tol default."""
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--tol", type=float, default=tol,
                   help="relative residual tolerance (default %(default)g)")
    p.add_argument("--maxit", type=int, default=500)
    p.add_argument("--cycle", default="K", choices=CYCLES,
                   help="multigrid cycle: K (default) or V, the paper's V(1,1)")
    p.add_argument("--no-timings", action="store_true",
                   help="zero the timing columns (golden-file testing)")


def _add_study_flags(p, default_meshes):
    p.add_argument("--meshes", default=default_meshes,
                   help=f"comma-separated 1/h values (default {default_meshes})")
    _add_solver_flags(p, tol=1e-10)
    p.add_argument("--export-states", action="store_true",
                   help="also write per-mesh state CSVs")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mdflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, meshes in (("case1a", "16,32,64,128"),
                         ("case1b", "16,32,64,128"),
                         ("case2", "8,16,32")):
        p = sub.add_parser(name, help=f"run {name}")
        _add_study_flags(p, meshes)
        if name == "case2":
            p.add_argument("--reference-resolution", type=int, default=64)

    p = sub.add_parser("reference", help="radial reference profile CSV")
    p.add_argument("--case", default="1a", choices=["1a", "1b"])
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="solve an exported linear system")
    p.add_argument("--matrix", required=True, help="Matrix Market file")
    p.add_argument("--rhs", required=True, help="plain-text right-hand side")
    _add_solver_flags(p, tol=1e-6)

    p = sub.add_parser("custom", help="run a case from a config file")
    p.add_argument("--config", required=True)
    _add_study_flags(p, "16,32")
    return parser


def _run_study(args, spec, meshes, solver) -> int:
    """Run a case, write its tables and optional states."""
    outdir = _outdir(args)
    result = run_case(spec, meshes, solver=solver, keep_states=args.export_states)
    emit_tables(result, outdir, no_timings=args.no_timings)
    for m, (blocks, state) in result.states.items():
        export_state_csv(blocks, state, os.path.join(outdir, f"{spec.name}_m{m}"))
    return 0 if result.all_converged else 2


def _run_builtin(args) -> int:
    if args.command == "case2":
        if args.reference_resolution <= 0:
            raise _CliError("--reference-resolution must be positive, "
                            f"got {args.reference_resolution}")
        spec = builtin_case("case2", reference_resolution=args.reference_resolution)
    else:
        spec = builtin_case(args.command)
    meshes = _parse_meshes(args.meshes, require_pow2=True)
    return _run_study(args, spec, meshes, _solver_config(args))


def _run_custom(args) -> int:
    with open(args.config) as f:
        spec = case_from_text(f.read())
    meshes = _parse_meshes(args.meshes, require_pow2=False)
    return _run_study(args, spec, meshes, _solver_config(args))


def _run_reference(args) -> int:
    spec = builtin_case(f"case1{args.case[-1]}")
    sol = solve_constants(spec.reference[1])
    rows = profile_table(sol, n_samples=args.samples, r_max=args.rmax)
    lines = ["r,pD,q_r"]
    for r, p, q in rows:
        lines.append(f"{r:.10e},{p:.10e},{q:.10e}")
    outdir = _outdir(args)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"case1{args.case[-1]}_reference.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return 0


def _run_solve(args) -> int:
    A = read_matrix_market(args.matrix)
    b = np.loadtxt(args.rhs, dtype=float, ndmin=1)
    x, report = solve_pressure(A, b, _solver_config(args))
    outdir = _outdir(args)
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(
        os.path.join(outdir, "solution.txt"),
        "\n".join(f"{v:.17e}" for v in x) + "\n",
    )
    _atomic_write(
        os.path.join(outdir, "solve_report.csv"),
        SolveReport.CSV_HEADER + "\n"
        + report.csv_row("-", no_timings=args.no_timings) + "\n",
    )
    return 0 if report.converged else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("case1a", "case1b", "case2"):
            return _run_builtin(args)
        if args.command == "custom":
            return _run_custom(args)
        if args.command == "reference":
            return _run_reference(args)
        if args.command == "solve":
            return _run_solve(args)
        raise _CliError(f"unknown command {args.command!r}")
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
