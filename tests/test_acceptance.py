"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
line per criterion alongside the measured numbers.
"""

import numpy as np
import scipy.sparse as sp

from mdflow.assembly import (
    assemble_blocks,
    conservation_residual,
    graph_stokes_check,
    schur_tpfa,
)
from mdflow.geometry import (
    TransferSpec,
    build_forest,
    build_support,
    dirichlet_root,
    terminal,
)
from mdflow.harness import solve_case_mesh
from mdflow.model import CoefficientField, case1, case2
from mdflow.reference import (
    bessel,
    bessel_deriv,
    eval_solution,
    ode_residual_check,
    solve_constants,
    transfer_balance,
)
from mdflow.solver import SolverConfig

from oracles import lumped_rt0_schur_dense, product_form


def _verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_case1a_convergence(case1a_result):
    t = case1a_result.table
    rates = {v: t.average_rate(v) for v in ("pD", "qD", "qS", "pN", "qN")}
    ok = (
        1.77 <= rates["pD"] <= 2.27
        and 0.85 <= rates["qD"] <= 1.15
        and 1.8 <= rates["qS"] <= 2.3
        and rates["pN"] >= 3.0
        and rates["qN"] >= 3.0
        and case1a_result.all_converged
        and case1a_result.elapsed_seconds < 120.0
    )
    _verdict(
        1,
        ok,
        f"avg rates pD={rates['pD']:.2f} qD={rates['qD']:.2f} "
        f"qS={rates['qS']:.2f} pN={rates['pN']:.2f} qN={rates['qN']:.2f}, "
        f"{case1a_result.elapsed_seconds:.0f}s",
    )


def test_criterion_2_case1b_convergence(case1b_result):
    t = case1b_result.table
    rates = {v: t.average_rate(v) for v in ("pD", "qD", "qS", "pN", "qN")}
    ok = (
        1.77 <= rates["pD"] <= 2.27
        and 0.85 <= rates["qD"] <= 1.15
        and rates["qS"] >= 1.8
        and rates["pN"] >= 3.0
        and rates["qN"] >= 3.0
        and case1b_result.all_converged
    )
    _verdict(
        2,
        ok,
        f"avg rates pD={rates['pD']:.2f} qD={rates['qD']:.2f} "
        f"qS={rates['qS']:.2f} pN={rates['pN']:.2f} qN={rates['qN']:.2f} "
        f"(degeneracy of the scaled coefficient does not change the bands)",
    )


def test_criterion_3_case1a_error_anchor(case1a_result):
    err16 = case1a_result.table.records[0].pD
    anchor = 1.81e-7
    ok = anchor / 3 <= err16 <= anchor * 3
    _verdict(3, ok, f"errD_p(1/h=16) = {err16:.3e}, anchor {anchor:.2e} (x3 slack)")


def test_criterion_4_case2_convergence(case2_result):
    t = case2_result.table
    rates = {v: t.average_rate(v) for v in ("pD", "qP", "qD", "qS")}
    ok = (
        1.7 <= rates["pD"] <= 2.3
        and 1.65 <= rates["qP"] <= 2.35
        and rates["qD"] >= 1.2
        and rates["qS"] >= 0.9
        and case2_result.all_converged
        and case2_result.elapsed_seconds < 600.0
    )
    _verdict(
        4,
        ok,
        f"avg rates pD={rates['pD']:.2f} qP={rates['qP']:.2f} "
        f"qD={rates['qD']:.2f} qT={rates['qS']:.2f}, "
        f"{case2_result.elapsed_seconds:.0f}s",
    )


def test_criterion_5_solver_metrics(case1a_solver_sweep):
    reports = case1a_solver_sweep
    meshes = sorted(reports)
    ok = True
    details = []
    for m in meshes:
        r = reports[m]
        ok &= r.grid_complexity <= 1.8
        ok &= r.operator_complexity <= 2.1
        ok &= r.converged
        details.append(f"{m}:{r.iterations}it gc={r.grid_complexity:.2f}")
    for a, b in zip(meshes, meshes[1:]):
        ok &= reports[b].iterations / reports[a].iterations <= 1.8
    _verdict(5, ok, " ".join(details))


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    for m in (2, 3):
        for with_tree in (False, True):
            from mdflow.geometry import CartesianGrid

            g = CartesianGrid((m, m), extent=(1, 1), origin=(-0.5, -0.5))
            rng = np.random.default_rng(10 * m + with_tree)
            if with_tree:
                forest = build_forest(
                    [dirichlet_root(0, 0.7), terminal(1, (0.0, 0.0))],
                    [(0, 1, 1.4)],
                )
                transfer = TransferSpec(1, (0.0, 0.0), 0.2, 0.3, 1.0)
                supports = build_support(g, [transfer])
            else:
                forest, supports = build_forest([], []), build_support(g, ())
            coeffs = CoefficientField(
                kD=rng.uniform(0.5, 2.0, size=(g.n_cells, 2)),
                supports=supports,
                rD=rng.standard_normal(g.n_cells),
                rN={1: -0.2} if with_tree else {},
            )
            A, b = schur_tpfa(assemble_blocks(g, forest, coeffs))
            A_ref, b_ref = lumped_rt0_schur_dense(g, forest, coeffs)
            worst = max(
                worst,
                float(np.abs(A.toarray() - A_ref).max()),
                float(np.abs(b - b_ref).max()),
            )
    ok = worst <= 1e-13
    _verdict(6, ok, f"max entrywise deviation from brute-force oracle {worst:.2e}")


def test_criterion_7_reference_self_consistency():
    worst_iface = 0.0
    worst_ode = 0.0
    worst_balance = 0.0
    for variant in ("A", "B"):
        sol = solve_constants(case1(variant).reference[1])
        p = sol.params
        for r in (p.r0, p.r1, p.r2):
            plo, qlo = eval_solution(sol, r * (1 - 1e-13))
            phi, qhi = eval_solution(sol, r * (1 + 1e-13))
            scale = max(abs(plo), 1e-30)
            worst_iface = max(worst_iface, abs(plo - phi) / scale)
        assert eval_solution(sol, p.r3 + 1e-9)[1] == 0.0
        rng = np.random.default_rng(13)
        samples = rng.uniform(0.02, 0.48, 300)
        keep = (
            np.min(np.abs(samples[:, None] - np.array([[0.1, 0.2, 0.3, 0.4]])), axis=1)
            > 2e-3
        )
        samples = samples[keep][:50]
        worst_ode = max(worst_ode, ode_residual_check(sol, samples))
        worst_balance = max(worst_balance, abs(transfer_balance(sol) + sol.qN))
    worst_wronskian = 0.0
    for nu in (0.11547, 0.57735):
        for x in (0.06, 0.115, 1.0):
            w = bessel("J", nu, x) * bessel_deriv("Y", nu, x) - bessel_deriv(
                "J", nu, x
            ) * bessel("Y", nu, x)
            worst_wronskian = max(worst_wronskian, abs(w - 2 / (np.pi * x)))
    ok = (
        worst_iface <= 1e-12
        and worst_ode <= 1e-6
        and worst_balance <= 1e-8
        and worst_wronskian <= 1e-10
    )
    _verdict(
        7,
        ok,
        f"interface {worst_iface:.1e}, ode {worst_ode:.1e}, "
        f"balance {worst_balance:.1e}, wronskian {worst_wronskian:.1e}",
    )


def test_criterion_8_conservation_suite():
    # a near-exact solve: the global balance identity is algebraic, so
    # the defect it leaves is the solver residual; drive it near the
    # double-precision floor of these systems
    tight = SolverConfig(tol=1e-12, maxit=800)
    worst_gs = 0.0
    worst_local = 0.0
    runs = [(case1("A"), 16), (case1("A"), 32), (case2(), 8)]
    for spec, m in runs:
        blocks, state, report, b = solve_case_mesh(spec, m, tight)
        assert report.converged
        gs = graph_stokes_check(blocks, state)
        rc, rn = conservation_residual(blocks, state)
        local = max(np.abs(rc).max(), np.abs(rn).max(initial=0.0))
        worst_gs = max(worst_gs, gs / (1e-10 * np.abs(b).sum()))
        worst_local = max(worst_local, local / (10 * tight.tol * np.linalg.norm(b)))
    ok = worst_gs <= 1.0 and worst_local <= 1.0
    _verdict(
        8,
        ok,
        f"graph balance at {worst_gs:.2e} of bound, "
        f"local conservation at {worst_local:.2e} of bound",
    )


def test_criterion_9_stability_proxy():
    import time

    t0 = time.perf_counter()
    spec = case1("A")
    sigmas = []
    for m in (4, 8, 16):
        grid = spec.grid(m)
        blocks = assemble_blocks(grid, spec.forest, spec.coefficients(grid))
        G, dq, _, _ = product_form(blocks)
        Md = sp.bmat([[sp.diags(dq), G], [G.T, None]]).toarray()
        nq = G.shape[0]
        d = np.abs(np.diag(Md)).copy()
        d[nq : nq + blocks.n_cells] = grid.cell_volume  # pressure mass weights
        d[nq + blocks.n_cells :] = 1.0
        S = 1.0 / np.sqrt(d)
        sv = np.linalg.svd(S[:, None] * Md * S[None, :], compute_uv=False)
        assert sv.min() > 1e-10
        sigmas.append(float(sv.min()))
    elapsed = time.perf_counter() - t0
    decaying = sigmas[0] > sigmas[1] > sigmas[2] and sigmas[2] < 0.7 * sigmas[0]
    ok = not decaying and elapsed < 30.0
    _verdict(
        9,
        ok,
        "sigma_min = " + ", ".join(f"{s:.4e}" for s in sigmas) + f" ({elapsed:.1f}s)",
    )
