"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

Run from the root of a source checkout: mdflow is imported from ./src.
Prints one JSON object as its last stdout line: setup_s, study_s,
peak_rss_mb, err_pD, the outcome of every operation, a fingerprint of
the numerical results and, when traced, the spans and per-layer metrics.

Every workload is a closed loop: one caller whose every step waits for
the previous one.  The study timer covers mdflow calls only; the output
checks run after it, untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-10

W1_MESHES = (16, 32, 64, 128)
W1_EXTRA_MESH = 256
W2_MESHES = (8, 16, 32)
W3_KS = (6, 8, 10)
W3_MESH = 128
# W3 has no closed-form or built-in reference: its err_pD compares the
# k = 6 solve with a solve of the same forest on this finer grid, made
# after the timed study
W3_REFERENCE_MESH = 256
W3_ERR_LIMIT = 1e-5  # about 40x the error measured over seeds 0-5

INF = float("inf")
# criterion 1 (case 1A) and criterion 4 (case 2) average-rate bands
W1_BANDS = {"pD": (1.77, 2.27), "qD": (0.85, 1.15), "qS": (1.8, 2.3),
            "pN": (3.0, INF), "qN": (3.0, INF)}
W2_BANDS = {"pD": (1.7, 2.3), "qP": (1.65, 2.35), "qD": (1.2, INF), "qS": (0.9, INF)}
W1_ANCHOR = 1.81e-7  # criterion 3: errD_p at 1/h = 16 within a factor of 3


def import_mdflow(root: str):
    """Import mdflow from <root>/src and refuse any other installation."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mdflow

    if os.path.dirname(os.path.dirname(os.path.abspath(mdflow.__file__))) != src:
        raise ImportError(f"mdflow imported from {mdflow.__file__}, not {src}")
    return mdflow


def import_local(name: str):
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    return __import__(name)


# ---------------------------------------------------------------------------
# Operation outcomes
# ---------------------------------------------------------------------------

def op_failed(name: str) -> dict:
    """An operation that raised, or never ran because its step raised."""
    return {"name": name, "ok": False}


def solve_outcome(name, report, graph, local, b_l1, b_l2) -> dict:
    """A mesh solve: converged, and within criterion 8's conservation bounds.

    Criterion 8 runs at tol = 1e-12 and bounds the global balance defect
    by 1e-10 |b|_1 and the local cell and node residuals by 10 tol |b|_2;
    at the run's tol these read 100 tol |b|_1 and 10 tol |b|_2.
    """
    tol = report.tol
    graph_share = graph / (100 * tol * b_l1) if b_l1 else 0.0
    local_share = local / (10 * tol * b_l2) if b_l2 else 0.0
    return {
        "name": name,
        "ok": bool(report.converged and graph_share <= 1 and local_share <= 1),
        "converged": bool(report.converged),
        "iterations": report.iterations,
        "residual_ratio": report.true_residual / tol,
        "graph_share": graph_share,
        "local_share": local_share,
        "dof": report.dof,
    }


def state_outcome(name, mdflow, blocks, state, report, b) -> dict:
    rc, rn = mdflow.conservation_residual(blocks, state)
    return balance_outcome(name, report, b, rc, rn,
                           mdflow.graph_stokes_check(blocks, state))


def balance_outcome(name, report, b, rc, rn, graph) -> dict:
    import numpy as np

    local = max(float(np.abs(rc).max(initial=0.0)), float(np.abs(rn).max(initial=0.0)))
    return solve_outcome(name, report, graph, local,
                         float(np.abs(b).sum()), float(np.linalg.norm(b)))


def study_outcomes(result, meshes) -> list[dict]:
    """run_case solves, judged from the CaseResult's own MeshCheck records.

    run_case keeps only the report of a fine-grid reference.  Its local
    balance residual is its solver residual, so a true residual within
    10 tol (`converged`) already meets the local bound; its global
    balance is not checked.
    """
    ops = []
    ref = result.reference_report
    if ref is not None:
        ops.append({
            "name": f"reference_{result.spec.reference[1]}",
            "ok": bool(ref.converged),
            "converged": bool(ref.converged),
            "iterations": ref.iterations,
            "residual_ratio": ref.true_residual / ref.tol,
            "dof": ref.dof,
        })
    for m, report, check in zip(meshes, result.reports, result.checks):
        ops.append(solve_outcome(
            f"mesh_{m}", report, check.graph_stokes,
            max(check.local_cells, check.local_nodes), check.rhs_l1, check.rhs_l2,
        ))
    return ops


def band_outcome(table, bands, problems, extra_ok=True, **detail) -> dict:
    """The study's rate-band check, one operation; a miss is also a problem."""
    rates = {v: table.average_rate(v) for v in bands}
    inside = {v: rates[v] is not None and lo <= rates[v] <= hi
              for v, (lo, hi) in bands.items()}
    ok = all(inside.values()) and extra_ok
    if not ok:
        problems.append(f"rate bands missed: rates {rates}, {detail}")
    return {"name": "rate_bands", "ok": ok, "rates": rates, "inside": inside, **detail}


def table_fingerprint(result):
    return [(r.inv_h, r.pD, r.pN, r.qD, r.qS, r.qN, r.qP) for r in result.table.records] + [
        rep.iterations for rep in result.reports
    ]


# ---------------------------------------------------------------------------
# Workloads: setup (inputs), study (timed), check (untimed)
# ---------------------------------------------------------------------------

class Study:
    """Runs steps of a study, recording rather than propagating exceptions."""

    def __init__(self):
        self.errors: list[str] = []

    def attempt(self, fn, *args):
        try:
            return fn(*args)
        except Exception:
            self.errors.append(traceback.format_exc())
            return None


def w1_setup(mdflow, seed):
    spec = mdflow.case1("A")
    return {"spec": spec, "constants": mdflow.solve_constants(spec.reference[1])}


def w1_study(mdflow, inputs, study, emit_dir):
    spec = inputs["spec"]

    def case():
        result = mdflow.run_case(spec, W1_MESHES)
        mdflow.emit_tables(result, emit_dir)
        return result

    result = study.attempt(case)
    cfg = mdflow.SolverConfig(tol=TOL)
    extra = study.attempt(mdflow.solve_case_mesh, spec, W1_EXTRA_MESH, cfg)
    return result, extra


def w1_check(mdflow, inputs, outputs):
    result, extra = outputs
    problems = []
    if result is None:
        ops = [op_failed(f"mesh_{m}") for m in W1_MESHES] + [op_failed("rate_bands")]
        err, fingerprint = math.nan, None
    else:
        e16 = result.table.records[0].pD
        ops = study_outcomes(result, W1_MESHES) + [band_outcome(
            result.table, W1_BANDS, problems,
            extra_ok=W1_ANCHOR / 3 <= e16 <= 3 * W1_ANCHOR, errD_p_16=e16,
        )]
        err, fingerprint = result.table.records[-1].pD, table_fingerprint(result)
    name = f"mesh_{W1_EXTRA_MESH}"
    if extra is None:
        ops.append(op_failed(name))
    else:
        ops.append(state_outcome(name, mdflow, *extra))
        fingerprint = [fingerprint, extra[2].iterations, float(extra[1].pD.sum())]
    return ops, err, problems, fingerprint


def w2_setup(mdflow, seed):
    return {"spec": mdflow.case2()}


def w2_study(mdflow, inputs, study, emit_dir):
    def case():
        result = mdflow.run_case(inputs["spec"], W2_MESHES)
        mdflow.emit_tables(result, emit_dir)
        return result

    return study.attempt(case)


def w2_check(mdflow, inputs, result):
    if result is None:
        names = [f"reference_{inputs['spec'].reference[1]}"]
        names += [f"mesh_{m}" for m in W2_MESHES] + ["rate_bands"]
        return [op_failed(n) for n in names], math.nan, [], None
    problems = []
    ops = study_outcomes(result, W2_MESHES) + [
        band_outcome(result.table, W2_BANDS, problems)
    ]
    return ops, result.table.records[-1].pD, problems, table_fingerprint(result)


def w3_setup(mdflow, seed):
    forest_gen = import_local("forest_gen")
    return {"specs": [forest_gen.forest_case(k, seed) for k in W3_KS]}


def w3_study(mdflow, inputs, study, emit_dir):
    cfg = mdflow.SolverConfig(tol=TOL)

    def one(spec):
        blocks, state, report, b = mdflow.solve_case_mesh(spec, W3_MESH, cfg)
        rc, rn = mdflow.conservation_residual(blocks, state)
        graph = mdflow.graph_stokes_check(blocks, state)
        return blocks, state, report, b, rc, rn, graph

    return [study.attempt(one, spec) for spec in inputs["specs"]]


def w3_check(mdflow, inputs, solved):
    """Conservation per solve, a maximum principle, and a fine-grid comparison.

    With no sources and root pressures 0 and 1 every pressure must lie
    in [0, 1].  err_pD compares the k = 6 solve with the same forest
    solved on the finer grid, restricted to the coarse cells.
    """
    ops, problems, fingerprint = [], [], []
    for k, item in zip(W3_KS, solved):
        if item is None:
            ops.append(op_failed(f"forest_k{k}"))
            continue
        blocks, state, report, b, rc, rn, graph = item
        ops.append(balance_outcome(f"forest_k{k}", report, b, rc, rn, graph))
        lo = min(state.pD.min(), state.pN.min())
        hi = max(state.pD.max(), state.pN.max())
        if lo < -1e-8 or hi > 1 + 1e-8:
            problems.append(f"k={k}: pressures span [{lo}, {hi}], outside [0, 1]")
        fingerprint.append((k, report.iterations, float(state.pD.sum())))
    err = math.nan
    if solved[0] is not None:
        blocks, state = solved[0][:2]
        cfg = mdflow.SolverConfig(tol=TOL)
        try:
            fine = mdflow.solve_case_mesh(inputs["specs"][0], W3_REFERENCE_MESH, cfg)
            ref = mdflow.FineReference(blocks=fine[0], state=fine[1], report=fine[2])
            err = mdflow.error_norms(state, blocks, ref, W3_MESH).pD
        except Exception:
            problems.append(traceback.format_exc())
        else:
            if not fine[2].converged:
                problems.append(f"reference at 1/h={W3_REFERENCE_MESH} did not converge")
            if not err <= W3_ERR_LIMIT:
                problems.append(f"err_pD {err:.3e} above {W3_ERR_LIMIT:.0e}")
    return ops, err, problems, fingerprint + [err]


WORKLOADS = {
    "w1_case1a": (w1_setup, w1_study, w1_check),
    "w2_case2": (w2_setup, w2_study, w2_check),
    "w3_forest": (w3_setup, w3_study, w3_check),
}


def spec_hashes(mdflow, inputs) -> dict:
    """sha256 of case_to_text of each generated W3 spec."""
    return {
        spec.name: hashlib.sha256(mdflow.case_to_text(spec).encode()).hexdigest()
        for spec in inputs.get("specs", ())
    }


# ---------------------------------------------------------------------------
# Process entry
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", default=os.getcwd())
    parser.add_argument("--workdir", default=None, help="parent of the emit directory")
    args = parser.parse_args(argv)
    setup, run, check = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    mdflow = import_mdflow(args.root)
    tracer = None
    if args.trace:
        tracing = import_local("tracing")
        tracer = tracing.Tracer(f"{args.workload}-s{args.seed}-p{os.getpid()}")
        for name, owners, attr, count in tracing.layer_wraps(
            mdflow, [import_local("forest_gen")]
        ):
            tracer.wrap(name, owners, attr, count)
        span = tracer.begin("bench.setup")
    inputs = setup(mdflow, args.seed)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
    record = {"setup_s": setup_s, "spec_sha256": spec_hashes(mdflow, inputs)}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    import numpy
    import scipy

    record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "mdflow": mdflow.__version__}

    study = Study()
    emit_dir = tempfile.mkdtemp(prefix="emit-", dir=args.workdir or args.root)
    try:
        if tracer is not None:
            span = tracer.begin("bench.study")
        t1 = time.perf_counter()
        outputs = run(mdflow, inputs, study, emit_dir)
        study_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.end(span)
            tracer.restore()
        peak = import_local("tracing").peak_rss_mb()
        ops, err, problems, fingerprint = check(mdflow, inputs, outputs)
    finally:
        shutil.rmtree(emit_dir, ignore_errors=True)

    problems = study.errors + problems
    if not (math.isfinite(err) and err > 0):
        problems.append(f"err_pD is {err}")
    record.update(
        study_s=study_s,
        peak_rss_mb=peak,
        err_pD=err,
        ops=ops,
        problems=problems,
        fingerprint=hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16],
    )
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = tracer.dump()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
