"""In-memory span recorder that wraps mdflow's public functions from outside.

A traced run rebinds each public name listed by `layer_wraps` in the
modules that call it, so every call records a span (name, start, end,
parent span, run id, peak RSS before and after) plus any counts taken
from its arguments or result.  `Tracer.restore` puts the originals
back.  Nothing inside mdflow is edited; spans stay in memory until the
run writes them out.

Peak RSS is `ru_maxrss` of this process only, so a span's RSS rise is
the growth of the process peak while it ran; nothing system-wide is
traced.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    run: str
    rss_before_mb: float
    rss_after_mb: float


class Tracer:
    """Records nested spans and per-layer counts for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.largest_hierarchy: dict | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), math.nan, parent, self.run_id,
                 peak_rss_mb(), math.nan)
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span.end = time.perf_counter()
        span.rss_after_mb = peak_rss_mb()

    def wrap(self, name: str, owners, attr: str, count=None):
        """Rebind `attr` on every owner to a recording wrapper.

        All owners must currently bind the same object.  `count`, if
        given, is called as count(tracer, args, result) after the span
        closes.
        """
        original = owners[0].__dict__[attr]
        for owner in owners:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the shared original")

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self, args, result)
            return result

        for owner in owners:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, recorded)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


# ---------------------------------------------------------------------------
# What a traced run wraps, and the per-layer metrics derived from it
# ---------------------------------------------------------------------------

def _count_support(tracer, args, support):
    tracer.counts["geometry.support_cells"] += support.cell_idx.size


def _count_blocks(tracer, args, blocks):
    tracer.counts["assembly.dof"] += blocks.n_unknowns


def _count_schur(tracer, args, result):
    tracer.counts["assembly.nnz"] += result[0].nnz


def _count_hierarchy(tracer, args, hierarchy):
    sizes = [level.A.shape[0] for level in hierarchy.levels]
    best = tracer.largest_hierarchy
    if best is None or sizes[0] > best["sizes"][0]:
        tracer.largest_hierarchy = {
            "sizes": sizes,
            "levels": hierarchy.nlevels,
            "grid_complexity": hierarchy.grid_complexity,
            "operator_complexity": hierarchy.operator_complexity,
        }


def _count_solve(tracer, args, result):
    report = result[1]
    tracer.counts["solver.iterations"] += report.iterations
    ratio = report.true_residual / report.tol
    tracer.counts["solver.max_residual_ratio"] = max(
        tracer.counts["solver.max_residual_ratio"], ratio
    )


def _count_emit(tracer, args, paths):
    tracer.counts["harness.emit_bytes"] += sum(os.path.getsize(p) for p in paths)


def layer_wraps(mdflow_pkg, extra_owners=()):
    """(span name, owners, attribute, count hook) for every wrapped call.

    Owners are the modules whose global name the caller looks up: the
    mdflow module that calls the function internally, plus the package
    namespace the benchmark's own files call through.  `radial_cell_average`
    is rebound in `mdflow.model` only, so `model.source` holds the ring
    source quadrature and not the support quadrature inside `build_support`.
    """
    m = mdflow_pkg
    return [
        ("geometry.grid", [m.model.CaseSpec], "grid", None),
        ("model.coefficients", [m.model.CaseSpec], "coefficients", None),
        ("geometry.support", [m.model], "build_support", _count_support),
        ("model.source", [m.model], "radial_cell_average", None),
        ("geometry.forest", [m, m.model, *extra_owners], "build_forest", None),
        ("assembly.blocks", [m.harness], "assemble_blocks", _count_blocks),
        ("assembly.schur", [m.harness], "schur_tpfa", _count_schur),
        ("assembly.flux", [m.harness], "recover_fluxes", None),
        ("assembly.checks", [m, m.harness], "conservation_residual", None),
        ("assembly.checks", [m, m.harness], "graph_stokes_check", None),
        ("solver.pressure", [m.harness], "solve_pressure", _count_solve),
        ("solver.setup", [m.solver], "build_hierarchy", _count_hierarchy),
        ("solver.krylov", [m.solver], "fgmres", None),
        ("solver.vcycle", [m.solver], "vcycle", None),
        ("reference.constants", [m, m.harness], "solve_constants", None),
        ("reference.eval", [m.harness], "eval_solution", None),
        ("harness.errors", [m.harness], "error_norms", None),
        ("harness.emit", [m], "emit_tables", _count_emit),
        ("harness.run_case", [m], "run_case", None),
        ("harness.solve_case_mesh", [m, m.harness], "solve_case_mesh", None),
    ]


# name -> unit, in report order
PER_LAYER = {
    "geometry.grid_s": "s",  # CaseSpec.grid
    "geometry.support_s": "s",  # build_support
    "geometry.support_calls": "count",  # build_support calls
    "geometry.support_cells": "count",  # support cells returned
    "geometry.forest_s": "s",  # build_forest
    "model.coefficients_s": "s",  # CaseSpec.coefficients, self time
    "model.source_s": "s",  # ring source radial_cell_average
    "model.rss_rise_mb": "MB",  # peak RSS growth inside coefficients
    "assembly.blocks_s": "s",  # assemble_blocks
    "assembly.schur_s": "s",  # schur_tpfa
    "assembly.flux_s": "s",  # recover_fluxes
    "assembly.checks_s": "s",  # conservation_residual + graph_stokes_check
    "assembly.dof": "count",  # unknowns assembled
    "assembly.nnz": "count",  # nonzeros of the pressure systems
    "solver.setup_s": "s",  # build_hierarchy
    "solver.levels": "count",  # levels of the largest hierarchy
    "solver.grid_complexity": "ratio",  # of the largest hierarchy
    "solver.operator_complexity": "ratio",  # of the largest hierarchy
    "solver.coarsening_ratio": "ratio",  # geometric mean n_l / n_(l+1), largest
    "solver.solve_s": "s",  # solve_pressure minus build_hierarchy
    "solver.vcycle_s": "s",  # vcycle
    "solver.vcycles": "count",  # vcycle calls
    "solver.krylov_s": "s",  # fgmres self time (fgmres - vcycle)
    "solver.iterations": "count",  # FGMRES iterations, all solves
    "solver.max_residual_ratio": "ratio",  # max true_residual / tol
    "solver.rss_rise_mb": "MB",  # peak RSS growth inside solve_pressure
    "reference.constants_s": "s",  # solve_constants
    "reference.eval_s": "s",  # eval_solution
    "harness.errors_s": "s",  # error_norms, self time
    "harness.emit_s": "s",  # emit_tables
    "harness.emit_bytes": "bytes",  # CSV bytes written
    "harness.self_s": "s",  # run_case + solve_case_mesh, self time
    "trace.overhead_s": "s",  # traced study_s - untraced study_s
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    spans = tracer.spans
    own = self_times(spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    rise = defaultdict(float)
    for span, t in zip(spans, own):
        self_s[span.name] += t
        total_s[span.name] += span.end - span.start
        calls[span.name] += 1
        rise[span.name] += span.rss_after_mb - span.rss_before_mb
    c = tracer.counts
    h = tracer.largest_hierarchy or {"sizes": [1], "levels": 0,
                                     "grid_complexity": 0.0,
                                     "operator_complexity": 0.0}
    sizes = h["sizes"]
    coarsening = (
        (sizes[0] / sizes[-1]) ** (1.0 / (len(sizes) - 1)) if len(sizes) > 1 else 1.0
    )
    return {
        "geometry.grid_s": self_s["geometry.grid"],
        "geometry.support_s": self_s["geometry.support"],
        "geometry.support_calls": calls["geometry.support"],
        "geometry.support_cells": c["geometry.support_cells"],
        "geometry.forest_s": self_s["geometry.forest"],
        "model.coefficients_s": self_s["model.coefficients"],
        "model.source_s": self_s["model.source"],
        "model.rss_rise_mb": rise["model.coefficients"],
        "assembly.blocks_s": self_s["assembly.blocks"],
        "assembly.schur_s": self_s["assembly.schur"],
        "assembly.flux_s": self_s["assembly.flux"],
        "assembly.checks_s": self_s["assembly.checks"],
        "assembly.dof": c["assembly.dof"],
        "assembly.nnz": c["assembly.nnz"],
        "solver.setup_s": self_s["solver.setup"],
        "solver.levels": h["levels"],
        "solver.grid_complexity": h["grid_complexity"],
        "solver.operator_complexity": h["operator_complexity"],
        "solver.coarsening_ratio": coarsening,
        "solver.solve_s": self_s["solver.pressure"] + total_s["solver.krylov"],
        "solver.vcycle_s": total_s["solver.vcycle"],
        "solver.vcycles": calls["solver.vcycle"],
        "solver.krylov_s": self_s["solver.krylov"],
        "solver.iterations": c["solver.iterations"],
        "solver.max_residual_ratio": c["solver.max_residual_ratio"],
        "solver.rss_rise_mb": rise["solver.pressure"],
        "reference.constants_s": self_s["reference.constants"],
        "reference.eval_s": self_s["reference.eval"],
        "harness.errors_s": self_s["harness.errors"],
        "harness.emit_s": self_s["harness.emit"],
        "harness.emit_bytes": c["harness.emit_bytes"],
        "harness.self_s": self_s["harness.run_case"] + self_s["harness.solve_case_mesh"],
    }
