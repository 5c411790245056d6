"""Tests of the benchmark's own code: W3 generator, span arithmetic, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mdflow  # noqa: E402
import forest_gen  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER, Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _anchors(spec):
    return [t.anchor for t in spec.transfers]


def test_forest_same_seed_gives_identical_text():
    first = mdflow.case_to_text(forest_gen.forest_case(8, seed=0))
    second = mdflow.case_to_text(forest_gen.forest_case(8, seed=0))
    assert first == second


def test_forest_other_seed_moves_anchors():
    a = forest_gen.forest_case(6, seed=0)
    b = forest_gen.forest_case(6, seed=1)
    assert _anchors(a) != _anchors(b)
    assert [e.k for e in a.forest.edges] == [e.k for e in b.forest.edges]


@pytest.mark.parametrize("k", [1, 2, 6])
def test_forest_shape(k):
    spec = forest_gen.forest_case(k, seed=3)
    forest = spec.forest
    assert forest.n_trees == 2
    assert len(forest.terminals) == 2**k
    assert len(forest.nodes) == 2 ** (k + 1)
    assert sorted(n.value for n in forest.dirichlet_roots) == [0.0, 1.0]
    lo, hi = forest_gen.R1, 1 - forest_gen.R1
    assert all(lo <= x <= hi for t in forest.terminals for x in t.anchor)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run", 0.0, 0.0)


def test_self_time_subtracts_children():
    spans = [
        _span("fgmres", 0.0, 10.0),
        _span("vcycle", 1.0, 3.0, parent=0),
        _span("vcycle", 4.0, 5.5, parent=0),
        _span("inner", 1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.5, 1.5, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("parent", 0.0, 4.0),
        _span("a", 0.5, 2.0, parent=0),
        _span("b", 1.5, 3.0, parent=0),
        _span("c", 3.5, 5.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.5)


def test_tracer_nests_and_restores_originals():
    original = mdflow.solver.vcycle
    original_grid = mdflow.model.CaseSpec.__dict__["grid"]
    tracer = Tracer("test")
    for name, owners, attr, count in tracing.layer_wraps(mdflow, [forest_gen]):
        tracer.wrap(name, owners, attr, count)
    try:
        assert mdflow.solver.vcycle is not original
        spec = mdflow.case1("A")
        mdflow.solve_case_mesh(spec, 8, mdflow.SolverConfig(tol=1e-8))
    finally:
        tracer.restore()
    assert mdflow.solver.vcycle is original
    assert mdflow.model.CaseSpec.__dict__["grid"] is original_grid

    names = [s.name for s in tracer.spans]
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    parents = {s.name: by_index[s.parent].name for s in tracer.spans
               if s.parent is not None}
    assert parents["solver.vcycle"] == "solver.krylov"
    assert parents["solver.krylov"] == "solver.pressure"
    assert parents["geometry.support"] == "model.coefficients"
    assert parents["model.source"] == "model.coefficients"
    assert names[:2] == ["geometry.forest", "harness.solve_case_mesh"]

    layers = tracing.layer_metrics(tracer)
    assert layers["solver.vcycles"] == layers["solver.iterations"] > 0
    assert layers["geometry.support_calls"] == 1
    assert layers["solver.levels"] >= 1
    assert layers["solver.vcycle_s"] + layers["solver.krylov_s"] <= layers["solver.solve_s"]


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in [*declared_e2e, *declared_layer, *(w["name"] for w in bench["workloads"])]:
        assert NAME.fullmatch(name), name
    assert declared_e2e == END_TO_END
    assert declared_layer == PER_LAYER
    produced = set(tracing.layer_metrics(Tracer("empty"))) | {"trace.overhead_s"}
    assert produced == set(PER_LAYER)
