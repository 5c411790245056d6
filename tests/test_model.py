"""Built-in cases, coefficient fields, and the config format."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mdflow.geometry import SUPPORT_SUBDIV_SPATIAL, transfer_profile
from mdflow.quadrature import composite_rule
from mdflow.model import (
    SOURCE_SUBDIV,
    RadialParams,
    case1,
    case2,
    case_from_text,
    case_to_text,
    ring_profile,
)

from oracles import support_rows, taper_cell_average


class TestCase1:
    def test_variant_a_radii(self):
        p = case1("A").reference[1]
        assert (p.r0, p.r1, p.r2, p.r3) == (0.1, 0.2, 0.3, 0.4)

    def test_variant_b_radii(self):
        p = case1("B").reference[1]
        assert (p.r0, p.r1, p.r2, p.r3) == (0.2, 0.2, 0.3, 0.4)

    def test_variants_differ_only_in_r0(self):
        a, b = case1("A"), case1("B")
        assert a.transfers[0].r0 == 0.1 and b.transfers[0].r0 == 0.2
        assert a.transfers[0].r1 == b.transfers[0].r1
        assert a.source == b.source
        assert a.kD == b.kD
        assert [n.kind for n in a.forest.nodes] == [n.kind for n in b.forest.nodes]
        pa, pb = a.reference[1], b.reference[1]
        for f in ("r1", "r2", "r3", "kT0", "kD", "kN", "rD0", "pN0"):
            assert getattr(pa, f) == getattr(pb, f)

    def test_source_density_value(self):
        # rD(0.35) = (0.35-0.3)(0.4-0.35) = 2.5e-3
        s = case1("A").source
        assert ring_profile(0.35, s.rD0, s.r2, s.r3) == pytest.approx(2.5e-3, rel=1e-14)

    def test_grid_and_coefficients(self):
        spec = case1("A")
        grid = spec.grid(16)
        assert grid.cells == (16, 16)
        coeffs = spec.coefficients(grid)
        assert len(coeffs.supports.terminal_ids) == 1
        assert np.all(coeffs.kD == 1.0)
        total = coeffs.rD.sum() * grid.cell_volume
        assert total == pytest.approx(3.6651914291881e-4, rel=1e-4)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            case1("C")


class TestCase2:
    def test_anchors(self):
        spec = case2()
        anchors = {t.terminal_id: t.anchor for t in spec.transfers}
        assert anchors[2] == (0.43, 0.25, 0.5)
        assert anchors[3] == (0.37, 0.75, 0.5)
        assert anchors[6] == (0.63, 0.25, 0.5)
        assert anchors[7] == (0.57, 0.75, 0.5)

    def test_four_terminals_two_trees(self):
        f = case2().forest
        assert len(f.terminals) == 4
        assert f.n_trees == 2
        roots = {n.id: n.value for n in f.dirichlet_roots}
        assert roots == {0: 1.0, 4: 0.0}

    def test_transfer_profile_matches_case1a(self):
        for t in case2().transfers:
            assert (t.r0, t.r1, t.kT0) == (0.1, 0.2, 1.0)

    def test_compartment_restriction(self):
        spec = case2()
        grid = spec.grid(8)
        coeffs = spec.coefficients(grid)
        x4 = grid.cell_centers()[:, 3]
        cells = {t: support_rows(coeffs.supports, t)[0] for t in (2, 3, 6, 7)}
        # arterial supports live at x4 < 1/2, venous at x4 > 1/2
        assert np.all(x4[cells[2]] < 0.5)
        assert np.all(x4[cells[3]] < 0.5)
        assert np.all(x4[cells[6]] > 0.5)
        assert np.all(x4[cells[7]] > 0.5)

    def test_compartments_partition_cells(self):
        grid = case2().grid(4)
        x4 = grid.cell_centers()[:, 3]
        assert ((x4 < 0.5).sum(), (x4 > 0.5).sum()) == (64, 64)

    def test_fourth_axis_two_cells(self):
        assert case2().grid(16).cells == (16, 16, 16, 2)


class TestRadialParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RadialParams(r0=0.3, r1=0.2, r2=0.3, r3=0.4)
        with pytest.raises(ValueError):
            RadialParams(r0=0.1, r1=0.2, r2=0.4, r3=0.4)

    @pytest.mark.parametrize("change, message", [
        ({"kT0": 0.0}, "need finite kT0, kD and kN > 0"),
        ({"kD": float("nan")}, "need finite kT0, kD and kN > 0"),
        ({"kN": float("inf")}, "need finite kT0, kD and kN > 0"),
        ({"rD0": float("inf")}, "need finite r3, rD0 and pN0"),
        ({"pN0": float("nan")}, "need finite r3, rD0 and pN0"),
        ({"r3": float("inf")}, "need finite r3, rD0 and pN0"),
        # the closed form raises r3 to the fourth power
        ({"r3": 1e100}, "r3 = 1e+100 is too large"),
    ])
    def test_values_the_closed_form_cannot_take_rejected(self, change, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RadialParams(**{"r0": 0.1, "r1": 0.2, "r2": 0.3, "r3": 0.4, **change})


NEUMANN_CONFIG = """\
[case]
name = neumann

[grid]
dim = 2
origin = 0.0, 0.0
extent = 1.0, 1.0
refine_axes = 1, 1
fixed_cells = 0, 0

[forest]
nodes 4 trees 1
node 0 neumann
node 1 interior
node 2 terminal 0.25 0.5
node 3 terminal 0.75 0.5
edge 0 1 1.0
edge 1 2 1.0
edge 1 3 1.0

[coefficients]
kD = 1.0, 1.0
transfer = 2; r0: 0.05; r1: 0.1; kT0: 1.0
transfer = 3; r0: 0.05; r1: 0.1; kT0: 1.0
rN = 2: 1.0
rN = 3: -1.0

[reference]
kind = none
"""


class TestCaseConfigText:
    @pytest.mark.parametrize("name", ["case1a", "case1b", "case2"])
    def test_round_trip(self, name):
        from mdflow.model import builtin_case

        spec = builtin_case(name)
        assert case_from_text(case_to_text(spec)) == spec

    def test_round_trip_through_a_neumann_root_and_rN(self):
        spec = case_from_text(NEUMANN_CONFIG)
        assert spec.rN == {2: 1.0, 3: -1.0}
        assert [n.kind.value for n in spec.forest.nodes][:2] == ["neumann", "interior"]
        assert case_to_text(spec) == NEUMANN_CONFIG
        assert case_from_text(case_to_text(spec)) == spec

    def test_missing_section(self):
        with pytest.raises(ValueError, match="missing"):
            case_from_text("[case]\nname = x\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[reference]", "[bogus]\n[reference]", "unknown or repeated section [bogus]"),
            ("[reference]", "[grid]\n[reference]", "unknown or repeated section [grid]"),
            ("name = case1a\n", "name = case1a\ncolour = red\n", "unknown key 'colour' in [case]"),
            ("dim = 2\n", "dim = 2\ncells = 8\n", "unknown key 'cells' in [grid]"),
            ("dim = 2\n", "dim = 2\ndim = 2\n", "repeated key 'dim' in [grid]"),
            ("fixed_cells = 0, 0", "fixed_cells = 0, 2.5",
             "[grid] fixed_cells: invalid literal for int() with base 10: '2.5'"),
            ("refine_axes = 1, 1", "refine_axes = 2, -7",
             "[grid] refine_axes: entries are 0 or 1, got '2'"),
            ("refine_axes = 1, 1", "refine_axes = 1, -1",
             "[grid] refine_axes: entries are 0 or 1, got '-1'"),
            ("kT0: 1.0", "kT0: abc",
             "[coefficients] transfer kT0: could not convert string to float: 'abc'"),
            ("transfer = 1; ", "transfer = 1; anchor: 0.0, 0.0; ",
             "unknown key 'anchor' in [coefficients] transfer"),
            ("r1: 0.2;", "r1: 0.2; r1: 0.3;", "repeated key 'r1' in [coefficients] transfer"),
            ("transfer = 1;", "transfer = 0;", "transfer names node 0, which is no terminal"),
            ("kind = series\n", "kind = series\nradial = r0: 0.1\n",
             "unknown key 'radial' in [reference]"),
            ("kind = series\n", "kind = none\nresolution = 64\n",
             "unknown key 'resolution' in [reference] kind = none"),
            ("kind = series\n", "kind = exact\n", "unknown reference kind 'exact'"),
            ("kD = 1.0, 1.0\n", "kD = 5.0, 5.0\nkD = 1.0, 1.0\n",
             "repeated key 'kD' in [coefficients]"),
            ("kD = 1.0, 1.0\n", "kD = 1.0, 1.0\nkD = 1.0, 1.0\n",
             "repeated key 'kD' in [coefficients]"),
            ("source = ", "source = rD0: 2.0; r2: 0.3; r3: 0.4; center: 0.0, 0.0\nsource = ",
             "repeated key 'source' in [coefficients]"),
            ("\n\n[reference]", "\nrN = 1: 0.5\nrN = 1: 0.25\n\n[reference]",
             "repeated key 'rN' for node 1 in [coefficients]"),
            ("\n\n[reference]", "\nrN = x: 1.0\n\n[reference]",
             "[coefficients] rN: invalid literal for int() with base 10: 'x'"),
            ("\n\n[reference]", "\nrN = 1\n\n[reference]",
             "[coefficients] rN: expected 'node: value', got '1'"),
            ("\n\n[reference]", "\nrN = 1:\n\n[reference]",
             "[coefficients] rN: could not convert string to float: ''"),
            ("kind = series\n", "kind = finegrid\nresolution = 2.5\n",
             "[reference] resolution: invalid literal for int() with base 10: '2.5'"),
        ],
    )
    def test_keys_and_sections_outside_the_format_rejected(self, old, new, message):
        text = case_to_text(case1("A"))
        assert old in text
        with pytest.raises(ValueError) as info:
            case_from_text(text.replace(old, new, 1))
        assert message in str(info.value)

    def test_writer_rejects_a_spec_that_would_not_read_back(self):
        spec = case1("A")
        (t,) = spec.transfers
        for transfer, message in [(replace(t, anchor=(0.1, 0.0)), "anchored at (0.1, 0.0)"),
                                  (replace(t, terminal_id=0), "its terminal in the forest at None")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                case_to_text(replace(spec, transfers=(transfer,)))
        params = replace(spec.reference[1], kN=2.0)
        with pytest.raises(ValueError, match="is not the case's own"):
            case_to_text(replace(spec, reference=("series", params)))

    def test_series_reference_needs_2d_grid(self):
        # case 1A lifted to a 3D grid: every tuple has three entries
        text = case_to_text(case1("A"))
        for old, new in [("dim = 2", "dim = 3"), ("-0.5, -0.5", "-0.5, -0.5, -0.5"),
                         ("1.0, 1.0\n", "1.0, 1.0, 1.0\n"), ("1, 1\n", "1, 1, 1\n"),
                         ("0, 0\n", "0, 0, 0\n"),
                         ("terminal 0.0 0.0", "terminal 0.0 0.0 0.0"),
                         ("center: 0.0, 0.0\n", "center: 0.0, 0.0, 0.0\n")]:
            text = text.replace(old, new)
        with pytest.raises(ValueError, match="series reference needs a 2D grid"):
            case_from_text(text)
        text = text.replace("kind = series", "kind = none")
        assert case_from_text(text).dim == 3


class TestCoefficientField:
    @pytest.mark.parametrize("node", [0, 99])
    def test_rN_must_name_a_non_dirichlet_node(self, node):
        # node 0 is case 1A's Dirichlet root, and there is no node 99
        spec = replace(case1("A"), rN={1: 1.0, node: 5.0})
        with pytest.raises(ValueError, match=f"rN names node {node}"):
            spec.coefficients(spec.grid(8))
        spec = replace(spec, rN={1: 1.0})
        assert spec.coefficients(spec.grid(8)).rN == {1: 1.0}


def _composite_average(centers, width, anchor, func, npts, subdiv):
    """Per-box average of func(|x - anchor|) under a uniform composite rule."""
    ref, w = composite_rule(centers.shape[1], npts, subdiv)
    return np.array(
        [func(np.linalg.norm(c + ref * width - anchor, axis=1)) @ w for c in centers]
    )


def _distance_range(centers, width, anchor):
    delta = np.abs(centers - anchor)
    nearest = np.maximum(delta - 0.5 * width, 0.0)
    return (
        np.sqrt((nearest**2).sum(axis=1)),
        np.sqrt(((delta + 0.5 * width) ** 2).sum(axis=1)),
    )


def _check_refined_cells(values, centers, width, anchor, func, subdiv, fmax, sample=16):
    """Refined cells agree with an independent 4-point Gauss reference.

    The reference subdivides every cell 4x finer than ``subdiv``
    sub-cells per axis.  Each value may differ from it by 1e-6 of the
    field maximum more than the uniform 2-point rule on ``subdiv``
    sub-cells does; that allowance covers the kink error of the finest
    sub-cells, which a refined rule shares with the references (up to
    4.5e-4 of kT0 on case 2 at 1/h = 8).  A fixed, evenly spread sample
    of cells keeps the reference affordable.
    """
    pick = np.unique(np.linspace(0, len(values) - 1, sample).astype(int))
    centers, values = centers[pick], values[pick]
    ref = _composite_average(centers, width, anchor, func, 4, 4 * subdiv)
    uniform = _composite_average(centers, width, anchor, func, 2, subdiv)
    assert np.all(np.abs(values - ref) <= np.abs(uniform - ref) + 1e-6 * fmax)


class TestCoefficientQuadrature:
    """Per-cell averages against an independent composite reference."""

    @pytest.mark.parametrize("m", [16, 32])
    def test_case1a_support(self, m):
        spec = case1("A")
        grid = spec.grid(m)
        (t,) = spec.transfers
        every = np.arange(grid.n_cells)
        kt = taper_cell_average(grid, every, t.anchor, (0, 1), (t.r0, t.r1), t.kT0)
        centers = grid.cell_centers()
        dmin, dmax = _distance_range(centers, grid.spacing, t.anchor)
        refined = (dmin <= t.r1) & (t.r0 <= dmax)
        _check_refined_cells(
            kt[refined],
            centers[refined],
            grid.spacing,
            np.asarray(t.anchor),
            lambda r: transfer_profile(r, t.r0, t.r1, t.kT0),
            32,
            t.kT0,
        )

    @pytest.mark.parametrize("m", [16, 32])
    def test_case1a_source(self, m):
        spec = case1("A")
        grid = spec.grid(m)
        s = spec.source
        rD = spec.coefficients(grid).rD
        anchor = np.asarray(s.center)
        func = lambda r: s.rD0 * np.maximum(r - s.r2, 0.0) * np.maximum(s.r3 - r, 0.0)
        centers = grid.cell_centers()
        dmin, dmax = _distance_range(centers, grid.spacing, anchor)
        cut = ((dmin <= s.r2) & (s.r2 <= dmax)) | ((dmin <= s.r3) & (s.r3 <= dmax))
        fmax = s.rD0 * (0.5 * (s.r3 - s.r2)) ** 2
        _check_refined_cells(
            rD[cut], centers[cut], grid.spacing, anchor, func, SOURCE_SUBDIV, fmax
        )
        # uncut cells keep the base rule bit for bit
        pts, w = grid.quadrature(cells=np.flatnonzero(~cut))
        base = func(np.sqrt(((pts - anchor) ** 2).sum(axis=2))) @ w
        assert np.array_equal(rD[~cut], base)

    def test_case2_support(self):
        spec = case2()
        grid = spec.grid(8)
        coeffs = spec.coefficients(grid)
        for t in spec.transfers:
            cell_idx, ks = support_rows(coeffs.supports, t.terminal_id)
            axes = list(t.radial_axes)
            centers = grid.cell_centers()[cell_idx][:, axes]
            _check_refined_cells(
                ks**2,
                centers,
                grid.spacing[axes],
                np.asarray(t.anchor),
                lambda r: transfer_profile(r, t.r0, t.r1, t.kT0),
                SUPPORT_SUBDIV_SPATIAL,
                t.kT0,
            )

    def test_memory_bounded(self):
        spec = case1("A")
        grid = spec.grid(256)
        tracemalloc.start()
        try:
            spec.coefficients(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
