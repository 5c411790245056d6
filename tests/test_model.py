"""Built-in cases, coefficient fields, scaling, and the config format."""

import tracemalloc

import numpy as np
import pytest

from mdflow.geometry import (
    SUPPORT_SUBDIV_PLANAR,
    SUPPORT_SUBDIV_SPATIAL,
    transfer_profile,
)
from mdflow.quadrature import composite_rule
from mdflow.model import (
    SOURCE_SUBDIV,
    RadialParams,
    case1,
    case2,
    case_from_text,
    case_to_text,
    scale_transfer,
)


class TestCase1:
    def test_variant_a_radii(self):
        p = case1("A").reference[1]
        assert p.radii == (0.1, 0.2, 0.3, 0.4)

    def test_variant_b_radii(self):
        p = case1("B").reference[1]
        assert p.radii == (0.2, 0.2, 0.3, 0.4)

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
        val = s.density(np.array([[0.35, 0.0]]))
        assert val[0] == pytest.approx(2.5e-3, rel=1e-14)

    def test_grid_and_coefficients(self):
        spec = case1("A")
        grid = spec.grid(16)
        assert grid.cells == (16, 16)
        coeffs = spec.coefficients(grid)
        assert len(coeffs.supports) == 1
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
        sup = {s.terminal_id: s for s in coeffs.supports}
        # arterial supports live at x4 < 1/2, venous at x4 > 1/2
        assert np.all(x4[sup[2].cell_idx] < 0.5)
        assert np.all(x4[sup[3].cell_idx] < 0.5)
        assert np.all(x4[sup[6].cell_idx] > 0.5)
        assert np.all(x4[sup[7].cell_idx] > 0.5)

    def test_compartments_partition_cells(self):
        grid = case2().grid(4)
        x4 = grid.cell_centers()[:, 3]
        assert ((x4 < 0.5).sum(), (x4 > 0.5).sum()) == (64, 64)

    def test_fourth_axis_two_cells(self):
        assert case2().grid(16).cells == (16, 16, 16, 2)


class TestScaleTransfer:
    def test_values(self):
        assert scale_transfer(4.0) == pytest.approx(2.0)
        assert scale_transfer(0.0) == 0.0

    def test_case1a_taper_value(self):
        # sqrt of the taper value at r=0.15, i.e. sqrt(7/27)
        ks = scale_transfer(7.0 / 27.0)
        assert ks == pytest.approx(0.5091750772173156, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scale_transfer(np.array([1.0, -0.5]))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        kt = rng.uniform(0.0, 5.0, size=50)
        assert np.allclose(scale_transfer(kt) ** 2, kt, rtol=0, atol=1e-15)


class TestRadialParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RadialParams(r0=0.3, r1=0.2, r2=0.3, r3=0.4)
        with pytest.raises(ValueError):
            RadialParams(r0=0.1, r1=0.2, r2=0.4, r3=0.4)


class TestCaseConfigText:
    @pytest.mark.parametrize("name", ["case1a", "case1b", "case2"])
    def test_round_trip(self, name):
        from mdflow.model import builtin_case

        spec = builtin_case(name)
        text = case_to_text(spec)
        back = case_from_text(text)
        assert back.name == spec.name
        assert back.dim == spec.dim
        assert back.origin == spec.origin
        assert back.extent == spec.extent
        assert back.refine_axes == spec.refine_axes
        assert back.kD == spec.kD
        assert back.transfers == spec.transfers
        assert back.source == spec.source
        assert back.reference == spec.reference
        assert [(e.tail, e.head, e.k) for e in back.forest.edges] == [
            (e.tail, e.head, e.k) for e in spec.forest.edges
        ]

    def test_missing_section(self):
        with pytest.raises(ValueError, match="missing"):
            case_from_text("[case]\nname = x\n")


def _composite_average(centers, width, anchor, func, order, subdiv):
    """Per-box average of func(|x - anchor|) under a uniform composite rule."""
    ref, w = composite_rule(centers.shape[1], order, subdiv)
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
    """Refined cells agree with an independent order-8 reference.

    The reference subdivides every cell 4x finer than the finest
    sub-cell.  Each value may differ from it by 1e-6 of the field maximum
    more than the uniform rule at the finest sub-cell size does; that
    allowance covers the kink error of the finest sub-cells, which both
    rules share (up to 2.6e-6 of kT0 on case 1A at 1/h = 16 and 4.5e-4
    on case 2 at 1/h = 8).  A fixed, evenly spread sample of cells keeps
    the reference affordable.
    """
    pick = np.unique(np.linspace(0, len(values) - 1, sample).astype(int))
    centers, values = centers[pick], values[pick]
    ref = _composite_average(centers, width, anchor, func, 8, 4 * subdiv)
    uniform = _composite_average(centers, width, anchor, func, 4, subdiv)
    assert np.all(np.abs(values - ref) <= np.abs(uniform - ref) + 1e-6 * fmax)


class TestCoefficientQuadrature:
    """Per-cell averages against an independent composite reference."""

    @pytest.mark.parametrize("m", [16, 32])
    def test_case1a_support(self, m):
        spec = case1("A")
        grid = spec.grid(m)
        (t,) = spec.transfers
        (sup,) = spec.coefficients(grid).supports
        centers = grid.cell_centers()[sup.cell_idx]
        dmin, dmax = _distance_range(centers, grid.spacing, t.anchor)
        refined = (dmin <= t.r1) & (t.r0 <= dmax)
        _check_refined_cells(
            sup.ks[refined] ** 2,
            centers[refined],
            grid.spacing,
            np.asarray(t.anchor),
            lambda r: transfer_profile(r, t.r0, t.r1, t.kT0),
            SUPPORT_SUBDIV_PLANAR,
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
        pts, w = grid.quadrature(order=4, cells=np.flatnonzero(~cut))
        base = func(np.sqrt(((pts - anchor) ** 2).sum(axis=2))) @ w
        assert np.array_equal(rD[~cut], base)

    def test_case2_support(self):
        spec = case2()
        grid = spec.grid(8)
        coeffs = spec.coefficients(grid)
        for t, sup in zip(spec.transfers, coeffs.supports):
            axes = list(t.radial_axes)
            centers = grid.cell_centers()[sup.cell_idx][:, axes]
            _check_refined_cells(
                sup.ks**2,
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
