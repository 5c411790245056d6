"""The radial reference solution."""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special as ss

from mdflow.model import RadialParams, case1
from mdflow.reference import (
    eval_solution,
    ode_residual_check,
    profile_table,
    solve_constants,
    transfer_balance,
    volume_balance_qN,
)

from test_solver import fresh_python

CASE_A = case1("A").reference[1]
CASE_B = case1("B").reference[1]


def test_import_leaves_scipy_special_unloaded():
    # the reference imports scipy.special when it first evaluates a Bessel
    # function, so `import mdflow` does not pay for it
    script = (
        "import sys\n"
        "import mdflow\n"
        "print('scipy.special' in sys.modules)\n"
        "mdflow.solve_constants(mdflow.case1('A').reference[1])\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert fresh_python(script).split() == ["False", "True"]


def test_import_and_solves_leave_scipy_graph_and_dense_linalg_unloaded():
    # the components of A and the forest's trees are found with numpy, so
    # neither `import mdflow` nor a solve of case 1A and of a forest loads
    # scipy.sparse.csgraph, or scipy.sparse.linalg and scipy.linalg,
    # which it imports
    script = (
        "import sys\n"
        "import mdflow\n"
        "unloaded = lambda names: all(m not in sys.modules for m in names)\n"
        "heavy = ('scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg')\n"
        "print(unloaded(heavy + ('scipy.special',)))\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from forest_gen import forest_case\n"
        "config = mdflow.SolverConfig()\n"
        "mdflow.solve_case_mesh(mdflow.case1('A'), 16, config)\n"
        "mdflow.solve_case_mesh(forest_case(6, 0), 32, config)\n"
        "print(unloaded(heavy))\n"
    )
    perfbench = str(Path(__file__).parents[1] / "perfbench")
    assert fresh_python(script, perfbench).split() == ["True", "True"]


class TestVolumeBalance:
    def test_reference_value(self):
        # r2=0.3, r3=0.4, rD0=1
        assert volume_balance_qN(CASE_A) == pytest.approx(-3.66519142918807e-4, rel=1e-12)

    def test_degenerate_ring(self):
        p = RadialParams(r0=0.1, r1=0.2, r2=0.4 - 1e-15, r3=0.4)
        assert volume_balance_qN(p) == pytest.approx(0.0, abs=1e-16)

    def test_linearity_in_source(self):
        p1 = RadialParams(r0=0.1, r1=0.2, r2=0.3, r3=0.4, rD0=1.0)
        p3 = RadialParams(r0=0.1, r1=0.2, r2=0.3, r3=0.4, rD0=3.0)
        assert volume_balance_qN(p3) == pytest.approx(3 * volume_balance_qN(p1))

    def test_quadrature_cross_check(self):
        import scipy.integrate as si

        p = CASE_A
        val = -2 * math.pi * si.quad(
            lambda r: r * (r - p.r2) * (p.r3 - r), p.r2, p.r3
        )[0]
        assert volume_balance_qN(p) == pytest.approx(val, rel=1e-12)


class TestConstants:
    def test_matching_residuals_case_a(self):
        sol = solve_constants(CASE_A)
        p = CASE_A
        # pressure continuity at r0
        lhs = sol.cI * ss.iv(0, sol.kappa0 * p.r0)
        x0 = sol.kappa1 * p.r0
        rhs = sol.cJ * ss.jv(sol.nu, x0) + sol.cY * ss.yv(sol.nu, x0)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # flux continuity at r0 and r1 via direct evaluation
        for r in (p.r0, p.r1):
            lo = eval_solution(sol, r - 1e-13)[1]
            hi = eval_solution(sol, r + 1e-13)[1]
            assert lo == pytest.approx(hi, rel=1e-9, abs=1e-15)

    def test_special_case_b_formula(self):
        sol = solve_constants(CASE_B)
        p = CASE_B
        expected = -sol.qN / (
            2 * math.pi * p.r1 * p.kD * sol.kappa0 * ss.iv(1, sol.kappa0 * p.r1)
        )
        assert sol.cI == pytest.approx(expected, rel=1e-14)
        assert sol.cJ == 0.0 and sol.cY == 0.0

    def test_c4_value(self):
        sol = solve_constants(CASE_A)
        assert sol.c4 == pytest.approx(0.4**4 / 12 - 0.3 * 0.4**3 / 6, rel=1e-14)
        assert sol.c4 == pytest.approx(-1.0666666666666667e-3, rel=1e-12)

    def test_terminal_pressure(self):
        sol = solve_constants(CASE_A)
        assert sol.pN1 == pytest.approx(CASE_A.pN0 - sol.qN / CASE_A.kN, rel=1e-15)

    def test_limit_r0_to_r1_matches_special_case(self):
        # shrink the taper band: cI approaches the sharp-cutoff value
        sol_b = solve_constants(CASE_B)
        p = RadialParams(r0=0.2 * (1 - 1e-4), r1=0.2, r2=0.3, r3=0.4)
        sol = solve_constants(p)
        assert sol.cI == pytest.approx(sol_b.cI, rel=5e-3)


class TestKT0Sweep:
    """The matching system stays solvable as kT0 degenerates either way."""

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("kT0", [1e-6, 1e-3, 1.0, 1e3, 1e5, 1e6])
    def test_continuity_and_balance(self, variant, kT0):
        p = replace(CASE_A if variant == "A" else CASE_B, kT0=kT0)
        sol = solve_constants(p)
        scale = abs(sol.qN)
        for r in (p.r0, p.r1, p.r2):
            plo, qlo = eval_solution(sol, r * (1 - 1e-13))
            phi, qhi = eval_solution(sol, r * (1 + 1e-13))
            assert abs(plo - phi) <= 1e-12 * abs(plo)
            if r != p.r2:
                assert abs(qlo - qhi) <= 1e-9 * scale
        assert abs(transfer_balance(sol) + sol.qN) <= 1e-9 * scale


class TestHalfOrder:
    """At half-integer order the taper band's Bessel functions are elementary.

    J and Y of order 1/2 and 3/2 are sin and cos times powers of x, and I0,
    I1 at kappa0*r0 <= 1.3 follow from their power series, so the matching
    system and the band's closed form can be built without scipy.special.
    """

    @staticmethod
    def _params(nu):
        # nu = kappa1 r1 = kappa0 r0 r1 / sqrt(r1^2 - r0^2)
        p = CASE_A
        return replace(p, kT0=p.kD * (nu * math.sqrt(p.r1**2 - p.r0**2) / (p.r0 * p.r1)) ** 2)

    @staticmethod
    def _jy(nu, x):
        # (J, Y, J', Y') of order 1/2 or 3/2 from sqrt(2/(pi x)) g(x)
        s, c, amp = math.sin(x), math.cos(x), math.sqrt(2 / (math.pi * x))
        if nu == 0.5:
            g, dg = (s, -c), (c, s)
        else:
            g = (s / x - c, -(c / x + s))
            dg = (c / x - s / x**2 + s, s / x + c / x**2 - c)
        values = tuple(amp * gi for gi in g)
        slopes = tuple(amp * (dgi - 0.5 * gi / x) for gi, dgi in zip(g, dg))
        return values + slopes

    @staticmethod
    def _i0_i1(x):
        terms = range(30)
        i0 = math.fsum((x / 2) ** (2 * k) / math.factorial(k) ** 2 for k in terms)
        i1 = math.fsum(
            (x / 2) ** (2 * k + 1) / (math.factorial(k) * math.factorial(k + 1)) for k in terms
        )
        return i0, i1

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_constants_match_elementary_solve(self, nu):
        p = self._params(nu)
        sol = solve_constants(p)
        assert sol.nu == pytest.approx(nu, rel=1e-14)
        i0, i1 = self._i0_i1(sol.kappa0 * p.r0)
        j0, y0, dj0, dy0 = self._jy(nu, sol.kappa1 * p.r0)
        j1, y1, dj1, dy1 = self._jy(nu, sol.kappa1 * p.r1)
        k1 = sol.kappa1
        mat = np.array([
            [i0, -j0, -y0],
            [sol.kappa0 * i1, -k1 * dj0, -k1 * dy0],
            [0.0, p.kD * k1 * dj1, p.kD * k1 * dy1],
        ])
        rhs = np.array([0.0, 0.0, -sol.qN / (2 * math.pi * p.r1)])
        cI, cJ, cY = np.linalg.solve(mat, rhs)
        assert sol.cI == pytest.approx(cI, rel=1e-12)
        assert sol.cJ == pytest.approx(cJ, rel=1e-12)
        assert sol.cY == pytest.approx(cY, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_taper_band_matches_closed_form(self, nu):
        p = self._params(nu)
        sol = solve_constants(p)
        for r in np.linspace(p.r0, p.r1, 7)[1:]:
            j, y, dj, dy = self._jy(nu, sol.kappa1 * r)
            pD, q = eval_solution(sol, r)
            assert pD - sol.pN1 == pytest.approx(sol.cJ * j + sol.cY * y, rel=1e-12)
            assert q == pytest.approx(-p.kD * sol.kappa1 * (sol.cJ * dj + sol.cY * dy), rel=1e-12)


class TestKT0Overflow:
    """Past the double range of the Bessel terms the reference refuses loudly.

    Case 1A's largest matching entry is kappa0 I1(kappa0 r0), which
    overflows near kT0 = 4.97e7; case 1B's flux continuity term
    2 pi r1 kD kappa0 I1(kappa0 r1) overflows near 1.24e7.
    """

    @pytest.mark.parametrize("variant,kT0", [("A", 2e7), ("A", 4e7), ("B", 1.2e7)])
    def test_largest_accepted(self, variant, kT0):
        p = replace(CASE_A if variant == "A" else CASE_B, kT0=kT0)
        sol = solve_constants(p)
        assert abs(transfer_balance(sol) + sol.qN) <= 1e-9 * abs(sol.qN)

    @pytest.mark.parametrize(
        "variant,kT0", [("A", 5e7), ("A", 1e8), ("B", 1.3e7), ("B", 1e8)]
    )
    def test_overflow_raises(self, variant, kT0):
        # at 5e7 I1 is finite and only its product with kappa0 overflows:
        # refused with no numpy warning
        p = replace(CASE_A if variant == "A" else CASE_B, kT0=kT0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"kT0 = .*kappa0\*r0 = .* overflow"):
                solve_constants(p)


@pytest.fixture(params=["A", "B"])
def sol(request):
    return solve_constants(CASE_A if request.param == "A" else CASE_B)


class TestEvalSolution:

    def test_interface_continuity(self, sol):
        p = sol.params
        for r in (p.r0, p.r1, p.r2):
            plo, qlo = eval_solution(sol, r - 1e-12)
            phi, qhi = eval_solution(sol, r + 1e-12)
            scale = max(abs(plo), abs(qlo), 1e-30)
            assert abs(plo - phi) <= 1e-12 * max(abs(plo), 1e-30) + 1e-15
            assert abs(qlo - qhi) <= 1e-9 * scale

    def test_zero_flux_at_and_beyond_r3(self, sol):
        assert eval_solution(sol, sol.params.r3)[1] == pytest.approx(0.0, abs=1e-18)
        assert eval_solution(sol, 0.45)[1] == 0.0

    def test_constant_pressure_outside(self, sol):
        p1 = eval_solution(sol, sol.params.r3 + 1e-6)[0]
        p2 = eval_solution(sol, 0.49)[0]
        assert p1 == p2 == sol.p_r3

    def test_log_region_flux(self, sol):
        p = sol.params
        for r in (0.22, 0.25, 0.3):
            assert eval_solution(sol, r)[1] == pytest.approx(
                sol.qN / (2 * math.pi * r), rel=1e-14
            )

    def test_vectorized_matches_scalar(self, sol):
        rs = np.linspace(0.01, 0.49, 37)
        pv, qv = eval_solution(sol, rs)
        for i, r in enumerate(rs):
            ps, qs = eval_solution(sol, float(r))
            assert ps == pv[i] and qs == qv[i]

    def test_repeated_radii_keep_the_scalar_bits_and_the_shape(self, sol):
        # each distinct radius is evaluated once: an unsorted 2-D array with
        # repeats, 0 and every interface radius gives the per-entry scalar bits
        p = sol.params
        rng = np.random.default_rng(3)
        radii = np.concatenate([[0.0, p.r0, p.r1, p.r2, p.r3], rng.uniform(0.0, 0.5, 25)])
        r = rng.permutation(np.tile(radii, 4)).reshape(8, 15)
        pD, q = eval_solution(sol, r)
        assert pD.shape == q.shape == r.shape
        for idx in np.ndindex(r.shape):
            ps, qs = eval_solution(sol, float(r[idx]))
            assert ps == pD[idx] and qs == q[idx]

    def test_origin(self, sol):
        # I0(0) = 1 and I1(0) = 0: the core's pressure peaks at pN1 + cI with no flux
        pD, q = eval_solution(sol, 0.0)
        assert pD == sol.pN1 + sol.cI
        assert q == 0.0

    @pytest.mark.parametrize("kT0", [1.0, 1e3])
    @pytest.mark.parametrize("r", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_flux_is_minus_kD_times_pressure_slope(self, sol, kT0, r):
        # each region's flux formula against a 5-point slope of its pressure
        sol = solve_constants(replace(sol.params, kT0=kT0))
        h = 1e-4
        pm2, pm1, pp1, pp2 = (eval_solution(sol, r + k * h)[0] for k in (-2, -1, 1, 2))
        slope = (pm2 - 8 * pm1 + 8 * pp1 - pp2) / (12 * h)
        q = eval_solution(sol, r)[1]
        assert abs(q + sol.params.kD * slope) <= 1e-9 * abs(sol.qN)

    @pytest.mark.parametrize("r", [np.nan, np.inf, [0.1, np.nan], [np.inf, 0.1]],
                             ids=["nan", "inf", "nan_in_array", "inf_in_array"])
    def test_non_finite_radius_rejected(self, sol, r):
        # a nan radius lies in no region, so nothing would write its values
        with pytest.raises(ValueError, match="non-finite radius"):
            eval_solution(sol, r)


class TestSelfConsistency:
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_ode_residual(self, variant):
        sol = solve_constants(CASE_A if variant == "A" else CASE_B)
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.02, 0.48, 200)
        keep = (
            np.min(
                np.abs(samples[:, None] - np.array([[0.1, 0.2, 0.3, 0.4]])), axis=1
            )
            > 2e-3
        )
        samples = samples[keep][:50]
        assert len(samples) == 50
        assert ode_residual_check(sol, samples) <= 1e-6

    @pytest.mark.parametrize("variant,kT0", [("A", 2e7), ("A", 4e7), ("B", 1.2e7)])
    def test_ode_residual_at_largest_kT0(self, variant, kT0):
        # the pressure is steep only within a few 1/kappa0 < 3e-4 of r0;
        # the samples keep 2e-3 from every interface, as in test_ode_residual
        p = replace(CASE_A if variant == "A" else CASE_B, kT0=kT0)
        sol = solve_constants(p)
        samples = np.array([0.05, 0.097, 0.103, 0.15, 0.197, 0.203, 0.25, 0.35, 0.45])
        samples = samples[np.min(np.abs(samples[:, None] - [p.r0, p.r1, p.r2, p.r3]), axis=1) > 2e-3]
        assert ode_residual_check(sol, samples) <= 1e-6

    def test_ode_residual_zero_outside(self):
        sol = solve_constants(CASE_A)
        assert ode_residual_check(sol, np.array([0.45, 0.47])) <= 1e-12

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_transfer_balance(self, variant):
        sol = solve_constants(CASE_A if variant == "A" else CASE_B)
        assert transfer_balance(sol) == pytest.approx(-sol.qN, abs=1e-8)

    def test_samples_near_interfaces_rejected(self):
        sol = solve_constants(CASE_A)
        with pytest.raises(ValueError):
            ode_residual_check(sol, np.array([0.1 + 1e-5]))


def test_profile_table_shape():
    sol = solve_constants(CASE_A)
    rows = profile_table(sol, n_samples=100)
    assert rows.shape == (100, 3)
    assert rows[0, 0] == 0.0
    assert rows[-1, 2] == 0.0  # beyond r3: no flux
