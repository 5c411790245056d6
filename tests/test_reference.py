"""Bessel evaluation and the radial reference solution."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special as ss

from mdflow.model import RadialParams, case1
from mdflow.reference import (
    bessel,
    bessel_deriv,
    eval_solution,
    ode_residual_check,
    profile_table,
    solve_constants,
    transfer_balance,
    volume_balance_qN,
)

CASE_A = case1("A").reference[1]
CASE_B = case1("B").reference[1]


class TestBessel:
    def test_modified_bessel_at_zero(self):
        assert bessel("I", 0, 0.0) == 1.0
        assert bessel("I", 1, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x, so J_{1/2}(pi/2) = 2/pi
        assert bessel("J", 0.5, math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-13)

    @pytest.mark.parametrize("nu", [0.1155, 0.5, -0.7, 1.3])
    @pytest.mark.parametrize("x", [0.05, 0.5, 2.0, 5.0])
    def test_against_scipy(self, nu, x):
        assert bessel("J", nu, x) == pytest.approx(ss.jv(nu, x), rel=1e-12)
        assert bessel("Y", nu, x) == pytest.approx(ss.yv(nu, x), rel=1e-11)

    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0])
    def test_modified_against_scipy(self, x):
        assert bessel("I", 0, x) == pytest.approx(ss.iv(0, x), rel=1e-13)
        assert bessel("I", 1, x) == pytest.approx(ss.iv(1, x), rel=1e-13)

    @pytest.mark.parametrize("kind,nu", [("J", 0.1155), ("Y", 0.1155), ("J", 0.7)])
    def test_derivative_rule_vs_finite_difference(self, kind, nu):
        x = 0.8
        h = 1e-6
        fd = (bessel(kind, nu, x + h) - bessel(kind, nu, x - h)) / (2 * h)
        assert bessel_deriv(kind, nu, x) == pytest.approx(fd, abs=1e-8)

    def test_wronskian(self):
        # J_nu(x) Y'_nu(x) - J'_nu(x) Y_nu(x) = 2/(pi x)
        for nu in (0.1155, 0.63):
            for x in (0.06, 0.12, 1.0):
                w = bessel("J", nu, x) * bessel_deriv("Y", nu, x) - bessel_deriv(
                    "J", nu, x
                ) * bessel("Y", nu, x)
                assert w == pytest.approx(2 / (math.pi * x), rel=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            bessel("K", 0.5, 1.0)
        with pytest.raises(ValueError, match="kind"):
            bessel_deriv("K", 0.5, 1.0)

    @pytest.mark.parametrize("x", [40.0, 100.0])
    def test_large_arguments(self, x):
        for nu in (0.1155, 0.5, 11.5):
            assert bessel("J", nu, x) == pytest.approx(ss.jv(nu, x), rel=1e-13)
            assert bessel("Y", nu, x) == pytest.approx(ss.yv(nu, x), rel=1e-13)
        for nu in (0, 1):
            assert bessel("I", nu, x) == pytest.approx(ss.iv(nu, x), rel=1e-13)
        # half order in closed form: J, Y, I = sqrt(2/(pi x)) (sin, -cos, sinh)
        amp = math.sqrt(2 / (math.pi * x))
        assert bessel("J", 0.5, x) == pytest.approx(amp * math.sin(x), rel=1e-12)
        assert bessel("Y", 0.5, x) == pytest.approx(-amp * math.cos(x), rel=1e-12)
        assert bessel("I", 0.5, x) == pytest.approx(amp * math.sinh(x), rel=1e-12)


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
        lhs = sol.cI * bessel("I", 0, sol.kappa0 * p.r0)
        rhs = sol.cJ * bessel("J", sol.nu, sol.kappa1 * p.r0) + sol.cY * bessel(
            "Y", sol.nu, sol.kappa1 * p.r0
        )
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
            2 * math.pi * p.r1 * p.kD * sol.kappa0 * bessel("I", 1, sol.kappa0 * p.r1)
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


class TestKT0Overflow:
    """Past the double range of the Bessel terms the reference refuses loudly."""

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_largest_accepted(self, variant):
        p = replace(CASE_A if variant == "A" else CASE_B, kT0=1.2e7)
        sol = solve_constants(p)
        assert abs(transfer_balance(sol) + sol.qN) <= 1e-9 * abs(sol.qN)

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("kT0", [1.3e7, 1e8])
    def test_overflow_raises(self, variant, kT0):
        p = replace(CASE_A if variant == "A" else CASE_B, kT0=kT0)
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
