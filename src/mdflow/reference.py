"""Closed-form radial reference solution for the two-node configuration.

For a single Dirichlet-root/terminal tree over a domain with zero-flux
walls, radially symmetric transfer coefficient and ring source, the
pressure solves a radial ODE with a different closed form in each of
five concentric regions:

  S1  r <= r0        modified Bessel function I0 (constant transfer)
  S2  r0 < r <= r1   Bessel J/Y of fractional order (tapering transfer)
  S3  r1 < r <= r2   logarithm (pure conduction, fixed throughput)
  S4  r2 < r <= r3   quartic polynomial plus logarithm (ring source)
  S5  r > r3         constant (zero flux)

Region membership at an interface radius goes to the lower region.  The
free constants are fixed by pressure continuity at r0 and flux
continuity at r0 and r1; everything else chains analytically.  The
Bessel functions come from scipy.special, which holds its accuracy for
the large arguments and orders a large kT0 produces (see `bessel`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import transfer_profile
from .model import RadialParams, ring_profile

ODE_CHECK_STEP = 1e-4  # finite-difference step of `ode_residual_check`
BALANCE_QUAD_POINTS = 2000  # Gauss-Legendre points per `transfer_balance` region

_SCIPY_NAMES = {"J": ("jv", "jvp"), "Y": ("yv", "yvp"), "I": ("iv", "ivp")}


def _cylinder(kind: str, nu: float, x, derivative: bool):
    if kind not in _SCIPY_NAMES:
        raise ValueError(f"kind must be 'J', 'Y' or 'I', got {kind!r}")
    import scipy.special  # deferred: keeps `import mdflow` light

    out = getattr(scipy.special, _SCIPY_NAMES[kind][derivative])(nu, x)
    return float(out) if np.ndim(out) == 0 else out


def bessel(kind: str, nu: float, x):
    """Bessel function J, Y or I of real order nu at x >= 0.

    Evaluated by scipy.special (jv, yv, iv: D. E. Amos, ACM TOMS
    Algorithm 644), with no cap on the argument or the order; Y is -inf
    at x = 0.  Returns a float for scalar x, an array otherwise.
    """
    return _cylinder(kind, nu, x, derivative=False)


def bessel_deriv(kind: str, nu: float, x):
    """d/dx of the cylinder function C_nu at x (scipy's jvp, yvp, ivp)."""
    return _cylinder(kind, nu, x, derivative=True)


def volume_balance_qN(params: RadialParams) -> float:
    """Network throughput implied by the ring source, by volume balance.

    qN = -2 pi rD0 ((r3^4 - r2^4)/12 - r2 r3 (r3^2 - r2^2)/6), the flow
    on the single edge oriented root -> terminal.
    """
    r2, r3 = params.r2, params.r3
    return float(
        -2.0
        * math.pi
        * params.rD0
        * ((r3**4 - r2**4) / 12.0 - r2 * r3 * (r3**2 - r2**2) / 6.0)
    )


@dataclass(frozen=True)
class RadialSolution:
    """Fully determined radial solution, absolutely anchored via the root."""

    params: RadialParams
    kappa0: float
    a0: float
    kappa1: float
    nu: float
    qN: float
    pN1: float
    cI: float
    cJ: float
    cY: float
    c4: float
    p_r1: float
    p_r2: float
    p_r3: float


def solve_constants(params: RadialParams) -> RadialSolution:
    """Determine all constants of the radial solution.

    For r0 < r1 the three matching conditions (pressure continuity at
    r0, flux continuity at r0 and at r1) form a 3x3 linear system for
    (cI, cJ, cY).  For r0 == r1 the middle region is empty and cI
    follows from flux continuity alone.  A kT0 so large that the
    modified Bessel terms at kappa0*r0 overflow double precision (above
    about 1.2e7 for case 1) raises ValueError.
    """
    p = params
    kD, kN, rD0 = p.kD, p.kN, p.rD0
    qN = volume_balance_qN(p)
    pN1 = p.pN0 - qN / kN

    kappa0 = math.sqrt(p.kT0 / kD)
    if p.r1 > p.r0:
        a0 = math.sqrt(p.r0**2 / (p.r1**2 - p.r0**2))
        kappa1 = a0 * kappa0
        nu = kappa1 * p.r1
        x0, x1 = kappa1 * p.r0, kappa1 * p.r1
        mat = np.array(
            [
                [
                    bessel("I", 0, kappa0 * p.r0),
                    -bessel("J", nu, x0),
                    -bessel("Y", nu, x0),
                ],
                [
                    kappa0 * bessel("I", 1, kappa0 * p.r0),
                    -kappa1 * bessel_deriv("J", nu, x0),
                    -kappa1 * bessel_deriv("Y", nu, x0),
                ],
                [
                    0.0,
                    kD * kappa1 * bessel_deriv("J", nu, x1),
                    kD * kappa1 * bessel_deriv("Y", nu, x1),
                ],
            ]
        )
        rhs = np.array([0.0, 0.0, -qN / (2.0 * math.pi * p.r1)])
        # The Bessel columns span tens of decades at large kT0: equilibrate
        # them before judging the conditioning.  Past the double range the
        # column norms overflow, and the system is refused.
        with np.errstate(over="ignore"):
            scale = np.linalg.norm(mat, axis=0)
        if not np.all(np.isfinite(scale)):
            raise _overflow_error(p, kappa0)
        cond = np.linalg.cond(mat / scale)
        if not np.isfinite(cond) or cond > 1e14:
            raise ValueError(f"singular matching system (condition number {cond:.3e})")
        cI, cJ, cY = np.linalg.solve(mat / scale, rhs) / scale
        p_r1 = pN1 + cJ * bessel("J", nu, x1) + cY * bessel("Y", nu, x1)
    else:
        a0 = 0.0
        kappa1 = 0.0
        nu = 0.0
        cJ = cY = 0.0
        flux = 2.0 * math.pi * p.r1 * kD * kappa0 * bessel("I", 1, kappa0 * p.r1)
        i0 = bessel("I", 0, kappa0 * p.r1)
        if not (math.isfinite(flux) and math.isfinite(i0)):
            raise _overflow_error(p, kappa0)
        cI = -qN / flux
        p_r1 = pN1 + cI * i0

    c4 = (rD0 / kD) * (p.r3**4 / 12.0 - p.r2 * p.r3**3 / 6.0)
    p_r2 = p_r1 - qN / (2.0 * math.pi * kD) * math.log(p.r2 / p.r1)
    p_r3 = p_r2 + c4 * math.log(p.r3 / p.r2) + (rD0 / kD) * _quartic(p, p.r3)

    return RadialSolution(
        params=p,
        kappa0=kappa0,
        a0=a0,
        kappa1=kappa1,
        nu=nu,
        qN=qN,
        pN1=pN1,
        cI=float(cI),
        cJ=float(cJ),
        cY=float(cY),
        c4=c4,
        p_r1=p_r1,
        p_r2=p_r2,
        p_r3=p_r3,
    )


def _overflow_error(p: RadialParams, kappa0: float) -> ValueError:
    return ValueError(
        f"kT0 = {p.kT0:.3g} is too large for the radial reference: the "
        f"modified Bessel terms at kappa0*r0 = {kappa0 * p.r0:.4g} overflow"
    )


def _quartic(p: RadialParams, r):
    """Polynomial part of the S4 pressure, [p(r) - p(r2) - c4 log]/(rD0/kD)."""
    return (
        (r**4 - p.r2**4) / 16.0
        - (p.r3 + p.r2) * (r**3 - p.r2**3) / 9.0
        + p.r2 * p.r3 * (r**2 - p.r2**2) / 4.0
    )


def eval_solution(sol: RadialSolution, r):
    """Pressure and radial flux at radius r (scalar or array).

    Each interface radius belongs to the region below it; flux is zero
    at and beyond r3 by the outer zero-flux condition.
    """
    p = sol.params
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr).copy()
    if np.any(r_arr < 0):
        raise ValueError("negative radius")
    if not np.all(r_arr < np.inf):  # false for nan as well as inf
        raise ValueError("non-finite radius")
    pD = np.empty_like(r_arr)
    q = np.empty_like(r_arr)

    m1 = r_arr <= p.r0
    if np.any(m1):
        x = sol.kappa0 * r_arr[m1]
        pD[m1] = sol.pN1 + sol.cI * bessel("I", 0, x)
        q[m1] = -p.kD * sol.cI * sol.kappa0 * bessel("I", 1, x)

    m2 = (r_arr > p.r0) & (r_arr <= p.r1)
    if np.any(m2):
        rr = r_arr[m2]
        x = sol.kappa1 * rr
        pD[m2] = (
            sol.pN1
            + sol.cJ * bessel("J", sol.nu, x)
            + sol.cY * bessel("Y", sol.nu, x)
        )
        dJ = bessel_deriv("J", sol.nu, x)
        dY = bessel_deriv("Y", sol.nu, x)
        q[m2] = -p.kD * sol.kappa1 * (sol.cJ * dJ + sol.cY * dY)

    m3 = (r_arr > p.r1) & (r_arr <= p.r2)
    if np.any(m3):
        rr = r_arr[m3]
        pD[m3] = sol.p_r1 - sol.qN / (2.0 * math.pi * p.kD) * np.log(rr / p.r1)
        q[m3] = sol.qN / (2.0 * math.pi * rr)

    m4 = (r_arr > p.r2) & (r_arr <= p.r3)
    if np.any(m4):
        rr = r_arr[m4]
        pD[m4] = (
            sol.p_r2
            + sol.c4 * np.log(rr / p.r2)
            + (p.rD0 / p.kD) * _quartic(p, rr)
        )
        q[m4] = -p.kD * sol.c4 / rr - p.rD0 * (
            rr**3 / 4.0 - (p.r3 + p.r2) * rr**2 / 3.0 + p.r2 * p.r3 * rr / 2.0
        )

    m5 = r_arr > p.r3
    pD[m5] = sol.p_r3
    q[m5] = 0.0

    if scalar:
        return float(pD[0]), float(q[0])
    return pD, q


def ode_residual_check(sol: RadialSolution, radii) -> float:
    """Max finite-difference residual of the radial balance law at the samples.

    Uses nested 5-point stencils for (1/r) d/dr(-r kD dp/dr) and
    subtracts the transfer and source terms.  Samples must keep a
    distance of more than 10*ODE_CHECK_STEP from every region interface
    so the stencil never straddles a closed-form switch.
    """
    step = ODE_CHECK_STEP
    p = sol.params
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    interfaces = np.array([p.r0, p.r1, p.r2, p.r3])
    if np.any(np.min(np.abs(radii[:, None] - interfaces[None, :]), axis=1) <= 10 * step):
        raise ValueError("sample radii too close to a region interface")
    if np.any(radii <= 4 * step):
        raise ValueError("sample radii too close to the origin for the stencil")

    offsets = np.arange(-4, 5)
    grid = radii[:, None] + step * offsets[None, :]  # (ns, 9)
    pvals = eval_solution(sol, grid.ravel())[0].reshape(grid.shape)

    def d5(values, s):
        # 5-point first derivative at the middle of a length-5 window
        return (values[..., 0] - 8 * values[..., 1] + 8 * values[..., 3] - values[..., 4]) / (12 * s)

    # p' at offsets -2..2 of each sample
    windows = np.stack([pvals[:, i : i + 5] for i in range(5)], axis=1)  # (ns,5,5)
    dp = d5(windows, step)  # (ns, 5)
    rmid = radii[:, None] + step * np.arange(-2, 3)[None, :]
    f = -rmid * p.kD * dp
    df = d5(f, step)  # (ns,)
    lap = df / radii

    kT = transfer_profile(radii, p.r0, p.r1, p.kT0)
    pD = eval_solution(sol, radii)[0]
    qT = -kT * (pD - sol.pN1)
    rD = ring_profile(radii, p.rD0, p.r2, p.r3)
    return float(np.max(np.abs(lap - qT - rD)))


@functools.cache
def _gauss_legendre():
    # an O(n^3) eigenproblem: reuse it
    return np.polynomial.legendre.leggauss(BALANCE_QUAD_POINTS)


def transfer_balance(sol: RadialSolution) -> float:
    """Total transfer 2 pi Int kT (pD - pN1) r dr; equals -qN exactly."""
    p = sol.params
    total = 0.0
    pieces = [(0.0, p.r0)]
    if p.r1 > p.r0:
        pieces.append((p.r0, p.r1))
    x, w = _gauss_legendre()
    for a, b in pieces:
        r = 0.5 * (b - a) * x + 0.5 * (a + b)
        wr = 0.5 * (b - a) * w
        kT = transfer_profile(r, p.r0, p.r1, p.kT0)
        pD = eval_solution(sol, r)[0]
        total += float(np.sum(wr * kT * (pD - sol.pN1) * r))
    return 2.0 * math.pi * total


def profile_table(sol: RadialSolution, n_samples: int = 500, r_max: float | None = None):
    """(r, pD, q_r) samples over a radius grid for export and plotting."""
    p = sol.params
    if r_max is None:
        r_max = 1.25 * p.r3
    r = np.linspace(0.0, r_max, n_samples)
    pD, q = eval_solution(sol, r)
    return np.column_stack([r, pD, q])
