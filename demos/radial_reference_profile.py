"""The closed-form radial solution: constants, identities, and a profile dump.

The two-node configuration (one pressure-controlled root feeding one
terminal over a disc-shaped support) has a fully analytic solution built
from Bessel functions, a logarithm, and a quartic.  This script solves
for the matching constants, checks the built-in consistency identities,
and writes a (r, pressure, radial flux) table you can plot with any tool.
"""

import numpy as np

from mdflow import case1, ode_residual_check, profile_table, solve_constants, transfer_balance

params = case1("A").reference[1]
sol = solve_constants(params)
radii = (params.r0, params.r1, params.r2, params.r3)

print("configuration radii:", radii)
print(f"network throughput qN  = {sol.qN:+.9e}  (volume balance)")
print(f"terminal pressure  pN1 = {sol.pN1:+.9e}")
print(f"matching constants cI={sol.cI:.6e} cJ={sol.cJ:.6e} cY={sol.cY:.6e}")

# The solution should satisfy the radial balance law pointwise ...
samples = np.setdiff1d(np.linspace(0.02, 0.48, 60), radii)
samples = samples[np.min(np.abs(samples[:, None] - np.array([radii])), axis=1) > 5e-3]
print(f"max pointwise balance residual: {ode_residual_check(sol, samples):.2e}")

# ... and push exactly -qN through the transfer region in total.
print(f"transfer balance defect: {abs(transfer_balance(sol) + sol.qN):.2e}")

rows = profile_table(sol, n_samples=200)
np.savetxt("radial_profile.csv", rows, delimiter=",", header="r,pD,q_r", comments="")
print("wrote radial_profile.csv (plot columns 1:2 and 1:3)")
