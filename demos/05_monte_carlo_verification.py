"""Cross-verifying the three representations by Monte Carlo.
=========================================================

The same process is computed three independent ways: path simulation of the
jump SDE, the Riccati/Laplace characterisation, and the closed-form first
moment. The verification harness runs the estimators against the analytic
values on the bundled scenarios S1..S5 with pinned seeds and tolerances.
"""

import numpy as np

from cbi import load_scenario
from cbi.montecarlo import (
    estimate_laplace_grid, estimate_mean, verify_laplace, verify_mean,
)

s1 = load_scenario("S1")
print(s1.description)

# Raw estimators: means and Laplace functionals with standard errors.
est = estimate_mean(s1.params, s1.x0, t=1.0, n_paths=20_000,
                    cfg=s1.sim_config(), seed=7)
print(f"E[X_1] ~ {est.value[0]:.4f} +- {est.stderr[0]:.4f} "
      "(analytic value is exactly 1 for this instance)")

# One path sweep estimates every (t, lam) point of a grid.
values, stderrs = estimate_laplace_grid(
    s1.params, s1.x0, [(0.5, np.array([1.0])), (1.0, np.array([1.0]))],
    n_paths=20_000, cfg=s1.sim_config(), seed=7)
for t, value, stderr in zip((0.5, 1.0), values, stderrs):
    print(f"E[exp(-X_{t:g})] ~ {value:.4f} +- {stderr:.4f}")

# The harness wraps this into pinned pass/fail reports.
print()
print(verify_mean(s1).table())
print()
print(verify_laplace(s1).table())
