"""The generalized Riccati flow and the exact Laplace transform.
=============================================================

The transition semigroup is exponential-affine: its Laplace transform is
exp(-<x, v(t, lam)> - int_0^t psi(v(s, lam)) ds) where v solves
dv/dt = -phi(v) from lam. For the scalar diffusion the flow has a closed
form, which makes a sharp oracle for the ODE solver.
"""

import numpy as np

from cbi import AdmissibleParams
from cbi.measures import DiscreteAtoms
from cbi.riccati import cir_closed_form_v, laplace_transform, phi, psi, solve_v

# Scalar square-root diffusion: c=1, drift -1, immigration drift 1.
p = AdmissibleParams(d=1, c=[1.0], beta=[1.0], B=[[-1.0]], nu=None, mu=(None,))

sol = solve_v(p, [2.0], T=3.0)
print("adaptive grid size:", len(sol.grid))
for t in (0.5, 1.0, 3.0):
    numeric = sol.v_at(t)[0]
    exact = cir_closed_form_v(1.0, -1.0, 2.0, t)
    print(f"v({t}) numeric {numeric:.12f}  closed form {exact:.12f}")

value = laplace_transform(p, x=[1.0], lam=[2.0], t=1.0)
print("Laplace transform at (x=1, lam=2, t=1):", value)
print("conservativity (lam=0):", laplace_transform(p, [1.0], [0.0], 1.0))

# With branching jumps the mechanism gains an exponential integral.
mu = DiscreteAtoms(1, [(np.array([0.5]), 0.8), (np.array([2.0]), 0.3)])
pj = AdmissibleParams(d=1, c=[0.5], beta=[0.3], B=[[-1.0]], nu=None, mu=(mu,))
lam = np.array([1.2])
print("phi", phi(pj, lam))
print("psi", psi(pj, lam))
