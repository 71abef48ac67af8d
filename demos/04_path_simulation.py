"""Simulating trajectories of the jump SDE.
========================================

Paths follow an Euler scheme in which every branching jump is an actual
event: candidate jumps arrive at the rate of the measure restricted to the
simulated region and are thinned by the left-endpoint state. The drift uses
the effective matrix that absorbs the compensators of the simulated jumps.
"""

import numpy as np

from cbi import AdmissibleParams
from cbi.measures import DiscreteAtoms
from cbi.simulate import SimConfig, block_generator, simulate_path

mu = DiscreteAtoms(1, [(np.array([0.4]), 1.0), (np.array([1.3]), 0.2)])
nu = DiscreteAtoms(1, [(np.array([0.6]), 0.5)])
p = AdmissibleParams(d=1, c=[0.4], beta=[0.3], B=[[-1.0]], nu=nu, mu=(mu,))

cfg = SimConfig(T=2.0, dt=2.0 ** -8, record_jumps=True)
path = simulate_path(p, [1.0], cfg, block_generator(seed=2024, block_index=0))

print("grid points:", len(path.grid))
print("final state:", path.final)
print("number of logged jump events:", len(path.jumps))
for ev in path.jumps[:5]:
    print(f"  t={ev.time:.4f} {ev.kind:<12} size={ev.size} class={ev.size_class}")

# Same seed, same trajectory, bit for bit.
again = simulate_path(p, [1.0], cfg, block_generator(seed=2024, block_index=0))
print("bit-reproducible:", np.array_equal(path.states, again.states))

# The clamp positivity mode projects the state back to the orthant after
# every step; useful when downstream code requires hard non-negativity.
clamped = simulate_path(
    p, [1.0], SimConfig(T=2.0, dt=2.0 ** -8, positivity_mode="clamp"),
    block_generator(seed=2024, block_index=0))
print("clamp mode minimum state:", clamped.states.min())
