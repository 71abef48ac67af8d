"""Jump measures: the three families, their integrals and sampling.
=================================================================

Every model in this package is parameterised by measures on the punctured
orthant U_d. This walk-through builds one of each family, evaluates the
moment integrals that the admissibility conditions are made of, and draws
samples restricted to norm shells. Every integral is a method of the measure;
the conditions of cbi.params are sums of them.
"""

import numpy as np

from cbi.measures import (
    ALL, LARGE_JUMPS, SMALL_JUMPS, DiscreteAtoms, MeasureSum,
    ProductExponential, TemperedPowerLawAxis, above,
)

rng = np.random.default_rng(1)

# A discrete measure: two atoms in the plane, weights 0.5 and 0.3.
atoms = DiscreteAtoms(2, [(np.array([0.6, 0.3]), 0.5),
                          (np.array([1.5, 0.2]), 0.3)])
print("atoms: total mass          ", atoms.mass(ALL))
print("atoms: mass of ||z|| >= 1  ", atoms.mass(LARGE_JUMPS))
print("atoms: int z_1             ", atoms.coord(0, ALL))

# A product-exponential measure: mass 0.8 spread with rates (2.5, 3.0).
smooth = ProductExponential(0.8, [2.5, 3.0])
print("smooth: int (1 ^ z_2)      ", smooth.one_wedge_coord(1))

# A tempered power law on the first axis: infinite activity at the origin.
heavy = TemperedPowerLawAxis(2, 0, alpha=0.7, theta=1.5, scale=0.4)
print("heavy: mass of everything  ", heavy.mass(ALL))
print("heavy: mass above 0.01     ", heavy.mass(above(0.01)))
# int (1 ^ ||z||) splits at ||z|| = 1 into int ||z|| below and the mass above
print("heavy: int (1 ^ ||z||)     ",
      heavy.norm_moment(SMALL_JUMPS) + heavy.mass(LARGE_JUMPS))

# Mixtures distribute every operation over their components.
combo = MeasureSum([atoms, smooth])
print("mixture: total mass        ", combo.mass(ALL))

# Region-restricted sampling; empirical means match restricted integrals.
draws = combo.sample_n(LARGE_JUMPS, 50_000, rng)
empirical = draws[:, 0].mean()
exact = combo.coord(0, LARGE_JUMPS) / combo.mass(LARGE_JUMPS)
print(f"mixture: E[z_1 | large jump] empirical {empirical:.4f} vs exact {exact:.4f}")
