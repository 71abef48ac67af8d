"""Multi-type continuous-state branching processes with immigration.

Three independent views of the same process family, cross-verified by Monte
Carlo: direct Euler simulation of the jump SDE with thinned Poisson noise,
the Laplace transform through the generalized Riccati flow, and the
closed-form first moment through matrix exponentials.
"""

from .errors import (
    BudgetExceeded, CbiError, DimensionMismatch, EmptyRegion, InfiniteMass,
    InvalidConfig, PreconditionViolated, QuadratureFailure, StepSizeUnderflow,
)
from .measures import (
    ALL, LARGE_JUMPS, SMALL_JUMPS, DiscreteAtoms, JumpMeasure, MeasureSum,
    ProductExponential, Region, TemperedPowerLawAxis, above, below,
    exp_branching_integral, exp_branching_integral_full, exp_immigration_integral,
)
from .moments import mean
from .montecarlo import (
    VerifyReport, estimate_laplace_grid, estimate_mean,
    verify_comparison, verify_laplace, verify_mean,
)
from .params import (
    AdmissibleParams, Check, DerivedParams, ValidationReport, derive, validate,
)
from .riccati import RiccatiSolution, cir_closed_form_v, laplace_transform, phi, psi, solve_v
from .scenarios import Scenario, load_scenario
from .simulate import (
    JumpEvent, Path, SimConfig, block_generator, simulate_coupled, simulate_path,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
