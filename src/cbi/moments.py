"""First moments of the process via matrix exponentials.

The mean solves the linear ODE m'(t) = B_tilde m(t) + beta_tilde, so

    E[X_t] = e^{t B_tilde} E[X_0] + (int_0^t e^{u B_tilde} du) beta_tilde.

The integrated exponential is evaluated exactly (also for singular B_tilde)
through the augmented block matrix exp([[B_tilde, I], [0, 0]] t), whose
top-right block is the integral.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .params import AdmissibleParams, DerivedParams

# scaling-and-squaring stays accurate well past this; guard the absurd
_NORM_LIMIT = 500.0


def integrated_expm(A, t: float):
    """(e^{tA}, int_0^t e^{uA} du) via the augmented block exponential."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = A
    block[:d, d:] = np.eye(d)
    full = expm(t * block)
    return full[:d, :d], full[:d, d:]


def mean(p: AdmissibleParams, der: DerivedParams, m0, t: float):
    """E[X_t] given E[X_0] = m0."""
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (p.d,):
        raise ValueError(f"m0 must have shape ({p.d},)")
    if not np.all(np.isfinite(m0)):
        raise ValueError("m0 must be finite")
    if not 0 <= t < np.inf:
        raise ValueError("t must be finite and non-negative")
    if t == 0.0:
        return m0.copy()
    if t * np.linalg.norm(der.B_tilde, 1) > _NORM_LIMIT:
        raise OverflowError("||t B_tilde|| too large for a reliable matrix exponential")
    propagator, integral = integrated_expm(der.B_tilde, t)
    # an overflow is reported by the check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = propagator @ m0 + integral @ der.beta_tilde
    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed")
    return result
