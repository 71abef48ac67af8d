"""First moments of the process via matrix exponentials.

The mean solves the linear ODE m'(t) = B_tilde m(t) + beta_tilde, so

    E[X_t] = e^{t B_tilde} E[X_0] + (int_0^t e^{u B_tilde} du) beta_tilde.

The integrated exponential is evaluated exactly (also for singular B_tilde)
through the augmented block matrix exp([[B_tilde, I], [0, 0]] t), whose
top-right block is the integral. m0 and t are checked by the shared checks
of :mod:`cbi.params` (check_state, check_time), as x and t are in
:mod:`cbi.riccati`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .params import AdmissibleParams, check_state, check_time, derive

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


def mean(p: AdmissibleParams, m0, t: float):
    """E[X_t] given E[X_0] = m0."""
    m0 = check_state("m0", m0, p.d)
    t = check_time("t", t)
    if t == 0.0:
        return m0.copy()
    # beta_tilde and B_tilde do not depend on the cutoff
    der = derive(p)
    # a product of Python floats overflows to inf without a numpy warning
    if t * float(np.linalg.norm(der.B_tilde, 1)) > _NORM_LIMIT:
        raise OverflowError("||t B_tilde|| too large for a reliable matrix exponential")
    propagator, integral = integrated_expm(der.B_tilde, t)
    # an overflow is reported by the check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = propagator @ m0 + integral @ der.beta_tilde
    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed")
    return result
