"""First moments of the process via matrix exponentials.

The mean solves the linear ODE m'(t) = B_tilde m(t) + beta_tilde, so

    E[X_t] = e^{t B_tilde} E[X_0] + (int_0^t e^{u B_tilde} du) beta_tilde.

The integrated exponential is evaluated exactly (also for singular B_tilde)
through the augmented block matrix exp([[B_tilde, I], [0, 0]] t), whose
top-right block is the integral. m0 and t are checked by the shared checks
of :mod:`cbi.params` (check_state, check_time), as x and t are in
:mod:`cbi.riccati`.

The exponential is :func:`expm`, Taylor scaling and squaring (Moler & Van
Loan, "Nineteen dubious ways to compute the exponential of a matrix,
twenty-five years later", SIAM Rev. 45, 2003, method 3): the degree-18
Taylor polynomial of e^{A/2^s}, squared s times, with s chosen so that
||A/2^s||_1 < 1/2, and ||A/2^s||_1 >= 1/4 when s > 0. Below 1/2 the
remainder is at most 1.7e-23 (led by 0.5^19/19!), so the polynomial is
e^{A/2^s + E} with ||E||_1 < 3e-23. The squarings give e^{A + 2^s E}: a
backward error ||2^s E||_1 below 1.2e-22 ||A||_1 whatever s is. Degree
15 is the least whose bound meets unit roundoff (1.1e-16); 18 leaves six
orders of margin for three more products of a 2d x 2d matrix, d <= 3.
"""

from __future__ import annotations

import math

import numpy as np

from .params import AdmissibleParams, check_state, check_time, derive

# scaling-and-squaring stays accurate well past this; guard the absurd
_NORM_LIMIT = 500.0


def expm(A):
    """e^A of a square float matrix; exp of the diagonal when A is diagonal."""
    A = np.asarray(A, dtype=float)
    diag = np.diagonal(A)
    if not np.any(A - np.diag(diag)):
        return np.diag(np.exp(diag))
    # 2^(e - 1) <= ||A||_1 < 2^e, so 1/4 <= ||A / 2^s||_1 < 1/2 for s = e + 1
    s = max(0, math.frexp(np.abs(A).sum(axis=0).max())[1] + 1)
    A = A / 2.0 ** s
    I = np.eye(len(A))
    X = I
    for k in range(18, 0, -1):
        X = I + A @ X / k
    for _ in range(s):
        X = X @ X
    return X


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
