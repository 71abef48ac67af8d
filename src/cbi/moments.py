"""First moments of the process via matrix exponentials.

The mean solves the linear ODE m'(t) = B_tilde m(t) + beta_tilde, so

    E[X_t] = e^{t B_tilde} E[X_0] + (int_0^t e^{u B_tilde} du) beta_tilde.

The integrated exponential is evaluated exactly (also for singular B_tilde)
through the augmented block matrix exp([[B_tilde, I], [0, 0]] t), whose
top-right block is the integral. m0 and t are checked by the shared checks
of :mod:`cbi.params` (check_state, check_time), as x and t are in
:mod:`cbi.riccati`. The exponential is :func:`expm`, Pade scaling and
squaring in numpy (Higham, SIAM J. Matrix Anal. Appl. 26, 2005) with the
degree and scaling chosen as in Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 31 (2009).
"""

from __future__ import annotations

import math

import numpy as np

from .params import AdmissibleParams, check_state, check_time, derive

# scaling-and-squaring stays accurate well past this; guard the absurd
_NORM_LIMIT = 500.0

# the coefficients b_0..b_m of the degree-m Pade approximant to e^x
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# the largest eta at which degree m meets unit roundoff without scaling
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _norm1(X):
    return float(np.abs(X).sum(axis=0).max())


def _ell(A, m):
    """Extra squarings that keep degree m's backward error at unit roundoff
    for a non-normal A (Al-Mohy & Higham 2009, eq. 3.4)."""
    p = 2 * m + 1
    absolute = np.abs(A)
    v = np.ones(len(A))
    for _ in range(p):
        v = v @ absolute
    if not v.max():
        return 0
    alpha = v.max() / (_norm1(A) * math.comb(2 * p, p) * math.factorial(2 * p + 1))
    return max(math.ceil(math.log2(alpha * 2.0 ** 53) / (2 * m)), 0)


def _pade(A, powers, m):
    """r_m(A) from the even powers I, A^2, A^4, ... of A."""
    b = _PADE[m]
    if m == 13:
        I, A2, A4, A6 = powers
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    else:
        U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers[:m // 2 + 1]))
        V = sum(b[2 * k] * P for k, P in enumerate(powers[:m // 2 + 1]))
    return np.linalg.solve(V - U, V + U)


def expm(A):
    """e^A of a square float matrix; exp of the diagonal when A is diagonal."""
    A = np.asarray(A, dtype=float)
    diag = np.diagonal(A)
    if not np.any(A - np.diag(diag)):
        return np.diag(np.exp(diag))
    I = np.eye(len(A))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    powers = [I, A2, A4, A6]
    d4, d6 = _norm1(A4) ** 0.25, _norm1(A6) ** (1 / 6)
    for m in (3, 5):
        if max(d4, d6) <= _THETA[m] and _ell(A, m) == 0:
            return _pade(A, powers, m)
    powers.append(A4 @ A4)
    d8 = _norm1(powers[4]) ** 0.125
    for m in (7, 9):
        if max(d6, d8) <= _THETA[m] and _ell(A, m) == 0:
            return _pade(A, powers, m)
    eta = min(max(d6, d8), max(d8, _norm1(A4 @ A6) ** 0.1))
    s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta > 0.0 else 0
    s += _ell(A / 2.0 ** s, 13)
    X = _pade(A / 2.0 ** s, [I, A2 / 4.0 ** s, A4 / 16.0 ** s, A6 / 64.0 ** s], 13)
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
