"""Adaptive quadrature with strict failure semantics.

:func:`nquad_strict` takes the angular integrals of product-exponential norm
shells over the positive orthant of S^(d-1), a (d-1)-dimensional box of
angles; the radial part of those shells is exact. Every other integral of
the package is closed-form. It is a globally adaptive Gauss-Kronrod rule in
numpy: QUADPACK's 21-point rule and error estimate (Piessens et al., 1983),
the integrand evaluated at all nodes of the intervals being refined in one
call, and the interval of largest error estimate bisected until the sum of
the estimates meets the tolerance (relative 1e-10, absolute 1e-12); boxes of
several angles nest the rule. :func:`quad_strict` is scipy's one-dimensional
QUADPACK rule, at relative 1e-10 with an absolute floor of 1e-14; only the
test-suite's quadrature references and the benchmark's tracer use it, and it
imports scipy only when called.
"""

import math
import warnings

import numpy as np

from .errors import QuadratureFailure

REL_TOL = 1e-10
ABS_TOL = 1e-14
SUBINTERVAL_BUDGET = 1000

# the nested rule's tolerances and its subinterval budget, which grows by
# one per break point
NQUAD_REL_TOL = 1e-10
NQUAD_ABS_TOL = 1e-12
NQUAD_BUDGET = 200

# QK21: the Kronrod nodes on [0, 1] (the 10-point Gauss nodes at odd
# positions), their Kronrod weights and the Gauss weights
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077482334614016, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# the 21 nodes on [-1, 1] in ascending order; the Kronrod and the Gauss
# weights there, as the two columns of one matrix
_NODES = np.array([-x for x in _XK[:-1]] + list(reversed(_XK)))
_gauss = [0.0] * 11
_gauss[1::2] = _WG
_WEIGHTS = np.array([_WK[:-1] + tuple(reversed(_WK)),
                     _gauss[:-1] + list(reversed(_gauss))]).T
del _gauss
_EPS = np.finfo(float).eps


def quad_strict(fn, lo, hi):
    """Integrate fn over (lo, hi), raising QuadratureFailure on non-convergence."""
    from scipy import integrate

    if hi <= lo:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(fn, lo, hi, epsabs=ABS_TOL, epsrel=REL_TOL,
                                      limit=SUBINTERVAL_BUDGET)
        except integrate.IntegrationWarning as exc:
            raise QuadratureFailure(
                f"quadrature on ({lo}, {hi}) did not converge: {exc}"
            ) from exc
    return value


def _qk21(fn, lo, hi):
    """QK21 on each interval [lo_k, hi_k] of two arrays, with fn called once
    on all their nodes: (integrals, error estimates) as lists. The error
    estimate is QUADPACK's: resasc min(1, (200 |K - G| / resasc)^1.5),
    at least 50 eps times the integral of |fn|."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * _NODES
    f = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    kronrod, gauss = (f @ _WEIGHTS).T
    resabs = np.abs(f) @ _WEIGHTS[:, 0]
    resasc = np.abs(f - 0.5 * kronrod[:, None]) @ _WEIGHTS[:, 0]
    values, errors = [], []
    # a handful of intervals per call: the estimate is cheaper on floats
    for k, g, absolute, spread, h in zip(kronrod.tolist(), gauss.tolist(), resabs.tolist(),
                                         resasc.tolist(), half.tolist()):
        error = abs(k - g) * h
        spread *= h
        if spread and error:
            ratio = 200.0 * error / spread
            error = spread * ratio ** 1.5 if ratio < 1.0 else spread
        values.append(k * h)
        errors.append(max(50.0 * _EPS * absolute * h, error))
    return values, errors


def _adaptive(fn, edges, budget):
    """Integral of fn over [edges[0], edges[-1]], each piece between
    consecutive edges starting with its own rule. A non-finite sum is
    returned at once: it is an overflow, which the caller reports."""
    lo, hi = edges[:-1], edges[1:]
    values, errors = _qk21(fn, np.array(lo), np.array(hi))
    while True:
        total = sum(values)
        error = sum(errors)
        if not math.isfinite(total) or error <= max(NQUAD_ABS_TOL, NQUAD_REL_TOL * abs(total)):
            return total
        if len(values) >= budget:
            raise QuadratureFailure(
                f"nested quadrature did not converge: error estimate {error:.3g} "
                f"after {budget} subintervals")
        k = max(range(len(errors)), key=errors.__getitem__)
        a, b = lo[k], hi[k]
        mid = 0.5 * (a + b)
        if not a < mid < b:
            raise QuadratureFailure(
                f"nested quadrature did not converge: cannot bisect ({a!r}, {b!r})")
        halves = _qk21(fn, np.array([a, mid]), np.array([mid, b]))
        hi[k] = mid
        lo.append(mid)
        hi.append(b)
        values[k], errors[k] = halves[0][0], halves[1][0]
        values.append(halves[0][1])
        errors.append(halves[1][1])


def nquad_strict(fn, ranges, points=None):
    """Nested adaptive quadrature of fn(x_0, ..., x_(n-1)) over ranges, in
    scipy.integrate.nquad's order: ranges[0] belongs to x_0, the innermost
    variable. fn takes an array of x_0 values, the outer variables as floats,
    and returns an array. points, when given, are break points inside every
    range: each piece between them starts with its own rule (as QUADPACK's
    QAGP), and each break point adds one subinterval to the budget."""
    budget = NQUAD_BUDGET + (len(points) if points is not None else 0)

    def integral(level, outer):
        lo, hi = ranges[level]
        edges = [lo, *sorted(x for x in points or () if lo < x < hi), hi]
        if level == 0:
            return _adaptive(lambda x: fn(x, *outer), edges, budget)
        return _adaptive(lambda xs: np.array([integral(level - 1, (x, *outer))
                                              for x in xs.tolist()]), edges, budget)

    return integral(len(ranges) - 1, ())
