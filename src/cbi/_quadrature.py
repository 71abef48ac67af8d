"""Thin wrappers around scipy's adaptive quadrature with strict failure semantics.

:func:`nquad_strict` (nested Gauss-Kronrod refinement, QUADPACK) takes the
angular integrals of product-exponential norm shells over the positive
orthant of S^(d-1), a (d-1)-dimensional box of angles; the radial part of
those shells is exact. Every other integral of the package is closed-form.
:func:`quad_strict` is the one-dimensional rule, which the test-suite's
quadrature references and the benchmark's tracer use. Tolerances follow the
package-wide quadrature policy: relative 1e-10 with an absolute floor of
1e-14 (1e-12 for the nested rule).
"""

import warnings

from scipy import integrate

from .errors import QuadratureFailure

REL_TOL = 1e-10
ABS_TOL = 1e-14
SUBINTERVAL_BUDGET = 1000


def quad_strict(fn, lo, hi):
    """Integrate fn over (lo, hi), raising QuadratureFailure on non-convergence."""
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


def nquad_strict(fn, ranges, points=None):
    """Nested adaptive quadrature; ranges follow scipy.integrate.nquad order.
    points, when given, are break points inside every range: each piece
    between them starts with its own rule (QUADPACK's QAGP)."""
    opts = [dict(epsabs=1e-12, epsrel=1e-10, limit=200) for _ in ranges]
    if points is not None:
        for opt in opts:
            opt.update(points=points, limit=200 + len(points))
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.nquad(fn, ranges, opts=opts)
        except integrate.IntegrationWarning as exc:
            raise QuadratureFailure(f"nested quadrature did not converge: {exc}") from exc
    return value
