"""Quadrature with strict failure semantics.

:func:`nquad_strict` takes the angular integrals of product-exponential norm
shells over the positive orthant of S^(d-1), a (d-1)-dimensional box of
angles; the radial part of those shells is exact. Every other integral of
the package is closed-form. It cuts every range at its break points and
applies the tensor-product Gauss-Legendre rule of 16, 32, 64, ... nodes per
variable to all boxes at once, the integrand evaluated on the whole grid in
one call, until two successive totals agree to relative 1e-10 (absolute
1e-12). On each box the angular integrands are analytic, where the rule
converges exponentially (Trefethen, SIAM Rev. 50, 2008), so the agreement
of the n- and 2n-node totals bounds the error of the coarser one. A rule
that would exceed a fixed node budget raises QuadratureFailure instead.
:func:`quad_strict` is scipy's one-dimensional QUADPACK rule, at relative
1e-10 with an absolute floor of 1e-14; only the test-suite's quadrature
references and the benchmark's tracer use it, and it imports scipy only
when called.
"""

import functools
import math
import warnings

import numpy as np

from .errors import QuadratureFailure

REL_TOL = 1e-10
ABS_TOL = 1e-14
SUBINTERVAL_BUDGET = 1000

# the product rule's tolerances
NQUAD_REL_TOL = 1e-10
NQUAD_ABS_TOL = 1e-12
# nodes per variable of the first rule, and the most work of one rule: its
# integrand nodes over all boxes, or the n^2 angles that build its n-node
# rule. A d = 3 shell holds about 70 bytes per node at its peak, so the
# budget is about 70 MiB there.
_FIRST_NODES = 16
_NODE_BUDGET = 2 ** 20


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


@functools.cache
def _gauss_legendre(n):
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1], n
    even, in ascending order. The positive nodes are cos(t) with t from
    pi (k + 3/4) / (n + 1/2) refined by four Newton steps in t (for n >= 16
    the fourth moves t by rounding only) on
    P_n(cos t) = sum_k c_k cos((n - 2k) t), c_k = a_k a_(n-k) with
    a_k = binom(2k, k) / 4^k, all k at once; the weight is
    2 / (dP_n / dt)^2, which keeps its relative accuracy at the ends."""
    k = np.arange(n + 1)
    a = np.cumprod(np.concatenate([[1.0], (2 * k[1:] - 1) / (2 * k[1:])]))
    c = a * a[::-1]
    freq = n - 2.0 * k
    t = np.pi * (np.arange(n // 2) + 0.75) / (n + 0.5)
    for _ in range(4):
        angles = np.multiply.outer(t, freq)
        t = t + (np.cos(angles) @ c) / (np.sin(angles) @ (c * freq))
    slope = np.sin(np.multiply.outer(t, freq)) @ (c * freq)
    x, w = np.cos(t), 2.0 / slope ** 2
    nodes, weights = np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False   # shared by every caller
    return nodes, weights


def nquad_strict(fn, ranges, points=None):
    """Integral of fn(x_0, ..., x_(m-1)) over the box of ranges, ranges[k]
    that of x_k, as scipy.integrate.nquad orders them. fn takes one array
    per variable, x_k laid along axis k, and returns their broadcast.
    points, when given, are break points inside every range, and the rule
    runs on each box between them. A non-finite total is returned at once:
    it is an overflow, which the caller reports."""
    m = len(ranges)
    pieces = []
    for k, (lo, hi) in enumerate(ranges):
        edges = np.array([lo, *sorted(x for x in points or () if lo < x < hi), hi])
        shape = [-1 if j == k else 1 for j in range(m)]
        pieces.append((0.5 * (edges[:-1] + edges[1:])[:, None],
                       0.5 * (edges[1:] - edges[:-1])[:, None], shape))
    boxes = math.prod(len(mid) for mid, _, _ in pieces)
    n, previous = _FIRST_NODES, math.inf
    while True:
        if max(boxes * n ** m, n * n) > _NODE_BUDGET:
            raise QuadratureFailure(
                f"angular quadrature did not converge: the {n}-node rule on {boxes} "
                f"box(es) exceeds the budget of {_NODE_BUDGET} nodes")
        nodes, weights = _gauss_legendre(n)
        total = fn(*((mid + half * nodes).reshape(shape) for mid, half, shape in pieces))
        # fn's result broadcasts against the weights of each axis, last first
        for _, half, _ in reversed(pieces):
            total = (total * (half * weights).ravel()).sum(axis=-1)
        total = float(total)
        if not math.isfinite(total) or abs(total - previous) <= max(
                NQUAD_ABS_TOL, NQUAD_REL_TOL * abs(total)):
            return total
        previous, n = total, 2 * n
