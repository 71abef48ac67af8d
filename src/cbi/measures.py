"""Jump measures on the punctured orthant U_d = R_+^d \\ {0}.

Three parametric families are supported, plus finite mixtures of them:

* :class:`DiscreteAtoms` -- finitely many weighted atoms; every integral is
  an exact finite sum.
* :class:`ProductExponential` -- total mass r spread as a product of
  exponential densities; separable integrals are closed-form, norm-restricted
  ones are taken in hyperspherical coordinates: the radial part is an exact
  incomplete-gamma difference, leaving one (d-1)-dimensional angular
  quadrature for d >= 2.
* :class:`TemperedPowerLawAxis` -- density C z^(-1-alpha) e^(-theta z) on a
  single coordinate axis; infinite activity at the origin is allowed. Its
  region integrals are incomplete gamma functions in closed form, a power
  series below the tempering scale 1/theta and Legendre's continued
  fraction above it, with exact power-counting divergence detection; a
  narrow shell above 1/theta, a difference of two tails, keeps less
  relative accuracy (see the class). Its exponential integrals are the
  tempered-stable closed forms, and its restrictions to regions away from
  the origin are sampled exactly by rejection.

Regions are shells in the Euclidean norm, {z : lo <= ||z|| < hi}; the public
region vocabulary is ALL, SMALL_JUMPS (||z|| < 1), LARGE_JUMPS (||z|| >= 1),
above(eps) and below(eps).

Every family exposes the same region integrals of 1, z_i, ||z|| and ||z||^2
and the kinked integrals int (1 ^ z_i) and int (z_i - 1)^+; each
returns +inf exactly when it diverges, and raises OverflowError when it
converges but its value overflows. The paper's admissibility conditions
and modified drifts are sums of these, composed in :mod:`cbi.params`.
Every numeric field of a family, and the norm of every atom, must be
finite; a non-finite one raises ValueError at construction.

Mixtures are sampled by :func:`sample_parts`, the one place that picks a
mixture leaf by mass, for :class:`MeasureSum` and the Euler scheme alike.

All measure objects are immutable after construction and safe to share across
parallel workers; sampling takes an explicit numpy Generator.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

# quad_strict is bound here for the benchmark's tracer (perfbench/tracing.py),
# which wraps both quadratures of this module by name
from ._quadrature import quad_strict, nquad_strict  # noqa: F401
from .errors import EmptyRegion, InfiniteMass, QuadratureFailure

INF = float("inf")
_EPS = np.finfo(float).eps
# the modified Lentz method's stand-in for a vanishing first denominator,
# and its term budget: at x = theta a >= 1 the fraction converges within
# about a hundred terms
_LENTZ_TINY = 1e-300
_LENTZ_MAX_TERMS = 1000


# --------------------------------------------------------------------------
# regions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Norm shell {z in U_d : lo <= ||z|| < hi}."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"empty or invalid norm shell [{self.lo}, {self.hi})")

    def contains(self, norms):
        return (norms >= self.lo) & (norms < self.hi)


ALL = Region(0.0, INF)
SMALL_JUMPS = Region(0.0, 1.0)
LARGE_JUMPS = Region(1.0, INF)


def above(eps: float) -> Region:
    """Region ||z|| >= eps."""
    return Region(float(eps), INF)


def below(eps: float) -> Region:
    """Region ||z|| < eps (plumbing for truncation corrections)."""
    return Region(0.0, float(eps))


# --------------------------------------------------------------------------
# family base
# --------------------------------------------------------------------------

class JumpMeasure:
    """Common interface of the measure families; see module docstring."""

    dim: int
    is_finite_activity: bool

    def components(self):
        return (self,)

    # region integrals of 1, z_i, ||z||, ||z||^2
    def mass(self, region: Region) -> float:
        raise NotImplementedError

    def coord(self, i: int, region: Region) -> float:
        raise NotImplementedError

    def norm_moment(self, region: Region) -> float:
        raise NotImplementedError

    def norm_sq_moment(self, region: Region) -> float:
        raise NotImplementedError

    # kinked integrands in a single coordinate: (1 ^ z_i) and (z_i - 1)^+
    def one_wedge_coord(self, i: int) -> float:
        raise NotImplementedError

    def excess_over_one(self, i: int) -> float:
        raise NotImplementedError

    # exponential integrands; lam is one vector (d,) or a stack (m, d), the
    # result a float or an (m,) array; lam is not checked here
    def exp_branching(self, lam, i: int):
        raise NotImplementedError

    def exp_branching_full(self, lam):
        raise NotImplementedError

    def exp_immigration(self, lam):
        raise NotImplementedError

    def sample_n(self, region: Region, n: int, rng) -> np.ndarray:
        raise NotImplementedError


def _convergent(value):
    """value of an integral that converges by construction: an infinite (or
    NaN) one overflowed, and raises OverflowError rather than reading as a
    divergence."""
    if not math.isfinite(value):
        raise OverflowError("a convergent jump-measure integral overflowed")
    return value


def _convergent_integral(method):
    """A region or kinked integral of a finite-activity family, checked by
    :func:`_convergent`; an overflowing density scale or shell integrand
    gives inf or NaN, without a numpy warning (one error-state context per
    integral, not per integrand evaluation)."""
    @functools.wraps(method)
    def checked(*args):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = method(*args)
        return _convergent(value)
    return checked


# --------------------------------------------------------------------------
# discrete atoms
# --------------------------------------------------------------------------

class DiscreteAtoms(JumpMeasure):
    """Finitely many atoms; atoms is a sequence of (location, weight).

    Locations live in U_d (componentwise >= 0, not identically zero) and
    weights are strictly positive. An empty atom list is the zero measure.
    """

    is_finite_activity = True

    def __init__(self, dim, atoms=()):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        locs, weights = [], []
        for z, w in atoms:
            z = np.asarray(z, dtype=float)
            if z.shape != (self.dim,):
                raise ValueError(f"atom location must have shape ({self.dim},)")
            if np.any(z < 0) or not np.any(z > 0):
                raise ValueError("atom locations must lie in U_d")
            if not 0 < w < INF:
                raise ValueError("atom weights must be finite and strictly positive")
            locs.append(z)
            weights.append(float(w))
        self._z = np.array(locs, dtype=float).reshape(len(locs), self.dim)
        self._w = np.array(weights, dtype=float)
        with np.errstate(over="ignore"):
            self._norms = np.linalg.norm(self._z, axis=1)
        # an atom without a finite norm would fall outside every region
        if not np.all(np.isfinite(self._norms)):
            raise ValueError("atom locations must be finite, with a finite norm")
        self._cdf_cache = {}
        self._cdf_lock = threading.Lock()

    @property
    def atoms(self):
        return [(self._z[k].copy(), self._w[k]) for k in range(len(self._w))]

    @_convergent_integral
    def _wsum(self, values, region=None):
        if len(self._w) == 0:
            return 0.0
        if region is None:
            return float(np.dot(self._w, values))
        mask = region.contains(self._norms)
        return float(np.dot(self._w[mask], np.asarray(values)[mask]))

    def mass(self, region):
        return self._wsum(np.ones(len(self._w)), region)

    def coord(self, i, region):
        return self._wsum(self._z[:, i], region)

    def norm_moment(self, region):
        return self._wsum(self._norms, region)

    def norm_sq_moment(self, region):
        return self._wsum(self._norms ** 2, region)

    def one_wedge_coord(self, i):
        return self._wsum(np.minimum(1.0, self._z[:, i]))

    def excess_over_one(self, i):
        return self._wsum(np.maximum(self._z[:, i] - 1.0, 0.0))

    @functools.cached_property
    def _exp_constants(self):
        """-z^T and (1 ^ z_i) per type, built at the first exponential
        integral rather than with the measure."""
        zt = np.ascontiguousarray(self._z.T)
        return -zt, np.minimum(1.0, zt)

    # each row of lam against every atom: (..., atoms) values, summed with
    # the weights; an empty atom list sums to 0
    def exp_branching(self, lam, i):
        neg_zt, wedge = self._exp_constants
        lam = np.asarray(lam, dtype=float)
        vals = np.exp(lam @ neg_zt)
        vals -= 1.0
        vals += lam[..., i, None] * wedge[i]
        return vals @ self._w

    def exp_branching_full(self, lam):
        inner = np.asarray(lam, dtype=float) @ self._exp_constants[0]
        return (np.exp(inner) - 1.0 - inner) @ self._w

    def exp_immigration(self, lam):
        lam = np.asarray(lam, dtype=float)
        return (1.0 - np.exp(lam @ self._exp_constants[0])) @ self._w

    def _cdf(self, region):
        """(normalised CDF, locations) of the atoms inside region, cached."""
        key = (region.lo, region.hi)
        with self._cdf_lock:
            cached = self._cdf_cache.get(key)
            if cached is None:
                mask = region.contains(self._norms)
                w = self._w[mask]
                if w.size == 0:
                    raise EmptyRegion("no atoms inside the requested region")
                # the CDF Generator.choice(p=w / w.sum()) builds on every call
                cdf = (w / w.sum()).cumsum()
                cdf /= cdf[-1]
                cached = self._cdf_cache[key] = (cdf, self._z[mask])
            return cached

    def sample_n(self, region, n, rng):
        cdf, locs = self._cdf(region)
        return locs[cdf.searchsorted(rng.random(n), side="right")]


# --------------------------------------------------------------------------
# product exponential
# --------------------------------------------------------------------------

def _orthant_direction(phis):
    """Unit vector omega in the closed positive orthant at hyperspherical angles
    phis in [0, pi/2]^(d-1), as a list of its d coordinates, and the surface
    element of S^(d-1) there. Each angle is a float or an array; the
    coordinates and the element broadcast over them."""
    d = len(phis) + 1
    omega = [np.cos(phis[0])]
    sin_prod = np.sin(phis[0])
    jacobian = 1.0 if d == 2 else sin_prod ** (d - 2)
    for k, phi in enumerate(phis[1:], 1):
        sin_phi = np.sin(phi)
        omega.append(sin_prod * np.cos(phi))
        if d - 2 - k:
            jacobian = jacobian * sin_phi ** (d - 2 - k)
        sin_prod = sin_prod * sin_phi
    omega.append(sin_prod)
    return omega, jacobian


# The radial factor of a product-exponential shell at integer s: with x a
# float (exp = math.exp) or an array (exp = np.exp), these take the
# regularised incomplete gammas P(s, x) and Q(s, x) = 1 - P(s, x) in closed
# form. Where a x stays at most s, the shell is a difference of lower tails,
# else of upper tails, so neither loses digits to 1 - Q.

def _gamma_q(s, x, exp):
    """Q(s, x) = e^-x sum_(j < s) x^j / j!, its terms added upward."""
    term = total = exp(-x)
    for j in range(1, s):
        term = term * x / j
        total = total + term
    return total


def _gamma_p_over_power(s, x, largest, exp):
    """P(s, x) / x^s = e^-x / s! sum_n x^n / ((s + 1) ... (s + n)) for
    0 <= x <= largest <= s, without a division by x^s; the sum, at least 1,
    stops once its term at largest is below 1e-17."""
    term = total = 1.0
    bound, n = 1.0, s
    while bound > 1e-17:
        n += 1
        term = term * x / n
        total = total + term
        bound *= largest / n
    return exp(-x) * total / math.factorial(s)


def _upper_tails(s, a, lo, hi, exp):
    """Q(s, a lo) - Q(s, a hi), which is a^s / Gamma(s) times
    int_lo^hi rho^(s-1) e^(-a rho) drho."""
    q_hi = 0.0 if hi == INF else _gamma_q(s, a * hi, exp)
    return _gamma_q(s, a * lo, exp) - q_hi


def _lower_shell(s, a, lo, hi, a_max, exp):
    """int_lo^hi rho^(s-1) e^(-a rho) drho / Gamma(s) for a hi <= s (a_max
    the largest a), as hi^s
    P(s, a hi) / (a hi)^s - lo^s P(s, a lo) / (a lo)^s: a rate far below 1
    makes a^s underflow, but not these ratios."""
    value = hi ** s * _gamma_p_over_power(s, a * hi, a_max * hi, exp)
    if lo > 0.0:
        value = value - lo ** s * _gamma_p_over_power(s, a * lo, a_max * lo, exp)
    return value


def _radial(s, a, lo, hi):
    """int_lo^hi rho^(s-1) e^(-a rho) drho / Gamma(s) at every a of an
    array, each branch evaluated only at the nodes that take it."""
    upper = a * hi > s
    if upper.all():
        return _upper_tails(s, a, lo, hi, np.exp) / a ** s
    if not upper.any():
        return _lower_shell(s, a, lo, hi, float(a.max()), np.exp)
    out = np.empty_like(a)
    a_up, a_low = a[upper], a[~upper]
    out[upper] = _upper_tails(s, a_up, lo, hi, np.exp) / a_up ** s
    out[~upper] = _lower_shell(s, a_low, lo, hi, float(a_low.max()), np.exp)
    return out


class ProductExponential(JumpMeasure):
    """Total mass r with density r * prod_k theta_k exp(-theta_k z_k).

    Integrals over the whole orthant are closed-form; norm shells go through
    :meth:`_shell_integral`.
    """

    is_finite_activity = True

    def __init__(self, mass, rates):
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 1 or rates.size < 1:
            raise ValueError("rates must be a non-empty vector")
        if np.any(rates <= 0) or not mass > 0:
            raise ValueError("mass and rates must be strictly positive")
        if not (np.all(np.isfinite(rates)) and math.isfinite(mass)):
            raise ValueError("mass and rates must be finite")
        self.dim = rates.size
        self.r = float(mass)
        self.theta = rates

    def _shell_integral(self, region, k, i=None):
        """Integral of rho^k (times omega_i when i is given) against the density
        over the norm shell, in hyperspherical coordinates z = rho * omega.

        With a = <theta, omega> and s = d + k the radial factor
        int_lo^hi rho^(s-1) e^(-a rho) drho is exactly Gamma(s) times a
        closed-form difference of regularised incomplete gammas (see
        :func:`_radial`); the remaining angular integral over the positive
        orthant of S^(d-1) is one (d-1)-dimensional quadrature (none for
        d == 1, which stays on Python floats), over the axes in ascending
        order of rate (see :meth:`_angle_breaks`).
        """
        d = self.dim
        s = d + k
        lo, hi = region.lo, region.hi
        order = np.argsort(self.theta, kind="stable")
        theta = self.theta[order]
        # inside the integrand, so the absolute tolerance applies to the result
        scale = self.r * float(np.prod(theta)) * math.gamma(s)
        if d == 1:
            a = float(theta[0])
            if hi == INF or a * hi > s:
                # scale / a^s = r Gamma(s) a^-k: 0 for a huge rate, and
                # Python's OverflowError where a tiny one overflows
                return self.r * math.gamma(s) * _upper_tails(s, a, lo, hi, math.exp) * a ** -k
            return scale * _lower_shell(s, a, lo, hi, a, math.exp)
        theta = theta.tolist()
        if i is not None:
            i = order.tolist().index(i)

        def integrand(*phis):
            omega, jacobian = _orthant_direction(phis)
            a = theta[0] * omega[0]
            for t, w in zip(theta[1:], omega[1:]):
                a = a + t * w
            weight = jacobian if i is None else jacobian * omega[i]
            return scale * weight * _radial(s, a, lo, hi)

        return nquad_strict(integrand, [(0.0, 0.5 * math.pi)] * (d - 1), self._angle_breaks)

    @functools.cached_property
    def _angle_breaks(self):
        """Break points of every angle's range, or None.

        The weight 1/a^s peaks where a = <theta, omega> is least: at the
        faces of the orthant that hold the smaller rates, within about
        theta_min/theta_max of them in angle, and the shell's radial factor
        turns over at scales down to about a hundredth of that. The shell
        integrals put the smallest rate first, so that every such face lies
        at an angle near 0, where floats resolve the angle finely (near pi/2
        a peak of width 1e-10 would be spread over a few ulps). An unbroken
        rule steps over a narrow peak and returns about 0 without a warning:
        in d = 2 it held the quadrature policy for rates up to about 1.6e3
        apart, missed it from 5e3 and read about 0 from 1.5e4 (mass above 1
        at rates (3e4, 2)). So rates more than 100 apart break the range at
        pi/2 * 10^-j, j = 1, 2, ..., down to that scale, which gives every
        decade its own rule. In d >= 3 the rules nest and their cost grows
        with the square of the decades: rates more than 1e8 apart raise
        QuadratureFailure there.
        """
        decades = math.log10(self.theta.max()) - math.log10(self.theta.min())
        if decades <= 2.0:
            return None
        if self.dim > 2 and decades > 8.0:
            raise QuadratureFailure(
                f"product-exponential rates {self.theta.min():g} and {self.theta.max():g} "
                f"are too far apart for the nested angular quadrature in d = {self.dim}")
        return (0.5 * math.pi * 10.0 ** -np.arange(math.ceil(decades) + 2, 0, -1)).tolist()

    @_convergent_integral
    def mass(self, region):
        if region.lo == 0.0 and region.hi == INF:
            return self.r
        return self._shell_integral(region, 0)

    @_convergent_integral
    def coord(self, i, region):
        if region.lo == 0.0 and region.hi == INF:
            return self.r / self.theta[i]
        return self._shell_integral(region, 1, i)

    @_convergent_integral
    def norm_moment(self, region):
        return self._shell_integral(region, 1)

    @_convergent_integral
    def norm_sq_moment(self, region):
        if region.lo == 0.0 and region.hi == INF:
            return self.r * float(np.sum(2.0 / self.theta ** 2))
        return self._shell_integral(region, 2)

    @_convergent_integral
    def one_wedge_coord(self, i):
        th = self.theta[i]
        return self.r * (1.0 - math.exp(-th)) / th

    @_convergent_integral
    def excess_over_one(self, i):
        th = self.theta[i]
        return self.r * math.exp(-th) / th

    def _laplace(self, lam):
        """Laplace transform prod_k theta_k / (theta_k + lam_k) of each row."""
        return np.multiply.reduce(self.theta / (self.theta + lam), axis=-1)

    def exp_branching(self, lam, i):
        lam = np.asarray(lam, dtype=float)
        th = self.theta[i]
        return self.r * (self._laplace(lam) - 1.0
                         + lam[..., i] * (1.0 - math.exp(-th)) / th)

    def exp_branching_full(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.r * (self._laplace(lam) - 1.0 + np.sum(lam / self.theta, axis=-1))

    def exp_immigration(self, lam):
        return self.r * (1.0 - self._laplace(np.asarray(lam, dtype=float)))

    def sample_n(self, region, n, rng):
        # standard_exponential(shape) * scale are the floats exponential(scale,
        # shape) draws, without its per-call broadcasting of scale
        scale = 1.0 / self.theta
        if region.lo == 0.0 and region.hi == INF:
            return rng.standard_exponential((n, self.dim)) * scale
        accept_p = self.mass(region) / self.r
        if accept_p <= 0.0:
            raise EmptyRegion("product-exponential mass vanishes on the region")
        if accept_p < 1e-9:
            raise EmptyRegion(
                f"region acceptance probability {accept_p:.3e} too small for rejection sampling"
            )
        out = np.empty((n, self.dim))
        filled = 0
        while filled < n:
            draws = rng.standard_exponential((max(n - filled, 64), self.dim)) * scale
            take = draws[region.contains(np.linalg.norm(draws, axis=1))]
            k = min(len(take), n - filled)
            out[filled:filled + k] = take[:k]
            filled += k
        return out


# --------------------------------------------------------------------------
# tempered power law on one axis
# --------------------------------------------------------------------------

def _binomial_remainder(alpha, x):
    """((1 + x)^alpha - 1 - alpha x) / (alpha (alpha - 1)) of an array x >= 0:
    up to x = 1/2 its binomial series x^2/2 + ..., free of the closed form's
    cancellation there, above it ((1 + x) E - x) / alpha with E = expm1((alpha
    - 1) log1p(x)) / (alpha - 1), no pole at alpha = 1, where E = log1p(x)."""
    low = x <= 0.5
    xs = np.where(low, x, 0.0)
    term = series = 0.5 * xs * xs
    n = 2
    while np.any(np.abs(term) > 1e-17 * series):
        term = term * ((alpha - n) / (n + 1)) * xs
        series = series + term
        n += 1
    xh = np.where(low, 1.0, x)
    log = np.log1p(xh)
    e = log if alpha == 1.0 else np.expm1((alpha - 1.0) * log) / (alpha - 1.0)
    return np.where(low, series, ((1.0 + xh) * e - xh) / alpha)


def _tempered_series(s, theta, a, b):
    """int_a^b z^(s-1) e^(-theta z) dz for 0 <= a < b with theta b <= 1 (up
    to rounding), as sum_n (-theta)^n / n! D_n with D_n = int_a^b z^(c-1) dz
    at c = s + n: D_n = m^c (1 - e^(-|c| log(b/a))) / |c|, m = b for c > 0
    and a otherwise, and log(b/a) at c = 0. The terms fall by theta b / n
    and alternate, so the sum keeps all but a factor e of the precision of
    its terms; a = 0 needs s > 0."""
    # log1p keeps the relative accuracy of log(b/a) on a narrow shell
    log_ratio = math.log1p((b - a) / a) if a > 0.0 else INF
    total, coef, n = 0.0, 1.0, 0
    while True:
        c = s + n
        if c == 0.0:
            term = coef * log_ratio
        else:
            term = coef * (b if c > 0.0 else a) ** c * -math.expm1(-abs(c) * log_ratio) / abs(c)
        total += term
        if abs(term) <= 1e-17 * total:
            return total
        n += 1
        coef *= -theta / n


def _tempered_tail(s, theta, a):
    """int_a^inf z^(s-1) e^(-theta z) dz = theta^-s Gamma(s, theta a) for
    s <= 2 and theta a >= 1 (up to rounding), as a^s e^(-theta a) / K, K
    Legendre's continued fraction of Gamma(s, x) at x = theta a:
    K = b_0 + a_1 / (b_1 + a_2 / (b_2 + ...)), b_n = x + 2n + 1 - s,
    a_n = -n (n - s). It is evaluated by the modified Lentz method
    (Thompson & Barnett, J. Comput. Phys. 64, 1986); for s <= 2 and x > 0 no
    partial denominator after b_0 vanishes, and b_0 = 0 is moved off zero.
    0 at a = inf. A fraction that does not converge raises
    QuadratureFailure."""
    if a == INF:
        return 0.0
    x = theta * a
    k = (x + 1.0 - s) or _LENTZ_TINY
    c, d = k, 0.0
    for n in range(1, _LENTZ_MAX_TERMS):
        an, bn = n * (s - n), x + 2.0 * n + 1.0 - s
        d = 1.0 / (bn + an * d)
        c = bn + an / c
        delta = c * d
        k *= delta
        if abs(delta - 1.0) <= _EPS:
            return math.exp(s * math.log(a) - x) / k
    raise QuadratureFailure(
        f"continued fraction of Gamma({s}, {x}) did not converge")


class TemperedPowerLawAxis(JumpMeasure):
    """Density C z^(-1-alpha) e^(-theta z) dz carried by one coordinate axis.

    alpha in (0, 2) is the supported stability range; larger values are
    representable so that validation can report the resulting divergences as
    data. Total mass is infinite at the origin for every alpha > 0, so
    sampling is only defined on regions bounded away from 0.

    Every integral is closed-form. A region integral of z^p is C times the
    incomplete gamma integral int_lo^hi z^(s-1) e^(-theta z) dz at
    s = p - alpha: below kappa = 1/theta a power series of the integrand's
    exponential, above it Legendre's continued fraction for Gamma(s, theta
    z), each to about 1e-14 relative. A shell [lo, hi) above kappa is the
    difference of its two tails, which loses relative accuracy as 1e-16 *
    (mass above lo) / (mass in the shell): 2e-9 on [0.5, 0.5000001) at
    theta = 10; nothing in this package integrates such a shell. The kinked
    integrals are sums of region integrals: int (1 ^ z) = coord[0, 1) +
    mass[1, inf) and int (z - 1)^+ = coord[1, inf) - mass[1, inf).

    The exponential integrals are closed-form in x = la / theta, la the
    own-axis entry of each row of lam (Rosinski, SPA 117, 2007); the own-axis
    branching exponent is int (e^(-la z) - 1 + la z) less la int (z - 1)^+.
    """

    is_finite_activity = False

    def __init__(self, dim, axis, alpha, theta, scale):
        self.dim = int(dim)
        self.axis = int(axis)
        if not 0 <= self.axis < self.dim:
            raise ValueError("axis out of range")
        if not (alpha > 0 and theta > 0 and scale > 0):
            raise ValueError("alpha, theta and scale must be strictly positive")
        if not all(map(math.isfinite, (alpha, theta, scale))):
            raise ValueError("alpha, theta and scale must be finite")
        self.alpha = float(alpha)
        self.theta = float(theta)
        self.scale = float(scale)

    def _power(self, p, lo, hi):
        """Integral of z^p against the density over [lo, hi): C times
        int_lo^hi z^(s-1) e^(-theta z) dz at s = p - alpha, +inf when it
        diverges at the origin (lo == 0 and s <= 0). Below kappa = 1/theta
        it is :func:`_tempered_series`, above it a difference of
        :func:`_tempered_tail` values."""
        s = p - self.alpha
        if lo == 0.0 and s <= 0.0:
            return INF
        kappa = 1.0 / self.theta
        total = 0.0
        if lo < kappa:
            total += _tempered_series(s, self.theta, lo, min(hi, kappa))
        if hi > kappa:
            start = max(lo, kappa)
            total += _tempered_tail(s, self.theta, start) - _tempered_tail(s, self.theta, hi)
        return _convergent(self.scale * total)

    def mass(self, region):
        return self._power(0, region.lo, region.hi)

    def coord(self, i, region):
        if i != self.axis:
            return 0.0
        return self._power(1, region.lo, region.hi)

    def norm_moment(self, region):
        return self._power(1, region.lo, region.hi)

    def norm_sq_moment(self, region):
        return self._power(2, region.lo, region.hi)

    def one_wedge_coord(self, i):
        if i != self.axis:
            return 0.0
        return self._power(1, 0.0, 1.0) + self._power(0, 1.0, INF)

    def excess_over_one(self, i):
        return self._excess_over_one if i == self.axis else 0.0

    @functools.cached_property
    def _excess_over_one(self):
        """int (z - 1)^+ on the axis, taken once: the Riccati right-hand side
        reads it at every own-axis branching exponent."""
        return self._power(1, 1.0, INF) - self._power(0, 1.0, INF)

    def _closed_form(self, lam, diverges_from, shape):
        """C theta^alpha shape(alpha, x) at x = la / theta of each row of lam,
        0 at la = 0 and +inf for la > 0 once alpha >= diverges_from."""
        x = np.asarray(lam, dtype=float)[..., self.axis] / self.theta
        if self.alpha >= diverges_from:
            return np.where(x > 0.0, INF, 0.0)[()]
        return (self.scale * self.theta ** self.alpha * shape(self.alpha, x))[()]

    def exp_branching(self, lam, i):
        if i != self.axis:
            return -self.exp_immigration(lam)
        la = np.asarray(lam, dtype=float)[..., i]
        return self.exp_branching_full(lam) - la * self._excess_over_one

    def exp_branching_full(self, lam):
        return self._closed_form(lam, 2.0, lambda a, x: (
            math.gamma(2.0 - a) * _binomial_remainder(a, x)))

    def exp_immigration(self, lam):
        return self._closed_form(lam, 1.0, lambda a, x: (
            math.gamma(1.0 - a) / a * np.expm1(a * np.log1p(x))))

    def sample_n(self, region, n, rng):
        """n exact draws of the restricted leaf by rejection (Devroye, 1986):
        below theta lo = 1 from Pareto(alpha) proposals on [lo, hi), accepted
        with probability e^(-theta (z - lo)), otherwise from lo + Exp(theta)
        truncated to hi, accepted with probability (z / lo)^(-1-alpha). Each
        batch draws its proposal uniforms, then its acceptance uniforms."""
        lo, hi = region.lo, region.hi
        if lo <= 0.0:
            raise InfiniteMass("infinite activity at the origin; sample above a cutoff")
        a, th = self.alpha, self.theta
        pareto = th * lo < 1.0
        # the proposal's mass on [lo, hi) as a share of its mass above lo
        q = -math.expm1(a * (math.log(lo) - math.log(hi)) if pareto else -th * (hi - lo))
        radii = np.empty(0)
        while radii.size < n:
            u = np.log1p(-q * rng.random(max(n - radii.size, 64)))
            v = rng.random(u.size)
            if pareto:
                # a far-tail proposal may overflow to inf, which is rejected
                with np.errstate(over="ignore"):
                    z = lo * np.exp(u / -a)
                keep = v < np.exp(-th * (z - lo))
            else:
                z = lo - u / th
                keep = v < (z / lo) ** (-1.0 - a)
            radii = np.concatenate([radii, z[keep & (z < hi)]])
        out = np.zeros((n, self.dim))
        out[:, self.axis] = radii[:n]
        return out


# --------------------------------------------------------------------------
# finite mixtures
# --------------------------------------------------------------------------

class MeasureSum(JumpMeasure):
    """Finite sum of family instances; every operation distributes over it."""

    def __init__(self, components):
        comps = []
        for c in components:
            comps.extend(c.components())
        if not comps:
            raise ValueError("a mixture needs at least one component")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError("mixture components must share the ambient dimension")
        self.dim = comps[0].dim
        self._components = tuple(comps)
        self.is_finite_activity = all(c.is_finite_activity for c in comps)
        self._masses_cache = {}
        self._masses_lock = threading.Lock()

    def components(self):
        return self._components

    def _sum(self, op):
        return float(sum(op(c) for c in self._components))

    def mass(self, region):
        return self._sum(lambda c: c.mass(region))

    def coord(self, i, region):
        return self._sum(lambda c: c.coord(i, region))

    def norm_moment(self, region):
        return self._sum(lambda c: c.norm_moment(region))

    def norm_sq_moment(self, region):
        return self._sum(lambda c: c.norm_sq_moment(region))

    def one_wedge_coord(self, i):
        return self._sum(lambda c: c.one_wedge_coord(i))

    def excess_over_one(self, i):
        return self._sum(lambda c: c.excess_over_one(i))

    # the exponential integrands of a stack are arrays: summed, not float()ed
    def exp_branching(self, lam, i):
        return sum(c.exp_branching(lam, i) for c in self._components)

    def exp_branching_full(self, lam):
        return sum(c.exp_branching_full(lam) for c in self._components)

    def exp_immigration(self, lam):
        return sum(c.exp_immigration(lam) for c in self._components)

    def _masses(self, region):
        """Every component's mass on region, integrated once per region."""
        key = (region.lo, region.hi)
        with self._masses_lock:
            masses = self._masses_cache.get(key)
            if masses is None:
                masses = self._masses_cache[key] = tuple(
                    c.mass(region) for c in self._components)
            return masses

    def sample_n(self, region, n, rng):
        parts = [(c, region, mass) for c, mass in zip(self._components, self._masses(region))]
        if any(math.isinf(mass) for _, _, mass in parts):
            raise InfiniteMass("a mixture component has infinite mass on the region")
        parts = [part for part in parts if part[2] > 0.0]
        if not parts:
            raise EmptyRegion("mixture mass vanishes on the region")
        return sample_parts(parts, n, rng)


def sample_parts(parts, n, rng):
    """(n, d) draws from (leaf, region, mass) parts of positive mass, each
    part picked by its mass share; a single part draws no part indices."""
    if len(parts) == 1:
        leaf, region, _ = parts[0]
        return leaf.sample_n(region, n, rng)
    masses = [mass for _, _, mass in parts]
    idx = rng.choice(len(parts), size=n, p=np.array(masses) / sum(masses))
    out = np.empty((n, parts[0][0].dim))
    for k, (leaf, region, _) in enumerate(parts):
        sel = idx == k
        cnt = int(sel.sum())
        if cnt:
            out[sel] = leaf.sample_n(region, cnt, rng)
    return out


# --------------------------------------------------------------------------
# module-level operations
# --------------------------------------------------------------------------

# riccati reaches the exponential integrals through these functions, which
# the benchmark's tracer (perfbench/tracing.py) times by name
def exp_branching_integral(m: JumpMeasure, lam, i: int):
    """int (e^{-<lam,z>} - 1 + lam_i (1 ^ z_i)) m(dz) of each row of lam.

    lam is one non-negative vector (d,), giving a float, or a stack (m, d),
    giving an (m,) array; it is not checked. The same holds for the two
    functions below."""
    return m.exp_branching(lam, i)


def exp_branching_integral_full(m: JumpMeasure, lam):
    """int (e^{-<lam,z>} - 1 + <lam,z>) m(dz), the fully compensated variant."""
    return m.exp_branching_full(lam)


def exp_immigration_integral(m: JumpMeasure, lam):
    """int (1 - e^{-<lam,z>}) m(dz); non-negative and monotone in lam."""
    return m.exp_immigration(lam)
