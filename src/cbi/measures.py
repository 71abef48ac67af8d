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
  single coordinate axis; infinite activity at the origin is allowed and every
  integral reduces to one-dimensional adaptive quadrature with exact
  power-counting divergence detection.

Regions are shells in the Euclidean norm, {z : lo <= ||z|| < hi}; the public
region vocabulary is ALL, SMALL_JUMPS (||z|| < 1), LARGE_JUMPS (||z|| >= 1),
above(eps) and below(eps).

Mixtures are sampled by :func:`sample_parts`, the one place that picks a
mixture leaf by mass, for :class:`MeasureSum` and the Euler scheme alike.

All measure objects are immutable after construction and safe to share across
parallel workers; sampling takes an explicit numpy Generator.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gammainc, gammaincc

from ._quadrature import quad_strict, nquad_strict
from .errors import EmptyRegion, InfiniteMass

INF = float("inf")


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


class MomentKind(enum.Enum):
    """Moment integrals required by parameter validation and derivation."""

    ONE_WEDGE_NORM = "one_wedge_norm"            # int (1 ^ ||z||)
    NORM_LARGE = "norm_large"                    # int ||z|| 1{||z||>=1}
    COORD_LARGE = "coord_large"                  # int z_i 1{||z||>=1}
    COORD_SMALL = "coord_small"                  # int z_i 1{||z||<1}
    COORD_MINUS_DELTA_PLUS = "coord_minus_delta_plus"  # int (z_i - delta_ij)^+
    ONE_WEDGE_COORD = "one_wedge_coord"          # int (1 ^ z_i)
    NORM_SQ_SMALL = "norm_sq_small"              # int ||z||^2 1{||z||<1}
    COORD = "coord"                              # int z_i
    NORM_SQ_WEDGE_NORM = "norm_sq_wedge_norm"    # int (||z|| ^ ||z||^2)


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

    # kinked integrands in a single coordinate
    def one_wedge_coord(self, i: int) -> float:
        raise NotImplementedError

    def coord_minus_delta_plus(self, i: int, j: int) -> float:
        raise NotImplementedError

    # exponential integrands
    def exp_branching(self, lam, i: int) -> float:
        raise NotImplementedError

    def exp_branching_full(self, lam) -> float:
        raise NotImplementedError

    def exp_immigration(self, lam) -> float:
        raise NotImplementedError

    def sample_n(self, region: Region, n: int, rng) -> np.ndarray:
        raise NotImplementedError


def _as_lam(lam, dim):
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (dim,):
        raise ValueError(f"lambda must have shape ({dim},), got {lam.shape}")
    if np.any(lam < 0):
        raise ValueError("lambda must be componentwise non-negative")
    return lam


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
            if not w > 0:
                raise ValueError("atom weights must be strictly positive")
            locs.append(z)
            weights.append(float(w))
        self._z = np.array(locs, dtype=float).reshape(len(locs), self.dim)
        self._w = np.array(weights, dtype=float)
        self._norms = np.linalg.norm(self._z, axis=1)
        self._cdf_cache = {}
        self._cdf_lock = threading.Lock()

    @property
    def atoms(self):
        return [(self._z[k].copy(), self._w[k]) for k in range(len(self._w))]

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

    def coord_minus_delta_plus(self, i, j):
        delta = 1.0 if i == j else 0.0
        return self._wsum(np.maximum(self._z[:, i] - delta, 0.0))

    def exp_branching(self, lam, i):
        lam = _as_lam(lam, self.dim)
        if len(self._w) == 0 or not np.any(lam):
            return 0.0
        vals = np.exp(-self._z @ lam) - 1.0 + lam[i] * np.minimum(1.0, self._z[:, i])
        return self._wsum(vals)

    def exp_branching_full(self, lam):
        lam = _as_lam(lam, self.dim)
        if len(self._w) == 0 or not np.any(lam):
            return 0.0
        inner = self._z @ lam
        return self._wsum(np.exp(-inner) - 1.0 + inner)

    def exp_immigration(self, lam):
        lam = _as_lam(lam, self.dim)
        if len(self._w) == 0 or not np.any(lam):
            return 0.0
        return self._wsum(1.0 - np.exp(-self._z @ lam))

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
    phis in [0, pi/2]^(d-1), and the surface element of S^(d-1) there."""
    d = len(phis) + 1
    omega = np.empty(d)
    jacobian = 1.0
    sin_prod = 1.0
    for k, phi in enumerate(phis):
        sin_phi = math.sin(phi)
        omega[k] = sin_prod * math.cos(phi)
        jacobian *= sin_phi ** (d - 2 - k)
        sin_prod *= sin_phi
    omega[d - 1] = sin_prod
    return omega, jacobian


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
        self.dim = rates.size
        self.r = float(mass)
        self.theta = rates

    def _shell_integral(self, region, k, i=None):
        """Integral of rho^k (times omega_i when i is given) against the density
        over the norm shell, in hyperspherical coordinates z = rho * omega.

        With a = <theta, omega> and s = d + k the radial factor
        int_lo^hi rho^(s-1) e^(-a rho) drho is exactly Gamma(s) / a^s times a
        difference of regularised incomplete gammas; the remaining angular
        integral over the positive orthant of S^(d-1) is one (d-1)-dimensional
        quadrature (none for d == 1).
        """
        d = self.dim
        s = d + k
        lo, hi = region.lo, region.hi
        theta = self.theta

        def integrand(*phis):
            omega, jacobian = _orthant_direction(phis)
            a = float(theta @ omega)
            if hi == INF:
                radial = gammaincc(s, a * lo)
            elif a * hi <= s:
                # lower tail: P values stay small, no 1 - Q cancellation
                radial = gammainc(s, a * hi) - gammainc(s, a * lo)
            else:
                radial = gammaincc(s, a * lo) - gammaincc(s, a * hi)
            weight = jacobian if i is None else jacobian * omega[i]
            return scale * weight * radial / a ** s

        # inside the integrand, so the absolute tolerance applies to the result
        scale = self.r * float(np.prod(theta)) * math.gamma(s)
        if d == 1:
            return integrand()
        return nquad_strict(integrand, [(0.0, 0.5 * math.pi)] * (d - 1))

    def mass(self, region):
        if region.lo == 0.0 and region.hi == INF:
            return self.r
        return self._shell_integral(region, 0)

    def coord(self, i, region):
        if region.lo == 0.0 and region.hi == INF:
            return self.r / self.theta[i]
        return self._shell_integral(region, 1, i)

    def norm_moment(self, region):
        return self._shell_integral(region, 1)

    def norm_sq_moment(self, region):
        if region.lo == 0.0 and region.hi == INF:
            return self.r * float(np.sum(2.0 / self.theta ** 2))
        return self._shell_integral(region, 2)

    def one_wedge_coord(self, i):
        th = self.theta[i]
        return self.r * (1.0 - math.exp(-th)) / th

    def coord_minus_delta_plus(self, i, j):
        th = self.theta[i]
        if i == j:
            return self.r * math.exp(-th) / th
        return self.r / th

    def exp_branching(self, lam, i):
        lam = _as_lam(lam, self.dim)
        if not np.any(lam):
            return 0.0
        prod = float(np.prod(self.theta / (self.theta + lam)))
        th = self.theta[i]
        return self.r * (prod - 1.0 + lam[i] * (1.0 - math.exp(-th)) / th)

    def exp_branching_full(self, lam):
        lam = _as_lam(lam, self.dim)
        if not np.any(lam):
            return 0.0
        prod = float(np.prod(self.theta / (self.theta + lam)))
        return self.r * (prod - 1.0 + float(np.sum(lam / self.theta)))

    def exp_immigration(self, lam):
        lam = _as_lam(lam, self.dim)
        if not np.any(lam):
            return 0.0
        return self.r * (1.0 - float(np.prod(self.theta / (self.theta + lam))))

    def sample_n(self, region, n, rng):
        whole = region.lo == 0.0 and region.hi == INF
        if not whole:
            accept_p = self.mass(region) / self.r
            if accept_p <= 0.0:
                raise EmptyRegion("product-exponential mass vanishes on the region")
            if accept_p < 1e-9:
                raise EmptyRegion(
                    f"region acceptance probability {accept_p:.3e} too small for rejection sampling"
                )
        out = np.empty((n, self.dim))
        filled = 0
        scale = 1.0 / self.theta
        while filled < n:
            batch = max(n - filled, 64)
            draws = rng.exponential(scale, size=(batch, self.dim))
            if whole:
                take = draws
            else:
                take = draws[region.contains(np.linalg.norm(draws, axis=1))]
            k = min(len(take), n - filled)
            out[filled:filled + k] = take[:k]
            filled += k
        return out


# --------------------------------------------------------------------------
# tempered power law on one axis
# --------------------------------------------------------------------------

class TemperedPowerLawAxis(JumpMeasure):
    """Density C z^(-1-alpha) e^(-theta z) dz carried by one coordinate axis.

    alpha in (0, 2) is the supported stability range; larger values are
    representable so that validation can report the resulting divergences as
    data. Total mass is infinite at the origin for every alpha > 0, so
    sampling is only defined on regions bounded away from 0.
    """

    is_finite_activity = False

    def __init__(self, dim, axis, alpha, theta, scale):
        self.dim = int(dim)
        self.axis = int(axis)
        if not 0 <= self.axis < self.dim:
            raise ValueError("axis out of range")
        if not (alpha > 0 and theta > 0 and scale > 0):
            raise ValueError("alpha, theta and scale must be strictly positive")
        self.alpha = float(alpha)
        self.theta = float(theta)
        self.scale = float(scale)
        self._sampler_cache = {}
        self._sampler_lock = threading.Lock()

    def _density_1d(self, z):
        return self.scale * z ** (-1.0 - self.alpha) * np.exp(-self.theta * z)

    def _radial(self, g, lo, hi, origin_power):
        """Integral of g(z) against the radial density over [lo, hi).

        origin_power is the exponent p with g(z) ~ z^p as z -> 0; the integral
        diverges at the origin exactly when lo == 0 and p <= alpha.
        """
        if hi <= lo:
            return 0.0
        if lo == 0.0:
            if origin_power <= self.alpha:
                return INF
            # the integrand has an integrable algebraic singularity at 0
        cuts = {lo, hi}
        if lo < 1.0 < hi:
            cuts.add(1.0)
        if lo > 0.0:
            # split steep power-law ranges by decades so QAGS stays happy
            point = lo * 10.0
            while point < min(1.0, hi):
                cuts.add(point)
                point *= 10.0
        pieces = sorted(cuts)
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            total += quad_strict(lambda z: g(z) * self._density_1d(z), a, b)
        return total

    def mass(self, region):
        return self._radial(lambda z: 1.0, region.lo, region.hi, 0.0)

    def coord(self, i, region):
        if i != self.axis:
            return 0.0
        return self._radial(lambda z: z, region.lo, region.hi, 1.0)

    def norm_moment(self, region):
        return self._radial(lambda z: z, region.lo, region.hi, 1.0)

    def norm_sq_moment(self, region):
        return self._radial(lambda z: z * z, region.lo, region.hi, 2.0)

    def one_wedge_coord(self, i):
        if i != self.axis:
            return 0.0
        return self._radial(lambda z: min(1.0, z), 0.0, INF, 1.0)

    def coord_minus_delta_plus(self, i, j):
        if i != self.axis:
            return 0.0
        if i == j:
            return self._radial(lambda z: z - 1.0, 1.0, INF, INF)
        return self._radial(lambda z: z, 0.0, INF, 1.0)

    def exp_branching(self, lam, i):
        lam = _as_lam(lam, self.dim)
        la = lam[self.axis]
        if not np.any(lam):
            return 0.0
        if i == self.axis:
            # e^(-la z) - 1 + la (1 ^ z) ~ la^2 z^2 / 2 near 0
            if la == 0.0:
                return 0.0
            val = self._radial(
                lambda z: math.expm1(-la * z) + la * min(1.0, z), 0.0, INF, 2.0
            )
            return val
        # cross-type integrand e^(-la z) - 1 <= 0, order z near 0
        if la == 0.0:
            return 0.0
        val = self._radial(lambda z: -math.expm1(-la * z), 0.0, INF, 1.0)
        return -val

    def exp_branching_full(self, lam):
        lam = _as_lam(lam, self.dim)
        la = lam[self.axis]
        if la == 0.0:
            return 0.0
        return self._radial(lambda z: math.expm1(-la * z) + la * z, 0.0, INF, 2.0)

    def exp_immigration(self, lam):
        lam = _as_lam(lam, self.dim)
        la = lam[self.axis]
        if la == 0.0:
            return 0.0
        return self._radial(lambda z: -math.expm1(-la * z), 0.0, INF, 1.0)

    def _sampler(self, region):
        key = (region.lo, region.hi)
        with self._sampler_lock:
            cached = self._sampler_cache.get(key)
            if cached is not None:
                return cached
            lo, hi = region.lo, region.hi
            if hi == INF:
                # push the grid out until the discarded tail is negligible
                hi = max(2.0 * lo, lo + 10.0 / self.theta)
                total = self.mass(region)
                while self._radial(lambda z: 1.0, hi, INF, 0.0) > 1e-14 * total:
                    hi *= 2.0
            zs = np.geomspace(lo, hi, 1 << 14)
            pdf = self._density_1d(zs)
            cdf = np.concatenate(
                [[0.0], np.cumsum(np.diff(zs) * 0.5 * (pdf[1:] + pdf[:-1]))]
            )
            cdf /= cdf[-1]
            keep = np.concatenate([[True], np.diff(cdf) > 0])
            cdf_k, zs_k = cdf[keep], zs[keep]
            if cdf_k[-1] < 1.0:  # pdf underflow in the far tail
                cdf_k = np.append(cdf_k, 1.0)
                zs_k = np.append(zs_k, zs[-1])
            inverse = PchipInterpolator(cdf_k, zs_k, extrapolate=False)
            self._sampler_cache[key] = inverse
            return inverse

    def sample_n(self, region, n, rng):
        if region.lo <= 0.0:
            raise InfiniteMass("infinite activity at the origin; sample above a cutoff")
        m = self.mass(region)
        if m == 0.0:
            raise EmptyRegion("restricted mass vanishes")
        inverse = self._sampler(region)
        radii = inverse(rng.uniform(0.0, 1.0, size=n))
        radii = np.clip(radii, region.lo, None)
        out = np.zeros((n, self.dim))
        out[:, self.axis] = radii
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

    def coord_minus_delta_plus(self, i, j):
        return self._sum(lambda c: c.coord_minus_delta_plus(i, j))

    def exp_branching(self, lam, i):
        return self._sum(lambda c: c.exp_branching(lam, i))

    def exp_branching_full(self, lam):
        return self._sum(lambda c: c.exp_branching_full(lam))

    def exp_immigration(self, lam):
        return self._sum(lambda c: c.exp_immigration(lam))

    def sample_n(self, region, n, rng):
        parts = [(c, region, c.mass(region)) for c in self._components]
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

def total_mass(m: JumpMeasure, region: Region = ALL) -> float:
    """Mass of m restricted to region; +inf exactly when the integral diverges."""
    return m.mass(region)


def moment_integral(m: JumpMeasure, kind: MomentKind, i: int | None = None,
                    j: int | None = None) -> float:
    """Evaluate one of the validation/derivation moment integrals.

    Exact for DiscreteAtoms and separable ProductExponential kinds, adaptive
    quadrature otherwise; returns +inf when the integral diverges.
    """
    if kind is MomentKind.ONE_WEDGE_NORM:
        return m.norm_moment(SMALL_JUMPS) + m.mass(LARGE_JUMPS)
    if kind is MomentKind.NORM_LARGE:
        return m.norm_moment(LARGE_JUMPS)
    if kind is MomentKind.COORD_LARGE:
        return m.coord(i, LARGE_JUMPS)
    if kind is MomentKind.COORD_SMALL:
        return m.coord(i, SMALL_JUMPS)
    if kind is MomentKind.COORD_MINUS_DELTA_PLUS:
        return m.coord_minus_delta_plus(i, j)
    if kind is MomentKind.ONE_WEDGE_COORD:
        return m.one_wedge_coord(i)
    if kind is MomentKind.NORM_SQ_SMALL:
        return m.norm_sq_moment(SMALL_JUMPS)
    if kind is MomentKind.COORD:
        return m.coord(i, ALL)
    if kind is MomentKind.NORM_SQ_WEDGE_NORM:
        return m.norm_sq_moment(SMALL_JUMPS) + m.norm_moment(LARGE_JUMPS)
    raise ValueError(f"unknown moment kind {kind}")


def first_moment_vector(m: JumpMeasure | None, region: Region, dim: int) -> np.ndarray:
    """Vector of coordinate first moments over the region; zero measure allowed."""
    if m is None:
        return np.zeros(dim)
    return np.array([m.coord(i, region) for i in range(dim)])


def exp_branching_integral(m: JumpMeasure, lam, i: int) -> float:
    """int (e^{-<lam,z>} - 1 + lam_i (1 ^ z_i)) m(dz)."""
    return m.exp_branching(lam, i)


def exp_branching_integral_full(m: JumpMeasure, lam) -> float:
    """int (e^{-<lam,z>} - 1 + <lam,z>) m(dz), the fully compensated variant."""
    return m.exp_branching_full(lam)


def exp_immigration_integral(m: JumpMeasure, lam) -> float:
    """int (1 - e^{-<lam,z>}) m(dz); non-negative and monotone in lam."""
    return m.exp_immigration(lam)


def sample(m: JumpMeasure, region: Region, rng, size: int | None = None):
    """Draw from m restricted to region and normalised.

    Returns a (d,) point, or an (size, d) array when size is given.
    """
    n = 1 if size is None else int(size)
    draws = m.sample_n(region, n, rng)
    return draws[0] if size is None else draws

