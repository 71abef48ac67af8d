"""Admissible parameter tuples, their validation and derived quantities.

A parameter tuple bundles the dimension d, diffusion coefficients c, the
immigration drift beta, the essentially non-negative interaction matrix B,
one immigration measure nu and one branching measure mu_i per type. The
validator evaluates every defining integrability condition numerically and
reports each one as data; nothing admissibility-related throws.

The paper's conditions and modified drifts are region integrals of the jump
measures, composed here from the methods of the measure families, e.g.
int (1 ^ ||z||) nu as nu.norm_moment(SMALL_JUMPS) + nu.mass(LARGE_JUMPS).

The inputs that every view shares are checked here once: a state, mean or
lambda in R_+^d (:func:`check_state`), a time (:func:`check_time`) and the
truncation cutoff (:func:`check_cutoff`). A wrong shape or range raises
InvalidConfig, a non-finite or negative entry PreconditionViolated.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InfiniteMass, InvalidConfig, PreconditionViolated
from .measures import ALL, LARGE_JUMPS, SMALL_JUMPS, JumpMeasure, above, below

DEFAULT_EPS_TRUNC = 1e-3


def check_state(name, value, d, stack=False):
    """value as a float array of shape (d,), or with stack also (m, d) for
    m >= 1, every entry finite and non-negative: points of R_+^d."""
    value = np.asarray(value, dtype=float)
    if value.shape[-1:] != (d,) or value.ndim > 1 + stack or value.size == 0:
        raise InvalidConfig(f"{name} must have shape ({d},)"
                            + (f" or (m, {d})" if stack else ""))
    if not np.isfinite(value).all():
        raise PreconditionViolated(f"{name} must be finite")
    if (value < 0.0).any():
        raise PreconditionViolated(f"{name} must be componentwise non-negative")
    return value


def check_time(name, t) -> float:
    """t as a finite, non-negative float."""
    if not 0.0 <= t < math.inf:
        raise InvalidConfig(f"{name} must be finite and non-negative")
    return float(t)


def check_cutoff(eps_trunc) -> float:
    """eps_trunc as a float in (0, 1], the range of a truncation cutoff."""
    if not 0.0 < eps_trunc <= 1.0:
        raise InvalidConfig("eps_trunc must lie in (0, 1]")
    return float(eps_trunc)


# guards every tuple's derivation cache, so blocks on several threads derive
# a (tuple, cutoff) pair once
_derive_lock = threading.Lock()


@dataclass(frozen=True)
class AdmissibleParams:
    """Parameter tuple (d, c, beta, B, nu, mu); measures may be None (zero).

    c, beta and B are held as read-only copies, so the derivations cached
    on the tuple by :func:`derive` cannot go stale.
    """

    d: int
    c: np.ndarray
    beta: np.ndarray
    B: np.ndarray
    nu: JumpMeasure | None
    mu: tuple
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise DimensionMismatch("d must be a positive integer")
        for name, shape in (("c", (d,)), ("beta", (d,)), ("B", (d, d))):
            value = np.array(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise DimensionMismatch(f"{name} must have shape {shape}, got {value.shape}")
            if not np.all(np.isfinite(value)):
                raise InvalidConfig(f"{name} must be finite")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        mu = tuple(self.mu)
        if len(mu) != d:
            raise DimensionMismatch(f"expected {d} branching measures, got {len(mu)}")
        if self.nu is not None and self.nu.dim != d:
            raise DimensionMismatch("immigration measure dimension differs from d")
        for k, m in enumerate(mu):
            if m is not None and m.dim != d:
                raise DimensionMismatch(f"branching measure {k} dimension differs from d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mu", mu)

    @functools.cached_property
    def has_diffusion(self) -> bool:
        """Whether some c_i > 0; computed at first use, c being read-only."""
        return bool(np.any(self.c > 0))


@dataclass(frozen=True)
class Check:
    """One validated condition: name, outcome, numeric evidence, statement."""

    name: str
    passed: bool
    value: float | None
    citation: str

    def to_json(self):
        if self.value is None:
            shown = None
        elif np.isinf(self.value):
            shown = "inf"
        else:
            shown = self.value
        return {
            "name": self.name,
            "passed": self.passed,
            "value": shown,
            "divergent": self.value is not None and bool(np.isinf(self.value)),
            "citation": self.citation,
        }


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failing(self):
        return [ch for ch in self.checks if not ch.passed]

    def to_json(self):
        return {"ok": self.ok, "checks": [ch.to_json() for ch in self.checks]}


@dataclass(frozen=True)
class DerivedParams:
    """Modified drifts and cached jump-rate integrals for a parameter tuple.

    beta_tilde / B_tilde are the immigration- and branching-augmented drifts,
    D is the drift matrix pairing with compensated small jumps, B_hat the one
    pairing with all branching jumps simulated as actual events. The
    truncation-dependent fields cache, for the cutoff eps_trunc, the simulated
    jump-rate masses, the means of the discarded sub-cutoff jumps, the
    effective drift matrix of the actual-event scheme and the (leaf, region,
    mass) parts the Euler scheme samples jump sizes from.
    """

    beta_tilde: np.ndarray
    B_tilde: np.ndarray
    D: np.ndarray
    B_hat: np.ndarray
    eps_trunc: float
    small_jump_mean: np.ndarray      # column j: int z 1{sub-cutoff} mu_j
    branching_rates: np.ndarray      # simulated mass of mu_j above its cutoff
    immigration_rate: float          # simulated mass of nu above its cutoff
    immigration_small_mean: np.ndarray   # int z 1{sub-cutoff} nu
    drift_matrix: np.ndarray         # B_tilde - simulated first moments
    immigration_parts: tuple         # simulated parts of nu
    branching_parts: tuple           # simulated parts of each mu_j


def _measure_checks(label, conditions):
    """One Check per (name, integral value, citation); an integral passes
    when it is finite."""
    return [Check(f"{label}.{name}", bool(np.isfinite(value)), value, citation)
            for name, value, citation in conditions]


# an integral that overflows raises OverflowError in its family, without a
# numpy warning on the way; the same holds for _derive
@np.errstate(over="ignore", invalid="ignore")
def validate(p: AdmissibleParams) -> ValidationReport:
    """Evaluate every admissibility condition; failures are data, not errors."""
    checks = []
    d = p.d

    checks.append(Check(
        "c_nonnegative", bool(np.all(p.c >= 0)), float(p.c.min()),
        "diffusion coefficients c_i must be non-negative",
    ))
    checks.append(Check(
        "beta_nonnegative", bool(np.all(p.beta >= 0)), float(p.beta.min()),
        "immigration drift beta must be componentwise non-negative",
    ))
    off = p.B[~np.eye(d, dtype=bool)]
    checks.append(Check(
        "B_essentially_nonnegative",
        bool(off.size == 0 or np.all(off >= 0)),
        float(off.min()) if off.size else 0.0,
        "B must have non-negative off-diagonal entries",
    ))

    nu = p.nu
    if nu is not None:
        checks.extend(_measure_checks("nu", [
            # fsum raises OverflowError where two finite parts overflow
            ("small_jump_integrable",
             math.fsum((nu.norm_moment(SMALL_JUMPS), nu.mass(LARGE_JUMPS))),
             "int (1 ^ ||z||) nu(dz) must be finite"),
            ("large_jump_first_moment", nu.norm_moment(LARGE_JUMPS),
             "int ||z|| 1{||z||>=1} nu(dz) must be finite"),
        ]))
    for i, m in enumerate(p.mu):
        if m is None:
            continue
        conditions = [
            ("small_jump_second_moment", m.norm_sq_moment(SMALL_JUMPS),
             "int ||z||^2 1{||z||<1} mu_i(dz) must be finite"),
            ("large_jump_first_moment", m.norm_moment(LARGE_JUMPS),
             "int ||z|| 1{||z||>=1} mu_i(dz) must be finite"),
        ]
        for j in range(d):
            if j != i:
                conditions.append((
                    f"cross_coordinate_integrable[{j}]", m.one_wedge_coord(j),
                    f"int (1 ^ z_{j}) mu_{i}(dz) must be finite for off-type coordinates",
                ))
        checks.extend(_measure_checks(f"mu[{i}]", conditions))

    return ValidationReport(tuple(checks))


def _truncation_stats(m, d, eps):
    """(simulated parts, simulated mass, simulated first-moment vector,
    discarded mean vector) of m at cutoff eps.

    The Euler scheme simulates each finite-activity leaf whole and each
    other leaf above eps; a part is (leaf, region, mass) for each leaf of
    positive mass on its region, and an infinite mass raises InfiniteMass.
    """
    parts = []
    rate = 0.0
    sim_mean = np.zeros(d)
    lost_mean = np.zeros(d)
    for comp in m.components() if m is not None else ():
        region = ALL if comp.is_finite_activity else above(eps)
        mass = comp.mass(region)
        if math.isinf(mass):
            raise InfiniteMass("simulated jump region must have finite mass above the cutoff")
        if mass > 0.0:
            parts.append((comp, region, mass))
        rate += mass
        sim_mean += np.array([comp.coord(i, region) for i in range(d)])
        if region is not ALL:
            lost = below(region.lo)
            lost_mean += np.array([comp.coord(i, lost) for i in range(d)])
    return tuple(parts), rate, sim_mean, lost_mean


def derive(p: AdmissibleParams, eps_trunc: float = DEFAULT_EPS_TRUNC) -> DerivedParams:
    """The modified drifts and the truncation caches of p for eps_trunc.

    Each (p, eps_trunc) pair is derived once and cached on p; every caller
    gets the same read-only result.
    """
    eps_trunc = check_cutoff(eps_trunc)
    with _derive_lock:
        der = p._derived.get(eps_trunc)
        if der is None:
            der = p._derived[eps_trunc] = _derive(p, eps_trunc)
    return der


@np.errstate(over="ignore", invalid="ignore")
def _derive(p, eps_trunc):
    d = p.d
    # beta_tilde = beta + int z nu(dz)
    beta_tilde = p.beta + (np.zeros(d) if p.nu is None
                           else np.array([p.nu.coord(i, ALL) for i in range(d)]))

    # column j adds int (z_i - delta_ij)^+ mu_j to B_tilde, which is int z_i
    # mu_j off the diagonal; D is B_tilde less int z_i 1{||z||>=1} mu_j, and
    # B_hat_jj loses int (1 ^ z_j) mu_j
    B_tilde = p.B.copy()
    D = p.B.copy()
    B_hat = p.B.copy()
    for j, m in enumerate(p.mu):
        if m is None:
            continue
        for i in range(d):
            B_tilde[i, j] += m.excess_over_one(i) if i == j else m.coord(i, ALL)
            D[i, j] = B_tilde[i, j] - m.coord(i, LARGE_JUMPS)
        B_hat[j, j] -= m.one_wedge_coord(j)

    small_jump_mean = np.zeros((d, d))
    branching_rates = np.zeros(d)
    drift_matrix = B_tilde.copy()
    branching_parts = []
    for j, m in enumerate(p.mu):
        parts, rate, sim_mean, lost_mean = _truncation_stats(m, d, eps_trunc)
        branching_parts.append(parts)
        branching_rates[j] = rate
        small_jump_mean[:, j] = lost_mean
        drift_matrix[:, j] -= sim_mean

    nu_parts, nu_rate, _, nu_small_mean = _truncation_stats(p.nu, d, eps_trunc)

    for a in (beta_tilde, B_tilde, D, B_hat, small_jump_mean, branching_rates,
              nu_small_mean, drift_matrix):
        a.setflags(write=False)
    return DerivedParams(
        beta_tilde=beta_tilde,
        B_tilde=B_tilde,
        D=D,
        B_hat=B_hat,
        eps_trunc=eps_trunc,
        small_jump_mean=small_jump_mean,
        branching_rates=branching_rates,
        immigration_rate=nu_rate,
        immigration_small_mean=nu_small_mean,
        drift_matrix=drift_matrix,
        immigration_parts=nu_parts,
        branching_parts=tuple(branching_parts),
    )
