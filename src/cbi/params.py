"""Admissible parameter tuples, their validation and derived quantities.

A parameter tuple bundles the dimension d, diffusion coefficients c, the
immigration drift beta, the essentially non-negative interaction matrix B,
one immigration measure nu and one branching measure mu_i per type. The
validator evaluates every defining integrability condition numerically and
reports each one as data; nothing admissibility-related throws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import DimensionMismatch, InfiniteMass
from .measures import JumpMeasure, MomentKind

DEFAULT_EPS_TRUNC = 1e-3


@dataclass(frozen=True)
class AdmissibleParams:
    """Parameter tuple (d, c, beta, B, nu, mu); measures may be None (zero)."""

    d: int
    c: np.ndarray
    beta: np.ndarray
    B: np.ndarray
    nu: JumpMeasure | None
    mu: tuple

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise DimensionMismatch("d must be a positive integer")
        c = np.asarray(self.c, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if c.shape != (d,):
            raise DimensionMismatch(f"c must have shape ({d},), got {c.shape}")
        if beta.shape != (d,):
            raise DimensionMismatch(f"beta must have shape ({d},), got {beta.shape}")
        if B.shape != (d, d):
            raise DimensionMismatch(f"B must have shape ({d},{d}), got {B.shape}")
        mu = tuple(self.mu)
        if len(mu) != d:
            raise DimensionMismatch(f"expected {d} branching measures, got {len(mu)}")
        if self.nu is not None and self.nu.dim != d:
            raise DimensionMismatch("immigration measure dimension differs from d")
        for k, m in enumerate(mu):
            if m is not None and m.dim != d:
                raise DimensionMismatch(f"branching measure {k} dimension differs from d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "mu", mu)


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
    jump-rate masses, the mean of the discarded sub-cutoff jumps and the
    effective drift matrix of the actual-event scheme.
    """

    beta_tilde: np.ndarray
    B_tilde: np.ndarray
    D: np.ndarray
    B_hat: np.ndarray
    eps_trunc: float
    small_jump_mean: np.ndarray      # column j: int z 1{sub-cutoff} mu_j
    branching_rates: np.ndarray      # simulated mass of mu_j above its cutoff
    immigration_rate: float          # simulated mass of nu above its cutoff
    drift_matrix: np.ndarray         # B_tilde - simulated first moments


def _measure_checks(m, label, kinds):
    checks = []
    for name, kind, idx, citation in kinds:
        value = measures.moment_integral(m, kind, *idx)
        checks.append(Check(f"{label}.{name}", bool(np.isfinite(value)), value, citation))
    return checks


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

    if p.nu is not None:
        checks.extend(_measure_checks(p.nu, "nu", [
            ("small_jump_integrable", MomentKind.ONE_WEDGE_NORM, (),
             "int (1 ^ ||z||) nu(dz) must be finite"),
            ("large_jump_first_moment", MomentKind.NORM_LARGE, (),
             "int ||z|| 1{||z||>=1} nu(dz) must be finite"),
        ]))
    for i, m in enumerate(p.mu):
        if m is None:
            continue
        kinds = [
            ("small_jump_second_moment", MomentKind.NORM_SQ_SMALL, (),
             "int ||z||^2 1{||z||<1} mu_i(dz) must be finite"),
            ("large_jump_first_moment", MomentKind.NORM_LARGE, (),
             "int ||z|| 1{||z||>=1} mu_i(dz) must be finite"),
        ]
        for j in range(d):
            if j != i:
                kinds.append((
                    f"cross_coordinate_integrable[{j}]", MomentKind.ONE_WEDGE_COORD, (j,),
                    f"int (1 ^ z_{j}) mu_{i}(dz) must be finite for off-type coordinates",
                ))
        checks.extend(_measure_checks(m, f"mu[{i}]", kinds))

    return ValidationReport(tuple(checks))


def simulated_region(component, eps):
    """Sampling region per mixture component: full for finite activity."""
    if component.is_finite_activity:
        return measures.ALL
    return measures.above(eps)


def simulated_parts(m, eps):
    """(leaf, region, mass) of each mixture leaf of m that the Euler scheme
    simulates at cutoff eps: leaves with zero mass on their region are left
    out, and a region of infinite mass raises InfiniteMass."""
    parts = []
    for leaf in m.components() if m is not None else ():
        region = simulated_region(leaf, eps)
        mass = leaf.mass(region)
        if math.isinf(mass):
            raise InfiniteMass("simulated jump region must have finite mass above the cutoff")
        if mass > 0.0:
            parts.append((leaf, region, mass))
    return parts


def _truncation_stats(m, d, eps):
    """(simulated mass, simulated first-moment vector, discarded mean vector)."""
    if m is None:
        return 0.0, np.zeros(d), np.zeros(d)
    rate = 0.0
    sim_mean = np.zeros(d)
    lost_mean = np.zeros(d)
    for comp in m.components():
        region = simulated_region(comp, eps)
        rate += comp.mass(region)
        sim_mean += np.array([comp.coord(i, region) for i in range(d)])
        if region is not measures.ALL:
            lost = measures.below(region.lo)
            lost_mean += np.array([comp.coord(i, lost) for i in range(d)])
    return rate, sim_mean, lost_mean


def derive(p: AdmissibleParams, eps_trunc: float = DEFAULT_EPS_TRUNC) -> DerivedParams:
    """Compute the modified drifts and the truncation caches for eps_trunc."""
    d = p.d
    beta_tilde = p.beta + measures.first_moment_vector(p.nu, measures.ALL, d)

    B_tilde = p.B.astype(float).copy()
    D = np.zeros((d, d))
    B_hat = p.B.astype(float).copy()
    for j, m in enumerate(p.mu):
        for i in range(d):
            if m is not None:
                B_tilde[i, j] += measures.moment_integral(
                    m, MomentKind.COORD_MINUS_DELTA_PLUS, i, j)
            large = measures.moment_integral(m, MomentKind.COORD_LARGE, i) if m else 0.0
            D[i, j] = B_tilde[i, j] - large
        if m is not None:
            B_hat[j, j] -= measures.moment_integral(m, MomentKind.ONE_WEDGE_COORD, j)

    small_jump_mean = np.zeros((d, d))
    branching_rates = np.zeros(d)
    drift_matrix = B_tilde.copy()
    for j, m in enumerate(p.mu):
        rate, sim_mean, lost_mean = _truncation_stats(m, d, eps_trunc)
        branching_rates[j] = rate
        small_jump_mean[:, j] = lost_mean
        drift_matrix[:, j] -= sim_mean

    nu_rate, _, _ = _truncation_stats(p.nu, d, eps_trunc)

    return DerivedParams(
        beta_tilde=beta_tilde,
        B_tilde=B_tilde,
        D=D,
        B_hat=B_hat,
        eps_trunc=float(eps_trunc),
        small_jump_mean=small_jump_mean,
        branching_rates=branching_rates,
        immigration_rate=nu_rate,
        drift_matrix=drift_matrix,
    )
