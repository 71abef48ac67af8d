"""Branching/immigration mechanisms and the generalized Riccati flow.

The transition semigroup of the process is characterised by its Laplace
transform

    E[e^{-<lam, X_t>} | X_0 = x] = exp(-<x, v(t, lam)> - int_0^t psi(v(s, lam)) ds),

where v solves the componentwise ODE system dv_i/dt = -phi_i(v) started at
lam. phi_i combines the diffusion coefficient, the i-th column of B and the
branching jump integral; psi combines the immigration drift and measure. The
solver is an explicit embedded Runge-Kutta 5(4) pair (Dormand-Prince) with PI
step-size control, an augmented quadrature component accumulating psi along
the flow, and quartic dense output built from the stages. Roundoff can push a
truly non-negative component slightly below zero; such components are clamped
to zero when within 10x the absolute tolerance and the step is rejected and
halved otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import StepSizeUnderflow
from .params import AdmissibleParams, DerivedParams

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# fifth-order weights minus the embedded fourth-order weights
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])
# quartic dense-output polynomial coefficients per stage
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_MAX_STEPS = 1_000_000


def phi(p: AdmissibleParams, der: DerivedParams, lam):
    """Branching mechanism vector phi(lam): c_i lam_i^2 - <B e_i, lam> plus
    the (1 ^ z_i)-compensated jump integral of mu_i.

    der is unused; phi takes the (p, der, ...) arguments of the flow solver.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.empty(p.d)
    for i in range(p.d):
        jump = (measures.exp_branching_integral(p.mu[i], lam, i)
                if p.mu[i] is not None else 0.0)
        out[i] = p.c[i] * lam[i] ** 2 - float(p.B[:, i] @ lam) + jump
    return out


def psi(p: AdmissibleParams, lam) -> float:
    """Immigration mechanism <beta, lam> + int (1 - e^{-<lam,z>}) nu(dz) >= 0."""
    lam = np.asarray(lam, dtype=float)
    value = float(p.beta @ lam)
    if p.nu is not None:
        value += measures.exp_immigration_integral(p.nu, lam)
    return value


@dataclass(frozen=True)
class RiccatiSolution:
    """Adaptive-grid solution of the Riccati flow with quartic dense output.

    grid holds the accepted step endpoints, v the flow values there and
    psi_accum the accumulated immigration integral int_0^t psi(v(s)) ds.
    """

    lambda0: np.ndarray
    grid: np.ndarray
    v: np.ndarray
    psi_accum: np.ndarray
    interpolant_order: int
    _y0s: np.ndarray   # (n_steps, d+1) step-start states
    _qs: np.ndarray    # (n_steps, d+1, 4) dense polynomial coefficients

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    def _eval(self, t):
        t = float(t)
        if not 0.0 <= t <= self.T * (1 + 1e-12) + 1e-300:
            raise ValueError(f"t={t} outside [0, {self.T}]")
        t = min(t, self.T)
        k = int(np.searchsorted(self.grid, t, side="right") - 1)
        if k >= len(self.grid) - 1:  # t == T
            return np.concatenate([self.v[-1], [self.psi_accum[-1]]])
        h = self.grid[k + 1] - self.grid[k]
        theta = (t - self.grid[k]) / h
        powers = theta ** np.arange(1, 5)
        return self._y0s[k] + h * (self._qs[k] @ powers)

    def v_at(self, t):
        """Flow value v(t, lambda0) via the dense interpolant."""
        return self._eval(t)[:-1]

    def psi_at(self, t) -> float:
        """Accumulated immigration integral at time t."""
        return float(self._eval(t)[-1])


def solve_v(p: AdmissibleParams, der: DerivedParams, lam, T: float,
            rtol: float = 1e-8, atol: float = 1e-10) -> RiccatiSolution:
    """Integrate dv/dt = -phi(v), v(0) = lam, with the psi accumulator."""
    lam = np.asarray(lam, dtype=float)
    d = p.d
    if lam.shape != (d,):
        raise ValueError(f"lambda must have shape ({d},)")
    if np.any(lam < 0):
        raise ValueError("lambda must be componentwise non-negative")
    if T <= 0:
        raise ValueError("T must be positive")

    def rhs(y):
        v = np.maximum(y[:d], 0.0)  # stages may undershoot by roundoff
        return np.concatenate([-phi(p, der, v), [psi(p, v)]])

    y = np.concatenate([lam, [0.0]])
    t = 0.0
    f0 = rhs(y)

    scale0 = atol + rtol * np.abs(y)
    d0 = math.sqrt(float(np.mean((y / scale0) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale0) ** 2)))
    h = min(T, 0.01 * d0 / d1 if d1 > 1e-12 else T / 100.0)
    h = max(h, 1e-8 * T)

    grid = [0.0]
    vs = [lam.copy()]
    accum = [0.0]
    y0s, qs = [], []

    err_prev = 1e-4
    n_stages = 7
    K = np.empty((n_stages, d + 1))
    steps = 0
    clamp_threshold = 10.0 * atol

    while t < T:
        if steps > _MAX_STEPS:
            raise StepSizeUnderflow(f"step budget exhausted at t={t}")
        h = min(h, T - t)
        if h < max(1e-14, 1e-13 * T):
            raise StepSizeUnderflow(f"step size underflow at t={t}")
        steps += 1

        K[0] = f0
        for s in range(1, n_stages):
            y_stage = y + h * (_A[s] @ K[:s])
            K[s] = rhs(y_stage)
        y_new = y + h * (_B5 @ K)
        err_vec = h * (_ERR @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))

        if err > 1.0:
            h *= max(0.1, 0.9 * err ** -0.2)
            continue

        v_new = y_new[:d]
        negative = v_new < 0.0
        if np.any(negative):
            worst = float(-v_new[negative].min())
            if worst <= clamp_threshold:
                y_new = y_new.copy()
                y_new[:d] = np.maximum(v_new, 0.0)
            else:
                h *= 0.5
                continue

        y0s.append(y.copy())
        qs.append(K.T @ _P)  # (d+1, 4); evaluation multiplies by h

        t += h
        y = y_new
        grid.append(t)
        vs.append(y[:d].copy())
        accum.append(float(y[d]))

        f0 = rhs(y)  # FSAL would reuse K[6]; recompute to honour clamping
        if err == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * err ** -0.17 * err_prev ** 0.04))
        err_prev = max(err, 1e-4)
        h *= factor

    return RiccatiSolution(
        lambda0=lam.copy(),
        grid=np.array(grid),
        v=np.array(vs),
        psi_accum=np.array(accum),
        interpolant_order=4,
        _y0s=np.array(y0s),
        _qs=np.array(qs),
    )


def laplace_transform(p: AdmissibleParams, der: DerivedParams, x, lam, t: float,
                      rtol: float = 1e-8, atol: float = 1e-10) -> float:
    """E[e^{-<lam, X_t>} | X_0 = x] via the Riccati representation; in (0, 1]."""
    return float(laplace_grid(p, der, x, [(t, lam)], rtol=rtol, atol=atol)[0])


def laplace_grid(p: AdmissibleParams, der: DerivedParams, x, points,
                 rtol: float = 1e-8, atol: float = 1e-10) -> np.ndarray:
    """The Laplace transform at every (t, lam) of points, aligned with points.

    Each distinct lam is solved once, to its largest t; its earlier t read the
    dense output, which agrees with a solve to that t within the tolerances.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(len(points))
    flows = {}   # lam bytes -> (lam, [(index, t), ...])
    for i, (t, lam) in enumerate(points):
        lam = np.asarray(lam, dtype=float)
        if t < 0:
            raise ValueError("t must be non-negative")
        if t == 0.0:
            out[i] = math.exp(-float(x @ lam))
        elif not np.any(lam):
            out[i] = 1.0
        else:
            flows.setdefault(lam.tobytes(), (lam, []))[1].append((i, t))
    for lam, members in flows.values():
        sol = solve_v(p, der, lam, max(t for _, t in members), rtol=rtol, atol=atol)
        for i, t in members:
            out[i] = math.exp(-float(x @ sol.v_at(t)) - sol.psi_at(t))
    return out


def cir_closed_form_v(c: float, b: float, lam: float, t: float) -> float:
    """Analytic flow of the scalar jump-free mechanism: v' = b v - c v^2."""
    if lam < 0 or t < 0 or c < 0:
        raise ValueError("c, lam and t must be non-negative")
    if lam == 0.0 or t == 0.0:
        return float(lam)
    if b == 0.0:
        return lam / (1.0 + c * lam * t)
    ebt = math.exp(b * t)
    return b * lam * ebt / (b + c * lam * (ebt - 1.0))
