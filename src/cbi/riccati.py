"""Branching/immigration mechanisms and the generalized Riccati flow.

The transition semigroup of the process is characterised by its Laplace
transform

    E[e^{-<lam, X_t>} | X_0 = x] = exp(-<x, v(t, lam)> - int_0^t psi(v(s, lam)) ds),

where v solves the componentwise ODE system dv_i/dt = -phi_i(v) started at
lam. phi_i combines the diffusion coefficient, the i-th column of B and the
branching jump integral; psi combines the immigration drift and measure. The
solver is an explicit embedded Runge-Kutta 5(4) pair (Dormand-Prince) with PI
step-size control, an augmented quadrature component accumulating psi along
the flow, and quartic dense output built from the stages. It integrates a
stack of m starting points lam at once: one ODE of m (d + 1) components
whose flows share every step, each step accepted only when the error norm of
every row is at most 1, so a row is solved at least as finely as on its own.
lam, x and every time are checked once per call by the shared checks of
:mod:`cbi.params` (check_state, check_time): a wrong shape or time raises
InvalidConfig, a non-finite or negative entry PreconditionViolated. phi and
psi evaluate the whole stack per right-hand side, and the last stage is the
next step's first (FSAL).
Roundoff can push a truly non-negative component slightly below zero; such
components are clamped to zero when within 10x the absolute tolerance and the
step is rejected and halved otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import StepSizeUnderflow
from .params import AdmissibleParams, check_state, check_time

# Dormand-Prince 5(4) tableau; the flow is autonomous, so the stage times
# 0, 1/5, 3/10, 4/5, 8/9, 1, 1 never enter
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


def phi(p: AdmissibleParams, lam):
    """Branching mechanism vector phi(lam): c_i lam_i^2 - <B e_i, lam> plus
    the (1 ^ z_i)-compensated jump integral of mu_i.

    lam is one vector (d,) or a stack (m, d), and the result has its shape;
    lam is not checked here (see :func:`solve_v`)."""
    lam = np.asarray(lam, dtype=float)
    out = p.c * lam ** 2 - lam @ p.B
    for i, mu in enumerate(p.mu):
        if mu is not None:
            out[..., i] += measures.exp_branching_integral(mu, lam, i)
    return out


def psi(p: AdmissibleParams, lam):
    """Immigration mechanism <beta, lam> + int (1 - e^{-<lam,z>}) nu(dz) >= 0:
    a float for one vector lam (d,), an (m,) array for a stack (m, d)."""
    lam = np.asarray(lam, dtype=float)
    value = lam @ p.beta
    if p.nu is not None:
        value = value + measures.exp_immigration_integral(p.nu, lam)
    return value


@dataclass(frozen=True)
class RiccatiSolution:
    """Adaptive-grid solution of the Riccati flow with quartic dense output.

    grid holds the accepted step endpoints, v the flow values there and
    psi_accum the accumulated immigration integral int_0^t psi(v(s)) ds. For
    a stack of m starting points lam (m, d), v has shape (n + 1, m, d),
    psi_accum (n + 1, m), and v_at and psi_at return one row per point; for
    one vector lam (d,) the stack axis is absent.
    """

    grid: np.ndarray
    v: np.ndarray
    psi_accum: np.ndarray
    _ys: np.ndarray    # (n_steps + 1, [m,] d+1) states at the grid points
    _qs: np.ndarray    # (n_steps, [m,] d+1, 4) dense polynomial coefficients

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
            return self._ys[-1].copy()
        h = self.grid[k + 1] - self.grid[k]
        theta = (t - self.grid[k]) / h
        powers = theta ** np.arange(1, 5)
        return self._ys[k] + h * (self._qs[k] @ powers)

    def v_at(self, t):
        """Flow value v(t, lam) via the dense interpolant."""
        return self._eval(t)[..., :-1]

    def psi_at(self, t):
        """Accumulated immigration integral at time t: a float, or one value
        per row of a stacked lam."""
        value = self._eval(t)[..., -1]
        return float(value) if value.ndim == 0 else value


def _check_tolerances(rtol, atol):
    # the error norm divides by atol + rtol * |y|, and the psi accumulator
    # starts at 0: atol = 0 would divide 0 by 0 there
    if not (0.0 <= rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError("rtol must be finite and non-negative, atol finite and positive")


def _row_norms(x):
    """Root mean square of each row of the (m, d+1) array x."""
    return np.sqrt(np.mean(x * x, axis=1))


# an overflowing flow ends in StepSizeUnderflow, which reports it; no warnings
@np.errstate(over="ignore", invalid="ignore")
def solve_v(p: AdmissibleParams, lam, T: float,
            rtol: float = 1e-8, atol: float = 1e-10) -> RiccatiSolution:
    """Integrate dv/dt = -phi(v), v(0) = lam, with the psi accumulator.

    lam is one vector (d,) or a stack (m, d) of starting points, integrated
    together on one sequence of steps (see the module docstring).
    """
    d = p.d
    lam = check_state("lambda", lam, d, stack=True)
    check_time("T", T)
    _check_tolerances(rtol, atol)
    m = 1 if lam.ndim == 1 else lam.shape[0]
    rows = (m, d + 1)

    def rhs(y):
        # stages may undershoot by roundoff; the psi component is never read
        v = np.maximum(y.reshape(rows)[:, :d], 0.0)
        f = np.empty(rows)
        np.negative(phi(p, v), out=f[:, :d])
        f[:, d] = psi(p, v)
        return f.reshape(-1)

    y = np.zeros(rows)
    y[:, :d] = lam
    y = y.reshape(-1)
    t = 0.0
    f0 = rhs(y)

    scale0 = atol + rtol * np.abs(y)
    d0 = _row_norms((y / scale0).reshape(rows))
    d1 = _row_norms((f0 / scale0).reshape(rows))
    h_rows = np.full(m, T / 100.0)
    fast = d1 > 1e-12
    h_rows[fast] = 0.01 * d0[fast] / d1[fast]
    h = min(T, float(h_rows.min()))
    h = max(h, 1e-8 * T)

    grid = [0.0]
    ys = [y.copy()]
    qs = []

    err_prev = 1e-4
    n_stages = 7
    K = np.empty((n_stages, y.size))
    steps = 0
    clamp_threshold = 10.0 * atol
    h_min = max(1e-14, 1e-13 * T)

    while t < T:
        if steps > _MAX_STEPS:
            raise StepSizeUnderflow(f"step budget exhausted at t={t}")
        h = min(h, T - t)
        # a step cut to the rest of the span is never too small, so a
        # horizon below h_min still takes its one step
        if h < h_min and h < T - t:
            raise StepSizeUnderflow(f"step size underflow at t={t}")
        steps += 1

        K[0] = f0
        for s in range(1, n_stages):
            y_stage = y + h * (_A[s] @ K[:s])
            K[s] = rhs(y_stage)
        # the last stage sits at the fifth-order solution (_A[6] is _B5)
        y_new = y_stage
        err_vec = h * (_ERR @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(_row_norms((err_vec / scale).reshape(rows))))

        if err > 1.0:
            h *= max(0.1, 0.9 * err ** -0.2)
            continue

        v_new = y_new.reshape(rows)[:, :d]
        negative = v_new < 0.0
        if np.any(negative):
            worst = float(-v_new[negative].min())
            if worst <= clamp_threshold:
                np.maximum(v_new, 0.0, out=v_new)
            else:
                h *= 0.5
                continue

        qs.append(K.T @ _P)  # (m (d+1), 4); evaluation multiplies by h

        t += h
        y = y_new
        grid.append(t)
        ys.append(y)

        # FSAL: K[6] is rhs at y_new, and rhs reads only max(v, 0), which
        # the clamp above leaves unchanged
        f0 = K[6].copy()
        if err == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * err ** -0.17 * err_prev ** 0.04))
        err_prev = max(err, 1e-4)
        h *= factor

    shape = rows if lam.ndim == 2 else (d + 1,)
    states = np.array(ys).reshape(-1, *shape)
    return RiccatiSolution(
        grid=np.array(grid),
        v=states[..., :d],
        psi_accum=states[..., d],
        _ys=states,
        _qs=np.array(qs).reshape(-1, *shape, 4),
    )


def laplace_transform(p: AdmissibleParams, x, lam, t: float,
                      rtol: float = 1e-8, atol: float = 1e-10) -> float:
    """E[e^{-<lam, X_t>} | X_0 = x] via the Riccati representation; in (0, 1]."""
    return float(laplace_grid(p, x, [(t, lam)], rtol=rtol, atol=atol)[0])


def laplace_grid(p: AdmissibleParams, x, points,
                 rtol: float = 1e-8, atol: float = 1e-10) -> np.ndarray:
    """The Laplace transform at every (t, lam) of points, aligned with points.

    Every distinct lam is one row of a single stacked solve to the largest t;
    each (t, lam) reads the dense output of its row, which agrees with a
    separate solve to that t within the tolerances. Every input is checked
    before the solve.
    """
    x = check_state("x", x, p.d)
    _check_tolerances(rtol, atol)
    points = [(t, check_state("lambda", lam, p.d)) for t, lam in points]
    for t, _ in points:
        check_time("t", t)
    out = np.empty(len(points))
    rows = {}      # lam bytes -> row of the stacked solve
    members = []   # (index, row, t)
    for i, (t, lam) in enumerate(points):
        if t == 0.0:
            out[i] = math.exp(-float(x @ lam))
        elif not np.any(lam):
            out[i] = 1.0
        else:
            members.append((i, rows.setdefault(lam.tobytes(), len(rows)), t))
    if members:
        lams = np.frombuffer(b"".join(rows), dtype=float).reshape(len(rows), p.d)
        sol = solve_v(p, lams, max(t for _, _, t in members), rtol=rtol, atol=atol)
        for i, row, t in members:
            y = sol._eval(t)[row]
            out[i] = math.exp(-float(x @ y[:-1]) - float(y[-1]))
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
