"""Monte Carlo estimators and the cross-representation verification harness.

One estimator, :func:`_estimate`, reduces a statistic of path snapshots:
the state at t for :func:`estimate_mean`, e^{-<lam, X_t^+>} per (t, lam) for
:func:`estimate_laplace_grid`. Both verifications share one pass rule,
|estimate - analytic| <= 3 stderr + C dt.

Work is split into fixed-size path blocks; block k draws its randomness from
a counter-based substream keyed by (seed, k), and block results are reduced
in block order. Estimates are therefore bitwise identical across runs and
across worker-thread counts, and extending a run by more paths leaves the
existing blocks' contributions unchanged.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import moments, riccati
from .errors import BudgetExceeded, InvalidConfig
from .params import AdmissibleParams, DerivedParams, derive
from .simulate import (
    SimConfig, _check_x0, block_generator, simulate_block, simulate_coupled_block,
)

BLOCK_SIZE = 16384
THREADS_ENV_VAR = "CBI_NUM_THREADS"


def resolve_threads(threads=None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV_VAR)
    return max(1, int(env)) if env else 1


def _blocks(n_paths: int):
    """(index, count) of each fixed-size path block."""
    return [(index, min(BLOCK_SIZE, n_paths - start))
            for index, start in enumerate(range(0, n_paths, BLOCK_SIZE))]


def _run_blocks(worker, blocks, threads):
    """Evaluate worker(index, count) for each block; results in block order."""
    if threads <= 1:
        return [worker(i, c) for i, c in blocks]
    results = [None] * len(blocks)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(worker, i, c): pos
                   for pos, (i, c) in enumerate(blocks)}
        for fut, pos in futures.items():
            results[pos] = fut.result()
    return results


def _check_budget(n_paths, n_steps, budget):
    if budget is not None and n_paths * n_steps > budget:
        raise BudgetExceeded(
            f"{n_paths} paths x {n_steps} steps exceeds the budget of {budget} path-steps")


@dataclass(frozen=True)
class McEstimate:
    value: np.ndarray
    stderr: np.ndarray
    n_paths: int
    dt: float
    seed: int


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one analytic-versus-Monte-Carlo comparison."""

    quantity: str
    analytic: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray
    z_score: float
    bias_allowance: float
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)

    def to_json(self, include_runtime: bool = False):
        blob = {
            "quantity": self.quantity,
            "analytic": list(np.atleast_1d(self.analytic)),
            "estimate": list(np.atleast_1d(self.estimate)),
            "stderr": list(np.atleast_1d(self.stderr)),
            "z_score": self.z_score,
            "bias_allowance": self.bias_allowance,
            "passed": self.passed,
            "details": self.details,
        }
        if include_runtime:
            blob["runtime_seconds"] = self.runtime
        return blob

    def table(self) -> str:
        rows = [f"quantity          {self.quantity}"]
        rows.append(f"analytic          {np.array2string(np.atleast_1d(self.analytic), precision=8)}")
        rows.append(f"estimate          {np.array2string(np.atleast_1d(self.estimate), precision=8)}")
        rows.append(f"stderr            {np.array2string(np.atleast_1d(self.stderr), precision=3)}")
        rows.append(f"max |z|           {self.z_score:.4g}")
        rows.append(f"bias allowance    {self.bias_allowance:.4g}")
        for key, value in self.details.items():
            rows.append(f"{key:<18}{value}")
        rows.append(f"runtime           {self.runtime:.2f} s")
        rows.append(f"result            {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(rows)


def _block_moments(values):
    """(count, mean, sum of squared deviations) for one block, per component;
    a constant column gets its exact value and zero deviations."""
    count = values.shape[0]
    const = np.all(values == values[0], axis=0)
    mean = values.mean(axis=0)
    m2 = ((values - mean) ** 2).sum(axis=0)
    mean[const] = values[0, const]
    m2[const] = 0.0
    return count, mean, m2


def _reduce_moments(partials, n):
    """Merge per-block moments in block order (Chan's update); exact for
    constant statistics, bitwise independent of the worker pool layout."""
    count = 0
    mean = None
    m2 = None
    for b_count, b_mean, b_m2 in partials:
        if mean is None:
            count, mean, m2 = b_count, b_mean.copy(), b_m2.copy()
            continue
        delta = b_mean - mean
        total = count + b_count
        mean = mean + delta * (b_count / total)
        m2 = m2 + b_m2 + delta ** 2 * (count * b_count / total)
        count = total
    assert count == n
    var = m2 / max(n - 1, 1)
    stderr = np.sqrt(var / n)
    return mean, stderr


def _zscores(err, stderr, allowance):
    """Statistical scores of the errors left after the bias allowance."""
    excess = np.maximum(np.abs(err) - allowance, 0.0)
    z = np.zeros_like(err)
    nonzero = stderr > 0
    z[nonzero] = excess[nonzero] / stderr[nonzero]
    z[~nonzero & (excess > 1e-12)] = np.inf
    return z


def _estimate(p, x0, times, statistic, n_paths, cfg, seed, der, threads, budget):
    """Sample means and standard errors of statistic(snapshots) over paths.

    statistic maps a block's (count, d) states at each of times (non-negative
    multiples of cfg.dt) to a (count, m) array; at all-zero times it is exact.
    """
    x0 = np.asarray(x0, dtype=float)
    _check_x0(x0.reshape(1, -1), p.d)
    if not times:
        raise InvalidConfig("nothing to estimate: no times given")
    steps = []
    for t in times:
        k = round(t / cfg.dt) if 0.0 <= t < np.inf else -1
        if k < 0 or (k == 0) != (t == 0.0) or abs(k * cfg.dt - t) > 1e-9 * max(1.0, t):
            raise InvalidConfig(
                f"time {t} is not a non-negative integer multiple of dt = {cfg.dt}")
        steps.append(k)
    if not any(steps):
        value = statistic([x0[None]] * len(steps))[0].copy()
        return value, np.zeros_like(value)
    run_cfg = SimConfig(T=max(times), dt=cfg.dt, eps_trunc=cfg.eps_trunc,
                        positivity_mode=cfg.positivity_mode)
    _check_budget(n_paths, run_cfg.n_steps, budget)
    der = der if der is not None and der.eps_trunc == cfg.eps_trunc \
        else derive(p, eps_trunc=cfg.eps_trunc)

    def worker(index, count):
        rng = block_generator(seed, index)
        _, _, snapshots, _ = simulate_block(
            p, der, np.tile(x0, (count, 1)), run_cfg, rng, snapshot_steps=steps)
        return _block_moments(statistic([snapshots[k] for k in steps]))

    partials = _run_blocks(worker, _blocks(n_paths), resolve_threads(threads))
    return _reduce_moments(partials, n_paths)


def estimate_mean(p: AdmissibleParams, x0, t: float, n_paths: int,
                  cfg: SimConfig, seed: int, der: DerivedParams | None = None,
                  threads=None, budget=None) -> McEstimate:
    """Sample mean and standard error of X_t over independent paths."""
    value, stderr = _estimate(p, x0, [t], lambda snaps: snaps[0], n_paths, cfg,
                              seed, der, threads, budget)
    return McEstimate(value, stderr, n_paths, cfg.dt, seed)


def estimate_laplace_grid(p, x0, points, n_paths, cfg, seed, der=None,
                          threads=None, budget=None):
    """Laplace statistics e^{-<lam, X_t^+>} at several (t, lam) points from
    one path sweep.

    Returns (values, stderrs) arrays aligned with points; every t must be a
    non-negative integer multiple of cfg.dt.
    """
    lams = [np.asarray(lam, dtype=float) for _, lam in points]

    def statistic(snaps):
        stats = np.empty((len(snaps[0]), len(lams)))
        for i, (X, lam) in enumerate(zip(snaps, lams)):
            stats[:, i] = np.exp(-np.maximum(X, 0.0) @ lam)
        return stats

    return _estimate(p, x0, [t for t, _ in points], statistic, n_paths, cfg,
                     seed, der, threads, budget)


# --------------------------------------------------------------------------
# verification harness
# --------------------------------------------------------------------------

def _report(quantity, scenario, analytic, value, stderr, bias_constant, start,
            **details) -> VerifyReport:
    """Pass when every |error| <= 3 stderr + C dt; z-scores after that allowance."""
    err = value - analytic
    allowance = bias_constant * scenario.dt
    passed = bool(np.all(np.abs(err) <= 3.0 * stderr + allowance))
    z = _zscores(err, stderr, allowance)
    return VerifyReport(
        quantity=f"{quantity}[{scenario.name}]",
        analytic=analytic, estimate=value, stderr=stderr,
        z_score=float(np.max(np.abs(z))), bias_allowance=allowance,
        passed=passed, runtime=time.perf_counter() - start,
        details={"n_paths": scenario.n_paths, "dt": scenario.dt,
                 "seed": scenario.seed, **details})


def verify_mean(scenario, threads=None, budget=None) -> VerifyReport:
    """First-moment formula versus the Monte Carlo mean on one scenario."""
    start = time.perf_counter()
    p, der = scenario.params, scenario.derived()
    analytic = moments.mean(p, der, scenario.x0, scenario.t)
    est = estimate_mean(p, scenario.x0, scenario.t, scenario.n_paths,
                        scenario.sim_config(), scenario.seed, der=der,
                        threads=threads, budget=budget)
    return _report("mean", scenario, analytic, est.value, est.stderr,
                   scenario.bias_constant_mean, start)


def verify_laplace(scenario, threads=None, budget=None) -> VerifyReport:
    """Riccati Laplace transform versus the Monte Carlo estimate."""
    points = scenario.laplace_points
    if not points:
        raise InvalidConfig(
            f"scenario {scenario.name} has no laplace_points block: nothing to verify")
    start = time.perf_counter()
    p, der = scenario.params, scenario.derived()
    analytic = riccati.laplace_grid(p, der, scenario.x0, points,
                                    rtol=1e-10, atol=1e-12)
    values, stderrs = estimate_laplace_grid(
        p, scenario.x0, points, scenario.n_paths, scenario.sim_config(),
        scenario.seed, der=der, threads=threads, budget=budget)
    return _report("laplace", scenario, analytic, values, stderrs,
                   scenario.bias_constant_laplace, start,
                   points=[{"t": t, "lam": [float(v) for v in lam]}
                           for t, lam in points])


def _comparison_run(p, der, scenario, dt, threads, budget):
    comp = scenario.comparison
    cfg = SimConfig(T=comp["T"], dt=dt, eps_trunc=scenario.eps_trunc)
    _check_budget(comp["n_paths"], cfg.n_steps, budget)
    beta_prime = p.beta + np.asarray(comp["beta_shift"], dtype=float)
    x0 = np.asarray(scenario.x0, dtype=float)

    def worker(index, count):
        rng = block_generator(comp["seed"], index)
        block = np.tile(x0, (count, 1))
        _, _, stats, _ = simulate_coupled_block(
            p, der, beta_prime, block, block, cfg, rng)
        return stats

    results = _run_blocks(worker, _blocks(comp["n_paths"]), resolve_threads(threads))
    violations = sum(s.violations for s in results)
    triples = sum(s.triples for s in results)
    worst = max(s.worst for s in results)
    diff_sum = sum(s.diff_sum for s in results)
    diff_sq = sum(s.diff_sq_sum for s in results)
    n = comp["n_paths"]
    mean_diff = diff_sum / n
    var = np.maximum(diff_sq / n - mean_diff ** 2, 0.0)
    se = np.sqrt(var / n)
    ordered = bool(np.all(mean_diff >= -3.0 * se))
    return {
        "fraction": violations / triples,
        "worst": worst,
        "means_ordered": ordered,
        "min_mean_diff": float(mean_diff.min()),
    }


def verify_comparison(scenario, threads=None, budget=None) -> VerifyReport:
    """Monotone-coupling ordering diagnostics at two step sizes."""
    if scenario.comparison is None:
        raise InvalidConfig(
            f"scenario {scenario.name} has no comparison block: nothing to verify")
    start = time.perf_counter()
    p, der = scenario.params, scenario.derived()
    dt = scenario.comparison["dt"]
    coarse = _comparison_run(p, der, scenario, dt, threads, budget)
    fine = _comparison_run(p, der, scenario, dt / 2.0, threads, budget)
    passed = (coarse["fraction"] <= 0.01
              and fine["fraction"] <= coarse["fraction"] + 1e-12
              and coarse["means_ordered"] and fine["means_ordered"])
    return VerifyReport(
        quantity=f"comparison[{scenario.name}]",
        analytic=np.array([0.0]),
        estimate=np.array([coarse["fraction"], fine["fraction"]]),
        stderr=np.zeros(2),
        z_score=0.0,
        bias_allowance=0.01,
        passed=bool(passed),
        runtime=time.perf_counter() - start,
        details={"coarse": coarse, "fine": fine, "dt": dt,
                 "n_paths": scenario.comparison["n_paths"],
                 "seed": scenario.comparison["seed"]})


def mean_error_halving_ratio(scenario, threads=None, budget=None):
    """Per-seed-group ratios of mean errors at dt/2 versus dt (weak order 1)."""
    p, der = scenario.params, scenario.derived()
    rc = scenario.ratio_check
    analytic = moments.mean(p, der, scenario.x0, scenario.t)
    ratios = []
    for seed in rc["seeds"]:
        errs = []
        for dt in (rc["dt"], rc["dt"] / 2.0):
            cfg = SimConfig(T=scenario.t, dt=dt, eps_trunc=scenario.eps_trunc)
            est = estimate_mean(p, scenario.x0, scenario.t, rc["n_paths"], cfg,
                                seed, der=der, threads=threads, budget=budget)
            errs.append(float(np.linalg.norm(est.value - analytic)))
        ratios.append(errs[1] / errs[0])
    return np.array(ratios)
