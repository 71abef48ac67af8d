"""Monte Carlo estimators and the cross-representation verification harness.

The simulators hand out states through an observer, and every statistic
of them is taken here. One estimator, :func:`_estimate`, reduces a
statistic of path snapshots: the state at t for :func:`estimate_mean`,
e^{-<lam, X_t^+>} per (t, lam) for :func:`estimate_laplace_grid`; both
return (value, stderr) and their verifications share one pass rule,
|estimate - analytic| <= 3 stderr + C dt. The comparison check reduces the
ordering statistics of coupled pairs, :class:`CoupledStats`, taken at two
step sizes from one stacked run of the kernel, and tests the paired excess
of the fine level's violation share over the coarse one's against 3 of its
standard errors, one-sided. The initial
state passes the shared check of :mod:`cbi.params` (check_state) and each
snapshot time the grid rule :meth:`cbi.simulate.SimConfig.steps`, both
before any path is drawn.

Work is split into fixed-size path blocks by one sweep, :func:`_sweep`;
block k draws its randomness from its own SFC64 stream, spawned as child k
of the seed's SeedSequence (:func:`cbi.simulate.block_generator`), and block
results are reduced in block order. Estimates are
therefore bitwise identical across runs and across worker-thread counts,
and extending a run by more paths leaves the existing blocks' contributions
unchanged.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import moments, riccati
from .errors import BudgetExceeded, InvalidConfig
from .params import AdmissibleParams, check_state, derive
from .simulate import SimConfig, block_generator, simulate_block, simulate_coupled_block

BLOCK_SIZE = 16384
COMPARISON_SLACK = 1e-12  # ordering violations below this are roundoff
THREADS_ENV_VAR = "CBI_NUM_THREADS"


def _sweep(p, cfg, n_paths, seed, threads, budget, run_block):
    """run_block(rng, count) on each fixed-size block of n_paths paths, rng
    the block's spawned substream of seed, after the budget of
    path-steps is checked; on threads workers, at least 1 (default:
    $CBI_NUM_THREADS or 1), with the results in block order."""
    if budget is not None and budget < 0:
        raise InvalidConfig(f"budget must be non-negative, got {budget}")
    source = "threads"
    if threads is None:
        threads, source = os.environ.get(THREADS_ENV_VAR) or 1, f"${THREADS_ENV_VAR}"
    try:
        threads = int(threads)
    except ValueError:
        raise InvalidConfig(f"{source} must be an integer, got {threads!r}") from None
    if threads < 1:
        raise InvalidConfig(f"{source} must be at least 1, got {threads}")
    if budget is not None and n_paths * cfg.n_steps > budget:
        raise BudgetExceeded(f"{n_paths} paths x {cfg.n_steps} steps exceeds "
                             f"the budget of {budget} path-steps")
    derive(p, cfg.eps_trunc)   # once, before the blocks share it
    blocks = [(index, min(BLOCK_SIZE, n_paths - start))
              for index, start in enumerate(range(0, n_paths, BLOCK_SIZE))]

    def worker(index, count):
        return run_block(block_generator(seed, index), count)

    if threads == 1:
        return [worker(*block) for block in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, *block) for block in blocks]
        return [future.result() for future in futures]


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

    def to_json(self):
        return {
            "quantity": self.quantity,
            "analytic": list(np.atleast_1d(self.analytic)),
            "estimate": list(np.atleast_1d(self.estimate)),
            "stderr": list(np.atleast_1d(self.stderr)),
            "z_score": self.z_score,
            "bias_allowance": self.bias_allowance,
            "passed": self.passed,
            "details": self.details,
        }

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


def _estimate(p, x0, times, statistic, n_paths, cfg, seed, threads, budget):
    """Sample means and standard errors of statistic(snapshots) over paths.

    statistic maps a block's (count, d) states at each of times (non-negative
    multiples of cfg.dt) to a (count, m) array; at all-zero times it is exact.
    """
    x0 = check_state("x0", x0, p.d)
    if not times:
        raise InvalidConfig("nothing to estimate: no times given")
    steps = [cfg.steps(t) for t in times]
    if not any(steps):
        value = statistic([x0[None]] * len(steps))[0].copy()
        return value, np.zeros_like(value)
    run_cfg = SimConfig(T=max(times), dt=cfg.dt, eps_trunc=cfg.eps_trunc,
                        positivity_mode=cfg.positivity_mode)
    wanted = set(steps)

    def run_block(rng, count):
        snapshots = {}

        def observe(first, states):
            snapshots.update((k, states[k - first].copy()) for k in wanted
                             if first <= k < first + len(states))

        simulate_block(p, np.tile(x0, (count, 1)), run_cfg, rng, observe)
        return _block_moments(statistic([snapshots[k] for k in steps]))

    partials = _sweep(p, run_cfg, n_paths, seed, threads, budget, run_block)
    return _reduce_moments(partials, n_paths)


def estimate_mean(p: AdmissibleParams, x0, t: float, n_paths: int,
                  cfg: SimConfig, seed: int, threads=None, budget=None):
    """Sample mean and standard error of X_t over independent paths, as
    (value, stderr) arrays of shape (d,)."""
    return _estimate(p, x0, [t], lambda snaps: snaps[0], n_paths, cfg,
                     seed, threads, budget)


def estimate_laplace_grid(p, x0, points, n_paths, cfg, seed, threads=None,
                          budget=None):
    """Laplace statistics e^{-<lam, X_t^+>} at several (t, lam) points from
    one path sweep.

    Returns (values, stderrs) arrays aligned with points; every t must be a
    non-negative integer multiple of cfg.dt.
    """
    lams = [np.asarray(lam, dtype=float) for _, lam in points]

    def statistic(snaps):
        stats = np.empty((len(snaps[0]), len(lams)))
        for i, (X, lam) in enumerate(zip(snaps, lams)):
            Xp = np.maximum(X, 0.0)
            # for d = 1 the float of the one-term product, with no BLAS call
            stats[:, i] = np.exp(-(Xp[:, 0] * lam[0] if p.d == 1 else Xp @ lam))
        return stats

    return _estimate(p, x0, [t for t, _ in points], statistic, n_paths, cfg,
                     seed, threads, budget)


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
    p = scenario.params
    analytic = moments.mean(p, scenario.x0, scenario.t)
    value, stderr = estimate_mean(p, scenario.x0, scenario.t, scenario.n_paths,
                                  scenario.sim_config(), scenario.seed,
                                  threads=threads, budget=budget)
    return _report("mean", scenario, analytic, value, stderr,
                   scenario.bias_constant_mean, start)


def verify_laplace(scenario, threads=None, budget=None) -> VerifyReport:
    """Riccati Laplace transform versus the Monte Carlo estimate."""
    points = scenario.laplace_points
    if not points:
        raise InvalidConfig(
            f"scenario {scenario.name} has no laplace_points block: nothing to verify")
    start = time.perf_counter()
    p = scenario.params
    analytic = riccati.laplace_grid(p, scenario.x0, points,
                                    rtol=1e-10, atol=1e-12)
    values, stderrs = estimate_laplace_grid(
        p, scenario.x0, points, scenario.n_paths, scenario.sim_config(),
        scenario.seed, threads=threads, budget=budget)
    return _report("laplace", scenario, analytic, values, stderrs,
                   scenario.bias_constant_laplace, start,
                   points=[{"t": t, "lam": [float(v) for v in lam]}
                           for t, lam in points])


class CoupledStats:
    """Ordering statistics of one coupled block, taken as the observer of
    :func:`simulate_coupled_block` over the grid points 0, ..., n_points - 1:
    the count of (path, type, point) triples with X' - X below
    -COMPARISON_SLACK, also per path (0 until a chunk has one), the count
    of all triples, the largest violation, and per point and type the sums
    of X' - X and of its square over the paths."""

    def __init__(self, n_points, d):
        self.violations = 0
        self.path_violations = 0
        self.triples = 0
        self.worst = 0.0
        self.diff_sum = np.zeros((n_points, d))
        self.diff_sq_sum = np.zeros((n_points, d))

    def __call__(self, first, states):
        # X' - X of the chunk as (d, points, n), into a C-contiguous array:
        # a difference of the transposed views would take their memory
        # order, and its sums over the paths would round differently
        low, high = states.transpose(1, 3, 0, 2)
        diffs = np.subtract(high, low, out=np.empty(high.shape))
        lo = float(diffs.min())
        if lo < -COMPARISON_SLACK:
            per_path = np.count_nonzero(diffs < -COMPARISON_SLACK, axis=(0, 1))
            self.violations += int(per_path.sum())
            self.path_violations = self.path_violations + per_path
        self.triples += diffs.size
        self.worst = max(self.worst, -lo)
        points = slice(first, first + diffs.shape[1])
        self.diff_sum[points] += diffs.sum(axis=2).T
        self.diff_sq_sum[points] += (diffs * diffs).sum(axis=2).T


def _ordering(stats, n):
    """The ordering diagnostics of one level from its per-block CoupledStats."""
    mean_diff = sum(s.diff_sum for s in stats) / n
    var = np.maximum(sum(s.diff_sq_sum for s in stats) / n - mean_diff ** 2, 0.0)
    return {
        "fraction": sum(s.violations for s in stats) / sum(s.triples for s in stats),
        "worst": max(s.worst for s in stats),
        "means_ordered": bool(np.all(mean_diff >= -3.0 * np.sqrt(var / n))),
        "min_mean_diff": float(mean_diff.min()),
    }


def _comparison_run(p, scenario, threads, budget):
    """The coupled pairs at dt and dt/2 as one stack on the grid of dt/2;
    returns the ordering diagnostics (coarse, fine) and the mean and
    standard error of the paired excess F_fine - F_coarse, F a path's share
    of violating (type, point) pairs at that level."""
    comp = scenario.comparison
    SimConfig(T=comp["T"], dt=comp["dt"]).n_steps   # T on the grid of dt
    cfg = SimConfig(T=comp["T"], dt=comp["dt"] / 2.0, eps_trunc=scenario.eps_trunc)
    beta_prime = p.beta + np.asarray(comp["beta_shift"], dtype=float)
    x0 = np.asarray(scenario.x0, dtype=float)

    def run_block(rng, count):
        block = np.tile(x0, (count, 1))
        coarse = CoupledStats(cfg.n_steps // 2 + 1, p.d)
        fine = CoupledStats(cfg.n_steps + 1, p.d)

        def observe(first, states):
            fine(first, states[:, 2:])
            # the coarse pair is a state of its chain at the even points only
            even = states[first % 2::2, :2]
            if len(even):
                coarse((first + 1) // 2, even)

        simulate_coupled_block(p, beta_prime, block, block, cfg, rng, observe,
                               coarse=True)
        # path_violations stays the scalar 0 at a level with no violation
        excess = np.zeros((count, 1))
        excess[:, 0] += (fine.path_violations / (fine.triples // count)
                         - coarse.path_violations / (coarse.triples // count))
        return coarse, fine, _block_moments(excess)

    n = comp["n_paths"]
    coarse, fine, excess = zip(*_sweep(p, cfg, n, comp["seed"], threads, budget, run_block))
    return _ordering(coarse, n), _ordering(fine, n), _reduce_moments(excess, n)


def verify_comparison(scenario, threads=None, budget=None) -> VerifyReport:
    """Monotone-coupling ordering diagnostics at two step sizes.

    The coupled pairs at the scenario's dt and at dt/2 run as one stack of
    four states on the grid of dt/2 (:func:`simulate_coupled_block` with
    coarse), driven by the same noise; the dt pair's diagnostics read its
    states at the even grid points only. budget, in path-steps, is checked
    once, against the pairs times the steps of dt/2.

    It passes when the coarse pair violates the ordering in at most 1 % of
    its (path, type, point) triples, both levels' mean differences are
    ordered, and the fine pair is not worse: the paired excess of the fine
    level's violation share over the coarse one's is at most 3 standard
    errors, a one-sided test over the independent paths. The estimate, its
    stderr and the z-score are that excess's.
    """
    if scenario.comparison is None:
        raise InvalidConfig(
            f"scenario {scenario.name} has no comparison block: nothing to verify")
    start = time.perf_counter()
    p = scenario.params
    dt = scenario.comparison["dt"]
    coarse, fine, (excess, stderr) = _comparison_run(p, scenario, threads, budget)
    z = float(_zscores(np.maximum(excess, 0.0), stderr, 0.0)[0])
    passed = (coarse["fraction"] <= 0.01 and z <= 3.0
              and coarse["means_ordered"] and fine["means_ordered"])
    return VerifyReport(
        quantity=f"comparison[{scenario.name}]",
        analytic=np.array([0.0]),
        estimate=excess,
        stderr=stderr,
        z_score=z,
        bias_allowance=0.01,
        passed=bool(passed),
        runtime=time.perf_counter() - start,
        details={"coarse": coarse, "fine": fine, "dt": dt,
                 "n_paths": scenario.comparison["n_paths"],
                 "seed": scenario.comparison["seed"]})
