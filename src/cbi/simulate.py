"""Euler-type path simulation of the jump SDE via thinned point processes.

Every branching jump is simulated as an actual event: candidate jumps of type
j arrive with the state-independent rate of mu_j restricted to the simulated
region, thinned by the left-endpoint state X_{t,j}. The compensators of the
simulated jumps are folded into the linear drift, which therefore uses the
effective matrix B_tilde - (simulated first moments per type) -- equal to the
actual-event drift matrix B_hat whenever nothing is truncated. Immigration
jumps arrive state-independently. Infinite-activity components are truncated
below eps_trunc; the discarded sub-cutoff branching martingale is dropped
whole (mean zero), the discarded sub-cutoff immigration mean is a documented
bias. Jump sizes are drawn by :func:`cbi.measures.sample_parts` from the
leaves of :func:`cbi.params.simulated_parts`, at the rates ``derive`` caches.

One step kernel advances a stack of k block states that share all noise:
k = 1 is a block of independent paths, k = 2 the coupled pair of
:func:`simulate_coupled_block`. Jump counts are superposed: the candidates of
a measure over a whole block form one Poisson process whose points are split
among the n paths in proportion to their intensities (uniformly for
immigration), which has the law of independent per-path counts. Each
branching type carries the exponential waiting time to its next candidate
across steps, so a step draws nothing for a type without a candidate.

Randomness is consumed in a fixed order: at the start of the call one Exp(1)
gap per type with simulated branching mass; then per chunk of m steps, m =
max(1, min(n_steps, _CHUNK_VALUES // (n * d))), the state-independent noise
of the whole chunk, that is the diffusion normals of all m steps, then the
immigration total of the chunk, each arrival's step (m > 1), owner and
size; then per step, only for a branching type that fires, its Poisson
count, its new gap, the owners, sizes, and the thinning marks when k = 2 or
jumps are recorded. A one-path block draws no owners. A Poisson total spread
uniformly over the m * n (step, path) cells gives independent Poisson counts
per cell, and a carried gap gives each step a Poisson count independent of
the others, so neither changes the law. A fixed Generator state thus
reproduces paths bit-for-bit; counter-based substreams for block-parallel
runs live in :func:`block_generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import params as params_mod
from .errors import InvalidConfig, PreconditionViolated
from .measures import sample_parts
from .params import AdmissibleParams, DerivedParams

COMPARISON_SLACK = 1e-12  # ordering violations below this are roundoff
# pre-drawn Gaussian increments per chunk of steps: at most this many values
# (256 KiB), no more than one Monte Carlo block's state
_CHUNK_VALUES = 2 ** 15


@dataclass(frozen=True)
class SimConfig:
    """Discretisation settings for the Euler scheme."""

    T: float
    dt: float
    eps_trunc: float = params_mod.DEFAULT_EPS_TRUNC
    positivity_mode: str = "raw"   # "raw": only coefficients clamp; "clamp": states too
    record_jumps: bool = False

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise InvalidConfig("T must be positive and finite")
        if not 0 < self.dt < np.inf:
            raise InvalidConfig("dt must be positive and finite")
        if not 0.0 < self.eps_trunc <= 1.0:
            raise InvalidConfig("eps_trunc must lie in (0, 1]")
        if self.positivity_mode not in ("raw", "clamp"):
            raise InvalidConfig("positivity_mode must be 'raw' or 'clamp'")

    @property
    def n_steps(self) -> int:
        n = round(self.T / self.dt)
        if n < 1 or abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise InvalidConfig("T must be an integer multiple of dt")
        return n

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass(frozen=True)
class JumpEvent:
    time: float
    kind: str                 # "immigration" | "branching"
    type_index: int | None    # branching type j, None for immigration
    size: np.ndarray
    u: float | None           # thinning mark, branching only
    size_class: str | None    # "small" (||z|| < 1) or "large"


@dataclass(frozen=True)
class Path:
    grid: np.ndarray
    states: np.ndarray            # (n_steps + 1, d)
    jumps: tuple | None = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Counter-based substream for one path block; scheduling-independent."""
    key = [int(seed), int(block_index)]
    if not all(0 <= v < 2 ** 64 for v in key):
        raise InvalidConfig(
            f"seed {seed} and block index {block_index} must lie in [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=key))


def _matched_derived(p, der, cfg):
    if der.eps_trunc != cfg.eps_trunc:
        der = params_mod.derive(p, eps_trunc=cfg.eps_trunc)
    return der


def _check_x0(x0, d):
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[1] != d:
        raise InvalidConfig(f"x0 must have {d} components")
    if not np.all(np.isfinite(x0)):
        raise PreconditionViolated("x0 must be finite")
    if np.any(x0 < 0):
        raise PreconditionViolated("x0 must be componentwise non-negative")
    return x0


def _log(events, time, kind, j, owners, sizes, marks):
    for i, (owner, z) in enumerate(zip(owners, sizes)):
        events[owner].append(JumpEvent(
            time=time, kind=kind, type_index=j, size=z.copy(),
            u=None if marks is None else float(marks[i]),
            size_class="small" if np.linalg.norm(z) < 1 else "large"))


def _branching_owners(rng, cum, total):
    """Owners of total candidates, in proportion to the bounds whose
    cumulative sums are cum; a path with zero bound never owns one."""
    top = cum[-1]
    owners = cum.searchsorted(rng.uniform(0.0, top, total), side="right")
    # cum.searchsorted(top) is the last path with positive bound: a uniform
    # equal to top goes there, never to a zero-bound path after it
    return np.minimum(owners, cum.searchsorted(top), out=owners)


def _immigration_draw(rng, parts, mean, m, n):
    """Immigration arrivals of a chunk of m steps: a Poisson(mean) total
    spread uniformly over the m * n (step, path) cells, with sizes.

    Returns {step: (owners, sizes)} over the steps of the chunk that have
    arrivals, each step's arrivals in draw order.
    """
    total = rng.poisson(mean)
    if not total:
        return {}
    steps = rng.integers(0, m, total) if m > 1 else None
    owners = rng.integers(0, n, total) if n > 1 else np.zeros(total, np.intp)
    sizes = sample_parts(parts, total, rng)
    if steps is None:
        return {0: (owners, sizes)}
    order = np.argsort(steps, kind="stable")
    busy, starts = np.unique(steps[order], return_index=True)
    ends = [*starts[1:].tolist(), total]
    return {step: (owners[order[lo:hi]], sizes[order[lo:hi]])
            for step, lo, hi in zip(busy.tolist(), starts.tolist(), ends)}


def _euler(p, der, X, beta, cfg, rng, observe=None, out=None):
    """Euler steps of a stack of k block states, shape (k, n, d), sharing all noise.

    k is 1 (a block of paths) or 2 (a coupled pair); beta has shape (k, 1, d).
    Branching candidates arrive at the larger thinning intensity of the
    stack; state s accepts one when its uniform mark is at most the state's
    own left-endpoint value (k = 1 accepts all).

    The candidates of type j over the whole block form one unit-rate Poisson
    process run on the clock rate_j * dt * (sum over paths of the bound) per
    step. The kernel carries each type's exponential gap g_j, the clock time
    left to that process's next point: a step whose clock increment l_j is at
    most g_j takes l_j off the gap and draws nothing; otherwise it has
    1 + Poisson(l_j - g_j) candidates and g_j is redrawn. Given the past, g_j
    is Exp(1), so a step's count is Poisson(l_j), independent of every other
    step and variate (the modified next reaction method).

    Randomness is consumed in this order: the gaps of the types with
    simulated branching mass at the start of the call; per chunk of at most
    _CHUNK_VALUES normals the Gaussian increments and the immigration
    arrivals; per step, only for a type that fires, its Poisson count, its
    new gap, then the owners (n > 1), sizes and marks (k = 2 or jumps
    recorded). Buffers are allocated once per call, the stack is worked on
    as (k * n, d) rows and the drift, the diffusion and the jumps are added
    in place. Without out, the state and the next state swap after every
    step; with out, shape (n_steps + 1, k, n, d) and C-contiguous in its
    last three axes, step s writes straight into out[s]. observe(step, X),
    when given, sees the stack at step 0 and after every step; the array it
    gets is overwritten by a later step, so an observer copies whatever it
    keeps. Returns the final stack (never a view of out) and, with
    cfg.record_jumps, per-path JumpEvent lists of state 0.
    """
    der = _matched_derived(p, der, cfg)
    k, n, d = np.shape(X)
    n_steps = cfg.n_steps
    dt = cfg.dt
    nu_parts, *mu_parts = [params_mod.simulated_parts(m, cfg.eps_trunc)
                           for m in (p.nu, *p.mu)]
    # the types with simulated branching mass, each with its expected
    # candidates per unit of bound and step, and its gap
    branching = [(j, parts, der.branching_rates[j] * dt)
                 for j, parts in enumerate(mu_parts) if parts]
    gaps = rng.exponential(size=len(branching)).tolist() if branching else []
    # dt folded into contiguous constants: a product with the transposed view
    # runs three times slower; beta_dt and sig are spelled out to the full
    # shape, because broadcasting a length-d row runs numpy's inner loop over
    # d elements at a time, ten times slower
    drift_dt = np.ascontiguousarray(dt * der.drift_matrix.T)
    beta_dt = np.broadcast_to(dt * beta, (k, n, d)).copy().reshape(k * n, d)
    use_diffusion = bool(np.any(p.c > 0))
    chunk = max(1, min(n_steps, _CHUNK_VALUES // (n * d)))
    if use_diffusion:
        sig = np.broadcast_to(np.sqrt(2.0 * p.c * dt), (n, d)).copy()
        z = np.empty((chunk, n, d))
    if out is None:
        X = np.array(X, dtype=float, order="C").reshape(k * n, d)
        swap = (X, np.empty_like(X))
    else:
        out[0] = X
        rows = list(out.reshape(n_steps + 1, k * n, d))
        X = rows[0]
    Xp = np.empty_like(X)
    Xp3 = Xp.reshape(k, n, d)
    # a zero array and same-shape operands skip numpy's scalar conversion and
    # broadcasting set-up, which dominate an operation on one path
    zero = np.zeros_like(X)
    if use_diffusion:
        noise = np.empty_like(X)
        # the stack's states share each step's normals
        noise_k = noise if k == 1 else noise.reshape(k, n, d)
    clamp = cfg.positivity_mode == "clamp"
    events = tuple([] for _ in range(n)) if cfg.record_jumps else None
    if observe is not None:
        observe(0, X.reshape(k, n, d))

    for first in range(0, n_steps, chunk):
        m = min(chunk, n_steps - first)
        if use_diffusion:
            zc = z[:m]
            rng.standard_normal(out=zc)
            zc *= sig
            zrows = list(zc)
        arrivals = {}
        if nu_parts:
            arrivals = _immigration_draw(
                rng, nu_parts, n * der.immigration_rate * dt * m, m, n)

        for i in range(m):
            step = first + i
            X_new = swap[(step + 1) & 1] if out is None else rows[step + 1]
            np.maximum(X, zero, out=Xp)
            np.dot(Xp, drift_dt, out=X_new)
            X_new += beta_dt
            X_new += X
            if use_diffusion:
                np.sqrt(Xp, out=noise)
                noise_k *= zrows[i]
                X_new += noise

            if i in arrivals:
                owners, sizes = arrivals[i]
                X3 = X_new.reshape(k, n, d)
                for s in range(k):
                    np.add.at(X3[s], owners, sizes)
                if events is not None:
                    _log(events, (step + 1) * dt, "immigration", None,
                         owners, sizes, None)

            if branching and n == 1:
                # one path: the bounds of all types as floats in one go
                bounds = Xp.tolist()[0] if k == 1 else Xp.max(axis=0).tolist()
            for b, (j, parts, rate_dt) in enumerate(branching):
                if n == 1:
                    top = bounds[j]
                else:
                    bound = Xp[:, j] if k == 1 else np.maximum(Xp3[0, :, j], Xp3[1, :, j])
                    cum = np.cumsum(bound)
                    top = float(cum[-1])
                clock = top * rate_dt
                gap = gaps[b]
                if gap >= clock:
                    gaps[b] = gap - clock
                    continue
                total = 1 + int(rng.poisson(clock - gap))
                gaps[b] = rng.exponential()
                if n == 1:
                    owners = np.zeros(total, np.intp)
                    owner_bound = top
                else:
                    owners = _branching_owners(rng, cum, total)
                    owner_bound = bound[owners]
                sizes = sample_parts(parts, total, rng)
                marks = None
                if k > 1 or events is not None:
                    marks = rng.random(total) * owner_bound
                X3 = X_new.reshape(k, n, d)
                if k == 1:
                    np.add.at(X3[0], owners, sizes)
                    acc0 = slice(None)
                else:
                    # nonzero lists state 0's acceptances before state 1's
                    acc = marks <= Xp3[:, owners, j]
                    s, c = np.nonzero(acc)
                    np.add.at(X3, (s, owners[c]), sizes[c])
                    acc0 = acc[0]
                if events is not None:
                    _log(events, (step + 1) * dt, "branching", j, owners[acc0],
                         sizes[acc0], marks[acc0])

            if clamp:
                np.maximum(X_new, zero, out=X_new)
            X = X_new
            if observe is not None:
                observe(step + 1, X.reshape(k, n, d))

    X = X.reshape(k, n, d)
    return (X if out is None else X.copy()), events


def simulate_block(p: AdmissibleParams, der: DerivedParams, x0, cfg: SimConfig,
                   rng, keep_full: bool = False, snapshot_steps=()):
    """Simulate a block of paths sharing one random stream.

    Returns (final_states, full_states_or_None, snapshots, events) where
    snapshots maps requested step indices to state copies and events is a
    per-path tuple of JumpEvent lists when cfg.record_jumps is set.
    """
    X = _check_x0(x0, p.d)
    n, d = X.shape
    full = np.empty((cfg.n_steps + 1, n, d)) if keep_full else None
    snapshots = {}
    wanted = set(int(k) for k in snapshot_steps)
    observe = None
    if wanted:
        def observe(step, stack):
            if step in wanted:
                snapshots[step] = stack[0].copy()

    X, events = _euler(p, der, X[None], p.beta[None, None, :], cfg, rng, observe,
                       None if full is None else full[:, None])
    return X[0], full, snapshots, events


def simulate_path(p: AdmissibleParams, der: DerivedParams, x0, cfg: SimConfig,
                  rng) -> Path:
    """Single trajectory on the regular grid, optionally logging jump events."""
    _, full, _, events = simulate_block(p, der, np.asarray(x0, dtype=float)[None, :],
                                        cfg, rng, keep_full=True)
    jumps = tuple(events[0]) if events is not None else None
    return Path(grid=cfg.grid(), states=full[:, 0, :], jumps=jumps)


@dataclass
class CoupledStats:
    """Ordering diagnostics of a coupled block, accumulated over grid points."""

    n_paths: int
    violations: int = 0
    triples: int = 0
    worst: float = 0.0
    diff_sum: np.ndarray | None = None     # (n_steps+1, d) sums of X' - X
    diff_sq_sum: np.ndarray | None = None

    def record(self, step, diff):
        """Add one grid point's (n, d) differences X' - X."""
        if not diff.size:
            return
        lo = float(diff.min())
        if lo < -COMPARISON_SLACK:
            self.violations += int(np.count_nonzero(diff < -COMPARISON_SLACK))
        self.triples += diff.size
        self.worst = max(self.worst, -lo)
        if diff.shape[1] > 1:
            # sum(axis=0) adds row by row here, as einsum does without the
            # strided loop and the temporaries
            self.diff_sum[step] += np.einsum("ij->j", diff)
            self.diff_sq_sum[step] += np.einsum("ij,ij->j", diff, diff)
        else:
            # one contiguous column, which sum(axis=0) adds pairwise
            self.diff_sum[step] += diff.sum(axis=0)
            self.diff_sq_sum[step] += (diff ** 2).sum(axis=0)


def simulate_coupled_block(p: AdmissibleParams, der: DerivedParams, beta_prime,
                           x0, x0_prime, cfg: SimConfig, rng,
                           keep_full: bool = False):
    """Simulate (X, X') sharing noise, with beta <= beta_prime and X0 <= X0'.

    Branching candidates are drawn per step with the dominating intensity
    max(X_j^+, X'_j^+) and a uniform mark u on [0, that bound]; a candidate is
    accepted for a path exactly when u <= that path's left-endpoint state, so
    the accepted sets are nested whenever the states are ordered. Immigration
    points and Gaussian increments are shared identically.
    """
    beta_prime = np.asarray(beta_prime, dtype=float)
    if beta_prime.shape != (p.d,):
        raise PreconditionViolated(f"beta_prime must have {p.d} components")
    if np.any(beta_prime < p.beta):
        raise PreconditionViolated("beta_prime must dominate beta componentwise")
    X = _check_x0(x0, p.d)
    Xq = _check_x0(x0_prime, p.d)
    if Xq.shape != X.shape:
        raise PreconditionViolated("x0 and x0_prime must have matching shapes")
    if np.any(Xq < X):
        raise PreconditionViolated("x0_prime must dominate x0 componentwise")

    n, d = X.shape
    n_steps = cfg.n_steps
    stats = CoupledStats(n_paths=n,
                         diff_sum=np.zeros((n_steps + 1, d)),
                         diff_sq_sum=np.zeros((n_steps + 1, d)))
    full = np.empty((2, n_steps + 1, n, d)) if keep_full else None

    diff = np.empty((n, d))

    def observe(step, stack):
        stats.record(step, np.subtract(stack[1], stack[0], out=diff))
        if keep_full:
            full[:, step] = stack

    betas = np.stack([p.beta, beta_prime])[:, None, :]
    X, _ = _euler(p, der, np.stack([X, Xq]), betas, cfg, rng, observe)
    return X[0], X[1], stats, full


def simulate_coupled(p: AdmissibleParams, der: DerivedParams, beta_prime,
                     x0, x0_prime, cfg: SimConfig, rng):
    """Coupled pair of single trajectories; returns (Path, Path)."""
    x0 = np.asarray(x0, dtype=float)[None, :]
    x0_prime = np.asarray(x0_prime, dtype=float)[None, :]
    _, _, _, full = simulate_coupled_block(
        p, der, beta_prime, x0, x0_prime, cfg, rng, keep_full=True)
    grid = cfg.grid()
    return (Path(grid=grid, states=full[0][:, 0, :]),
            Path(grid=grid, states=full[1][:, 0, :]))
