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
:func:`simulate_coupled_block`. Jump counts are superposed: per step and
measure a block draws one Poisson total and splits its points among its n
paths in proportion to their intensities (uniformly for immigration), which
has the law of independent per-path counts.

Randomness is consumed in a fixed order per chunk of m steps, m =
max(1, min(n_steps, _CHUNK_VALUES // (n * d))): first the state-independent
noise of the whole chunk, that is the diffusion normals of all m steps, then
the immigration total of the chunk, each arrival's step (m > 1), owner and
size; then per step and type the branching candidate total, owners, sizes,
and the thinning marks when k = 2 or jumps are recorded. A one-path block
draws no owners. When m = 1 (n * d >= _CHUNK_VALUES) this is the per-step
order: normals, immigration, branching. A Poisson total spread uniformly
over the m * n (step, path) cells gives independent Poisson counts per cell,
so the chunking changes the stream, not the law. A fixed Generator state
thus reproduces paths bit-for-bit; counter-based substreams for
block-parallel runs live in :func:`block_generator`.
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
        if not self.T > 0:
            raise InvalidConfig("T must be positive")
        if not self.dt > 0:
            raise InvalidConfig("dt must be positive")
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
    return np.random.Generator(np.random.Philox(key=[int(seed), int(block_index)]))


def _matched_derived(p, der, cfg):
    if der.eps_trunc != cfg.eps_trunc:
        der = params_mod.derive(p, eps_trunc=cfg.eps_trunc)
    return der


def _check_x0(x0, d):
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[1] != d:
        raise InvalidConfig(f"x0 must have {d} components")
    if np.any(x0 < 0):
        raise PreconditionViolated("x0 must be componentwise non-negative")
    return x0


def _log(events, time, kind, j, owners, sizes, marks):
    for i, (owner, z) in enumerate(zip(owners, sizes)):
        events[owner].append(JumpEvent(
            time=time, kind=kind, type_index=j, size=z.copy(),
            u=None if marks is None else float(marks[i]),
            size_class="small" if np.linalg.norm(z) < 1 else "large"))


def _branching_draw(rng, bound, rate, dt):
    """(total, owners) of candidates whose per-path counts are independent
    Poisson(bound * rate * dt); a path with zero bound never owns one."""
    if len(bound) == 1:
        total = rng.poisson(bound[0] * rate * dt)
        return total, np.zeros(total, np.intp) if total else None
    cum = np.cumsum(bound)
    top = cum[-1]
    total = rng.poisson(top * rate * dt)
    if not total:
        return 0, None
    owners = cum.searchsorted(rng.uniform(0.0, top, total), side="right")
    # cum.searchsorted(top) is the last path with positive bound: a uniform
    # equal to top goes there, never to a zero-bound path after it
    return total, np.minimum(owners, cum.searchsorted(top), out=owners)


def _immigration_draw(rng, parts, mean, m, n):
    """Immigration arrivals of a chunk of m steps: a Poisson(mean) total
    spread uniformly over the m * n (step, path) cells, with sizes.

    Returns None without arrivals, else (owners, sizes, bounds) sorted stably
    by step: step i owns rows bounds[i]:bounds[i + 1].
    """
    total = rng.poisson(mean)
    if not total:
        return None
    steps = rng.integers(0, m, total) if m > 1 else None
    owners = rng.integers(0, n, total) if n > 1 else np.zeros(total, np.intp)
    sizes = sample_parts(parts, total, rng)
    if steps is None:
        return owners, sizes, [0, total]
    order = np.argsort(steps, kind="stable")
    bounds = steps[order].searchsorted(np.arange(m + 1))
    return owners[order], sizes[order], bounds.tolist()


def _euler(p, der, X, beta, cfg, rng, observe, out=None):
    """Euler steps of a stack of k block states, shape (k, n, d), sharing all noise.

    k is 1 (a block of paths) or 2 (a coupled pair); beta has shape (k, 1, d).
    Branching candidates arrive at the larger thinning intensity of the
    stack; state s accepts one when its uniform mark is at most the state's
    own left-endpoint value (k = 1 accepts all).

    The state-independent noise, Gaussian increments and immigration
    arrivals, is drawn once per chunk of steps holding at most _CHUNK_VALUES
    normals; branching is drawn per step. Buffers are allocated once per
    call and the drift, the diffusion and the jumps are added in place.
    Without out, the state and the next state swap after every step; with
    out, shape (n_steps + 1, k, n, d), step s writes straight into out[s].
    observe(step, X) sees the stack at step 0 and after every step; the
    array it gets is overwritten by a later step, so an observer copies
    whatever it keeps. Returns the final stack (never a view of out) and,
    with cfg.record_jumps, per-path JumpEvent lists of state 0.
    """
    der = _matched_derived(p, der, cfg)
    k, n, d = np.shape(X)
    n_steps = cfg.n_steps
    dt = cfg.dt
    nu_parts, *mu_parts = [params_mod.simulated_parts(m, cfg.eps_trunc)
                           for m in (p.nu, *p.mu)]
    # dt folded into contiguous constants: matmul with the transposed view
    # runs three times slower; beta_dt and sig are spelled out to the full
    # shape, because broadcasting a length-d row runs numpy's inner loop over
    # d elements at a time, ten times slower
    drift_dt = np.ascontiguousarray(dt * der.drift_matrix.T)
    beta_dt = np.broadcast_to(dt * beta, (k, n, d)).copy()
    use_diffusion = bool(np.any(p.c > 0))
    chunk = max(1, min(n_steps, _CHUNK_VALUES // (n * d)))
    if use_diffusion:
        sig = np.broadcast_to(np.sqrt(2.0 * p.c * dt), (1, n, d)).copy()
        z = np.empty((chunk, 1, n, d))
    if out is None:
        X = np.array(X, dtype=float, order="C")
        spare = np.empty_like(X)
    else:
        out[0] = X
        X = spare = out[0]
    Xp = np.empty_like(X)
    noise = np.empty_like(X) if use_diffusion else None
    events = tuple([] for _ in range(n)) if cfg.record_jumps else None
    observe(0, X)

    for first in range(0, n_steps, chunk):
        m = min(chunk, n_steps - first)
        if use_diffusion:
            zc = z[:m]
            rng.standard_normal(out=zc)
            zc *= sig
        arrivals = None
        if nu_parts:
            arrivals = _immigration_draw(
                rng, nu_parts, n * der.immigration_rate * dt * m, m, n)

        for i in range(m):
            step = first + i
            X_new = spare if out is None else out[step + 1]
            np.maximum(X, 0.0, out=Xp)
            np.matmul(Xp, drift_dt, out=X_new)
            X_new += beta_dt
            X_new += X
            if use_diffusion:
                np.sqrt(Xp, out=noise)
                noise *= zc[i]
                X_new += noise
            t_next = (step + 1) * dt

            if arrivals is not None:
                owners, sizes, bounds = arrivals
                lo, hi = bounds[i], bounds[i + 1]
                if hi > lo:
                    for s in range(k):
                        np.add.at(X_new[s], owners[lo:hi], sizes[lo:hi])
                    if events is not None:
                        _log(events, t_next, "immigration", None,
                             owners[lo:hi], sizes[lo:hi], None)

            for j, parts in enumerate(mu_parts):
                if not parts:
                    continue
                bound = Xp[0, :, j] if k == 1 else np.maximum(Xp[0, :, j], Xp[1, :, j])
                total, owners = _branching_draw(rng, bound, der.branching_rates[j], dt)
                if not total:
                    continue
                sizes = sample_parts(parts, total, rng)
                marks = None
                if k > 1 or events is not None:
                    marks = rng.uniform(0.0, bound[owners])
                if k == 1:
                    np.add.at(X_new[0], owners, sizes)
                    acc0 = slice(None)
                else:
                    # nonzero lists state 0's acceptances before state 1's
                    acc = marks <= Xp[:, owners, j]
                    s, c = np.nonzero(acc)
                    np.add.at(X_new, (s, owners[c]), sizes[c])
                    acc0 = acc[0]
                if events is not None:
                    _log(events, t_next, "branching", j, owners[acc0], sizes[acc0],
                         marks[acc0])

            if cfg.positivity_mode == "clamp":
                np.maximum(X_new, 0.0, out=X_new)
            X, spare = X_new, X
            observe(step + 1, X)

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
