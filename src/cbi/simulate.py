"""Euler-type path simulation of the jump SDE via thinned point processes.

Every branching jump is simulated as an actual event: candidate jumps of type
j arrive with the state-independent rate of mu_j restricted to the simulated
region, thinned by the left-endpoint state X_{t,j}. The compensators of the
simulated jumps are folded into the linear drift, which therefore uses the
effective matrix B_tilde - (simulated first moments per type) -- equal to the
actual-event drift matrix B_hat whenever nothing is truncated. Immigration
jumps arrive state-independently. Infinite-activity components are truncated
below eps_trunc; the discarded sub-cutoff branching martingale is dropped
whole (mean zero), and the discarded sub-cutoff immigration jumps, which do
not depend on the state, are replaced by their mean int z 1{||z|| < eps}
nu(dz) per unit time in the drift, which leaves the mean unbiased.
Jump sizes are drawn by :func:`cbi.measures.sample_parts` from the simulated
parts of :func:`cbi.params.derive` at the cutoff of the SimConfig.
Initial states pass the shared check of :mod:`cbi.params` (check_state),
the cutoff its check_cutoff, and :meth:`SimConfig.steps` holds the one rule
for a time on the Euler grid.

One step kernel advances a stack of k block states that share all noise:
k = 1 is a block of independent paths, k = 2 the coupled pair of
:func:`simulate_coupled_block`, and k = 4 that pair at dt and at 2 dt, on
one grid of step dt. A state with refresh period q reads its left endpoint
only every q-th step, so that q short steps make one long Euler step in
law. Jump counts are superposed: the candidates of
a measure over a whole block form one Poisson process whose points are split
among the n paths in proportion to their intensities (uniformly for
immigration), which has the law of independent per-path counts. Each
branching type carries the exponential waiting time to its next candidate
across steps, so a step draws nothing for a type without a candidate.

The states leave this module in one way only: an observer, observe(first,
states), sees step 0 and then each chunk of steps as one array of
consecutive grid points, and copies whatever it keeps. The block functions
return final states; :func:`simulate_path` and :func:`simulate_coupled`
record every state through one private recorder, and every statistic of
the states (snapshots, ordering diagnostics) is an observer in
:mod:`cbi.montecarlo`.

Randomness is consumed in a fixed order: at the start of the call one Exp(1)
gap per type with simulated branching mass; then per chunk of m steps, m =
max(1, min(n_steps, _CHUNK_VALUES // (n * d))), the state-independent noise
of the whole chunk, that is the diffusion normals of all m steps, then the
immigration total of the chunk, each arrival's step (m > 1), owner and
size; then per step, only for a branching type that fires, its Poisson
count, its new gap, the owners, sizes, and the thinning marks when k > 1,
for a single path, or when a block records jumps. A one-path block draws no
owners. A Poisson total spread uniformly over the m * n (step, path) cells
gives independent Poisson counts per cell, and a carried gap gives each step
a Poisson count independent of the others, so neither changes the law. A
fixed Generator state thus reproduces paths bit-for-bit; the spawned SFC64
substreams of block-parallel runs come from :func:`block_generator`.

A single path, as ``cbi simulate`` writes them, is held as d Python floats
and advanced by a straight-line step generated once per dimension
(:func:`_float_step`): on a length-d row, numpy's cost per call exceeds the
step's arithmetic several times over. Its draws, jumps and event log are the
kernel's one code; only the rounding of the drift's dot product differs from
the array form, by a few ulps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import params as params_mod
from .errors import InvalidConfig, PreconditionViolated
from .measures import sample_parts
from .params import AdmissibleParams, check_state

# pre-drawn Gaussian increments per chunk of steps: at most this many values
# (256 KiB), no more than one Monte Carlo block's state
_CHUNK_VALUES = 2 ** 15
# Generator.poisson refuses a mean above int64 max - 10 sqrt(int64 max)
_POISSON_MAX = 9.2e18


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
        params_mod.check_cutoff(self.eps_trunc)
        if self.positivity_mode not in ("raw", "clamp"):
            raise InvalidConfig("positivity_mode must be 'raw' or 'clamp'")

    def steps(self, t) -> int:
        """The number k of steps of length dt in the time t, which must be a
        whole multiple of dt: |k dt - t| <= 1e-9 max(1, t), and k = 0 only
        at t = 0. A time whose step count overflows raises OverflowError."""
        k = -1
        if 0.0 <= t < math.inf:
            if t / self.dt == math.inf:
                raise OverflowError(
                    f"time {t} holds too many steps of dt = {self.dt} to count")
            k = round(t / self.dt)
        if k < 0 or (k == 0) != (t == 0.0) or abs(k * self.dt - t) > 1e-9 * max(1.0, t):
            raise InvalidConfig(
                f"time {t} is not a non-negative integer multiple of dt = {self.dt}")
        return k

    @property
    def n_steps(self) -> int:
        return self.steps(self.T)

    def grid(self) -> np.ndarray:
        """The time grid, built once per config and read-only."""
        return self._grid

    @functools.cached_property
    def _grid(self):
        n_steps = self.n_steps
        try:
            grid = np.linspace(0.0, self.T, n_steps + 1)
        except MemoryError as exc:
            raise MemoryError(f"the grid of T = {self.T} and dt = {self.dt} has "
                              f"{n_steps} steps, too many to build") from exc
        grid.setflags(write=False)
        return grid


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
    """The random stream of one path block: SFC64 seeded by child block_index
    of the seed sequence of seed, SeedSequence(seed).spawn(block_index + 1)
    [block_index]. A spawn key, unlike list entropy, keeps distinct (seed,
    index) pairs apart, and no stream depends on how blocks are scheduled."""
    key = [int(seed), int(block_index)]
    if not all(0 <= v < 2 ** 64 for v in key):
        raise InvalidConfig(
            f"seed {seed} and block index {block_index} must lie in [0, 2**64)")
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(key[0], spawn_key=(key[1],))))


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


@functools.lru_cache(maxsize=None)
def _float_step(d, diffusion):
    """Factory of the Euler step of one path held as d Python floats.

    make(a0_0, ..., a{d-1}_{d-1}, b0, ..., b{d-1}) binds the entries of
    A = dt * drift_matrix.T, row by row, and of b = dt * beta, and returns
    step(x, z=None), which reads z only with diffusion. From the list x it
    takes the left-endpoint part p_i = max(x_i, 0), which keeps NaN and maps
    -0.0 to 0.0 as np.maximum does, and returns the next state
    ((sum_j p_j * A_ji + b_i) + x_i) + sqrt(p_i) * z_i, summed in the array
    step's order, as a new list together with the tuple p. The source is
    generated from d and diffusion only, as dataclasses generates __init__;
    the numbers enter as closure values.
    """
    ix = range(d)
    names = [f"a{j}_{i}" for j in ix for i in ix] + [f"b{i}" for i in ix]
    xs, ps = ("".join(f"{v}{i}, " for i in ix) for v in "xp")
    lines = [f"def make({', '.join(names)}):",
             "    def step(x, z=None):",
             f"        {xs}= x"]
    if diffusion:
        lines.append(f"        {''.join(f'z{i}, ' for i in ix)}= z")
    lines += [f"        p{i} = x{i} if x{i} > 0.0 or x{i} != x{i} else 0.0" for i in ix]
    new = []
    for i in ix:
        dot = " + ".join(f"p{j} * a{j}_{i}" for j in ix)
        new.append(f"((({dot}) + b{i}) + x{i})"
                   + (f" + sqrt(p{i}) * z{i}" if diffusion else ""))
    lines += [f"        return [{', '.join(new)}], ({ps})",
              "    return step"]
    namespace = {}
    exec(compile("\n".join(lines) + "\n", f"<Euler step d={d}>", "exec"),
         {"sqrt": math.sqrt}, namespace)
    return namespace["make"]


def _add_floats(x, sizes):
    """Add the rows of sizes to the float state x, in draw order."""
    for z in sizes.tolist():
        for i, v in enumerate(z):
            x[i] += v


# an overflowing array state ends in the final-state check's OverflowError,
# which reports it; no numpy warnings on the way
@np.errstate(over="ignore", invalid="ignore")
def _euler(p, X, beta, cfg, rng, observe=None, periods=None):
    """Euler steps of a stack of k block states, shape (k, n, d), sharing all noise.

    k is 1 (a block of paths), 2 (a coupled pair) or 4 (a coupled pair at
    two step sizes); beta has shape (k, 1, d), and the mean of the
    sub-cutoff immigration jumps is added to it here. Branching candidates
    arrive at the largest thinning bound of the stack; state s accepts one
    when its uniform mark is at most the state's own bound (k = 1 accepts
    all).

    State s has a refresh period q_s (periods, default 1 for every state).
    It takes its left-endpoint copy X_s^+ = max(X_s, 0) only at the steps
    that are multiples of q_s, and that copy sets its drift, its diffusion
    factor sqrt(X_s^+), which scales each step's own normals, its thinning
    bound and its marks; immigration and accepted jumps are added as they
    arrive, and in clamp mode the state clamps only at the end of its own
    step. So q steps of length dt sum to one Euler step of length q dt, in
    law: the drifts add up to q dt times the drift, q normals to one of
    variance q dt, and the candidates a frozen bound accepts over q steps to
    one Poisson count of the long step's mean. Every period must divide
    n_steps, so that each state ends on a whole step, and the period before
    it (else InvalidConfig).

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
    new gap, then the owners (n > 1), sizes and marks (k > 1, a single path
    or jumps recorded).

    The state has two representations; the draws, the jumps and the event
    log above are the same code for both. A single path (k * n = 1) is a
    list of d Python floats advanced by the step :func:`_float_step`
    generates for d: a numpy call on a length-d row costs more than the
    step's whole arithmetic, so this lane makes none per step; it collects
    a chunk's states in one flat list. Otherwise buffers are allocated once
    per call, the stack is worked on as (k * n, d) rows and the drift, the
    diffusion and the jumps are added in place: step i of a chunk writes row
    i of one of two (chunk, k * n, d) buffers, used alternately, so a
    chunk's first step reads the other buffer's last row and no state is
    copied. A refreshed row's drift increment X^+ dt D + dt beta is kept
    until its next refresh; for d = 1 its product is one multiplication,
    the float a one-term dot product gives, with no BLAS call per step. The
    two lanes differ only in the rounding of the drift's dot product.

    observe(first, states), when given, is the only output of the states:
    it sees step 0 as states of shape (1, k, n, d), then each chunk of m
    steps as (m, k, n, d), the grid points first, ..., first + m - 1; a
    state with period q is a state of its own chain at the multiples of q
    only. The array it gets is overwritten two chunks later, so an observer
    copies whatever it keeps. Returns the final stack and, with
    cfg.record_jumps and k = 1, per-path JumpEvent lists, else None. A
    Poisson mean that numpy cannot draw from, or a non-finite final state,
    raises OverflowError.
    """
    der = params_mod.derive(p, cfg.eps_trunc)
    # the sub-cutoff immigration jumps do not depend on the state: their
    # mean, added to the drift, leaves the mean of every step exact
    beta = beta + der.immigration_small_mean
    k, n, d = np.shape(X)
    n_steps = cfg.n_steps
    dt = cfg.dt
    periods = (1,) * k if periods is None else tuple(periods)
    if any(n_steps % q or q % after for q, after in zip(periods, periods[1:] + (1,))):
        raise InvalidConfig(f"refresh periods {periods} must divide the {n_steps} "
                            "steps and each the period before it")
    # the branching types with simulated mass, each with its expected
    # candidates per unit of bound and step, and its gap
    branching = [(j, parts, der.branching_rates[j] * dt)
                 for j, parts in enumerate(der.branching_parts) if parts]
    gaps = rng.exponential(size=len(branching)).tolist() if branching else []
    # dt folded into contiguous constants: a product with the transposed view
    # runs three times slower
    drift_dt = np.ascontiguousarray(dt * der.drift_matrix.T)
    use_diffusion = p.has_diffusion
    chunk = max(1, min(n_steps, _CHUNK_VALUES // (n * d)))
    if use_diffusion:
        sig = np.sqrt(2.0 * p.c * dt)
        z = np.empty((chunk, n, d))
    else:
        zrows = [None] * chunk
    clamp = cfg.positivity_mode == "clamp"
    events = tuple([] for _ in range(n)) if cfg.record_jumps and k == 1 else None
    floats = k * n == 1
    if observe is not None:
        observe(0, np.asarray(X, dtype=float)[None])
    if floats:
        advance = _float_step(d, use_diffusion)(
            *drift_dt.ravel().tolist(), *(dt * beta).ravel().tolist())
        x = np.asarray(X, dtype=float).ravel().tolist()
    else:
        # beta_dt and sig are spelled out to the full shape, because
        # broadcasting a length-d row runs numpy's inner loop over d elements
        # at a time, ten times slower
        beta_dt = np.broadcast_to(dt * beta, (k, n, d)).copy().reshape(k * n, d)
        if use_diffusion:
            sig = np.broadcast_to(sig, (n, d)).copy()
        X = np.array(X, dtype=float, order="C").reshape(k * n, d)
        buffers = [np.empty((chunk, k * n, d)) for _ in range(2)]
        Xp = np.empty_like(X)
        Xp3 = Xp.reshape(k, n, d)
        bounds = Xp if k == 1 else np.empty((n, d))
        drift = np.empty_like(X)
        # a zero array and same-shape operands skip numpy's scalar conversion
        # and broadcasting set-up, which dominate an operation on few paths
        zero = np.zeros_like(X)
        root = np.empty_like(X)
        if use_diffusion:
            noise = np.empty_like(X)
            # the stack's states share each step's normals
            root_k, noise_k = (root, noise) if k == 1 else (
                root.reshape(k, n, d), noise.reshape(k, n, d))
        # per step modulo the first period, the rows from which the
        # left-endpoint copies are retaken: each period being a multiple of
        # the next, the states due are the last ones (all when every period
        # is 1). They are also the rows that clamp at the end of the step
        # before. Each comes with the views of the fixed buffers it writes.
        refresh = []
        for r in range(periods[0]):
            lo = n * sum(r % q != 0 for q in periods)
            refresh.append((lo, Xp[lo:], zero[lo:], drift[lo:], beta_dt[lo:], root[lo:]))

    for first in range(0, n_steps, chunk):
        m = min(chunk, n_steps - first)
        if floats:
            # the chunk's states, flat: numpy converts a flat list three
            # times faster
            kept = []
        else:
            rows = buffers[first // chunk % 2]
        if use_diffusion:
            zc = z[:m]
            rng.standard_normal(out=zc)
            zc *= sig
            zrows = zc.reshape(m, d).tolist() if floats else list(zc)
        arrivals = {}
        if der.immigration_parts:
            mean = n * der.immigration_rate * dt * m
            if not mean < _POISSON_MAX:
                raise OverflowError("immigration rate overflowed")
            arrivals = _immigration_draw(rng, der.immigration_parts, mean, m, n)

        for i in range(m):
            step = first + i
            if floats:
                # the bounds of all types are the left-endpoint floats
                x, bounds = advance(x, zrows[i])
            else:
                lo, xp, zr, dr, bt, rt = refresh[step % periods[0]]
                np.maximum(X[lo:], zr, out=xp)
                if d == 1:
                    np.multiply(xp, drift_dt[0, 0], out=dr)
                else:
                    np.dot(xp, drift_dt, out=dr)
                dr += bt
                if use_diffusion:
                    np.sqrt(xp, out=rt)
                X_new = rows[i]
                np.add(drift, X, out=X_new)
                if use_diffusion:
                    np.multiply(root_k, zrows[i], out=noise_k)
                    X_new += noise
                X3 = X_new.reshape(k, n, d)
                if branching and k > 1:
                    # the thinning bounds: the stack's largest left endpoints
                    np.maximum.reduce(Xp3, out=bounds)

            if i in arrivals:
                owners, sizes = arrivals[i]
                if floats:
                    _add_floats(x, sizes)
                else:
                    # to every state of the stack, each in draw order
                    np.add.at(X3, (slice(None), owners), sizes)
                if events is not None:
                    _log(events, (step + 1) * dt, "immigration", None,
                         owners, sizes, None)

            for b, (j, parts, rate_dt) in enumerate(branching):
                if floats:
                    top = bounds[j]
                else:
                    bound = bounds[:, j]
                    cum = bound.cumsum()
                    top = float(cum[-1])
                clock = top * rate_dt
                gap = gaps[b]
                if gap >= clock:
                    gaps[b] = gap - clock
                    continue
                if not clock - gap < _POISSON_MAX:
                    raise OverflowError("branching candidate rate overflowed")
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
                # a single path draws its marks whether or not it logs them,
                # so that recording its jumps leaves its path unchanged
                if k > 1 or floats or events is not None:
                    marks = rng.random(total) * owner_bound
                if floats:
                    _add_floats(x, sizes)
                elif k == 1:
                    np.add.at(X_new, owners, sizes)
                else:
                    # nonzero lists the acceptances state by state
                    s, c = (marks <= Xp3[:, owners, j]).nonzero()
                    np.add.at(X3, (s, owners[c]), sizes[c])
                if events is not None:
                    _log(events, (step + 1) * dt, "branching", j, owners, sizes, marks)

            if floats:
                if clamp:
                    x = [v if v > 0.0 or v != v else 0.0 for v in x]
                if observe is not None:
                    kept += x
                continue
            if clamp:
                lo, _, zr, *_ = refresh[(step + 1) % periods[0]]
                np.maximum(X_new[lo:], zr, out=X_new[lo:])
            X = X_new

        if observe is not None:
            observe(first + 1, np.array(kept).reshape(m, 1, 1, d) if floats
                    else rows[:m].reshape(m, k, n, d))

    X = np.array(x).reshape(1, 1, d) if floats else X.reshape(k, n, d)
    # a step keeps a non-finite coordinate non-finite (clamp maps -inf to
    # 0), so the final state shows whether any step overflowed
    if not np.isfinite(X).all():
        raise OverflowError("the Euler state overflowed")
    return X, events


def simulate_block(p: AdmissibleParams, x0, cfg: SimConfig, rng, observe=None):
    """Simulate a block of paths sharing one random stream.

    observe(first, states), when given, sees the states of grid points first,
    first + 1, ... as (m, n, d) chunks: the contract of :func:`_euler` with
    the stack axis dropped. Returns (final_states, events), events a per-path
    tuple of JumpEvent lists when cfg.record_jumps is set, else None.
    """
    X = check_state("x0", x0, p.d, stack=True).reshape(-1, p.d)
    chunks = None if observe is None else lambda first, states: observe(first, states[:, 0])
    X, events = _euler(p, X[None], p.beta[None, None, :], cfg, rng, chunks)
    return X[0], events


def simulate_coupled_block(p: AdmissibleParams, beta_prime, x0, x0_prime,
                           cfg: SimConfig, rng, observe=None, coarse=False):
    """Simulate (X, X') sharing noise, with beta <= beta_prime and X0 <= X0'.

    Branching candidates are drawn per step with the dominating intensity
    max(X_j^+, X'_j^+) and a uniform mark u on [0, that bound]; a candidate is
    accepted for a path exactly when u <= that path's left-endpoint state, so
    the accepted sets are nested whenever the states are ordered. Immigration
    points and Gaussian increments are shared identically. observe sees the
    kernel's (m, 2, n, d) chunks, X before X'. A pair keeps no jump log, so
    cfg.record_jumps changes nothing here. Returns (final, final_prime).

    With coarse, the same noise also drives the pair at step 2 cfg.dt (the
    level coupling of Giles, Oper. Res. 56, 2008): the stack is (X_2dt,
    X'_2dt, X, X'), the coarse pair refreshes its left endpoint every second
    step (see :func:`_euler`), and its Gaussian increment is the sum of the
    two fine ones. cfg.n_steps must be even. observe sees (m, 4, n, d)
    chunks, in which the coarse pair's states at odd grid points are
    mid-step sums, not states of its chain; the return is (coarse_final,
    coarse_final_prime, final, final_prime).
    """
    beta_prime = np.asarray(beta_prime, dtype=float)
    if beta_prime.shape != (p.d,):
        raise PreconditionViolated(f"beta_prime must have {p.d} components")
    if np.any(beta_prime < p.beta):
        raise PreconditionViolated("beta_prime must dominate beta componentwise")
    X = check_state("x0", x0, p.d, stack=True).reshape(-1, p.d)
    Xq = check_state("x0_prime", x0_prime, p.d, stack=True).reshape(-1, p.d)
    if Xq.shape != X.shape:
        raise PreconditionViolated("x0 and x0_prime must have matching shapes")
    if np.any(Xq < X):
        raise PreconditionViolated("x0_prime must dominate x0 componentwise")
    levels = 2 if coarse else 1
    betas = np.tile(np.stack([p.beta, beta_prime])[:, None, :], (levels, 1, 1))
    X, _ = _euler(p, np.tile(np.stack([X, Xq]), (levels, 1, 1)), betas, cfg, rng,
                  observe, periods=(2, 2, 1, 1) if coarse else None)
    return tuple(X)


def _recorder(cfg, shape):
    """An observer that copies every state it sees into full, an array of
    shape (n_steps + 1, *shape); returns (full, observe)."""
    full = np.empty((cfg.n_steps + 1, *shape))

    def observe(first, states):
        full[first:first + len(states)] = states
    return full, observe


def simulate_path(p: AdmissibleParams, x0, cfg: SimConfig, rng) -> Path:
    """Single trajectory on the regular grid, optionally logging jump events."""
    full, observe = _recorder(cfg, (1, p.d))
    _, events = simulate_block(p, np.asarray(x0, dtype=float)[None, :], cfg, rng, observe)
    jumps = tuple(events[0]) if events is not None else None
    return Path(grid=cfg.grid(), states=full[:, 0], jumps=jumps)


def simulate_coupled(p: AdmissibleParams, beta_prime, x0, x0_prime, cfg: SimConfig, rng):
    """Coupled pair of single trajectories; returns (Path, Path)."""
    full, observe = _recorder(cfg, (2, 1, p.d))
    simulate_coupled_block(p, beta_prime, np.asarray(x0, dtype=float)[None, :],
                           np.asarray(x0_prime, dtype=float)[None, :], cfg, rng, observe)
    grid = cfg.grid()
    return Path(grid=grid, states=full[:, 0, 0]), Path(grid=grid, states=full[:, 1, 0])
