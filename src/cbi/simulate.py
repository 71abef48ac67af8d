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
law. The kernel holds an array stack coordinate-major, as k * d rows of n
paths, so that each coordinate and each type's thinning bound is one
contiguous row and the drift one (d, d) @ (d, n) product per state;
observers still see (steps, k, n, d) arrays. Jump counts are superposed:
the candidates of a measure over a whole block form one Poisson process
whose points are split among the n paths in proportion to their
intensities (uniformly for immigration, whose every path has bound 1),
which has the law of independent per-path counts. Every branching clock
splits its candidates by one rule, classical thinning: they arrive at n
times top, the type's largest bound over every path and state of the
stack, each with a uniform owner and a uniform mark on [0, top). A block
keeps a candidate whose mark lies below its owner's bound, and state s of
a stack one whose mark lies below its own bound. A Poisson count at top,
thinned by independent marks, is a Poisson count at each owner's bound
(Lewis & Shedler, Naval Res. Logist. Q. 26, 1979), and marks shared by a
stack nest the accepted sets of ordered states. A single path is a
thinned block of one, which keeps every candidate. The rule draws n top
rate dt candidates per step for the sum of the bounds times rate dt kept,
so it costs little while the bounds are even (n top over that sum reaches
2.7 on S3, 15.2 on S4 and 7.4 on S5 at their own sizes and seeds) and most
where one path carries a block (see :func:`_euler`).
Immigration and each branching type carry the exponential waiting time to
their next candidate across steps, so a step draws nothing for a kind
without a candidate.

The states leave this module in one way only: an observer, observe(first,
states), sees step 0 and then each chunk of steps as one array of
consecutive grid points, and copies whatever it keeps. The block functions
return final states; :func:`simulate_path` and :func:`simulate_coupled`
record every state through one private recorder, and every statistic of
the states (snapshots, ordering diagnostics) is an observer in
:mod:`cbi.montecarlo`.

Randomness is consumed in a fixed order: at the start of the call one Exp(1)
gap per type with simulated branching mass, in type order, and last one for
immigration when nu has simulated mass; then per chunk of m steps, m =
max(1, min(n_steps, _CHUNK_VALUES // (n * d))), the diffusion normals of all
m steps; then per step, immigration first and then each branching type, and
only for one that fires, one draw order: its Poisson count and its new gap,
the owners (none for a one-path stack), for a branching type the marks, and
the sizes of the kept candidates. Marks are drawn whether or not jumps are
recorded, so recording leaves every path unchanged. A carried gap gives
each step a Poisson count independent of the others, and uniform owners
split an immigration count into independent Poisson counts per path, so
neither changes the law; nor does the order of a firing's draws, whose
families are independent. A fixed Generator state thus reproduces paths
bit-for-bit; the spawned SFC64 substreams of block-parallel runs come from
:func:`block_generator`.

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
# Generator.poisson refuses a mean above int64 max - 10 sqrt(int64 max), but
# numpy describes no float64 array of 2**60 or more elements: a candidate
# count at 2**59 still sizes its owners, marks and jump sizes
_POISSON_MAX = 2.0 ** 59


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


def _add_rows(rows, owners, sizes):
    """Add sizes, one (count, d) row per jump, to the d rows of paths of a
    block at owners: coordinate by coordinate, each in draw order, so that
    every element sees the additions of an (n, d) array in the same order.
    np.add.at takes a 1-d row about three times faster than a 2-d array."""
    for row, column in zip(rows, sizes.T):
        np.add.at(row, owners, column)


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
    sub-cutoff immigration jumps is added to it here. Every type j thins by
    one rule: with top = max_{s,i} X_sij^+, the largest bound over the
    states s and paths i, its candidates arrive on the clock rate_j * dt *
    n * top, each takes a uniform owner i and a mark u uniform on [0, top),
    and state s accepts it when u < X_sij^+. A block (k = 1) draws sizes for
    its accepted candidates only, a stack for every candidate, each added to
    the states that accept it; a single path is a block of one, which keeps
    every candidate. The clock draws n * top * rate_j * dt candidates per
    step against sum_i X_ij^+ * rate_j * dt accepted in a block, so a block
    in which one path carries the bound pays n candidates per accepted one.
    That is the rule's slow regime: one path at 450 on S4 (beta = 0, no nu)
    among 16 383 at 0 keeps about 1.6 of 26 000 candidates a step, and took
    0.15-0.25 s of CPU per block, against 0.09-0.13 s when a prefix sum of
    the bounds placed only the kept ones. No scenario comes near it.

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
    process run on the clock above, rate_j * dt * n * top per step.
    Immigration is one more such process, on the clock n * rate_nu * dt per
    step: every path has bound 1, and every candidate is kept, with a
    uniform owner, and added to every state of the stack.
    The kernel carries each clock's exponential gap g, the clock time left
    to its process's next point: a step whose clock increment l is at most
    g takes l off the gap and draws nothing; otherwise it has 1 +
    Poisson(l - g) candidates and g is redrawn. Given the past, g is Exp(1),
    so a step's count is Poisson(l), independent of every other step and
    variate (the modified next reaction method of Anderson, J. Chem. Phys.
    127, 2007), however the clock's rate moves.

    Randomness is consumed in this order: at the start of the call the gaps
    of the types with simulated branching mass, in type order, and then
    immigration's; per chunk of at most _CHUNK_VALUES normals the Gaussian
    increments; per step, immigration first and then each type, and only
    for one that fires, in one order for every clock: its Poisson count
    and its new gap; the owners, none for n = 1 and uniform otherwise; for
    a type, the marks; and the sizes of the kept candidates, in one
    sample_parts call.
    The marks are drawn whether or not jumps are recorded, and the log
    keeps each accepted branching jump with its mark.

    The state has two representations; the draws, the jumps and the event
    log above are the same code for both. A single path (k * n = 1) is a
    list of d Python floats advanced by the step :func:`_float_step`
    generates for d: a numpy call on a length-d row costs more than the
    step's whole arithmetic, so this lane makes none per step; it collects
    a chunk's states in one flat list. Otherwise buffers are allocated once
    per call and the stack is held coordinate-major, as k * d rows of n
    paths (row s * d + i is coordinate i of state s), so that every
    coordinate and every type's thinning bound is one contiguous row. The
    drift, the diffusion and the jumps are added in place: step i of a chunk
    writes plane i of one of two (chunk, k * d, n) buffers, used
    alternately, so a chunk's first step reads the other buffer's last
    plane and no state is copied. A refreshed state's drift increment
    dt D X^+ + dt beta is kept until its next refresh; it is one (d, d) @
    (d, n) matmul per state, bitwise the row-major product of the (n, d)
    states with dt D^T, and for d = 1 one multiplication, the float a
    one-term dot product gives, with no BLAS call per step. The normals are
    drawn and scaled as (chunk, n, d), path-major as in the float lane, and
    each step reads its normals as a transposed (d, n) view; a block adds
    jump sizes one coordinate row at a time and a stack through its (k, n,
    d) view, each in draw order. The two lanes differ only in the rounding
    of the drift's dot product.

    observe(first, states), when given, is the only output of the states:
    it sees step 0 as states of shape (1, k, n, d), then each chunk of m
    steps as (m, k, n, d), the grid points first, ..., first + m - 1 (for
    an array stack, a transposed view of the coordinate-major buffer); a
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
    # candidates per unit of bound and step, and the index of its gap.
    # Immigration (j None) is one more clock, with bound 1 on every path:
    # its gap comes last and its candidates first in each step
    branching = [(j, parts, der.branching_rates[j] * dt)
                 for j, parts in enumerate(der.branching_parts) if parts]
    clocks = [(b, *kind) for b, kind in enumerate(branching)]
    if der.immigration_parts:
        clocks.insert(0, (len(branching), None, der.immigration_parts,
                          der.immigration_rate * dt))
    gaps = rng.exponential(size=len(clocks)).tolist() if clocks else []
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
        # the stack as k * d rows of n paths. beta_dt and sig are spelled out
        # to the full shape, because broadcasting d values runs numpy's inner
        # loop over a few elements at a time, ten times slower
        beta_dt = np.broadcast_to((dt * beta).transpose(0, 2, 1), (k, d, n)).copy()
        beta_dt = beta_dt.reshape(k * d, n)
        if use_diffusion:
            sig = np.broadcast_to(sig, (n, d)).copy()
        X = np.array(np.transpose(X, (0, 2, 1)), dtype=float, order="C").reshape(k * d, n)
        buffers = [np.empty((chunk, k * d, n)) for _ in range(2)]
        Xp = np.empty_like(X)
        Xp3 = Xp.reshape(k, d, n)
        drift = np.empty_like(X)
        # dt D, against which a stack of (d, n) left endpoints is one matmul
        drift_rows = dt * der.drift_matrix
        # a zero array and same-shape operands skip numpy's scalar conversion
        # and broadcasting set-up, which dominate an operation on few paths
        zero = np.zeros_like(X)
        root = np.empty_like(X)
        if use_diffusion:
            noise = np.empty_like(X)
            # the stack's states share each step's normals
            root_k, noise_k = root.reshape(k, d, n), noise.reshape(k, d, n)
        # per step modulo the first period, the rows from which the
        # left-endpoint copies are retaken: each period being a multiple of
        # the next, the states due are the last ones (all when every period
        # is 1). They are also the rows that clamp at the end of the step
        # before. Each comes with the views of the fixed buffers it writes,
        # the left endpoints and the drift also as (states, d, n) stacks.
        refresh = []
        for r in range(periods[0]):
            lo = d * sum(r % q != 0 for q in periods)
            refresh.append((lo, Xp[lo:], zero[lo:], drift[lo:], beta_dt[lo:], root[lo:],
                            Xp[lo:].reshape(-1, d, n), drift[lo:].reshape(-1, d, n)))

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
            # the array lane reads each step's normals as a (d, n) view
            zrows = zc.reshape(m, d).tolist() if floats else zc.transpose(0, 2, 1)

        for i in range(m):
            step = first + i
            if floats:
                # the bounds of all types are the left-endpoint floats
                x, bounds = advance(x, zrows[i])
            else:
                lo, xp, zr, dr, bt, rt, xp3, dr3 = refresh[step % periods[0]]
                np.maximum(X[lo:], zr, out=xp)
                if d == 1:
                    np.multiply(xp, drift_dt[0, 0], out=dr)
                else:
                    np.matmul(drift_rows, xp3, out=dr3)
                dr += bt
                if use_diffusion:
                    np.sqrt(xp, out=rt)
                X_new = rows[i]
                np.add(drift, X, out=X_new)
                if use_diffusion:
                    np.multiply(root_k, zrows[i], out=noise_k)
                    X_new += noise
                # a stack takes its jumps in one np.add.at on its (k, n, d) view
                stack = None if k == 1 else X_new.reshape(k, d, n).transpose(0, 2, 1)

            # the gap test stays inline: a per-step helper call for it made
            # a single S3 path about a fifth slower
            for b, j, parts, rate_dt in clocks:
                # the clock increment is the expected candidates of the step,
                # n * top * rate * dt, top the largest bound over every path
                # and state: 1 for immigration, and the float lane's one
                # bound for a type
                top = 1.0 if j is None else bounds[j] if floats else float(Xp3[:, j].max())
                clock = n * top * rate_dt
                gap = gaps[b]
                if gap >= clock:
                    gaps[b] = gap - clock
                    continue
                if not clock - gap < _POISSON_MAX:
                    raise OverflowError("immigration rate overflowed" if j is None
                                        else "branching candidate rate overflowed")
                total = 1 + int(rng.poisson(clock - gap))
                gaps[b] = rng.exponential()
                # one draw order for every clock: owners, marks, sizes. One
                # path draws no owners: integers(0, 1, total) would draw
                # nothing, at 10-20 times the cost of np.zeros
                owners = np.zeros(total, np.intp) if n == 1 else rng.integers(0, n, total)
                marks = None
                if j is not None:
                    marks = rng.random(total) * top
                    if k == 1 and n > 1:
                        # a block keeps a candidate whose mark is below its
                        # owner's bound; only the kept ones draw sizes
                        kept_at = (marks < Xp[j][owners]).nonzero()[0]
                        if not kept_at.size:
                            continue
                        owners, marks = owners[kept_at], marks[kept_at]
                sizes = sample_parts(parts, owners.size, rng)
                if floats:
                    _add_floats(x, sizes)
                elif k == 1:
                    _add_rows(X_new, owners, sizes)
                elif j is None:
                    # to every state of the stack, each in draw order
                    np.add.at(stack, (slice(None), owners), sizes)
                else:
                    # nonzero lists the acceptances state by state
                    s, c = (marks < Xp3[:, j, owners]).nonzero()
                    np.add.at(stack, (s, owners[c]), sizes[c])
                if events is not None:
                    _log(events, (step + 1) * dt, "immigration" if j is None else "branching",
                         j, owners, sizes, marks)

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
                    else rows[:m].reshape(m, k, d, n).transpose(0, 1, 3, 2))

    X = np.array(x).reshape(1, 1, d) if floats else X.reshape(k, d, n).transpose(0, 2, 1)
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
    max(X_j^+, X'_j^+) and a uniform mark u on [0, that bound); a candidate is
    accepted for a path exactly when u lies below that path's left-endpoint
    state, so the accepted sets are nested whenever the states are ordered and
    a state at zero accepts none. Immigration
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
    beta_prime = check_state("beta_prime", beta_prime, p.d)
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
