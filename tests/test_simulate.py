"""Path simulation: exactness, positivity, reproducibility, coupling."""

import math

import numpy as np
import pytest

from cbi.errors import InvalidConfig, PreconditionViolated
from cbi.measures import ALL, DiscreteAtoms, MeasureSum, TemperedPowerLawAxis, above
from cbi.moments import mean
from cbi.params import AdmissibleParams, derive
from cbi.simulate import (
    _CHUNK_VALUES, COMPARISON_SLACK, CoupledStats, SimConfig, _euler, block_generator,
    simulate_block, simulate_coupled, simulate_coupled_block, simulate_path,
)


def make(d=1, c=(0.0,), beta=(0.0,), B=((0.0,),), nu=None, mu=None):
    mu = mu if mu is not None else (None,) * d
    return AdmissibleParams(d=d, c=list(c), beta=list(beta),
                            B=[list(r) for r in B], nu=nu, mu=mu)


class TestConfig:
    def test_horizon_must_be_grid_multiple(self):
        with pytest.raises(InvalidConfig):
            SimConfig(T=1.0, dt=0.3).n_steps
        assert SimConfig(T=1.0, dt=2.0 ** -6).n_steps == 64

    def test_invalid_values(self):
        with pytest.raises(InvalidConfig):
            SimConfig(T=0.0, dt=0.1)
        with pytest.raises(InvalidConfig):
            SimConfig(T=1.0, dt=0.1, eps_trunc=0.0)
        with pytest.raises(InvalidConfig):
            SimConfig(T=1.0, dt=0.1, positivity_mode="projective")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_and_step(self, bad):
        with pytest.raises(InvalidConfig):
            SimConfig(T=bad, dt=0.1)
        with pytest.raises(InvalidConfig):
            SimConfig(T=1.0, dt=bad)

    @pytest.mark.parametrize("seed, index", [
        (-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64), (2 ** 70, 3)])
    def test_generator_key_out_of_range(self, seed, index):
        with pytest.raises(InvalidConfig):
            block_generator(seed, index)

    def test_generator_key_edges(self):
        top = 2 ** 64 - 1
        assert block_generator(top, top).random() != block_generator(0, 0).random()


class TestNonFiniteStates:
    """A non-finite initial state fails before the generator is touched."""

    def instance(self):
        mu = DiscreteAtoms(2, [(np.array([0.3, 0.1]), 1.5)])
        nu = DiscreteAtoms(2, [(np.array([0.2, 0.2]), 0.7)])
        return make(d=2, c=(0.3, 0.3), beta=(0.2, 0.1),
                    B=((-1.0, 0.2), (0.1, -0.8)), nu=nu, mu=(mu, mu))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_before_any_draw(self, bad):
        p = self.instance()
        der = derive(p)
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        good = np.array([[1.0, 0.5], [2.0, 1.0]])
        worse = good.copy()
        worse[1, 0] = bad
        rng = block_generator(109, 0)
        before = repr(rng.bit_generator.state)
        calls = [
            lambda: simulate_path(p, der, worse[1], cfg, rng),
            lambda: simulate_block(p, der, worse, cfg, rng),
            lambda: simulate_coupled_block(p, der, p.beta, worse, good + 1.0, cfg, rng),
            lambda: simulate_coupled_block(p, der, p.beta, good, worse, cfg, rng),
        ]
        for call in calls:
            with pytest.raises(PreconditionViolated, match="finite"):
                call()
            assert repr(rng.bit_generator.state) == before


class TestDeterministicLimits:
    def test_constant_drift_is_exact(self):
        p = make(beta=(1.0,))
        cfg = SimConfig(T=1.0, dt=2.0 ** -5)
        path = simulate_path(p, derive(p), [0.5], cfg, block_generator(1, 0))
        want = 0.5 + path.grid
        assert np.max(np.abs(path.states[:, 0] - want)) <= 1e-12

    def test_no_dynamics_constant_path(self):
        p = make()
        cfg = SimConfig(T=1.0, dt=2.0 ** -4)
        path = simulate_path(p, derive(p), [0.7], cfg, block_generator(2, 0))
        assert np.all(path.states == 0.7)

    def test_coupled_linear_difference_recursion(self):
        # no noise at all: the coupled difference obeys an exact affine recursion
        p = make(d=2, c=(0.0, 0.0), beta=(0.1, 0.2),
                 B=((-0.5, 0.2), (0.3, -0.8)), mu=(None, None))
        der = derive(p)
        cfg = SimConfig(T=1.0, dt=2.0 ** -6)
        shift = np.array([0.3, 0.5])
        _, _, stats, full = simulate_coupled_block(
            p, der, p.beta + shift, [[1.0, 1.0]], [[1.0, 1.0]], cfg,
            block_generator(3, 0), keep_full=True)
        diff = full[1][:, 0, :] - full[0][:, 0, :]
        expect = np.zeros(2)
        M = np.eye(2) + der.drift_matrix * cfg.dt
        for k in range(cfg.n_steps + 1):
            assert np.allclose(diff[k], expect, rtol=1e-12, atol=1e-12)
            expect = M @ expect + shift * cfg.dt
        assert stats.violations == 0
        assert np.all(diff >= 0.0)


class TestJumpScheme:
    def test_pure_branching_martingale_mean(self):
        # unit-size branching atoms: B_tilde = 0, the mean is conserved
        kappa = 0.8
        mu = DiscreteAtoms(1, [(np.array([1.0]), kappa)])
        p = make(mu=(mu,))
        der = derive(p)
        assert der.B_tilde[0, 0] == 0.0
        cfg = SimConfig(T=1.0, dt=2.0 ** -7)
        n = 40_000
        final, _, _, _ = simulate_block(p, der, np.full((n, 1), 1.0), cfg,
                                        block_generator(11, 0))
        est = final[:, 0].mean()
        se = final[:, 0].std(ddof=1) / math.sqrt(n)
        want = mean(p, der, [1.0], 1.0)[0]
        assert want == 1.0
        assert abs(est - want) <= 3.0 * se

    def test_branching_with_drift_mean_matches_formula(self):
        mu = DiscreteAtoms(1, [(np.array([0.5]), 0.6), (np.array([2.0]), 0.3)])
        nu = DiscreteAtoms(1, [(np.array([0.8]), 0.5)])
        p = make(c=(0.0,), beta=(0.2,), B=((-0.9,),), nu=nu, mu=(mu,))
        der = derive(p)
        cfg = SimConfig(T=1.0, dt=2.0 ** -8)
        n = 60_000
        final, _, _, _ = simulate_block(p, der, np.full((n, 1), 1.5), cfg,
                                        block_generator(17, 0))
        est = final[:, 0].mean()
        se = final[:, 0].std(ddof=1) / math.sqrt(n)
        want = mean(p, der, [1.5], 1.0)[0]
        assert abs(est - want) <= 3.0 * se + 2.0 * cfg.dt

    def test_clamp_mode_nonnegative(self):
        p = make(c=(1.5,), beta=(0.05,), B=((-2.0,),))
        cfg = SimConfig(T=1.0, dt=2.0 ** -6, positivity_mode="clamp")
        _, full, _, _ = simulate_block(p, derive(p), np.full((500, 1), 0.02), cfg,
                                       block_generator(23, 0), keep_full=True)
        assert np.all(full >= 0.0)

    def test_truncated_jump_sizes_respect_cutoff(self):
        mu = TemperedPowerLawAxis(1, 0, alpha=0.7, theta=1.0, scale=0.5)
        p = make(mu=(mu,))
        cfg = SimConfig(T=1.0, dt=2.0 ** -6, eps_trunc=0.05, record_jumps=True)
        der = derive(p, eps_trunc=0.05)
        path = simulate_path(p, der, [2.0], cfg, block_generator(29, 0))
        assert path.jumps  # jump activity is near-certain at this rate
        for ev in path.jumps:
            assert np.linalg.norm(ev.size) >= 0.05
            assert ev.kind == "branching" and ev.u is not None and ev.u >= 0.0

    def test_bit_reproducible(self):
        mu = DiscreteAtoms(2, [(np.array([0.4, 0.2]), 0.5)])
        nu = DiscreteAtoms(2, [(np.array([0.3, 0.0]), 0.4)])
        p = make(d=2, c=(0.6, 0.4), beta=(0.2, 0.1),
                 B=((-1.0, 0.2), (0.1, -0.8)), nu=nu, mu=(mu, mu))
        der = derive(p)
        cfg = SimConfig(T=0.5, dt=2.0 ** -6)
        a = simulate_path(p, der, [1.0, 0.5], cfg, block_generator(31, 7))
        b = simulate_path(p, der, [1.0, 0.5], cfg, block_generator(31, 7))
        assert np.array_equal(a.states, b.states)
        c = simulate_path(p, der, [1.0, 0.5], cfg, block_generator(31, 8))
        assert not np.array_equal(a.states, c.states)


class TestMixtureJumps:
    def test_finite_and_tempered_leaves(self):
        # the atoms are simulated whole, sub-cutoff atom included; the
        # tempered leaf only above the cutoff; each leaf owns its mass share
        eps = 0.05
        atoms = DiscreteAtoms(1, [(np.array([0.01]), 1.0), (np.array([0.3]), 1.5)])
        tempered = TemperedPowerLawAxis(1, 0, alpha=0.7, theta=1.0, scale=0.5)
        mix = MeasureSum([atoms, tempered])
        p = make(beta=(0.5,), B=((-1.0,),), nu=mix, mu=(mix,))
        cfg = SimConfig(T=1.0, dt=2.0 ** -6, eps_trunc=eps, record_jumps=True)
        _, _, _, events = simulate_block(p, derive(p, eps_trunc=eps),
                                         np.ones((200, 1)), cfg, block_generator(37, 0))
        sizes = np.array([ev.size[0] for evs in events for ev in evs])
        from_atoms = np.isin(sizes, [0.01, 0.3])
        assert np.all(sizes[~from_atoms] >= eps)
        assert np.any(sizes == 0.01)
        share = atoms.mass(ALL) / (atoms.mass(ALL) + tempered.mass(above(eps)))
        n = len(sizes)
        assert abs(from_atoms.mean() - share) <= 4.0 * math.sqrt(share * (1 - share) / n)


class TestCoupling:
    def coupled_instance(self):
        mu1 = DiscreteAtoms(2, [(np.array([0.6, 0.3]), 0.5)])
        mu2 = DiscreteAtoms(2, [(np.array([0.2, 1.1]), 0.4)])
        nu = DiscreteAtoms(2, [(np.array([0.5, 0.5]), 0.4)])
        return make(d=2, c=(0.1, 0.1), beta=(0.3, 0.2),
                    B=((-1.2, 0.4), (0.3, -1.0)), nu=nu, mu=(mu1, mu2))

    def test_identical_inputs_identical_paths(self):
        p = self.coupled_instance()
        der = derive(p)
        cfg = SimConfig(T=0.5, dt=2.0 ** -7)
        a, b = simulate_coupled(p, der, p.beta, [1.0, 0.5], [1.0, 0.5], cfg,
                                block_generator(37, 0))
        assert np.array_equal(a.states, b.states)

    def test_ordering_preconditions(self):
        p = self.coupled_instance()
        der = derive(p)
        cfg = SimConfig(T=0.5, dt=2.0 ** -6)
        with pytest.raises(PreconditionViolated):
            simulate_coupled(p, der, p.beta - 0.1, [1.0, 0.5], [1.0, 0.5], cfg,
                             block_generator(41, 0))
        with pytest.raises(PreconditionViolated):
            simulate_coupled(p, der, p.beta, [1.0, 0.5], [0.5, 0.5], cfg,
                             block_generator(41, 0))

    def test_pure_jump_coupling_has_no_violations(self):
        p = self.coupled_instance()
        p = AdmissibleParams(d=2, c=[0.0, 0.0], beta=p.beta, B=p.B, nu=p.nu, mu=p.mu)
        der = derive(p)
        cfg = SimConfig(T=1.0, dt=2.0 ** -7)
        _, _, stats, _ = simulate_coupled_block(
            p, der, p.beta + np.array([1.0, 1.0]),
            np.tile([1.0, 0.5], (2000, 1)), np.tile([1.0, 0.5], (2000, 1)),
            cfg, block_generator(43, 0))
        assert stats.violations == 0
        assert stats.worst == 0.0

    def test_violation_counter_detects_diffusive_crossings(self):
        # near-zero states on a coarse grid: shared-noise Euler steps do cross
        p = make(c=(2.0,), beta=(0.0,), B=((0.0,),))
        der = derive(p)
        cfg = SimConfig(T=1.0, dt=2.0 ** -4)
        x0 = np.full((4000, 1), 0.02)
        _, _, stats, _ = simulate_coupled_block(
            p, der, p.beta, x0, x0 + 1e-6, cfg, block_generator(55, 0))
        assert stats.violations > 0
        assert stats.worst > 1e-12

    def test_diffusive_coupling_rare_violations_and_ordered_means(self):
        p = self.coupled_instance()
        der = derive(p)
        cfg = SimConfig(T=1.0, dt=2.0 ** -8)
        _, _, stats, _ = simulate_coupled_block(
            p, der, p.beta + np.array([1.0, 1.0]),
            np.tile([1.0, 0.5], (2000, 1)), np.tile([1.0, 0.5], (2000, 1)),
            cfg, block_generator(47, 0))
        assert stats.violations / stats.triples <= 0.01
        mean_diff = stats.diff_sum / stats.n_paths
        var = stats.diff_sq_sum / stats.n_paths - mean_diff ** 2
        se = np.sqrt(np.maximum(var, 0.0) / stats.n_paths)
        assert np.all(mean_diff >= -3.0 * se)


def reference_record(stats, step, diff):
    """CoupledStats.record written with temporaries and plain reductions."""
    gap = np.minimum(diff, 0.0)
    stats.violations += int(np.count_nonzero(diff < -COMPARISON_SLACK))
    stats.triples += diff.size
    worst = float(-gap.min()) if gap.size else 0.0
    stats.worst = max(stats.worst, worst)
    stats.diff_sum[step] += diff.sum(axis=0)
    stats.diff_sq_sum[step] += (diff ** 2).sum(axis=0)


def empty_stats(n, steps, d):
    return CoupledStats(n_paths=n, diff_sum=np.zeros((steps, d)),
                        diff_sq_sum=np.zeros((steps, d)))


def assert_same_stats(a, b):
    assert (a.violations, a.triples, a.worst) == (b.violations, b.triples, b.worst)
    assert np.array_equal(a.diff_sum, b.diff_sum)
    assert np.array_equal(a.diff_sq_sum, b.diff_sq_sum)


class TestKernelBuffers:
    """The kernel reuses its buffers; what callers get back must not alias them."""

    def instance(self):
        mu = DiscreteAtoms(2, [(np.array([0.3, 0.1]), 1.5)])
        nu = DiscreteAtoms(2, [(np.array([0.2, 0.2]), 0.7)])
        return make(d=2, c=(0.3, 0.3), beta=(0.2, 0.1),
                    B=((-1.0, 0.2), (0.1, -0.8)), nu=nu, mu=(mu, mu))

    def test_x0_unchanged(self):
        p = self.instance()
        der = derive(p)
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        x0 = np.tile([1.0, 0.5], (50, 1))
        x0_prime = x0 + 0.1
        kept, kept_prime = x0.copy(), x0_prime.copy()
        simulate_block(p, der, x0, cfg, block_generator(83, 0))
        simulate_coupled_block(p, der, p.beta + 0.5, x0, x0_prime, cfg,
                               block_generator(83, 1))
        assert np.array_equal(x0, kept)
        assert np.array_equal(x0_prime, kept_prime)

    def test_snapshots_and_full_states_are_copies(self):
        p = self.instance()
        der = derive(p)
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        x0 = np.tile([1.0, 0.5], (50, 1))
        wanted = (0, 1, 2, 7, cfg.n_steps)
        final, full, snaps, _ = simulate_block(
            p, der, x0, cfg, block_generator(89, 0), keep_full=True,
            snapshot_steps=wanted)
        assert sorted(snaps) == list(wanted)
        for step in wanted:
            assert np.array_equal(snaps[step], full[step])
        assert np.array_equal(full[-1], final)
        assert not np.array_equal(full[1], full[2])
        _, again, _, _ = simulate_block(p, der, x0, cfg, block_generator(89, 0),
                                        keep_full=True)
        snaps[1] += 1.0
        final += 1.0
        assert np.array_equal(full, again)

    def test_final_state_does_not_alias_full_states(self):
        p = self.instance()
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        final, full, _, _ = simulate_block(p, derive(p), np.tile([1.0, 0.5], (50, 1)),
                                           cfg, block_generator(91, 0), keep_full=True)
        assert np.array_equal(final, full[-1])
        assert not np.shares_memory(final, full)

    def test_path_is_row_of_one_path_block(self):
        p = self.instance()
        der = derive(p)
        # immigration alone expects 0.7 * 16 = 11.2 jumps: a path without
        # any jump has probability below e^-11.2 < 2e-5 at every seed
        cfg = SimConfig(T=16.0, dt=2.0 ** -6, record_jumps=True)
        path = simulate_path(p, der, [1.0, 0.5], cfg, block_generator(93, 0))
        final, full, _, events = simulate_block(p, der, [[1.0, 0.5]], cfg,
                                                block_generator(93, 0), keep_full=True)
        assert np.array_equal(path.states, full[:, 0])
        assert np.array_equal(path.final, final[0])
        assert path.jumps
        assert [(e.time, e.kind, e.type_index, e.u, e.size.tolist()) for e in path.jumps] \
            == [(e.time, e.kind, e.type_index, e.u, e.size.tolist()) for e in events[0]]

    def test_coupled_full_states_are_copies(self):
        # the statistics rebuilt from the kept states match the recorded ones
        # only if every kept step holds its own values
        p = self.instance()
        der = derive(p)
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        x0 = np.tile([1.0, 0.5], (50, 1))
        a, b, stats, full = simulate_coupled_block(
            p, der, p.beta + 0.5, x0, x0 + 0.1, cfg, block_generator(97, 0),
            keep_full=True)
        assert np.array_equal(full[0, -1], a) and np.array_equal(full[1, -1], b)
        rebuilt = empty_stats(50, cfg.n_steps + 1, 2)
        for step in range(cfg.n_steps + 1):
            reference_record(rebuilt, step, full[1, step] - full[0, step])
        assert_same_stats(stats, rebuilt)


class TestCoupledStatsRecord:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 9, 1000, 16384])
    def test_matches_reference(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        steps = 6
        got, want = empty_stats(n, steps, d), empty_stats(n, steps, d)
        for step in range(steps):
            for _ in range(2):
                scale = 10.0 ** rng.uniform(-14, 3, (n, 1))
                diff = rng.standard_normal((n, d)) * scale
                if step == 0:
                    diff = np.abs(diff)       # no violation at all
                elif step == 1:
                    diff[::2] = 0.0           # zeros and tiny negatives
                    diff[1::3] = -COMPARISON_SLACK / 2
                got.record(step, diff)
                reference_record(want, step, diff)
        assert_same_stats(got, want)


# jumps this small leave states of order one unchanged, so every step of a
# run draws its counts from the same intensities
TINY = 1e-200


def _run_stack(p, states, cfg, rng):
    """Kernel run of one block from the given (possibly raw-negative) states."""
    X = np.asarray(states, dtype=float)[None, :, None]
    return _euler(p, derive(p, cfg.eps_trunc), X, p.beta[None, None, :], cfg, rng,
                  lambda step, stack: None)


def _counts_per_step(events, kind, n_steps, dt):
    counts = np.zeros((n_steps, len(events)), dtype=int)
    for owner, evs in enumerate(events):
        for ev in evs:
            if ev.kind == kind:
                counts[round(ev.time / dt) - 1, owner] += 1
    return counts


class TestSuperposedCounts:
    def test_branching_counts_are_independent_poisson(self):
        states = np.array([0.0, 1.0, -0.5, 2.0, 0.0, 0.3, -1e-3, 1.5, 0.05])
        rate = 4.0
        p = make(mu=(DiscreteAtoms(1, [(np.array([TINY]), rate)]),))
        cfg = SimConfig(T=500.0, dt=0.125, record_jumps=True)
        final, events = _run_stack(p, states, cfg, block_generator(61, 0))
        assert np.array_equal(final[0, :, 0], states)
        counts = _counts_per_step(events, "branching", cfg.n_steps, cfg.dt)
        lam = np.maximum(states, 0.0) * rate * cfg.dt
        steps = cfg.n_steps
        assert np.all(counts[:, lam == 0.0] == 0)
        live = lam > 0.0
        mean, var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
        assert np.all(np.abs(mean - lam)[live] <= 4.0 * np.sqrt(lam[live] / steps))
        var_se = np.sqrt((lam + 2.0 * lam ** 2) / steps)
        assert np.all(np.abs(var - lam)[live] <= 4.0 * var_se[live])
        # independent counts, not a fixed total split among the paths
        corr = np.corrcoef(counts[:, live], rowvar=False)
        off = corr[~np.eye(len(corr), dtype=bool)]
        assert np.all(np.abs(off) <= 4.0 / math.sqrt(steps))

    def test_immigration_owners_uniform(self):
        n, rate = 10, 3.0
        p = make(nu=DiscreteAtoms(1, [(np.array([TINY]), rate)]))
        cfg = SimConfig(T=300.0, dt=0.125, record_jumps=True)
        _, events = _run_stack(p, np.ones(n), cfg, block_generator(67, 0))
        counts = _counts_per_step(events, "immigration", cfg.n_steps, cfg.dt)
        lam = rate * cfg.dt
        assert np.all(np.abs(counts.mean(axis=0) - lam)
                      <= 4.0 * math.sqrt(lam / cfg.n_steps))
        totals = counts.sum(axis=0)
        expect = totals.sum() / n
        chi2 = float(((totals - expect) ** 2 / expect).sum())
        assert chi2 <= (n - 1) + 4.0 * math.sqrt(2.0 * (n - 1))

    def test_uniform_on_the_total_goes_to_a_positive_path(self):
        class TopUniform:
            """Three candidates whose owner uniforms all land on the total."""

            def __init__(self, rng):
                self._rng = rng

            def exponential(self, scale=1.0, size=None):
                return np.zeros(size) if size is not None else 0.0

            def poisson(self, lam):
                return 2

            def uniform(self, low, high, size=None):
                return np.broadcast_to(np.asarray(high, dtype=float),
                                       np.shape(high) if size is None else size).copy()

            def __getattr__(self, item):
                return getattr(self._rng, item)

        p = make(mu=(DiscreteAtoms(1, [(np.array([TINY]), 2.0)]),))
        cfg = SimConfig(T=0.125, dt=0.125, record_jumps=True)
        _, events = _run_stack(p, [1.0, 0.0, 2.0, -0.5, 0.0], cfg,
                               TopUniform(block_generator(71, 0)))
        assert [len(evs) for evs in events] == [0, 0, 3, 0, 0]


class CountingGenerator:
    """Generator proxy that logs every poisson and exponential call in order:
    (method, ndim of the parameter, size, mean or drawn gaps)."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def poisson(self, lam=1.0, size=None):
        self.calls.append(("poisson", np.ndim(lam), size, lam))
        return self._rng.poisson(lam, size)

    def exponential(self, scale=1.0, size=None):
        gaps = self._rng.exponential(scale, size)
        self.calls.append(("exponential", np.ndim(scale), size, gaps))
        return gaps

    def __getattr__(self, item):
        return getattr(self._rng, item)


class TestPoissonCallGuard:
    """One Exp(1) gap per branching type at the start (here only type 1);
    then one scalar Poisson total per chunk for immigration, and one scalar
    Poisson exactly on each step whose clock increment passes the carried
    gap, followed by the new gap. Never an array-valued Poisson draw."""

    T, DT = 0.25, 2.0 ** -6   # 16 steps

    def instance(self):
        mu = DiscreteAtoms(2, [(np.array([0.3, 0.1]), 1.5)])
        nu = DiscreteAtoms(2, [(np.array([0.2, 0.2]), 0.7)])
        return make(d=2, c=(0.3, 0.3), beta=(0.2, 0.1),
                    B=((-1.0, 0.2), (0.1, -0.8)), nu=nu, mu=(mu, None))

    # the steps of each chunk, _CHUNK_VALUES // (n * d) capped at the 16
    # steps: one chunk up to n = 1024, ten-step chunks at n = 1500, one step
    # per chunk once n * d reaches 2 ** 15
    CHUNKS = {1: [16], 7: [16], 300: [16], 1500: [10, 6], 20000: [1] * 16}

    def check(self, rng, p, n, stacks):
        """Replay the gaps the kernel drew against the kept (k, n, d) stacks."""
        chunks = self.CHUNKS[n]
        assert sum(chunks) == round(self.T / self.DT)
        assert max(1, min(16, _CHUNK_VALUES // (2 * n))) == chunks[0]
        der = derive(p)
        rate_dt = der.branching_rates[0] * self.DT
        drawn = [v for name, _, _, v in rng.calls if name == "exponential"]
        gap = float(drawn.pop(0)[0])
        want = [("exponential", 0, 1)]
        want_means = []
        step = 0
        for m in chunks:
            want.append(("poisson", 0, None))
            want_means.append(n * der.immigration_rate * self.DT * m)
            for _ in range(m):
                bound = np.maximum(stacks[step, :, :, 0].max(axis=0), 0.0)
                clock = float(np.cumsum(bound)[-1]) * rate_dt
                if gap >= clock:
                    gap -= clock
                else:
                    want += [("poisson", 0, None), ("exponential", 0, None)]
                    want_means.append(clock - gap)
                    gap = drawn.pop(0)
                step += 1
        assert [call[:3] for call in rng.calls] == want
        assert [lam for name, _, _, lam in rng.calls if name == "poisson"] \
            == pytest.approx(want_means, rel=1e-12)
        assert not drawn

    @pytest.mark.parametrize("n", [1, 7, 300, 1500, 20000])
    def test_block(self, n):
        p = self.instance()
        cfg = SimConfig(T=self.T, dt=self.DT)
        rng = CountingGenerator(block_generator(73, n))
        _, full, _, _ = simulate_block(p, derive(p), np.tile([1.0, 0.5], (n, 1)), cfg,
                                       rng, keep_full=True)
        self.check(rng, p, n, full[:, None])

    @pytest.mark.parametrize("n", [1, 300, 1500, 20000])
    def test_coupled_block(self, n):
        p = self.instance()
        cfg = SimConfig(T=self.T, dt=self.DT)
        rng = CountingGenerator(block_generator(79, n))
        x0 = np.tile([1.0, 0.5], (n, 1))
        _, _, _, full = simulate_coupled_block(p, derive(p), p.beta + 0.5, x0, x0 + 0.1,
                                               cfg, rng, keep_full=True)
        self.check(rng, p, n, np.moveaxis(full, 0, 1))


class TestThinningMarks:
    @pytest.mark.parametrize("bound", [
        [0.0], [1.5], [0.0, 2.0, 0.0, 3e-300, 7.5, 7.5],
        np.linspace(0.0, 4.0, 1000), np.zeros(64)])
    def test_scaled_uniforms_are_array_uniforms(self, bound):
        # uniform(0, high) is 0 + high * u from the same double: the kernel's
        # cheaper random(n) * high gives the same marks and generator state
        bound = np.asarray(bound, dtype=float)
        a, b = block_generator(113, 0), block_generator(113, 0)
        want = a.uniform(0.0, bound)
        got = b.random(bound.size) * bound
        assert np.array_equal(got, want)
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


class ZeroGaps:
    """Generator proxy whose every gap is exactly 0, so a branching type
    fires on every step with a positive clock increment."""

    def __init__(self, rng):
        self._rng = rng
        self.poisson_calls = 0

    def exponential(self, scale=1.0, size=None):
        return np.zeros(size) if size is not None else 0.0

    def poisson(self, lam=1.0, size=None):
        self.poisson_calls += 1
        return self._rng.poisson(lam, size)

    def __getattr__(self, item):
        return getattr(self._rng, item)


def _branching_counts(events, n_steps, dt, d):
    """(n_steps, d) branching events per step and type, over all paths."""
    counts = np.zeros((n_steps, d), dtype=int)
    for evs in events:
        for ev in evs:
            counts[round(ev.time / dt) - 1, ev.type_index] += 1
    return counts


class TestCarriedGaps:
    def tiny_types(self, rate):
        # tiny own-axis jumps at rate per unit state on both types
        mu = tuple(DiscreteAtoms(2, [(np.eye(2)[j] * TINY, rate)]) for j in range(2))
        return make(d=2, c=(0.0, 0.0), beta=(0.0, 0.0), B=((0.0, 0.0), (0.0, 0.0)),
                    mu=mu)

    def test_single_path_counts_iid_poisson(self):
        # one path, two types with clock increments 0.75 and 0.05 per step
        rate, dt = 4.0, 0.125
        state = np.array([1.5, 0.1])
        p = self.tiny_types(rate)
        cfg = SimConfig(T=12_500.0, dt=dt, record_jumps=True)
        path = simulate_path(p, derive(p), state, cfg, block_generator(103, 0))
        assert np.array_equal(path.final, state)
        steps = cfg.n_steps
        assert steps >= 10 ** 5
        counts = _branching_counts([path.jumps], steps, dt, 2)
        for lam, c in zip(state * rate * dt, counts.T):
            assert abs(c.mean() - lam) <= 4.0 * math.sqrt(lam / steps)
            var_se = math.sqrt((lam + 2.0 * lam ** 2) / steps)
            assert abs(c.var(ddof=1) - lam) <= 4.0 * var_se
            # a carried gap must not correlate consecutive steps
            r = np.corrcoef(c[:-1], c[1:])[0, 1]
            assert abs(r) <= 4.0 / math.sqrt(steps)
        r = np.corrcoef(counts[:, 0], counts[:, 1])[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(steps)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("states", [
        [[1.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0], [-0.5, -1e-3], [2.0, 0.0], [0.0, 0.0]],
    ])
    def test_zero_gap_never_fires_zero_bound(self, k, states):
        # type 2 has zero bound everywhere, paths 2, 3 and 5 on type 1 too:
        # a gap of exactly 0 must fire neither, and fires type 1 every step
        p = self.tiny_types(2.0)
        cfg = SimConfig(T=2.0, dt=0.125, record_jumps=True)
        X = np.tile(np.asarray(states, dtype=float), (k, 1, 1))
        rng = ZeroGaps(block_generator(107, k))
        final, events = _euler(p, derive(p), X, np.zeros((k, 1, 2)), cfg, rng)
        assert np.array_equal(final, X)
        assert rng.poisson_calls == cfg.n_steps
        positive = np.asarray(states)[:, 0] > 0.0
        for owner, evs in enumerate(events):
            assert all(ev.type_index == 0 for ev in evs)
            if not positive[owner]:
                assert not evs


class TestChunkedImmigration:
    def test_counts_iid_poisson_across_chunks(self):
        # unit immigration atoms and no other dynamics: each step's increment
        # of a path is its immigration count, exactly
        n, rate = 4096, 3.0
        p = make(nu=DiscreteAtoms(1, [(np.array([1.0]), rate)]))
        cfg = SimConfig(T=250 * 0.125, dt=0.125)
        m = _CHUNK_VALUES // n
        assert m == 8 and cfg.n_steps % m   # 31 whole chunks and a short one
        _, full, _, _ = simulate_block(p, derive(p), np.zeros((n, 1)), cfg,
                                       block_generator(101, 0), keep_full=True)
        counts = np.diff(full[:, :, 0], axis=0)
        assert np.array_equal(counts, np.round(counts))
        lam = rate * cfg.dt
        for pos in range(m):
            c = counts[pos::m].ravel()
            assert abs(c.mean() - lam) <= 4.0 * math.sqrt(lam / c.size)
            var_se = math.sqrt((lam + 2.0 * lam ** 2) / c.size)
            assert abs(c.var(ddof=1) - lam) <= 4.0 * var_se
        # the last step of each chunk against the first of the next, and
        # every pair of consecutive steps
        for before, after in ((counts[m - 1:-1:m], counts[m::m]),
                              (counts[:-1], counts[1:])):
            k = min(len(before), len(after))
            r = np.corrcoef(before[:k].ravel(), after[:k].ravel())[0, 1]
            assert abs(r) <= 4.0 / math.sqrt(before[:k].size)
