"""Path simulation: exactness, positivity, reproducibility, coupling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cbi.errors import InvalidConfig, PreconditionViolated
from cbi.measures import (
    ALL, DiscreteAtoms, MeasureSum, ProductExponential, TemperedPowerLawAxis, above,
)
from cbi.moments import mean
from cbi.montecarlo import COMPARISON_SLACK, CoupledStats, _estimate
from cbi.params import AdmissibleParams, derive
from cbi.scenarios import load_scenario
from cbi.simulate import (
    _CHUNK_VALUES, SimConfig, _euler, _float_step, _recorder, block_generator,
    simulate_block, simulate_coupled, simulate_coupled_block, simulate_path,
)


def make(d=1, c=(0.0,), beta=(0.0,), B=((0.0,),), nu=None, mu=None):
    mu = mu if mu is not None else (None,) * d
    return AdmissibleParams(d=d, c=list(c), beta=list(beta),
                            B=[list(r) for r in B], nu=nu, mu=mu)


def block_states(p, x0, cfg, rng):
    """simulate_block with a copy of every chunk its observer sees:
    (final, states of every grid point as (n_steps + 1, n, d), events)."""
    chunks = []
    final, events = simulate_block(
        p, x0, cfg, rng, lambda first, states: chunks.append(states.copy()))
    return final, np.concatenate(chunks), events


def coupled_states(p, beta_prime, x0, x0_prime, cfg, rng):
    """simulate_coupled_block observed by CoupledStats and by a copy of every
    chunk: (final, final_prime, stats, states as (n_steps + 1, 2, n, d))."""
    stats = CoupledStats(cfg.n_steps + 1, p.d)
    chunks = []

    def observe(first, states):
        stats(first, states)
        chunks.append(states.copy())

    a, b = simulate_coupled_block(p, beta_prime, x0, x0_prime, cfg, rng, observe)
    return a, b, stats, np.concatenate(chunks)


class TestConfig:
    def test_horizon_must_be_grid_multiple(self):
        with pytest.raises(InvalidConfig):
            SimConfig(T=1.0, dt=0.3).n_steps
        assert SimConfig(T=1.0, dt=2.0 ** -6).n_steps == 64

    def test_grid_rule(self):
        # one rule for the horizon and for every snapshot time
        cfg = SimConfig(T=1.0, dt=0.25)
        assert [cfg.steps(t) for t in (0.0, 0.25, 1.0, 2.0 + 1e-10)] == [0, 1, 4, 8]
        for t in (0.1, -0.25, 1e-12, math.nan, math.inf):
            with pytest.raises(InvalidConfig, match=f"time {t} is not a non-negative "
                                                    "integer multiple of dt = 0.25"):
                cfg.steps(t)
        with pytest.raises(InvalidConfig, match="time 1.0 is not"):
            SimConfig(T=1.0, dt=0.3).n_steps
        with pytest.raises(InvalidConfig, match="time 0.1 is not"):
            SimConfig(T=0.1, dt=0.25).n_steps

    def test_invalid_values(self):
        with pytest.raises(InvalidConfig):
            SimConfig(T=0.0, dt=0.1)
        with pytest.raises(InvalidConfig):
            SimConfig(T=1.0, dt=0.1, eps_trunc=0.0)
        with pytest.raises(InvalidConfig):
            SimConfig(T=1.0, dt=0.1, positivity_mode="projective")

    def test_grid_built_once_and_read_only(self):
        cfg = SimConfig(T=1.0, dt=0.25)
        grid = cfg.grid()
        assert grid is cfg.grid()
        assert np.array_equal(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(ValueError):
            grid[0] = 1.0
        p = make(d=1, c=(0.5,), B=((-1.0,),))
        path = simulate_path(p, [1.0], cfg, block_generator(5, 0))
        assert path.grid is grid

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

    def test_generator_is_spawned_child(self):
        # the same key gives the same stream: child k of SeedSequence(seed)
        want = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(31).spawn(8)[7])).random(5)
        assert np.array_equal(block_generator(31, 7).random(5), want)
        assert np.array_equal(block_generator(31, 7).random(5), want)

    def test_generator_keys_do_not_collide(self):
        # as list entropy these two (seed, index) pairs give one state
        a, b = (5, 7 * 2 ** 32 + 3), (3 * 2 ** 32 + 5, 7)
        assert np.array_equal(np.random.SeedSequence(list(a)).generate_state(4),
                              np.random.SeedSequence(list(b)).generate_state(4))
        assert block_generator(*a).random() != block_generator(*b).random()


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
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        good = np.array([[1.0, 0.5], [2.0, 1.0]])
        worse = good.copy()
        worse[1, 0] = bad
        rng = block_generator(109, 0)
        before = repr(rng.bit_generator.state)
        calls = [
            lambda: simulate_path(p, worse[1], cfg, rng),
            lambda: simulate_block(p, worse, cfg, rng),
            lambda: simulate_coupled_block(p, p.beta, worse, good + 1.0, cfg, rng),
            lambda: simulate_coupled_block(p, p.beta, good, worse, cfg, rng),
        ]
        for call in calls:
            with pytest.raises(PreconditionViolated, match="finite"):
                call()
            assert repr(rng.bit_generator.state) == before


class TestDeterministicLimits:
    def test_constant_drift_is_exact(self):
        p = make(beta=(1.0,))
        cfg = SimConfig(T=1.0, dt=2.0 ** -5)
        path = simulate_path(p, [0.5], cfg, block_generator(1, 0))
        want = 0.5 + path.grid
        assert np.max(np.abs(path.states[:, 0] - want)) <= 1e-12

    def test_no_dynamics_constant_path(self):
        p = make()
        cfg = SimConfig(T=1.0, dt=2.0 ** -4)
        path = simulate_path(p, [0.7], cfg, block_generator(2, 0))
        assert np.all(path.states == 0.7)

    def test_coupled_linear_difference_recursion(self):
        # no noise at all: the coupled difference obeys an exact affine recursion
        p = make(d=2, c=(0.0, 0.0), beta=(0.1, 0.2),
                 B=((-0.5, 0.2), (0.3, -0.8)), mu=(None, None))
        der = derive(p)
        cfg = SimConfig(T=1.0, dt=2.0 ** -6)
        shift = np.array([0.3, 0.5])
        _, _, stats, full = coupled_states(
            p, p.beta + shift, [[1.0, 1.0]], [[1.0, 1.0]], cfg, block_generator(3, 0))
        diff = full[:, 1, 0, :] - full[:, 0, 0, :]
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
        final, _ = simulate_block(p, np.full((n, 1), 1.0), cfg, block_generator(11, 0))
        est = final[:, 0].mean()
        se = final[:, 0].std(ddof=1) / math.sqrt(n)
        want = mean(p, [1.0], 1.0)[0]
        assert want == 1.0
        assert abs(est - want) <= 3.0 * se

    def test_branching_with_drift_mean_matches_formula(self):
        mu = DiscreteAtoms(1, [(np.array([0.5]), 0.6), (np.array([2.0]), 0.3)])
        nu = DiscreteAtoms(1, [(np.array([0.8]), 0.5)])
        p = make(c=(0.0,), beta=(0.2,), B=((-0.9,),), nu=nu, mu=(mu,))
        cfg = SimConfig(T=1.0, dt=2.0 ** -8)
        n = 60_000
        final, _ = simulate_block(p, np.full((n, 1), 1.5), cfg, block_generator(17, 0))
        est = final[:, 0].mean()
        se = final[:, 0].std(ddof=1) / math.sqrt(n)
        want = mean(p, [1.5], 1.0)[0]
        assert abs(est - want) <= 3.0 * se + 2.0 * cfg.dt

    def test_clamp_mode_nonnegative(self):
        p = make(c=(1.5,), beta=(0.05,), B=((-2.0,),))
        cfg = SimConfig(T=1.0, dt=2.0 ** -6, positivity_mode="clamp")
        _, full, _ = block_states(p, np.full((500, 1), 0.02), cfg, block_generator(23, 0))
        assert np.all(full >= 0.0)

    def test_truncated_jump_sizes_respect_cutoff(self):
        mu = TemperedPowerLawAxis(1, 0, alpha=0.7, theta=1.0, scale=0.5)
        p = make(mu=(mu,))
        cfg = SimConfig(T=1.0, dt=2.0 ** -6, eps_trunc=0.05, record_jumps=True)
        path = simulate_path(p, [2.0], cfg, block_generator(29, 0))
        assert path.jumps  # jump activity is near-certain at this rate
        for ev in path.jumps:
            assert np.linalg.norm(ev.size) >= 0.05
            assert ev.kind == "branching" and ev.u is not None and ev.u >= 0.0

    def test_block_uses_the_derivation_of_its_cutoff(self):
        # the default cutoff's derivation is cached first; a block at
        # eps_trunc = 0.05 still samples above 0.05 only
        mu = TemperedPowerLawAxis(1, 0, alpha=0.7, theta=1.0, scale=0.5)
        p = make(mu=(mu,))
        assert derive(p).eps_trunc == 1e-3
        cfg = SimConfig(T=1.0, dt=2.0 ** -6, eps_trunc=0.05, record_jumps=True)
        _, events = simulate_block(p, np.full((20, 1), 2.0), cfg, block_generator(29, 1))
        sizes = [ev.size[0] for evs in events for ev in evs]
        assert sizes and min(sizes) >= 0.05

    def test_bit_reproducible(self):
        mu = DiscreteAtoms(2, [(np.array([0.4, 0.2]), 0.5)])
        nu = DiscreteAtoms(2, [(np.array([0.3, 0.0]), 0.4)])
        p = make(d=2, c=(0.6, 0.4), beta=(0.2, 0.1),
                 B=((-1.0, 0.2), (0.1, -0.8)), nu=nu, mu=(mu, mu))
        cfg = SimConfig(T=0.5, dt=2.0 ** -6)
        a = simulate_path(p, [1.0, 0.5], cfg, block_generator(31, 7))
        b = simulate_path(p, [1.0, 0.5], cfg, block_generator(31, 7))
        assert np.array_equal(a.states, b.states)
        c = simulate_path(p, [1.0, 0.5], cfg, block_generator(31, 8))
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
        _, events = simulate_block(p, np.ones((200, 1)), cfg, block_generator(37, 0))
        sizes = np.array([ev.size[0] for evs in events for ev in evs])
        from_atoms = np.isin(sizes, [0.01, 0.3])
        assert np.all(sizes[~from_atoms] >= eps)
        assert np.any(sizes == 0.01)
        share = atoms.mass(ALL) / (atoms.mass(ALL) + tempered.mass(above(eps)))
        n = len(sizes)
        assert abs(from_atoms.mean() - share) <= 4.0 * math.sqrt(share * (1 - share) / n)

    def test_truncated_immigration_keeps_the_euler_mean(self):
        # the sub-cutoff immigration jumps enter the drift by their mean, so
        # the scheme's mean is the Euler recursion m <- (1 + dt B~) m + dt beta~
        # (the state never goes negative here); dropping them would leave the
        # mean about 0.97, some 90 standard errors, below it
        nu = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1.0)
        p = make(beta=(0.2,), B=((-0.5,),), nu=nu)
        cfg = SimConfig(T=1.0, dt=0.05, eps_trunc=0.5)
        n = 4000
        final, _ = simulate_block(p, np.ones((n, 1)), cfg, block_generator(41, 0))
        der = derive(p, cfg.eps_trunc)
        want = 1.0
        for _ in range(cfg.n_steps):
            want = (1.0 + cfg.dt * der.B_tilde[0, 0]) * want + cfg.dt * der.beta_tilde[0]
        se = final[:, 0].std(ddof=1) / math.sqrt(n)
        assert abs(final[:, 0].mean() - want) <= 4.0 * se


class TestCoupling:
    def coupled_instance(self):
        mu1 = DiscreteAtoms(2, [(np.array([0.6, 0.3]), 0.5)])
        mu2 = DiscreteAtoms(2, [(np.array([0.2, 1.1]), 0.4)])
        nu = DiscreteAtoms(2, [(np.array([0.5, 0.5]), 0.4)])
        return make(d=2, c=(0.1, 0.1), beta=(0.3, 0.2),
                    B=((-1.2, 0.4), (0.3, -1.0)), nu=nu, mu=(mu1, mu2))

    def test_identical_inputs_identical_paths(self):
        p = self.coupled_instance()
        cfg = SimConfig(T=0.5, dt=2.0 ** -7)
        a, b = simulate_coupled(p, p.beta, [1.0, 0.5], [1.0, 0.5], cfg,
                                block_generator(37, 0))
        assert np.array_equal(a.states, b.states)

    def test_ordering_preconditions(self):
        p = self.coupled_instance()
        cfg = SimConfig(T=0.5, dt=2.0 ** -6)
        with pytest.raises(PreconditionViolated):
            simulate_coupled(p, p.beta - 0.1, [1.0, 0.5], [1.0, 0.5], cfg,
                             block_generator(41, 0))
        with pytest.raises(PreconditionViolated):
            simulate_coupled(p, p.beta, [1.0, 0.5], [0.5, 0.5], cfg,
                             block_generator(41, 0))
        # a non-finite beta_prime is an input error, not an overflow
        for bad in ([math.nan, 1.0], [math.inf, 1.0]):
            with pytest.raises(PreconditionViolated, match="beta_prime must be finite"):
                simulate_coupled(p, bad, [1.0, 0.5], [1.0, 0.5], cfg,
                                 block_generator(41, 0))
        for bad in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
            with pytest.raises(InvalidConfig, match="beta_prime must have shape"):
                simulate_coupled(p, bad, [1.0, 0.5], [1.0, 0.5], cfg,
                                 block_generator(41, 0))

    @pytest.mark.parametrize("x0, x0_prime", [
        ([[0.0]], [[1.0]]),
        ([[0.0], [1.0], [0.0]], [[1.0], [1.0], [1.0]]),
    ])
    def test_zero_state_accepts_no_branching_jump(self, x0, x0_prime):
        # every gap and every mark exactly 0: candidates fire each step at
        # the top bound 1, and a state at 0, absorbing without drift or
        # immigration, takes none, also in a block whose other paths do
        class ZeroMarks(ZeroGaps):
            def random(self, size=None):
                return np.zeros(size) if size is not None else 0.0

        p = make(mu=(DiscreteAtoms(1, [(np.array([0.7]), 0.6)]),))
        cfg = SimConfig(T=1.0, dt=0.125)
        x0, x0_prime = np.array(x0), np.array(x0_prime)
        a, b = simulate_coupled_block(p, p.beta, x0, x0_prime, cfg,
                                      ZeroMarks(block_generator(53, 0)))
        assert np.all(a[x0 == 0.0] == 0.0)
        # a positive path takes each candidate it owns, in both states
        assert np.array_equal(a[x0 > 0.0], b[x0 > 0.0])
        assert np.all(b >= x0_prime) and b.sum() > x0_prime.sum()

    def test_pure_jump_coupling_has_no_violations(self):
        p = self.coupled_instance()
        p = AdmissibleParams(d=2, c=[0.0, 0.0], beta=p.beta, B=p.B, nu=p.nu, mu=p.mu)
        cfg = SimConfig(T=1.0, dt=2.0 ** -7)
        _, _, stats, _ = coupled_states(
            p, p.beta + np.array([1.0, 1.0]),
            np.tile([1.0, 0.5], (2000, 1)), np.tile([1.0, 0.5], (2000, 1)),
            cfg, block_generator(43, 0))
        assert stats.violations == 0
        assert stats.worst == 0.0

    def test_violation_counter_detects_diffusive_crossings(self):
        # near-zero states on a coarse grid: shared-noise Euler steps do cross
        p = make(c=(2.0,), beta=(0.0,), B=((0.0,),))
        cfg = SimConfig(T=1.0, dt=2.0 ** -4)
        x0 = np.full((4000, 1), 0.02)
        _, _, stats, _ = coupled_states(
            p, p.beta, x0, x0 + 1e-6, cfg, block_generator(55, 0))
        assert stats.violations > 0
        assert stats.worst > 1e-12

    def test_diffusive_coupling_rare_violations_and_ordered_means(self):
        p = self.coupled_instance()
        cfg = SimConfig(T=1.0, dt=2.0 ** -8)
        n = 2000
        _, _, stats, _ = coupled_states(
            p, p.beta + np.array([1.0, 1.0]),
            np.tile([1.0, 0.5], (n, 1)), np.tile([1.0, 0.5], (n, 1)),
            cfg, block_generator(47, 0))
        assert stats.violations / stats.triples <= 0.01
        mean_diff = stats.diff_sum / n
        var = stats.diff_sq_sum / n - mean_diff ** 2
        se = np.sqrt(np.maximum(var, 0.0) / n)
        assert np.all(mean_diff >= -3.0 * se)


class TestCoarseLevel:
    """The pair at 2 dt stacked on the pair at dt (simulate_coupled_block
    with coarse) against the pair run directly at 2 dt."""

    def instance(self):
        return TestCoupling().coupled_instance()

    @staticmethod
    def moments(finals):
        """Per state and type: the samples of X_T, X_T^2 and e^{-X_T}."""
        X = np.concatenate(finals, axis=1)          # (2, paths, d)
        return np.concatenate([X, X ** 2, np.exp(-X)], axis=2)

    def test_stacked_coarse_pair_has_the_law_of_a_direct_run(self):
        # diffusion, branching jumps and immigration; 4 steps of 2 dt = 1/4,
        # where the Euler laws at dt and 2 dt lie about 11 stderr apart
        p = self.instance()
        shift = p.beta + np.array([0.5, 0.5])
        x0 = np.tile([3.0, 2.0], (4000, 1))
        fine, coarse = SimConfig(T=1.0, dt=2.0 ** -3), SimConfig(T=1.0, dt=2.0 ** -2)
        stacked, direct = [], []
        for block in range(4):
            out = simulate_coupled_block(p, shift, x0, x0 + 0.25, fine,
                                         block_generator(301, block), coarse=True)
            assert len(out) == 4
            stacked.append(np.stack(out[:2]))
            direct.append(np.stack(simulate_coupled_block(
                p, shift, x0, x0 + 0.25, coarse, block_generator(302, block))))
        a, b = self.moments(stacked), self.moments(direct)
        n = a.shape[1]
        se = np.sqrt((a.var(axis=1) + b.var(axis=1)) / n)
        z = (a.mean(axis=1) - b.mean(axis=1)) / se
        # 12 statistics with no bias allowance: the laws are the same
        assert np.max(np.abs(z)) <= 4.0, z

    @pytest.mark.parametrize("mode", ["raw", "clamp"])
    def test_drift_only_coarse_pair_is_the_direct_run(self, mode):
        p = make(d=2, c=(0.0, 0.0), beta=(0.3, 0.0),
                 B=((-1.5, 0.4), (0.2, -2.0)))
        x0 = np.array([[1.0, 0.5], [0.0, 0.0], [2.0, 3.0]])
        fine = SimConfig(T=1.0, dt=2.0 ** -6, positivity_mode=mode)
        coarse = SimConfig(T=1.0, dt=2.0 ** -5, positivity_mode=mode)
        full, observe = _recorder(fine, (4, 3, 2))
        out = simulate_coupled_block(p, p.beta + 0.2, x0, x0 + 0.1, fine,
                                     block_generator(303, 0), observe, coarse=True)
        want, want_observe = _recorder(coarse, (2, 3, 2))
        direct = simulate_coupled_block(p, p.beta + 0.2, x0, x0 + 0.1, coarse,
                                        block_generator(304, 0), want_observe)
        np.testing.assert_allclose(full[::2, :2], want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.stack(out[:2]), np.stack(direct),
                                   rtol=0.0, atol=1e-12)
        # and the fine pair is the run at dt
        again = simulate_coupled_block(p, p.beta + 0.2, x0, x0 + 0.1, fine,
                                       block_generator(305, 0))
        np.testing.assert_allclose(np.stack(out[2:]), np.stack(again),
                                   rtol=0.0, atol=1e-12)

    def test_period_must_divide_the_steps(self):
        p = self.instance()
        x0 = np.tile([1.0, 0.5], (3, 1))
        odd = SimConfig(T=3 * 2.0 ** -6, dt=2.0 ** -6)
        with pytest.raises(InvalidConfig, match="refresh periods"):
            simulate_coupled_block(p, p.beta, x0, x0, odd, block_generator(306, 0),
                                   coarse=True)
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        with pytest.raises(InvalidConfig, match="refresh periods"):
            _euler(p, x0[None], p.beta[None, None, :], cfg, block_generator(306, 0),
                   periods=(3,))
        # each period a multiple of the next: the states due are the last ones
        with pytest.raises(InvalidConfig, match="refresh periods"):
            _euler(p, np.stack([x0, x0]), np.stack([p.beta, p.beta])[:, None, :], cfg,
                   block_generator(306, 0), periods=(1, 2))


class DotForm:
    """np.multiply, except that a product by a scalar into out is taken as
    the matmul of that scalar as a 1 x 1 matrix with each row of paths, the
    product the kernel forms for d >= 2."""

    def __init__(self, multiply):
        self._multiply = multiply
        self.calls = 0

    def __call__(self, a, b, out=None, **kwargs):
        if np.ndim(b) == 0 and out is not None:
            self.calls += 1
            return np.matmul(np.full((1, 1), b), a[:, None], out=out[:, None])
        return self._multiply(a, b, out=out, **kwargs)

    def __getattr__(self, item):
        return getattr(self._multiply, item)


class TestScalarDrift:
    """For d = 1 the drift product is one multiplication, not a BLAS call."""

    @pytest.mark.parametrize("name", ["S1", "S4"])
    def test_block_finals_match_the_dot_form(self, name, monkeypatch):
        s = load_scenario(name)
        assert derive(s.params).drift_matrix[0, 0] < 0.0
        cfg = SimConfig(T=0.25, dt=s.dt)
        x0 = np.tile(s.x0, (2000, 1))
        x0[::7] = 0.0          # 0 times a negative coefficient is -0.0
        final, _ = simulate_block(s.params, x0, cfg, block_generator(307, 0))
        dot_form = DotForm(np.multiply)
        monkeypatch.setattr(np, "multiply", dot_form)
        again, _ = simulate_block(s.params, x0, cfg, block_generator(307, 0))
        assert dot_form.calls == cfg.n_steps
        assert final.tobytes() == again.tobytes()


class DotDrift:
    """np.matmul, except that the drift product dt D @ (states, d, n) is
    taken in the row-major form np.dot((states * n, d), dt D^T)."""

    def __init__(self, matmul):
        self._matmul = matmul
        self.calls = 0

    def __call__(self, a, b, out=None, **kwargs):
        if out is None or np.ndim(a) != 2 or np.ndim(b) != 3:
            return self._matmul(a, b, out=out, **kwargs)
        self.calls += 1
        k, d, n = b.shape
        rows = np.dot(np.ascontiguousarray(b.transpose(0, 2, 1)).reshape(k * n, d),
                      np.ascontiguousarray(a.T))
        out[...] = rows.reshape(k, n, d).transpose(0, 2, 1)
        return out

    def __getattr__(self, item):
        return getattr(self._matmul, item)


class TestDriftProduct:
    """For d >= 2 the kernel holds its stack coordinate-major and forms the
    drift as dt D @ (d, n); it must equal the row-major product np.dot of
    the (n, d) left endpoints with dt D^T bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_matmul_is_the_dot_form(self, d):
        rng = np.random.default_rng(401 + d)
        for _ in range(50):
            k = int(rng.choice([1, 2, 4]))
            n = int(rng.integers(1, 20000))
            D = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
            drift_dt = np.ascontiguousarray(2.0 ** -8 * D.T)
            xp = rng.standard_normal((k * n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (k * n, 1))
            xp = np.maximum(xp, 0.0)
            want = np.dot(xp, drift_dt)
            got = np.empty((k, d, n))
            np.matmul(np.ascontiguousarray(drift_dt.T),
                      np.ascontiguousarray(xp.reshape(k, n, d).transpose(0, 2, 1)), out=got)
            assert got.transpose(0, 2, 1).reshape(k * n, d).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["S3", "S5"])
    def test_block_finals_match_the_dot_form(self, name, monkeypatch):
        s = load_scenario(name)
        cfg = SimConfig(T=0.25, dt=s.dt)
        x0 = np.tile(s.x0, (2000, 1))
        final, _ = simulate_block(s.params, x0, cfg, block_generator(409, 0))
        dot_drift = DotDrift(np.matmul)
        monkeypatch.setattr(np, "matmul", dot_drift)
        again, _ = simulate_block(s.params, x0, cfg, block_generator(409, 0))
        assert dot_drift.calls == cfg.n_steps
        assert final.tobytes() == again.tobytes()


def reference_record(stats, step, diff):
    """CoupledStats of one grid point's (n, d) differences X' - X, written
    with temporaries and plain reductions; each type's differences are
    summed as one contiguous row of paths, as the observer sums them."""
    gap = np.minimum(diff, 0.0)
    stats.violations += int(np.count_nonzero(diff < -COMPARISON_SLACK))
    stats.path_violations = stats.path_violations + (diff < -COMPARISON_SLACK).sum(axis=1)
    stats.triples += diff.size
    worst = float(-gap.min()) if gap.size else 0.0
    stats.worst = max(stats.worst, worst)
    rows = np.ascontiguousarray(diff.T)
    stats.diff_sum[step] += rows.sum(axis=1)
    stats.diff_sq_sum[step] += (rows ** 2).sum(axis=1)


def assert_same_stats(a, b):
    assert (a.violations, a.triples, a.worst) == (b.violations, b.triples, b.worst)
    # a block with no violation keeps the scalar 0 per path
    assert np.all(a.path_violations == b.path_violations)
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
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        x0 = np.tile([1.0, 0.5], (50, 1))
        x0_prime = x0 + 0.1
        kept, kept_prime = x0.copy(), x0_prime.copy()
        simulate_block(p, x0, cfg, block_generator(83, 0))
        simulate_coupled_block(p, p.beta + 0.5, x0, x0_prime, cfg,
                               block_generator(83, 1))
        assert np.array_equal(x0, kept)
        assert np.array_equal(x0_prime, kept_prime)

    def test_estimate_snapshots_are_copies(self):
        # 2^15 // (n d) = 3 steps per chunk: the kernel's two chunk buffers
        # are overwritten five times, so a kept view would read later states
        p = self.instance()
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        n = 5000
        x0 = np.array([1.0, 0.5])
        wanted = (1, 2, 7, cfg.n_steps)
        seen = []

        def statistic(snaps):
            seen.append([s.copy() for s in snaps])
            return np.hstack(snaps)

        _estimate(p, x0, [k * cfg.dt for k in wanted], statistic, n, cfg,
                  89, None, None)
        _, full, _ = block_states(p, np.tile(x0, (n, 1)), cfg, block_generator(89, 0))
        assert not np.array_equal(full[1], full[2])
        for step, snap in zip(wanted, seen[0]):
            assert np.array_equal(snap, full[step])

    def test_recorded_states_do_not_alias_the_kernel(self):
        p = self.instance()
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        n = 5000
        x0 = np.tile([1.0, 0.5], (n, 1))
        full, observe = _recorder(cfg, (n, 2))
        final, _ = simulate_block(p, x0, cfg, block_generator(91, 0), observe)
        assert np.array_equal(final, full[-1])
        assert not np.shares_memory(final, full)
        _, again, _ = block_states(p, x0, cfg, block_generator(91, 0))
        final += 1.0
        assert np.array_equal(full, again)

    def test_path_is_row_of_one_path_block(self):
        p = self.instance()
        # immigration alone expects 0.7 * 16 = 11.2 jumps: a path without
        # any jump has probability below e^-11.2 < 2e-5 at every seed
        cfg = SimConfig(T=16.0, dt=2.0 ** -6, record_jumps=True)
        path = simulate_path(p, [1.0, 0.5], cfg, block_generator(93, 0))
        final, full, events = block_states(p, [[1.0, 0.5]], cfg, block_generator(93, 0))
        assert np.array_equal(path.states, full[:, 0])
        assert np.array_equal(path.final, final[0])
        assert path.jumps
        assert [(e.time, e.kind, e.type_index, e.u, e.size.tolist()) for e in path.jumps] \
            == [(e.time, e.kind, e.type_index, e.u, e.size.tolist()) for e in events[0]]

    def test_coupled_full_states_are_copies(self):
        # the statistics rebuilt from the kept states match the recorded ones
        # only if every kept step holds its own values
        p = self.instance()
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        x0 = np.tile([1.0, 0.5], (50, 1))
        a, b, stats, full = coupled_states(
            p, p.beta + 0.5, x0, x0 + 0.1, cfg, block_generator(97, 0))
        assert np.array_equal(full[-1, 0], a) and np.array_equal(full[-1, 1], b)
        rebuilt = CoupledStats(cfg.n_steps + 1, 2)
        for step in range(cfg.n_steps + 1):
            reference_record(rebuilt, step, full[step, 1] - full[step, 0])
        assert_same_stats(stats, rebuilt)

    def test_coupled_stats_flushed_per_chunk(self):
        # 2^15 // (n d) = 3 steps per chunk: step 0, five full chunks and a
        # last one of one step, each reduced once
        p = self.instance()
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        n = 5000
        x0 = np.tile([1.0, 0.5], (n, 1))
        records = []
        call = CoupledStats.__call__

        def spy(stats, first, states):
            records.append((first, len(states)))
            call(stats, first, states)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CoupledStats, "__call__", spy)
            _, _, stats, full = coupled_states(
                p, p.beta + 0.5, x0, x0 + 0.1, cfg, block_generator(98, 0))
        assert records == [(0, 1), (1, 3), (4, 3), (7, 3), (10, 3), (13, 3), (16, 1)]
        rebuilt = CoupledStats(cfg.n_steps + 1, 2)
        for step in range(cfg.n_steps + 1):
            reference_record(rebuilt, step, full[step, 1] - full[step, 0])
        assert_same_stats(stats, rebuilt)


class TestObservers:
    @pytest.mark.parametrize("n", [1, 5000])
    def test_block_sees_the_kernel_chunks(self, n):
        # n = 1 runs the float lane, n = 5000 the array lane in chunks of 3
        p = TestKernelBuffers().instance()
        cfg = SimConfig(T=0.25, dt=2.0 ** -6)
        x0 = np.tile([1.0, 0.5], (n, 1))
        kernel, block = [], []
        _euler(p, x0[None], p.beta[None, None, :], cfg, block_generator(99, 0),
               lambda first, states: kernel.append((first, states[:, 0].copy())))
        simulate_block(p, x0, cfg, block_generator(99, 0),
                       lambda first, states: block.append((first, states.copy())))
        assert [first for first, _ in block] == [first for first, _ in kernel]
        assert len(block) == (2 if n == 1 else 7)
        for (_, got), (_, want) in zip(block, kernel):
            assert got.shape == want.shape and got.shape[1:] == (n, 2)
            assert np.array_equal(got, want)


class TestCoupledStats:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 9, 1000, 16384])
    def test_matches_reference(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        steps = 6
        got, want = CoupledStats(steps, d), CoupledStats(steps, d)
        for _ in range(2):
            states = np.empty((steps, 2, n, d))   # the kernel's chunk layout
            for step in range(steps):
                scale = 10.0 ** rng.uniform(-14, 3, (n, 1))
                diff = rng.standard_normal((n, d)) * scale
                if step == 0:
                    diff = np.abs(diff)       # no violation at all
                elif step == 1:
                    diff[::2] = 0.0           # zeros and tiny negatives
                    diff[1::3] = -COMPARISON_SLACK / 2
                low = rng.uniform(0.0, 2.0, (n, d))
                states[step] = low, low + diff
                reference_record(want, step, states[step, 1] - states[step, 0])
            # chunks of 3, 2 and 1 grid points, each a view like the kernel's
            for first, last in ((0, 3), (3, 5), (5, 6)):
                got(first, states[first:last])
        assert_same_stats(got, want)


# jumps this small leave states of order one unchanged, so every step of a
# run draws its counts from the same intensities
TINY = 1e-200


def _run_stack(p, states, cfg, rng):
    """Kernel run of one block from the given (possibly raw-negative) states."""
    X = np.asarray(states, dtype=float)[None, :, None]
    return _euler(p, X, p.beta[None, None, :], cfg, rng,
                  lambda first, states: None)


def _assert_serially_independent(c, rate):
    """Consecutive steps of one path's Poisson(rate) counts c are
    uncorrelated. A sparse count's lag-1 correlation has a heavy tail: one
    pair of consecutive events among 50 moves it by about 3 standard
    errors, so below 0.01 expected events a step the gate counts the steps
    with events at both t and t + 1 instead. Under independence that count
    is about Poisson of mean (steps - 1) p^2, p = 1 - e^-rate, and it must
    not exceed that law's one-sided 4-sigma quantile."""
    steps = len(c)
    if rate >= 0.01:
        r = np.corrcoef(c[:-1], c[1:])[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(steps)
        return
    mean = (steps - 1) * math.expm1(-rate) ** 2
    tail = 0.5 * math.erfc(4.0 / math.sqrt(2.0))
    bound, pmf = 0, math.exp(-mean)
    cdf = pmf
    while 1.0 - cdf > tail:
        bound += 1
        pmf *= mean / bound
        cdf += pmf
    assert np.count_nonzero((c[:-1] > 0) & (c[1:] > 0)) <= bound


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
    """One Exp(1) gap per clock at the start: each branching type with
    simulated mass (here only type 1), then immigration. Then per step,
    immigration first and then each type, one scalar Poisson exactly when
    the clock increment passes the carried gap, followed by the new gap.
    Never an array-valued Poisson draw. Immigration's clock runs at n times
    its rate, a type's at n times the largest bound over the paths and the
    states of the stack."""

    T, DT = 0.25, 2.0 ** -6   # 16 steps

    def instance(self):
        mu = DiscreteAtoms(2, [(np.array([0.3, 0.1]), 1.5)])
        nu = DiscreteAtoms(2, [(np.array([0.2, 0.2]), 0.7)])
        return make(d=2, c=(0.3, 0.3), beta=(0.2, 0.1),
                    B=((-1.0, 0.2), (0.1, -0.8)), nu=nu, mu=(mu, None))

    def check(self, rng, p, n, stacks):
        """Replay the gaps the kernel drew against the kept (k, n, d) stacks."""
        assert len(stacks) == round(self.T / self.DT) + 1
        der = derive(p)
        drawn = [v for name, _, _, v in rng.calls if name == "exponential"]
        # the start draws type 1's gap, then immigration's; a step runs
        # immigration first
        gaps = drawn.pop(0).tolist()[::-1]
        want = [("exponential", 0, 2)]
        want_means = []
        for states in stacks[:-1]:
            top = max(float(states[:, :, 0].max()), 0.0)
            clocks = (n * (der.immigration_rate * self.DT),
                      n * top * (der.branching_rates[0] * self.DT))
            for c, clock in enumerate(clocks):
                if gaps[c] >= clock:
                    gaps[c] -= clock
                else:
                    want += [("poisson", 0, None), ("exponential", 0, None)]
                    want_means.append(clock - gaps[c])
                    gaps[c] = drawn.pop(0)
        assert [call[:3] for call in rng.calls] == want
        assert [lam for name, _, _, lam in rng.calls if name == "poisson"] \
            == pytest.approx(want_means, rel=1e-12)
        assert not drawn

    @pytest.mark.parametrize("n", [1, 7, 300, 1500, 20000])
    def test_block(self, n):
        p = self.instance()
        cfg = SimConfig(T=self.T, dt=self.DT)
        rng = CountingGenerator(block_generator(73, n))
        _, full, _ = block_states(p, np.tile([1.0, 0.5], (n, 1)), cfg, rng)
        self.check(rng, p, n, full[:, None])

    @pytest.mark.parametrize("n", [1, 300, 1500, 20000])
    def test_coupled_block(self, n):
        p = self.instance()
        cfg = SimConfig(T=self.T, dt=self.DT)
        rng = CountingGenerator(block_generator(79, n))
        x0 = np.tile([1.0, 0.5], (n, 1))
        _, _, _, full = coupled_states(p, p.beta + 0.5, x0, x0 + 0.1, cfg, rng)
        self.check(rng, p, n, full)


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


def _clock_counts(events, n_steps, dt, d):
    """(n_steps, d + 1) events per step over all paths: the branching
    events of each type, then the immigration events."""
    counts = np.zeros((n_steps, d + 1), dtype=int)
    for evs in events:
        for ev in evs:
            counts[round(ev.time / dt) - 1, d if ev.type_index is None else ev.type_index] += 1
    return counts


class TestCarriedGaps:
    def tiny_types(self, rate, nu=None):
        # tiny own-axis jumps at rate per unit state on both types
        mu = tuple(DiscreteAtoms(2, [(np.eye(2)[j] * TINY, rate)]) for j in range(2))
        return make(d=2, c=(0.0, 0.0), beta=(0.0, 0.0), B=((0.0, 0.0), (0.0, 0.0)),
                    nu=nu, mu=mu)

    def test_single_path_counts_iid_poisson(self):
        # one path, two types with clock increments 0.75 and 0.05 per step,
        # and tiny immigration jumps with 0.3
        rate, dt = 4.0, 0.125
        state = np.array([1.5, 0.1])
        p = self.tiny_types(rate, nu=DiscreteAtoms(2, [(np.full(2, TINY), 2.4)]))
        cfg = SimConfig(T=12_500.0, dt=dt, record_jumps=True)
        path = simulate_path(p, state, cfg, block_generator(103, 0))
        assert np.array_equal(path.final, state)
        steps = cfg.n_steps
        assert steps >= 10 ** 5
        counts = _clock_counts([path.jumps], steps, dt, 2)
        for lam, c in zip([*(state * rate * dt), 2.4 * dt], counts.T):
            assert abs(c.mean() - lam) <= 4.0 * math.sqrt(lam / steps)
            var_se = math.sqrt((lam + 2.0 * lam ** 2) / steps)
            assert abs(c.var(ddof=1) - lam) <= 4.0 * var_se
            # a carried gap must not correlate consecutive steps
            r = np.corrcoef(c[:-1], c[1:])[0, 1]
            assert abs(r) <= 4.0 / math.sqrt(steps)
        # nor one clock's counts with another's
        corr = np.corrcoef(counts, rowvar=False)
        assert np.all(np.abs(corr[np.triu_indices(3, 1)]) <= 4.0 / math.sqrt(steps))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("states", [
        [[1.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0], [-0.5, -1e-3], [2.0, 0.0], [0.0, 0.0]],
    ])
    def test_zero_gap_never_fires_zero_bound(self, k, states):
        # type 2 has zero bound everywhere, paths 2, 3 and 5 on type 1 too:
        # a gap of exactly 0 must fire neither, and fires type 1 every step.
        # A block (k = 1) logs what it accepts; a coupled pair (k = 2) keeps
        # no log, but a tiny jump accepted at a zero coordinate would leave
        # it nonzero, so the unchanged final stack shows none was
        p = self.tiny_types(2.0)
        cfg = SimConfig(T=2.0, dt=0.125, record_jumps=True)
        X = np.tile(np.asarray(states, dtype=float), (k, 1, 1))
        rng = ZeroGaps(block_generator(107, k))
        final, events = _euler(p, X, np.zeros((k, 1, 2)), cfg, rng)
        assert np.array_equal(final, X)
        assert rng.poisson_calls == cfg.n_steps
        bounds = np.maximum(np.asarray(states)[:, 0], 0.0)
        assert (events is None) == (k == 2)
        if k == 2:
            return
        assert any(events)
        for owner, evs in enumerate(events):
            assert all(ev.type_index == 0 and ev.u < bounds[owner] for ev in evs)


class TestThinning:
    """A stack of n > 1 paths draws a type's candidates at n times its
    largest bound, with uniform owners, and a state keeps a candidate when
    its mark is below its own bound at the owner."""

    @pytest.mark.parametrize("n", [2, 300])
    def test_paths_do_not_depend_on_the_log(self, n):
        s = load_scenario("S3")
        x0 = np.tile(s.x0, (n, 1))
        runs = {}
        for record in (False, True):
            cfg = SimConfig(T=0.25, dt=s.dt, eps_trunc=s.eps_trunc, record_jumps=record)
            runs[record] = block_states(s.params, x0, cfg, block_generator(5, 0))
        (plain, _, none), (final, full, events) = runs[False], runs[True]
        assert none is None
        assert plain.tobytes() == final.tobytes()
        branching = [(owner, ev) for owner, evs in enumerate(events) for ev in evs
                     if ev.kind == "branching"]
        assert branching
        for owner, ev in branching:
            step = round(ev.time / s.dt) - 1
            assert 0.0 <= ev.u < max(full[step, owner, ev.type_index], 0.0)

    # zeros, negative states and one path 100 times the others: n max / sum
    # is 12 * 100 / 107.05, about 11; with 28 more zeros, 40 paths give
    # about 37
    UNEVEN = [0.0, 1.0, -0.5, 100.0, 0.3, 1.0, 0.0, 2.0, -1e-3, 1.5, 0.05, 1.2]
    # a dominating second state: zero offsets keep a path equal in both
    OFFSETS = [0.5, 0.0, 1.0, 0.0, 2.0, 0.0, 0.25, 0.5, 0.01, 0.0, 0.3, 4.0]

    @pytest.mark.parametrize("zeros, seed", [(0, 1), (28, 0)], ids=["uneven", "mostly-zero"])
    def test_counts_are_poisson_at_each_bound(self, zeros, seed):
        states = np.array(self.UNEVEN + [0.0] * zeros)
        rate = 0.4
        p = make(mu=(DiscreteAtoms(1, [(np.array([TINY]), rate)]),))
        cfg = SimConfig(T=2500.0, dt=0.125, record_jumps=True)
        final, events = _run_stack(p, states, cfg, block_generator(409, seed))
        assert np.array_equal(final[0, :, 0], states)
        steps = cfg.n_steps
        counts = _counts_per_step(events, "branching", steps, cfg.dt)
        lam = np.maximum(states, 0.0) * rate * cfg.dt
        assert np.all(counts[:, lam == 0.0] == 0)
        for c, rate_i in zip(counts.T[lam > 0.0], lam[lam > 0.0]):
            assert abs(c.mean() - rate_i) <= 4.0 * math.sqrt(rate_i / steps)
            var_se = math.sqrt((rate_i + 2.0 * rate_i ** 2) / steps)
            assert abs(c.var(ddof=1) - rate_i) <= 4.0 * var_se
            # the carried gap runs on the clock n max: consecutive steps of
            # one path stay independent
            _assert_serially_independent(c, rate_i)

    def test_coupled_counts_are_poisson_at_each_state_bound(self):
        # a coupled pair shares candidates at its top bound and their marks:
        # each state keeps a Poisson count at its own bound, and the larger
        # state every jump the smaller one keeps. Jumps of 2**-30 make each
        # increment a whole multiple of it; B, the atom's first moment,
        # cancels the compensator, so no drift blurs the counts
        atom, rate = 2.0 ** -30, 0.4
        p = make(B=((rate * atom,),), mu=(DiscreteAtoms(1, [(np.array([atom]), rate)]),))
        assert derive(p).drift_matrix[0, 0] == 0.0
        states = np.array(self.UNEVEN)
        prime = states + np.array(self.OFFSETS)
        cfg = SimConfig(T=2500.0, dt=0.125)
        chunks = []
        _euler(p, np.stack([states, prime])[:, :, None], np.zeros((2, 1, 1)), cfg,
               block_generator(421, 0), lambda first, s: chunks.append(s.copy()))
        full = np.concatenate(chunks)
        counts = np.diff(full[:, :, :, 0], axis=0) / atom
        assert np.array_equal(counts, np.round(counts))
        assert np.all(counts[:, 1] >= counts[:, 0])
        steps = cfg.n_steps
        for start, state_counts in zip((states, prime), counts.transpose(1, 0, 2)):
            lam = np.maximum(start, 0.0) * rate * cfg.dt
            assert np.all(state_counts[:, lam == 0.0] == 0)
            for c, rate_i in zip(state_counts.T[lam > 0.0], lam[lam > 0.0]):
                assert abs(c.mean() - rate_i) <= 4.0 * math.sqrt(rate_i / steps)
                var_se = math.sqrt((rate_i + 2.0 * rate_i ** 2) / steps)
                assert abs(c.var(ddof=1) - rate_i) <= 4.0 * var_se
                _assert_serially_independent(c, rate_i)


class TestDrawOrder:
    """Every branching clock that fires draws, after its Poisson count and
    its new gap: the owners (none for one path), then the marks, then the
    sizes of the kept candidates."""

    # exponential jumps draw their sizes by standard_exponential, and no
    # immigration or diffusion draws in between
    P = make(mu=(ProductExponential(40.0, [20.0]),))
    # uniform owners for every stack of n > 1 paths
    CASES = {
        "path": (1, 1, None), "thinned": (1, 5, "integers"),
        "one-live": (1, 40, "integers"), "pair-of-one": (2, 1, None),
        "pair": (2, 3, "integers"), "coarse-stack": (4, 3, "integers")}

    @pytest.mark.parametrize("case", CASES)
    def test_owners_then_marks_then_sizes(self, case):
        k, n, owners = self.CASES[case]
        # one positive path among 39 that stay at 0: n max / sum is 40 at
        # every step
        x0 = np.zeros((n, 1))
        x0[0 if case == "one-live" else slice(None)] = 1.0
        cfg = SimConfig(T=1.0, dt=2.0 ** -6)
        rng = RecordingGenerator(block_generator(23, 0))
        if k == 1:
            simulate_block(self.P, x0, cfg, rng)
        else:
            simulate_coupled_block(self.P, self.P.beta + 0.5, x0, x0, cfg, rng,
                                   coarse=k == 4)
        names = [name for name, _, _ in rng.calls]
        starts = [i for i, name in enumerate(names) if name == "poisson"]
        assert len(starts) >= 10
        for a, b in zip(starts, starts[1:] + [len(names)]):
            firing = names[a + 1:b]
            head = ["exponential"] + ([owners] if owners else []) + ["random"]
            assert firing[:len(head)] == head
            sizes = firing[len(head):]
            # a block may keep no candidate, and then draws no size; a stack
            # draws a size for every candidate
            assert set(sizes) == {"standard_exponential"} or (k == 1 and not sizes)


class TestChunkedImmigration:
    def test_counts_iid_poisson_across_chunks(self):
        # unit immigration atoms and no other dynamics: each step's increment
        # of a path is its immigration count, exactly
        n, rate = 4096, 3.0
        p = make(nu=DiscreteAtoms(1, [(np.array([1.0]), rate)]))
        cfg = SimConfig(T=250 * 0.125, dt=0.125)
        m = _CHUNK_VALUES // n
        assert m == 8 and cfg.n_steps % m   # 31 whole chunks and a short one
        _, full, _ = block_states(p, np.zeros((n, 1)), cfg, block_generator(101, 0))
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


def array_step(x, z, A, b):
    """The array lane's step on one row, statement by statement, with its
    dot product summed left to right; returns (next state, max(x, 0))."""
    X = np.array([x], dtype=float)
    with np.errstate(all="ignore"):
        Xp = np.maximum(X, np.zeros_like(X))
        new = Xp[:, 0:1] * A[0]
        for j in range(1, len(x)):
            new = new + Xp[:, j:j + 1] * A[j]
        new += b
        new += X
        if z is not None:
            noise = np.sqrt(Xp)
            noise *= np.array([z])
            new += noise
    return new[0], Xp[0]


def any_floats(d):
    return st.lists(st.floats(), min_size=d, max_size=d)


@st.composite
def step_inputs(draw):
    d = draw(st.integers(1, 5))
    coefficient = st.floats(allow_nan=False, allow_infinity=False)
    A = draw(st.lists(coefficient, min_size=d * d, max_size=d * d))
    b = draw(st.lists(coefficient, min_size=d, max_size=d))
    z = draw(st.none() | any_floats(d))
    return draw(any_floats(d)), z, A, b


class TestFloatLane:
    """A single path runs on Python floats through a generated step; a
    coupled pair of two equal states runs the array lane on the same draws
    (its marks never reject: each is below the shared bound), so the two
    representations can be compared path for path. The pair keeps no jump
    log; the lanes are compared on every value they draw instead."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(step_inputs())
    # cancellation: (-1e16 + 1) + 1e16 is 0, (-1e16 + 1e16) + 1 is 1
    @example(([1e16], [0.0], [-1.0], [1.0]))
    @example(([math.nan, -0.0, 2.0], [1.0, -1.0, 0.5], [1.0] * 9, [0.0, -0.0, 1.0]))
    def test_generated_step_is_array_step(self, inputs):
        x, z, A, b = inputs
        d = len(x)
        step = _float_step(d, z is not None)(*A, *b)
        got, bounds = step(list(x), z) if z is not None else step(list(x))
        want, want_bounds = array_step(x, z, np.reshape(A, (d, d)), np.array(b))
        # the bounds are np.maximum's, signed zeros included
        assert np.array_equal(bounds, want_bounds, equal_nan=True)
        assert np.array_equal(np.signbit(bounds), np.signbit(want_bounds))
        got = np.array(got)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.all(np.isnan(got)[np.isnan(x)])
        with np.errstate(invalid="ignore", over="ignore"):
            close = (got == want) | (np.abs(got - want) <= np.spacing(np.abs(want)))
        assert np.all(close | np.isnan(want))

    def test_one_step_source_per_dimension(self):
        assert _float_step(2, True) is _float_step(2, True)
        assert _float_step(2, True) is not _float_step(2, False)
        assert _float_step(3, True)(*range(12)) is not _float_step(3, True)(*range(12))

    @staticmethod
    def run(p, x0, cfg, rng, k):
        """One path through the kernel as k equal states: k = 1 is the
        float lane, k = 2 the array lane. Returns its rows and jump log,
        None for k = 2."""
        rows = []
        X = np.tile(np.asarray(x0, dtype=float), (k, 1, 1))
        final, events = _euler(p, X,
                               np.tile(p.beta, (k, 1, 1)), cfg, rng,
                               lambda first, states: rows.extend(states[:, 0, 0].copy()))
        assert np.array_equal(final[0, 0], rows[-1])
        return np.array(rows), None if events is None else events[0]

    @pytest.mark.parametrize("mode", ["raw", "clamp"])
    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
    def test_both_representations_agree(self, name, mode):
        s = load_scenario(name)
        cfg = SimConfig(T=s.t, dt=s.dt, eps_trunc=s.eps_trunc, positivity_mode=mode,
                        record_jumps=True)
        draws = [DrawLog(block_generator(s.seed, 0)) for _ in range(2)]
        floats, float_jumps = self.run(s.params, s.x0, cfg, draws[0], 1)
        arrays, array_jumps = self.run(s.params, s.x0, cfg, draws[1], 2)
        assert len(floats) == cfg.n_steps + 1
        assert np.all(np.abs(floats - arrays) <= 1e-14 * np.maximum(1.0, np.abs(arrays)))
        if mode == "clamp":
            assert np.all(floats >= 0.0)
        # every value drawn is the same in both lanes, the marks' uniforms
        # included; the log is one code over these draws and the bounds,
        # which are the states above
        assert array_jumps is None and float_jumps is not None
        assert [name for name, _ in draws[0].values] == [name for name, _ in draws[1].values]
        for (_, a), (_, b) in zip(draws[0].values, draws[1].values):
            assert np.array_equal(a, b)

    def test_same_generator_calls_as_array_lane(self):
        p = load_scenario("S3").params
        cfg = SimConfig(T=1.0, dt=2.0 ** -8, record_jumps=True)
        calls = []
        for k in (1, 2):
            rng = RecordingGenerator(block_generator(211, 0))
            self.run(p, [4.0, 0.4], cfg, rng, k)
            calls.append(rng.calls)
        # the same draws with the same sizes; a Poisson mean is a clock
        # increment less a gap, both of order one, and the clock scales by
        # the state, which the lanes round apart by a few ulps
        assert [(name, args) for name, args, _ in calls[0]] \
            == [(name, args) for name, args, _ in calls[1]]
        means = [[m for _, _, m in c] for c in calls]
        assert means[0] == pytest.approx(means[1], rel=0, abs=1e-14)
        assert any(name == "poisson" for name, _, _ in calls[0])

    def test_one_path_block_states_are_path_rows(self):
        s = load_scenario("S3")
        cfg = SimConfig(T=s.t, dt=s.dt, eps_trunc=s.eps_trunc)
        final, full, _ = block_states(s.params, [s.x0], cfg, block_generator(5, 3))
        path = simulate_path(s.params, s.x0, cfg, block_generator(5, 3))
        assert full.shape == (cfg.n_steps + 1, 1, 2)
        assert np.array_equal(full[:, 0], path.states)
        assert np.array_equal(final[0], path.final)


class DrawLog:
    """Generator proxy that keeps a copy of every value drawn, with the name
    of its method, in draw order."""

    def __init__(self, rng):
        self._rng = rng
        self.values = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            value = method(*args, **kwargs)
            self.values.append((name, np.array(value, copy=True)))
            return value

        return draw


class RecordingGenerator:
    """Generator proxy that logs every draw as (name, arguments, mean): the
    arguments with arrays shown by shape, a float argument (a Poisson mean)
    apart as the mean."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            shown, mean = [], None
            for a in [*args, *(v for _, v in sorted(kwargs.items()))]:
                if isinstance(a, np.ndarray):
                    shown.append(a.shape)
                elif isinstance(a, float):
                    mean = a
                else:
                    shown.append(a)
            self.calls.append((name, shown + sorted(kwargs), mean))
            return method(*args, **kwargs)

        return record
