"""Estimators, reductions, determinism and the verification harness."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from cbi.errors import BudgetExceeded, InvalidConfig, PreconditionViolated
from cbi.measures import DiscreteAtoms
from cbi.moments import mean
from cbi import montecarlo, simulate
from cbi.montecarlo import (
    BLOCK_SIZE, CoupledStats, _ordering, estimate_laplace_grid, estimate_mean,
    verify_comparison, verify_laplace, verify_mean,
)
from cbi.params import AdmissibleParams
from cbi.riccati import laplace_transform
from cbi.scenarios import Scenario, load_scenario
from cbi.simulate import SimConfig

from helpers import A4_HALVING, chain_mean, mean_error_halving_ratio


def cir():
    return AdmissibleParams(d=1, c=[1.0], beta=[1.0], B=[[-1.0]], nu=None, mu=(None,))


def deterministic():
    return AdmissibleParams(d=1, c=[0.0], beta=[0.5], B=[[-1.0]], nu=None, mu=(None,))


def jumpy_scenario(**overrides):
    mu = DiscreteAtoms(1, [(np.array([0.5]), 0.8)])
    nu = DiscreteAtoms(1, [(np.array([0.4]), 0.5)])
    p = AdmissibleParams(d=1, c=[0.3], beta=[0.3], B=[[-1.0]], nu=nu, mu=(mu,))
    settings = dict(
        name="unit", description="unit-test scenario", params=p,
        x0=np.array([1.0]), t=0.5, dt=2.0 ** -6, n_paths=4000, seed=99,
        eps_trunc=1e-3, bias_constant_mean=2.0, bias_constant_laplace=2.0,
        laplace_points=[(0.25, np.array([0.8])), (0.5, np.array([1.5]))],
        comparison={"beta_shift": [0.5], "n_paths": 2000, "dt": 2.0 ** -7,
                    "T": 0.5, "seed": 7},
    )
    settings.update(overrides)
    return Scenario(**settings)


CFG = SimConfig(T=1.0, dt=2.0 ** -6)


class TestEstimateMean:
    def test_deterministic_instance_zero_stderr(self):
        p = deterministic()
        value, stderr = estimate_mean(p, [2.0], 1.0, 500, CFG, seed=1)
        assert np.all(stderr == 0.0)
        # Euler solution of m' = 0.5 - m from 2.0
        m = 2.0
        for _ in range(64):
            m += (0.5 - m) * 2.0 ** -6
        assert value[0] == pytest.approx(m, rel=1e-14)

    def test_deterministic_coordinate_zero_stderr(self):
        # x2 has no diffusion, no jump moves it and no drift flows in from
        # x1: its column is constant across paths, next to a varying x1,
        # within a block and across the merge of two blocks
        nu = DiscreteAtoms(2, [(np.array([0.4, 0.0]), 0.5)])
        mu = DiscreteAtoms(2, [(np.array([0.3, 0.0]), 0.8)])
        p = AdmissibleParams(d=2, c=[0.5, 0.0], beta=[0.3, 0.4],
                             B=[[-1.0, 0.3], [0.0, -0.7]], nu=nu, mu=(mu, None))
        value, stderr = estimate_mean(p, [1.0, 2.0], 1.0, BLOCK_SIZE + 100, CFG, seed=4)
        assert stderr[1] == 0.0 and stderr[0] > 0.0
        m = 2.0
        for _ in range(64):
            m += (0.4 - 0.7 * m) * 2.0 ** -6
        assert value[1] == pytest.approx(m, rel=1e-13)

    def test_cir_mean_within_tolerance(self):
        value, stderr = estimate_mean(cir(), [1.0], 1.0, 30_000, CFG, seed=5)
        # stationary at 1: e^{-t} x0 + (1 - e^{-t}) beta_tilde = 1
        assert abs(value[0] - 1.0) <= 3.0 * stderr[0] + 2.0 * CFG.dt

    def test_seed_reproducibility(self):
        a = estimate_mean(cir(), [1.0], 1.0, 5000, CFG, seed=42)
        b = estimate_mean(cir(), [1.0], 1.0, 5000, CFG, seed=42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_thread_count_invariance(self):
        one = estimate_mean(cir(), [1.0], 1.0, 10_000, CFG, seed=9, threads=1)
        four = estimate_mean(cir(), [1.0], 1.0, 10_000, CFG, seed=9, threads=4)
        assert np.array_equal(one[0], four[0])
        assert np.array_equal(one[1], four[1])

    def test_doubling_paths_shrinks_stderr(self):
        _, small = estimate_mean(cir(), [1.0], 1.0, 20_000, CFG, seed=3)
        _, big = estimate_mean(cir(), [1.0], 1.0, 40_000, CFG, seed=3)
        ratio = big[0] / small[0]
        assert 0.6 <= ratio <= 0.82

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            estimate_mean(cir(), [1.0], 1.0, 10_000, CFG, seed=1, budget=1000)


def laplace_at(p, x0, lam, t, n_paths, seed):
    """One-point estimate_laplace_grid: (value, stderr)."""
    values, stderrs = estimate_laplace_grid(p, x0, [(t, np.array(lam))], n_paths,
                                            CFG, seed=seed)
    return values[0], stderrs[0]


class TestChainMean:
    """The Monte Carlo mean against the Euler chain's own mean, with no bias
    allowance: the only error left is Monte Carlo, gated by its standard
    error with a Bonferroni bound over the eight coordinates of S1 to S5
    (family-wise level 1e-3). With c > 0 (S1 to S4) the chain's mean is
    exact only while no state goes negative, so a failure there measures
    the raw mode's positivity remainder: it is reported, never absorbed.
    The chain's own error against the closed-form mean is A4's halving
    ratio without Monte Carlo noise."""

    Z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 8))

    def test_oracle_is_the_drift_only_recursion(self):
        # no noise: the estimate is the chain itself, path for path
        p = AdmissibleParams(d=2, c=[0.0, 0.0], beta=[0.3, 0.1],
                             B=[[-1.0, 0.4], [0.2, -0.6]], nu=None, mu=(None, None))
        value, stderr = estimate_mean(p, [1.0, 2.0], 1.0, 50, CFG, seed=3)
        assert np.all(stderr == 0.0)
        assert value == pytest.approx(chain_mean(p, [1.0, 2.0], 1.0, CFG.dt, 1e-3),
                                      rel=1e-13)

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
    def test_scenario_mean_within_monte_carlo_error(self, name):
        s = load_scenario(name)
        chain = chain_mean(s.params, s.x0, s.t, s.dt, s.eps_trunc)
        value, stderr = estimate_mean(s.params, s.x0, s.t, s.n_paths, s.sim_config(),
                                      s.seed)
        z = np.abs(value - chain) / stderr
        assert np.all(z <= self.Z), f"{name}: |z| {z} against the chain {chain}"


    @pytest.mark.parametrize("name", ["S2", "S3", "S4", "S5"])
    def test_chain_error_halves_with_dt(self, name):
        # the chain's error against the closed-form mean is e(dt) = a dt +
        # b dt^2 + ..., so e(dt/2) / e(dt) = 1/2 - (b / 4a) dt + O(dt^2);
        # b / 4a reads 0.02-0.10 here, and a bound of dt leaves ten times
        # that. S3 runs at A4's dt, the others at their own.
        s = load_scenario(name)
        dt = A4_HALVING["dt"] if name == "S3" else s.dt
        exact = mean(s.params, s.x0, s.t)
        err = [np.linalg.norm(exact - chain_mean(s.params, s.x0, s.t, h, s.eps_trunc))
               for h in (dt, dt / 2.0)]
        assert abs(err[1] / err[0] - 0.5) <= dt

class TestEstimateLaplace:
    def test_zero_lambda_exact(self):
        value, stderr = laplace_at(cir(), [1.0], [0.0], 1.0, 100, seed=2)
        assert value == 1.0 and stderr == 0.0

    def test_t_zero_exact(self):
        value, stderr = laplace_at(cir(), [1.5], [2.0], 0.0, 100, seed=2)
        assert value == math.exp(-3.0) and stderr == 0.0

    def test_stderr_bound_for_bounded_statistic(self):
        n = 10_000
        _, stderr = laplace_at(cir(), [1.0], [1.0], 1.0, n, seed=8)
        assert stderr <= 0.5 / math.sqrt(n)

    def test_matches_riccati_transform(self):
        p = cir()
        n = 40_000
        value, stderr = laplace_at(p, [1.0], [1.0], 1.0, n, seed=21)
        analytic = laplace_transform(p, [1.0], [1.0], 1.0)
        assert abs(value - analytic) <= 3.0 * stderr + 2.0 * CFG.dt


class TestEstimateTimes:
    """Times are checked once for every estimator; t = 0 alone is exact."""

    def test_all_times_zero_exact_without_paths(self):
        points = [(0.0, np.array([2.0])), (0.0, np.array([0.5]))]
        values, stderrs = estimate_laplace_grid(cir(), [1.5], points, 100, CFG,
                                                seed=2, budget=0)
        assert values.tolist() == [math.exp(-3.0), math.exp(-0.75)]
        assert stderrs.tolist() == [0.0, 0.0]
        x0 = np.array([1.5])
        value, stderr = estimate_mean(cir(), x0, 0.0, 100, CFG, seed=2, budget=0)
        assert value.tolist() == [1.5] and stderr.tolist() == [0.0]
        assert value is not x0

    def test_zero_time_among_others(self):
        points = [(0.5, np.array([1.0])), (0.0, np.array([2.0]))]
        values, stderrs = estimate_laplace_grid(cir(), [1.5], points, 200, CFG, seed=2)
        # the column of a constant statistic, reduced with a varying one
        assert values[1] == math.exp(-3.0)
        assert stderrs[1] == 0.0
        assert 0.0 < values[0] < 1.0 and stderrs[0] > 0.0

    @pytest.mark.parametrize("points", [
        [],
        [(-0.5, np.array([1.0]))],
        [(0.3, np.array([1.0])), (1.0, np.array([1.0]))],
        [(0.5, np.array([1.0])), (0.7, np.array([1.0]))],
        [(1e-12, np.array([1.0]))],
        [(float("nan"), np.array([1.0]))],
    ], ids=["empty", "negative", "off-grid-earlier", "off-grid-largest",
            "below-one-step", "nan"])
    def test_bad_times_are_input_errors(self, points):
        with pytest.raises(InvalidConfig):
            estimate_laplace_grid(cir(), [1.0], points, 100, CFG, seed=2)

    @pytest.mark.parametrize("t", [-1.0, 0.3])
    def test_bad_mean_time_is_input_error(self, t):
        with pytest.raises(InvalidConfig):
            estimate_mean(cir(), [1.0], t, 100, CFG, seed=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_non_finite_x0_is_rejected(self, bad, t):
        # budget 0: the check comes before the budget and before any path
        with pytest.raises(PreconditionViolated, match="finite"):
            estimate_mean(cir(), [bad], t, 100, CFG, seed=2, budget=0)
        with pytest.raises(PreconditionViolated, match="finite"):
            estimate_laplace_grid(cir(), [bad], [(t, np.array([1.0]))], 100, CFG,
                                  seed=2, budget=0)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_x0_is_one_state(self, t):
        with pytest.raises(InvalidConfig, match=r"x0 must have shape \(1,\)"):
            estimate_mean(cir(), [[1.0], [2.0]], t, 100, CFG, seed=2, budget=0)


class TestVerify:
    def test_verify_mean_deterministic_pass_z_zero(self):
        s = jumpy_scenario(params=deterministic(), x0=np.array([2.0]))
        rep = verify_mean(s)
        assert rep.passed
        assert rep.z_score == 0.0

    def test_verify_mean_jumpy(self):
        rep = verify_mean(jumpy_scenario(n_paths=20_000))
        assert rep.passed
        assert rep.quantity == "mean[unit]"

    def test_verify_laplace_jumpy(self):
        rep = verify_laplace(jumpy_scenario(n_paths=20_000))
        assert rep.passed
        assert len(rep.analytic) == 2
        assert np.all(rep.estimate > 0) and np.all(rep.estimate <= 1)

    def test_verify_comparison_identical_betas(self):
        s = jumpy_scenario()
        s.comparison = dict(s.comparison, beta_shift=[0.0])
        rep = verify_comparison(s)
        assert rep.passed
        assert rep.details["coarse"]["fraction"] == 0.0
        assert rep.details["fine"]["fraction"] == 0.0

    def test_verify_comparison_shifted(self):
        rep = verify_comparison(jumpy_scenario())
        assert rep.passed
        assert rep.details["coarse"]["means_ordered"]

    @pytest.mark.parametrize("steps_per_chunk", [1, 3])
    def test_comparison_reads_one_stacked_run(self, steps_per_chunk, monkeypatch):
        # one block; chunks of 1 and 3 fine steps begin at odd grid points.
        # Diffusion near 0 on a coarse grid: both levels see crossings
        p = AdmissibleParams(d=1, c=[2.0], beta=[0.0], B=[[0.0]], nu=None, mu=(None,))
        s = jumpy_scenario(params=p, x0=np.array([0.02]), comparison={
            "beta_shift": [1e-3], "n_paths": 2000, "dt": 2.0 ** -4, "T": 1.0, "seed": 7})
        comp = s.comparison
        n, d = comp["n_paths"], s.params.d
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", n * d * steps_per_chunk)
        cfg = SimConfig(T=comp["T"], dt=comp["dt"] / 2.0, eps_trunc=s.eps_trunc)
        # budget is one check, against the pairs times the steps of dt/2
        with pytest.raises(BudgetExceeded):
            verify_comparison(s, budget=n * cfg.n_steps - 1)
        rep = verify_comparison(s, budget=n * cfg.n_steps)
        full, observe = simulate._recorder(cfg, (4, n, d))
        x0 = np.tile(s.x0, (n, 1))
        simulate.simulate_coupled_block(
            s.params, s.params.beta + comp["beta_shift"], x0, x0, cfg,
            simulate.block_generator(comp["seed"], 0), observe, coarse=True)
        shares = []
        for level, states in (("coarse", full[::2, :2]), ("fine", full[:, 2:])):
            stats = CoupledStats(len(states), d)
            stats(0, states)
            assert rep.details[level] == _ordering([stats], n)
            assert stats.path_violations.sum() == stats.violations
            shares.append(stats.path_violations / (len(states) * d))
        assert 0.0 < rep.details["coarse"]["fraction"] != rep.details["fine"]["fraction"]
        # the estimate is the paired excess of the fine share over the coarse
        excess = shares[1] - shares[0]
        assert rep.estimate == pytest.approx([excess.mean()], rel=1e-12)
        assert rep.stderr == pytest.approx([excess.std(ddof=1) / math.sqrt(n)], rel=1e-12)
        assert rep.estimate[0] == pytest.approx(
            rep.details["fine"]["fraction"] - rep.details["coarse"]["fraction"], rel=1e-12)
        assert rep.z_score == pytest.approx(max(excess.mean(), 0.0) / rep.stderr[0], rel=1e-12)

    @pytest.mark.parametrize("excess, stderr, passed", [
        (0.0, 0.0, True), (-1e-3, 1e-4, True), (2.9e-4, 1e-4, True),
        (3.1e-4, 1e-4, False), (1e-3, 0.0, False)])
    def test_comparison_rule_is_one_sided_on_the_paired_excess(
            self, excess, stderr, passed, monkeypatch):
        ordered = {"fraction": 1e-4, "worst": 0.1, "means_ordered": True,
                   "min_mean_diff": 0.0}
        monkeypatch.setattr(montecarlo, "_comparison_run", lambda *args: (
            ordered, ordered, (np.array([excess]), np.array([stderr]))))
        rep = verify_comparison(jumpy_scenario())
        assert rep.passed is passed
        assert rep.estimate == [excess] and rep.stderr == [stderr]
        assert rep.z_score == (0.0 if excess <= 0 else excess / stderr if stderr
                               else math.inf)

    def test_halving_ratio_runs(self):
        ratios = mean_error_halving_ratio(jumpy_scenario(), seeds=[11, 12],
                                          n_paths=4000, dt=2.0 ** -6)
        assert ratios.shape == (2,)
        assert np.all(ratios > 0)

    def test_report_serialization_omits_runtime(self):
        rep = verify_mean(jumpy_scenario(params=deterministic(), x0=np.array([1.0])))
        blob = rep.to_json()
        assert "runtime_seconds" not in blob
        assert rep.runtime >= 0.0
        assert "PASS" in rep.table() or "FAIL" in rep.table()
