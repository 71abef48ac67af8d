"""Estimators, reductions, determinism and the verification harness."""

import math

import numpy as np
import pytest

from cbi.errors import BudgetExceeded, InvalidConfig, PreconditionViolated
from cbi.measures import DiscreteAtoms
from cbi.montecarlo import (
    BLOCK_SIZE, estimate_laplace_grid, estimate_mean, mean_error_halving_ratio, verify_comparison,
    verify_laplace, verify_mean,
)
from cbi.params import AdmissibleParams
from cbi.riccati import laplace_transform
from cbi.scenarios import Scenario
from cbi.simulate import SimConfig


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
        ratio_check={"seeds": [11, 12], "n_paths": 4000, "dt": 2.0 ** -6},
    )
    settings.update(overrides)
    return Scenario(**settings)


CFG = SimConfig(T=1.0, dt=2.0 ** -6)


class TestEstimateMean:
    def test_deterministic_instance_zero_stderr(self):
        p = deterministic()
        est = estimate_mean(p, [2.0], 1.0, 500, CFG, seed=1)
        assert np.all(est.stderr == 0.0)
        # Euler solution of m' = 0.5 - m from 2.0
        m = 2.0
        for _ in range(64):
            m += (0.5 - m) * 2.0 ** -6
        assert est.value[0] == pytest.approx(m, rel=1e-14)

    def test_deterministic_coordinate_zero_stderr(self):
        # x2 has no diffusion, no jump moves it and no drift flows in from
        # x1: its column is constant across paths, next to a varying x1,
        # within a block and across the merge of two blocks
        nu = DiscreteAtoms(2, [(np.array([0.4, 0.0]), 0.5)])
        mu = DiscreteAtoms(2, [(np.array([0.3, 0.0]), 0.8)])
        p = AdmissibleParams(d=2, c=[0.5, 0.0], beta=[0.3, 0.4],
                             B=[[-1.0, 0.3], [0.0, -0.7]], nu=nu, mu=(mu, None))
        est = estimate_mean(p, [1.0, 2.0], 1.0, BLOCK_SIZE + 100, CFG, seed=4)
        assert est.stderr[1] == 0.0 and est.stderr[0] > 0.0
        m = 2.0
        for _ in range(64):
            m += (0.4 - 0.7 * m) * 2.0 ** -6
        assert est.value[1] == pytest.approx(m, rel=1e-13)

    def test_cir_mean_within_tolerance(self):
        est = estimate_mean(cir(), [1.0], 1.0, 30_000, CFG, seed=5)
        # stationary at 1: e^{-t} x0 + (1 - e^{-t}) beta_tilde = 1
        assert abs(est.value[0] - 1.0) <= 3.0 * est.stderr[0] + 2.0 * CFG.dt

    def test_seed_reproducibility(self):
        a = estimate_mean(cir(), [1.0], 1.0, 5000, CFG, seed=42)
        b = estimate_mean(cir(), [1.0], 1.0, 5000, CFG, seed=42)
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.stderr, b.stderr)

    def test_thread_count_invariance(self):
        one = estimate_mean(cir(), [1.0], 1.0, 10_000, CFG, seed=9, threads=1)
        four = estimate_mean(cir(), [1.0], 1.0, 10_000, CFG, seed=9, threads=4)
        assert np.array_equal(one.value, four.value)
        assert np.array_equal(one.stderr, four.stderr)

    def test_doubling_paths_shrinks_stderr(self):
        small = estimate_mean(cir(), [1.0], 1.0, 20_000, CFG, seed=3)
        big = estimate_mean(cir(), [1.0], 1.0, 40_000, CFG, seed=3)
        ratio = big.stderr[0] / small.stderr[0]
        assert 0.6 <= ratio <= 0.82

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            estimate_mean(cir(), [1.0], 1.0, 10_000, CFG, seed=1, budget=1000)


def laplace_at(p, x0, lam, t, n_paths, seed):
    """One-point estimate_laplace_grid: (value, stderr)."""
    values, stderrs = estimate_laplace_grid(p, x0, [(t, np.array(lam))], n_paths,
                                            CFG, seed=seed)
    return values[0], stderrs[0]


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
        from cbi.params import derive
        der = derive(p)
        n = 40_000
        value, stderr = laplace_at(p, [1.0], [1.0], 1.0, n, seed=21)
        analytic = laplace_transform(p, der, [1.0], [1.0], 1.0)
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
        est = estimate_mean(cir(), x0, 0.0, 100, CFG, seed=2, budget=0)
        assert est.value.tolist() == [1.5] and est.stderr.tolist() == [0.0]
        assert est.value is not x0

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
        with pytest.raises(InvalidConfig, match="components"):
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

    def test_halving_ratio_runs(self):
        ratios = mean_error_halving_ratio(jumpy_scenario())
        assert ratios.shape == (2,)
        assert np.all(ratios > 0)

    def test_report_serialization_omits_runtime(self):
        rep = verify_mean(jumpy_scenario(params=deterministic(), x0=np.array([1.0])))
        blob = rep.to_json()
        assert "runtime_seconds" not in blob
        assert rep.to_json(include_runtime=True)["runtime_seconds"] >= 0.0
        assert "PASS" in rep.table() or "FAIL" in rep.table()
