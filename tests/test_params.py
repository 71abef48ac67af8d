"""Parameter validation and derived quantities."""

import dataclasses
import math
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cbi import measures, moments, montecarlo, params, riccati
from cbi.errors import DimensionMismatch, InvalidConfig, PreconditionViolated
from cbi.measures import (
    ALL, LARGE_JUMPS, DiscreteAtoms, MeasureSum, ProductExponential, TemperedPowerLawAxis,
)
from cbi.params import AdmissibleParams, derive, validate
from cbi.scenarios import load_scenario
from cbi.simulate import SimConfig, block_generator, simulate_block, simulate_path

from helpers import origin_refinement_diverges, random_discrete_params


def cir_params():
    return AdmissibleParams(
        d=1, c=[1.0], beta=[1.0], B=[[-1.0]], nu=None, mu=(None,))


class TestValidate:
    def test_pure_cir_ok(self):
        report = validate(cir_params())
        assert report.ok
        assert all(ch.passed for ch in report.checks)

    def test_negative_off_diagonal_named(self):
        p = AdmissibleParams(
            d=2, c=[1.0, 1.0], beta=[0.0, 0.0],
            B=[[0.0, -0.1], [0.0, 0.0]], nu=None, mu=(None, None))
        report = validate(p)
        assert not report.ok
        assert [ch.name for ch in report.failing()] == ["B_essentially_nonnegative"]

    def test_divergent_immigration_tail_named(self):
        nu = TemperedPowerLawAxis(1, 0, alpha=1.5, theta=1.0, scale=1.0)
        p = AdmissibleParams(d=1, c=[1.0], beta=[1.0], B=[[-1.0]], nu=nu, mu=(None,))
        report = validate(p)
        failing = [ch.name for ch in report.failing()]
        assert "nu.small_jump_integrable" in failing

        # independent oracle: shrinking-cutoff refinement on the same integral
        def restricted(a):
            return (nu.norm_moment(measures.Region(a, 1.0))
                    + nu.mass(measures.LARGE_JUMPS))

        assert origin_refinement_diverges(restricted)

    def test_divergent_small_jump_second_moment_named(self):
        mu = TemperedPowerLawAxis(1, 0, alpha=2.5, theta=1.0, scale=1.0)
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]], nu=None, mu=(mu,))
        failing = [ch.name for ch in validate(p).failing()]
        assert "mu[0].small_jump_second_moment" in failing

    def test_divergent_cross_coordinate_named(self):
        mu1 = TemperedPowerLawAxis(2, 1, alpha=1.2, theta=1.0, scale=0.5)
        p = AdmissibleParams(
            d=2, c=[0.0, 0.0], beta=[0.0, 0.0],
            B=[[0.0, 0.0], [0.0, 0.0]], nu=None, mu=(mu1, None))
        failing = [ch.name for ch in validate(p).failing()]
        assert "mu[0].cross_coordinate_integrable[1]" in failing
        assert "mu[0].small_jump_second_moment" not in failing

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            AdmissibleParams(d=2, c=[1.0], beta=[0.0, 0.0],
                             B=[[0.0, 0.0], [0.0, 0.0]], nu=None, mu=(None, None))
        with pytest.raises(DimensionMismatch):
            AdmissibleParams(d=1, c=[1.0], beta=[0.0], B=[[0.0]],
                             nu=DiscreteAtoms(2, [(np.array([1.0, 0.0]), 1.0)]),
                             mu=(None,))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["c", "beta", "B"])
    def test_non_finite_entry_raises(self, field, bad):
        values = {"c": [1.0, 1.0], "beta": [0.5, 0.5], "B": [[-1.0, 0.0], [0.0, -1.0]]}
        target = values[field]
        if field == "B":
            target = target[1]
        target[1] = bad
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            AdmissibleParams(d=2, nu=None, mu=(None, None), **values)

    def test_report_serializes(self):
        report = validate(cir_params())
        blob = report.to_json()
        assert blob["ok"] is True
        assert all("citation" in ch for ch in blob["checks"])


    @pytest.mark.parametrize("nu", [
        # int ||z|| below 1 and the mass above are finite; their sum overflows
        DiscreteAtoms(1, [(np.array([0.9]), 1.7e308), (np.array([1.0]), 1e308)]),
        # int z nu(dz) = 2e308 overflows in the family
        ProductExponential(1e308, [0.5]),
    ], ids=["sum", "family"])
    def test_overflow_raises_without_warning(self, nu):
        p = AdmissibleParams(d=1, c=[1.0], beta=[0.5], B=[[-1.0]], nu=nu, mu=(None,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for compute in (validate, derive):
                with pytest.raises(OverflowError):
                    compute(p)


class TestDerive:
    def test_single_atom_branching(self):
        mu = DiscreteAtoms(1, [(np.array([2.0]), 3.0)])
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]], nu=None, mu=(mu,))
        der = derive(p)
        assert der.B_tilde[0, 0] == pytest.approx(3.0, abs=1e-15)
        assert der.D[0, 0] == pytest.approx(-3.0, abs=1e-15)
        assert der.B_hat[0, 0] == pytest.approx(-3.0, abs=1e-15)

    def test_single_atom_immigration(self):
        nu = DiscreteAtoms(1, [(np.array([1.0]), 2.0)])
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.5], B=[[0.0]], nu=nu, mu=(None,))
        assert derive(p).beta_tilde[0] == pytest.approx(2.5, abs=1e-15)

    def test_empty_measures_identity(self):
        p = cir_params()
        der = derive(p)
        assert np.array_equal(der.beta_tilde, p.beta)
        for m in (der.B_tilde, der.D, der.B_hat, der.drift_matrix):
            assert np.array_equal(m, p.B)

    def test_consistency_identities_exact_families(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = random_discrete_params(rng)
            der = derive(p)
            d = p.d
            for j, m in enumerate(p.mu):
                for i in range(d):
                    large = m.coord(i, LARGE_JUMPS)
                    assert der.D[i, j] + large == pytest.approx(
                        der.B_tilde[i, j], rel=1e-12, abs=1e-12)
                    full = m.coord(i, ALL)
                    if i != j:
                        assert der.B_hat[i, j] + full == pytest.approx(
                            der.B_tilde[i, j], rel=1e-12, abs=1e-12)
            # finite activity: the truncated effective drift is exactly B_hat
            np.testing.assert_allclose(der.drift_matrix, der.B_hat, rtol=0, atol=1e-12)

    def test_derive_deterministic_bitwise(self):
        # two equal tuples built independently: each derives on its own
        a = derive(random_discrete_params(np.random.default_rng(3)))
        b = derive(random_discrete_params(np.random.default_rng(3)))
        assert a is not b
        assert np.array_equal(a.beta_tilde, b.beta_tilde)
        assert np.array_equal(a.B_tilde, b.B_tilde)
        assert np.array_equal(a.D, b.D)
        assert np.array_equal(a.B_hat, b.B_hat)
        assert np.array_equal(a.drift_matrix, b.drift_matrix)

    def test_off_diagonals_of_modified_matrices_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_discrete_params(rng)
            der = derive(p)
            off = ~np.eye(p.d, dtype=bool)
            assert np.all(der.B_tilde[off] >= -1e-15)
            assert np.all(der.D[off] >= -1e-15)
            assert np.all(der.beta_tilde >= p.beta - 1e-15)

    def test_truncation_stats_infinite_activity(self):
        mu = TemperedPowerLawAxis(1, 0, alpha=1.5, theta=2.0, scale=0.4)
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.1], B=[[-0.2]], nu=None, mu=(mu,))
        der = derive(p, eps_trunc=1e-2)
        # own-axis (1 ^ z) integral diverges for alpha >= 1: B_hat is -inf data
        assert der.B_hat[0, 0] == -np.inf
        assert np.isfinite(der.drift_matrix[0, 0])
        assert der.small_jump_mean[0, 0] == np.inf
        assert np.isfinite(der.branching_rates[0])
        # drift column j is B_tilde minus the simulated first moment
        sim = mu.coord(0, measures.above(1e-2))
        assert der.drift_matrix[0, 0] == pytest.approx(der.B_tilde[0, 0] - sim, rel=1e-12)

    def test_leaf_without_simulated_mass_keeps_its_discarded_mean(self):
        p = s3_with_vanishing_leaf()
        leaf = p.mu[0].components()[1]
        assert leaf.mass(measures.above(1e-3)) == 0.0
        der = derive(p)
        assert [part[0] for part in der.branching_parts[0]] == [p.mu[0].components()[0]]
        assert der.small_jump_mean[0, 0] == pytest.approx(
            leaf.coord(0, measures.below(1e-3)), rel=1e-12)
        assert der.small_jump_mean[0, 0] > 0.0


def s3_with_vanishing_leaf():
    """S3's tuple with a tempered leaf added to mu_1 whose mass above the
    default cutoff underflows to 0: the Euler scheme never samples it."""
    p = load_scenario("S3").params
    leaf = TemperedPowerLawAxis(2, 0, alpha=0.5, theta=1e6, scale=1.0)
    return dataclasses.replace(p, mu=(MeasureSum([p.mu[0], leaf]), p.mu[1]))


class TestDeriveCache:
    def test_each_tuple_and_cutoff_derived_once(self, monkeypatch):
        calls = []
        inner = params._derive

        def counted(p, eps_trunc):
            calls.append(eps_trunc)
            time.sleep(1e-3)   # a slow derivation lets the other thread run
            return inner(p, eps_trunc)

        monkeypatch.setattr(params, "_derive", counted)
        derive(s3_with_vanishing_leaf())
        assert len(calls) == 1

        # S3 blocks on two threads, started together, share one derivation
        calls.clear()
        p = s3_with_vanishing_leaf()
        cfg = SimConfig(T=2.0 ** -6, dt=2.0 ** -8)
        start = threading.Barrier(2)

        def block(index):
            start.wait()
            return simulate_block(p, np.tile([4.0, 0.4], (8, 1)), cfg,
                                  block_generator(5, index))

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(block, range(2)))
        assert len(calls) == 1
        assert derive(p) is derive(p)
        assert len(calls) == 1

        # a second cutoff gets its own derivation, once
        coarse = derive(p, 0.05)
        assert coarse is not derive(p) and coarse.eps_trunc == 0.05
        assert calls[1:] == [0.05]
        assert derive(p, 0.05) is coarse
        assert len(calls) == 2

    def test_later_mutation_of_inputs_changes_nothing(self):
        c, beta, B = np.array([1.0]), np.array([0.5]), np.array([[-1.0]])
        p = AdmissibleParams(d=1, c=c, beta=beta, B=B, nu=None, mu=(None,))
        der = derive(p)
        c[0], beta[0], B[0, 0] = 9.0, 9.0, 9.0
        assert (p.c[0], p.beta[0], p.B[0, 0]) == (1.0, 0.5, -1.0)
        assert derive(p) is der
        assert (der.beta_tilde[0], der.B_tilde[0, 0]) == (0.5, -1.0)
        fresh = derive(AdmissibleParams(d=1, c=c, beta=beta, B=B, nu=None, mu=(None,)))
        assert fresh.B_tilde[0, 0] == 9.0
        for field in ("c", "beta", "B"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, field)[0] = 1


class TestSharedInputChecks:
    """Every view checks a state, a lambda, a time and the cutoff by one rule
    each, with one exception type and message per rule."""

    def test_input_errors_are_value_errors(self):
        assert issubclass(InvalidConfig, ValueError)
        assert issubclass(PreconditionViolated, ValueError)

    @pytest.mark.parametrize("state, error, message", [
        ([1.0, math.nan], PreconditionViolated, "must be finite"),
        ([1.0, -math.inf], PreconditionViolated, "must be finite"),
        ([1.0, -0.5], PreconditionViolated, "must be componentwise non-negative"),
        ([1.0], InvalidConfig, r"must have shape \(2,\)"),
        ([[1.0, 0.5]], InvalidConfig, r"must have shape \(2,\)"),
    ])
    def test_every_view_rejects_a_bad_state_alike(self, state, error, message):
        p = load_scenario("S3").params
        cfg = SimConfig(T=0.25, dt=0.03125)
        good = [1.0, 0.5]
        calls = [
            ("m0", lambda: moments.mean(p, state, 1.0)),
            ("x", lambda: riccati.laplace_transform(p, state, good, 1.0)),
            ("lambda", lambda: riccati.laplace_transform(p, good, state, 1.0)),
            ("lambda", lambda: riccati.laplace_grid(p, good, [(1.0, good), (0.5, state)])),
            ("x0", lambda: montecarlo.estimate_mean(p, state, 0.25, 10, cfg, seed=1)),
            ("x0", lambda: simulate_path(p, state, cfg, block_generator(1, 0))),
        ]
        for name, call in calls:
            with pytest.raises(error, match=f"^{name} {message}"):
                call()

    def test_stacks_of_states(self):
        p = load_scenario("S3").params
        cfg = SimConfig(T=0.25, dt=0.03125)
        stack = np.array([[1.0, 0.5], [2.0, 0.0]])
        assert params.check_state("x0", stack, 2, stack=True) is stack
        final, _ = simulate_block(p, stack, cfg, block_generator(1, 0))
        assert final.shape == (2, 2)
        for bad in (np.zeros((0, 2)), np.ones((2, 2, 2)), np.ones((2, 3))):
            with pytest.raises(InvalidConfig, match=r"x0 must have shape \(2,\) or \(m, 2\)"):
                simulate_block(p, bad, cfg, block_generator(1, 0))
            with pytest.raises(InvalidConfig, match="lambda must have shape"):
                riccati.solve_v(p, bad, 1.0)

    @pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_every_view_rejects_a_bad_time_alike(self, t):
        p = load_scenario("S3").params
        good = [1.0, 0.5]
        for name, call in [("t", lambda: moments.mean(p, good, t)),
                           ("t", lambda: riccati.laplace_transform(p, good, good, t)),
                           ("T", lambda: riccati.solve_v(p, good, t))]:
            with pytest.raises(InvalidConfig, match=f"^{name} must be finite and non-negative"):
                call()
        cfg = SimConfig(T=0.25, dt=0.03125)
        with pytest.raises(InvalidConfig, match="is not a non-negative integer multiple of dt"):
            montecarlo.estimate_mean(p, good, t, 10, cfg, seed=1)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, 1.0000001, math.nan, math.inf])
    def test_cutoff_range_is_one_rule(self, eps):
        p = load_scenario("S3").params
        for call in (lambda: derive(p, eps), lambda: SimConfig(T=1.0, dt=0.5, eps_trunc=eps)):
            with pytest.raises(InvalidConfig, match=r"^eps_trunc must lie in \(0, 1\]$"):
                call()
        assert params.check_cutoff(1) == 1.0 and params.check_cutoff(np.float64(0.5)) == 0.5
