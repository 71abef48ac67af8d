"""Parameter validation and derived quantities."""

import numpy as np
import pytest

from cbi import measures
from cbi.errors import DimensionMismatch
from cbi.measures import DiscreteAtoms, MomentKind, TemperedPowerLawAxis
from cbi.params import AdmissibleParams, derive, validate

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

    def test_report_serializes(self):
        report = validate(cir_params())
        blob = report.to_json()
        assert blob["ok"] is True
        assert all("citation" in ch for ch in blob["checks"])


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
                    large = measures.moment_integral(m, MomentKind.COORD_LARGE, i)
                    assert der.D[i, j] + large == pytest.approx(
                        der.B_tilde[i, j], rel=1e-12, abs=1e-12)
                    full = measures.moment_integral(m, MomentKind.COORD, i)
                    if i != j:
                        assert der.B_hat[i, j] + full == pytest.approx(
                            der.B_tilde[i, j], rel=1e-12, abs=1e-12)
            # finite activity: the truncated effective drift is exactly B_hat
            np.testing.assert_allclose(der.drift_matrix, der.B_hat, rtol=0, atol=1e-12)

    def test_derive_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        p = random_discrete_params(rng)
        a, b = derive(p), derive(p)
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
