"""Matrix-exponential first moments."""

import math

import numpy as np
import pytest

from cbi.moments import expm, integrated_expm, mean
from cbi.params import AdmissibleParams, derive
from cbi.riccati import laplace_transform
from cbi.scenarios import load_scenario

from helpers import random_discrete_params


class TestExpmAction:
    """e^{tA} v as the propagator block of integrated_expm and mean apply it."""

    def test_overflow_guard(self):
        # ||t B_tilde|| above the limit, and a finite norm whose result overflows
        p = AdmissibleParams(d=2, c=[0.0, 0.0], beta=[0.0, 0.0], B=np.eye(2) * 1e6,
                             nu=None, mu=(None, None))
        with pytest.raises(OverflowError):
            mean(p, np.ones(2), 1.0)
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.0], B=[[1.0]], nu=None, mu=(None,))
        with pytest.raises(OverflowError), np.errstate(over="ignore"):
            mean(p, [1e300], 400.0)

    def test_accuracy_against_series(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        A *= 10.0 / np.linalg.norm(A, 1)
        v = rng.normal(size=3)
        term = v.copy()
        total = v.copy()
        for k in range(1, 120):
            term = A @ term / k
            total += term
        propagator, _ = integrated_expm(A, 1.0)
        assert np.allclose(propagator @ v, total, rtol=1e-12)


class TestExpm:
    """The numpy Taylor exponential against scipy's, and exact where it can be."""

    def test_matches_scipy_on_random_matrices(self):
        # 1-norms from 1e-3 to 8, so from no squaring up to five; scipy's own
        # error at these norms is about 1e-14 (against a 40-digit reference)
        from scipy.linalg import expm as scipy_expm

        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 6, 8):
            for norm in (1e-3, 0.05, 0.5, 1.5, 3.0, 8.0):
                A = rng.normal(size=(n, n))
                A *= norm / np.linalg.norm(A, 1)
                want = scipy_expm(A)
                assert np.abs(expm(A) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
    def test_matches_scipy_on_scenario_blocks(self, name):
        # the augmented block [[B_tilde, I], [0, 0]] t that mean exponentiates
        from scipy.linalg import expm as scipy_expm

        s = load_scenario(name)
        A = derive(s.params).B_tilde
        d = len(A)
        block = np.zeros((2 * d, 2 * d))
        block[:d, :d] = A
        block[:d, d:] = np.eye(d)
        want = scipy_expm(s.t * block)
        assert np.abs(expm(s.t * block) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
    def test_matches_scipy_where_squaring_dominates(self, name):
        # horizons up to mean's limit ||t B_tilde||_1 = 500, where the block
        # is scaled down by up to 2^13 and squared back as often
        from scipy.linalg import expm as scipy_expm

        A = derive(load_scenario(name).params).B_tilde
        d = len(A)
        block = np.zeros((2 * d, 2 * d))
        block[:d, :d] = A
        block[:d, d:] = np.eye(d)
        for t in (10.0, 100.0, 500.0 / np.linalg.norm(A, 1)):
            want = scipy_expm(t * block)
            assert np.abs(expm(t * block) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_on_zero_diagonal_and_nilpotent_blocks(self, d):
        assert np.array_equal(expm(np.zeros((d, d))), np.eye(d))
        diagonal = np.linspace(-2.0, 1.5, d)
        assert np.array_equal(expm(np.diag(diagonal)), np.diag(np.exp(diagonal)))
        nilpotent = np.zeros((2 * d, 2 * d))
        nilpotent[:d, d:] = np.eye(d)
        want = np.eye(2 * d)
        want[:d, d:] = np.eye(d)
        assert np.array_equal(expm(nilpotent), want)


class TestMean:
    def test_zero_generator_is_linear_in_t(self):
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.7], B=[[0.0]], nu=None, mu=(None,))
        got = mean(p, [2.0], 3.0)
        assert got[0] == pytest.approx(2.0 + 3.0 * 0.7, rel=1e-14)

    def test_scalar_linear_ode(self):
        p = AdmissibleParams(d=1, c=[0.0], beta=[1.0], B=[[-1.0]], nu=None, mu=(None,))
        got = mean(p, [0.0], 1.0)
        assert got[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_t_zero(self):
        rng = np.random.default_rng(4)
        p = random_discrete_params(rng)
        m0 = rng.uniform(0, 2, p.d)
        assert np.array_equal(mean(p, m0, 0.0), m0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            p = random_discrete_params(rng)
            m0 = rng.uniform(0, 2, p.d)
            s, t = rng.uniform(0.1, 1.5, 2)
            direct = mean(p, m0, s + t)
            composed = mean(p, mean(p, m0, t), s)
            assert np.allclose(direct, composed, rtol=1e-10, atol=1e-10)

    def test_componentwise_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_discrete_params(rng)
            m0 = rng.uniform(0, 3, p.d)
            assert np.all(mean(p, m0, rng.uniform(0, 3)) >= -1e-12)

    def test_duality_with_laplace_transform(self):
        # -d/ds log LT(x, s*lam, t) at s=0 equals <lam, mean(x, t)>
        rng = np.random.default_rng(12)
        for _ in range(8):
            p = random_discrete_params(rng)
            x = rng.uniform(0.2, 2.0, p.d)
            lam = rng.uniform(0.3, 1.5, p.d)
            lam /= np.linalg.norm(lam)
            t = rng.uniform(0.2, 1.0)
            s = 1e-5
            up = laplace_transform(p, x, s * lam, t, rtol=1e-11, atol=1e-13)
            down = laplace_transform(p, x, 2 * s * lam, t, rtol=1e-11, atol=1e-13)
            derivative = (math.log(up) - math.log(down)) / s
            want = float(lam @ mean(p, x, t))
            assert derivative == pytest.approx(want, abs=1e-4, rel=1e-4)
