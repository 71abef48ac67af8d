"""Matrix-exponential first moments."""

import math

import numpy as np
import pytest

from cbi.moments import integrated_expm, mean
from cbi.params import AdmissibleParams, derive
from cbi.riccati import laplace_transform

from helpers import random_discrete_params


class TestExpmAction:
    """e^{tA} v as the propagator block of integrated_expm and mean apply it."""

    def test_overflow_guard(self):
        # ||t B_tilde|| above the limit, and a finite norm whose result overflows
        p = AdmissibleParams(d=2, c=[0.0, 0.0], beta=[0.0, 0.0], B=np.eye(2) * 1e6,
                             nu=None, mu=(None, None))
        with pytest.raises(OverflowError):
            mean(p, derive(p), np.ones(2), 1.0)
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.0], B=[[1.0]], nu=None, mu=(None,))
        with pytest.raises(OverflowError), np.errstate(over="ignore"):
            mean(p, derive(p), [1e300], 400.0)

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


class TestMean:
    def test_zero_generator_is_linear_in_t(self):
        p = AdmissibleParams(d=1, c=[0.0], beta=[0.7], B=[[0.0]], nu=None, mu=(None,))
        der = derive(p)
        got = mean(p, der, [2.0], 3.0)
        assert got[0] == pytest.approx(2.0 + 3.0 * 0.7, rel=1e-14)

    def test_scalar_linear_ode(self):
        p = AdmissibleParams(d=1, c=[0.0], beta=[1.0], B=[[-1.0]], nu=None, mu=(None,))
        der = derive(p)
        got = mean(p, der, [0.0], 1.0)
        assert got[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_t_zero(self):
        rng = np.random.default_rng(4)
        p = random_discrete_params(rng)
        m0 = rng.uniform(0, 2, p.d)
        assert np.array_equal(mean(p, derive(p), m0, 0.0), m0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            p = random_discrete_params(rng)
            der = derive(p)
            m0 = rng.uniform(0, 2, p.d)
            s, t = rng.uniform(0.1, 1.5, 2)
            direct = mean(p, der, m0, s + t)
            composed = mean(p, der, mean(p, der, m0, t), s)
            assert np.allclose(direct, composed, rtol=1e-10, atol=1e-10)

    def test_componentwise_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_discrete_params(rng)
            der = derive(p)
            m0 = rng.uniform(0, 3, p.d)
            assert np.all(mean(p, der, m0, rng.uniform(0, 3)) >= -1e-12)

    def test_duality_with_laplace_transform(self):
        # -d/ds log LT(x, s*lam, t) at s=0 equals <lam, mean(x, t)>
        rng = np.random.default_rng(12)
        for _ in range(8):
            p = random_discrete_params(rng)
            der = derive(p)
            x = rng.uniform(0.2, 2.0, p.d)
            lam = rng.uniform(0.3, 1.5, p.d)
            lam /= np.linalg.norm(lam)
            t = rng.uniform(0.2, 1.0)
            s = 1e-5
            up = laplace_transform(p, der, x, s * lam, t, rtol=1e-11, atol=1e-13)
            down = laplace_transform(p, der, x, 2 * s * lam, t, rtol=1e-11, atol=1e-13)
            derivative = (math.log(up) - math.log(down)) / s
            want = float(lam @ mean(p, der, x, t))
            assert derivative == pytest.approx(want, abs=1e-4, rel=1e-4)
