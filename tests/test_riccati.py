"""Riccati flow, mechanisms and Laplace transform."""

import math

import numpy as np
import pytest

from cbi import riccati
from cbi.measures import DiscreteAtoms
from cbi.params import AdmissibleParams, derive
from cbi.riccati import (
    cir_closed_form_v, laplace_grid, laplace_transform, phi, psi, solve_v,
)
from cbi.scenarios import load_scenario

from helpers import (
    cir_log_laplace_oracle, cir_v_oracle, phi_compensated, random_discrete_params,
)


def make(d=1, c=(1.0,), beta=(0.0,), B=((-0.0,),), nu=None, mu=None):
    mu = mu if mu is not None else (None,) * d
    return AdmissibleParams(d=d, c=list(c), beta=list(beta), B=[list(r) for r in B],
                            nu=nu, mu=mu)


class TestMechanisms:
    def test_phi_zero_lambda(self):
        p = make(c=(1.0,), B=((-1.0,),))
        der = derive(p)
        assert np.array_equal(phi(p, der, [0.0]), [0.0])

    def test_phi_scalar_diffusion(self):
        p = make(c=(1.0,), B=((-1.0,),))
        der = derive(p)
        assert phi(p, der, [2.0])[0] == pytest.approx(6.0, abs=1e-14)

    def test_phi_forms_agree_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_discrete_params(rng)
            der = derive(p)
            lam = rng.uniform(0.0, 4.0, size=p.d)
            a = phi(p, der, lam)
            b = phi_compensated(p, der, lam)
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_psi_values(self):
        p = make(beta=(1.0,))
        assert psi(p, [0.0]) == 0.0
        assert psi(p, [3.0]) == pytest.approx(3.0)
        nu = DiscreteAtoms(1, [(np.array([1.0]), 2.0)])
        p2 = make(beta=(0.0,), nu=nu)
        assert psi(p2, [1.0]) == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-14)


class TestCirClosedForm:
    def test_t_zero(self):
        assert cir_closed_form_v(1.0, -1.0, 0.7, 0.0) == 0.7

    def test_b_zero(self):
        assert cir_closed_form_v(1.0, 0.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_c_zero_linear(self):
        assert cir_closed_form_v(0.0, 0.3, 2.0, 1.5) == pytest.approx(
            2.0 * math.exp(0.45), rel=1e-14)


class TestSolveV:
    def test_zero_lambda_stays_zero(self):
        p = make(c=(1.0,), beta=(0.5,), B=((-1.0,),))
        sol = solve_v(p, derive(p), [0.0], T=3.0)
        assert np.all(sol.v == 0.0)
        assert np.all(sol.psi_accum == 0.0)

    def test_pure_quadratic_riccati(self):
        p = make(c=(1.0,), B=((0.0,),))
        der = derive(p)
        lam = 1.0
        sol = solve_v(p, der, [lam], T=5.0, rtol=1e-10, atol=1e-12)
        for t in (0.1, 1.0, 5.0):
            want = lam / (1.0 + lam * t)
            assert sol.v_at(t)[0] == pytest.approx(want, rel=1e-8)

    def test_linear_flow_without_diffusion(self):
        b = -0.8
        p = make(c=(0.0,), B=((b,),))
        sol = solve_v(p, derive(p), [2.0], T=2.0, rtol=1e-10, atol=1e-12)
        for t in (0.3, 1.1, 2.0):
            assert sol.v_at(t)[0] == pytest.approx(2.0 * math.exp(b * t), rel=1e-9)

    def test_cir_oracle_grid(self):
        # diffusion-only scalar flows against the closed form
        for c, b in [(1.0, 0.0), (1.0, -1.0), (0.5, 0.3)]:
            p = make(c=(c,), B=((b,),))
            der = derive(p)
            for lam in (0.1, 1.0, 10.0):
                sol = solve_v(p, der, [lam], T=5.0, rtol=1e-10, atol=1e-12)
                for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                    want = cir_v_oracle(c, b, lam, t)
                    assert sol.v_at(t)[0] == pytest.approx(want, rel=1e-8)

    def test_initial_condition_exact_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_discrete_params(rng)
            der = derive(p)
            lam = rng.uniform(0.0, 3.0, size=p.d)
            sol = solve_v(p, der, lam, T=2.0)
            assert np.array_equal(sol.v[0], lam)
            assert np.all(sol.v >= 0.0)
            assert np.all(np.diff(sol.psi_accum) >= -1e-12)

    def test_dense_output_continuous_at_nodes(self):
        p = make(c=(1.0,), beta=(0.4,), B=((-0.5,),),
                 nu=DiscreteAtoms(1, [(np.array([0.7]), 0.3)]))
        sol = solve_v(p, derive(p), [2.0], T=1.5)
        for k in range(1, len(sol.grid) - 1):
            t = sol.grid[k]
            assert sol.v_at(t)[0] == pytest.approx(sol.v[k][0], rel=1e-12, abs=1e-13)
            assert sol.psi_at(t) == pytest.approx(sol.psi_accum[k], rel=1e-12, abs=1e-13)

    def test_flow_property(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            p = random_discrete_params(rng)
            der = derive(p)
            lam = rng.uniform(0.0, 2.0, size=p.d)
            s, t = rng.uniform(0.05, 2.0, size=2)
            v_st = solve_v(p, der, lam, T=s + t).v_at(s + t)
            v_s = solve_v(p, der, lam, T=s).v_at(s)
            v_comp = solve_v(p, der, np.maximum(v_s, 0.0), T=t).v_at(t)
            assert np.max(np.abs(v_st - v_comp)) <= 1e-6

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_discrete_params(rng)
            der = derive(p)
            lam = rng.uniform(0.0, 2.0, size=p.d)
            lam2 = lam + rng.uniform(0.0, 1.5, size=p.d)
            t = rng.uniform(0.1, 2.0)
            v1 = solve_v(p, der, lam, T=t).v_at(t)
            v2 = solve_v(p, der, lam2, T=t).v_at(t)
            assert np.all(v2 >= v1 - 1e-9)


class TestLaplaceTransform:
    def test_t_zero(self):
        p = make(c=(1.0,), B=((-1.0,),))
        der = derive(p)
        x, lam = np.array([1.3]), np.array([0.8])
        assert laplace_transform(p, der, x, lam, 0.0) == math.exp(-1.3 * 0.8)

    def test_conservative(self):
        p = make(c=(1.0,), beta=(0.7,), B=((-1.0,),))
        der = derive(p)
        assert laplace_transform(p, der, [2.0], [0.0], 1.7) == 1.0

    def test_cir_with_immigration_closed_form(self):
        # c=1, B=0, beta >= 0: -log LT = x lam/(1+lam t) + beta log(1+lam t)
        beta = 0.6
        p = make(c=(1.0,), beta=(beta,), B=((0.0,),))
        der = derive(p)
        x, lam, t = 1.2, 0.9, 2.0
        got = laplace_transform(p, der, [x], [lam], t, rtol=1e-11, atol=1e-13)
        want = math.exp(-x * lam / (1 + lam * t)) * (1 + lam * t) ** -beta
        assert got == pytest.approx(want, rel=1e-9)

    def test_generic_cir_log_laplace_oracle(self):
        for c, b, beta in [(1.0, -1.0, 1.0), (0.5, 0.3, 0.2), (0.7, 0.0, 0.9)]:
            p = make(c=(c,), beta=(beta,), B=((b,),))
            der = derive(p)
            for (x, lam, t) in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7), (2.0, 0.3, 3.0)]:
                got = laplace_transform(p, der, [x], [lam], t, rtol=1e-11, atol=1e-13)
                want = math.exp(-cir_log_laplace_oracle(c, b, beta, x, lam, t))
                assert got == pytest.approx(want, rel=1e-8)

    def test_log_laplace_affine_in_x(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_discrete_params(rng)
            der = derive(p)
            lam = rng.uniform(0.1, 2.0, size=p.d)
            t = rng.uniform(0.2, 1.5)
            x1 = rng.uniform(0.0, 2.0, size=p.d)
            x2 = rng.uniform(0.0, 2.0, size=p.d)
            sol = solve_v(p, der, lam, T=t, rtol=1e-11, atol=1e-13)
            v_t, accum = sol.v[-1], sol.psi_accum[-1]

            def neg_log(x):
                return float(x @ v_t) + accum

            lhs = neg_log(x1 + x2)
            rhs = neg_log(x1) + neg_log(x2) - neg_log(np.zeros(p.d))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_discrete_params(rng)
            der = derive(p)
            val = laplace_transform(p, der, rng.uniform(0, 3, p.d),
                                    rng.uniform(0, 3, p.d), rng.uniform(0, 2))
            assert 0.0 < val <= 1.0


class TestLaplaceGrid:
    @pytest.mark.parametrize("name", ["S1", "S3", "S4"])
    def test_matches_per_point_transforms(self, name, monkeypatch):
        s = load_scenario(name)
        p, der = s.params, s.derived()
        solves = []

        def counting_solve_v(*args, **kwargs):
            solves.append(args[2])
            return solve_v(*args, **kwargs)

        monkeypatch.setattr(riccati, "solve_v", counting_solve_v)
        got = laplace_grid(p, der, s.x0, s.laplace_points, rtol=1e-10, atol=1e-12)
        distinct = {np.asarray(lam, dtype=float).tobytes() for _, lam in s.laplace_points}
        assert len(solves) == len(distinct)
        want = [laplace_transform(p, der, s.x0, lam, t, rtol=1e-10, atol=1e-12)
                for t, lam in s.laplace_points]
        assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_special_points_and_order(self):
        p = make(c=(1.0,), beta=(0.7,), B=((-1.0,),))
        der = derive(p)
        x = [1.3]
        points = [(1.0, [0.5]), (0.0, [0.8]), (0.4, [0.0]), (0.3, [0.5]), (2.0, [0.9])]
        got = laplace_grid(p, der, x, points)
        assert got[1] == math.exp(-1.3 * 0.8)
        assert got[2] == 1.0
        # the largest t of a lambda is read at the end of its solve
        assert got[0] == laplace_transform(p, der, x, [0.5], 1.0)
        assert got[4] == laplace_transform(p, der, x, [0.9], 2.0)
        assert got[3] == pytest.approx(laplace_transform(p, der, x, [0.5], 0.3),
                                       rel=1e-9, abs=0)
        with pytest.raises(ValueError):
            laplace_grid(p, der, x, [(1.0, [0.5]), (-0.1, [0.5])])


class TestDenseOutputConsistency:
    def test_quartic_weights_reproduce_node(self):
        # summing the dense polynomial at theta=1 must give the order-5 update
        from cbi.riccati import _B5, _P
        np.testing.assert_allclose(_P.sum(axis=1), _B5, rtol=0, atol=1e-15)
