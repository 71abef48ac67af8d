"""Riccati flow, mechanisms and Laplace transform."""

import math

import numpy as np
import pytest

from cbi import measures, riccati
from cbi._quadrature import REL_TOL
from cbi.measures import (
    ALL, DiscreteAtoms, MeasureSum, ProductExponential, TemperedPowerLawAxis,
)
from cbi.params import AdmissibleParams, derive
from cbi.riccati import (
    cir_closed_form_v, laplace_grid, laplace_transform, phi, psi, solve_v,
)
from cbi.scenarios import load_scenario

from helpers import (
    cir_log_laplace_oracle, cir_v_oracle, norm_cube_bound, phi_compensated,
    random_discrete_params,
)


def make(d=1, c=(1.0,), beta=(0.0,), B=((-0.0,),), nu=None, mu=None):
    mu = mu if mu is not None else (None,) * d
    return AdmissibleParams(d=d, c=list(c), beta=list(beta), B=[list(r) for r in B],
                            nu=nu, mu=mu)


class TestMechanisms:
    def test_phi_zero_lambda(self):
        p = make(c=(1.0,), B=((-1.0,),))
        assert np.array_equal(phi(p, [0.0]), [0.0])

    def test_phi_scalar_diffusion(self):
        p = make(c=(1.0,), B=((-1.0,),))
        assert phi(p, [2.0])[0] == pytest.approx(6.0, abs=1e-14)

    def test_phi_forms_agree_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_discrete_params(rng)
            lam = rng.uniform(0.0, 4.0, size=p.d)
            a = phi(p, lam)
            b = phi_compensated(p, lam)
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
        sol = solve_v(p, [0.0], T=3.0)
        assert np.all(sol.v == 0.0)
        assert np.all(sol.psi_accum == 0.0)

    def test_pure_quadratic_riccati(self):
        p = make(c=(1.0,), B=((0.0,),))
        lam = 1.0
        sol = solve_v(p, [lam], T=5.0, rtol=1e-10, atol=1e-12)
        for t in (0.1, 1.0, 5.0):
            want = lam / (1.0 + lam * t)
            assert sol.v_at(t)[0] == pytest.approx(want, rel=1e-8)

    def test_linear_flow_without_diffusion(self):
        b = -0.8
        p = make(c=(0.0,), B=((b,),))
        sol = solve_v(p, [2.0], T=2.0, rtol=1e-10, atol=1e-12)
        for t in (0.3, 1.1, 2.0):
            assert sol.v_at(t)[0] == pytest.approx(2.0 * math.exp(b * t), rel=1e-9)

    def test_cir_oracle_grid(self):
        # diffusion-only scalar flows against the closed form
        for c, b in [(1.0, 0.0), (1.0, -1.0), (0.5, 0.3)]:
            p = make(c=(c,), B=((b,),))
            for lam in (0.1, 1.0, 10.0):
                sol = solve_v(p, [lam], T=5.0, rtol=1e-10, atol=1e-12)
                for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                    want = cir_v_oracle(c, b, lam, t)
                    assert sol.v_at(t)[0] == pytest.approx(want, rel=1e-8)

    def test_initial_condition_exact_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_discrete_params(rng)
            lam = rng.uniform(0.0, 3.0, size=p.d)
            sol = solve_v(p, lam, T=2.0)
            assert np.array_equal(sol.v[0], lam)
            assert np.all(sol.v >= 0.0)
            assert np.all(np.diff(sol.psi_accum) >= -1e-12)

    def test_dense_output_continuous_at_nodes(self):
        p = make(c=(1.0,), beta=(0.4,), B=((-0.5,),),
                 nu=DiscreteAtoms(1, [(np.array([0.7]), 0.3)]))
        sol = solve_v(p, [2.0], T=1.5)
        for k in range(1, len(sol.grid) - 1):
            t = sol.grid[k]
            assert sol.v_at(t)[0] == pytest.approx(sol.v[k][0], rel=1e-12, abs=1e-13)
            assert sol.psi_at(t) == pytest.approx(sol.psi_accum[k], rel=1e-12, abs=1e-13)

    def test_flow_property(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            p = random_discrete_params(rng)
            lam = rng.uniform(0.0, 2.0, size=p.d)
            s, t = rng.uniform(0.05, 2.0, size=2)
            v_st = solve_v(p, lam, T=s + t).v_at(s + t)
            v_s = solve_v(p, lam, T=s).v_at(s)
            v_comp = solve_v(p, np.maximum(v_s, 0.0), T=t).v_at(t)
            assert np.max(np.abs(v_st - v_comp)) <= 1e-6

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_discrete_params(rng)
            lam = rng.uniform(0.0, 2.0, size=p.d)
            lam2 = lam + rng.uniform(0.0, 1.5, size=p.d)
            t = rng.uniform(0.1, 2.0)
            v1 = solve_v(p, lam, T=t).v_at(t)
            v2 = solve_v(p, lam2, T=t).v_at(t)
            assert np.all(v2 >= v1 - 1e-9)


class TestLaplaceTransform:
    def test_t_zero(self):
        p = make(c=(1.0,), B=((-1.0,),))
        x, lam = np.array([1.3]), np.array([0.8])
        assert laplace_transform(p, x, lam, 0.0) == math.exp(-1.3 * 0.8)

    def test_conservative(self):
        p = make(c=(1.0,), beta=(0.7,), B=((-1.0,),))
        assert laplace_transform(p, [2.0], [0.0], 1.7) == 1.0

    def test_cir_with_immigration_closed_form(self):
        # c=1, B=0, beta >= 0: -log LT = x lam/(1+lam t) + beta log(1+lam t)
        beta = 0.6
        p = make(c=(1.0,), beta=(beta,), B=((0.0,),))
        x, lam, t = 1.2, 0.9, 2.0
        got = laplace_transform(p, [x], [lam], t, rtol=1e-11, atol=1e-13)
        want = math.exp(-x * lam / (1 + lam * t)) * (1 + lam * t) ** -beta
        assert got == pytest.approx(want, rel=1e-9)

    def test_generic_cir_log_laplace_oracle(self):
        for c, b, beta in [(1.0, -1.0, 1.0), (0.5, 0.3, 0.2), (0.7, 0.0, 0.9)]:
            p = make(c=(c,), beta=(beta,), B=((b,),))
            for (x, lam, t) in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7), (2.0, 0.3, 3.0)]:
                got = laplace_transform(p, [x], [lam], t, rtol=1e-11, atol=1e-13)
                want = math.exp(-cir_log_laplace_oracle(c, b, beta, x, lam, t))
                assert got == pytest.approx(want, rel=1e-8)

    def test_log_laplace_affine_in_x(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_discrete_params(rng)
            lam = rng.uniform(0.1, 2.0, size=p.d)
            t = rng.uniform(0.2, 1.5)
            x1 = rng.uniform(0.0, 2.0, size=p.d)
            x2 = rng.uniform(0.0, 2.0, size=p.d)
            sol = solve_v(p, lam, T=t, rtol=1e-11, atol=1e-13)
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
            val = laplace_transform(p, rng.uniform(0, 3, p.d),
                                    rng.uniform(0, 3, p.d), rng.uniform(0, 2))
            assert 0.0 < val <= 1.0


class TestLaplaceGrid:
    @pytest.mark.parametrize("name", ["S1", "S3", "S4"])
    def test_matches_per_point_transforms(self, name, monkeypatch):
        s = load_scenario(name)
        p = s.params
        solves = []

        def counting_solve_v(*args, **kwargs):
            solves.append(args[2])
            return solve_v(*args, **kwargs)

        monkeypatch.setattr(riccati, "solve_v", counting_solve_v)
        got = laplace_grid(p, s.x0, s.laplace_points, rtol=1e-10, atol=1e-12)
        assert len(solves) == 1   # one stacked solve for the whole grid
        want = [laplace_transform(p, s.x0, lam, t, rtol=1e-10, atol=1e-12)
                for t, lam in s.laplace_points]
        assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_special_points_and_order(self):
        p = make(c=(1.0,), beta=(0.7,), B=((-1.0,),))
        x = [1.3]
        points = [(1.0, [0.5]), (0.0, [0.8]), (0.4, [0.0]), (0.3, [0.5]), (2.0, [0.9])]
        got = laplace_grid(p, x, points)
        assert got[1] == math.exp(-1.3 * 0.8)
        assert got[2] == 1.0
        # every lambda rides on the one solve to the largest t
        for i, (t, lam) in ((0, (1.0, [0.5])), (3, (0.3, [0.5])), (4, (2.0, [0.9]))):
            assert got[i] == pytest.approx(laplace_transform(p, x, lam, t),
                                           rel=1e-9, abs=0)
        with pytest.raises(ValueError):
            laplace_grid(p, x, [(1.0, [0.5]), (-0.1, [0.5])])


def mixed_params():
    """d = 2 with every family: mixtures, product exponentials, a tempered
    immigration leaf and a tempered branching leaf on its own axis."""
    atoms = DiscreteAtoms(2, [(np.array([0.3, 0.1]), 0.4), (np.array([0.0, 1.2]), 0.2)])
    return AdmissibleParams(
        d=2, c=[0.3, 0.0], beta=[0.2, 0.5], B=[[-1.0, 0.3], [0.2, -0.8]],
        nu=MeasureSum([ProductExponential(0.5, [2.0, 3.0]),
                       TemperedPowerLawAxis(2, 0, alpha=0.6, theta=2.0, scale=0.3)]),
        mu=(MeasureSum([atoms, ProductExponential(0.2, [1.0, 4.0])]),
            TemperedPowerLawAxis(2, 1, alpha=1.5, theta=1.0, scale=0.2)))


class TestBatchedFlow:
    def test_stacked_mechanisms_equal_rows(self):
        rng = np.random.default_rng(404)
        instances = [mixed_params()] + [random_discrete_params(rng) for _ in range(20)]
        for p in instances:
            lams = rng.uniform(0.0, 3.0, size=(4, p.d))
            lams[1] = 0.0
            lams[2, 0] = 0.0
            stacked, rows = phi(p, lams), np.array([phi(p, lam) for lam in lams])
            assert stacked.shape == (4, p.d)
            np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-15)
            stacked, rows = psi(p, lams), np.array([psi(p, lam) for lam in lams])
            assert stacked.shape == (4,)
            np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-15)

    def test_grid_matches_per_point_on_random_instances(self):
        rng = np.random.default_rng(2027)
        for _ in range(50):
            p = random_discrete_params(rng)
            x = rng.uniform(0.0, 2.0, size=p.d)
            points = [(float(t), lam) for t, lam in zip(
                rng.uniform(0.05, 2.0, size=3), rng.uniform(0.0, 3.0, size=(3, p.d)))]
            got = laplace_grid(p, x, points, rtol=1e-10, atol=1e-12)
            want = [laplace_transform(p, x, lam, t, rtol=1e-10, atol=1e-12)
                    for t, lam in points]
            assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_stack_rows_solved_as_finely_as_alone(self):
        # every row's error norm gates the shared step, so a stack takes at
        # least the steps of its hardest row
        p = load_scenario("S3").params
        lams = np.array([[0.4, 0.2], [1.0, 0.5], [0.2, 1.0]])
        stacked = solve_v(p, lams, T=1.0, rtol=1e-10, atol=1e-12)
        assert stacked.v.shape == (len(stacked.grid), 3, 2)
        assert stacked.psi_accum.shape == (len(stacked.grid), 3)
        alone = [solve_v(p, lam, T=1.0, rtol=1e-10, atol=1e-12) for lam in lams]
        assert len(stacked.grid) >= max(len(sol.grid) for sol in alone)
        for row, sol in enumerate(alone):
            assert np.array_equal(stacked.v[0, row], lams[row])
            np.testing.assert_allclose(stacked.v_at(0.37)[row], sol.v_at(0.37), rtol=1e-9)
            assert stacked.psi_at(1.0)[row] == pytest.approx(sol.psi_at(1.0), rel=1e-9)

    def test_bad_stack_shapes(self):
        p = load_scenario("S3").params
        for lam in ([[1.0, 0.5, 0.2]], np.zeros((0, 2)), np.ones((2, 2, 2)),
                    [[1.0, -0.5]], [[1.0, np.nan]]):
            with pytest.raises(ValueError, match="lambda"):
                solve_v(p, lam, T=1.0)

    def test_warm_tempered_grid_makes_no_quadrature(self, monkeypatch):
        # the tempered exponents and int (z - 1)^+ are closed-form
        p = mixed_params()
        x = np.array([1.0, 0.5])
        points = [(0.3, [0.5, 0.2]), (0.3, [1.0, 1.0]), (0.15, [0.5, 0.2])]
        laplace_grid(p, x, points)
        calls = []
        quad = measures.quad_strict

        def counting(*args):
            calls.append(args[1:])
            return quad(*args)

        monkeypatch.setattr(measures, "quad_strict", counting)
        got = laplace_grid(p, x, points)
        assert not calls
        want = [laplace_transform(p, x, lam, t) for t, lam in points]
        assert got == pytest.approx(want, rel=1e-7, abs=0)
        assert np.all((got > 0.0) & (got < 1.0))


class TestZeroLambdaIdentities:
    """At lam = 0 the affine transform formula ties the mechanisms to the
    modified drifts of derive (Duffie, Filipovic & Schachermayer, Ann. Appl.
    Probab. 13, 2003): d phi_j / d lam_i (0) = -B_tilde_ij and
    grad psi(0) = beta_tilde. The two sides reach the measures through
    separate code, the exponential integrals and the region integrals."""

    EPS = 1e-4

    @classmethod
    def tolerance(cls, m, ref):
        """Bound on |2 D(eps) - D(2 eps) - f'(0)|, D(h) = f(h) / h, f(0) = 0,
        for f(h) a mechanism along e_i whose jump part integrates against m;
        ref is the derived value of f'(0).

        - Truncation: the Taylor remainders h^3 f^(3)(xi) / 6 leave at most
          eps^2 sup |f^(3)|, and |f^(3)| <= int ||z||^3 m(dz).
        - Rounding: each value carries a few ulps (4u) of the order-one
          terms that cancel in it, 1 plus the finite-activity mass; the
          difference multiplies that by 2.5 / eps.
        - Quadrature (tempered leaves): the relative tolerance REL_TOL of
          both sides, at most 6 REL_TOL |f'(0)|.
        """
        eps = cls.EPS
        leaves = m.components() if m is not None else ()
        mass = sum(leaf.mass(ALL) for leaf in leaves if leaf.is_finite_activity)
        return (eps ** 2 * norm_cube_bound(m)
                + 2.5 * 4.0 * np.finfo(float).eps * (1.0 + mass) / eps
                + 6.0 * REL_TOL * np.abs(ref))

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5", "mixed"])
    def test_jacobians_match_derived_drifts(self, name):
        p = mixed_params() if name == "mixed" else load_scenario(name).params
        d, eps = p.d, self.EPS
        # one-sided steps eps e_i, then 2 eps e_i: one stacked call each
        lam = np.concatenate([eps * np.eye(d), 2.0 * eps * np.eye(d)])
        phis, psis = phi(p, lam), psi(p, lam)
        jac = (2.0 * phis[:d] - 0.5 * phis[d:]) / eps   # [i, j] = d phi_j / d lam_i
        grad = (2.0 * psis[:d] - 0.5 * psis[d:]) / eps
        der = derive(p)
        for j in range(d):
            err = np.abs(jac[:, j] + der.B_tilde[:, j])
            assert np.all(err <= self.tolerance(p.mu[j], der.B_tilde[:, j])), (j, err)
        err = np.abs(grad - der.beta_tilde)
        assert np.all(err <= self.tolerance(p.nu, der.beta_tilde)), err


class TestDenseOutputConsistency:
    def test_quartic_weights_reproduce_node(self):
        # summing the dense polynomial at theta=1 must give the order-5 update
        from cbi.riccati import _B5, _P
        np.testing.assert_allclose(_P.sum(axis=1), _B5, rtol=0, atol=1e-15)
