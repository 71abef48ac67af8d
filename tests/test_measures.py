"""Measure families: exact sums, closed forms, quadrature and sampling."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cbi import measures
from cbi.errors import EmptyRegion, InfiniteMass, QuadratureFailure
from cbi.measures import (
    ALL, LARGE_JUMPS, SMALL_JUMPS, DiscreteAtoms, MeasureSum,
    ProductExponential, Region, TemperedPowerLawAxis, above, below,
)
from cbi.params import derive, validate
from cbi.scenarios import load_scenario

from helpers import (
    origin_refinement_diverges, product_exp_shell_mass_2d, product_exp_shell_oracle_2d,
    tempered_closed_forms,
    tempered_exponent_by_quadrature, tempered_power_oracle, tpl_radial_oracle,
)

INF = math.inf

# a few integrals at the package's quadrature policy (relative 1e-10,
# absolute 1e-12 per angular quadrature) are summed in each identity
SHELL_REL, SHELL_ABS = 1e-9, 1e-11
SHELL_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def product_exponentials(draw, dim):
    r = draw(st.floats(0.1, 5.0))
    theta = draw(st.lists(st.floats(0.2, 20.0), min_size=dim, max_size=dim))
    return ProductExponential(r, theta)


def atom1(z, w, dim=1):
    loc = np.zeros(dim)
    loc[0] = z
    return DiscreteAtoms(dim, [(loc, w)])


class TestTotalMass:
    def test_single_atom_large_jumps(self):
        assert atom1(2.0, 3.0).mass(LARGE_JUMPS) == 3.0

    def test_product_exponential_all(self):
        m = ProductExponential(5.0, [1.0])
        assert m.mass(ALL) == 5.0

    def test_tempered_power_law_above_eps_vs_simpson(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1.0)
        got = m.mass(above(0.01))
        want = tpl_radial_oracle(0.5, 1.0, 1.0, lambda z: np.ones_like(z), 0.01, np.inf)
        assert got == pytest.approx(want, rel=1e-8)

    def test_infinite_at_origin(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1.0)
        assert m.mass(ALL) == np.inf
        assert m.mass(SMALL_JUMPS) == np.inf


# the paper's kinked integrals, composed from the region integrals
def one_wedge_norm(m):
    """int (1 ^ ||z||) m(dz)"""
    return m.norm_moment(SMALL_JUMPS) + m.mass(LARGE_JUMPS)


def norm_sq_wedge_norm(m):
    """int (||z|| ^ ||z||^2) m(dz)"""
    return m.norm_sq_moment(SMALL_JUMPS) + m.norm_moment(LARGE_JUMPS)


class TestMomentIntegral:
    def test_excess_over_one_single_atom(self):
        m = atom1(2.0, 3.0)
        got = m.excess_over_one(0)
        assert got == (2.0 - 1.0) * 3.0

    def test_excess_over_one_per_coordinate(self):
        # a leaf has no mass off its axis; a mixture sums its components
        leaf = TemperedPowerLawAxis(2, 1, alpha=0.5, theta=2.0, scale=1.0)
        atoms = DiscreteAtoms(2, [(np.array([2.5, 0.5]), 2.0)])
        expo = ProductExponential(2.0, [0.5, 4.0])
        assert leaf.excess_over_one(0) == 0.0
        assert atoms.excess_over_one(0) == 3.0 and atoms.excess_over_one(1) == 0.0
        assert expo.excess_over_one(1) == 2.0 * math.exp(-4.0) / 4.0
        mix = MeasureSum([leaf, atoms, expo])
        for i in range(2):
            assert mix.excess_over_one(i) == sum(
                m.excess_over_one(i) for m in (leaf, atoms, expo))

    def test_norm_sq_small_single_atom(self):
        m = atom1(0.5, 1.0)
        assert m.norm_sq_moment(SMALL_JUMPS) == 0.25

    def test_coord_off_axis_vanishes(self):
        m = TemperedPowerLawAxis(2, 1, alpha=0.5, theta=2.0, scale=1.0)
        assert m.coord(0, ALL) == 0.0
        atoms = DiscreteAtoms(2, [(np.array([0.0, 1.5]), 2.0)])
        assert atoms.coord(0, ALL) == 0.0

    def test_divergent_kinds_return_inf(self):
        # immigration-style tail: (1 ^ ||z||) diverges once alpha >= 1
        m = TemperedPowerLawAxis(1, 0, alpha=1.5, theta=1.0, scale=1.0)
        assert one_wedge_norm(m) == np.inf
        assert m.coord(0, ALL) == np.inf
        # own-axis second moment stays finite below alpha = 2
        assert np.isfinite(m.norm_sq_moment(SMALL_JUMPS))
        m2 = TemperedPowerLawAxis(1, 0, alpha=2.5, theta=1.0, scale=1.0)
        assert m2.norm_sq_moment(SMALL_JUMPS) == np.inf

    def test_divergence_matches_refinement_probe(self):
        # the shrinking-cutoff probe is the independent oracle for +inf results
        for alpha, wedge in [(1.5, True), (2.5, False), (0.5, True)]:
            m = TemperedPowerLawAxis(1, 0, alpha=alpha, theta=1.0, scale=1.0)

            def restricted(a, _m=m, _wedge=wedge):
                if _wedge:
                    return (_m.norm_moment(measures.Region(a, 1.0))
                            + _m.mass(LARGE_JUMPS))
                return _m.norm_sq_moment(measures.Region(a, 1.0))

            diverges = origin_refinement_diverges(restricted)
            value = one_wedge_norm(m) if wedge else m.norm_sq_moment(SMALL_JUMPS)
            assert diverges == bool(np.isinf(value))


class TestQuadratureAgainstSimpson:
    """Finite moment kinds agree with a brute-force Simpson oracle to 1e-6."""

    def test_tempered_power_law_all_finite_kinds(self):
        alpha, theta, scale = 0.6, 1.3, 0.7
        m = TemperedPowerLawAxis(1, 0, alpha=alpha, theta=theta, scale=scale)
        # (integral, integrand on its support, support bounds)
        cases = [
            (one_wedge_norm(m), lambda z: np.minimum(1.0, z), 0.0, np.inf),
            (m.norm_moment(LARGE_JUMPS), lambda z: z, 1.0, np.inf),
            (m.coord(0, ALL), lambda z: z, 0.0, np.inf),
            (m.norm_sq_moment(SMALL_JUMPS), lambda z: z * z, 0.0, 1.0),
            (norm_sq_wedge_norm(m), lambda z: np.minimum(z, z * z), 0.0, np.inf),
        ]
        for k, (got, g, lo, hi) in enumerate(cases):
            want = tpl_radial_oracle(alpha, theta, scale, g, lo, hi)
            assert got == pytest.approx(want, rel=1e-6), k

    def test_product_exponential_1d_closed_forms(self):
        r, th = 0.9, 1.7
        m = ProductExponential(r, [th])
        cases = [
            (one_wedge_norm(m), lambda z: np.minimum(1.0, z), 0.0, None),
            (m.norm_moment(LARGE_JUMPS), lambda z: z, 1.0, None),
            (m.coord(0, SMALL_JUMPS), lambda z: z, 0.0, 1.0),
            (m.one_wedge_coord(0), lambda z: np.minimum(1.0, z), 0.0, None),
            (m.norm_sq_moment(SMALL_JUMPS), lambda z: z * z, 0.0, 1.0),
        ]
        for k, (got, g, lo, hi) in enumerate(cases):
            want = simpson_exp(r, th, g, lo, hi)
            assert got == pytest.approx(want, rel=1e-6), k

    def test_product_exponential_2d_norm_kinds(self):
        r, theta = 1.4, (1.1, 2.3)
        m = ProductExponential(r, theta)
        got = m.norm_sq_moment(SMALL_JUMPS)
        want = product_exp_shell_oracle_2d(
            r, theta, lambda a, b: a * a + b * b, 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-6)
        got = m.coord(0, LARGE_JUMPS)
        want = product_exp_shell_oracle_2d(r, theta, lambda a, b: a, 1.0, np.inf)
        assert got == pytest.approx(want, rel=1e-6)
        got = m.norm_moment(LARGE_JUMPS)
        want = product_exp_shell_oracle_2d(
            r, theta, lambda a, b: np.hypot(a, b), 1.0, np.inf)
        assert got == pytest.approx(want, rel=1e-6)
        got = m.mass(SMALL_JUMPS)
        want = product_exp_shell_oracle_2d(
            r, theta, lambda a, b: np.ones_like(a), 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-6)
        for region in (SMALL_JUMPS, ALL):
            got = m.norm_moment(region)
            want = product_exp_shell_oracle_2d(
                r, theta, lambda a, b: np.hypot(a, b), region.lo, region.hi)
            assert got == pytest.approx(want, rel=1e-6), region
        for i in range(2):
            got = m.coord(i, SMALL_JUMPS)
            want = product_exp_shell_oracle_2d(
                r, theta, lambda a, b, _i=i: (a, b)[_i], 0.0, 1.0)
            assert got == pytest.approx(want, rel=1e-6), i


class TestProductExponentialShells:
    """Norm-shell integrals of the product-exponential family."""

    def test_s3_large_jump_norm_moment_reference(self):
        # 30-digit mpmath polar quadrature of int ||z|| 1{||z||>=1} nu(dz)
        m = ProductExponential(0.5, [10.0, 10.0])
        assert m.norm_moment(LARGE_JUMPS) == pytest.approx(
            5.7514292283365708e-05, rel=1e-12, abs=0.0)

    def test_extreme_shells_keep_relative_accuracy(self):
        # Taylor expansions at the origin and exact exponentials in the tail
        r, th, h = 0.7, 1.3, 1e-5
        m1 = ProductExponential(r, [th])
        assert m1.mass(below(h)) == pytest.approx(
            -r * math.expm1(-th * h), rel=1e-13, abs=0.0)
        x = th * h
        assert m1.norm_sq_moment(below(h)) == pytest.approx(
            r * th * h ** 3 / 3.0 * (1.0 - 0.75 * x + 0.3 * x * x), rel=1e-12, abs=0.0)
        assert m1.mass(above(30.0)) == pytest.approx(
            r * math.exp(-30.0 * th), rel=1e-13, abs=0.0)
        assert m1.mass(measures.Region(20.0, 21.0)) == pytest.approx(
            -r * math.exp(-20.0 * th) * math.expm1(-th), rel=1e-13, abs=0.0)
        theta = np.array([1.1, 2.3])
        m2 = ProductExponential(r, theta)
        quarter_disk = (math.pi / 4.0 * h ** 2 - theta.sum() * h ** 3 / 3.0
                        + (math.pi / 4.0 * theta @ theta + theta.prod()) * h ** 4 / 8.0)
        assert m2.mass(below(h)) == pytest.approx(
            r * theta.prod() * quarter_disk, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @SHELL_SETTINGS
    @given(data=st.data())
    def test_complementary_regions(self, dim, data):
        m = data.draw(product_exponentials(dim))
        i = data.draw(st.integers(0, dim - 1))
        r, theta = m.r, m.theta
        assert m.mass(SMALL_JUMPS) + m.mass(LARGE_JUMPS) == pytest.approx(
            r, rel=SHELL_REL, abs=SHELL_ABS)
        assert m.coord(i, SMALL_JUMPS) + m.coord(i, LARGE_JUMPS) == pytest.approx(
            r / theta[i], rel=SHELL_REL, abs=SHELL_ABS)
        second = r * float(np.sum(2.0 / theta ** 2))
        assert m.norm_sq_moment(ALL) == pytest.approx(second, rel=SHELL_REL)
        assert m.norm_sq_moment(SMALL_JUMPS) + m.norm_sq_moment(LARGE_JUMPS) == \
            pytest.approx(second, rel=SHELL_REL, abs=SHELL_ABS)

    @pytest.mark.parametrize("dim", [2, 3])
    @SHELL_SETTINGS
    @given(data=st.data())
    def test_shell_additivity(self, dim, data):
        m = data.draw(product_exponentials(dim))
        lo, mid, hi = data.draw(
            st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3, unique=True).map(sorted))
        i = data.draw(st.integers(0, dim - 1))
        f = data.draw(st.sampled_from([
            m.mass, m.norm_moment, m.norm_sq_moment, lambda reg: m.coord(i, reg)]))
        split = f(measures.Region(lo, mid)) + f(measures.Region(mid, hi))
        assert split == pytest.approx(
            f(measures.Region(lo, hi)), rel=SHELL_REL, abs=SHELL_ABS)

    # the rate against 2 on the other axis: 10^4 and above read about 0
    # through one unbroken angular rule
    FAR_RATES = [1.0, 2.0, 50.0, 1e3, 1e4, 1e5, 1e6, 1e10, 1e20, 1e50, 1e100,
                 1e150, 1e200, 1e300, 1e308]
    REGION_KINDS = [SMALL_JUMPS, LARGE_JUMPS, above(1e-3), above(0.05), above(2.0),
                    below(1e-3), below(0.05), measures.Region(0.3, 3.0)]

    @pytest.mark.parametrize("first", [True, False], ids=["large-first", "large-second"])
    @pytest.mark.parametrize("rate", FAR_RATES)
    @pytest.mark.filterwarnings("error")
    def test_far_apart_rates_match_reference(self, rate, first):
        # every shell mass meets the quadrature policy against the scaled
        # one-dimensional reference, or fails as a numeric error (exit 4):
        # a^s overflows from about 1e154 on
        theta = [rate, 2.0] if first else [2.0, rate]
        m = ProductExponential(1.5, theta)
        masses = {}
        for region in self.REGION_KINDS:
            try:
                got = m.mass(region)
            except OverflowError:
                assert rate > 1e150
                continue
            want = product_exp_shell_mass_2d(1.5, theta, region.lo, region.hi)
            assert abs(got - want) <= max(1e-12, 1e-10 * want), region
            masses[region] = got
        if SMALL_JUMPS in masses and LARGE_JUMPS in masses:
            assert masses[SMALL_JUMPS] + masses[LARGE_JUMPS] == pytest.approx(
                1.5, rel=1e-10, abs=0.0)

    def test_far_apart_rates_in_three_dimensions(self):
        # the product rule takes rates 1e3 and 1e9 apart, a break point per
        # decade on both angles
        flat = ProductExponential(1.5, [2.0, 2.0])
        for rate, rel in ((1e3, 1e-5), (1e9, 1e-9)):
            m = ProductExponential(1.5, [2.0, rate, 2.0])
            assert m.mass(SMALL_JUMPS) + m.mass(LARGE_JUMPS) == pytest.approx(
                1.5, rel=1e-10, abs=0.0)
            # the limit of a vanishing middle coordinate, whose mean is 1 / rate
            assert m.mass(LARGE_JUMPS) == pytest.approx(flat.mass(LARGE_JUMPS), rel=rel)
        # 303 pieces per angle: the first rule alone exceeds the node budget
        with pytest.raises(QuadratureFailure, match="budget"):
            ProductExponential(1.5, [2.0, 1e300, 2.0]).mass(LARGE_JUMPS)

    @pytest.mark.parametrize("rate", [1e80, 1e150, 1e300])
    @pytest.mark.filterwarnings("error")
    def test_huge_rate_moments_reach_their_limit(self, rate):
        # as theta_0 -> inf the measure sits on the z_1 axis with density
        # r 2 e^(-2 z_1); a^s overflows on most nodes, where the weight is
        # below 1e-150 of its peak
        m = ProductExponential(1.0, [rate, 2.0])
        nodes, weights = np.polynomial.legendre.leggauss(40)
        z = 0.5 * (nodes + 1.0)
        density = weights * np.exp(-2.0 * z)

        def on_unit(p):
            return float(density @ z ** p)

        assert m.mass(SMALL_JUMPS) == pytest.approx(-math.expm1(-2.0), rel=1e-13)
        assert m.norm_moment(SMALL_JUMPS) == pytest.approx(on_unit(1), rel=1e-13)
        assert m.norm_sq_moment(SMALL_JUMPS) == pytest.approx(on_unit(2), rel=1e-13)
        assert m.norm_moment(LARGE_JUMPS) == pytest.approx(0.5 - on_unit(1), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_one_dimensional_extreme_rates(self):
        # on one axis the shells are elementary: int_1^inf z theta
        # e^(-theta z) dz = (1 + theta) e^(-theta) / theta
        tiny, huge = ProductExponential(1.0, [1e-200]), ProductExponential(1.0, [1e200])
        assert tiny.norm_moment(LARGE_JUMPS) == pytest.approx(1e200, rel=1e-14)
        assert tiny.mass(LARGE_JUMPS) == 1.0
        assert tiny.norm_sq_moment(SMALL_JUMPS) == pytest.approx(1e-200 / 3.0, rel=1e-14)
        with pytest.raises(OverflowError):
            tiny.norm_sq_moment(LARGE_JUMPS)
        assert huge.norm_moment(LARGE_JUMPS) == 0.0
        # 2 / theta^2 underflows
        assert huge.norm_sq_moment(SMALL_JUMPS) == 0.0

    def test_tiny_rate_small_jump_shells(self):
        # a rate of 1e-200 makes a^s underflow near its face; the lower-tail
        # shells are formed without it and keep their value, about 1e-200:
        # to first order in theta_0 the mass on the unit quarter disk is
        # r theta_0 int_0^(pi/2) theta_1 e^(-theta_1 sin t) cos^2 t dt
        m = ProductExponential(1.0, [1e-200, 2.0])
        got = m.mass(SMALL_JUMPS)
        nodes, weights = np.polynomial.legendre.leggauss(60)
        t = (nodes + 1.0) * math.pi / 4.0
        first_order = 1e-200 * math.pi / 4.0 * float(
            weights @ (2.0 * np.exp(-2.0 * np.sin(t)) * np.cos(t) ** 2))
        assert got == pytest.approx(first_order, rel=1e-12, abs=0.0)
        want = product_exp_shell_mass_2d(1.0, [1e-200, 2.0], 0.0, 1.0)
        assert abs(got - want) <= max(1e-12, 1e-10 * want)
        for region in (SMALL_JUMPS, below(0.05), measures.Region(0.3, 3.0)):
            for value in (m.mass(region), m.norm_moment(region), m.norm_sq_moment(region)):
                assert 0.0 < value < 1e-198, region

    def test_s3_setup_uses_angular_quadrature_only(self, monkeypatch):
        # shell integrals must stay (d-1)-dimensional, never d-dimensional
        scenario = load_scenario("S3")
        dim = scenario.params.d
        calls = []
        nquad_strict = measures.nquad_strict

        def guarded(fn, ranges, points=None):
            assert len(ranges) == dim - 1
            calls.append(len(ranges))
            return nquad_strict(fn, ranges, points)

        monkeypatch.setattr(measures, "nquad_strict", guarded)
        assert validate(scenario.params).ok
        derive(scenario.params, scenario.eps_trunc)
        assert calls


def simpson_exp(r, theta, g, lo=0.0, hi=None):
    from helpers import simpson

    upper = hi if hi is not None else 80.0 / theta

    def f(z):
        return g(z) * r * theta * np.exp(-theta * z)

    return simpson(f, lo, upper, 40001)


@st.composite
def tempered_rows(draw):
    """A tempered leaf on axis 0 of d = 2 with one to three own-axis entries
    la: alpha across (0, 2), with 1 and 1 +- 1e-9, theta and la / theta
    across decades."""
    alpha = draw(st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9])
                 | st.integers(1, 99).map(lambda k: k / 50))
    theta = 10.0 ** draw(st.floats(-2.0, 4.0))
    las = [theta * 10.0 ** draw(st.floats(-4.0, 4.0))
           for _ in range(draw(st.integers(1, 3)))]
    return TemperedPowerLawAxis(2, 0, alpha=alpha, theta=theta, scale=0.7), las


class TestTemperedClosedForms:
    """A tempered leaf against the tempered-stable closed forms, down to
    tempering scales 1/theta far below the unit split, and its closed-form
    exponents against quadrature of their integrands."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tempered_rows())
    def test_exponents_match_quadrature(self, case):
        leaf, las = case
        a = leaf.alpha
        stack = np.array([[la, 0.3] for la in las])
        exponents = {
            "full": leaf.exp_branching_full,
            "immigration": leaf.exp_immigration,
            "branching_own": lambda lam: leaf.exp_branching(lam, 0),
            "branching_cross": lambda lam: leaf.exp_branching(lam, 1),
        }
        for kind, fn in exponents.items():
            got = fn(stack)
            assert got.shape == (len(las),)
            for row, value in zip(stack, got):
                alone = fn(row)
                assert np.ndim(alone) == 0
                assert alone == pytest.approx(value, rel=1e-14)
                la = row[0]
                # quadrature cannot resolve z^(-1-alpha) at alpha just below 1
                if kind in ("immigration", "branching_cross") and 0.995 < a < 1.0:
                    continue
                want = tempered_exponent_by_quadrature(leaf, kind, la)
                if math.isinf(want):
                    assert value == want
                    continue
                # the own-axis exponent is a difference of two positive parts
                size = abs(want)
                if kind == "branching_own":
                    size = (tempered_exponent_by_quadrature(leaf, "full", la)
                            + la * leaf.excess_over_one(0))
                assert abs(value - want) <= 1e-9 * size
                if abs(a - 1.0) >= 0.01 and kind != "full":
                    exact = tempered_closed_forms(a, leaf.theta, 0.7, la)[kind]
                    assert value == pytest.approx(exact, rel=1e-8)

    def test_zero_rows_and_divergent_exponents(self):
        lam = np.array([[0.0, 1.0], [2.0, 1.0]])
        stable = TemperedPowerLawAxis(2, 0, alpha=1.5, theta=1.0, scale=0.7)
        assert stable.exp_immigration(lam).tolist() == [0.0, math.inf]
        assert stable.exp_branching(lam, 1).tolist() == [0.0, -math.inf]
        assert stable.exp_branching_full(lam)[0] == 0.0
        assert stable.exp_branching(lam, 0)[0] == 0.0
        heavy = TemperedPowerLawAxis(2, 0, alpha=2.5, theta=1.0, scale=0.7)
        for fn in (heavy.exp_branching_full, lambda lam: heavy.exp_branching(lam, 0)):
            assert fn(lam).tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("theta", [1.0, 1e2, 1e4, 1e6])
    def test_matches_closed_forms(self, alpha, theta):
        m = TemperedPowerLawAxis(2, 0, alpha=alpha, theta=theta, scale=0.7)
        lams = (0.5, 3.0)
        want = [tempered_closed_forms(alpha, theta, 0.7, la) for la in lams]

        def close(got, exact):
            assert got == pytest.approx(exact, rel=1e-10, abs=0)

        close(m.coord(0, SMALL_JUMPS), want[0]["coord_small"])
        close(m.coord(0, LARGE_JUMPS), want[0]["coord_large"])
        close(m.coord(0, ALL), want[0]["coord"])
        # one vector, then the two as a stack
        stack = np.array([[la, 0.25] for la in lams])
        for key, fn in (("immigration", m.exp_immigration),
                        ("branching_own", lambda lam: m.exp_branching(lam, 0)),
                        ("branching_cross", lambda lam: m.exp_branching(lam, 1))):
            close(fn(stack[0]), want[0][key])
            got = fn(stack)
            assert got.shape == (2,)
            for value, exact in zip(got, want):
                close(value, exact[key])

    def test_sharp_tempering_keeps_its_mass(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1e6, scale=1.0)
        want = math.sqrt(math.pi) * 1e-3   # C Gamma(1/2) theta^(-1/2)
        assert m.coord(0, Region(0.0, 1.0)) == pytest.approx(want, rel=1e-10)
        assert m.exp_immigration([1.0]) == pytest.approx(
            tempered_closed_forms(0.5, 1e6, 1.0, 1.0)["immigration"], rel=1e-10)

    def test_narrow_shell_below_the_tempering_scale(self):
        # the series keeps its relative accuracy on a shell of width 2e-7
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1e-3, scale=1.0)
        want = tempered_power_oracle(-0.5, 1e-3, 0.3, 0.3000001)
        assert m.mass(Region(0.3, 0.3000001)) == pytest.approx(want, rel=1e-12, abs=0)

    def test_continued_fraction_with_vanishing_first_denominator(self):
        # s = 2 - 1e-17 rounds to 2, and the tail above 1/theta = 0.5 starts
        # at x = theta a = 1, where the first denominator x + 1 - s is 0
        m = TemperedPowerLawAxis(1, 0, alpha=1e-17, theta=2.0, scale=1.0)
        want = tempered_power_oracle(2.0, 2.0, 0.0, 1.0)
        assert m.norm_sq_moment(SMALL_JUMPS) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("theta", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("alpha", [0.3, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 2.0 - 1e-9, 2.0 + 1e-9])
    def test_region_integrals_match_incomplete_gamma(self, alpha, theta):
        # exponents s = p - alpha within 1e-9 of 0, and tempering scales
        # 1/theta on both sides of every region's ends
        scale = 0.7
        m = TemperedPowerLawAxis(2, 0, alpha=alpha, theta=theta, scale=scale)
        regions = [Region(lo, hi) for lo, hi in (
            (0.0, 0.05), (0.0, 1.0), (0.0, INF), (1e-3, 1.0), (0.01, INF),
            (0.5, 2.0), (1.0, INF))]
        integrals = (m.mass, lambda region: m.coord(0, region), m.norm_sq_moment)

        def oracle(p, lo, hi):
            return scale * tempered_power_oracle(p - alpha, theta, lo, hi)

        for p, integral in enumerate(integrals):
            for region in regions:
                want = oracle(p, region.lo, region.hi)
                got = integral(region)
                if math.isinf(want):
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-12 * want, (p, region)
        # the kinked integrals are sums of region integrals
        parts = (oracle(1, 0.0, 1.0), oracle(0, 1.0, INF))
        assert m.one_wedge_coord(0) == pytest.approx(sum(parts), rel=1e-12, abs=0)
        parts = (oracle(1, 1.0, INF), -oracle(0, 1.0, INF))
        assert abs(m.excess_over_one(0) - sum(parts)) \
            <= 1e-12 * (parts[0] - parts[1])


class TestExpIntegrals:
    def test_branching_zero_lambda(self):
        m = atom1(2.0, 3.0)
        assert measures.exp_branching_integral(m, [0.0], 0) == 0.0

    def test_branching_single_atom(self):
        m = atom1(2.0, 3.0)
        got = measures.exp_branching_integral(m, [1.0], 0)
        assert got == pytest.approx(3.0 * math.exp(-2.0), rel=1e-14)

    def test_branching_product_exp_closed_form_vs_simpson(self):
        m = ProductExponential(1.0, [1.0])
        got = measures.exp_branching_integral(m, [1.0], 0)
        want = simpson_exp(1.0, 1.0, lambda z: np.expm1(-z) + np.minimum(1.0, z))
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(0.5 - 1.0 + (1.0 - math.exp(-1.0)), rel=1e-12)

    @pytest.mark.parametrize("rate", [1e-6, 1e-9, 1e-12, 1e-200])
    def test_product_exp_wedge_at_tiny_rates(self, rate):
        # (1 - e^-theta) / theta = 1 - theta/2 + theta^2/6 - ... to double
        # precision at these rates, where 1 - exp(-theta) cancels
        m = ProductExponential(2.0, [rate, 1.0])
        wedge = 2.0 * (1.0 - rate / 2.0 + rate * rate / 6.0)
        assert m.one_wedge_coord(0) == pytest.approx(wedge, rel=1e-15, abs=0.0)
        lam = np.array([1e-3, 0.0])
        assert measures.exp_branching_integral(m, lam, 0) == pytest.approx(
            2.0 * (rate / (rate + 1e-3) - 1.0) + 1e-3 * wedge, rel=1e-14, abs=0.0)

    def test_branching_full_form_vs_simpson(self):
        m = ProductExponential(0.8, [1.4])
        got = measures.exp_branching_integral_full(m, [0.9])
        want = simpson_exp(0.8, 1.4, lambda z: np.expm1(-0.9 * z) + 0.9 * z)
        assert got == pytest.approx(want, rel=1e-9)

    def test_immigration_zero_lambda(self):
        assert measures.exp_immigration_integral(atom1(1.0, 2.0), [0.0]) == 0.0

    def test_immigration_single_atom(self):
        got = measures.exp_immigration_integral(atom1(1.0, 2.0), [1.0])
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-14)

    def test_immigration_product_exp(self):
        m = ProductExponential(1.0, [2.0])
        assert measures.exp_immigration_integral(m, [2.0]) == pytest.approx(0.5, rel=1e-14)

    def test_branching_convex_along_rays(self):
        rng = np.random.default_rng(7)
        m = DiscreteAtoms(2, [(np.array([0.4, 0.1]), 0.7),
                              (np.array([1.6, 0.9]), 0.4)])
        for _ in range(50):
            direction = rng.uniform(0.1, 2.0, size=2)
            s, t = sorted(rng.uniform(0.0, 3.0, size=2))
            i = int(rng.integers(0, 2))
            mid = measures.exp_branching_integral(m, (s + t) / 2.0 * direction, i)
            ends = 0.5 * (measures.exp_branching_integral(m, s * direction, i)
                          + measures.exp_branching_integral(m, t * direction, i))
            assert mid <= ends + 1e-12

    def test_immigration_monotone_and_zero_iff_zero(self):
        rng = np.random.default_rng(11)
        m = MeasureSum([
            DiscreteAtoms(2, [(np.array([0.5, 0.2]), 0.6)]),
            ProductExponential(0.4, [1.0, 2.0]),
        ])
        for _ in range(40):
            lam = rng.uniform(0.0, 3.0, size=2)
            lam2 = lam + rng.uniform(0.0, 2.0, size=2)
            v1 = measures.exp_immigration_integral(m, lam)
            v2 = measures.exp_immigration_integral(m, lam2)
            assert v2 >= v1 - 1e-14
            if np.any(lam):
                assert v1 > 0.0
        assert measures.exp_immigration_integral(m, np.zeros(2)) == 0.0


def ks_at_quantiles(m, region, radii):
    """The Kolmogorov-Smirnov distance of the sorted draw norms radii at 50
    of their quantiles, each against the CDF mass(Region(lo, z)) / mass(region)
    of m restricted to region."""
    n = len(radii)
    total = m.mass(region)
    ks = 0.0
    for k in np.linspace(0, n - 1, 52).astype(int)[1:-1]:
        cdf = m.mass(Region(region.lo, radii[k])) / total
        ks = max(ks, abs((k + 1) / n - cdf), abs(k / n - cdf))
    return ks


class TestSampling:
    def test_single_atom_always_that_atom(self):
        m = atom1(2.0, 3.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert np.array_equal(m.sample_n(ALL, 1, rng), [[2.0]])

    def test_two_atoms_bernoulli_frequency(self):
        m = DiscreteAtoms(1, [(np.array([1.0]), 1.0), (np.array([3.0]), 3.0)])
        rng = np.random.default_rng(123)
        n = 100_000
        draws = m.sample_n(ALL, n, rng)
        freq = np.mean(draws[:, 0] == 3.0)
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs(freq - 0.75) <= 3.0 * se

    @pytest.mark.parametrize("atoms", [
        [([1.5, 0.2], 1.0)],
        [([1.5, 0.2], 1.0), ([0.2, 0.1], 0.3)],
        [([1.5, 0.2], 1.0), ([0.2, 0.1], 0.3), ([0.1, 3.0], 2.2)],
    ])
    @pytest.mark.parametrize("region", [ALL, Region(0.0, np.inf), LARGE_JUMPS])
    def test_atoms_draw_like_generator_choice(self, atoms, region):
        # the CDF sampler draws the indices and leaves the generator state of
        # Generator.choice over the normalised weights in the region; a
        # region equal to ALL draws from ALL's cached table
        m = DiscreteAtoms(2, [(np.array(z), w) for z, w in atoms])
        locs = np.array([z for z, _ in atoms])
        inside = np.linalg.norm(locs, axis=1) >= region.lo
        w = np.array([w for _, w in atoms])[inside]
        ours = np.random.Generator(np.random.Philox(key=[5, len(atoms)]))
        ref = np.random.Generator(np.random.Philox(key=[5, len(atoms)]))
        for n in (1, 7, 1000, 7):
            got = m.sample_n(region, n, ours)
            want = locs[inside][ref.choice(w.size, size=n, p=w / w.sum())]
            assert np.array_equal(got, want)
            assert ours.random() == ref.random()

    def test_atoms_table_built_under_threads(self):
        # ALL's table is a cached_property, unlocked from Python 3.12: eight
        # threads that race to build it at a short switch interval still
        # draw what one thread draws from its own measure
        atoms = [(np.array([0.3, 1.2]), 0.4), (np.array([2.0, 0.1]), 1.1),
                 (np.array([0.5, 0.5]), 0.7)]
        shared = DiscreteAtoms(2, atoms)
        want = [DiscreteAtoms(2, atoms).sample_n(ALL, 50, np.random.default_rng(k))
                for k in range(8)]
        got = [None] * 8

        def draw(k):
            got[k] = shared.sample_n(ALL, 50, np.random.default_rng(k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("n_parts", [1, 2, 3])
    def test_parts_draw_like_generator_choice(self, n_parts):
        # parts are picked as Generator.choice over the normalised masses
        # would pick them, then each leaf samples its count in part order; a
        # single part draws no part indices
        leaves = [
            ProductExponential(1.5, [1.2, 0.8]),
            DiscreteAtoms(2, [(np.array([0.3, 0.4]), 1.0), (np.array([2.0, 0.1]), 0.5)]),
            TemperedPowerLawAxis(2, 1, alpha=0.7, theta=1.5, scale=0.4),
        ]
        regions = [ALL, LARGE_JUMPS, above(0.05)]
        parts = [(leaf, region, leaf.mass(region))
                 for leaf, region in zip(leaves, regions)][:n_parts]
        masses = np.array([mass for _, _, mass in parts])
        ours = np.random.Generator(np.random.Philox(key=[11, n_parts]))
        ref = np.random.Generator(np.random.Philox(key=[11, n_parts]))
        for n in (1, 7, 1000):
            got = measures.sample_parts(parts, n, ours)
            if n_parts == 1:
                want = parts[0][0].sample_n(parts[0][1], n, ref)
            else:
                idx = ref.choice(n_parts, size=n, p=masses / masses.sum())
                want = np.empty((n, 2))
                for k, (leaf, region, _) in enumerate(parts):
                    if np.any(idx == k):
                        want[idx == k] = leaf.sample_n(region, int(np.sum(idx == k)), ref)
            assert np.array_equal(got, want)
            assert ours.random() == ref.random()

    @pytest.mark.parametrize("n", [1, 20, 1000])
    def test_product_exponential_draws_like_generator_exponential(self, n):
        # standard exponentials times the scales are the floats of
        # Generator.exponential(scales, shape), from the same generator state
        m = ProductExponential(0.5, [10.0, 0.3])
        ours = np.random.Generator(np.random.SFC64(n))
        ref = np.random.Generator(np.random.SFC64(n))
        got = m.sample_n(ALL, n, ours)
        assert got.tobytes() == ref.exponential(1.0 / m.theta, (n, 2)).tobytes()
        assert ours.random() == ref.random()

    def test_product_exponential_region_rejection(self):
        m = ProductExponential(2.0, [1.0, 0.7])
        rng = np.random.default_rng(5)
        draws = m.sample_n(LARGE_JUMPS, 2000, rng)
        assert np.all(np.linalg.norm(draws, axis=1) >= 1.0)

    def test_tempered_power_law_requires_cutoff(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1.0)
        rng = np.random.default_rng(9)
        with pytest.raises(InfiniteMass):
            m.sample_n(ALL, 1, rng)
        draws = m.sample_n(above(0.05), 1000, rng)
        assert np.all(draws[:, 0] >= 0.05)

    @pytest.mark.parametrize("alpha, theta, region", [
        (0.05, 1.0, above(0.01)),         # theta lo < 1: Pareto proposals
        (1.5, 3.0, above(0.5)),           # theta lo >= 1: exponential ones
        (0.7, 2.0, Region(0.1, 2.0)),     # finite shells, one of each
        (1.9, 0.5, Region(4.0, 6.0)),
    ])
    def test_tempered_draws_follow_quadrature_cdf(self, alpha, theta, region):
        leaf = TemperedPowerLawAxis(2, 1, alpha=alpha, theta=theta, scale=0.6)
        n = 20_000
        draws = leaf.sample_n(region, n, np.random.default_rng(31))
        assert np.all(draws[:, 0] == 0.0)
        radii = np.sort(draws[:, 1])
        assert np.all(region.contains(radii))
        assert ks_at_quantiles(leaf, region, radii) < stats.kstwo.isf(1e-3, n)

    @pytest.mark.parametrize("region", [ALL, LARGE_JUMPS])
    def test_atom_frequencies_chi_square(self, region):
        # three atoms of norm above 1 and one below
        atoms = [([1.5, 0.2], 1.0), ([0.2, 0.1], 0.3), ([0.1, 3.0], 2.2), ([0.9, 0.9], 0.5)]
        m = DiscreteAtoms(2, [(np.array(z), w) for z, w in atoms])
        locs = np.array([z for z, _ in atoms])
        inside = region.contains(np.linalg.norm(locs, axis=1))
        w = np.array([w for _, w in atoms])[inside]
        n = 20_000
        draws = m.sample_n(region, n, np.random.default_rng(37))
        counts = np.array([np.all(draws == z, axis=1).sum() for z in locs[inside]])
        assert counts.sum() == n
        expected = n * w / w.sum()
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.isf(1e-3, w.size - 1)

    @pytest.mark.parametrize("region", [ALL, LARGE_JUMPS])
    def test_product_exponential_norms_follow_shell_cdf(self, region):
        # ALL draws the exponentials directly, LARGE_JUMPS by rejection
        m = ProductExponential(1.5, [1.2, 0.8])
        n = 20_000
        draws = m.sample_n(region, n, np.random.default_rng(41))
        norms = np.sort(np.linalg.norm(draws, axis=1))
        assert np.all(region.contains(norms))
        assert ks_at_quantiles(m, region, norms) < stats.kstwo.isf(1e-3, n)

    def test_empty_region(self):
        m = atom1(0.5, 1.0)
        rng = np.random.default_rng(1)
        with pytest.raises(EmptyRegion):
            m.sample_n(LARGE_JUMPS, 1, rng)

    @pytest.mark.parametrize("measure,region", [
        (ProductExponential(1.5, [1.2]), measures.Region(0.5, 4.0)),
        (TemperedPowerLawAxis(1, 0, alpha=0.8, theta=1.5, scale=0.9), above(0.05)),
        (MeasureSum([
            DiscreteAtoms(1, [(np.array([0.4]), 0.5), (np.array([2.0]), 0.2)]),
            ProductExponential(0.8, [2.0]),
        ]), ALL),
    ])
    def test_empirical_mean_matches_restricted_moment(self, measure, region):
        rng = np.random.default_rng(2024)
        n = 100_000
        draws = measure.sample_n(region, n, rng)
        mass = measure.mass(region)
        want = measure.coord(0, region) / mass
        got = draws[:, 0].mean()
        se = draws[:, 0].std(ddof=1) / math.sqrt(n)
        assert abs(got - want) <= 4.0 * se


class TestConstruction:
    def test_atom_norm_must_be_finite(self):
        # finite coordinates whose norm overflows: the atom would fall
        # outside every norm region, ALL included
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite norm"):
                DiscreteAtoms(2, [(np.array([1e308, 0.5]), 1.0)])


class TestOverflow:
    """An integral that converges by construction but overflows raises
    OverflowError, without a numpy warning; +inf stays a divergence."""

    @pytest.mark.parametrize("integral", [
        lambda: DiscreteAtoms(1, [(np.array([2.0]), 1.7e308),
                                  (np.array([3.0]), 1.7e308)]).mass(ALL),
        lambda: ProductExponential(1e308, [0.5]).coord(0, ALL),
        lambda: ProductExponential(1e308, [1.0, 2.0]).mass(LARGE_JUMPS),
        lambda: ProductExponential(1.0, [1e308, 2.0]).norm_sq_moment(SMALL_JUMPS),
        # 2 / theta^2 at theta = 1e-200: theta^2 underflows to 0
        lambda: ProductExponential(1.0, [1e-200, 2.0]).norm_sq_moment(ALL),
        # 1e308 Gamma(1/2) theta^(-1/2) = 3.5e308 at theta = 1/4
        lambda: TemperedPowerLawAxis(1, 0, alpha=0.5, theta=0.25, scale=1e308).coord(0, ALL),
    ], ids=["atom-sum", "product-closed-form", "product-shell",
            "product-scale", "product-tiny-rate", "tempered-closed-form"])
    @pytest.mark.filterwarnings("error")
    def test_finite_integral_overflow_raises(self, integral):
        with pytest.raises(OverflowError):
            integral()

    def test_divergence_stays_infinite(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1e308)
        assert m.mass(ALL) == math.inf


class TestIncompleteGamma:
    """The closed-form regularised incomplete gammas at integer order s =
    d + k against scipy.special, on both sides of the lower/upper split."""

    XS = np.concatenate([[1e-300, 1e-200, 1e-100, 1e-30], np.logspace(-12, 3, 200)])

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_upper_tail(self, s):
        from scipy.special import gammaincc

        for exp, xs in ((np.exp, self.XS), (math.exp, self.XS.tolist())):
            got = np.array([measures._gamma_q(s, x, exp) for x in xs]) if exp is math.exp \
                else measures._gamma_q(s, xs, exp)
            want = gammaincc(s, np.asarray(xs))
            assert np.allclose(got, want, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_lower_tail_over_power(self, s):
        # P(s, x) / x^s on its domain x <= s; x^s underflows below about
        # 1e-300^(1/s), where the ratio is 1/s! to double precision
        from scipy.special import gammainc

        xs = self.XS[self.XS <= s]
        got = measures._gamma_p_over_power(s, xs, float(xs.max()), np.exp)
        # one node at a time the sum stops at its own term, not the largest's
        scalar = [measures._gamma_p_over_power(s, x, x, math.exp) for x in xs.tolist()]
        assert np.allclose(got, scalar, rtol=1e-15, atol=0.0)
        power = xs ** s
        ok = power > 1e-290
        assert np.allclose(got[ok] * power[ok], gammainc(s, xs[ok]), rtol=1e-13, atol=0.0)
        assert np.allclose(got[~ok], 1.0 / math.factorial(s), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.05, 0.4), (0.3, 3.0), (1.0, math.inf),
                                        (0.0, math.inf)])
    def test_radial_factor_takes_each_branch(self, lo, hi):
        # a from 0.1 to 40: a hi on both sides of s, so both branches run
        # in one array and must agree with the per-node scalar evaluation
        from scipy.special import gammainc, gammaincc

        a = np.logspace(-1.0, 1.6, 57)
        for s in (2, 3, 4):
            got = measures._radial(s, a, lo, hi)
            if hi == math.inf:
                want = gammaincc(s, a * lo) / a ** s
            else:
                want = (gammainc(s, a * hi) - gammainc(s, a * lo)) / a ** s
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
            scalar = []
            for x in a.tolist():
                if hi == math.inf or x * hi > s:
                    scalar.append(measures._upper_tails(s, x, lo, hi, math.exp) / x ** s)
                else:
                    scalar.append(measures._lower_shell(s, x, lo, hi, x, math.exp))
            assert np.allclose(got, scalar, rtol=1e-14, atol=0.0)


class TestMixture:
    def test_operations_distribute(self):
        a = atom1(2.0, 3.0)
        e = ProductExponential(5.0, [1.0])
        m = MeasureSum([a, e])
        assert m.mass(ALL) == pytest.approx(8.0)
        got = m.coord(0, ALL)
        assert got == pytest.approx(2.0 * 3.0 + 5.0, rel=1e-14)

    def test_nested_mixtures_flatten(self):
        m = MeasureSum([MeasureSum([atom1(1.0, 1.0)]), atom1(2.0, 1.0)])
        assert len(m.components()) == 2

    def test_sampling_integrates_each_mass_once(self):
        # atoms plus a tempered leaf: 100 draws of 3 on two regions, each
        # taking every component's mass once, draw the same bits as the
        # parts built afresh
        leaf = TemperedPowerLawAxis(2, 0, alpha=0.7, theta=2.0, scale=0.4)
        atoms = DiscreteAtoms(2, [(np.array([0.5, 0.2]), 1.0), (np.array([0.1, 2.0]), 0.5)])
        m = MeasureSum([atoms, leaf])
        regions = [above(0.05), measures.Region(0.3, 3.0)]
        rng = np.random.default_rng(5)
        got = [m.sample_n(regions[k % 2], 3, rng) for k in range(100)]
        rng = np.random.default_rng(5)
        for k, draws in enumerate(got):
            region = regions[k % 2]
            parts = [(c, region, c.mass(region)) for c in m.components()]
            assert np.array_equal(draws, measures.sample_parts(parts, 3, rng))
