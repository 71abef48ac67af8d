"""Measure families: exact sums, closed forms, quadrature and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbi import measures
from cbi.errors import EmptyRegion, InfiniteMass
from cbi.measures import (
    ALL, LARGE_JUMPS, SMALL_JUMPS, DiscreteAtoms, MeasureSum, MomentKind,
    ProductExponential, TemperedPowerLawAxis, above, below,
)
from cbi.params import derive, validate
from cbi.scenarios import load_scenario

from helpers import (
    origin_refinement_diverges, product_exp_shell_oracle_2d, tpl_radial_oracle,
)

# a few integrals at the package's quadrature policy (relative 1e-10,
# absolute 1e-12 per nested quadrature) are summed in each identity
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
        assert measures.total_mass(atom1(2.0, 3.0), LARGE_JUMPS) == 3.0

    def test_product_exponential_all(self):
        m = ProductExponential(5.0, [1.0])
        assert measures.total_mass(m, ALL) == 5.0

    def test_tempered_power_law_above_eps_vs_simpson(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1.0)
        got = measures.total_mass(m, above(0.01))
        want = tpl_radial_oracle(0.5, 1.0, 1.0, lambda z: np.ones_like(z), 0.01, np.inf)
        assert got == pytest.approx(want, rel=1e-8)

    def test_infinite_at_origin(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1.0)
        assert measures.total_mass(m, ALL) == np.inf
        assert measures.total_mass(m, SMALL_JUMPS) == np.inf


class TestMomentIntegral:
    def test_coord_minus_delta_plus_single_atom(self):
        m = atom1(2.0, 3.0)
        got = measures.moment_integral(m, MomentKind.COORD_MINUS_DELTA_PLUS, 0, 0)
        assert got == (2.0 - 1.0) * 3.0

    def test_norm_sq_small_single_atom(self):
        m = atom1(0.5, 1.0)
        assert measures.moment_integral(m, MomentKind.NORM_SQ_SMALL) == 0.25

    def test_coord_off_axis_vanishes(self):
        m = TemperedPowerLawAxis(2, 1, alpha=0.5, theta=2.0, scale=1.0)
        assert measures.moment_integral(m, MomentKind.COORD, 0) == 0.0
        atoms = DiscreteAtoms(2, [(np.array([0.0, 1.5]), 2.0)])
        assert measures.moment_integral(atoms, MomentKind.COORD, 0) == 0.0

    def test_divergent_kinds_return_inf(self):
        # immigration-style tail: (1 ^ ||z||) diverges once alpha >= 1
        m = TemperedPowerLawAxis(1, 0, alpha=1.5, theta=1.0, scale=1.0)
        assert measures.moment_integral(m, MomentKind.ONE_WEDGE_NORM) == np.inf
        assert measures.moment_integral(m, MomentKind.COORD, 0) == np.inf
        # own-axis second moment stays finite below alpha = 2
        assert np.isfinite(measures.moment_integral(m, MomentKind.NORM_SQ_SMALL))
        m2 = TemperedPowerLawAxis(1, 0, alpha=2.5, theta=1.0, scale=1.0)
        assert measures.moment_integral(m2, MomentKind.NORM_SQ_SMALL) == np.inf

    def test_divergence_matches_refinement_probe(self):
        # the shrinking-cutoff probe is the independent oracle for +inf results
        for alpha, kind in [(1.5, MomentKind.ONE_WEDGE_NORM),
                            (2.5, MomentKind.NORM_SQ_SMALL),
                            (0.5, MomentKind.ONE_WEDGE_NORM)]:
            m = TemperedPowerLawAxis(1, 0, alpha=alpha, theta=1.0, scale=1.0)

            def restricted(a, _m=m, _kind=kind):
                if _kind is MomentKind.ONE_WEDGE_NORM:
                    return (_m.norm_moment(measures.Region(a, 1.0))
                            + _m.mass(LARGE_JUMPS))
                return _m.norm_sq_moment(measures.Region(a, 1.0))

            diverges = origin_refinement_diverges(restricted)
            value = measures.moment_integral(m, kind)
            assert diverges == bool(np.isinf(value))


class TestQuadratureAgainstSimpson:
    """Finite moment kinds agree with a brute-force Simpson oracle to 1e-6."""

    def test_tempered_power_law_all_finite_kinds(self):
        alpha, theta, scale = 0.6, 1.3, 0.7
        m = TemperedPowerLawAxis(1, 0, alpha=alpha, theta=theta, scale=scale)
        # (kind, integrand on its support, support bounds)
        cases = [
            (MomentKind.ONE_WEDGE_NORM, lambda z: np.minimum(1.0, z), 0.0, np.inf),
            (MomentKind.NORM_LARGE, lambda z: z, 1.0, np.inf),
            (MomentKind.COORD, lambda z: z, 0.0, np.inf),
            (MomentKind.NORM_SQ_SMALL, lambda z: z * z, 0.0, 1.0),
            (MomentKind.NORM_SQ_WEDGE_NORM, lambda z: np.minimum(z, z * z), 0.0, np.inf),
        ]
        for kind, g, lo, hi in cases:
            got = measures.moment_integral(m, kind, 0)
            want = tpl_radial_oracle(alpha, theta, scale, g, lo, hi)
            assert got == pytest.approx(want, rel=1e-6), kind

    def test_product_exponential_1d_closed_forms(self):
        r, th = 0.9, 1.7
        m = ProductExponential(r, [th])
        cases = [
            (MomentKind.ONE_WEDGE_NORM, lambda z: np.minimum(1.0, z), 0.0, None),
            (MomentKind.NORM_LARGE, lambda z: z, 1.0, None),
            (MomentKind.COORD_SMALL, lambda z: z, 0.0, 1.0),
            (MomentKind.ONE_WEDGE_COORD, lambda z: np.minimum(1.0, z), 0.0, None),
            (MomentKind.NORM_SQ_SMALL, lambda z: z * z, 0.0, 1.0),
        ]
        for kind, g, lo, hi in cases:
            got = measures.moment_integral(m, kind, 0)
            want = simpson_exp(r, th, g, lo, hi)
            assert got == pytest.approx(want, rel=1e-6), kind

    def test_product_exponential_2d_norm_kinds(self):
        r, theta = 1.4, (1.1, 2.3)
        m = ProductExponential(r, theta)
        got = measures.moment_integral(m, MomentKind.NORM_SQ_SMALL)
        want = product_exp_shell_oracle_2d(
            r, theta, lambda a, b: a * a + b * b, 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-6)
        got = measures.moment_integral(m, MomentKind.COORD_LARGE, 0)
        want = product_exp_shell_oracle_2d(r, theta, lambda a, b: a, 1.0, np.inf)
        assert got == pytest.approx(want, rel=1e-6)
        got = measures.moment_integral(m, MomentKind.NORM_LARGE)
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
            got = measures.moment_integral(m, MomentKind.COORD_SMALL, i)
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

    def test_s3_setup_uses_angular_quadrature_only(self, monkeypatch):
        # shell integrals must stay (d-1)-dimensional, never d-dimensional
        scenario = load_scenario("S3")
        dim = scenario.params.d
        calls = []
        nquad_strict = measures.nquad_strict

        def guarded(fn, ranges):
            assert len(ranges) == dim - 1
            calls.append(len(ranges))
            return nquad_strict(fn, ranges)

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


class TestSampling:
    def test_single_atom_always_that_atom(self):
        m = atom1(2.0, 3.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert np.array_equal(measures.sample(m, ALL, rng), [2.0])

    def test_two_atoms_bernoulli_frequency(self):
        m = DiscreteAtoms(1, [(np.array([1.0]), 1.0), (np.array([3.0]), 3.0)])
        rng = np.random.default_rng(123)
        n = 100_000
        draws = measures.sample(m, ALL, rng, size=n)
        freq = np.mean(draws[:, 0] == 3.0)
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs(freq - 0.75) <= 3.0 * se

    @pytest.mark.parametrize("atoms", [
        [([1.5, 0.2], 1.0)],
        [([1.5, 0.2], 1.0), ([0.2, 0.1], 0.3)],
        [([1.5, 0.2], 1.0), ([0.2, 0.1], 0.3), ([0.1, 3.0], 2.2)],
    ])
    @pytest.mark.parametrize("region", [ALL, LARGE_JUMPS])
    def test_atoms_draw_like_generator_choice(self, atoms, region):
        # the cached-CDF sampler draws the indices and leaves the generator
        # state of Generator.choice over the normalised weights in the region
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

    def test_product_exponential_region_rejection(self):
        m = ProductExponential(2.0, [1.0, 0.7])
        rng = np.random.default_rng(5)
        draws = measures.sample(m, LARGE_JUMPS, rng, size=2000)
        assert np.all(np.linalg.norm(draws, axis=1) >= 1.0)

    def test_tempered_power_law_requires_cutoff(self):
        m = TemperedPowerLawAxis(1, 0, alpha=0.5, theta=1.0, scale=1.0)
        rng = np.random.default_rng(9)
        with pytest.raises(InfiniteMass):
            measures.sample(m, ALL, rng)
        draws = measures.sample(m, above(0.05), rng, size=1000)
        assert np.all(draws[:, 0] >= 0.05)

    def test_empty_region(self):
        m = atom1(0.5, 1.0)
        rng = np.random.default_rng(1)
        with pytest.raises(EmptyRegion):
            measures.sample(m, LARGE_JUMPS, rng)

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
        draws = measures.sample(measure, region, rng, size=n)
        mass = measures.total_mass(measure, region)
        want = measure.coord(0, region) / mass
        got = draws[:, 0].mean()
        se = draws[:, 0].std(ddof=1) / math.sqrt(n)
        assert abs(got - want) <= 4.0 * se


class TestMixture:
    def test_operations_distribute(self):
        a = atom1(2.0, 3.0)
        e = ProductExponential(5.0, [1.0])
        m = MeasureSum([a, e])
        assert measures.total_mass(m, ALL) == pytest.approx(8.0)
        got = measures.moment_integral(m, MomentKind.COORD, 0)
        assert got == pytest.approx(2.0 * 3.0 + 5.0, rel=1e-14)

    def test_nested_mixtures_flatten(self):
        m = MeasureSum([MeasureSum([atom1(1.0, 1.0)]), atom1(2.0, 1.0)])
        assert len(m.components()) == 2
