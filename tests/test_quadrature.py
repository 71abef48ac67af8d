"""The angular product rule: Gauss-Legendre nodes, doubling and its budget."""

import math

import numpy as np
import pytest

from cbi import _quadrature
from cbi._quadrature import _gauss_legendre, nquad_strict
from cbi.errors import QuadratureFailure


class CountingIntegrand:
    """fn with a record of the node count of each call."""

    def __init__(self, fn):
        self.fn = fn
        self.sizes = []

    def __call__(self, *xs):
        self.sizes.append(np.broadcast(*xs).size)
        return self.fn(*xs)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_rule_matches_leggauss_and_moments(n):
    x, w = _gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    # leggauss's own weights are off by up to about 2e-11 at its ends
    assert np.abs(x - ref_x).max() <= 1e-15
    assert np.abs(w / ref_w - 1.0).max() <= 5e-11
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0)
    # exact for every monomial of degree below 2n
    k = np.arange(0, 2 * n, 2)
    moments = (x[None, :] ** k[:, None]) @ w
    assert np.abs(moments * (k + 1.0) / 2.0 - 1.0).max() <= 1e-14


def test_first_rule_exact_on_polynomials_in_one_dimension():
    # degree 31: the 16- and 32-node rules agree at once
    coeffs = np.random.default_rng(3).standard_normal(32)
    fn = CountingIntegrand(lambda x: np.polyval(coeffs, x))
    got = nquad_strict(fn, [(-0.5, 2.0)])
    antiderivative = np.polyint(coeffs)
    want = np.polyval(antiderivative, 2.0) - np.polyval(antiderivative, -0.5)
    assert got == pytest.approx(want, rel=1e-13)
    assert fn.sizes == [16, 32]


def test_first_rule_exact_on_polynomials_on_a_box():
    fn = CountingIntegrand(lambda x, y: x ** 31 * y ** 5 + 3.0 * x * y ** 30)
    got = nquad_strict(fn, [(0.0, 1.0), (0.0, 2.0)])
    want = 2.0 ** 6 / (32 * 6) + 3.0 * 2.0 ** 31 / (2 * 31)
    assert got == pytest.approx(want, rel=1e-14)
    assert fn.sizes == [16 * 16, 32 * 32]


def test_break_points_cut_every_range():
    # |x - 0.3| is linear on each side of its kink: exact with a break
    # there; without it the rule converges as 1/n^2 and runs into the budget
    fn = CountingIntegrand(lambda x: np.abs(x - 0.3))
    assert nquad_strict(fn, [(0.0, 1.0)], [0.3]) == pytest.approx(0.29, rel=1e-14)
    assert fn.sizes == [32, 64]
    # break points outside a range are ignored
    assert nquad_strict(lambda x: x, [(0.0, 1.0)], [-1.0, 1.0, 2.0]) == pytest.approx(0.5)
    with pytest.raises(QuadratureFailure, match="2048-node rule on 1 box"):
        nquad_strict(lambda x: np.abs(x - 0.3), [(0.0, 1.0)])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_total_returns_at_once(value):
    # an overflow in the integrand is the caller's to report
    fn = CountingIntegrand(lambda x: np.where(x > 0.5, value, 1.0))
    got = nquad_strict(fn, [(0.0, 1.0)])
    assert not math.isfinite(got)
    assert fn.sizes == [16]


def test_budget_refuses_before_evaluating():
    # 300 boxes per angle: the first rule alone has 300^2 * 16^2 nodes
    fn = CountingIntegrand(lambda x, y: x * y)
    points = np.linspace(0.0, 1.0, 301)[1:-1].tolist()
    with pytest.raises(QuadratureFailure, match="budget"):
        nquad_strict(fn, [(0.0, 1.0)] * 2, points)
    assert fn.sizes == []


def test_budget_bounds_every_rule(monkeypatch):
    # a kink the rule cannot resolve: it doubles until the next rule would
    # pass the budget, and no call sees more nodes than that
    monkeypatch.setattr(_quadrature, "_NODE_BUDGET", 2 ** 16)
    fn = CountingIntegrand(lambda x, y: np.abs(x - 0.3) + y)
    with pytest.raises(QuadratureFailure, match="512-node rule on 1 box"):
        nquad_strict(fn, [(0.0, 1.0), (0.0, 1.0)])
    assert fn.sizes == [16 ** 2, 32 ** 2, 64 ** 2, 128 ** 2, 256 ** 2]
