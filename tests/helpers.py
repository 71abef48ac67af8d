"""Independent numerical oracles used by the test-suite.

Most deliberately avoid the package's own quadrature/ODE machinery:
composite Simpson rules on refined grids and closed-form special cases. The
shrinking-cutoff divergence probe and the compensated form of phi take
another route to a quantity the package computes: finite integrals at
shrinking cutoffs, and B_tilde with the fully compensated jump integral.
"""

import math

import numpy as np


def simpson(f, a, b, n=4001):
    """Composite Simpson on [a, b] with an odd number of nodes."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


def simpson_log(f, a, b, n=8001):
    """Simpson after the substitution z = e^t, for integrands singular at 0."""
    return simpson(lambda t: f(np.exp(t)) * np.exp(t), math.log(a), math.log(b), n)


def tpl_radial_oracle(alpha, theta, scale, g, lo, hi, tiny=None):
    """Simpson value of int_lo^hi g(z) * scale * z^(-1-alpha) e^(-theta z) dz.

    For lo == 0 the inner part is integrated in log coordinates down to a
    cutoff where the (convergent) integrand's tail is negligible.
    """

    def f(z):
        return g(z) * scale * z ** (-1.0 - alpha) * np.exp(-theta * z)

    upper = hi if hi != float("inf") else max(2.0, 80.0 / theta)
    total = 0.0
    if lo == 0.0:
        tiny = tiny if tiny is not None else 1e-120
        split = min(1.0, upper)
        total += simpson_log(f, tiny, split)
        lo = split
    if upper > lo:
        mid = min(max(1.0, lo), upper)
        if mid > lo:
            total += simpson_log(f, lo, mid)
        if upper > mid:
            total += simpson(f, mid, upper, 20001)
    return total


def _simpson_weights(a, b, n):
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    w *= (b - a) / (n - 1) / 3.0
    return xs, w


def product_exp_shell_oracle_2d(r, theta, g, lo, hi, n=2001):
    """Tensor Simpson in polar coordinates of g against a 2-d product
    exponential over the norm shell {lo <= ||z|| < hi} in the open quadrant."""
    th1, th2 = theta
    upper = hi if hi != float("inf") else lo + 80.0 / min(th1, th2) + 5.0
    radii, wr = _simpson_weights(lo, upper, n)
    phis, wp = _simpson_weights(0.0, math.pi / 2.0, n // 2 + 1)
    R, P = np.meshgrid(radii, phis, indexing="ij")
    Z1, Z2 = R * np.cos(P), R * np.sin(P)
    vals = g(Z1, Z2) * r * th1 * th2 * np.exp(-th1 * Z1 - th2 * Z2) * R
    return float(wr @ vals @ wp)


def cir_v_oracle(c, b, lam, t):
    """Closed-form Riccati flow for v' = b v - c v^2, v(0) = lam."""
    if lam == 0.0:
        return 0.0
    if b == 0.0:
        return lam / (1.0 + c * lam * t)
    ebt = math.exp(b * t)
    return b * lam * ebt / (b + c * lam * (ebt - 1.0))


def cir_log_laplace_oracle(c, b, beta, x, lam, t):
    """-log E[e^{-lam X_t} | X_0=x] for the one-type diffusion with drift beta.

    Uses the closed-form flow and the exact integral
    int_0^t v(s) ds = (1/c) log(1 + (c lam / b) (e^{bt} - 1)) (b != 0).
    """
    v = cir_v_oracle(c, b, lam, t)
    if c == 0.0:
        if b == 0.0:
            integral = lam * t
        else:
            integral = lam * (math.exp(b * t) - 1.0) / b
    elif b == 0.0:
        integral = math.log1p(c * lam * t) / c
    else:
        integral = math.log1p(c * lam / b * (math.exp(b * t) - 1.0)) / c
    return x * v + beta * integral


def origin_refinement_diverges(integral_above, base_cutoff=1e-3, shrink=1e-2,
                               refinements=3, growth_threshold=1.5):
    """Numeric divergence probe via shrinking inner cutoffs.

    integral_above(a) must return the integral restricted to {||z|| >= a}.
    The integral is declared divergent when successive cutoff refinements keep
    growing instead of Cauchy-converging: each refinement must shrink the
    increment by at least the growth threshold, otherwise it diverges.
    """
    cutoffs = [base_cutoff * shrink ** k for k in range(refinements + 1)]
    values = [integral_above(a) for a in cutoffs]
    increments = [abs(v2 - v1) for v1, v2 in zip(values[:-1], values[1:])]
    scale = max(abs(values[-1]), 1e-300)
    for prev, nxt in zip(increments[:-1], increments[1:]):
        negligible = nxt <= 1e-12 * scale
        if not negligible and nxt * growth_threshold > prev:
            return True
    return False


def phi_compensated(p, der, lam):
    """Branching mechanism through B_tilde and the fully compensated jump
    integral: c_i lam_i^2 - <B_tilde e_i, lam> + int (e^{-<lam,z>} - 1 +
    <lam,z>) mu_i(dz), equal to riccati.phi for admissible parameters."""
    from cbi.measures import exp_branching_integral_full

    lam = np.asarray(lam, dtype=float)
    out = np.empty(p.d)
    for i in range(p.d):
        jump = exp_branching_integral_full(p.mu[i], lam) if p.mu[i] is not None else 0.0
        out[i] = p.c[i] * lam[i] ** 2 - float(der.B_tilde[:, i] @ lam) + jump
    return out


def random_discrete_params(rng, d=None, with_nu=True, max_atoms=3):
    """Random admissible tuple whose measures are all DiscreteAtoms."""
    from cbi.measures import DiscreteAtoms
    from cbi.params import AdmissibleParams

    d = int(rng.integers(1, 4)) if d is None else d

    def random_measure(scale):
        k = int(rng.integers(0, max_atoms + 1))
        atoms = []
        for _ in range(k):
            z = rng.uniform(0.02, 2.5, size=d)
            z[rng.random(d) < 0.3] = 0.0
            if not np.any(z > 0):
                z[int(rng.integers(0, d))] = rng.uniform(0.1, 1.0)
            atoms.append((z, rng.uniform(0.05, scale)))
        return DiscreteAtoms(d, atoms)

    B = rng.uniform(0.0, 0.4, size=(d, d))
    B[np.eye(d, dtype=bool)] = rng.uniform(-1.5, -0.2, size=d)
    return AdmissibleParams(
        d=d,
        c=rng.uniform(0.0, 1.0, size=d),
        beta=rng.uniform(0.0, 1.0, size=d),
        B=B,
        nu=random_measure(0.8) if with_nu else None,
        mu=tuple(random_measure(0.5) for _ in range(d)),
    )
