"""Independent numerical oracles used by the test-suite.

Most deliberately avoid the package's own quadrature/ODE machinery:
composite Simpson rules on refined grids, fixed Gauss-Legendre rules and
closed-form special cases. The shrinking-cutoff divergence probe, the
compensated form of phi and the tempered integrals by quadrature take
another route to a quantity the package computes: finite integrals at
shrinking cutoffs, B_tilde with the fully compensated jump integral, and
QUADPACK quadrature of the integrands that the package's tempered closed
forms replace.
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


def product_exp_shell_mass_2d(r, theta, lo, hi):
    """Mass of a 2-d product exponential on the norm shell {lo <= ||z|| < hi}:
    r int_0^inf e^-u (e^(-theta_1 sqrt((lo^2 - (u/theta_0)^2)^+))
    - e^(-theta_1 sqrt((hi^2 - (u/theta_0)^2)^+))) du, one dimension in the
    scaled variable u = theta_0 z_0, with z_1 taken exactly and the axes
    swapped so that theta_0 is the larger rate (a larger theta_1 would make
    the integrand a near step at u = theta_0 lo). The integrand has a kink
    at u = theta_0 lo and u = theta_0 hi, where the range is broken; it is
    below e^-800 past u = 800."""
    from scipy import integrate

    th1, th0 = sorted(theta)

    def tail(edge, u):
        if edge == math.inf:
            return 0.0
        return math.exp(-th1 * math.sqrt(max(edge * edge - (u / th0) ** 2, 0.0)))

    def f(u):
        return math.exp(-u) * (tail(lo, u) - tail(hi, u))

    edges = sorted({0.0, 800.0, *(x for x in (th0 * lo, th0 * hi) if 0.0 < x < 800.0)})
    return r * sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                   for a, b in zip(edges[:-1], edges[1:]))


def upper_gamma(s, x):
    """Upper incomplete gamma Gamma(s, x) for x > 0 and non-integer s > -2,
    by Gamma(s, x) = (Gamma(s + 1, x) - x^s e^-x) / s below s = 0."""
    from scipy.special import gamma, gammaincc

    if s > 0:
        return gamma(s) * gammaincc(s, x)
    return (upper_gamma(s + 1.0, x) - x ** s * math.exp(-x)) / s


def tempered_power_oracle(s, theta, lo, hi):
    """int_lo^hi z^(s-1) e^(-theta z) dz, +inf where it diverges at 0.

    For lo == 0 it is Gamma(s) P(s, theta hi) theta^-s. For lo > 0 it is
    lo^s e^(-theta lo) int_0^U e^(s u - theta lo expm1(u)) du in u =
    log(z / lo), by 40-point Gauss-Legendre on pieces of half a unit, where
    the integrand is analytic, so each piece is exact to rounding; an
    infinite hi is cut at lo + 42/theta, beyond which the integrand is below
    e^-42 of its value at lo.
    """
    from scipy.special import gamma, gammainc

    if lo == 0.0:
        return gamma(s) * gammainc(s, theta * hi) * theta ** -s if s > 0.0 else math.inf
    top = min(hi, lo + 42.0 / theta)
    span = math.log1p((top - lo) / lo)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(0.0, span, max(1, math.ceil(2.0 * span)) + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        u = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(weights @ np.exp(s * u - theta * lo * np.expm1(u)))
    return math.exp(s * math.log(lo) - theta * lo) * total


def _binomial_tail(alpha, x):
    """(1 + x)^alpha - 1 - alpha x without cancellation for small x."""
    if x > 0.5:
        return (1.0 + x) ** alpha - 1.0 - alpha * x
    total, coef, power, k = 0.0, alpha * (alpha - 1.0) / 2.0, x * x, 2
    while True:
        term = coef * power
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return total
        coef *= (alpha - k) / (k + 1.0)
        power *= x
        k += 1


def tempered_closed_forms(alpha, theta, scale, lam):
    """Closed forms for C z^(-1-alpha) e^(-theta z) dz on one axis, alpha in
    (0, 1) or (1, 2), at the own-axis lam > 0 (Rosinski, SPA 117, 2007):
    coord over (0, 1), [1, inf) and everything, the immigration exponent
    int (1 - e^(-lam z)), and the branching exponents on the own axis
    int (e^(-lam z) - 1 + lam (1 ^ z)) and across axes int (e^(-lam z) - 1).
    A divergent integral is +-inf."""
    from scipy.special import gamma, gammainc

    C, a, th = scale, alpha, theta
    x = lam / th
    large = C * th ** (a - 1.0) * upper_gamma(1.0 - a, th)
    # int (e^(-lam z) - 1 + lam z), and the part of lam z above 1 removed
    full = C * gamma(-a) * th ** a * _binomial_tail(a, x)
    above_one = C * (th ** (a - 1.0) * upper_gamma(1.0 - a, th)
                     - th ** a * upper_gamma(-a, th))
    if a < 1.0:
        small = C * th ** (a - 1.0) * gamma(1.0 - a) * gammainc(1.0 - a, th)
        immigration = -C * gamma(-a) * th ** a * math.expm1(a * math.log1p(x))
    else:
        small = immigration = math.inf
    return {
        "coord_small": small, "coord_large": large, "coord": small + large,
        "immigration": immigration,
        "branching_own": full - lam * above_one,
        "branching_cross": -immigration,
    }


def _exp_remainder(x):
    """e^-x - 1 + x for x >= 0; below 1e-3 by its Taylor series, because
    expm1(-x) + x cancels about -log10(x) of its digits there."""
    if x < 1e-3:
        return x * x * (1 / 2 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x * (
            1 / 720 - x / 5040)))))
    return math.expm1(-x) + x


def tempered_radial_by_quadrature(leaf, g, lo, hi, origin_power):
    """Integral of g(z) against the radial density of the tempered leaf
    over [lo, hi), by QUADPACK through the package's quad_strict.

    origin_power is the exponent p with g(z) ~ z^p as z -> 0; the integral
    diverges at the origin exactly when lo == 0 and p <= alpha, and is then
    +inf. QUADPACK cannot resolve z^(s-1) as s = p - alpha -> 0, nor a tail
    out to 1/theta >> 1: there it raises or loses digits."""
    from cbi._quadrature import ABS_TOL, REL_TOL, quad_strict

    alpha, theta, scale = leaf.alpha, leaf.theta, leaf.scale
    if hi <= lo:
        return 0.0
    if lo == 0.0 and origin_power <= alpha:
        return math.inf
    cuts = {lo, hi}
    if lo < 1.0 < hi:
        cuts.add(1.0)
    top = min(1.0, hi)
    if lo > 0.0:
        # split steep power-law ranges by decades so QAGS stays happy
        point = lo * 10.0
        while point < top:
            cuts.add(point)
            point *= 10.0
    else:
        # a sharply tempered density holds its mass within a few 1/theta
        # of the origin, which one QAGS piece over [0, top) can miss:
        # split by decades down to that scale
        point = top / 10.0
        while point > 1.0 / theta:
            cuts.add(point)
            point /= 10.0
        if 1.0 / theta < top:
            cuts.add(1.0 / theta)
    pieces = sorted(cuts)

    def f(z):
        return g(z) * (scale * z ** (-1.0 - alpha) * np.exp(-theta * z))

    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        value = quad_strict(f, a, b)
        size = abs(value)
        # the absolute floor of the quadrature caps the relative accuracy
        # of a tiny piece: integrate it once more scaled to unit size
        if 0.0 < size < ABS_TOL / REL_TOL:
            value = size * quad_strict(lambda z: f(z) / size, a, b)
        total += value
    return total


def tempered_exponent_by_quadrature(leaf, kind, la):
    """One exponential integral of a tempered leaf at its own-axis entry
    la > 0, by quadrature of its integrand through
    tempered_radial_by_quadrature, which returns +inf where it diverges at
    the origin. kind is "full" for int (e^(-la z) - 1 + la z),
    "immigration" for int (1 - e^(-la z)), and "branching_own" and
    "branching_cross" for the branching exponents
    int (e^(-la z) - 1 + la (1 ^ z)) on the own axis and
    int (e^(-la z) - 1) across axes."""
    if kind == "branching_cross":
        return -tempered_exponent_by_quadrature(leaf, "immigration", la)
    if kind == "immigration":
        return tempered_radial_by_quadrature(
            leaf, lambda z: -math.expm1(-la * z), 0.0, math.inf, 1.0)
    if kind == "full":
        return tempered_radial_by_quadrature(
            leaf, lambda z: _exp_remainder(la * z), 0.0, math.inf, 2.0)
    return tempered_radial_by_quadrature(
        leaf, lambda z: _exp_remainder(la * z) if z < 1.0 else math.expm1(-la * z) + la,
        0.0, math.inf, 2.0)


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


def phi_compensated(p, lam):
    """Branching mechanism through B_tilde and the fully compensated jump
    integral: c_i lam_i^2 - <B_tilde e_i, lam> + int (e^{-<lam,z>} - 1 +
    <lam,z>) mu_i(dz), equal to riccati.phi for admissible parameters."""
    from cbi.measures import exp_branching_integral_full
    from cbi.params import derive

    der = derive(p)
    lam = np.asarray(lam, dtype=float)
    out = np.empty(p.d)
    for i in range(p.d):
        jump = exp_branching_integral_full(p.mu[i], lam) if p.mu[i] is not None else 0.0
        out[i] = p.c[i] * lam[i] ** 2 - float(der.B_tilde[:, i] @ lam) + jump
    return out


def norm_cube_bound(m):
    """An upper bound on int ||z||^3 m(dz), 0 for the zero measure: exact for
    atoms and tempered leaves, and for a product exponential the third moment
    of ||z||_1 >= ||z||, from the cumulants (n-1)! sum_k theta_k^-n of a sum
    of independent exponentials."""
    from cbi.measures import DiscreteAtoms, ProductExponential

    total = 0.0
    for leaf in m.components() if m is not None else ():
        if isinstance(leaf, DiscreteAtoms):
            total += sum(w * float(np.linalg.norm(z)) ** 3 for z, w in leaf.atoms)
        elif isinstance(leaf, ProductExponential):
            k1, k2, k3 = (math.factorial(n - 1) * float(np.sum(leaf.theta ** -float(n)))
                          for n in (1, 2, 3))
            total += leaf.r * (k3 + 3.0 * k2 * k1 + k1 ** 3)
        else:
            a = leaf.alpha
            total += leaf.scale * math.gamma(3.0 - a) * leaf.theta ** (a - 3.0)
    return total


def chain_mean(p, x0, t, dt, eps_trunc):
    """The exact mean of the Euler chain the kernel runs, while its states
    stay non-negative: m_{k+1} = (I + dt B~) m_k + dt beta~ over the steps
    of t. B~ is the kernel's drift matrix plus the first moments of each
    type's simulated jump parts, and beta~ is beta plus the mean of the
    sub-cutoff immigration jumps plus the first moment of nu's simulated
    parts; a step's candidate counts are Poisson with means rate_j dt x_j
    and rate_nu dt, so its conditional mean is affine in x >= 0."""
    from cbi.params import derive
    from cbi.simulate import SimConfig

    der = derive(p, eps_trunc)
    d = p.d

    def first_moment(parts):
        return sum((np.array([leaf.coord(i, region) for i in range(d)])
                    for leaf, region, _ in parts), np.zeros(d))

    B = der.drift_matrix + np.column_stack(
        [first_moment(parts) for parts in der.branching_parts])
    beta = p.beta + der.immigration_small_mean + first_moment(der.immigration_parts)
    step = np.eye(d) + dt * B
    m = np.asarray(x0, dtype=float)
    for _ in range(SimConfig(T=t, dt=dt).n_steps):
        m = step @ m + dt * beta
    return m


# A4's step-halving check on S3: per seed, 2e5 paths at dt = 2^-8 and at dt/2
A4_HALVING = {"seeds": [8101, 8102, 8103, 8104, 8105], "n_paths": 200_000,
              "dt": 2.0 ** -8}


def mean_error_halving_ratio(scenario, seeds, n_paths, dt, threads=None, budget=None):
    """Per-seed ratios of the Monte Carlo mean's error at dt/2 to that at dt
    against the closed form: about 1/2 for a scheme of weak order one."""
    from cbi.moments import mean
    from cbi.montecarlo import estimate_mean
    from cbi.simulate import SimConfig

    analytic = mean(scenario.params, scenario.x0, scenario.t)
    ratios = []
    for seed in seeds:
        errs = []
        for h in (dt, dt / 2.0):
            cfg = SimConfig(T=scenario.t, dt=h, eps_trunc=scenario.eps_trunc)
            value, _ = estimate_mean(scenario.params, scenario.x0, scenario.t,
                                     n_paths, cfg, seed, threads=threads, budget=budget)
            errs.append(float(np.linalg.norm(value - analytic)))
        ratios.append(errs[1] / errs[0])
    return np.array(ratios)


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
