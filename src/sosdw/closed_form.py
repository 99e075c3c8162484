"""Closed-form evaluation of the partition function and its consequences.

The permutation-sum formula, the exchange coefficients that enter the
functional equation, and the derived structural checks (polynomial degree,
special zeroes, spectral symmetry, large-x leading coefficient, and the
one-row differential equation) all live here.

The exchange coefficient formulas are transcribed term by term, with no
algebraic simplification, so that each factor can be audited against its
source expression independently.
"""

from __future__ import annotations

import cmath
import math

from .core import (
    ROUTE_TABLE,
    BadLength,
    ModelParams,
    NumericalError,
    exp,
    in_range,
    ordering_terms,
    pairwise_sum,
    s,
    scaled,
    spectral,
    theta_window,
    validate,
)


def _evaluator(params: ModelParams, route: str):
    """The partition function at given spectral parameters via ``route``."""
    evaluate = ROUTE_TABLE[route].evaluate
    return lambda lams: evaluate(params, lams, None)[0]


def coeff_M(i: int, lambdas, theta: complex, params: ModelParams,
            n: int) -> complex:
    """First-family exchange coefficient, index i in 1..n.

    ``lambdas`` holds the n+1 values (lambda_0, ..., lambda_n).  Two terms
    are transcribed verbatim and added; no cancellation is performed.  Both
    coefficients divide by the gaps of ``lambdas``, which ``spectral`` judges,
    and by sinh(theta + k*gamma), k = n, 2n-1-L, 2n-L, n-L (``theta_window``).
    """
    if not 1 <= i <= n:
        raise BadLength(f"coefficient index {i} outside 1..{n}")
    lam = spectral(lambdas, n + 1, separated=True)
    g = params.gamma
    L = params.L
    mu = params.mu
    theta_window(theta, g, (n, 2 * n - 1 - L, 2 * n - L, n - L))

    t1 = s(g) / s(lam[i] - lam[0])
    t1 *= s(theta + g) / s(theta + n * g)
    t1 *= s(lam[0] - lam[i] + theta + (2 * n - 1 - L) * g) \
        / s(theta + (2 * n - 1 - L) * g)
    t1 *= s(theta + (n - L) * g) / s(theta + (2 * n - L) * g)
    t1 *= s(theta + n * g) / s(theta + (n - L) * g)
    for l in range(L):
        t1 *= s(lam[0] - mu[l] + g) * s(lam[i] - mu[l])
    for k in range(1, n + 1):
        if k == i:
            continue
        t1 *= s(lam[i] - lam[k] + g) / s(lam[i] - lam[k])
        t1 *= s(lam[k] - lam[0] + g) / s(lam[k] - lam[0])

    t2 = s(g) / s(lam[0] - lam[i])
    t2 *= s(lam[0] - lam[i] + theta + g) / s(theta + n * g)
    t2 *= s(theta + (n - L) * g) / s(theta + (2 * n - L) * g)
    t2 *= s(theta + n * g) / s(theta + (n - L) * g)
    for l in range(L):
        t2 *= s(lam[i] - mu[l] + g) * s(lam[0] - mu[l])
    for k in range(1, n + 1):
        if k == i:
            continue
        t2 *= s(lam[0] - lam[k] + g) / s(lam[0] - lam[k])
        t2 *= s(lam[k] - lam[i] + g) / s(lam[k] - lam[i])

    return t1 + t2


def _coeff_N_half(j: int, i: int, lam, theta, params, n) -> complex:
    g = params.gamma
    L = params.L
    mu = params.mu
    u = s(g) / s(lam[0] - lam[j])
    u *= s(g) / s(lam[i] - lam[0])
    u *= s(lam[j] - lam[i] + g) / s(lam[j] - lam[i])
    u *= s(lam[0] - lam[i] + theta + g) / s(theta + n * g)
    u *= s(lam[0] - lam[j] + theta + (2 * n - 1 - L) * g) \
        / s(theta + (2 * n - 1 - L) * g)
    u *= s(theta + (n - L) * g) / s(theta + (2 * n - L) * g)
    u *= s(theta + n * g) / s(theta + (n - L) * g)
    for l in range(L):
        u *= s(lam[i] - mu[l] + g) * s(lam[j] - mu[l])
    for m in range(1, n + 1):
        if m in (i, j):
            continue
        u *= s(lam[j] - lam[m] + g) / s(lam[j] - lam[m])
        u *= s(lam[m] - lam[i] + g) / s(lam[m] - lam[i])
    return u


def coeff_N(j: int, i: int, lambdas, theta: complex, params: ModelParams,
            n: int) -> complex:
    """Second-family exchange coefficient, indices 1 <= i < j <= n.

    The two halves are related by swapping i and j; both are evaluated
    verbatim and added, which keeps the value symmetric under the swap.
    """
    if not 1 <= i < j <= n:
        raise BadLength(f"coefficient indices ({j}, {i}) outside 1<=i<j<=n")
    lam = spectral(lambdas, n + 1, separated=True)
    L = params.L
    theta_window(theta, params.gamma, (n, 2 * n - 1 - L, 2 * n - L, n - L))
    return (_coeff_N_half(j, i, lam, theta, params, n)
            + _coeff_N_half(i, j, lam, theta, params, n))


def exchange_terms(lam, theta: complex, params: ModelParams, n: int):
    """The exchange relation's terms as (coefficient, spectral arguments).

    ``lam`` holds (lambda_0, ..., lambda_n).  The n terms M_i come first,
    each on lambda_1..lambda_n without lambda_i; then N_ji for j = 2..n and
    i < j, each on lambda_0 followed by lambda_1..lambda_n without lambda_i
    and lambda_j.
    """
    rest = range(1, n + 1)
    for i in rest:
        yield (coeff_M(i, lam, theta, params, n),
               tuple(lam[k] for k in rest if k != i))
    for j in range(2, n + 1):
        for i in range(1, j):
            yield (coeff_N(j, i, lam, theta, params, n),
                   (lam[0],) + tuple(lam[k] for k in rest if k not in (i, j)))


def _permutation_terms(params: ModelParams, lambdas) -> list:
    """The factorized terms, one per ordering of the spectral parameters.

    The analytically cancelled form of the closed expression, without its
    only surviving prefactor sinh(gamma)^L.  Parameter a at position p
    contributes a theta-dependent factor and L-1 inhomogeneity factors,
    and each pair of positions the ratio of the parameters placed there.
    """
    L = params.L
    lams = validate(params, lambdas, "permutation")
    g = params.gamma
    mu = params.mu
    den = [s(params.theta + (p + 1) * g) for p in range(L)]

    def site(p, lam):
        v = s(params.theta + (p + 1) * g - lam + mu[p]) / den[p]
        for j in range(p + 1, L):
            v *= s(lam - mu[j] + g)
        for j in range(p):
            v *= s(lam - mu[j])
        return v

    sites = [[site(p, lam) for lam in lams] for p in range(L)]
    lratio = [[s(lams[b] - lams[a] + g) / s(lams[b] - lams[a]) if b != a
               else 0j for a in range(L)] for b in range(L)]
    return ordering_terms(sites, lratio)


def partition_permutation_sum(params: ModelParams, lambdas) -> complex:
    """Partition function as a sum of factorized terms over permutations."""
    terms = _permutation_terms(params, lambdas)
    return s(params.gamma) ** params.L * pairwise_sum(terms)


def permutation_condition(params: ModelParams, lambdas) -> float:
    """Cancellation measure of the factorized sum: max |term| / |sum|.

    Values near one mean the sum is well conditioned; large values flag
    draws where relative comparisons of the partition function lose digits
    to cancellation.
    """
    terms = _permutation_terms(params, lambdas)
    val = pairwise_sum(terms)
    top = max(abs(v) for v in terms)
    if abs(val) == 0.0:
        return float("inf") if top > 0.0 else 1.0
    return top / abs(val)


def functional_equation_residual(params: ModelParams, lambdas,
                                 route: str = "permutation") -> float:
    """Relative residual of the linear relation among L+2 evaluations.

    ``lambdas`` holds the L+2 values (lambda_0, ..., lambda_{L+1}); the
    partition function at each L-subset is evaluated through ``route``.
    The residual is |sum of terms| / max |term|.
    """
    L = params.L
    lam = spectral(lambdas, L + 2, separated=True)
    ev = _evaluator(params, route)
    terms = [c * ev(args)
             for c, args in exchange_terms(lam, params.theta, params, L + 1)]
    return scaled(abs(pairwise_sum(terms)), max(abs(t) for t in terms))


def special_zero_residual(params: ModelParams, lambdas,
                          route: str = "permutation") -> float:
    """|Z| at the pinned pair, relative to |Z| at nearby generic points.

    The first two spectral parameters must be mu_1 and mu_1 - gamma; Z is
    evaluated once at exactly those pins, and a coincidence guard that
    rejects the evaluation raises its error.  It guards a structure: a
    rescaled permutation term passes, since every term vanishes at the pins.
    """
    L = params.L
    if L < 2:
        raise BadLength("the pinned pair needs at least two rows")
    lam = spectral(lambdas, L)
    mu1 = params.mu[0]
    g = params.gamma
    if abs(lam[0] - mu1) > 1e-9 or abs(lam[1] - (mu1 - g)) > 1e-9:
        raise BadLength(
            "slots 1 and 2 must carry the pinned values mu_1 and mu_1-gamma"
        )
    ev = _evaluator(params, route)
    value = ev((mu1, mu1 - g, *lam[2:]))

    generic_shifts = ((0.37 + 0.11j, -0.29 + 0.07j),
                      (-0.23 + 0.09j, 0.31 - 0.12j))
    scale = 0.0
    for d1, d2 in generic_shifts:
        scale = max(scale, abs(ev((mu1 + d1, mu1 - g + d2) + lam[2:])))
    if scale == 0.0:
        raise NumericalError("no usable scale near the pinned point")
    return abs(value) / scale


def q_factorial(qq: complex, n: int) -> complex:
    """Product over k = 1..n of (1 + qq + ... + qq^(k-1))."""
    val = 1.0 + 0j
    for k in range(1, n + 1):
        val *= pairwise_sum(qq ** j for j in range(k))
    return val


@in_range
def asymptotic_leading_coefficient(params: ModelParams) -> complex:
    """Coefficient of the top monomial of the polynomial-normalized function.

    The partition function times prod_i xbar_i^L is a polynomial of degree L
    in each x_i = xbar_i^2; this returns its closed-form top coefficient.
    It divides by q^(2n) t^2 - 1 = 2 e^(theta + n gamma) sinh(theta +
    n gamma) for n = 1..L, so ``theta_window`` judges those offsets.
    """
    theta_window(params.theta, params.gamma, range(1, params.L + 1))
    return _leading_coefficient(params)


def _leading_coefficient(params: ModelParams) -> complex:
    L = params.L
    q = exp(params.gamma)
    t = exp(params.theta)
    ubar = [exp(m) for m in params.mu]
    denom = 1.0 + 0j
    for n in range(1, L + 1):
        denom *= (1.0 - q ** (2 * n) * t ** 2) * ubar[n - 1] ** L
    return ((q - 1 / q) ** L / 2 ** (L * L)) * q_factorial(q * q, L) / denom


# Radius of the circle |x| = R that the coefficient checks sample.  The
# discrete Cauchy sum returns c_d R^d to within rounding of the largest
# sample, so a large R, where the top coefficient dominates the samples,
# reads it to rounding.  Worst `asymptotic` suite error over 320 rows
# (seeds 0-15, 20 draws): 9.9e-8 at R=1, 5.1e-13 at R=20, 6.9e-15 at
# R=100, 7.6e-15 at R=400.
CIRCLE_RADIUS = 400.0


def _circle_nodes(n: int, rot: float = 0.0) -> list:
    """The lambda whose x = e^(2 lambda) are n equispaced points on |x| = R.

    The points are turned by the angle ``rot``.
    """
    log_r = math.log(CIRCLE_RADIUS)
    return [0.5 * complex(log_r, rot + 2 * math.pi * k / n)
            for k in range(n)]


def _cauchy_coefficient(samples, nodes, d: int) -> complex:
    """Coefficient c_d of a polynomial in x from samples on a circle.

    ``samples`` are the polynomial's values at x_k = e^(2 nodes[k]); the
    discrete Cauchy sum (1/n) sum_k f(x_k) x_k^(-d) is exact for degrees
    below the node count n.
    """
    return pairwise_sum(f * cmath.exp(-2 * d * z)
                        for f, z in zip(samples, nodes)) / len(nodes)


def leading_coefficient_interpolated(params: ModelParams,
                                     route: str = "permutation") -> complex:
    """Top-monomial coefficient read by one Cauchy sum along a line.

    Samples the polynomial-normalized function p at x_v = w_v t, w_v =
    e^(2 pi i v / L), for L^2+1 points t on the circle |t| = R.  Each x_v
    has degree at most L, so p(w_0 t, ..., w_(L-1) t) has degree at most
    L^2; only the top monomial reaches t^(L^2), and its factor is
    prod_v w_v^L = 1, so the sum reads that coefficient exactly.  The
    lambdas of a sample differ by i pi k / L, 0 < k < L, so |sinh| of a gap
    is >= sin(pi / L).  Serves as an independent oracle for
    :func:`asymptotic_leading_coefficient`.
    """
    L = params.L
    ev = _evaluator(params, route)
    nodes = _circle_nodes(L * L + 1)
    samples = []
    for z in nodes:
        lams = tuple(z + 1j * math.pi * v / L for v in range(L))
        samples.append(ev(lams) * cmath.exp(L * sum(lams)))
    return _cauchy_coefficient(samples, nodes, L * L)


@in_range
def ode_residual_L1(lam: complex, params: ModelParams) -> float:
    """Residual of the one-row second-order differential equation.

    Evaluates P0 * f + P1 * f' at x = e^(2 lam), over the larger term.
    f = Z e^lam is the permutation route's polynomial-normalized value;
    f' is its closed-form top coefficient, whose window that route's gate
    judged.  f is linear in x, so P2 * f'' vanishes.  P0 and P1 are verbatim.
    """
    if params.L != 1:
        raise BadLength("the differential equation applies to one row only")
    f = partition_permutation_sum(params, (lam,)) * exp(lam)
    f1 = _leading_coefficient(params)
    q = exp(params.gamma)
    t = exp(params.theta)
    u = exp(2 * params.mu[0])
    x = exp(2 * lam)
    p0 = ((-4 * q ** 2 + 2 * q ** 4 * t ** 2 + 2 * q ** 6 * t ** 2) * u
          + (2 * q ** 2 + 2 * q ** 4 - 4 * q ** 6 * t ** 2) * x)
    p1 = ((-4 * q ** 4 * t ** 2 + 2 * q ** 6 * t ** 4
           + 2 * q ** 8 * t ** 4) * u ** 2
          + (4 * q ** 2 - 4 * q ** 8 * t ** 4) * x * u
          + (-2 * q ** 2 - 2 * q ** 4 + 4 * q ** 6 * t ** 2) * x ** 2)
    return scaled(abs(p0 * f + p1 * f1), max(abs(p0 * f), abs(p1 * f1)))


def degree_residual(params: ModelParams, which: int,
                    route: str = "permutation") -> float:
    """Scaled weight of the coefficients above degree L in x_which.

    Samples the polynomial-normalized partition function at 2L+2 points of
    the circle |x_which| = R, the other variables frozen, and returns
    max_{d>L} |c_d| R^d / max_d |c_d| R^d: rounding for a polynomial of
    degree L in x_which, near one for a higher degree.  It guards a
    structure: a rescaled permutation term passes; it keeps the degree.
    """
    L = params.L
    if not 0 <= which < L:
        raise BadLength(f"variable index {which} outside 0..{L - 1}")
    ev = _evaluator(params, route)
    frozen = [-0.51 - 0.19 * v + 0.11j * (v + 1) for v in range(L)]
    nodes = _circle_nodes(2 * L + 2)
    samples = []
    for node in nodes:
        lams = list(frozen)
        lams[which] = node
        samples.append(ev(tuple(lams)) * cmath.exp(L * sum(lams)))
    if not any(samples):
        raise NumericalError("all probe samples vanished")
    sizes = [abs(_cauchy_coefficient(samples, nodes, d)) * CIRCLE_RADIUS ** d
             for d in range(len(nodes))]
    return max(sizes[L + 1:]) / max(sizes)


def swap_residual(params: ModelParams, lambdas, i: int, j: int,
                  route: str = "permutation") -> float:
    """The larger relative change of Z under a row swap and a column swap.

    A row swap exchanges lambda_i and lambda_j; a column swap exchanges
    mu_i and mu_j, which rebuilds the parameter object.  The unswapped
    value is evaluated once and divides both changes.
    """
    L = params.L
    lam = spectral(lambdas, L)
    if not (0 <= i < L and 0 <= j < L):
        raise BadLength("swap indices outside the spectral vector")
    if i == j:
        return 0.0
    ev = _evaluator(params, route)
    base = ev(lam)
    if base == 0:
        raise NumericalError("swap probe hit a zero of the function")
    rows = list(lam)
    rows[i], rows[j] = rows[j], rows[i]
    mu = list(params.mu)
    mu[i], mu[j] = mu[j], mu[i]
    columns = params._replace(mu=tuple(mu))
    return max(abs(ev(tuple(rows)) - base),
               abs(_evaluator(columns, route)(lam) - base)) / abs(base)
