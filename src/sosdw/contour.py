"""Multiple-contour integral representation: residue sum and quadrature.

The partition function equals an L-fold contour integral whose i-th
variable runs over a closed contour enclosing every row spectral parameter
exactly once, while excluding all of their i*pi-shifted copies.  Evaluating
by residues reproduces the closed form; evaluating by quadrature on one
shared circle gives an independent numerical route.  The quadrature
contracts its N^L node tuples in O(N) work per variable: the pair factor
is a sum of three products of per-node terms, so no N x N array is built,
and the module runs on the standard library alone.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import mul

from .core import (
    ModelParams,
    NoConvergence,
    SinhOverflow,
    ValidationError,
    check_size,
    ordering_terms,
    pairwise_sum,
    s,
    validate,
)

CONTOUR_MARGIN = 0.05
DEFAULT_NODES = 64
MAX_NODES = 512
POLE_EPS = 1e-13


class ContourInvalid(ValidationError):
    """The circle does not separate the poles from their shifted copies."""


class PoleHit(ValidationError):
    """An evaluation point is numerically on top of an integrand pole."""


class ContourSpec(namedtuple("ContourSpec", "center radius nodes",
                              defaults=(DEFAULT_NODES,))):
    """A circular contour shared by all integration variables."""

    __slots__ = ()


def check_contour(spec: ContourSpec, lambdas) -> None:
    """Raise unless every pole is well inside and every shifted copy well outside."""
    if spec.radius <= 0 or spec.nodes < 4:
        raise ContourInvalid("radius must be positive and nodes at least 4")
    if spec.nodes > MAX_NODES // 2:
        # Acceptance compares two evaluations, the second at twice the nodes.
        raise ContourInvalid(
            f"nodes must be at most {MAX_NODES // 2}, half the cap of "
            f"{MAX_NODES} nodes per variable"
        )
    if spec.radius >= math.pi - CONTOUR_MARGIN:
        raise ContourInvalid(
            "radius too large to separate poles from their i*pi copies"
        )
    for z in lambdas:
        if abs(z - spec.center) >= spec.radius - CONTOUR_MARGIN:
            raise ContourInvalid(
                f"pole at {z} is not strictly inside the contour"
            )
        for k in (-1, 1):
            copy = z + 1j * math.pi * k
            if abs(copy - spec.center) <= spec.radius + CONTOUR_MARGIN:
                raise ContourInvalid(
                    f"shifted pole copy at {copy} is too close to the contour"
                )


def auto_contour(lambdas, nodes: int = DEFAULT_NODES) -> ContourSpec:
    """Centroid-centered circle at the balanced radius.

    On a circle of radius r the trapezoid error falls like
    max(reach / r, r / r_out)^N (Trefethen & Weideman, SIAM Review 56
    (2014) 385-458), where reach is the distance from the centre to the
    farthest pole and r_out the distance to the nearest i*pi-shifted copy,
    capped at pi where :func:`check_contour` caps the radius.  The radius
    is the geometric mean of the two limits, each pulled in by the
    enclosure margin, so it balances the two ratios.  When no circle
    separates the poles from their copies, the radius falls outside that
    interval (or is 0) and check_contour raises ContourInvalid.
    """
    lams = [complex(z) for z in lambdas]
    center = sum(lams) / len(lams)
    reach = max(abs(z - center) for z in lams)
    r_out = min([math.pi] + [abs(z + 1j * math.pi * k - center)
                             for z in lams for k in (-1, 1)])
    inner = reach + CONTOUR_MARGIN
    outer = max(r_out - CONTOUR_MARGIN, 0.0)
    return ContourSpec(center=center, radius=math.sqrt(inner * outer),
                       nodes=nodes)


def _site(j: int, w, params: ModelParams, sinh=s):
    """Integrand factor of variable j at w, without its pole denominators.

    ``sinh`` is :func:`core.s`, or ``cmath.sinh`` under a caller's own
    ``OverflowError`` guard.
    """
    g = params.gamma
    th = params.theta
    mu = params.mu
    f = sinh(th + (j + 1) * g - w + mu[j]) / s(th + (j + 1) * g)
    for l in range(j):
        f = f * sinh(mu[l] - w)
    for l in range(j + 1, params.L):
        f = f * sinh(w - mu[l] + g)
    return f


def _pair(wi, wj, g: complex):
    """Integrand factor of the variables i < j at wi and wj."""
    return s(wj - wi + g) * s(wj - wi)


def _pair_legs(g: complex):
    """The three rank-one terms of ``_pair``, as (k, c) pairs.

    ``_pair(wa, wb, g)`` is the sum of c * exp(2k(wb - wa)) over them: by
    sinh(x + g) sinh(x) = (cosh(2x + g) - cosh g) / 2 at x = wb - wa, the
    terms are k = 1 with c = e^g / 4, k = -1 with c = e^-g / 4 and k = 0
    with c = -cosh(g) / 2.  Only the node difference enters, so the
    quadrature takes exp(2k * ring) on the ring offsets, whose modulus
    stays below pi, and the circle's centre drops out.
    """
    return ((1, cmath.exp(g) / 4), (-1, cmath.exp(-g) / 4),
            (0, -cmath.cosh(g) / 2))


def _residue_terms(params: ModelParams, lams):
    """Residue contributions over assignments of variables to distinct poles.

    Variable j at pole a contributes its integrand factor over the other
    poles' denominators prod_{b != a} sinh(lambda_a - lambda_b).
    """
    L = params.L
    den = [math.prod(s(lams[a] - lams[b]) for b in range(L) if b != a)
           for a in range(L)]
    site = [[_site(j, lams[a], params) / den[a] for a in range(L)]
            for j in range(L)]
    pair = [[_pair(lams[a], lams[b], params.gamma) for a in range(L)]
            for b in range(L)]
    return ordering_terms(site, pair)


def partition_residue(params: ModelParams, lambdas) -> complex:
    """Exact residue evaluation of the contour integral.

    Each integration variable picks up the simple pole at one distinct
    spectral parameter (the residue of 1/sinh at its zero is 1); repeated
    assignments die against the vanishing pair factor, leaving a sum over
    the L! assignments of variables to distinct poles.
    """
    check_size(params, "residue")
    lams = validate(params, lambdas, "residue")
    terms = _residue_terms(params, lams)
    return s(params.gamma) ** params.L * pairwise_sum(terms)


def tensor_quadrature(params: ModelParams, lambdas, spec: ContourSpec,
                      nodes: int) -> complex:
    """Trapezoid evaluation of the integral with a fixed node count.

    All L variables share the circle.  The contour measure, the 1/(2*pi*i)
    factors, and the sinh(gamma)^L prefactor are folded into the per-slot
    node weights.  Each pair factor is a sum of three rank-one terms
    (:func:`_pair_legs`), so the sum over all N^L node tuples splits into
    products of the moments sum_a slot[j][a] * exp(2m * ring_a), |m| < L:
    O(L^2 * N) work in all.  No enclosure check is performed here, but
    the size cap is: the contraction below covers at most three variables.
    """
    check_size(params, "quadrature")
    L = params.L
    lams = tuple(complex(z) for z in lambdas)
    ring = [spec.radius * cmath.exp(1j * (2.0 * math.pi * a / nodes))
            for a in range(nodes)]
    wn = [spec.center + r for r in ring]
    try:
        pole_sinh = [[cmath.sinh(w - z) for z in lams] for w in wn]
        if min(abs(x) for row in pole_sinh for x in row) < POLE_EPS:
            raise PoleHit("a quadrature node sits on a pole")
        g_measure = s(params.gamma) / nodes
        weight = [g_measure * r / math.prod(row)
                  for r, row in zip(ring, pole_sinh)]
        slot = [[wt * _site(j, w, params, cmath.sinh)
                 for wt, w in zip(weight, wn)] for j in range(L)]
        legs = _pair_legs(params.gamma)
    except OverflowError:
        raise SinhOverflow(
            "sinh of an integrand factor on the quadrature circle exceeds "
            "the double-precision range"
        ) from None

    if L == 1:
        return sum(slot[0])
    powers = {m: [cmath.exp(2 * m * r) for r in ring] for m in range(1 - L, L)}
    moment = [{m: sum(map(mul, row, power)) for m, power in powers.items()}
              for row in slot]
    if L == 2:
        return sum(c * moment[0][-k] * moment[1][k] for k, c in legs)
    # the pairs (0, 1), (0, 2) and (1, 2) take the terms k, l and n
    return sum(c * d * e * moment[0][-k - l] * moment[1][k - n]
               * moment[2][l + n]
               for k, c in legs for l, d in legs for n, e in legs)


def partition_quadrature_info(params: ModelParams, lambdas,
                              spec: ContourSpec | None = None):
    """Quadrature route returning (value, accepted node count).

    Doubles the shared node count until two successive evaluations differ
    by less than 1e-10 in relative terms, or raises NoConvergence past the
    node cap.
    """
    check_size(params, "quadrature")
    lams = validate(params, lambdas, "quadrature")
    if spec is None:
        spec = auto_contour(lams)
    check_contour(spec, lams)
    nodes = spec.nodes
    prev = tensor_quadrature(params, lams, spec, nodes)
    while 2 * nodes <= MAX_NODES:
        nodes *= 2
        val = tensor_quadrature(params, lams, spec, nodes)
        if abs(val - prev) <= 1e-10 * max(abs(val), abs(prev)):
            return val, nodes
        prev = val
    raise NoConvergence(
        f"quadrature still moving after {MAX_NODES} nodes per variable"
    )


def partition_quadrature(params: ModelParams, lambdas,
                         spec: ContourSpec | None = None) -> complex:
    """Quadrature route: node doubling until successive values agree."""
    return partition_quadrature_info(params, lambdas, spec)[0]
