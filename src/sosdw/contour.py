"""Multiple-contour integral representation: residue sum and quadrature.

The partition function equals an L-fold contour integral whose i-th
variable runs over a closed contour enclosing every row spectral parameter
exactly once, while excluding all of their i*pi-shifted copies.  Evaluating
by residues reproduces the closed form; evaluating by quadrature on one
shared circle gives an independent numerical route.  The pair factor is
a sum of three products of per-node terms, so one contraction serves
every L in O(N) node work per variable; ``core.ROUTE_TABLE`` caps L.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import combinations, product
from operator import mul

from .core import (
    ModelParams,
    NoConvergence,
    ValidationError,
    exp,
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
    if not (cmath.isfinite(spec.center) and math.isfinite(spec.radius)):
        raise ContourInvalid("center and radius must be finite")
    if isinstance(spec.nodes, bool) or not isinstance(spec.nodes, int):
        raise ContourInvalid(f"nodes must be an integer, got {spec.nodes!r}")
    if spec.radius <= 0 or spec.nodes < 4:
        raise ContourInvalid("radius must be positive and nodes at least 4")
    if spec.nodes > MAX_NODES // 2:
        # Acceptance compares two evaluations, the second at twice the nodes.
        raise ContourInvalid(
            f"nodes must be at most {MAX_NODES // 2}, half the cap of "
            f"{MAX_NODES} nodes per variable"
        )
    if spec.radius >= math.pi - CONTOUR_MARGIN:
        raise ContourInvalid("radius too large to separate poles from "
                             "their i*pi copies")
    for z in lambdas:
        if abs(z - spec.center) >= spec.radius - CONTOUR_MARGIN:
            raise ContourInvalid(f"pole at {z} is not strictly inside the "
                                 "contour")
        for k in (-1, 1):
            copy = z + 1j * math.pi * k
            if abs(copy - spec.center) <= spec.radius + CONTOUR_MARGIN:
                raise ContourInvalid(f"shifted pole copy at {copy} is too "
                                     "close to the contour")


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


def _site_factors(params: ModelParams):
    """``site(j, w)``: the integrand factor of variable j at w, without its
    pole denominators.  Each sinh(theta + (j+1)*gamma) is taken once here."""
    g, mu, L = params.gamma, params.mu, params.L
    base = [params.theta + (j + 1) * g for j in range(L)]
    den = [s(b) for b in base]

    def site(j: int, w):
        f = s(base[j] - w + mu[j]) / den[j]
        for l in range(j):
            f = f * s(mu[l] - w)
        for l in range(j + 1, L):
            f = f * s(w - mu[l] + g)
        return f
    return site


def _pair(wi, wj, g: complex):
    """Integrand factor of the variables i < j at wi and wj."""
    return s(wj - wi + g) * s(wj - wi)


def _pair_legs(g: complex):
    """The three rank-one terms of ``_pair``, as (k, c) pairs.

    ``_pair(wa, wb, g)`` is the sum of c * exp(2k(wb - wa)) over them, by
    sinh(x + g) sinh(x) = (cosh(2x + g) - cosh g) / 2: (1, e^g / 4),
    (-1, e^-g / 4) and (0, -cosh(g) / 2), where cosh g is in range once
    e^g and e^-g are.  Only node differences enter, so the quadrature
    takes exp(2k * ring) on the ring offsets (modulus below pi).
    """
    return ((1, exp(g) / 4), (-1, exp(-g) / 4), (0, -cmath.cosh(g) / 2))


def _residue_terms(params: ModelParams, lams):
    """Residue contributions over assignments of variables to distinct poles.

    Variable j at pole a contributes its integrand factor over the other
    poles' denominators prod_{b != a} sinh(lambda_a - lambda_b).
    """
    L = params.L
    den = [math.prod(s(lams[a] - lams[b]) for b in range(L) if b != a)
           for a in range(L)]
    site_factor = _site_factors(params)
    site = [[site_factor(j, lams[a]) / den[a] for a in range(L)]
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
    lams = validate(params, lambdas, "residue")
    terms = _residue_terms(params, lams)
    return s(params.gamma) ** params.L * pairwise_sum(terms)


def tensor_quadrature(params: ModelParams, lambdas, spec: ContourSpec,
                      nodes: int) -> complex:
    """Trapezoid evaluation of the integral with a fixed node count.

    All L variables share the circle.  The contour measure, the 1/(2*pi*i)
    factors, and the sinh(gamma)^L prefactor are folded into the per-slot
    node weights.  One rank-one term of :func:`_pair_legs` per pair turns
    the sum over all N^L node tuples into a product of the moments
    sum_a slot[j][a] * exp(2m * ring_a), |m| < L: O(L^2 * N) node work and
    3^(L(L-1)/2) such products for any L.  No enclosure check is performed
    here; it runs the route's gate, ``core.validate``.
    """
    L = params.L
    lams = validate(params, lambdas, "quadrature")
    ring = [spec.radius * cmath.exp(1j * (2.0 * math.pi * a / nodes))
            for a in range(nodes)]
    wn = [spec.center + r for r in ring]
    pole_sinh = [[s(w - z) for z in lams] for w in wn]
    if min(abs(x) for row in pole_sinh for x in row) < POLE_EPS:
        raise PoleHit("a quadrature node sits on a pole")
    g_measure = s(params.gamma) / nodes
    weight = [g_measure * r / math.prod(row)
              for r, row in zip(ring, pole_sinh)]
    site = _site_factors(params)
    slot = [[wt * site(j, w) for wt, w in zip(weight, wn)] for j in range(L)]
    powers = {m: [cmath.exp(2 * m * r) for r in ring] for m in range(1 - L, L)}
    moment = [{m: sum(map(mul, row, power)) for m, power in powers.items()}
              for row in slot]
    # leg (k, c) on pair (i, j) takes c and moves i's moment by -k, j's by +k
    pairs = list(combinations(range(L), 2))
    total = 0j
    for legs in product(_pair_legs(params.gamma), repeat=len(pairs)):
        term, index = 1, [0] * L
        for (i, j), (k, c) in zip(pairs, legs):
            term *= c
            index[i] -= k
            index[j] += k
        for row, m in zip(moment, index):
            term *= row[m]
        total += term
    return total


def partition_quadrature_info(params: ModelParams, lambdas,
                              spec: ContourSpec | None = None):
    """Quadrature route returning (value, accepted node count).

    Doubles the shared node count until two successive evaluations differ
    by less than 1e-10 in relative terms, or raises NoConvergence past the
    node cap.
    """
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
    raise NoConvergence(f"quadrature still moving after {MAX_NODES} nodes "
                        "per variable")


def partition_quadrature(params: ModelParams, lambdas,
                         spec: ContourSpec | None = None) -> complex:
    """Quadrature route: node doubling until successive values agree."""
    return partition_quadrature_info(params, lambdas, spec)[0]
