"""Multiple-contour integral representation: residue sum and quadrature.

The partition function equals an L-fold contour integral whose i-th
variable runs over a closed contour enclosing every row spectral parameter
exactly once, while excluding all of their i*pi-shifted copies.  Evaluating
by residues reproduces the closed form; evaluating by quadrature on one
shared circle gives an independent numerical route.  Only the quadrature
builds arrays, and it alone imports numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple

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
MAX_NODES = 512
POLE_EPS = 1e-13


class ContourInvalid(ValidationError):
    """The circle does not separate the poles from their shifted copies."""


class PoleHit(ValidationError):
    """An evaluation point is numerically on top of an integrand pole."""


class ContourSpec(namedtuple("ContourSpec", "center radius nodes",
                              defaults=(64,))):
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


def auto_contour(lambdas, nodes: int = 64) -> ContourSpec:
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


def _guarded(fn: str, z):
    """np.sinh or np.cosh of an array, raising SinhOverflow where core.s would."""
    import numpy as np

    with np.errstate(over="raise"):
        try:
            return getattr(np, fn)(z)
        except FloatingPointError:
            worst = complex(z.flat[np.abs(z.real).argmax()])
            raise SinhOverflow(
                f"{fn} of {worst} exceeds the double-precision range"
            ) from None


def _array_sinh(z):
    """np.sinh that raises SinhOverflow where :func:`core.s` would."""
    return _guarded("sinh", z)


def _site(j: int, w, params: ModelParams, sinh=s):
    """Integrand factor of variable j at w, without its pole denominators.

    ``w`` is a number, or a numpy array with ``sinh=_array_sinh``.
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


def _pair(wi, wj, g: complex, sinh=s):
    """Integrand factor of the variables i < j at wi and wj."""
    return sinh(wj - wi + g) * sinh(wj - wi)


def _pair_matrix(ring, g: complex):
    """``_pair`` at every pair of nodes center + ring, from 4N sinh and cosh.

    The centre cancels from every node difference, so the addition theorem
    sinh(x - y) = sinh x cosh y - cosh x sinh y expands both factors of
    pair[a, b] = sinh(ring_b - ring_a + g) * sinh(ring_b - ring_a) over
    per-node vectors.  The ring offsets stay below pi in modulus, which
    keeps the cancellation error near eps * cosh(pi)^2 times the size of
    the g-shifted values.  The second factor is the antisymmetric part of
    one outer product, so the diagonal is exactly 0.
    """
    sh = _array_sinh(ring)
    ch = _guarded("cosh", ring)
    gap = ch[:, None] * sh
    gap = gap - gap.T
    pair = ch[:, None] * _array_sinh(ring + g)
    pair -= sh[:, None] * _guarded("cosh", ring + g)
    pair *= gap
    return pair


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
    node weights.  Every sinh is taken on per-node vectors, O(L^2 * N)
    calls in all: the N x N pair factor comes from :func:`_pair_matrix`.
    No enclosure check is performed here, but the size cap is: the
    contraction below covers at most three variables.
    """
    import numpy as np

    check_size(params, "quadrature")
    L = params.L
    lams = tuple(complex(z) for z in lambdas)
    phi = 2.0 * math.pi * np.arange(nodes) / nodes
    ring = spec.radius * np.exp(1j * phi)
    wn = spec.center + ring
    measure = s(params.gamma) * ring / nodes

    pole_sinh = _array_sinh(wn[:, None] - np.array(lams)[None, :])
    if float(np.abs(pole_sinh).min()) < POLE_EPS:
        raise PoleHit("a quadrature node sits on a pole")
    pole_den = np.prod(pole_sinh, axis=1)

    slot = np.empty((L, nodes), dtype=complex)
    for j in range(L):
        slot[j] = measure * _site(j, wn, params, _array_sinh) / pole_den

    if L == 1:
        return complex(np.sum(slot[0]))
    pair = _pair_matrix(ring, params.gamma)
    if L == 3:
        # pair[a, b] * sum_c pair[a, c] * slot[2][c] * pair[b, c]
        pair *= (pair * slot[2]) @ pair.T
    return complex(slot[0] @ pair @ slot[1])


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
