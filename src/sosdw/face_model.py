"""Exact enumeration of domain-wall height configurations.

This is the brute-force oracle route.  Heights live on the faces of an
(L+1) x (L+1) grid of integer offsets k, meaning height theta + k*gamma.
Row index 0 is the bottom row and rows are counted upward.  Neighbouring
faces always differ by exactly one unit, and the weighted vertices sit at
the L x L corners where four faces meet.  The vertex in row i, column j
(1-based) carries spectral argument lambda_i - mu_j, and its weight is read
off the face quartet around it, with the dynamical argument sitting one
height step above the top-left face of the quartet.
"""

from __future__ import annotations

import functools

from .core import (
    ModelParams,
    ValidationError,
    pairwise_sum,
    scaled,
    validate,
)
from .rmatrix import WeightTables


class InvalidQuartet(ValidationError):
    """A face quartet does not match any of the six admissible patterns."""


class InvalidBoundary(ValidationError):
    """A height boundary violates the unit-step adjacency rule."""


# Keyed by (k_br - k_bl, k_tl - k_bl, k_tr - k_bl), each value the (row, col)
# entry of the weight table that the quartet selects.  These six keys are
# the only ones compatible with unit steps across all four edges.
_PATTERNS = {
    (1, -1, 0): (0, 0),
    (-1, 1, 0): (3, 3),
    (-1, -1, -2): (1, 1),
    (1, 1, 2): (2, 2),
    (-1, -1, 0): (1, 2),
    (1, 1, 0): (2, 1),
}


def face_weight(k_bl: int, k_br: int, k_tl: int, k_tr: int,
                tables: WeightTables) -> complex:
    """Statistical weight of one vertex, given the offsets of its four faces.

    ``tables`` is the vertex's ``WeightTables`` at base height theta, read
    at offset k_tl + 1: the dynamical argument is one height step above the
    top-left face, theta_loc = theta + (k_tl + 1) * gamma.  Each table is
    built on first read, once per evaluation.  This uniform anchoring is the
    one under which the six-pattern dictionary satisfies the local
    star-triangle relation for every admissible boundary, and under which
    the enumeration below agrees with the algebraic and closed-form routes
    (the two diagonal weights ignore the dynamical argument entirely, so
    only the anchor on the other four patterns is observable).
    """
    try:
        entry = _PATTERNS[(k_br - k_bl, k_tl - k_bl, k_tr - k_bl)]
    except KeyError:
        raise InvalidQuartet(
            f"no admissible weight for face offsets (bl, br, tl, tr) = "
            f"{(k_bl, k_br, k_tl, k_tr)}"
        ) from None
    return tables[k_tl + 1][entry]


def enumerate_height_grids(L: int):
    """An iterator over every complete height assignment of the boundary.

    A grid is a tuple of L+1 rows of L+1 int offsets, bottom row first.
    The domain-wall boundary steps down from L to 0 along the bottom row
    and the left column, away from the bottom-left corner, and up from 0
    to L along the top row and the right column.  The grids of one L are
    walked once, depth-first over the interior faces in row-major order.
    """
    return iter(_height_grids(L))


@functools.cache
def _height_grids(L: int) -> tuple:
    # Interior entries are placeholders, each written before it is read.
    grid = [[L - r] + [0] * (L - 1) + [r] for r in range(L + 1)]
    grid[0], grid[L] = list(range(L, -1, -1)), list(range(L + 1))
    cells = [(r, c) for r in range(1, L) for c in range(1, L)]
    rows = {}  # equal rows of different grids are one tuple

    def rec(idx):
        if idx == len(cells):
            yield tuple(rows.setdefault(t, t) for t in map(tuple, grid))
            return
        r, c = cells[idx]
        left, below = grid[r][c - 1], grid[r - 1][c]
        for k in (left - 1, left + 1):
            if abs(k - below) == 1 and (c < L - 1 or abs(k - r) == 1) \
                    and (r < L - 1 or abs(k - c) == 1):
                grid[r][c] = k
                yield from rec(idx + 1)

    return tuple(rec(0))


def enumerate_partition(params: ModelParams, lambdas) -> complex:
    """Partition function by summing the weight of every configuration.

    Sums over :func:`enumerate_height_grids`, with weight products over
    vertices in row-major order and one balanced pairwise sum over
    configurations.  Each vertex's tables are built once for the whole sum.
    """
    L = params.L
    lams = validate(params, lambdas, "face")
    tables = [[WeightTables(lam - m, params.theta, params) for m in params.mu]
              for lam in lams]
    terms = []
    for grid in enumerate_height_grids(L):
        w = 1.0 + 0j
        for lower, upper, row in zip(grid, grid[1:], tables):
            for c in range(L):
                w *= face_weight(lower[c], lower[c + 1], upper[c],
                                 upper[c + 1], row[c])
        terms.append(w)
    return pairwise_sum(terms)


def hexagon_residual(u, v, ks, params) -> float:
    """Star-triangle residual over the largest single candidate product.

    ``ks`` lists the six boundary offsets (k1..k6) cyclically; consecutive
    entries must differ by one.  Each side sums over the internal offset,
    which is filtered by adjacency with its three face neighbours (at most
    two candidates survive).  The residual is |LHS - RHS|.
    """
    k1, k2, k3, k4, k5, k6 = ks
    cyc = list(ks) + [ks[0]]
    for a, b in zip(cyc, cyc[1:]):
        if abs(a - b) != 1:
            raise InvalidBoundary(
                f"hexagon boundary {tuple(ks)} breaks the unit-step rule"
            )

    def candidates(*neighbours):
        opts = {neighbours[0] - 1, neighbours[0] + 1}
        for nb in neighbours[1:]:
            opts &= {nb - 1, nb + 1}
        return sorted(opts)

    tu, tv, tuv = (WeightTables(x, params.theta, params)
                   for x in (u, v, u + v))
    lhs_terms = []
    for k0 in candidates(k2, k4, k6):
        lhs_terms.append(
            face_weight(k3, k4, k2, k0, tv)
            * face_weight(k2, k0, k1, k6, tuv)
            * face_weight(k0, k4, k6, k5, tu)
        )
    rhs_terms = []
    for k0 in candidates(k1, k3, k5):
        rhs_terms.append(
            face_weight(k2, k3, k1, k0, tu)
            * face_weight(k3, k4, k0, k5, tuv)
            * face_weight(k0, k5, k1, k6, tv)
        )
    return scaled(abs(pairwise_sum(lhs_terms) - pairwise_sum(rhs_terms)),
                  max(abs(t) for t in lhs_terms + rhs_terms))
