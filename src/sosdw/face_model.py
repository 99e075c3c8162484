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

from dataclasses import dataclass

import numpy as np

from .core import (
    ModelParams,
    ValidationError,
    check_size,
    face_cap,  # noqa: F401 - part of this module's interface
    pairwise_sum,
    validate,
)
from .rmatrix import weights

UNSET = -(2 ** 31)  # sentinel for interior faces that are not yet assigned


class InvalidQuartet(ValidationError):
    """A face quartet does not match any of the six admissible patterns."""


class InvalidBoundary(ValidationError):
    """A height boundary violates the unit-step adjacency rule."""


@dataclass(frozen=True)
class FaceQuartet:
    """Offsets of the four faces around one vertex."""

    k_bl: int
    k_br: int
    k_tl: int
    k_tr: int

    def pattern(self) -> str:
        """Which of the six weights this quartet selects."""
        key = (self.k_br - self.k_bl, self.k_tl - self.k_bl,
               self.k_tr - self.k_bl)
        try:
            return _PATTERNS[key]
        except KeyError:
            raise InvalidQuartet(
                f"no admissible weight for face offsets {self}"
            ) from None


# Keyed by (k_br - k_bl, k_tl - k_bl, k_tr - k_bl).  These six keys are the
# only ones compatible with unit steps across all four edges.
_PATTERNS = {
    (1, -1, 0): "a+",
    (-1, 1, 0): "a-",
    (-1, -1, -2): "b+",
    (1, 1, 2): "b-",
    (-1, -1, 0): "c+",
    (1, 1, 0): "c-",
}


def face_weight(quartet: FaceQuartet, lam: complex,
                params: ModelParams) -> complex:
    """Statistical weight of one vertex, given its surrounding face quartet.

    The dynamical argument is one height step above the top-left face,
    theta_loc = theta + (k_tl + 1) * gamma.  This uniform anchoring is the
    one under which the six-pattern dictionary satisfies the local
    star-triangle relation for every admissible boundary, and under which
    the enumeration below agrees with the algebraic and closed-form routes
    (the two diagonal weights ignore the dynamical argument entirely, so
    only the anchor on the other four patterns is observable).
    """
    pattern = quartet.pattern()
    theta_loc = params.theta + (quartet.k_tl + 1) * params.gamma
    w = weights(lam, theta_loc, params)
    return {
        "a+": w.a_plus,
        "a-": w.a_minus,
        "b+": w.b_plus,
        "b-": w.b_minus,
        "c+": w.c_plus,
        "c-": w.c_minus,
    }[pattern]


@dataclass(frozen=True, eq=False)
class HeightGrid:
    """Integer height offsets on the (L+1) x (L+1) faces, bottom row first."""

    offsets: np.ndarray
    L: int

    def check_heights(self) -> None:
        """Raise unless every assigned pair of neighbours differs by one."""
        k = self.offsets
        n = self.L + 1
        for r in range(n):
            for c in range(n):
                if k[r, c] == UNSET:
                    continue
                if c + 1 < n and k[r, c + 1] != UNSET \
                        and abs(k[r, c] - k[r, c + 1]) != 1:
                    raise InvalidBoundary(
                        f"faces ({r},{c}) and ({r},{c + 1}) differ by "
                        f"{abs(k[r, c] - k[r, c + 1])}"
                    )
                if r + 1 < n and k[r + 1, c] != UNSET \
                        and abs(k[r, c] - k[r + 1, c]) != 1:
                    raise InvalidBoundary(
                        f"faces ({r},{c}) and ({r + 1},{c}) differ by "
                        f"{abs(k[r, c] - k[r + 1, c])}"
                    )


def dwbc_boundary(L: int) -> HeightGrid:
    """Domain-wall boundary offsets, interior left unset.

    The bottom row and left column step down from L to 0 away from the
    bottom-left corner; the top row and right column step up from 0 to L.
    """
    k = np.full((L + 1, L + 1), UNSET, dtype=np.int64)
    for c in range(L + 1):
        k[0, c] = L - c
        k[L, c] = c
    for r in range(L + 1):
        k[r, 0] = L - r
        k[r, L] = r
    return HeightGrid(offsets=k, L=L)


def enumerate_height_grids(L: int):
    """Yield every complete height assignment compatible with the boundary.

    Depth-first over the interior faces in row-major order, bottom row
    first, pruning any partial assignment that already breaks the unit-step
    rule against an assigned neighbour.
    """
    grid = dwbc_boundary(L).offsets.copy()
    cells = [(r, c) for r in range(1, L) for c in range(1, L)]

    def rec(idx):
        if idx == len(cells):
            yield grid.copy()
            return
        r, c = cells[idx]
        cands = {grid[r, c - 1] - 1, grid[r, c - 1] + 1}
        cands &= {grid[r - 1, c] - 1, grid[r - 1, c] + 1}
        if c == L - 1:
            cands &= {grid[r, L] - 1, grid[r, L] + 1}
        if r == L - 1:
            cands &= {grid[L, c] - 1, grid[L, c] + 1}
        for k in sorted(cands):
            grid[r, c] = k
            yield from rec(idx + 1)
        grid[r, c] = UNSET

    yield from rec(0)


def count_configurations(L: int) -> int:
    """Number of admissible domain-wall configurations."""
    return sum(1 for _ in enumerate_height_grids(L))


def enumerate_partition(params: ModelParams, lambdas) -> complex:
    """Partition function by summing the weight of every configuration.

    Weight products run over vertices in row-major order, and the sum over
    configurations is a balanced pairwise sum.
    """
    L = params.L
    check_size(params, "face")
    lams = validate(params, lambdas, "face")
    mu = params.mu
    terms = []
    for grid in enumerate_height_grids(L):
        w = 1.0 + 0j
        for r in range(L):
            for c in range(L):
                quartet = FaceQuartet(
                    k_bl=int(grid[r, c]), k_br=int(grid[r, c + 1]),
                    k_tl=int(grid[r + 1, c]), k_tr=int(grid[r + 1, c + 1]),
                )
                w *= face_weight(quartet, lams[r] - mu[c], params)
        terms.append(w)
    return pairwise_sum(terms)


def _hexagon_weight(tl, tr, bl, br, lam, params):
    return face_weight(FaceQuartet(k_bl=bl, k_br=br, k_tl=tl, k_tr=tr),
                       lam, params)


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

    lhs_terms = []
    for k0 in candidates(k2, k4, k6):
        lhs_terms.append(
            _hexagon_weight(k2, k0, k3, k4, v, params)
            * _hexagon_weight(k1, k6, k2, k0, u + v, params)
            * _hexagon_weight(k6, k5, k0, k4, u, params)
        )
    rhs_terms = []
    for k0 in candidates(k1, k3, k5):
        rhs_terms.append(
            _hexagon_weight(k1, k0, k2, k3, u, params)
            * _hexagon_weight(k0, k5, k3, k4, u + v, params)
            * _hexagon_weight(k1, k6, k0, k5, v, params)
        )
    scale = max(abs(t) for t in lhs_terms + rhs_terms)
    diff = abs(pairwise_sum(lhs_terms) - pairwise_sum(rhs_terms))
    if scale == 0.0:
        return 0.0
    return diff / scale
