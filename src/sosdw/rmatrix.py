"""Statistical weights and the dynamical R-matrix, with its identity checks.

The six nonzero vertex weights depend on a spectral argument ``lam`` and on
the local dynamical parameter ``theta``.  The R-matrix acts on the tensor
product of two two-state spaces ordered (++, +-, -+, --), and the
operator-valued shift of the dynamical parameter is resolved by branching
over the eigenbasis of the spectator height operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS_SING, ModelParams, SingularTheta, s


@dataclass(frozen=True)
class WeightSextet:
    """The six vertex weights at one (lam, theta) pair.

    Both a-weights are the same number by construction and are evaluated
    once.
    """

    a_plus: complex
    a_minus: complex
    b_plus: complex
    b_minus: complex
    c_plus: complex
    c_minus: complex


def weights(lam: complex, theta: complex, params: ModelParams) -> WeightSextet:
    """Evaluate the weight sextet at spectral argument lam and local theta."""
    g = params.gamma
    st = s(theta)
    if abs(st) <= EPS_SING:
        raise SingularTheta(
            f"local dynamical parameter has |sinh| = {abs(st):.3e}"
        )
    a = s(lam + g)
    sl = s(lam)
    sg = s(g)
    return WeightSextet(
        a_plus=a,
        a_minus=a,
        b_plus=sl * s(theta - g) / st,
        b_minus=sl * s(theta + g) / st,
        c_plus=sg * s(theta - lam) / st,
        c_minus=sg * s(theta + lam) / st,
    )


def _entries(w: WeightSextet) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = w.a_plus
    m[1, 1] = w.b_plus
    m[1, 2] = w.c_plus
    m[2, 1] = w.c_minus
    m[2, 2] = w.b_minus
    m[3, 3] = w.a_minus
    return m


def r_matrix(lam: complex, theta: complex, params: ModelParams) -> np.ndarray:
    """The 4x4 R-matrix; only the six ice-rule entries are nonzero."""
    return _entries(weights(lam, theta, params))


# Swap operator on the two-site space, and the total-spin diagonal.
SWAP = np.zeros((4, 4), dtype=complex)
SWAP[0, 0] = SWAP[3, 3] = SWAP[1, 2] = SWAP[2, 1] = 1.0
TOTAL_SPIN = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)


def _embedded_r(lam, theta, params, pair, branch=None):
    """8x8 matrix of the R-matrix acting on two of three two-state sites.

    ``pair`` gives the (first, second) site indices in 0..2.  When ``branch``
    names the spectator site, the dynamical argument is theta - gamma * h
    with h = +1/-1 the spectator spin, resolved separately on each basis
    state.
    """
    p, q = pair
    m = np.zeros((8, 8), dtype=complex)
    cache = {}
    for b in range(8):
        bits = ((b >> 2) & 1, (b >> 1) & 1, b & 1)
        if branch is None:
            key = None
        else:
            key = bits[branch]
        if key not in cache:
            th = theta if branch is None else theta - params.gamma * (1 - 2 * key)
            cache[key] = _entries(weights(lam, th, params))
        r4 = cache[key]
        col = 2 * bits[p] + bits[q]
        for row in range(4):
            val = r4[row, col]
            if val == 0:
                continue
            nb = list(bits)
            nb[p], nb[q] = row >> 1, row & 1
            m[(nb[0] << 2) | (nb[1] << 1) | nb[2], b] += val
    return m


def dybe_residual(l1, l2, l3, theta, params) -> float:
    """DYBE residual over the larger product of one side's factor 2-norms.

    The residual is the max-abs entry of LHS - RHS of the dynamical
    Yang-Baxter relation as 8x8 matrices.  The factor-norm product is the
    forward-error scale of a triple matrix product; a small
    sinh(theta + n*gamma) can make single factors large while both sides
    stay of order one.
    """
    l12, l13, l23 = l1 - l2, l1 - l3, l2 - l3
    factors = ((_embedded_r(l12, theta, params, (0, 1), branch=2),
                _embedded_r(l13, theta, params, (0, 2)),
                _embedded_r(l23, theta, params, (1, 2), branch=0)),
               (_embedded_r(l23, theta, params, (1, 2)),
                _embedded_r(l13, theta, params, (0, 2), branch=1),
                _embedded_r(l12, theta, params, (0, 1))))
    lhs, rhs = (a @ b @ c for a, b, c in factors)
    scale = np.linalg.norm(np.array(factors), 2, axis=(2, 3)).prod(1).max()
    return float(np.abs(lhs - rhs).max() / scale)


def unitarity_residual(lam, theta, params) -> float:
    """Unitarity residual over the product of the two factor 2-norms.

    The residual is the max-abs entry of
    R(lam) P R(-lam) P - sinh(g+lam) sinh(g-lam) Id.  As for the DYBE, the
    factor-norm product is the forward-error scale: near a zero of
    sinh(theta) both factors grow like 1/sinh(theta) while the product
    stays of the size of sinh(g+lam) sinh(g-lam).
    """
    g = params.gamma
    r1 = r_matrix(lam, theta, params)
    r2 = r_matrix(-lam, theta, params)
    target = s(g + lam) * s(g - lam) * np.eye(4, dtype=complex)
    scale = np.linalg.norm(r1, 2) * np.linalg.norm(r2, 2)
    return float(np.abs(r1 @ SWAP @ r2 @ SWAP - target).max() / scale)


def ice_residual(lam, theta, params) -> float:
    """Ice-rule residual over the max-abs entry of R.

    The residual is the max-abs entry of the commutator of R with the total
    spin; it vanishes exactly, since R has only the six ice-rule entries.
    """
    r = r_matrix(lam, theta, params)
    return (float(np.abs(r @ TOTAL_SPIN - TOTAL_SPIN @ r).max())
            / float(np.abs(r).max()))
