"""Statistical weights and the dynamical R-matrix, with its identity checks.

The six nonzero vertex weights depend on a spectral argument ``lam`` and on
the local dynamical parameter ``theta``.  The R-matrix acts on the tensor
product of two two-state spaces ordered (++, +-, -+, --), and the
operator-valued shift of the dynamical parameter is resolved by branching
over the eigenbasis of the spectator height operator.

Everything here is pure Python.  A dense matrix is a plain list of its
columns, ``m[j][i]`` the entry in row i and column j; ``matmul``,
``max_abs`` and ``max_abs_diff`` are the only dense helpers, and
``yb_algebra`` reads the same form.  Each residual here is scaled by the
largest entries of the matrices it multiplies.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import sub

from .core import EPS_SING, ModelParams, SingularTheta, s, scaled


def weights(lam: complex, theta: complex, params: ModelParams) -> dict:
    """The weight table: the six nonzero R-matrix entries at lam and theta.

    Keys are (row, col) in the (++, +-, -+, --) basis: the entry at
    (2a' + s', 2a + s) carries the spin pair (a, s) to (a', s').  The
    R-matrix, the monodromy entries and the face patterns all read this
    one table.  Both a-weights are the same number by construction and
    are evaluated once.
    """
    g = params.gamma
    st = s(theta)
    if abs(st) <= EPS_SING:
        raise SingularTheta(
            f"local dynamical parameter has |sinh| = {abs(st):.3e}"
        )
    a = s(lam + g)
    sl = s(lam)
    sg = s(g)
    return {
        (0, 0): a,
        (1, 1): sl * s(theta - g) / st,
        (1, 2): sg * s(theta - lam) / st,
        (2, 1): sg * s(theta + lam) / st,
        (2, 2): sl * s(theta + g) / st,
        (3, 3): a,
    }


class WeightTables(dict):
    """The weight tables at one spectral argument, keyed by height offset.

    Entry n is ``weights(lam, theta + n * gamma, params)``, built the first
    time n is read.  The face route and the monodromy entries read their
    weights through this one type.
    """

    def __init__(self, lam: complex, theta: complex, params: ModelParams):
        super().__init__()
        self.lam, self.theta, self.params = lam, theta, params

    def __missing__(self, n: int) -> dict:
        p = self.params
        table = self[n] = weights(self.lam, self.theta + n * p.gamma, p)
        return table


def matmul(a: list, b: list) -> list:
    """Product a @ b of two dense matrices, each a list of its columns.

    Zero entries are skipped on both sides: most entries of the R-matrix
    and of the monodromy entries are zero.
    """
    nonzero = [[(i, y) for i, y in enumerate(ak) if y] for ak in a]
    out = []
    for bj in b:
        col = [0j] * len(a[0])
        for x, terms in zip(bj, nonzero):
            if x:
                for i, y in terms:
                    col[i] += x * y
        out.append(col)
    return out


def max_abs(m) -> float:
    """Largest entry modulus of a dense matrix: any iterable of columns."""
    return max(map(abs, chain.from_iterable(m)))


def max_abs_diff(a: list, b: list) -> float:
    """Largest entry modulus of a - b, two dense matrices of one shape."""
    return max_abs(map(sub, p, q) for p, q in zip(a, b))


def r_matrix(lam: complex, theta: complex, params: ModelParams) -> list:
    """The 4x4 R-matrix as a list of its columns.

    Only the six ice-rule entries are nonzero.
    """
    m = [[0j] * 4 for _ in range(4)]
    for (row, col), val in weights(lam, theta, params).items():
        m[col][row] = val
    return m


def _embedded_r(lam, theta, params, pair, branched=False):
    """8x8 R-matrix acting on two of three two-state sites.

    ``pair`` gives the (first, second) site indices in 0..2; the third site
    is the spectator, and the block acts as the identity on it.  When
    ``branched``, the dynamical argument is theta - gamma * h with h = +1/-1
    the spectator spin (bit 0/1), one ``r_matrix`` block per spin.  Site 0
    is the high bit of the basis index.
    """
    p, q = pair
    if branched:
        blocks = [r_matrix(lam, theta + n * params.gamma, params)
                  for n in (-1, 1)]
    else:
        blocks = [r_matrix(lam, theta, params)]
    out = []
    for b in range(8):
        bits = [(b >> 2) & 1, (b >> 1) & 1, b & 1]
        block = blocks[bits[3 - p - q] if branched else 0]
        col = [0j] * 8
        for row, val in enumerate(block[2 * bits[p] + bits[q]]):
            # the pair's output spins; the spectator's stays
            bits[p], bits[q] = row >> 1, row & 1
            col[(bits[0] << 2) | (bits[1] << 1) | bits[2]] = val
        out.append(col)
    return out


def dybe_residual(l1, l2, l3, theta, params) -> float:
    """DYBE residual over the larger of the sides' factor max-abs products.

    The residual is the max-abs entry of LHS - RHS of the dynamical
    Yang-Baxter relation as 8x8 matrices.  The product of the factors'
    largest entries bounds the rounding error of each entry of a triple
    matrix product (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.5); a small sinh(theta + n*gamma) can make single
    factors large while both sides stay of order one.
    """
    l12, l13, l23 = l1 - l2, l1 - l3, l2 - l3
    sides = ((_embedded_r(l12, theta, params, (0, 1), branched=True),
              _embedded_r(l13, theta, params, (0, 2)),
              _embedded_r(l23, theta, params, (1, 2), branched=True)),
             (_embedded_r(l23, theta, params, (1, 2)),
              _embedded_r(l13, theta, params, (0, 2), branched=True),
              _embedded_r(l12, theta, params, (0, 1))))
    lhs, rhs = (matmul(matmul(a, b), c) for a, b, c in sides)
    return scaled(max_abs_diff(lhs, rhs),
                  max(math.prod(map(max_abs, side)) for side in sides))


def unitarity_residual(lam, theta, params) -> float:
    """Unitarity residual over the product of the factors' max-abs entries.

    The residual is the max-abs entry of
    R(lam) P R(-lam) P - sinh(g+lam) sinh(g-lam) Id.  As for the DYBE, the
    product of the factors' largest entries is the forward-error scale:
    near a zero of sinh(theta) both factors grow like 1/sinh(theta) while
    the product stays of the size of sinh(g+lam) sinh(g-lam).
    """
    swap = [[1 + 0j if i == j else 0j for i in range(4)] for j in (0, 2, 1, 3)]
    g = params.gamma
    r1 = r_matrix(lam, theta, params)
    r2 = r_matrix(-lam, theta, params)
    target = s(g + lam) * s(g - lam)
    lhs = matmul(matmul(matmul(r1, swap), r2), swap)
    diff = max_abs([z - target if i == j else z for i, z in enumerate(col)]
                   for j, col in enumerate(lhs))
    return scaled(diff, max_abs(r1) * max_abs(r2))


def ice_residual(lam, theta, params) -> float:
    """Ice-rule residual over the max-abs entry of R.

    The residual is the max-abs entry of the commutator of R with the total
    spin; it vanishes exactly, since R has only the six ice-rule entries.
    """
    spin = [[complex(h) if i == j else 0j for i in range(4)]
            for j, h in enumerate((2.0, 0.0, 0.0, -2.0))]
    r = r_matrix(lam, theta, params)
    lhs, rhs = matmul(r, spin), matmul(spin, r)
    return scaled(max_abs_diff(lhs, rhs), max_abs(r))
