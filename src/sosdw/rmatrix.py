"""Statistical weights and the dynamical R-matrix, with its identity checks.

The six nonzero vertex weights depend on a spectral argument ``lam`` and on
the local dynamical parameter ``theta``.  The R-matrix acts on the tensor
product of two two-state spaces ordered (++, +-, -+, --), and the
operator-valued shift of the dynamical parameter is resolved by branching
over the eigenbasis of the spectator height operator.  The weight table is
pure Python; the dense matrices and their identity checks import numpy in
their own bodies.
"""

from __future__ import annotations

from .core import EPS_SING, ModelParams, SingularTheta, s


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


def r_matrix(lam: complex, theta: complex, params: ModelParams):
    """The 4x4 R-matrix; only the six ice-rule entries are nonzero."""
    import numpy as np

    m = np.zeros((4, 4), dtype=complex)
    for entry, val in weights(lam, theta, params).items():
        m[entry] = val
    return m


def _embedded_r(lam, theta, params, pair, branched=False):
    """8x8 matrix of the R-matrix acting on two of three two-state sites.

    ``pair`` gives the (first, second) site indices in 0..2; the third site
    is the spectator, and the block acts as the identity on it.  When
    ``branched``, the dynamical argument is theta - gamma * h with h = +1/-1
    the spectator spin (bit 0/1), one ``r_matrix`` block per spin.
    """
    import numpy as np

    p, q = pair
    if branched:
        blocks = [r_matrix(lam, theta + n * params.gamma, params)
                  for n in (-1, 1)]
    else:
        blocks = [r_matrix(lam, theta, params)] * 2
    # axes (out bits, in bits) of sites 0..2; the view puts pair first
    m = np.zeros((2,) * 6, dtype=complex)
    view = m.transpose(p, q, 3 - p - q, 3 + p, 3 + q, 6 - p - q)
    for h, block in enumerate(blocks):
        view[:, :, h, :, :, h] = block.reshape(2, 2, 2, 2)
    return m.reshape(8, 8)


def dybe_residual(l1, l2, l3, theta, params) -> float:
    """DYBE residual over the larger product of one side's factor 2-norms.

    The residual is the max-abs entry of LHS - RHS of the dynamical
    Yang-Baxter relation as 8x8 matrices.  The factor-norm product is the
    forward-error scale of a triple matrix product; a small
    sinh(theta + n*gamma) can make single factors large while both sides
    stay of order one.
    """
    import numpy as np

    l12, l13, l23 = l1 - l2, l1 - l3, l2 - l3
    factors = ((_embedded_r(l12, theta, params, (0, 1), branched=True),
                _embedded_r(l13, theta, params, (0, 2)),
                _embedded_r(l23, theta, params, (1, 2), branched=True)),
               (_embedded_r(l23, theta, params, (1, 2)),
                _embedded_r(l13, theta, params, (0, 2), branched=True),
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
    import numpy as np

    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    g = params.gamma
    r1 = r_matrix(lam, theta, params)
    r2 = r_matrix(-lam, theta, params)
    target = s(g + lam) * s(g - lam) * np.eye(4, dtype=complex)
    scale = np.linalg.norm(r1, 2) * np.linalg.norm(r2, 2)
    return float(np.abs(r1 @ swap @ r2 @ swap - target).max() / scale)


def ice_residual(lam, theta, params) -> float:
    """Ice-rule residual over the max-abs entry of R.

    The residual is the max-abs entry of the commutator of R with the total
    spin; it vanishes exactly, since R has only the six ice-rule entries.
    """
    import numpy as np

    spin = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)
    r = r_matrix(lam, theta, params)
    return (float(np.abs(r @ spin - spin @ r).max())
            / float(np.abs(r).max()))
