"""Row-to-row monodromy operators on the 2^L quantum space.

The monodromy matrix is a 2x2 array of operators (A, B; C, D) over an
auxiliary two-state space.  Its entries act on the quantum space by
basis-state propagation: the chain factor attached to site L is applied
first, and the dynamical argument seen by the factor at site i is shifted
by -gamma times the total spin of the sites to its right, read off the
current basis state branch by branch.

Basis convention: site i (1-based from the left) maps to bit L - i of the
state index, bit value 0 meaning spin up.  The index 0 state is the all-up
reference state and the index 2^L - 1 state is the all-down one.

A state vector is a plain list of 2^L complex amplitudes in basis-index
order, and a dense operator is a plain list of its 2^L columns, the form of
``rmatrix.matmul``; nothing here imports numpy.
"""

from __future__ import annotations

import functools
import math
from operator import sub

from .core import (
    BadLength,
    ModelParams,
    TooLarge,
    exp,
    s,
    scaled,
    spectral,
    theta_window,
    validate,
)
from .rmatrix import WeightTables, matmul, max_abs, max_abs_diff


# (aux_out_bit, aux_in_bit) selecting each monodromy entry.
_AUX = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}


def _propagate(which: str, sites: list, vec) -> list:
    """Push ``vec`` through the chain factors, site L first.

    ``sites[i - 1]`` holds the ``WeightTables`` of site i, each read at
    offset -hsum, hsum the total spin to the site's right on a basis state.
    """
    if which not in _AUX:
        raise ValueError("monodromy entry must be one of A, B, C, D")
    aux_out, aux_in = _AUX[which]
    return _push(sites, {(aux_in, b): complex(vec[b])
                         for b in range(1 << len(sites))
                         if vec[b] != 0})[aux_out]


def _push(sites: list, amps: dict) -> tuple:
    """Push amplitudes keyed (aux, basis state) through the chain factors.

    Returns the two output vectors, auxiliary output 0 and then 1.
    """
    L = len(sites)
    for shift, tables in enumerate(reversed(sites)):
        new = {}
        for (a, b), amp in amps.items():
            hsum = shift - 2 * (b & ((1 << shift) - 1)).bit_count()
            col = 2 * a + ((b >> shift) & 1)
            for (row, c), val in tables[-hsum].items():
                if c != col:
                    continue
                key = (row >> 1, (b & ~(1 << shift)) | ((row & 1) << shift))
                prev = new.get(key)
                new[key] = amp * val if prev is None else prev + amp * val
        amps = new
    out = ([0j] * (1 << L), [0j] * (1 << L))
    for (a, b), amp in amps.items():
        out[a][b] += amp
    return out


def apply_monodromy_entry(which: str, lam: complex, theta: complex,
                          params: ModelParams, vec) -> list:
    """Apply one monodromy entry to a quantum-space vector.

    ``vec`` is any sequence of 2^L amplitudes; the result is a new list.

    ``theta`` is the dynamical argument of the whole row operator; the
    per-site shifts are resolved internally.
    """
    return _propagate(which, _sites(lam, theta, params), vec)


def _dense(aux_in: int, sites: list) -> tuple:
    """The two entries with auxiliary input ``aux_in`` as dense matrices.

    Input 0 gives (A, C) and input 1 gives (B, D): each basis column is
    pushed once through the site tables ``sites``, as for ``_propagate``,
    and read at both auxiliary outputs.  A matrix is a list of its columns.
    """
    cols = [_push(sites, {(aux_in, b): 1 + 0j})
            for b in range(1 << len(sites))]
    return [c[0] for c in cols], [c[1] for c in cols]


def _sites(lam: complex, theta: complex, params: ModelParams) -> list:
    """The site ``WeightTables`` of one row operator at lam and theta."""
    return [WeightTables(lam - m, theta, params) for m in params.mu]


def monodromy_entry(which: str, lam: complex, theta: complex,
                    params: ModelParams) -> list:
    """One of the four row-operator entries as a dense 2^L x 2^L matrix."""
    if which not in _AUX:
        raise ValueError("monodromy entry must be one of A, B, C, D")
    aux_out, aux_in = _AUX[which]
    return _dense(aux_in, _sites(lam, theta, params))[aux_out]


def vacuum_states(L: int):
    """The all-up reference state and the all-down dual reference state."""
    up = [0j] * (1 << L)
    up[0] = 1 + 0j
    down = [0j] * (1 << L)
    down[-1] = 1 + 0j
    return up, down


def cartan_h(L: int) -> list:
    """Diagonal of the total-spin operator in the basis-index order."""
    return [float(L - 2 * b.bit_count()) for b in range(1 << L)]


def creation_string(params: ModelParams, lambdas, theta: complex,
                    offsets) -> list:
    """Apply B(lambdas[j], theta + offsets[j]*gamma) ... to the all-up state.

    The factor with the largest j is applied first, matching a left-to-right
    written product whose rightmost factor acts first.
    """
    if len(lambdas) != len(offsets):
        raise BadLength("one offset per creation factor is required")
    return _string([_sites(lam, theta + k * params.gamma, params)
                    for lam, k in zip(lambdas, offsets)], params.L)


def _string(factors: list, L: int) -> list:
    """The all-up state under a string of B factors, the last one first.

    ``factors[j]`` holds the site ``WeightTables`` of factor j, as built by
    ``_sites``.
    """
    v, _ = vacuum_states(L)
    for sites in reversed(factors):
        v = _propagate("B", sites, v)
    return v


def partition_algebraic(params: ModelParams, lambdas) -> complex:
    """Partition function as the all-down component of a creation string.

    The j-th factor (1-based) carries dynamical argument theta + j*gamma.
    """
    L = params.L
    lams = validate(params, lambdas, "algebra")
    v = creation_string(params, lams, params.theta, list(range(1, L + 1)))
    return complex(v[-1])


def _rel(lhs: list, rhs: list) -> float:
    return scaled(max_abs_diff(lhs, rhs), max(max_abs(lhs), max_abs(rhs)))


def _norm(v) -> float:
    """2-norm of a state vector."""
    return math.hypot(*(abs(z) for z in v))


def commutation_residuals(l1: complex, l2: complex, theta: complex,
                          params: ModelParams) -> dict:
    """Relative residuals of the exchange relations, as dense matrices.

    Returns a dict keyed by relation name (bb, ab, db, cb), each value the
    max-abs residual of LHS - RHS divided by the larger of the two sides'
    max-abs entries.  The relations with the Cartan factor q^H are left
    out: they hold for any matrices with the ice-rule layout, in which A
    and D keep the total spin, B lowers it by 2 and C raises it by 2.

    They divide by sinh(l1 - l2) (``spectral``) and by sinh(theta + n*gamma)
    for n = -L..L+2 (``theta_window``): site tables at -L..L+1, the Cartan
    factor t q^(2-h) - q^(h-2)/t = 2 sinh(theta + (2-h)*gamma) at |h| <= L.
    """
    spectral((l1, l2), 2, separated=True)
    g = params.gamma
    theta_window(theta, g, range(-params.L, params.L + 3))
    q = exp(g)
    t = exp(theta)
    kvec = [q ** h for h in cartan_h(params.L)]

    # The relations reuse entries: 15 distinct matrices among 24 uses, from
    # one basis push per (auxiliary input, lam, theta), 10 in all; the
    # entries at one (lam, theta) share their site tables.  Every use reads
    # its matrix without writing to it.
    @functools.cache
    def sites(lam, th):
        return _sites(lam, th, params)

    @functools.cache
    def pair(aux_in, lam, th):
        return _dense(aux_in, sites(lam, th))

    def mat(which, lam, th):
        aux_out, aux_in = _AUX[which]
        return pair(aux_in, lam, th)[aux_out]

    def times_diag(m, w):
        """m @ diag(w): column j of m times w[j]."""
        return [[x * z for z in col] for x, col in zip(w, m)]

    def comb(*terms):
        """The entrywise sum of c * m over the (c, m) terms, in order."""
        (c, m), *rest = terms
        out = [[c * z for z in col] for col in m]
        for c, m in rest:
            out = [[x + c * z for x, z in zip(oc, col)]
                   for oc, col in zip(out, m)]
        return out

    def kcomb(c_inv, c_dir):
        return [c_inv / k + c_dir * k for k in kvec]

    g_main = kcomb(t * q ** 2, -(q ** -2) / t)
    g_one = kcomb(t * q, -1 / (t * q))
    xb1, xb2 = exp(l1), exp(l2)
    g_cross = kcomb(t * q * xb1 / xb2, -xb2 / (xb1 * t * q))
    w_one = [a / b for a, b in zip(g_one, g_main)]
    w_cross = [a / b for a, b in zip(g_cross, g_main)]

    out = {}

    lhs = matmul(mat("B", l1, theta), mat("B", l2, theta + g))
    rhs = matmul(mat("B", l2, theta), mat("B", l1, theta + g))
    out["bb"] = _rel(lhs, rhs)

    lhs = matmul(mat("A", l1, theta + g), mat("B", l2, theta))
    rhs = comb(
        ((s(l2 - l1 + g) / s(l2 - l1)) * (s(theta + g) / s(theta + 2 * g)),
         matmul(mat("B", l2, theta + g), mat("A", l1, theta + 2 * g))),
        (-(s(theta + g - l2 + l1) / s(l2 - l1)) * (s(g) / s(theta + 2 * g)),
         matmul(mat("B", l1, theta + g), mat("A", l2, theta + 2 * g))),
    )
    out["ab"] = _rel(lhs, rhs)

    lhs = matmul(mat("D", l1, theta - g), mat("B", l2, theta))
    rhs = comb(
        (s(l1 - l2 + g) / s(l1 - l2),
         times_diag(matmul(mat("B", l2, theta - g), mat("D", l1, theta)),
                    w_one)),
        (-(s(g) / s(l1 - l2)),
         times_diag(matmul(mat("B", l1, theta - g), mat("D", l2, theta)),
                    w_cross)),
    )
    out["db"] = _rel(lhs, rhs)

    lhs = matmul(mat("C", l1, theta + g), mat("B", l2, theta))
    rhs = comb(
        (s(theta) / s(theta + g),
         times_diag(matmul(mat("B", l2, theta + g),
                           mat("C", l1, theta + 2 * g)), w_one)),
        ((s(g) / s(theta + g)) * (s(theta + g + l1 - l2) / s(l1 - l2)),
         times_diag(matmul(mat("A", l2, theta + g), mat("D", l1, theta)),
                    w_one)),
        (-(s(g) / s(l1 - l2)),
         times_diag(matmul(mat("A", l1, theta + g), mat("D", l2, theta)),
                    w_cross)),
    )
    out["cb"] = _rel(lhs, rhs)
    return out


def cbb_residual(n: int, lambdas, theta: complex,
                 params: ModelParams) -> float:
    """Relative residual of pushing one annihilator through n creators.

    ``lambdas`` holds (lambda_0, ..., lambda_n).  The left side applies the
    string of n creation factors to the all-up state and then the
    annihilation entry; the right side assembles the two coefficient
    families with re-indexed creation strings.  The residual is the vector
    2-norm of the difference over the largest participating term norm.
    """
    # Imported here, so that the algebra route does not load closed_form.
    from .closed_form import exchange_terms

    L = params.L
    if not 1 <= n <= L + 1:
        raise BadLength(f"string length {n} outside 1..{L + 1}")
    lam = spectral(lambdas, n + 1, separated=True)
    g = params.gamma

    lhs = creation_string(params, lam[1:], theta, list(range(n)))
    lhs = apply_monodromy_entry("C", lam[0], theta + g, params, lhs)

    terms = [[c * z for z in creation_string(params, args, theta,
                                             list(range(1, n)))]
             for c, args in exchange_terms(lam, theta, params, n)]

    rhs = [sum(zs) for zs in zip(*terms)]
    return scaled(_norm(map(sub, lhs, rhs)),
                  max([_norm(lhs)] + [_norm(v) for v in terms]))


def nilpotency_norm(params: ModelParams, lambdas) -> float:
    """Norm ratio of an over-long creation string applied to the vacuum.

    A string of L+1 creation factors annihilates the all-up state; the
    returned value is the 2-norm of the result divided by the product of the
    factors' max-abs matrix norms (B: auxiliary input 1, output 0), and
    should vanish to rounding.  Each factor's site tables serve both its
    step of the string and its dense matrix.
    """
    L = params.L
    lams = spectral(lambdas, L + 1)
    if L > 6:
        raise TooLarge("nilpotency check materializes matrices; L capped at 6")
    factors = [_sites(z, params.theta + j * params.gamma, params)
               for j, z in enumerate(lams)]
    v = _string(factors, L)
    return scaled(_norm(v),
                  math.prod(max_abs(_dense(1, sites)[0]) for sites in factors))
