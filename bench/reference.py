"""50-digit reference for the permutation formula of the partition function.

The permutation formula sums, over orderings of the row spectral
parameters, a product of site factors (which depend only on the position
and the element placed there) and pair factors between every earlier and
later element.  Walking an ordering position by position, the pair
factors added by each step depend only on the set of elements already
placed, so the sum over L! orderings collapses to a dynamic program over
the 2^L subsets (Held and Karp, 1962): 2^L * L^2 work instead of L! * L^2.

:func:`brute_force_reference` keeps the plain sum over
``itertools.permutations`` as the oracle the dynamic program is tested
against.
"""

from __future__ import annotations

import itertools

import mpmath

DPS = 50


def _mp_inputs(params, lambdas):
    return (mpmath.mpc(params.gamma), mpmath.mpc(params.theta),
            [mpmath.mpc(m) for m in params.mu],
            [mpmath.mpc(z) for z in lambdas])


def permutation_reference(params, lambdas, dps: int = DPS):
    """The partition function at ``dps`` digits by the subset recursion."""
    sh = mpmath.sinh
    L = params.L
    with mpmath.workdps(dps):
        g, th, mu, lam = _mp_inputs(params, lambdas)
        site = [[sh(th + (p + 1) * g - lam[a] + mu[p]) / sh(th + (p + 1) * g)
                 for a in range(L)] for p in range(L)]
        for p in range(L):
            for a in range(L):
                for j in range(p + 1, L):
                    site[p][a] *= sh(lam[a] - mu[j] + g)
                for j in range(p):
                    site[p][a] *= sh(lam[a] - mu[j])
        # pair[b][a]: factor for element b placed after element a.
        pair = [[sh(lam[b] - lam[a] + g) / sh(lam[b] - lam[a]) if a != b
                 else None for a in range(L)] for b in range(L)]
        total = [mpmath.mpc(0)] * (1 << L)
        total[0] = mpmath.mpc(1)
        for placed in range(1 << L):
            pos = bin(placed).count("1")
            if pos == L:
                continue
            before = [a for a in range(L) if placed >> a & 1]
            for b in range(L):
                if placed >> b & 1:
                    continue
                v = total[placed] * site[pos][b]
                for a in before:
                    v *= pair[b][a]
                total[placed | 1 << b] += v
        return sh(g) ** L * total[-1]


def brute_force_reference(params, lambdas, dps: int = DPS):
    """The same formula summed term by term over all L! orderings."""
    sh = mpmath.sinh
    L = params.L
    with mpmath.workdps(dps):
        g, th, mu, lam = _mp_inputs(params, lambdas)
        total = mpmath.mpc(0)
        for perm in itertools.permutations(range(L)):
            v = sh(g) ** L
            for p in range(L):
                a = perm[p]
                v *= sh(th + (p + 1) * g - lam[a] + mu[p]) / sh(th + (p + 1) * g)
                for j in range(p + 1, L):
                    v *= sh(lam[a] - mu[j] + g)
                for j in range(p):
                    v *= sh(lam[a] - mu[j])
            for p in range(L):
                for m in range(p + 1, L):
                    b, a = perm[m], perm[p]
                    v *= sh(lam[b] - lam[a] + g) / sh(lam[b] - lam[a])
            total += v
        return total


def relative_error(value: complex, reference) -> float:
    """|value - reference| / |reference|, evaluated at the reference precision."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpc(value) - reference) / abs(reference))
