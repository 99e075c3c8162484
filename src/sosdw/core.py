"""Parameter types, hyperbolic helpers, validation gates and the route table.

Conventions used throughout the package:

* every spectral quantity is a double-precision python complex,
* face heights are stored as integer offsets ``k`` representing the height
  ``theta + k * gamma``,
* reproducible arithmetic: product accumulation orders are fixed, and sums
  over configuration or permutation terms go through :func:`pairwise_sum`.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import math
import operator
from collections import namedtuple
from collections.abc import Callable
from itertools import chain, islice

EPS_SING = 1e-8  # minimum |sinh| for any weight or coefficient denominator
EPS_SEP = 1e-6   # minimum |sinh| separation between spectral parameters


class ValidationError(ValueError):
    """Rejected input; the command line maps this to exit code 2."""


class SingularTheta(ValidationError):
    """A dynamical-parameter denominator sinh(theta + n*gamma) is too small."""


class DegenerateGamma(ValidationError):
    """sinh(gamma) is too small; the anisotropy must stay away from zero."""


class CoincidentSpectral(ValidationError):
    """Two spectral parameters coincide on a route that divides by their gap."""


class BadLength(ValidationError):
    """A parameter vector has the wrong number of entries."""


class TooLarge(ValidationError):
    """The requested system size exceeds the cap of the route."""


class NonFinite(ValidationError):
    """A parameter is NaN or infinite."""


class SinhOverflow(ValidationError):
    """sinh or exp of an argument exceeds the double-precision range."""


class NumericalError(RuntimeError):
    """A computation ran but failed to converge or to fit; exit code 1."""


class NoConvergence(NumericalError):
    """Successive refinements stopped improving before reaching tolerance."""


def s(z: complex) -> complex:
    """sinh(z).  Odd, entire, and antiperiodic under z -> z + i*pi."""
    try:
        return cmath.sinh(z)
    except OverflowError:
        raise SinhOverflow(
            f"sinh of {z} exceeds the double-precision range"
        ) from None


def exp(z: complex) -> complex:
    """e^z, under the overflow policy of :func:`s`."""
    try:
        return cmath.exp(z)
    except OverflowError:
        raise SinhOverflow(f"exp of {z} exceeds the double range") from None


def in_range(fn: Callable) -> Callable:
    """``fn`` under the overflow policy of :func:`s`, for its value too."""
    @functools.wraps(fn)
    def checked(*args):
        try:
            value = fn(*args)
        except OverflowError:
            value = math.inf
        if not cmath.isfinite(value):
            raise SinhOverflow(f"{fn.__name__} exceeds the double range")
        return value
    return checked


class _Odd:
    def __radd__(self, v):  # v + _ODD is v: the pad after an odd last value
        return v


_ODD = _Odd()
_BLOCK = 1 << 12  # values per block; an aligned block is a complete subtree


def _tree(vals: list) -> complex:
    """Finish a balanced tree from one level, carrying an odd last value up."""
    while len(vals) > 1:
        pairs = iter(vals)
        merged = list(map(operator.add, pairs, pairs))
        if len(vals) % 2:
            merged.append(vals[-1])
        vals = merged
    return vals[0]


def pairwise_sum(values) -> complex:
    """Sum a sequence in a fixed balanced-tree association order.

    Each level adds neighbours, v0 + v1, v2 + v3, ..., and carries an odd
    last value up; runs are bit-identical and roundoff grows as O(log n).
    Without copying the input, one map over it (padded by ``_ODD``) gives
    the first level in blocks of ``_BLOCK`` values, each a whole subtree.
    """
    it = chain(values, (_ODD,))
    pairs = map(operator.add, it, it)
    blocks = iter(lambda: list(islice(pairs, _BLOCK // 2)), [])
    return _tree(list(map(_tree, blocks)) or [0j])


def ordering_terms(site, pair) -> list:
    """One product per ordering a of range(len(site)), in permutations order.

    The term of ``a`` is prod_p site[p][a_p] times prod_{p<m} pair[a_m][a_p].
    Placing element e after the set S of elements already placed multiplies
    by step[S][e] = site[|S|][e] * prod_{x in S} pair[e][x], so a term is the
    prefix product ((1 * step[{}][a_0]) * step[{a_0}][a_1]) * ... taken left
    to right along the ordering.  The table has 2^L * L entries: the pair
    product of S extends that of S minus its lowest element by one
    multiplication (so the pair factors enter highest x first), and the site
    factor multiplies it last.  The walk shares each prefix product among
    the orderings that begin with it; from L = 4 on it stops four steps
    short, where per-set tail tables give the last four.  Both L! routes sum
    these terms, each over its own factor tables.
    """
    L = len(site)
    # steps[S]: (S | 1 << e, step[S][e]) for each e not in S, e increasing
    prods = [1.0 + 0j] * L  # prods[S * L + e] = prod_{x in S} pair[e][x]
    steps = [[(1 << e, site[0][e]) for e in range(L)]]
    for S in range(1, (1 << L) - 1):  # the full set takes no step
        x = (S & -S).bit_length() - 1
        base = (S & (S - 1)) * L
        row = site[S.bit_count()]
        step = []
        for e in range(L):
            v = prods[base + e] * pair[e][x]
            prods.append(v)
            if not S >> e & 1:
                step.append((S | 1 << e, row[e] * v))
        steps.append(step)
    level = [(0, 1.0 + 0j)]
    for _ in range(L - 4 if L >= 4 else L):
        level = [(T, v * t) for S, v in level for T, t in steps[S]]
    if L < 4:
        return [v for _, v in level]
    # tail[S], S with two elements left: its completions (a, b), (c, d) flat;
    # with three: (u, *tail[U]) for each of its steps (U, u), flat
    tail = [None] * (1 << L)
    for S in range((1 << L) - 1, -1, -1):  # supersets first
        if (n := L - S.bit_count()) == 2:
            (W, a), (X, c) = steps[S]
            tail[S] = (a, steps[W][0][1], c, steps[X][0][1])
        elif n == 3:
            (U, u), (V, v), (W, w) = steps[S]
            tail[S] = (u, *tail[U], v, *tail[V], w, *tail[W])
    out = []
    for S, p in level:
        for T, t in steps[S]:
            u, a, b, c, d, u2, a2, b2, c2, d2, u3, a3, b3, c3, d3 = tail[T]
            x = p * t
            y, y2, y3 = x * u, x * u2, x * u3
            out.extend(((y * a) * b, (y * c) * d, (y2 * a2) * b2,
                        (y2 * c2) * d2, (y3 * a3) * b3, (y3 * c3) * d3))
    return out


def _need_finite(value: complex, what: str) -> None:
    if not cmath.isfinite(value):
        raise NonFinite(f"{what} must be finite, got {value}")


class ModelParams(namedtuple("ModelParams", "gamma theta mu L")):
    """Immutable model data: anisotropy, dynamical parameter, inhomogeneities.

    ``mu`` holds the L column inhomogeneities.  Heights are represented
    relative to ``theta`` as integer multiples of ``gamma`` and never stored
    as absolute complex numbers.
    """

    __slots__ = ()

    def __new__(cls, gamma, theta, mu, L):
        gamma = complex(gamma)
        theta = complex(theta)
        mu = tuple(complex(m) for m in mu)
        if isinstance(L, bool) or not isinstance(L, int):
            raise BadLength(f"system size must be an integer, got {L!r}")
        if L < 1:
            raise BadLength(f"system size must be at least 1, got {L}")
        if len(mu) != L:
            raise BadLength(f"expected {L} inhomogeneities, got {len(mu)}")
        _need_finite(gamma, "gamma")
        _need_finite(theta, "theta")
        for i, m in enumerate(mu):
            _need_finite(m, f"mu[{i}]")
        if abs(s(gamma)) <= EPS_SING:
            raise DegenerateGamma(
                "sinh(gamma) is numerically zero; the model degenerates"
            )
        return super().__new__(cls, gamma, theta, mu, L)

    def _replace(self, **changes):
        """A copy with some fields changed, normalised and validated anew."""
        return type(self)(**{**self._asdict(), **changes})


def _asm_count(L: int) -> int:
    """Alternating sign matrices of size L, one per face configuration."""
    return (math.prod(math.factorial(3 * k + 1) for k in range(L))
            // math.prod(math.factorial(L + k) for k in range(L)))


def _late(module: str, name: str) -> Callable:
    """Call ``sosdw.<module>.<name>`` as bound at call time, not at import.

    The route modules import this one, and a function swapped in after
    import must be the one that runs.
    """
    return lambda *args: getattr(
        importlib.import_module(f"{__package__}.{module}"), name)(*args)


def _exact(module: str, name: str) -> Callable:
    """Evaluator of a route whose function returns the value alone."""
    fn = _late(module, name)
    return lambda params, lambdas, contour: (fn(params, lambdas), None)


class Route(namedtuple("Route", "evaluate workload cap window separated",
                        defaults=(False,))):
    """One evaluation route: how it runs, how far it reaches, what it checks.

    ``evaluate(params, lambdas, contour)`` returns ``(value, detail)``, and
    ``workload(L, detail)`` the number of terms, states or nodes summed.
    ``cap`` is the largest accepted L.  ``window(L)`` holds the offsets n
    whose denominators sinh(theta + n*gamma) the route divides by;
    ``separated`` routes also divide by spectral gaps.
    """

    __slots__ = ()


# Face reads its dynamical argument one step above the top-left height of
# each quartet.  The algebraic route resolves operator-valued shifts branch
# by branch, which widens its window on both sides.  Permutation and residue
# share the closed-form window, sized so that the functional-equation
# coefficients built on top of them stay finite as well.
ROUTE_TABLE = {
    "face": Route(
        _exact("face_model", "enumerate_partition"),
        workload=lambda L, _: _asm_count(L),
        cap=5, window=lambda L: range(1, L + 2)),
    "algebra": Route(
        _exact("yb_algebra", "partition_algebraic"),
        workload=lambda L, _: 1 << L,
        cap=10, window=lambda L: range(1 - L, 2 * L + 2)),
    "permutation": Route(
        _exact("closed_form", "partition_permutation_sum"),
        workload=lambda L, _: math.factorial(L),
        cap=8, window=lambda L: range(1, 2 * L + 2), separated=True),
    "residue": Route(
        _exact("contour", "partition_residue"),
        workload=lambda L, _: math.factorial(L),
        cap=8, window=lambda L: range(1, 2 * L + 2), separated=True),
    "quadrature": Route(
        _late("contour", "partition_quadrature_info"),
        workload=lambda L, nodes: nodes,
        cap=3, window=lambda L: range(1, L + 1)),
}

ROUTES = tuple(ROUTE_TABLE)


def close_pair(points, floor: float):
    """The first pair (i, j), i < j, with |sinh(z_i - z_j)| <= floor, or None.

    Validation, the exchange-relation checks and the suites' separated
    draws all judge coincidence here.
    """
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(s(points[i] - points[j])) <= floor:
                return i, j
    return None


def spectral(values, n: int, separated: bool = False) -> tuple:
    """An identity check's n spectral arguments, as complex values.

    BadLength for any other count; when ``separated``, CoincidentSpectral
    for the first pair :func:`close_pair` finds within EPS_SEP.
    """
    lams = tuple(complex(z) for z in values)
    if len(lams) != n:
        raise BadLength(f"expected {n} spectral values, got {len(lams)}")
    if separated and (pair := close_pair(lams, EPS_SEP)) is not None:
        raise CoincidentSpectral(
            f"spectral arguments {pair[0]} and {pair[1]} coincide")
    return lams


def scaled(residual: float, scale: float) -> float:
    """A residual relative to its scale; 0.0 when every term vanished."""
    return 0.0 if scale == 0.0 else residual / scale


def theta_window(theta: complex, gamma: complex, offsets) -> None:
    """The one gate on the denominators sinh(theta + n*gamma), n in offsets.

    SingularTheta for the first n whose |sinh| is at or below EPS_SING.
    """
    for n in offsets:
        if abs(s(theta + n * gamma)) <= EPS_SING:
            raise SingularTheta(
                f"sinh(theta + {n}*gamma) is below {EPS_SING:g}"
            )


def validate(params: ModelParams, lambdas, route: str) -> tuple:
    """The one gate of a route: cap, count, finiteness, window, coincidence.

    Returns the spectral parameters as a tuple of complex values, or raises
    a ValidationError subclass for the first violated invariant, in order.
    """
    if route not in ROUTE_TABLE:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    spec = ROUTE_TABLE[route]
    if params.L > spec.cap:
        raise TooLarge(
            f"route {route} capped at L = {spec.cap} (requested {params.L})"
        )
    lams = spectral(lambdas, params.L)
    for i, z in enumerate(lams):
        _need_finite(z, f"lambda[{i}]")
    theta_window(params.theta, params.gamma, spec.window(params.L))
    if spec.separated and (pair := close_pair(lams, EPS_SEP)) is not None:
        raise CoincidentSpectral(
            f"spectral parameters {pair[0]} and {pair[1]} are closer "
            f"than {EPS_SEP:g} on route {route}"
        )
    return lams
