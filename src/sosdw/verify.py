"""Randomized verification suites for every identity in the package.

``SUITES`` maps each suite name to its check and threshold.  A check draws
one seeded random parameter set and evaluates one identity residual;
:func:`run_suite` numbers the draws and gives each row its verdict.
Residuals are measured relative to the scale of the terms entering the
identity, so thresholds are dimensionless.

Draw predicates reject parameter sets that sit close to a denominator zero
or to a cancellation catastrophe.  The rejection floors are far above the
hard validation guards, so the suites exercise the generic region where
the stated thresholds are meaningful; the guards themselves are covered by
the unit tests.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import accumulate

from .core import ModelParams, ValidationError, close_pair, s
from .sampling import draw_complex, draw_model, draw_spectral, first_admissible


class CheckRow(namedtuple("CheckRow",
                           "label residual threshold passed detail")):
    """One residual with its verdict; a failing row's reproduction text."""

    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", "suite seed draws rows")):
    """All rows of one suite run."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    def render(self) -> str:
        lines = [f"suite {self.suite}  seed {self.seed}  draws {self.draws}"]
        for r in self.rows:
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{self.suite} {r.label}] residual {r.residual:.17g} "
                f"threshold {r.threshold:.17g} {verdict}"
            )
            if not r.passed:
                lines.append(f"  reproduce: {r.detail}")
        lines.append(
            f"suite {self.suite}: {self.n_passed}/{len(self.rows)} passed "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def _c(z: complex) -> str:
    return f"({z.real:.17g}{z.imag:+.17g}j)"


def _cs(zs) -> str:
    return "[" + ", ".join(_c(z) for z in zs) + "]"


def _where(params) -> str:
    """Reproduce-detail prefix: the drawn anisotropy and dynamical height."""
    return f"gamma={_c(params.gamma)} theta={_c(params.theta)}"


def _where_lams(params, lams) -> str:
    """Reproduce detail: the drawn inhomogeneities and spectral parameters."""
    return f"{_where(params)} mu={_cs(params.mu)} lambdas={_cs(lams)}"


def _floor_ok(params, offsets, floor=1e-3) -> bool:
    """Draw floor: |sinh(theta + n*gamma)| > floor for every n in offsets."""
    return all(abs(s(params.theta + n * params.gamma)) > floor
               for n in offsets)


def _clear(params, lo, hi) -> bool:
    """gamma and every theta + n*gamma, n in lo..hi, clear of sinh zeros."""
    return (abs(s(params.gamma)) > 1e-3
            and _floor_ok(params, range(lo, hi + 1)))


def _draw_params(rng, L, pred):
    """Box-draw a parameter set passing construction and a predicate."""
    def draw():
        gamma = draw_complex(rng)
        theta = draw_complex(rng)
        mu = draw_spectral(rng, L)
        return ModelParams(gamma=gamma, theta=theta, mu=mu, L=L)

    return first_admissible(draw, pred, "parameter draw")


def _draw_separated(rng, count, floor, avoid=()):
    """Draw spectral parameters whose pairwise sinh gaps clear the floor."""
    return first_admissible(
        lambda: draw_spectral(rng, count),
        lambda lams: close_pair(tuple(avoid) + lams, floor) is None,
        "separated spectral draw")


def _generic_closed_form(params) -> bool:
    """Draw region of the closed-form suites: clear of every denominator."""
    return (_clear(params, 0, 2 * params.L + 2)
            and close_pair(params.mu, 1e-3) is None)


# Each check draws the k-th (0-based) parameter set of a suite run and
# returns (label suffix, residual, reproduce detail), the detail as a
# callable that only a failing row calls.  It imports the route module it
# evaluates in its body, so that a process running one suite loads and
# compiles only the modules that suite needs.


def _check_dybe(rng, k):
    from . import rmatrix

    params = _draw_params(rng, 1, pred=lambda p: _clear(p, -2, 2))
    l1, l2, l3 = draw_spectral(rng, 3)
    return ("", rmatrix.dybe_residual(l1, l2, l3, params.theta, params),
            lambda: f"{_where(params)} l1={_c(l1)} l2={_c(l2)} l3={_c(l3)}")


def _check_ice(rng, k):
    from . import rmatrix

    params = _draw_params(rng, 1, pred=lambda p: abs(s(p.theta)) > 1e-3)
    lam = draw_complex(rng)
    return ("", rmatrix.ice_residual(lam, params.theta, params),
            lambda: f"{_where(params)} lam={_c(lam)}")


def _check_unitarity(rng, k):
    from . import rmatrix

    params = _draw_params(rng, 1, pred=lambda p: abs(s(p.theta)) > 1e-3)
    g = params.gamma
    lam = first_admissible(
        lambda: draw_complex(rng),
        lambda z: abs(s(g + z)) > 1e-3 and abs(s(g - z)) > 1e-3,
        "spectral draw")
    return ("", rmatrix.unitarity_residual(lam, params.theta, params),
            lambda: f"{_where(params)} lam={_c(lam)}")


def _check_hexagon(rng, k):
    from . import face_model

    params = _draw_params(rng, 1, pred=lambda p: _clear(p, -4, 4))
    base = rng.randrange(-1, 2)
    steps = [1, 1, 1, -1, -1, -1]
    rng.shuffle(steps)
    ks = list(accumulate(steps[:5], initial=base))
    u = draw_complex(rng)
    v = draw_complex(rng)
    return ("", face_model.hexagon_residual(u, v, ks, params),
            lambda: f"{_where(params)} u={_c(u)} v={_c(v)} ks={ks}")


def _check_commut(rng, k):
    from . import yb_algebra

    L = 2 + (k % 2)
    # The last floor keeps each Cartan factor 2 sinh(theta + n*gamma) >= 1e-2.
    params = _draw_params(
        rng, L,
        pred=lambda p: (_clear(p, -p.L - 2, 2 * p.L + 3)
                        and _floor_ok(p, range(2 - p.L, 3 + p.L, 2), 5e-3)),
    )
    l1, l2 = _draw_separated(rng, 2, 1e-2)
    resmap = yb_algebra.commutation_residuals(l1, l2, params.theta, params)
    worst = max(resmap, key=lambda key: resmap[key])
    return (f" L={L} {worst}", resmap[worst],
            lambda: f"{_where(params)} mu={_cs(params.mu)} "
                    f"l1={_c(l1)} l2={_c(l2)}")


def _check_cbb(rng, k):
    from . import yb_algebra

    n, L = ((1, 2), (2, 2), (2, 3), (3, 3))[k % 4]
    params = _draw_params(rng, L,
                          pred=lambda p: _clear(p, -p.L - 1, 2 * p.L + 2))
    lams = _draw_separated(rng, n + 1, 1e-2)
    return (f" n={n} L={L}",
            yb_algebra.cbb_residual(n, lams, params.theta, params),
            lambda: _where_lams(params, lams))


def _check_nilpotency(rng, k):
    from . import yb_algebra

    L = 1 + (k % 3)
    params = _draw_params(
        rng, L, pred=lambda p: _floor_ok(p, range(-p.L - 1, 2 * p.L + 3), 1e-6)
    )
    lams = draw_spectral(rng, L + 1)
    return (f" L={L}", yb_algebra.nilpotency_norm(params, lams),
            lambda: _where_lams(params, lams))


def _check_functional(rng, k):
    from . import closed_form

    L = 1 + (k % 4)
    params = _draw_params(rng, L, pred=_generic_closed_form)
    lams = _draw_separated(rng, L + 2, 1e-2)
    return (f" L={L}", closed_form.functional_equation_residual(params, lams),
            lambda: _where_lams(params, lams))


def _check_zeroes(rng, k):
    from . import closed_form

    L = 2 + (k % 3)
    # The pins mu_1 and mu_1 - gamma sit |sinh gamma| apart, so gamma must
    # clear the separation floor the free values are held to.
    params = _draw_params(
        rng, L,
        pred=lambda p: _generic_closed_form(p) and abs(s(p.gamma)) > 1e-2,
    )
    pins = (params.mu[0], params.mu[0] - params.gamma)
    lams = pins + _draw_separated(rng, L - 2, 1e-2, avoid=pins)
    return (f" L={L}", closed_form.special_zero_residual(params, lams),
            lambda: _where_lams(params, lams))


def _check_symmetry(rng, k):
    from . import closed_form

    L = 2 + (k % 3)
    params = _draw_params(rng, L, pred=_generic_closed_form)
    lams = first_admissible(
        lambda: _draw_separated(rng, L, 1e-2),
        lambda lams: closed_form.permutation_condition(params, lams) < 1e3,
        "well-conditioned draw")
    i = rng.randrange(L)
    j = (i + 1 + rng.randrange(L - 1)) % L
    return (f" L={L} swap=({i},{j})",
            closed_form.swap_residual(params, lams, i, j),
            lambda: _where_lams(params, lams))


def _check_degree(rng, k):
    from . import closed_form

    L = 1 + (k % 4)
    params = _draw_params(rng, L, pred=_generic_closed_form)
    which = rng.randrange(L)
    return (f" L={L} var={which}",
            closed_form.degree_residual(params, which),
            lambda: f"{_where(params)} mu={_cs(params.mu)}")


def _check_asymptotic(rng, k):
    from . import closed_form

    L = 1 + (k % 3)
    params = _draw_params(rng, L, pred=_generic_closed_form)
    expect = closed_form.asymptotic_leading_coefficient(params)
    got = closed_form.leading_coefficient_interpolated(params)
    return (f" L={L}", abs(got - expect) / abs(expect),
            lambda: f"{_where(params)} mu={_cs(params.mu)}")


def _check_ode(rng, k):
    from . import closed_form

    params = _draw_params(rng, 1, pred=lambda p: _clear(p, 0, 4))
    lam = draw_complex(rng)
    return ("", closed_form.ode_residual_L1(lam, params),
            lambda: f"{_where(params)} mu={_cs(params.mu)} lam={_c(lam)}")


def _spread_ok(params, lams) -> bool:
    center = sum(lams) / len(lams)
    return max(abs(z - center) for z in lams) < 1.2


def _check_contour(rng, k):
    from . import contour

    L = 1 + (k % 3)
    params, lams = draw_model(rng, L, routes=("residue", "quadrature"),
                              predicate=_spread_ok)
    ref = contour.partition_residue(params, lams)
    quad = contour.partition_quadrature(params, lams)
    return (f" L={L}", abs(quad - ref) / max(abs(quad), abs(ref)),
            lambda: _where_lams(params, lams))


class Suite(namedtuple("Suite", "check threshold")):
    """One identity family: its per-draw check and its pass threshold."""

    __slots__ = ()


SUITES = {
    "dybe": Suite(_check_dybe, 1e-12),
    "ice": Suite(_check_ice, 1e-14),
    "unitarity": Suite(_check_unitarity, 1e-13),
    "hexagon": Suite(_check_hexagon, 1e-12),
    "commut": Suite(_check_commut, 1e-11),
    "cbb": Suite(_check_cbb, 1e-10),
    "nilpotency": Suite(_check_nilpotency, 1e-11),
    "functional": Suite(_check_functional, 1e-9),
    "zeroes": Suite(_check_zeroes, 1e-9),
    "symmetry": Suite(_check_symmetry, 1e-11),
    "degree": Suite(_check_degree, 1e-10),
    "asymptotic": Suite(_check_asymptotic, 1e-12),
    "ode": Suite(_check_ode, 1e-12),
    "contour": Suite(_check_contour, 1e-8),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int, draws: int) -> SuiteReport:
    """Run one named suite with a fresh seeded generator."""
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; expected one of "
                              f"{SUITE_NAMES}")
    if draws < 1:
        raise ValidationError("draw count must be positive")
    suite = SUITES[name]
    rng = random.Random(seed)
    rows = []
    for k in range(draws):
        suffix, residual, detail = suite.check(rng, k)
        residual = float(residual)
        passed = residual < suite.threshold
        rows.append(CheckRow(label=f"{k + 1:03d}{suffix}", residual=residual,
                             threshold=suite.threshold, passed=passed,
                             detail=None if passed else detail()))
    return SuiteReport(suite=name, seed=seed, draws=draws, rows=tuple(rows))
