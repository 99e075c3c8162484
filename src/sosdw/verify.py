"""Randomized verification suites for every identity in the package.

Each suite draws seeded random parameter sets, evaluates one family of
identity residuals, and reports rows of (residual, threshold, verdict).
Residuals are measured relative to the scale of the terms entering the
identity, so thresholds are dimensionless.

Draw predicates reject parameter sets that sit close to a denominator zero
or to a cancellation catastrophe.  The rejection floors are far above the
hard validation guards, so the suites exercise the generic region where
the stated thresholds are meaningful; the guards themselves are covered by
the unit tests.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

import numpy as np

from . import closed_form, contour, face_model, rmatrix, yb_algebra
from .core import ModelParams, ValidationError, s
from .sampling import draw_complex, draw_model, draw_spectral

SUITE_NAMES = (
    "dybe", "ice", "unitarity", "hexagon", "commut", "cbb", "nilpotency",
    "functional", "zeroes", "symmetry", "degree", "asymptotic", "ode",
    "contour",
)

THRESHOLDS = {
    "dybe": 1e-12,
    "ice": 1e-14,
    "unitarity": 1e-13,
    "hexagon": 1e-12,
    "commut": 1e-11,
    "cbb": 1e-10,
    "nilpotency": 1e-11,
    "functional": 1e-9,
    "zeroes": 1e-9,
    "symmetry": 1e-11,
    "degree": 0.5,
    "asymptotic": 1e-8,
    "ode": 1e-12,
    "contour": 1e-8,
}

_MAX_REJECT = 2000


@dataclass(frozen=True)
class CheckRow:
    """One residual measurement with its verdict and reproduction data."""

    label: str
    residual: float
    threshold: float
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    """All rows of one suite run."""

    suite: str
    seed: int
    draws: int
    rows: tuple

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


def _row(label, residual, threshold, detail) -> CheckRow:
    residual = float(residual)
    return CheckRow(label=label, residual=residual, threshold=threshold,
                    passed=residual < threshold, detail=detail)


def _theta_window_ok(gamma, theta, lo, hi, floor) -> bool:
    return all(abs(s(theta + n * gamma)) > floor for n in range(lo, hi + 1))


def _draw_params(rng, L, pred=None):
    """Box-draw a parameter set passing construction and a predicate."""
    for _ in range(_MAX_REJECT):
        gamma = draw_complex(rng)
        theta = draw_complex(rng)
        mu = draw_spectral(rng, L)
        try:
            params = ModelParams(gamma=gamma, theta=theta, mu=mu, L=L)
        except ValidationError:
            continue
        if pred is None or pred(params):
            return params
    raise RuntimeError("parameter draw predicate never satisfied")


def _draw_separated(rng, count, floor, avoid=()):
    """Draw spectral values whose pairwise sinh gaps clear the floor."""
    for _ in range(_MAX_REJECT):
        lams = draw_spectral(rng, count)
        pts = list(avoid) + list(lams)
        ok = True
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if abs(s(pts[a] - pts[b])) <= floor:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return lams
    raise RuntimeError("spectral separation draw never satisfied")


def _mu_gaps_ok(params, floor=1e-3) -> bool:
    mu = params.mu
    for a in range(len(mu)):
        for b in range(a + 1, len(mu)):
            if abs(s(mu[a] - mu[b])) <= floor:
                return False
    return True


def _generic_closed_form(params) -> bool:
    """Draw region of the closed-form suites: clear of every denominator."""
    return (abs(s(params.gamma)) > 1e-3
            and _theta_window_ok(params.gamma, params.theta, 0,
                                 2 * params.L + 2, 1e-3)
            and _mu_gaps_ok(params))


def _suite_dybe(rng, draws):
    rows = []
    for k in range(draws):
        params = _draw_params(
            rng, 1,
            pred=lambda p: abs(s(p.gamma)) > 1e-3
            and _theta_window_ok(p.gamma, p.theta, -2, 2, 1e-3),
        )
        l1, l2, l3 = draw_spectral(rng, 3)
        res = rmatrix.dybe_relative_residual(l1, l2, l3, params.theta, params)
        rows.append(_row(
            f"{k + 1:03d}", res, THRESHOLDS["dybe"],
            f"{_where(params)} l1={_c(l1)} l2={_c(l2)} l3={_c(l3)}",
        ))
    return rows


def _suite_ice(rng, draws):
    rows = []
    for k in range(draws):
        params = _draw_params(
            rng, 1, pred=lambda p: abs(s(p.theta)) > 1e-3
        )
        lam = draw_complex(rng)
        r = rmatrix.r_matrix(lam, params.theta, params).entries
        scale = float(np.abs(r).max())
        res = rmatrix.ice_residual(lam, params.theta, params) / scale
        rows.append(_row(
            f"{k + 1:03d}", res, THRESHOLDS["ice"],
            f"{_where(params)} lam={_c(lam)}",
        ))
    return rows


def _suite_unitarity(rng, draws):
    rows = []
    for k in range(draws):
        params = _draw_params(
            rng, 1, pred=lambda p: abs(s(p.theta)) > 1e-3
        )

        for _ in range(_MAX_REJECT):
            lam = draw_complex(rng)
            if (abs(s(params.gamma + lam)) > 1e-3
                    and abs(s(params.gamma - lam)) > 1e-3):
                break
        else:
            raise RuntimeError("no admissible spectral draw found")
        r1 = rmatrix.r_matrix(lam, params.theta, params).entries
        r2 = rmatrix.r_matrix(-lam, params.theta, params).entries
        prod = r1 @ rmatrix.SWAP @ r2 @ rmatrix.SWAP
        scalar = s(params.gamma + lam) * s(params.gamma - lam)
        target = scalar * np.eye(4, dtype=complex)
        scale = max(float(np.abs(prod).max()), abs(scalar))
        res = float(np.abs(prod - target).max()) / scale
        rows.append(_row(
            f"{k + 1:03d}", res, THRESHOLDS["unitarity"],
            f"{_where(params)} lam={_c(lam)}",
        ))
    return rows


def _suite_hexagon(rng, draws):
    steps_pool = [1, 1, 1, -1, -1, -1]
    rows = []
    for k in range(draws):
        params = _draw_params(
            rng, 1,
            pred=lambda p: abs(s(p.gamma)) > 1e-3
            and _theta_window_ok(p.gamma, p.theta, -4, 4, 1e-3),
        )
        base = rng.randrange(-1, 2)
        steps = list(steps_pool)
        rng.shuffle(steps)
        ks = [base]
        for st in steps[:5]:
            ks.append(ks[-1] + st)
        u = draw_complex(rng)
        v = draw_complex(rng)
        res = face_model.hexagon_relative_residual(u, v, ks, params)
        rows.append(_row(
            f"{k + 1:03d}", res, THRESHOLDS["hexagon"],
            f"{_where(params)} u={_c(u)} v={_c(v)} ks={ks}",
        ))
    return rows


def _cartan_floor_ok(params, floor=1e-2) -> bool:
    q = cmath.exp(params.gamma)
    t = cmath.exp(params.theta)
    for h in range(-params.L, params.L + 1, 2):
        if abs(t * q ** (2 - h) - q ** (h - 2) / t) < floor:
            return False
    return True


def _suite_commut(rng, draws):
    rows = []
    for k in range(draws):
        L = 2 + (k % 2)
        params = _draw_params(
            rng, L,
            pred=lambda p: abs(s(p.gamma)) > 1e-3
            and _theta_window_ok(p.gamma, p.theta, -p.L - 2, 2 * p.L + 3,
                                 1e-3)
            and _cartan_floor_ok(p),
        )
        l1, l2 = _draw_separated(rng, 2, 1e-2)
        resmap = yb_algebra.commutation_residuals(l1, l2, params.theta,
                                                  params)
        worst = max(resmap, key=lambda key: resmap[key])
        rows.append(_row(
            f"{k + 1:03d} L={L} {worst}", resmap[worst],
            THRESHOLDS["commut"],
            f"{_where(params)} mu={_cs(params.mu)} l1={_c(l1)} l2={_c(l2)}",
        ))
    return rows


def _suite_cbb(rng, draws):
    combos = ((1, 2), (2, 2), (2, 3), (3, 3))
    rows = []
    for k in range(draws):
        n, L = combos[k % 4]
        params = _draw_params(
            rng, L,
            pred=lambda p: abs(s(p.gamma)) > 1e-3
            and _theta_window_ok(p.gamma, p.theta, -p.L - 1, 2 * p.L + 2,
                                 1e-3),
        )
        lams = _draw_separated(rng, n + 1, 1e-2)
        res = yb_algebra.cbb_residual(n, lams, params.theta, params)
        rows.append(_row(
            f"{k + 1:03d} n={n} L={L}", res, THRESHOLDS["cbb"],
            f"{_where(params)} mu={_cs(params.mu)} lambdas={_cs(lams)}",
        ))
    return rows


def _suite_nilpotency(rng, draws):
    rows = []
    for k in range(draws):
        L = 1 + (k % 3)
        params = _draw_params(
            rng, L,
            pred=lambda p: _theta_window_ok(p.gamma, p.theta, -p.L - 1,
                                            2 * p.L + 2, 1e-6),
        )
        lams = draw_spectral(rng, L + 1)
        res = yb_algebra.nilpotency_norm(params, lams)
        rows.append(_row(
            f"{k + 1:03d} L={L}", res, THRESHOLDS["nilpotency"],
            f"{_where(params)} mu={_cs(params.mu)} lambdas={_cs(lams)}",
        ))
    return rows


def _suite_functional(rng, draws):
    rows = []
    for k in range(draws):
        L = 1 + (k % 4)
        params = _draw_params(
            rng, L,
            pred=_generic_closed_form,
        )
        lams = _draw_separated(rng, L + 2, 1e-2)
        res = closed_form.functional_equation_residual(params, lams)
        rows.append(_row(
            f"{k + 1:03d} L={L}", res, THRESHOLDS["functional"],
            f"{_where(params)} mu={_cs(params.mu)} lambdas={_cs(lams)}",
        ))
    return rows


def _suite_zeroes(rng, draws):
    rows = []
    for k in range(draws):
        L = 2 + (k % 3)
        params = _draw_params(
            rng, L,
            pred=_generic_closed_form,
        )
        pins = (params.mu[0], params.mu[0] - params.gamma)
        free = _draw_separated(rng, L - 2, 1e-2, avoid=pins)
        lams = pins + tuple(free)
        res = closed_form.special_zero_residual(params, lams)
        rows.append(_row(
            f"{k + 1:03d} L={L}", res, THRESHOLDS["zeroes"],
            f"{_where(params)} mu={_cs(params.mu)} lambdas={_cs(lams)}",
        ))
    return rows


def _suite_symmetry(rng, draws):
    rows = []
    for k in range(draws):
        L = 2 + (k % 3)
        params = _draw_params(
            rng, L,
            pred=_generic_closed_form,
        )
        for _ in range(_MAX_REJECT):
            lams = _draw_separated(rng, L, 1e-2)
            if closed_form.permutation_condition(params, lams) < 1e3:
                break
        else:
            raise RuntimeError("no well-conditioned draw found")
        i = rng.randrange(L)
        j = (i + 1 + rng.randrange(L - 1)) % L
        res_l = closed_form.symmetry_residual(params, lams, i, j)
        res_m = closed_form.mu_symmetry_residual(params, lams, i, j)
        rows.append(_row(
            f"{k + 1:03d} L={L} swap=({i},{j})", max(res_l, res_m),
            THRESHOLDS["symmetry"],
            f"{_where(params)} mu={_cs(params.mu)} lambdas={_cs(lams)}",
        ))
    return rows


def _suite_degree(rng, draws):
    rows = []
    for k in range(draws):
        L = 1 + (k % 4)
        params = _draw_params(
            rng, L,
            pred=_generic_closed_form,
        )
        which = rng.randrange(L)
        d = closed_form.degree_probe(params, which)
        rows.append(_row(
            f"{k + 1:03d} L={L} var={which} deg={d}", float(abs(d - L)),
            THRESHOLDS["degree"],
            f"{_where(params)} mu={_cs(params.mu)}",
        ))
    return rows


def _qt_floor_ok(params, floor=1e-3) -> bool:
    q = cmath.exp(params.gamma)
    t = cmath.exp(params.theta)
    for n in range(1, params.L + 1):
        if abs(1 - q ** (2 * n) * t ** 2) < floor:
            return False
    return True


def _suite_asymptotic(rng, draws):
    rows = []
    for k in range(draws):
        L = 1 + (k % 3)
        params = _draw_params(
            rng, L,
            pred=lambda p: _generic_closed_form(p) and _qt_floor_ok(p),
        )
        expect = closed_form.asymptotic_leading_coefficient(params)
        got = closed_form.leading_coefficient_interpolated(params)
        res = abs(got - expect) / abs(expect)
        rows.append(_row(
            f"{k + 1:03d} L={L}", res, THRESHOLDS["asymptotic"],
            f"{_where(params)} mu={_cs(params.mu)}",
        ))
    return rows


def _suite_ode(rng, draws):
    rows = []
    for k in range(draws):
        params = _draw_params(
            rng, 1,
            pred=lambda p: abs(s(p.gamma)) > 1e-3
            and _theta_window_ok(p.gamma, p.theta, 0, 4, 1e-3)
            and _qt_floor_ok(p),
        )
        lam = draw_complex(rng)
        x = cmath.exp(2 * lam)
        res = closed_form.ode_residual_L1(x, params)
        rows.append(_row(
            f"{k + 1:03d}", res, THRESHOLDS["ode"],
            f"{_where(params)} mu={_cs(params.mu)} lam={_c(lam)}",
        ))
    return rows


def _suite_contour(rng, draws):
    rows = []
    for k in range(draws):
        L = 1 + (k % 3)

        def spread_ok(p, lams):
            center = sum(lams) / len(lams)
            return max(abs(z - center) for z in lams) < 1.2

        params, lams = draw_model(
            rng, L, routes=("residue", "quadrature"), predicate=spread_ok
        )
        ref = contour.partition_residue(params, lams)
        quad = contour.partition_quadrature(params, lams)
        res = abs(quad - ref) / max(abs(quad), abs(ref))
        rows.append(_row(
            f"{k + 1:03d} L={L}", res, THRESHOLDS["contour"],
            f"{_where(params)} mu={_cs(params.mu)} lambdas={_cs(lams)}",
        ))
    return rows


_SUITES = {
    "dybe": _suite_dybe,
    "ice": _suite_ice,
    "unitarity": _suite_unitarity,
    "hexagon": _suite_hexagon,
    "commut": _suite_commut,
    "cbb": _suite_cbb,
    "nilpotency": _suite_nilpotency,
    "functional": _suite_functional,
    "zeroes": _suite_zeroes,
    "symmetry": _suite_symmetry,
    "degree": _suite_degree,
    "asymptotic": _suite_asymptotic,
    "ode": _suite_ode,
    "contour": _suite_contour,
}


def run_suite(name: str, seed: int, draws: int) -> SuiteReport:
    """Run one named suite with a fresh seeded generator."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         f"{SUITE_NAMES}")
    if draws < 1:
        raise ValueError("draw count must be positive")
    rng = random.Random(seed)
    rows = tuple(_SUITES[name](rng, draws))
    return SuiteReport(suite=name, seed=seed, draws=draws, rows=rows)
