"""Tests for the named verification suites and their report rendering."""

from __future__ import annotations

import cmath
import re
from itertools import product
from pathlib import Path

import pytest

from sosdw import closed_form, contour, rmatrix, verify
from sosdw.core import ModelParams
from sosdw.verify import SUITE_NAMES, SUITES, CheckRow, run_suite


EXPECTED_SUITES = (
    "dybe", "ice", "unitarity", "hexagon", "commut", "cbb", "nilpotency",
    "functional", "zeroes", "symmetry", "degree", "asymptotic", "ode",
    "contour",
)

EXPECTED_THRESHOLDS = {
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
    "degree": 1e-10,
    "asymptotic": 1e-12,
    "ode": 1e-12,
    "contour": 1e-8,
}


def test_suite_names_pinned():
    assert SUITE_NAMES == EXPECTED_SUITES


def test_thresholds_pinned():
    assert ({name: suite.threshold for name, suite in SUITES.items()}
            == EXPECTED_THRESHOLDS)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", seed=0, draws=1)


def test_nonpositive_draws_rejected():
    with pytest.raises(ValueError):
        run_suite("dybe", seed=0, draws=0)


# zeroes at seed 203002 draws |sinh gamma| = 0.0097, below the separation
# floor of the pinned pair mu_1, mu_1 - gamma; the draw must reject it.
# asymptotic at seeds 3001 and 603021 each draw L=3 rows that an earlier
# reading of the top coefficient, by divided differences on real nodes, got
# wrong by 1e-7.  The Cauchy sum along the line x_v = w_v t reads every row
# of both runs to 6.5e-15; the runs keep an ill-conditioned reading out.
SMOKE_RUNS = [pytest.param(name, 7, 3, id=name) for name in EXPECTED_SUITES]
SMOKE_RUNS += [
    pytest.param("zeroes", 203002, 20, id="zeroes-203002"),
    pytest.param("asymptotic", 3001, 20, id="asymptotic-3001"),
    pytest.param("asymptotic", 603021, 20, id="asymptotic-603021"),
]


@pytest.mark.parametrize("name, seed, draws", SMOKE_RUNS)
def test_every_suite_passes_smoke(name, seed, draws):
    rep = run_suite(name, seed=seed, draws=draws)
    assert rep.suite == name
    assert rep.seed == seed
    assert rep.draws == draws
    assert len(rep.rows) == draws
    assert all(isinstance(r, CheckRow) for r in rep.rows)
    assert rep.passed, rep.render()
    assert rep.n_passed == draws
    for row in rep.rows:
        assert row.threshold == EXPECTED_THRESHOLDS[name]
        assert row.residual < row.threshold


def test_render_format():
    rep = run_suite("dybe", seed=3, draws=4)
    lines = rep.render().splitlines()
    assert lines[0] == "suite dybe  seed 3  draws 4"
    row_pat = re.compile(
        r"^\[dybe \d{3}\] residual \S+ threshold \S+ (PASS|FAIL)$"
    )
    for line in lines[1:-1]:
        assert row_pat.match(line), line
    assert lines[-1] == "suite dybe: 4/4 passed -> PASS"


def _fail_every_row(monkeypatch):
    """Set every suite's threshold below any residual, so every row fails."""
    for name, suite in SUITES.items():
        monkeypatch.setitem(SUITES, name, suite._replace(threshold=-1.0))


def test_failing_rows_render_as_before(monkeypatch):
    """Every suite at seeds 0 and 7, 6 draws, with every row failing, so
    every row prints its reproduce line.  The file was written by checks
    that formatted every row's detail, so a detail formatted only on failure
    must reproduce it byte for byte."""
    _fail_every_row(monkeypatch)
    expected = (Path(__file__).parent / "data"
                / "verify_fail_render.txt").read_text()
    reports = [run_suite(name, seed, 6).render()
               for seed in (0, 7) for name in SUITE_NAMES]
    assert "\n\n".join(reports) + "\n" == expected


def _count_formatting(monkeypatch):
    """Count the calls of the two formatters every reproduce text uses."""
    calls = []
    for name in ("_c", "_cs"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda z, real=real: calls.append(z) or real(z))
    return calls


@pytest.mark.parametrize("name", EXPECTED_SUITES)
def test_passing_run_formats_nothing(name, monkeypatch):
    calls = _count_formatting(monkeypatch)
    rep = run_suite(name, seed=0, draws=20)
    assert rep.passed and all(row.detail is None for row in rep.rows)
    assert not calls
    _fail_every_row(monkeypatch)
    rep = run_suite(name, seed=0, draws=1)
    assert calls and rep.rows[0].detail.startswith("gamma=")


def test_render_deterministic_for_same_seed():
    for name in ("dybe", "contour", "symmetry"):
        a = run_suite(name, seed=11, draws=2).render()
        b = run_suite(name, seed=11, draws=2).render()
        assert a == b


def test_different_seeds_draw_different_points():
    a = run_suite("dybe", seed=0, draws=2)
    b = run_suite("dybe", seed=1, draws=2)
    assert [r.residual for r in a.rows] != [r.residual for r in b.rows]


def _near_qt_zeros():
    """Parameter sets with theta + n*gamma placed eps from a zero of sinh,
    theta = -n*gamma + eps*e^(i*phi) + i*pi*k, for L = 1..3 and n = 1..L.
    The sets with eps below 1e-3 sit inside the suites' draw floor."""
    mus = (0.13 - 0.21j, -0.22 + 0.15j, 0.41 + 0.05j)
    for L, gamma, eps, phi, k in product(
            (1, 2, 3), (0.31 + 0.12j, -0.27 + 0.41j, 0.05 - 0.6j),
            (1e-4, 3e-4, 7e-4, 1.5e-3, 3e-3), (0.0, 0.9, 2.2, 3.7, 5.1),
            (0, 1)):
        for n in range(1, L + 1):
            theta = -n * gamma + eps * cmath.exp(1j * phi) + 1j * cmath.pi * k
            yield ModelParams(gamma=gamma, theta=theta, mu=mus[:L], L=L)


def test_sinh_floor_bounds_the_qt_denominators():
    """asymptotic and ode divide by 1 - q^(2n) t^2, n = 1..L, which is
    -2 e^(theta + n*gamma) sinh(theta + n*gamma).  The sinh floor their draws
    apply keeps it at least 1e-3 in modulus: with x = Re(theta + n*gamma),
    |1 - e^(2(theta + n*gamma))| >= max(2 e^x 1e-3, |e^(2x) - 1|) > 1.99e-3."""
    def qt_floor(p):
        return min(abs(1 - cmath.exp(2 * (p.theta + n * p.gamma)))
                   for n in range(1, p.L + 1))

    accepted = {"asymptotic": 0, "ode": 0}
    for p in _near_qt_zeros():
        if verify._generic_closed_form(p):
            accepted["asymptotic"] += 1
            assert qt_floor(p) >= 1e-3, p
        if p.L == 1 and verify._clear(p, 0, 4):
            accepted["ode"] += 1
            assert qt_floor(p) >= 1e-3, p
    assert all(accepted.values()), accepted


def _scaled_weight(monkeypatch):
    """Defect: the (+-, -+) weight entry, (1, 2), scaled by 1 + 1e-8."""
    real = rmatrix.weights

    def broken(lam, theta, params):
        w = real(lam, theta, params)
        w[1, 2] *= 1 + 1e-8
        return w
    monkeypatch.setattr(rmatrix, "weights", broken)


def _scaled_permutation_term(monkeypatch):
    """Defect: the first permutation term scaled by 1 + 1e-6."""
    real = closed_form._permutation_terms

    def broken(params, lambdas):
        terms = real(params, lambdas)
        terms[0] *= 1 + 1e-6
        return terms
    monkeypatch.setattr(closed_form, "_permutation_terms", broken)


def _scaled_coeff_m(monkeypatch):
    """Defect: the first-family exchange coefficient scaled by 1 + 1e-8."""
    real = closed_form.coeff_M
    monkeypatch.setattr(closed_form, "coeff_M",
                        lambda *args: real(*args) * (1 + 1e-8))


def _scaled_pair_leg(monkeypatch):
    """Defect: the k = 0 coefficient of the quadrature's pair legs scaled
    by 1 + 1e-6; the residue route, which reads ``_pair``, is untouched."""
    real = contour._pair_legs

    def broken(g):
        return tuple((k, c * (1 + 1e-6) if k == 0 else c)
                     for k, c in real(g))
    monkeypatch.setattr(contour, "_pair_legs", broken)


# Each seeded defect against every suite that must catch it, at seed 0 with
# 20 draws.  Four suites are blind to all four defects (ROADMAP direction
# 5): ice and nilpotency read exactly 0, since they check the entries'
# layout rather than their values; zeroes stays at 1.9e-17, since every
# permutation term vanishes at the pinned zeros; degree reads at most
# 1.6e-13, since a rescaled term keeps the degree.  Nothing is asserted
# about them here.
MUTATIONS = [
    pytest.param(defect, suite, id=f"{defect.__name__.strip('_')}-{suite}")
    for defect, suites in (
        (_scaled_weight, ("dybe", "unitarity", "hexagon", "commut", "cbb")),
        (_scaled_permutation_term, ("functional", "symmetry", "asymptotic",
                                    "ode")),
        (_scaled_coeff_m, ("functional", "cbb")),
        (_scaled_pair_leg, ("contour",)),
    )
    for suite in suites
]


@pytest.mark.parametrize("defect, suite", MUTATIONS)
def test_seeded_defect_fails_a_row(defect, suite, monkeypatch):
    assert run_suite(suite, seed=0, draws=20).passed
    defect(monkeypatch)
    assert not run_suite(suite, seed=0, draws=20).passed
