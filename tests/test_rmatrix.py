"""Weight table and R-matrix identities."""

import cmath
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sosdw import rmatrix
from sosdw.core import ModelParams, SingularTheta, s
from sosdw.rmatrix import (
    WeightTables,
    _embedded_r,
    dybe_residual,
    ice_residual,
    matmul,
    max_abs,
    max_abs_diff,
    r_matrix,
    unitarity_residual,
    weights,
)

P1 = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j, mu=(0.0,), L=1)

# The swap of the two sites and the total spin, in the (++, +-, -+, --) basis
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)
TOTAL_SPIN = np.diag([2, 0, 0, -2]).astype(complex)

box = st.floats(min_value=-1.0, max_value=1.0,
                allow_nan=False, allow_infinity=False)
boxim = st.floats(min_value=-0.8, max_value=0.8,
                  allow_nan=False, allow_infinity=False)
cbox = st.builds(complex, box, boxim)


def dense(cols):
    """A dense matrix given as a list of its columns, as a numpy array."""
    return np.array(cols).T


def well_conditioned(g, th, *spectral):
    """Keep denominators and identity scales away from zero."""
    if abs(s(g)) < 1e-2 or abs(s(th)) < 1e-2:
        return False
    return all(abs(s(th + k * g)) > 1e-2 for k in (-1, 1, 2))


class TestWeightFormulas:
    """The six entries against independently written hyperbolic expressions."""

    @given(cbox, cbox, cbox)
    @settings(max_examples=60, deadline=None)
    def test_sextet_values(self, g, th, lam):
        if abs(s(g)) < 1e-3 or abs(s(th)) < 1e-3:
            return
        p = ModelParams(gamma=g, theta=0.5, mu=(0.0,), L=1)
        w = weights(lam, th, p)
        assert set(w) == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}
        assert cmath.isclose(w[0, 0], cmath.sinh(lam + g), rel_tol=1e-14)
        assert cmath.isclose(w[3, 3], cmath.sinh(lam + g), rel_tol=1e-14)
        assert cmath.isclose(
            w[1, 1],
            cmath.sinh(lam) * cmath.sinh(th - g) / cmath.sinh(th),
            rel_tol=1e-13)
        assert cmath.isclose(
            w[2, 2],
            cmath.sinh(lam) * cmath.sinh(th + g) / cmath.sinh(th),
            rel_tol=1e-13)
        assert cmath.isclose(
            w[1, 2],
            cmath.sinh(g) * cmath.sinh(th - lam) / cmath.sinh(th),
            rel_tol=1e-13)
        assert cmath.isclose(
            w[2, 1],
            cmath.sinh(g) * cmath.sinh(th + lam) / cmath.sinh(th),
            rel_tol=1e-13)

    def test_singular_theta_guard(self):
        with pytest.raises(SingularTheta):
            weights(0.3, 0.0, P1)

    def test_zero_spectral_point(self):
        # at lam = 0 the two straight weights equal sinh(gamma) and the
        # diagonal-exchange pair carries the whole theta dependence
        w = weights(0.0, 0.57 - 0.08j, P1)
        assert cmath.isclose(w[0, 0], cmath.sinh(P1.gamma), rel_tol=1e-14)
        assert cmath.isclose(w[1, 1], 0.0, abs_tol=1e-15)


class TestMatrixStructure:
    def test_ice_zeros(self):
        r = dense(r_matrix(0.23 - 0.11j, 0.57 - 0.08j, P1))
        nonzero = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}
        for i in range(4):
            for j in range(4):
                if (i, j) not in nonzero:
                    assert r[i, j] == 0

    def test_entry_placement(self):
        lam, th = 0.23 - 0.11j, 0.57 - 0.08j
        r = dense(r_matrix(lam, th, P1))
        w = weights(lam, th, P1)
        for entry, val in w.items():
            assert r[entry] == val, entry

    def test_swap_and_spin_constants(self):
        # unitarity_residual reads the same swap as the written-out one, and
        # R commutes with the written-out total spin
        assert np.array_equal(SWAP @ SWAP, np.eye(4))
        lam, th = 0.23 - 0.11j, 0.57 - 0.08j
        g = P1.gamma
        r1, r2 = r_matrix(lam, th, P1), r_matrix(-lam, th, P1)
        swap = SWAP.T.tolist()
        lhs = matmul(matmul(matmul(r1, swap), r2), swap)
        target = (s(g + lam) * s(g - lam) * np.eye(4)).T.tolist()
        assert unitarity_residual(lam, th, P1) == \
            max_abs_diff(lhs, target) / (max_abs(r1) * max_abs(r2))
        r1 = dense(r1)
        assert np.array_equal(r1 @ TOTAL_SPIN, TOTAL_SPIN @ r1)


class TestIdentities:
    @given(cbox, cbox, cbox, cbox, cbox)
    # theta - gamma = -0.012 puts 1/sinh ~ 86 into the factors: the residual
    # is 1.7e-12 against sides of size 1.05, but 1.7e-16 of the factor norms
    @example(g=0.72265625, th=0.7109375, l1=0.5j, l2=-0.5j, l3=0.5j)
    @settings(max_examples=40, deadline=None)
    def test_dynamical_yang_baxter(self, g, th, l1, l2, l3):
        if not well_conditioned(g, th):
            return
        p = ModelParams(gamma=g, theta=0.5, mu=(0.0,), L=1)
        assert dybe_residual(l1, l2, l3, th, p) <= 1e-12

    @given(cbox, cbox, cbox)
    @settings(max_examples=40, deadline=None)
    def test_unitarity(self, g, th, lam):
        if not well_conditioned(g, th):
            return
        if abs(s(g + lam)) < 1e-2 or abs(s(g - lam)) < 1e-2:
            return
        p = ModelParams(gamma=g, theta=0.5, mu=(0.0,), L=1)
        assert unitarity_residual(lam, th, p) <= 1e-13

    def test_ice_rule_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))
            th = complex(rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))
            if abs(s(th)) < 1e-3:
                continue
            assert ice_residual(lam, th, P1) == 0.0


def fresh_embedded_r(lam, theta, params, pair, spectator=None):
    """Oracle: the embedded R-matrix with a fresh weight table per basis
    state, at theta - gamma * h for spectator spin h = +1/-1."""
    p, q = pair
    m = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        bits = ((b >> 2) & 1, (b >> 1) & 1, b & 1)
        th = theta if spectator is None \
            else theta - params.gamma * (1 - 2 * bits[spectator])
        for (row, c), val in rmatrix.weights(lam, th, params).items():
            if c == 2 * bits[p] + bits[q]:
                nb = list(bits)
                nb[p], nb[q] = row >> 1, row & 1
                m[(nb[0] << 2) | (nb[1] << 1) | nb[2], b] += val
    return m


class TestWeightTables:
    def test_entry_n_is_the_table_at_offset_n(self):
        lam, th = 0.23 - 0.11j, 0.41 + 0.06j
        tables = WeightTables(lam, th, P1)
        assert tables == {}
        for n in (2, -1, 0, 2):
            assert tables[n] == weights(lam, th + n * P1.gamma, P1)
        assert list(tables) == [2, -1, 0]

    @pytest.mark.parametrize("pair, spectator", [
        ((0, 1), None), ((0, 2), None), ((1, 2), None),
        ((0, 1), 2), ((0, 2), 1), ((1, 2), 0)])
    def test_embedded_r_tables(self, monkeypatch, pair, spectator):
        # one table unbranched, one per spectator spin branched, and the
        # same matrix as a fresh table per basis state
        built = []
        orig = rmatrix.weights

        def counted(*args):
            built.append(args)
            return orig(*args)

        monkeypatch.setattr(rmatrix, "weights", counted)
        lam, th = 0.23 - 0.11j, 0.41 + 0.06j
        branched = spectator is not None
        got = _embedded_r(lam, th, P1, pair, branched)
        assert len(built) == (2 if branched else 1)
        fresh = fresh_embedded_r(lam, th, P1, pair, spectator)
        assert np.array_equal(dense(got), fresh)


def numpy_r(lam, theta, params):
    """Oracle: the 4x4 R-matrix as a numpy array, filled from the weights."""
    m = np.zeros((4, 4), dtype=complex)
    for entry, val in rmatrix.weights(lam, theta, params).items():
        m[entry] = val
    return m


def max_entry(m):
    """The max-abs scale of a numpy matrix."""
    return float(np.abs(m).max())


def two_norm(m):
    """The operator 2-norm of a numpy matrix, from its SVD."""
    return float(np.linalg.norm(m, 2))


def numpy_dybe(l1, l2, l3, theta, params, norm=max_entry):
    """Oracle: the DYBE residual on numpy arrays, each factor scaled by
    ``norm``."""
    l12, l13, l23 = l1 - l2, l1 - l3, l2 - l3
    sides = ((fresh_embedded_r(l12, theta, params, (0, 1), 2),
              fresh_embedded_r(l13, theta, params, (0, 2)),
              fresh_embedded_r(l23, theta, params, (1, 2), 0)),
             (fresh_embedded_r(l23, theta, params, (1, 2)),
              fresh_embedded_r(l13, theta, params, (0, 2), 1),
              fresh_embedded_r(l12, theta, params, (0, 1))))
    lhs, rhs = (a @ b @ c for a, b, c in sides)
    scale = max(norm(a) * norm(b) * norm(c) for a, b, c in sides)
    return max_entry(lhs - rhs) / scale


def numpy_unitarity(lam, theta, params, norm=max_entry):
    """Oracle: the unitarity residual on numpy arrays, each factor scaled by
    ``norm``."""
    g = params.gamma
    r1, r2 = numpy_r(lam, theta, params), numpy_r(-lam, theta, params)
    target = s(g + lam) * s(g - lam) * np.eye(4)
    return max_entry(r1 @ SWAP @ r2 @ SWAP - target) / (norm(r1) * norm(r2))


def numpy_ice(lam, theta, params):
    """Oracle: the ice-rule residual on numpy arrays."""
    r = numpy_r(lam, theta, params)
    return float(np.abs(r @ TOTAL_SPIN - TOTAL_SPIN @ r).max()
                 / np.abs(r).max())


def box_draw(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))


class TestNumpyOracles:
    """The pure-Python dense checks against numpy transcriptions."""

    def test_residuals_match_numpy(self, broken_weights):
        # the comparisons run where the identities fail, so that each
        # residual is far above rounding and its numerator and scale show
        def check(got, want):
            assert want > 1e-6
            assert abs(got - want) <= min(1e-14, 1e-12 * want)

        rng = random.Random(61)
        checked = 0
        for _ in range(400):
            g, th = box_draw(rng), box_draw(rng)
            l1, l2, l3 = box_draw(rng), box_draw(rng), box_draw(rng)
            if not well_conditioned(g, th) or \
                    min(abs(s(g + l1)), abs(s(g - l1))) < 1e-2:
                continue
            p = ModelParams(gamma=g, theta=0.5, mu=(0.0,), L=1)
            dybe = dybe_residual(l1, l2, l3, th, p)
            unitarity = unitarity_residual(l1, th, p)
            check(dybe, numpy_dybe(l1, l2, l3, th, p))
            check(unitarity, numpy_unitarity(l1, th, p))
            check(ice_residual(l1, th, p), numpy_ice(l1, th, p))
            # no entry exceeds the 2-norm, so scaling by max-abs entries
            # can only raise a residual over its 2-norm-scaled value
            tol = 1 + 1e-12
            assert numpy_dybe(l1, l2, l3, th, p, two_norm) <= dybe * tol
            assert numpy_unitarity(l1, th, p, two_norm) <= unitarity * tol
            checked += 1
        assert checked >= 200
