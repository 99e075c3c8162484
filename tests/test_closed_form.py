"""Factorized closed form, functional relation, and analytic structure."""

import cmath
import itertools
import math
import random

import mpmath
import pytest

from sosdw import closed_form
from sosdw.core import (
    BadLength,
    CoincidentSpectral,
    ModelParams,
    NumericalError,
)
from sosdw.closed_form import (
    asymptotic_leading_coefficient,
    coeff_M,
    coeff_N,
    degree_residual,
    functional_equation_residual,
    leading_coefficient_interpolated,
    ode_residual_L1,
    partition_permutation_sum,
    permutation_condition,
    q_factorial,
    special_zero_residual,
    swap_residual,
)
from sosdw.face_model import enumerate_partition
from sosdw.sampling import draw_model, draw_spectral
from sosdw.verify import SUITES


def perm_sum_mp(params, lams, dps=50):
    """The factorized sum re-evaluated in 50-digit arithmetic.

    Same formula, independent arithmetic: catches double-precision
    cancellation without trusting any double-precision intermediate.
    """
    with mpmath.workdps(dps):
        g = mpmath.mpc(params.gamma)
        th = mpmath.mpc(params.theta)
        mu = [mpmath.mpc(m) for m in params.mu]
        lam = [mpmath.mpc(z) for z in lams]
        L = params.L
        total = mpmath.mpc(0)
        for perm in itertools.permutations(range(L)):
            v = mpmath.sinh(g) ** L
            for p in range(L):
                a = perm[p]
                v *= mpmath.sinh(th + (p + 1) * g - lam[a] + mu[p]) \
                    / mpmath.sinh(th + (p + 1) * g)
                for j in range(p + 1, L):
                    v *= mpmath.sinh(lam[a] - mu[j] + g)
                for j in range(p):
                    v *= mpmath.sinh(lam[a] - mu[j])
            for p in range(L):
                for m in range(p + 1, L):
                    b, a = perm[m], perm[p]
                    v *= mpmath.sinh(lam[b] - lam[a] + g) \
                        / mpmath.sinh(lam[b] - lam[a])
            total += v
        return complex(total)


def well_conditioned(params, lams):
    """Keep draws whose permutation sum cancels by at most a factor 1e3."""
    return permutation_condition(params, lams) <= 1e3


def polynomial_route(poly):
    """A stand-in for ``closed_form._evaluator`` with known coefficients.

    Its normalized samples Z * prod_i xbar_i^L equal ``poly`` of the
    variables x_i = e^(2 lambda_i).
    """
    def evaluator(params, route):
        return lambda lams: (poly([cmath.exp(2 * z) for z in lams])
                             * cmath.exp(-params.L * sum(lams)))
    return evaluator


class TestPermutationSum:
    def test_single_row_reduction(self, rng, partition_L1):
        for _ in range(100):
            params, lams = draw_model(rng, 1)
            zc = partition_L1(params, lams[0])
            zp = partition_permutation_sum(params, lams)
            assert abs(zp - zc) <= 1e-14 * abs(zc)

    @pytest.mark.parametrize("L", [2, 3])
    def test_high_precision_arithmetic_oracle(self, rng, L):
        for _ in range(5):
            params, lams = draw_model(rng, L)
            zp = partition_permutation_sum(params, lams)
            zm = perm_sum_mp(params, lams)
            cond = permutation_condition(params, lams)
            assert abs(zp - zm) <= 1e-13 * max(abs(zm), 1e-30) * max(cond, 1.0)

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_agrees_with_enumeration(self, rng, L):
        for _ in range(3):
            params, lams = draw_model(rng, L, routes=("face", "permutation"))
            zf = enumerate_partition(params, lams)
            zp = partition_permutation_sum(params, lams)
            assert abs(zf - zp) <= 1e-12 * max(abs(zf), abs(zp))

    def test_coincident_spectral_rejected(self, complex_params_l2):
        params, _ = complex_params_l2
        with pytest.raises(CoincidentSpectral):
            partition_permutation_sum(params, (0.4, 0.4))

    def test_condition_bounded_below(self, rng):
        for _ in range(10):
            params, lams = draw_model(rng, 2)
            cond = permutation_condition(params, lams)
            assert cond >= 1.0 / math.factorial(params.L) - 1e-12


class TestFunctionalEquation:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_permutation_route(self, rng, L):
        params, _ = draw_model(rng, L)
        for _ in range(3):
            lams = draw_spectral(rng, L + 2)
            try:
                r = functional_equation_residual(params, lams,
                                                 "permutation")
            except CoincidentSpectral:
                continue
            assert r < 1e-9

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_face_route(self, rng, L):
        params, _ = draw_model(rng, L, routes=("face", "permutation"))
        for _ in range(2):
            lams = draw_spectral(rng, L + 2)
            try:
                r = functional_equation_residual(params, lams, "face")
            except CoincidentSpectral:
                continue
            assert r < 1e-9

    def test_wrong_argument_count(self, complex_params_l2):
        params, _ = complex_params_l2
        with pytest.raises(BadLength):
            functional_equation_residual(params, (0.1, 0.2, 0.3))

    def test_coincident_arguments_rejected(self, complex_params_l2):
        params, _ = complex_params_l2
        with pytest.raises(CoincidentSpectral, match="arguments 1 and 3 "):
            functional_equation_residual(params, (0.1, 0.2, 0.3, 0.2))

    def test_coefficients_finite(self, complex_params_l2):
        params, _ = complex_params_l2
        lam = [0.11 - 0.2j, 0.42 + 0.1j, -0.31 + 0.05j, 0.27 - 0.33j]
        n = params.L + 1
        for i in range(1, n + 1):
            assert coeff_M(i, lam, params.theta, params, n) != 0
        for j in range(2, n + 1):
            for i in range(1, j):
                assert cmath.isfinite(
                    coeff_N(j, i, lam, params.theta, params, n))


class TestAnalyticStructure:
    @pytest.mark.parametrize(
        "route, L", [("permutation", 2), ("permutation", 3),
                     ("permutation", 4), ("face", 2), ("face", 3),
                     ("face", 4)],
        ids=["2", "3", "4", "face-2", "face-3", "face-4"])
    def test_special_zero(self, rng, route, L):
        for _ in range(3):
            params, _ = draw_model(rng, L)
            free = draw_spectral(rng, L - 2)
            lams = (params.mu[0], params.mu[0] - params.gamma) + free
            assert special_zero_residual(params, lams, route) < 1e-9

    @pytest.mark.parametrize("route",
                             ["permutation", "residue", "face", "algebra"])
    def test_special_zero_at_coincident_inhomogeneities(self, route):
        # no route divides by a gap between inhomogeneities, so mu_1 = mu_2
        # is evaluated, and the pins still zero Z
        g = 0.31 + 0.12j
        mu = (0.13 - 0.21j,) * 2
        params = ModelParams(gamma=g, theta=0.57 - 0.08j, mu=mu, L=2)
        assert special_zero_residual(params, (mu[0], mu[0] - g), route) < 1e-9

    @pytest.mark.parametrize("mu, free, error", [
        ((0.13 - 0.21j, -0.42 + 0.05j, 0.37 + 0.18j), (0.13 - 0.21j,),
         CoincidentSpectral)], ids=["free"])
    def test_special_zero_coincident_inhomogeneities_fail_once(
            self, monkeypatch, mu, free, error):
        # the pinned value is evaluated once, exactly at the pins, when a
        # free value and the pin mu_1 coincide
        calls = []
        make = closed_form._evaluator

        def counting(params, route):
            ev = make(params, route)
            return lambda lams: calls.append(lams) or ev(lams)

        monkeypatch.setattr(closed_form, "_evaluator", counting)
        g = 0.31 + 0.12j
        params = ModelParams(gamma=g, theta=0.57 - 0.08j, mu=mu, L=len(mu))
        with pytest.raises(error):
            special_zero_residual(params, (mu[0], mu[0] - g) + free,
                                  "permutation")
        assert len(calls) == 1

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_degree_in_each_variable(self, rng, L):
        params, _ = draw_model(rng, L)
        for which in range(L):
            assert degree_residual(params, which) < SUITES["degree"].threshold

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_degree_residual_flags_one_degree_too_many(self, rng, monkeypatch,
                                                       L):
        # the top coefficient of sum_{d <= L+1} x^d dominates on the circle
        params, _ = draw_model(rng, L)
        for which in range(L):
            monkeypatch.setattr(closed_form, "_evaluator", polynomial_route(
                lambda xs: sum(xs[which] ** d for d in range(L + 2))))
            assert abs(degree_residual(params, which) - 1.0) < 1e-12

    def test_degree_residual_rejects_vanishing_samples(self, monkeypatch,
                                                      complex_params_l2):
        params, _ = complex_params_l2
        monkeypatch.setattr(closed_form, "_evaluator",
                            polynomial_route(lambda xs: 0j))
        with pytest.raises(NumericalError, match="vanished"):
            degree_residual(params, 0)

    def test_degree_bad_index(self, complex_params_l2):
        params, _ = complex_params_l2
        with pytest.raises(BadLength):
            degree_residual(params, 2)

    @pytest.mark.parametrize(
        "route, L", [("permutation", 2), ("permutation", 3), ("face", 2),
                     ("face", 3), ("face", 4)],
        ids=["2", "3", "face-2", "face-3", "face-4"])
    def test_row_swap_symmetry(self, rng, monkeypatch, route, L):
        for _ in range(5):
            params, lams = draw_model(rng, L, predicate=well_conditioned)
            assert swap_residual(params, lams, 0, L - 1, route) < 1e-11
        # a stand-in that reads only lambda_1 leaves the column swap at 0
        monkeypatch.setattr(closed_form, "_evaluator",
                            lambda params, route: lambda xs: 1 + xs[0])
        assert swap_residual(params, lams, 0, L - 1) == \
            abs(lams[L - 1] - lams[0]) / abs(1 + lams[0])

    @pytest.mark.parametrize(
        "route, L", [("permutation", 2), ("permutation", 3), ("face", 2),
                     ("face", 3), ("face", 4)],
        ids=["2", "3", "face-2", "face-3", "face-4"])
    def test_column_swap_symmetry(self, rng, monkeypatch, route, L):
        for _ in range(5):
            params, lams = draw_model(rng, L, predicate=well_conditioned)
            assert swap_residual(params, lams, 0, L - 1, route) < 1e-11
        # a stand-in that reads only mu_1 leaves the row swap at 0
        monkeypatch.setattr(closed_form, "_evaluator",
                            lambda params, route: lambda xs: 1 + params.mu[0])
        mu = params.mu
        assert swap_residual(params, lams, 0, L - 1) == \
            abs(mu[L - 1] - mu[0]) / abs(1 + mu[0])

    def test_swap_residual_arguments(self, complex_params_l2):
        params, lams = complex_params_l2
        assert swap_residual(params, lams, 1, 1) == 0.0
        with pytest.raises(BadLength):
            swap_residual(params, lams, 0, 2)
        with pytest.raises(BadLength):
            swap_residual(params, lams[:1], 0, 1)

    def test_theta_stabilization(self, rng):
        # the value becomes theta-independent once the reference height is
        # pushed far along the real axis
        for L in (1, 2, 3):
            params, lams = draw_model(rng, L)
            za = partition_permutation_sum(
                ModelParams(gamma=params.gamma, theta=30.0,
                            mu=params.mu, L=L), lams)
            zb = partition_permutation_sum(
                ModelParams(gamma=params.gamma, theta=35.0,
                            mu=params.mu, L=L), lams)
            assert abs(za - zb) <= 1e-8 * max(abs(za), abs(zb))


class TestLeadingCoefficient:
    def test_q_factorial_pinned(self):
        q = 0.7 + 0.2j
        assert q_factorial(q, 0) == 1
        assert q_factorial(q, 1) == 1
        assert cmath.isclose(q_factorial(q, 2), 1 + q, rel_tol=1e-15)
        assert cmath.isclose(q_factorial(q, 3), (1 + q) * (1 + q + q * q),
                             rel_tol=1e-15)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_formula_vs_interpolation(self, rng, L):
        for _ in range(3):
            params, _ = draw_model(rng, L)
            want = asymptotic_leading_coefficient(params)
            got = leading_coefficient_interpolated(params)
            assert abs(got - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_interpolation_reads_known_top_coefficient(self, rng, monkeypatch,
                                                       L):
        # every one of the (L+1)^L coefficients random: not a product of
        # one-variable polynomials, so every monomial reaches the line
        params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                             mu=tuple(0.1 * v for v in range(L)), L=L)
        coeffs = {alpha: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for alpha in itertools.product(range(L + 1), repeat=L)}
        monkeypatch.setattr(closed_form, "_evaluator", polynomial_route(
            lambda xs: sum(c * math.prod(x ** d for x, d in zip(xs, alpha))
                           for alpha, c in coeffs.items())))
        want = coeffs[(L,) * L]
        got = leading_coefficient_interpolated(params)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_line_samples(self, rng, monkeypatch, L):
        # L^2+1 route evaluations per call, and within each sample every
        # pair of lambdas is at least sin(pi/L) apart in |sinh|
        params, _ = draw_model(rng, L)
        samples = []
        real = closed_form._evaluator

        def counted(params, route):
            ev = real(params, route)
            return lambda lams: samples.append(lams) or ev(lams)

        monkeypatch.setattr(closed_form, "_evaluator", counted)
        for _ in range(2):
            samples.clear()
            leading_coefficient_interpolated(params)
            assert len(samples) == L * L + 1
            for lams in samples:
                assert len(lams) == L
                for a, b in itertools.combinations(lams, 2):
                    assert abs(cmath.sinh(a - b)) >= (math.sin(math.pi / L)
                                                      - 1e-12)


class TestDifferentialEquation:
    def test_residual_over_draws(self, rng):
        for _ in range(100):
            params, lams = draw_model(rng, 1)
            assert ode_residual_L1(lams[0], params) < 1e-12
