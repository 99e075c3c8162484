"""Parameter types, summation helper, and validation gates."""

import cmath
import functools
import itertools
import json
import math
import os
import pickle
import pkgutil
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosdw import closed_form, contour, core, yb_algebra
from sosdw.core import (
    EPS_SEP,
    EPS_SING,
    ROUTES,
    BadLength,
    CoincidentSpectral,
    DegenerateGamma,
    ModelParams,
    NonFinite,
    NumericalError,
    SingularTheta,
    SinhOverflow,
    TooLarge,
    ValidationError,
    close_pair,
    ordering_terms,
    pairwise_sum,
    s,
    scaled,
    spectral,
    validate,
)
from sosdw.sampling import draw_model
from sosdw.verify import SUITE_NAMES

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)
cnum = st.builds(complex, finite, finite)


def test_route_names_fixed():
    assert ROUTES == ("face", "algebra", "permutation", "residue",
                      "quadrature")


def test_sinh_matches_cmath():
    z = 0.37 - 1.21j
    assert s(z) == cmath.sinh(z)


@pytest.mark.parametrize("z", [800 + 0.12j, -900 + 0j])
def test_sinh_overflow_names_its_argument(z):
    with pytest.raises(SinhOverflow, match=re.escape(str(z))):
        s(z)


class TestOrderingTerms:
    @staticmethod
    def direct(site, pair):
        L = len(site)
        return [math.prod(site[p][a[p]] for p in range(L))
                * math.prod(pair[a[m]][a[p]]
                            for p in range(L) for m in range(p + 1, L))
                for a in itertools.permutations(range(L))]

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_direct_product(self, L):
        rng = random.Random(4100 + 10 * L)
        draw = lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        site = [[draw() for _ in range(L)] for _ in range(L)]
        pair = [[draw() for _ in range(L)] for _ in range(L)]
        got = ordering_terms(site, pair)
        want = self.direct(site, pair)
        assert len(got) == math.factorial(L)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w)

    @staticmethod
    def prefix_walk(site, pair):
        terms = []
        for order in itertools.permutations(range(len(site))):
            v = 1.0 + 0j
            for p, e in enumerate(order):
                # the step of e after order[:p]: its pair factors, the
                # highest placed element first, then its site factor
                step = site[p][e]
                if p:
                    f = 1.0 + 0j
                    for x in sorted(order[:p], reverse=True):
                        f = f * pair[e][x]
                    step = step * f
                v = v * step
            terms.append(v)
        return terms

    @pytest.mark.parametrize("L", range(1, 9))
    def test_bit_identical_to_prefix_walk(self, L):
        # the L = 8 crosscheck verdicts sit near the 1e-9 agreement gate, so
        # the kernel keeps each term's left-to-right prefix product exactly
        rng = random.Random(4150 + L)
        draw = lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        site = [[draw() for _ in range(L)] for _ in range(L)]
        pair = [[draw() for _ in range(L)] for _ in range(L)]
        assert ordering_terms(site, pair) == self.prefix_walk(site, pair)

    @pytest.mark.parametrize("L", [6, 8])
    @pytest.mark.parametrize("module, route", [
        (closed_form, "partition_permutation_sum"),
        (contour, "partition_residue"),
    ])
    def test_route_sums_one_term_per_ordering(self, module, route, L,
                                              monkeypatch):
        # the benchmark's traced run pins this count at L!
        handed = []

        def counting_sum(values):
            vals = list(values)
            handed.append(len(vals))
            return pairwise_sum(vals)

        monkeypatch.setattr(module, "pairwise_sum", counting_sum)
        params, lams = draw_model(random.Random(4200 + L), L,
                                  routes=("permutation", "residue"))
        getattr(module, route)(params, lams)
        assert handed == [math.factorial(L)]


def traced_peak(fn, *args) -> int:
    """Bytes that ``fn(*args)`` allocates at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairwiseSum:
    def test_empty_is_zero(self):
        assert pairwise_sum([]) == 0j

    def test_single(self):
        assert pairwise_sum([3.5 - 1j]) == 3.5 - 1j

    @given(st.lists(cnum, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_close_to_fsum(self, vals):
        got = pairwise_sum(vals)
        want = complex(math.fsum(v.real for v in vals),
                       math.fsum(v.imag for v in vals))
        assert abs(got - want) <= 1e-12 * max(1.0, sum(abs(v) for v in vals))

    def test_deterministic_association(self):
        vals = [complex(1e16), 1.0 + 0j, complex(-1e16), 1.0 + 0j]
        assert pairwise_sum(vals) == pairwise_sum(list(vals))

    @staticmethod
    def tree_sum(vals):
        # the documented tree: neighbours paired left to right, an odd last
        # value carried up to the next level
        if not vals:
            return 0j
        if len(vals) == 1:
            return vals[0]
        merged = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        return TestPairwiseSum.tree_sum(merged + vals[len(merged) * 2:])

    def test_bit_identical_to_tree(self):
        rng = random.Random(4190)
        big = (1e16, -1e16, 1.0, -1.0, 3.0)
        draw = lambda: complex(rng.choice(big), rng.choice(big))
        moved = 0
        for n in [*range(71), 4095, 4096, 4097, 8191, 8193, 12289, 40320]:
            vals = [draw() for _ in range(n)]
            if n > 70:
                # around multiples of the 4096-value block: random mantissas
                # leave rounding bits in the block sums, so the order in
                # which they and a short last block combine shows
                vals = [v * rng.random() for v in vals]
            want = self.tree_sum(vals)
            assert pairwise_sum(vals) == want
            assert repr(pairwise_sum(tuple(vals))) == repr(want)
            assert repr(pairwise_sum(v for v in vals)) == repr(want)
            moved += want != sum(vals, 0j)
        # the values are ones on which association changes the sum
        assert moved > 20

    def test_odd_last_value_passes_up_unchanged(self):
        last = complex(-0.0, -0.0)
        assert pairwise_sum([last]) is last
        assert pairwise_sum(iter([1, 2, 3])) == 6
        assert type(pairwise_sum([1, 2, 3])) is int

    def test_list_argument_left_unchanged(self):
        rng = random.Random(4191)
        vals = [complex(rng.random(), rng.random()) for _ in range(9000)]
        saved = list(vals)
        pairwise_sum(vals)
        assert vals == saved

    def test_list_argument_not_copied(self):
        # copying the input and keeping whole tree levels peaks at 1.2 MB
        # here; one block's levels take about 0.15 MB
        rng = random.Random(4192)
        vals = [complex(rng.random(), rng.random()) for _ in range(40320)]
        assert traced_peak(pairwise_sum, vals) < 0.3e6

    @pytest.mark.parametrize("module, route", [
        (closed_form, "partition_permutation_sum"),
        (contour, "partition_residue"),
    ])
    def test_route_peak_at_L8(self, module, route):
        # the 40320 terms themselves take about 1.75 MB; a sum that copied
        # them and kept whole tree levels would add about 1 MB
        params, lams = draw_model(random.Random(4208), 8,
                                  routes=("permutation", "residue"))
        assert traced_peak(getattr(module, route), params, lams) < 2.3e6


class TestModelParams:
    def test_coerces_to_complex(self):
        p = ModelParams(gamma=0.3, theta=0.5, mu=[0.1], L=1)
        assert isinstance(p.gamma, complex) and isinstance(p.theta, complex)
        assert type(p.mu) is tuple and isinstance(p.mu[0], complex)

    def test_immutable(self):
        p = ModelParams(gamma=0.3, theta=0.5, mu=(0.1,), L=1)
        with pytest.raises(AttributeError):
            p.gamma = 0.4
        with pytest.raises(AttributeError):
            p.extra = 1

    def test_hashable_and_equal_by_value(self):
        p = ModelParams(gamma=0.3, theta=0.5, mu=(0.1, 0.2), L=2)
        q = ModelParams(gamma=0.3 + 0j, theta=0.5, mu=[0.1, 0.2], L=2)
        assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
        assert p != ModelParams(gamma=0.3, theta=0.6, mu=(0.1, 0.2), L=2)
        assert pickle.loads(pickle.dumps(p)) == p

    def test_repr(self):
        p = ModelParams(gamma=0.3, theta=0.5j, mu=(0.1,), L=1)
        assert repr(p) == ("ModelParams(gamma=(0.3+0j), theta=0.5j, "
                           "mu=((0.1+0j),), L=1)")

    def test_replace_normalises_and_validates(self):
        p = ModelParams(gamma=0.3, theta=0.5, mu=(0.1,), L=1)
        q = p._replace(theta=2)
        assert type(q) is ModelParams and isinstance(q.theta, complex)
        assert q == ModelParams(gamma=0.3, theta=2, mu=(0.1,), L=1)
        with pytest.raises(DegenerateGamma):
            p._replace(gamma=0)
        with pytest.raises(BadLength):
            p._replace(L=2)

    def test_length_mismatch(self):
        with pytest.raises(BadLength):
            ModelParams(gamma=0.3, theta=0.5, mu=(0.1, 0.2), L=1)

    def test_nonpositive_size(self):
        with pytest.raises(BadLength):
            ModelParams(gamma=0.3, theta=0.5, mu=(), L=0)

    @pytest.mark.parametrize("size", [2.5, 2.0, "2", True])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(BadLength, match="integer"):
            ModelParams(gamma=0.3, theta=0.5, mu=(0.1, 0.2), L=size)

    def test_degenerate_gamma_zero(self):
        with pytest.raises(DegenerateGamma):
            ModelParams(gamma=0.0, theta=0.5, mu=(0.1,), L=1)

    def test_degenerate_gamma_at_antiperiod(self):
        with pytest.raises(DegenerateGamma):
            ModelParams(gamma=1j * cmath.pi, theta=0.5, mu=(0.1,), L=1)

    @pytest.mark.parametrize("field", ["gamma", "theta", "mu"])
    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"),
                                     complex(0.2, float("-inf"))])
    def test_non_finite_rejected(self, field, bad):
        kw = dict(gamma=0.3, theta=0.5, mu=(0.1, 0.2), L=2)
        kw[field] = (0.1, bad) if field == "mu" else bad
        with pytest.raises(NonFinite, match=field):
            ModelParams(**kw)

    def test_error_hierarchy_for_exit_codes(self):
        assert issubclass(DegenerateGamma, ValidationError)
        assert issubclass(SingularTheta, ValidationError)
        assert issubclass(TooLarge, ValidationError)
        assert issubclass(BadLength, ValidationError)
        assert not issubclass(NumericalError, ValidationError)


class TestValidate:
    def make(self, **kw):
        base = dict(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                    mu=(0.13 - 0.21j, -0.22 + 0.15j), L=2)
        base.update(kw)
        return ModelParams(**base)

    def test_returns_spectral_vector(self):
        lams = validate(self.make(), (0.4, 0.2), "permutation")
        assert lams == (0.4, 0.2)
        assert all(type(z) is complex for z in lams)

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="unknown route"):
            validate(self.make(), (0.4, 0.2), "teleport")

    def test_wrong_spectral_length(self):
        with pytest.raises(BadLength):
            validate(self.make(), (0.4,), "permutation")

    @pytest.mark.parametrize("route", ["face", "permutation"])
    @pytest.mark.parametrize("bad", [complex("nan"), complex(0.4, float("inf"))])
    def test_non_finite_spectral_rejected(self, route, bad):
        with pytest.raises(NonFinite, match=r"lambda\[1\]"):
            validate(self.make(), (0.4, bad), route)

    def test_singular_theta_in_face_window(self):
        # the face route divides by sinh(theta + k*gamma) for k = 1..L+1
        p = self.make(gamma=0.31, theta=-2 * 0.31)
        with pytest.raises(SingularTheta):
            validate(p, (0.4, 0.2), "face")

    def test_face_window_excludes_offset_zero(self):
        # theta itself never appears as a face denominator
        p = self.make(gamma=0.31, theta=0.0)
        validate(p, (0.4, 0.2), "face")

    def test_permutation_window_excludes_offset_zero(self):
        p = self.make(gamma=0.31, theta=0.0)
        validate(p, (0.4, 0.2), "permutation")

    def test_coincident_spectral_on_permutation(self):
        with pytest.raises(CoincidentSpectral):
            validate(self.make(), (0.4, 0.4 + EPS_SEP / 10), "permutation")

    def test_coincident_spectral_ok_on_face(self):
        validate(self.make(), (0.4, 0.4), "face")

    @pytest.mark.parametrize("route", ROUTES)
    def test_coincident_inhomogeneities_admitted(self, route):
        # no route divides by a gap between two inhomogeneities
        p = self.make(mu=(0.13 - 0.21j,) * 2)
        assert validate(p, (0.4, 0.2), route) == (0.4, 0.2)

    @pytest.mark.parametrize("L", [2, 3, 5, 8])
    def test_coincident_inhomogeneities_agree_with_algebra(self, rng, L):
        # an equal pair at L = 2, 3 and an equal triple at L = 5, 8 leave the
        # L! routes, and face within its cap, on the algebraic value
        k = 2 if L < 5 else 3
        routes = ("permutation", "residue") + (("face",) if L <= 5 else ())
        for _ in range(4):
            params, lams = draw_model(rng, L, routes=routes)
            params = params._replace(mu=(params.mu[0],) * k + params.mu[k:])

            def value(route):
                return core.ROUTE_TABLE[route].evaluate(params, lams, None)[0]

            ref = value("algebra")
            for route in routes:
                assert abs(value(route) - ref) <= 1e-9 * abs(ref), route

    def test_spectral_separation_is_sinh_based(self):
        # antiperiodicity: sinh separates points, not euclidean distance
        with pytest.raises(CoincidentSpectral):
            validate(self.make(), (0.4, 0.4 + 1j * cmath.pi), "permutation")

    def test_coincidence_message_names_first_close_pair(self):
        p = self.make(L=3, mu=(0.13, -0.22, 0.31))
        with pytest.raises(CoincidentSpectral, match="parameters 1 and 2 "):
            validate(p, (0.4, 0.2, 0.2), "residue")

    @pytest.mark.parametrize("route", ROUTES)
    def test_cap_judged_before_count(self, route):
        # one gate per route: past the cap, TooLarge wins over a wrong count
        cap = core.ROUTE_TABLE[route].cap
        p = self.make(L=cap + 1, mu=tuple(0.05 * k for k in range(cap + 1)))
        with pytest.raises(TooLarge, match=rf"^route {route} capped at L = "
                                           rf"{cap} \(requested {cap + 1}\)$"):
            validate(p, (0.4,), route)

    @pytest.mark.parametrize("route", ROUTES)
    def test_route_refuses_one_past_its_cap(self, route):
        # the cap is read from the table, so raising it edits one entry
        cap = core.ROUTE_TABLE[route].cap
        L = cap + 1
        p = self.make(L=L, mu=tuple(0.05 * k for k in range(L)))
        with pytest.raises(TooLarge, match=rf"^route {route} capped at L = "
                                           rf"{cap} \(requested {L}\)$"):
            core.ROUTE_TABLE[route].evaluate(
                p, tuple(0.07 * k + 0.1j for k in range(L)), None)

    @pytest.mark.parametrize("route", ROUTES)
    def test_count_judged_by_the_spectral_gate(self, route):
        with pytest.raises(BadLength,
                           match="^expected 2 spectral values, got 1$"):
            validate(self.make(), (0.4,), route)

    def test_singularity_floor_value(self):
        assert EPS_SING == 1e-8 and EPS_SEP == 1e-6


class TestClosePair:
    def test_first_pair_in_row_major_order(self):
        assert close_pair((0.0, 0.5, 0.5, 0.0), 1e-6) == (0, 3)
        assert close_pair((0.1, 0.5, 0.5), 1e-6) == (1, 2)
        assert close_pair((0.1, 0.2, 0.3), 1e-2) is None

    def test_floor_is_inclusive(self):
        assert close_pair((0.0, 0.1), abs(s(0.1))) == (0, 1)
        assert close_pair((0.0, 0.1), abs(s(0.1)) * 0.999) is None


# Spectral values beyond the two of the complex_params_l2 fixture.
MORE = (-0.3 + 0.1j, 0.05 + 0.3j, -0.12 - 0.4j)

# Every identity check that takes a spectral vector, with the count it needs.
GATED = {
    "coeff_M": (lambda p, v: closed_form.coeff_M(1, v, p.theta, p, 2), 3),
    "coeff_N": (lambda p, v: closed_form.coeff_N(2, 1, v, p.theta, p, 2), 3),
    "functional": (
        lambda p, v: closed_form.functional_equation_residual(p, v), 4),
    "zeroes": (lambda p, v: closed_form.special_zero_residual(p, v), 2),
    "symmetry": (lambda p, v: closed_form.swap_residual(p, v, 0, 1), 2),
    "cbb": (lambda p, v: yb_algebra.cbb_residual(2, v, p.theta, p), 3),
    "nilpotency": (lambda p, v: yb_algebra.nilpotency_norm(p, v), 3),
    "quadrature": (lambda p, v: contour.tensor_quadrature(
        p, v, contour.ContourSpec(0.1 + 0.05j, 0.9), 64), 2),
}

# The checks that divide by spectral gaps, each on a vector with one
# coincident pair; commut's pair is i*pi apart, where sinh vanishes, and
# the coefficients' pair 1e-9 apart, within EPS_SEP.
COINCIDENT = {
    "coeff_M": (lambda p, v: closed_form.coeff_M(
        1, v[:2] + (v[1] + 1e-9,), p.theta, p, 2), (1, 2)),
    "coeff_N": (lambda p, v: closed_form.coeff_N(
        2, 1, v[:2] + (v[1] + 1e-9,), p.theta, p, 2), (1, 2)),
    "functional": (lambda p, v: closed_form.functional_equation_residual(
        p, v[:3] + v[:1]), (0, 3)),
    "cbb": (lambda p, v: yb_algebra.cbb_residual(
        2, v[:2] + v[1:2], p.theta, p), (1, 2)),
    "commut": (lambda p, v: yb_algebra.commutation_residuals(
        v[0], v[0] + 1j * cmath.pi, p.theta, p), (0, 1)),
}


GAMMA = 0.31 + 0.12j
LAMS = (0.41 + 0.05j, 0.18 - 0.27j, -0.3 + 0.1j)


def _at(L, theta):
    return ModelParams(gamma=GAMMA, theta=theta,
                       mu=(0.13 - 0.21j, -0.22 + 0.15j, 0.37 + 0.18j)[:L], L=L)


# Every identity check that divides by sinh(theta + n*gamma), called at a
# given theta, with the offsets n it judges through core.theta_window.
WINDOWED = {
    "coeff_M": (lambda th: closed_form.coeff_M(
        1, LAMS, th, _at(2, 0), 2), (0, 1, 2)),
    "coeff_N": (lambda th: closed_form.coeff_N(
        2, 1, LAMS, th, _at(2, 0), 2), (0, 1, 2)),
    "commut L=2": (lambda th: yb_algebra.commutation_residuals(
        *LAMS[:2], th, _at(2, 0)), tuple(range(-2, 5))),
    "commut L=3": (lambda th: yb_algebra.commutation_residuals(
        *LAMS[:2], th, _at(3, 0)), tuple(range(-3, 6))),
    "asymptotic": (lambda th: closed_form.asymptotic_leading_coefficient(
        _at(3, th)), (1, 2, 3)),
    "ode": (lambda th: closed_form.ode_residual_L1(
        0.2 + 0.1j, _at(1, th)), (1, 2, 3)),
}


class TestThetaWindow:
    @pytest.mark.parametrize("name, n", [
        (name, n) for name, (_, window) in WINDOWED.items() for n in window])
    def test_every_offset_of_the_window_raises(self, name, n):
        call, _ = WINDOWED[name]
        with pytest.raises(SingularTheta,
                           match=rf"^sinh\(theta \+ {n}\*gamma\) "
                                 rf"is below 1e-08$"):
            call(-n * GAMMA)

    @pytest.mark.parametrize("call", [
        closed_form.asymptotic_leading_coefficient,
        lambda p: closed_form.ode_residual_L1(1.3, p)],
        ids=["asymptotic", "ode"])
    def test_floor_is_the_sinh_of_the_core_gate(self, call):
        # |1 - q^2 t^2| is about 1e-8 here, |sinh(theta + gamma)| 5e-9
        with pytest.raises(SingularTheta, match=r"^sinh\(theta \+ 1\*gamma"):
            call(_at(1, -GAMMA + 5e-9))

    @pytest.mark.parametrize("name", ["coeff_M", "coeff_N", "asymptotic",
                                      "ode"])
    def test_offset_past_the_window_is_finite(self, name):
        call, window = WINDOWED[name]
        assert cmath.isfinite(call(-(max(window) + 1) * GAMMA))


def _ode(p):
    return closed_form.ode_residual_L1(1.3, p)


def _commut(p):
    return yb_algebra.commutation_residuals(*LAMS[:2], p.theta, p)


def _commut_spectral(p):
    return yb_algebra.commutation_residuals(p.theta, LAMS[1], 0.57, p)


def _row(name, call, gamma, theta, mu=(0.13,)):
    params = ModelParams(gamma=gamma, theta=theta, mu=mu, L=len(mu))
    return pytest.param(call, params, id=name)


ASYMPTOTIC = closed_form.asymptotic_leading_coefficient

# gamma = -1 + 0.3j keeps sinh(theta + n*gamma) in range at the windows of
# asymptotic and ode, where e^theta overflows (theta = 709.9).  Below that a
# power of t = e^theta overflows: t^2 at theta = 400, and ode's t^4 at 200.
# At L=2, theta=300 asymptotic's denominator product overflows to inf.
OVERFLOWS = [
    _row("asymptotic", ASYMPTOTIC, -1 + 0.3j, 709.9),
    _row("ode", _ode, -1 + 0.3j, 709.9),
    _row("commut", _commut, -1 + 0.3j, 709.9),
    _row("commut-spectral", _commut_spectral, -1 + 0.3j, 709.9),
    *(_row(f"{name}-theta={theta}-gamma={g}", call, g, theta)
      for name, call, theta in (("asymptotic", ASYMPTOTIC, 400),
                                ("ode", _ode, 400), ("ode", _ode, 200))
      for g in (-1 + 0.3j, GAMMA)),
    _row("asymptotic-L=2-theta=300", ASYMPTOTIC, GAMMA, 300, mu=(0.1, 0.2)),
]


@pytest.mark.parametrize("call, params", OVERFLOWS)
def test_identity_checks_report_overflow_as_the_routes_do(call, params):
    with pytest.raises(SinhOverflow, match="exceeds the double"):
        call(params)


class TestSpectralGate:
    def test_returns_complex_tuple(self):
        lams = spectral([0.5, 2, 0.3j], 3)
        assert lams == (0.5, 2, 0.3j)
        assert all(type(z) is complex for z in lams)

    @pytest.mark.parametrize("values", [(), (0.1,), (0.1, 0.2, 0.3)])
    def test_count(self, values):
        with pytest.raises(BadLength,
                           match=f"^expected 2 spectral values, "
                                 f"got {len(values)}$"):
            spectral(values, 2)

    def test_names_first_close_pair(self):
        lams = (0.0, 0.5, 0.5, 1j * cmath.pi)
        assert spectral(lams, 4) == lams
        with pytest.raises(CoincidentSpectral,
                           match="^spectral arguments 0 and 3 coincide$"):
            spectral(lams, 4, separated=True)

    def test_floor_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(core, "EPS_SEP", abs(s(0.1)))
        with pytest.raises(CoincidentSpectral):
            spectral((0.0, 0.1), 2, separated=True)
        monkeypatch.setattr(core, "EPS_SEP", abs(s(0.1)) * 0.999)
        assert spectral((0.0, 0.1), 2, separated=True) == (0, 0.1)

    def test_scaled(self):
        assert scaled(1.0, 4.0) == 0.25
        assert scaled(0.0, 0.0) == 0.0
        assert scaled(0.5, 0.0) == 0.0

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("name", GATED)
    def test_every_caller_rejects_a_wrong_count(self, name, delta,
                                                complex_params_l2):
        params, lams = complex_params_l2
        call, n = GATED[name]
        with pytest.raises(BadLength,
                           match=f"^expected {n} spectral values, "
                                 f"got {n + delta}$"):
            call(params, (lams + MORE)[:n + delta])

    @pytest.mark.parametrize("name", COINCIDENT)
    def test_separated_callers_reject_a_coincident_pair(self, name,
                                                        complex_params_l2):
        params, lams = complex_params_l2
        call, (i, j) = COINCIDENT[name]
        with pytest.raises(CoincidentSpectral,
                           match=f"^spectral arguments {i} and {j} coincide$"):
            call(params, lams + MORE)


def _python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.cache
def _bare_modules() -> frozenset:
    return frozenset(_python("import sys\nprint(*sys.modules)").split())


def _loaded_after(probe: str) -> set:
    """Modules a fresh interpreter loads for a probe, beyond a bare one.

    The probe may call ``run(*argv)``, which runs ``cli.main`` and asserts
    exit code 0.
    """
    probe = ("import contextlib, io, sys\n"
             "def run(*argv):\n"
             "    from sosdw import cli\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert cli.main(list(argv)) == 0, argv\n"
             + probe + "\nprint(*sys.modules)\n")
    return set(_python(probe).splitlines()[-1].split()) - _bare_modules()


def _job_file(folder, routes, **extra) -> str:
    """An L=3 job file with the given routes; returns its path."""
    path = folder / f"{'-'.join(routes)}.json"
    path.write_text(json.dumps({
        "L": 3, "gamma": {"re": 0.31, "im": 0.12},
        "theta": {"re": 0.57, "im": -0.08},
        "mu": [{"re": 0.13, "im": -0.21}, {"re": -0.22, "im": 0.15},
               {"re": 0.05, "im": 0.3}],
        "lambda": [{"re": 0.41, "im": 0.05}, {"re": 0.18, "im": -0.27},
                   {"re": -0.3, "im": 0.1}],
        "routes": list(routes), **extra}))
    return str(path)


def test_exact_routes_import_without_numpy(tmp_path):
    def job(routes):
        return f"run('compute', '--config', {_job_file(tmp_path, routes)!r})\n"

    assert "numpy" not in _loaded_after(
        "import importlib, pkgutil, sosdw\n"
        "assert [m for m in sys.modules if m.startswith('sosdw.')] == []\n"
        "for mod in pkgutil.iter_modules(sosdw.__path__):\n"
        "    importlib.import_module(f'sosdw.{mod.name}')\n"
        + job(("face", "algebra", "permutation", "residue"))
        + "from sosdw.verify import run_suite\n"
        + "".join(f"assert run_suite({name!r}, 0, 4).passed\n"
                  for name in SUITE_NAMES))
    assert "numpy" not in _loaded_after(job(("residue", "quadrature")))
    assert "numpy" not in _loaded_after(
        "run('verify', '--suite', 'contour', '--draws', '2')")


def test_quadrature_runs_where_numpy_cannot_load(tmp_path):
    job = _job_file(tmp_path, ("residue", "quadrature"))
    _loaded_after("sys.modules['numpy'] = None\n"
                  f"run('compute', '--config', {job!r})\n"
                  "run('verify', '--suite', 'contour', '--draws', '2')")


@pytest.mark.parametrize("argv, needs, skips", [
    (("verify", "--suite", "dybe"), {"rmatrix"},
     {"closed_form", "yb_algebra", "face_model", "contour"}),
    (("verify", "--suite", "functional"), {"closed_form"},
     {"yb_algebra", "face_model", "rmatrix", "contour"}),
    (("compute", "algebra"), {"yb_algebra", "rmatrix"},
     {"closed_form", "face_model", "contour", "verify", "sampling"}),
    (("bench", "--lmin", "1", "--lmax", "2", "--routes", "permutation"),
     {"closed_form", "sampling"},
     {"verify", "yb_algebra", "face_model", "rmatrix", "contour"}),
], ids=["verify-dybe", "verify-functional", "compute-algebra",
        "bench-permutation"])
def test_subcommand_loads_only_the_modules_it_runs(argv, needs, skips,
                                                   tmp_path):
    if argv[0] == "compute":
        argv = ("compute", "--config", _job_file(tmp_path, argv[1:]))
    elif argv[0] == "verify":
        argv += ("--draws", "2")
    loaded = _loaded_after(f"run(*{argv!r})")
    assert {f"sosdw.{m}" for m in needs} <= loaded
    assert not {f"sosdw.{m}" for m in skips} & loaded


def test_no_subcommand_loads_dataclasses(tmp_path):
    contour = {"center": {"re": 0.1, "im": -0.04}, "radius": 0.9,
               "nodes": 32}
    job = _job_file(tmp_path, ROUTES, contour=contour)
    loaded = _loaded_after(
        f"run('compute', '--config', {job!r})\n"
        "run('verify', '--draws', '1')\n"
        "run('bench', '--lmin', '1', '--lmax', '1')\n")
    assert {"sosdw.cli", "sosdw.contour"} <= loaded
    assert "dataclasses" not in loaded


def test_package_root_imports_submodules_on_first_use():
    import sosdw

    assert sosdw._SUBMODULES == {
        m.name for m in pkgutil.iter_modules(sosdw.__path__)}
    loaded = _loaded_after(
        "import sosdw\n"
        "assert [m for m in sys.modules if m.startswith('sosdw.')] == []\n"
        "assert callable(sosdw.face_model.enumerate_partition)\n"
        "assert getattr(sosdw, 'validate', None) is None\n")
    assert {"sosdw.face_model", "sosdw.rmatrix", "sosdw.core"} <= loaded
    assert "sosdw.closed_form" not in loaded
    # An import that fails inside a submodule is not hidden as a missing
    # attribute.
    _python("import sys\n"
            "sys.modules['cmath'] = None\n"
            "import sosdw\n"
            "try:\n"
            "    getattr(sosdw, 'core', None)\n"
            "except ImportError as exc:\n"
            "    assert 'cmath' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('ImportError swallowed')\n")
