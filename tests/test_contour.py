"""Contour-integral route: residues, quadrature, and contour validation."""

import cmath
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sosdw.core import (
    ROUTE_TABLE,
    ModelParams,
    NoConvergence,
    NonFinite,
    SingularTheta,
    SinhOverflow,
    TooLarge,
    pairwise_sum,
    s,
)
from sosdw.closed_form import partition_permutation_sum
from sosdw.contour import (
    ContourInvalid,
    ContourSpec,
    PoleHit,
    _pair,
    _pair_legs,
    _residue_terms,
    _site_factors,
    auto_contour,
    check_contour,
    partition_quadrature,
    partition_quadrature_info,
    partition_residue,
    tensor_quadrature,
)
from sosdw.sampling import draw_model
from sosdw.verify import _spread_ok


def draw_clustered(rng, L):
    """Parameters whose spectral points fit inside one legal circle."""
    return draw_model(
        rng, L, routes=("residue", "quadrature"),
        predicate=lambda p, lams: max(abs(z - sum(lams) / L)
                                      for z in lams) < 1.0)


class TestContourValidation:
    def test_auto_contour_is_legal(self, rng):
        for L in (1, 2, 3):
            _, lams = draw_clustered(rng, L)
            check_contour(auto_contour(lams), lams)

    def test_radius_cap(self):
        with pytest.raises(ContourInvalid):
            check_contour(ContourSpec(center=0j, radius=math.pi), (0j,))

    def test_pole_outside(self):
        with pytest.raises(ContourInvalid):
            check_contour(ContourSpec(center=0j, radius=0.5), (1.0 + 0j,))

    def test_shifted_copy_inside(self):
        with pytest.raises(ContourInvalid):
            check_contour(
                ContourSpec(center=1.4j, radius=2.0), (0.1 + 0j,))

    @pytest.mark.parametrize("spec", [
        ContourSpec(center=complex(float("nan"), -0.1), radius=0.9),
        ContourSpec(center=0.3 - 0.1j, radius=float("nan")),
        ContourSpec(center=0.3 - 0.1j, radius=float("inf")),
    ], ids=["nan-center", "nan-radius", "inf-radius"])
    def test_non_finite_circle(self, spec, complex_params_l2):
        # rejected as input, before the node doubling can report a
        # numerical failure
        params, lams = complex_params_l2
        with pytest.raises(ContourInvalid, match="finite"):
            partition_quadrature_info(params, lams, spec)

    def test_non_integer_nodes(self, complex_params_l2):
        params, lams = complex_params_l2
        spec = ContourSpec(center=0.3 - 0.1j, radius=0.9, nodes=64.0)
        with pytest.raises(ContourInvalid, match="integer"):
            partition_quadrature_info(params, lams, spec)

    def test_too_few_nodes(self):
        with pytest.raises(ContourInvalid):
            check_contour(ContourSpec(center=0j, radius=0.5, nodes=2), (0j,))

    def test_node_count_leaves_room_for_one_doubling(self):
        check_contour(ContourSpec(center=0j, radius=0.5, nodes=256), (0j,))
        with pytest.raises(ContourInvalid, match="at most 256"):
            check_contour(ContourSpec(center=0j, radius=0.5, nodes=257),
                          (0j,))

    def test_auto_contour_one_pole(self):
        lams = (0.3 - 0.2j,)
        spec = auto_contour(lams)
        assert spec.center == lams[0]
        check_contour(spec, lams)

    @pytest.mark.parametrize("L", [2, 3])
    def test_auto_contour_at_the_contour_suite_spread_limit(self, L):
        # poles at distance just under 1.2 from their centroid, one of
        # them pointing at its own i*pi copy
        center = 0.2 - 0.3j
        lams = tuple(center + 1.1999999 * 1j * cmath.exp(2j * math.pi * k / L)
                     for k in range(L))
        assert _spread_ok(None, lams)
        check_contour(auto_contour(lams), lams)

    @pytest.mark.parametrize("lams", [
        (0j, 3.1j),
        # the centroid sits on the first pole's i*pi copy
        (0j, 1 + 1.5j * math.pi, -1 + 1.5j * math.pi),
    ], ids=["gap-near-i-pi", "centroid-on-a-copy"])
    def test_auto_contour_without_a_separating_circle(self, lams):
        with pytest.raises(ContourInvalid):
            check_contour(auto_contour(lams), lams)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1.6,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=4))
    def test_balanced_circle_keeps_every_reach_plus_margin_circle(self,
                                                                   lams):
        center = sum(lams) / len(lams)
        reach = max(abs(z - center) for z in lams)
        try:
            check_contour(ContourSpec(center, reach + 0.3), lams)
        except ContourInvalid:
            assume(False)
        check_contour(auto_contour(lams), lams)

    def test_pole_hit_on_a_quadrature_node(self, complex_params_l2):
        # node 0 of the circle sits at center + radius, on the first pole
        params, lams = complex_params_l2
        spec = ContourSpec(center=lams[0] - 0.5, radius=0.5, nodes=16)
        with pytest.raises(PoleHit):
            tensor_quadrature(params, lams, spec, 16)


def ring_nodes(radius, nodes, turn=0.0):
    """Ring offsets of a circle's trapezoid nodes, as tensor_quadrature
    places them, turned by ``turn``."""
    return [radius * cmath.exp(1j * (2.0 * math.pi * a / nodes + turn))
            for a in range(nodes)]


def brute_force_quadrature(params, lams, spec, nodes):
    """The trapezoid sum over all nodes**L node tuples, term by term, and
    the sum of the terms' moduli."""
    L, g = params.L, params.gamma
    ring = ring_nodes(spec.radius, nodes)
    wn = [spec.center + r for r in ring]
    site = _site_factors(params)
    weight = [[s(g) * r / nodes * site(j, w)
               / math.prod(s(w - z) for z in lams)
               for r, w in zip(ring, wn)] for j in range(L)]
    total, scale = 0j, 0.0
    for tup in itertools.product(range(nodes), repeat=L):
        term = math.prod(weight[j][a] for j, a in enumerate(tup))
        for i, j in itertools.combinations(range(L), 2):
            term *= _pair(wn[tup[i]], wn[tup[j]], g)
        total += term
        scale += abs(term)
    return total, scale


class TestPairLegs:
    def test_matches_direct_pair(self):
        rng = random.Random(15)
        for _ in range(60):
            center = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            radius = rng.uniform(0.01, math.pi - 0.05)
            g = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            nodes = rng.choice((8, 64, 128))
            ring = ring_nodes(radius, nodes, rng.random())
            legs = _pair_legs(g)
            worst = scale = 0.0
            for ra in ring:
                for rb in ring:
                    direct = _pair(center + ra, center + rb, g)
                    ranked = sum(c * cmath.exp(2 * k * rb)
                                 * cmath.exp(-2 * k * ra) for k, c in legs)
                    worst = max(worst, abs(ranked - direct))
                    scale = max(scale, abs(direct))
            assert worst <= 1e-13 * scale

    @pytest.mark.parametrize("L, nodes", [
        pytest.param(L, nodes, id=f"{L}-{nodes}")
        for L, nodes in ((1, 8), (1, 16), (2, 8), (2, 16), (3, 8), (3, 16),
                         (4, 8))
    ])
    def test_equals_brute_force_trapezoid_sum(self, rng, monkeypatch, L,
                                              nodes):
        # L = 4 lies past the route's cap: lift it here alone, to show the
        # contraction itself holds for any L
        monkeypatch.setitem(ROUTE_TABLE, "quadrature",
                            ROUTE_TABLE["quadrature"]._replace(cap=4))
        for _ in range(3):
            params, lams = draw_clustered(rng, L)
            lams = tuple(complex(z) for z in lams)
            spec = auto_contour(lams)
            want, scale = brute_force_quadrature(params, lams, spec, nodes)
            got = tensor_quadrature(params, lams, spec, nodes)
            assert abs(got - want) <= 1e-13 * scale


def transcribed_residue_terms(params, lams):
    """The residue terms written out with core.s, factor by factor.

    The products follow ``core.ordering_terms``' order, so the route must
    match them bit for bit.
    """
    g, th, mu, L = params.gamma, params.theta, params.mu, params.L
    site = []
    for j in range(L):
        row = []
        for a in range(L):
            f = s(th + (j + 1) * g - lams[a] + mu[j]) / s(th + (j + 1) * g)
            for l in range(j):
                f = f * s(mu[l] - lams[a])
            for l in range(j + 1, L):
                f = f * s(lams[a] - mu[l] + g)
            den = math.prod(s(lams[a] - lams[b]) for b in range(L) if b != a)
            row.append(f / den)
        site.append(row)
    terms = []
    for order in itertools.permutations(range(L)):
        v = 1.0 + 0j
        for p, a in enumerate(order):
            # the step of pole a after order[:p]: its pair factors, the
            # highest earlier pole first, then its site factor
            step = site[p][a]
            if p:
                f = 1.0 + 0j
                for b in sorted(order[:p], reverse=True):
                    gap = lams[a] - lams[b]
                    f = f * (s(gap + g) * s(gap))
                step = step * f
            v = v * step
        terms.append(v)
    return terms


class TestResidueSum:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_bit_identical_to_transcription(self, rng, L):
        # crosscheck verdicts at L=8 sit near the 1e-9 agreement gate, so
        # the transcription follows ordering_terms' product order bit for
        # bit: a change to that order must update both together
        for _ in range(3):
            params, lams = draw_model(rng, L, routes=("residue",))
            lams = tuple(complex(z) for z in lams)
            terms = transcribed_residue_terms(params, lams)
            assert _residue_terms(params, lams) == terms
            assert partition_residue(params, lams) == (
                s(params.gamma) ** L * pairwise_sum(terms))


    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_equals_permutation_sum(self, rng, L):
        for _ in range(4):
            params, lams = draw_model(rng, L, routes=("residue",
                                                      "permutation"))
            zr = partition_residue(params, lams)
            zp = partition_permutation_sum(params, lams)
            assert abs(zr - zp) <= 1e-12 * max(abs(zr), abs(zp))


class TestQuadrature:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_matches_residue_reference(self, rng, L):
        for _ in range(2):
            params, lams = draw_clustered(rng, L)
            zr = partition_residue(params, lams)
            zq, nodes = partition_quadrature_info(params, lams)
            assert nodes <= 512
            assert abs(zq - zr) <= 1e-8 * abs(zr)

    def test_wrapper_drops_node_count(self, rng):
        params, lams = draw_clustered(rng, 1)
        zq = partition_quadrature(params, lams)
        zi, _ = partition_quadrature_info(params, lams)
        assert zq == zi

    @pytest.mark.parametrize("L", [2, 3])
    def test_geometric_node_doubling(self, rng, L,
                                     quadrature_convergence):
        params, lams = draw_clustered(rng, L)
        zr = partition_residue(params, lams)
        spec = auto_contour(lams)
        spec = ContourSpec(center=spec.center, radius=spec.radius, nodes=8)
        hist = quadrature_convergence(params, lams, spec, max_nodes=256)
        errs = [(n, abs(z - zr) / abs(zr)) for n, z in hist]
        for (_, e_prev), (_, e_next) in zip(errs, errs[1:]):
            if e_prev > 1e-12:
                assert e_next < 0.5 * e_prev
        assert errs[-1][1] < 1e-10

    def test_partial_contour_quadrature_tracks_enclosed_residues(self, rng):
        # a circle around only the first pole encloses fewer poles than
        # variables: no assignment of variables to distinct enclosed poles
        # exists, so the integral vanishes
        params, lams = draw_model(
            rng, 2, routes=("residue", "quadrature"),
            predicate=lambda p, lams: 1.2 < abs(lams[0] - lams[1]) < 2.4)
        spec = ContourSpec(center=lams[0], radius=0.4, nodes=256)
        check_contour(spec, (lams[0],))
        assert abs(tensor_quadrature(params, lams, spec, 256)) < 1e-8

    def test_fixed_node_determinism(self, rng):
        params, lams = draw_clustered(rng, 2)
        spec = auto_contour(lams)
        za = tensor_quadrature(params, lams, spec, 64)
        zb = tensor_quadrature(params, lams, spec, 64)
        assert za == zb

    @pytest.mark.parametrize("L", [1, 2])
    def test_overflow_raises(self, L):
        # sinh of the site factors at nodes around Re lambda = 900
        params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                             mu=(0.13, -0.22)[:L], L=L)
        lams = (900 + 0.05j, 900.3 - 0.1j)[:L]
        with pytest.raises(SinhOverflow, match="sinh of"):
            tensor_quadrature(params, lams, auto_contour(lams, nodes=16), 16)

    @pytest.mark.parametrize("L", [1, 2])
    def test_pair_leg_overflow_raises(self, L):
        # e^gamma overflows while sinh(gamma) and every site factor stay in
        # range: the pair legs raise SinhOverflow, not OverflowError
        params = ModelParams(gamma=710.0, theta=(-705.0, -1062.5)[L - 1],
                             mu=(0.13, 1.5)[:L], L=L)
        lams = (0.4 + 0.05j, 0.1 - 0.1j)[:L]
        with pytest.raises(SinhOverflow, match="exp of"):
            partition_quadrature(params, lams)

    @pytest.mark.parametrize("theta, lams, error", [
        (-(0.31 + 0.12j), (0.4 + 0.05j, 0.1 - 0.1j), SingularTheta),
        (0.57 - 0.08j, (0.4 + 0.05j, complex("nan")), NonFinite),
    ], ids=["singular-theta", "non-finite"])
    def test_runs_the_route_gate(self, theta, lams, error):
        # theta = -gamma zeroes sinh(theta + gamma), a site-factor
        # denominator; a NaN spectral parameter would give a NaN value
        params = ModelParams(gamma=0.31 + 0.12j, theta=theta,
                             mu=(0.13, -0.22), L=2)
        with pytest.raises(error):
            tensor_quadrature(params, lams, ContourSpec(0.25, 0.9), 16)

    def test_size_cap(self):
        # the cap is ROUTE_TABLE's policy, not a limit of the contraction:
        # every entry point must refuse L = 4 until the error past L = 3 is
        # measured
        params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                             mu=(0.1, 0.2, 0.3, 0.4), L=4)
        lams = (0.1, 0.2, 0.3, 0.4)
        spec = auto_contour(lams, nodes=16)
        with pytest.raises(TooLarge):
            partition_quadrature(params, lams)
        with pytest.raises(TooLarge):
            tensor_quadrature(params, lams, spec, 16)
