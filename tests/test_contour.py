"""Contour-integral route: residues, quadrature, and contour validation."""

import cmath
import math

import pytest

from sosdw.core import ModelParams, NoConvergence, TooLarge
from sosdw.closed_form import partition_permutation_sum
from sosdw.contour import (
    ContourInvalid,
    ContourSpec,
    PoleHit,
    auto_contour,
    check_contour,
    partition_quadrature,
    partition_quadrature_info,
    partition_residue,
    tensor_quadrature,
)
from sosdw.sampling import draw_model


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

    def test_too_few_nodes(self):
        with pytest.raises(ContourInvalid):
            check_contour(ContourSpec(center=0j, radius=0.5, nodes=2), (0j,))

    def test_node_count_leaves_room_for_one_doubling(self):
        check_contour(ContourSpec(center=0j, radius=0.5, nodes=256), (0j,))
        with pytest.raises(ContourInvalid, match="at most 256"):
            check_contour(ContourSpec(center=0j, radius=0.5, nodes=257),
                          (0j,))

    def test_pole_hit_on_a_quadrature_node(self, complex_params_l2):
        # node 0 of the circle sits at center + radius, on the first pole
        params, lams = complex_params_l2
        spec = ContourSpec(center=lams[0] - 0.5, radius=0.5, nodes=16)
        with pytest.raises(PoleHit):
            tensor_quadrature(params, lams, spec, 16)


class TestResidueSum:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_equals_permutation_sum(self, rng, L):
        for _ in range(4):
            params, lams = draw_model(rng, L, routes=("residue",
                                                      "permutation"))
            zr = partition_residue(params, lams)
            zp = partition_permutation_sum(params, lams)
            assert abs(zr - zp) <= 1e-12 * max(abs(zr), abs(zp))

    def test_size_cap(self):
        params = ModelParams(gamma=0.3, theta=0.5,
                             mu=tuple(0.11 * k for k in range(9)), L=9)
        with pytest.raises(TooLarge):
            partition_residue(params, tuple(0.07 * k + 0.1j
                                            for k in range(9)))


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

    def test_size_cap(self):
        # the tensor contraction reads slots 0-2 only, so every entry point
        # must refuse L = 4 rather than return a wrong value
        params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                             mu=(0.1, 0.2, 0.3, 0.4), L=4)
        lams = (0.1, 0.2, 0.3, 0.4)
        spec = auto_contour(lams, nodes=16)
        with pytest.raises(TooLarge):
            partition_quadrature(params, lams)
        with pytest.raises(TooLarge):
            tensor_quadrature(params, lams, spec, 16)
