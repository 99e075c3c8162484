"""Height enumeration oracle, weight dictionary, and star-triangle identity."""

import random

import numpy as np
import pytest

from sosdw.core import ROUTE_TABLE, ModelParams, TooLarge, ValidationError
from sosdw.closed_form import partition_L1, partition_permutation_sum
from sosdw.face_model import (
    UNSET,
    FaceQuartet,
    HeightGrid,
    InvalidBoundary,
    InvalidQuartet,
    count_configurations,
    dwbc_boundary,
    enumerate_height_grids,
    enumerate_partition,
    face_cap,
    face_weight,
    hexagon_residual,
)
from sosdw.rmatrix import weights
from sosdw.sampling import draw_model

REFERENCE_VALUE = 0.018805557352697261 + 0j
# frozen from the agreement of all four exact routes at the fixture point
# (relative spread 1.3e-15 at freeze time); tolerance per the build contract


class TestQuartetDictionary:
    def test_six_patterns(self):
        cases = {
            (0, 1, -1, 0): "a+",
            (0, -1, 1, 0): "a-",
            (1, 0, 0, -1): "b+",
            (-1, 0, 0, 1): "b-",
            (1, 0, 0, 1): "c+",
            (-1, 0, 0, -1): "c-",
        }
        for (bl, br, tl, tr), want in cases.items():
            got = FaceQuartet(k_bl=bl, k_br=br, k_tl=tl, k_tr=tr).pattern()
            assert got == want, (bl, br, tl, tr)

    def test_translation_invariance(self):
        q1 = FaceQuartet(k_bl=0, k_br=1, k_tl=-1, k_tr=0)
        q2 = FaceQuartet(k_bl=5, k_br=6, k_tl=4, k_tr=5)
        assert q1.pattern() == q2.pattern() == "a+"

    def test_step_of_two_rejected(self):
        with pytest.raises(InvalidQuartet):
            FaceQuartet(k_bl=0, k_br=2, k_tl=1, k_tr=1).pattern()

    def test_constant_quartet_rejected(self):
        with pytest.raises(InvalidQuartet):
            FaceQuartet(k_bl=0, k_br=0, k_tl=0, k_tr=0).pattern()


class TestFaceWeightValues:
    """Pinned dictionary rows: quartets whose top-left offset is -1 evaluate
    the corresponding weight at the bare reference height."""

    P = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j, mu=(0.0,), L=1)

    def test_straight_cell(self):
        lam = 0.23 - 0.11j
        q = FaceQuartet(k_bl=0, k_br=1, k_tl=-1, k_tr=0)
        w = weights(lam, self.P.theta, self.P)
        assert face_weight(q, lam, self.P) == w.a_plus

    def test_exchange_cell(self):
        lam = 0.23 - 0.11j
        q = FaceQuartet(k_bl=0, k_br=-1, k_tl=-1, k_tr=0)
        w = weights(lam, self.P.theta, self.P)
        assert face_weight(q, lam, self.P) == w.c_plus

    def test_anchor_is_one_step_above_top_left(self):
        lam = 0.23 - 0.11j
        for bl, br, tl, tr in [(0, 1, -1, 0), (1, 0, 0, -1), (1, 0, 0, 1),
                               (-1, 0, 0, 1), (-1, 0, 0, -1), (0, -1, 1, 0)]:
            q = FaceQuartet(k_bl=bl, k_br=br, k_tl=tl, k_tr=tr)
            th_loc = self.P.theta + (tl + 1) * self.P.gamma
            w = weights(lam, th_loc, self.P)
            table = {"a+": w.a_plus, "a-": w.a_minus, "b+": w.b_plus,
                     "b-": w.b_minus, "c+": w.c_plus, "c-": w.c_minus}
            assert face_weight(q, lam, self.P) == table[q.pattern()]


class TestBoundary:
    def test_smallest_grid(self):
        g = dwbc_boundary(1)
        assert g.offsets.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_corners(self, L):
        k = dwbc_boundary(L).offsets
        assert k[0, 0] == L and k[0, L] == 0
        assert k[L, 0] == 0 and k[L, L] == L

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_boundary_steps_and_unset_interior(self, L):
        g = dwbc_boundary(L)
        g.check_heights()
        assert (g.offsets[1:-1, 1:-1] == UNSET).all()

    def test_check_heights_catches_bad_pair(self):
        bad = HeightGrid(offsets=np.array([[1, 0], [0, 3]]), L=1)
        with pytest.raises(InvalidBoundary):
            bad.check_heights()


class TestEnumeration:
    @pytest.mark.parametrize("L,count", [(1, 1), (2, 2), (3, 7), (4, 42),
                                         (5, 429), (6, 7436)])
    def test_configuration_counts(self, L, count):
        assert count_configurations(L) == count
        assert ROUTE_TABLE["face"].workload(L, None) == count

    def test_grids_are_complete_and_valid(self):
        for grid in enumerate_height_grids(3):
            assert (grid != UNSET).all()
            HeightGrid(offsets=grid, L=3).check_heights()

    def test_single_row_equals_closed_form(self, rng):
        for _ in range(100):
            params, lams = draw_model(rng, 1, routes=("face", "permutation"))
            zf = enumerate_partition(params, lams)
            zc = partition_L1(params, lams[0])
            assert abs(zf - zc) <= 1e-14 * abs(zc)

    def test_reference_value_pinned(self, ref_params_l2):
        params, lams = ref_params_l2
        zf = enumerate_partition(params, lams)
        zc = partition_permutation_sum(params, lams)
        assert abs(zf - REFERENCE_VALUE) <= 1e-10 * abs(REFERENCE_VALUE)
        assert abs(zc - REFERENCE_VALUE) <= 1e-10 * abs(REFERENCE_VALUE)

    def test_row_swap_symmetry(self, complex_params_l2):
        params, lams = complex_params_l2
        za = enumerate_partition(params, lams)
        zb = enumerate_partition(params, (lams[1], lams[0]))
        assert abs(za - zb) <= 1e-12 * abs(za)

    def test_column_swap_symmetry(self, complex_params_l2):
        params, lams = complex_params_l2
        za = enumerate_partition(params, lams)
        swapped = ModelParams(gamma=params.gamma, theta=params.theta,
                              mu=(params.mu[1], params.mu[0]), L=2)
        zb = enumerate_partition(swapped, lams)
        assert abs(za - zb) <= 1e-12 * abs(za)

    def test_size_cap(self, complex_params_l2):
        params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                             mu=tuple(0.05 * k for k in range(6)), L=6)
        with pytest.raises(TooLarge):
            enumerate_partition(params, tuple(0.1 * k + 0.2j
                                              for k in range(6)))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("SOSDW_MAX_L_FACE", "2")
        assert face_cap() == 2
        params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                             mu=(0.1, 0.2, 0.3), L=3)
        with pytest.raises(TooLarge):
            enumerate_partition(params, (0.1, 0.2, 0.3))

    def test_cap_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("SOSDW_MAX_L_FACE", "many")
        with pytest.raises(ValidationError):
            face_cap()


class TestHexagonIdentity:
    P = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j, mu=(0.0,), L=1)

    def test_known_boundaries(self):
        u, v = 0.23 - 0.11j, -0.37 + 0.19j
        for ks in ([0, 1, 2, 1, 0, -1], [1, 0, 1, 2, 1, 0]):
            assert hexagon_residual(u, v, ks, self.P) < 1e-12

    def test_random_boundaries(self, rng):
        for _ in range(60):
            while True:
                ks = [rng.randint(-2, 2)]
                for _ in range(5):
                    ks.append(ks[-1] + rng.choice((-1, 1)))
                if abs(ks[-1] - ks[0]) == 1:
                    break
            u = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
            v = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
            assert hexagon_residual(u, v, ks, self.P) < 1e-12

    def test_degenerate_spectral_point(self):
        # at u = 0 one side collapses onto identity-like exchange cells
        assert hexagon_residual(
            0.0, -0.37 + 0.19j, [0, 1, 2, 1, 0, -1], self.P) < 1e-12

    def test_bad_boundary_rejected(self):
        with pytest.raises(InvalidBoundary):
            hexagon_residual(0.1, 0.2, [0, 2, 1, 0, 1, 0], self.P)

    def test_non_cyclic_boundary_rejected(self):
        with pytest.raises(InvalidBoundary):
            hexagon_residual(0.1, 0.2, [0, 1, 2, 3, 2, 2], self.P)
