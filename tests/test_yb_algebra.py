"""Row-operator algebra: exchange relations and the operator-level recursion."""

import random

import numpy as np
import pytest

from sosdw.core import (
    CoincidentSpectral,
    ModelParams,
    TooLarge,
    close_pair,
    s,
)
from sosdw.closed_form import partition_L1, partition_permutation_sum
from sosdw.rmatrix import weights
from sosdw.sampling import draw_model, draw_spectral, first_admissible
from sosdw.yb_algebra import (
    apply_monodromy_entry,
    cartan_h,
    cartan_string_residual,
    cbb_residual,
    commutation_residuals,
    creation_string,
    lowest_weight_residual,
    monodromy_entry,
    nilpotency_norm,
    partition_algebraic,
    vacuum_states,
)

P2 = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                 mu=(0.13 - 0.21j, -0.22 + 0.15j), L=2)


def separated(rng, n, floor=1e-2):
    return first_admissible(lambda: draw_spectral(rng, n),
                            lambda lams: close_pair(lams, floor) is None,
                            "separated spectral draw")


class TestStateSpace:
    def test_vacuum_states(self):
        up, down = vacuum_states(3)
        assert up[0] == 1 and np.count_nonzero(up) == 1
        assert down[-1] == 1 and np.count_nonzero(down) == 1

    def test_cartan_diagonal(self):
        h = cartan_h(2)
        assert h.tolist() == [2.0, 0.0, 0.0, -2.0]


class TestMonodromy:
    def test_single_site_entries_match_weight_sextet(self):
        p1 = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                         mu=(0.13 - 0.21j,), L=1)
        lam, th = 0.41 + 0.05j, 0.7 - 0.2j
        w = weights(lam - p1.mu[0], th, p1)
        for which, expect in (("A", [[w[0, 0], 0], [0, w[1, 1]]]),
                              ("B", [[0, 0], [w[1, 2], 0]]),
                              ("C", [[0, w[2, 1]], [0, 0]]),
                              ("D", [[w[2, 2], 0], [0, w[3, 3]]])):
            got = monodromy_entry(which, lam, th, p1)
            assert np.allclose(got, np.array(expect), atol=1e-15), which

    def test_invalid_entry_name(self):
        with pytest.raises(Exception):
            monodromy_entry("E", 0.1, 0.2, P2)

    def test_creation_conserves_spin_sector(self):
        v = creation_string(P2, (0.41 + 0.05j, 0.18 - 0.27j),
                            P2.theta, (1, 2))
        h = cartan_h(2)
        support = h[np.abs(v) > 0]
        assert set(support.tolist()) == {-2.0}


class TestAlgebraicPartition:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_matches_permutation_sum(self, rng, L):
        for _ in range(3):
            params, lams = draw_model(rng, L,
                                      routes=("algebra", "permutation"))
            za = partition_algebraic(params, lams)
            zp = partition_permutation_sum(params, lams)
            assert abs(za - zp) <= 1e-12 * max(abs(za), abs(zp))

    def test_single_row_closed_form(self, rng):
        for _ in range(20):
            params, lams = draw_model(rng, 1, routes=("algebra",
                                                      "permutation"))
            za = partition_algebraic(params, lams)
            zc = partition_L1(params, lams[0])
            assert abs(za - zc) <= 1e-13 * abs(zc)

    def test_size_cap(self):
        params = ModelParams(gamma=0.3, theta=0.5,
                             mu=tuple(0.05 * k for k in range(11)), L=11)
        with pytest.raises(TooLarge):
            partition_algebraic(params, tuple(0.03 * k + 0.1j
                                              for k in range(11)))


# float.hex of (re, im) of partition_algebraic on the draw
# draw_model(random.Random(L), L, routes=("algebra",)), recorded while the
# state vector was still a numpy array.
ALGEBRA_HEX = {
    1: ("-0x1.f7080979cd567p+0", "-0x1.5aa929dcd5f63p+0"),
    2: ("-0x1.10d8db7a084dcp+1", "0x1.fc20e3b2adfb2p+1"),
    3: ("-0x1.7aa7916857e62p+2", "-0x1.33973c137addap+4"),
    4: ("0x1.731c5eec61e67p+1", "0x1.d73d7a0775acbp+1"),
    5: ("0x1.25a1de4bfab7cp-1", "0x1.8a69b2e9ed0e1p-2"),
    6: ("-0x1.1f87f7c3ff82ap+7", "-0x1.4b96036af59c2p+7"),
}


class TestListPropagation:
    @pytest.mark.parametrize("L", sorted(ALGEBRA_HEX))
    def test_partition_bits_unchanged(self, L):
        params, lams = draw_model(random.Random(L), L, routes=("algebra",))
        z = partition_algebraic(params, lams)
        assert (z.real.hex(), z.imag.hex()) == ALGEBRA_HEX[L]

    def test_list_and_array_inputs_agree(self, rng):
        params, lams = draw_model(rng, 3, routes=("algebra",))
        vec = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(8)]
        vec[5] = 0j
        for which in "ABCD":
            args = (which, lams[0], params.theta, params)
            from_list = apply_monodromy_entry(*args, vec)
            from_array = apply_monodromy_entry(*args, np.array(vec))
            assert type(from_list) is list and from_list == from_array


class TestExchangeRelations:
    @pytest.mark.parametrize("L", [2, 3])
    def test_all_relations(self, rng, L):
        g, th = 0.31 + 0.12j, 0.57 - 0.08j
        assert all(abs(s(th + k * g)) >= 1e-3
                   for k in range(-L - 2, 2 * L + 4))
        for _ in range(4):
            mu = separated(rng, L)
            params = ModelParams(gamma=g, theta=0.0, mu=mu, L=L)
            l1, l2 = separated(rng, 2)
            res = commutation_residuals(l1, l2, th, params)
            assert set(res) == {"bb", "ab", "db", "cb",
                                "ak", "bk", "ck", "dk"}
            for key, val in res.items():
                assert val < 1e-11, (key, val)

    def test_coincident_arguments_rejected(self):
        with pytest.raises(CoincidentSpectral):
            commutation_residuals(0.4, 0.4, 0.57 - 0.08j, P2)


class TestOperatorRecursion:
    @pytest.mark.parametrize("n,L", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_annihilator_through_creators(self, rng, n, L):
        g, th = 0.31 + 0.12j, 0.57 - 0.08j
        assert all(abs(s(th + k * g)) >= 1e-3
                   for k in range(-L - 1, 2 * L + 3))
        for _ in range(3):
            mu = separated(rng, L)
            params = ModelParams(gamma=g, theta=0.0, mu=mu, L=L)
            lams = separated(rng, n + 1)
            assert cbb_residual(n, lams, th, params) < 1e-10

    def test_coincident_arguments_rejected(self):
        with pytest.raises(CoincidentSpectral):
            cbb_residual(2, (0.1, 0.4, 0.4), 0.57 - 0.08j, P2)


class TestHighestString:
    def test_nilpotency_is_structural_zero(self, rng):
        for L in (1, 2, 3):
            params, _ = draw_model(rng, L, routes=("algebra",))
            lams = draw_spectral(rng, L + 1)
            assert nilpotency_norm(params, lams) == 0.0

    def test_cartan_eigenvalue_of_string(self, rng):
        for L, n in ((2, 1), (3, 2)):
            params, _ = draw_model(rng, L, routes=("algebra",))
            lams = draw_spectral(rng, n)
            assert cartan_string_residual(params, lams, n) < 1e-11

    def test_full_string_is_lowest_weight(self, rng):
        for L in (1, 2, 3):
            params, lams = draw_model(rng, L, routes=("algebra",))
            assert lowest_weight_residual(params, lams) < 1e-11
