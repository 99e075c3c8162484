"""Row-operator algebra: exchange relations and the operator-level recursion."""

import cmath
import random

import numpy as np
import pytest

from sosdw import rmatrix, yb_algebra
from sosdw.core import (
    CoincidentSpectral,
    ModelParams,
    close_pair,
    s,
)
from sosdw.closed_form import exchange_terms, partition_permutation_sum
from sosdw.rmatrix import weights
from sosdw.sampling import draw_model, draw_spectral, first_admissible
from sosdw.yb_algebra import (
    apply_monodromy_entry,
    cartan_h,
    cbb_residual,
    commutation_residuals,
    creation_string,
    monodromy_entry,
    nilpotency_norm,
    partition_algebraic,
    vacuum_states,
)

P2 = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                 mu=(0.13 - 0.21j, -0.22 + 0.15j), L=2)


def fresh_apply(which, lam, theta, params, vec):
    """Oracle: one monodromy entry applied with a fresh weight table built
    for every amplitude at every site."""
    L, g, mu = params.L, params.gamma, params.mu
    aux_out, aux_in = {"A": (0, 0), "B": (0, 1), "C": (1, 0),
                       "D": (1, 1)}[which]
    amps = {(aux_in, b): complex(v) for b, v in enumerate(vec) if v != 0}
    for i in range(L, 0, -1):
        shift = L - i
        new = {}
        for (a, b), amp in amps.items():
            hsum = shift - 2 * (b & ((1 << shift) - 1)).bit_count()
            w = weights(lam - mu[i - 1], theta - g * hsum, params)
            col = 2 * a + ((b >> shift) & 1)
            for (row, c), val in w.items():
                if c != col:
                    continue
                key = (row >> 1, (b & ~(1 << shift)) | ((row & 1) << shift))
                prev = new.get(key)
                new[key] = amp * val if prev is None else prev + amp * val
        amps = new
    out = [0j] * (1 << L)
    for (a, b), amp in amps.items():
        if a == aux_out:
            out[b] += amp
    return out


def fresh_partition(params, lams):
    """Oracle: the all-down amplitude of the creation string, applied with
    ``fresh_apply``."""
    v, _ = vacuum_states(params.L)
    for j in reversed(range(params.L)):
        v = fresh_apply("B", lams[j], params.theta + (j + 1) * params.gamma,
                        params, v)
    return v[-1]


def dense(cols):
    """A dense matrix given as a list of its columns, as a numpy array."""
    return np.array(cols).T


def cartan_string_residual(params, lambdas, n):
    """Oracle: how far an n-fold creation string is from total spin L - 2n."""
    L = params.L
    v = np.asarray(creation_string(params, list(lambdas), params.theta,
                                   list(range(n))))
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(np.array(cartan_h(L)) * v
                                - (L - 2 * n) * v)) / norm


def lowest_weight_residual(params, lambdas):
    """Oracle: how far an L-fold creation string is from the all-down
    direction."""
    v = np.asarray(creation_string(params, list(lambdas), params.theta,
                                   list(range(params.L))))
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 0.0
    rest = v.copy()
    rest[-1] = 0.0
    return float(np.linalg.norm(rest)) / norm


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
        h = np.array(cartan_h(2))
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
            got = dense(monodromy_entry(which, lam, th, p1))
            assert np.allclose(got, np.array(expect), atol=1e-15), which

    def test_invalid_entry_name(self):
        with pytest.raises(Exception):
            monodromy_entry("E", 0.1, 0.2, P2)

    @pytest.mark.parametrize("L", [2, 3])
    def test_dense_entries_move_spin_sectors(self, rng, L):
        # the ice-rule layout of every entry: A and D keep the total spin,
        # B lowers it by 2 and C raises it by 2, which is what the exchange
        # relations with the Cartan factor q^H amount to
        params, lams = draw_model(rng, L, routes=("algebra",))
        h = cartan_h(L)
        for which, step in (("A", 0), ("B", -2), ("C", 2), ("D", 0)):
            m = monodromy_entry(which, lams[0], params.theta, params)
            moves = {h[i] - h[j] for j, col in enumerate(m)
                     for i, z in enumerate(col) if z}
            assert moves == {step}, which

    def test_creation_conserves_spin_sector(self):
        v = creation_string(P2, (0.41 + 0.05j, 0.18 - 0.27j),
                            P2.theta, (1, 2))
        h = np.array(cartan_h(2))
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

    def test_single_row_closed_form(self, rng, partition_L1):
        for _ in range(20):
            params, lams = draw_model(rng, 1, routes=("algebra",
                                                      "permutation"))
            za = partition_algebraic(params, lams)
            zc = partition_L1(params, lams[0])
            assert abs(za - zc) <= 1e-13 * abs(zc)


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


class TestSiteTables:
    """Each site builds one weight table per spin sum to its right and reads
    the same numbers, in the same order, as a fresh table per amplitude."""

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_partition_bit_identical_to_fresh_tables(self, rng, L):
        for _ in range(3):
            params, lams = draw_model(rng, L, routes=("algebra",))
            assert partition_algebraic(params, lams) \
                == fresh_partition(params, lams)

    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_every_entry_bit_identical_to_fresh_tables(self, rng, L):
        params, lams = draw_model(rng, L, routes=("algebra",))
        vec = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(1 << L)]
        for which in "ABCD":
            args = (which, lams[0], params.theta + params.gamma, params, vec)
            assert apply_monodromy_entry(*args) == fresh_apply(*args)

    @pytest.mark.parametrize("L", [1, 2, 4, 6])
    def test_at_most_one_table_per_site_and_shift(self, rng, monkeypatch, L):
        params, lams = draw_model(rng, L, routes=("algebra",))
        built = []

        def counted(*args):
            built.append(args)
            return weights(*args)

        monkeypatch.setattr(rmatrix, "weights", counted)
        full = [1 + 0j] * (1 << L)
        for which in "ABCD":
            built.clear()
            apply_monodromy_entry(which, lams[0], params.theta, params, full)
            assert len(built) <= L * (L + 1)
            assert len(set(built)) == len(built)


    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_nilpotency_builds_each_table_once(self, rng, monkeypatch, L):
        # each creation factor's site tables serve both its step of the
        # string and its dense matrix
        params, _ = draw_model(rng, L, routes=("algebra",))
        lams = draw_spectral(rng, L + 1)
        built = []

        def counted(*args):
            built.append(args)
            return weights(*args)

        monkeypatch.setattr(rmatrix, "weights", counted)
        nilpotency_norm(params, lams)
        assert built
        assert len(set(built)) == len(built)
        assert len(built) <= (L + 1) * L * (L + 1)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_dense_entry_builds_site_tables_once(self, rng, monkeypatch, L):
        # one table set for all 2^L basis columns, and every column the
        # same as a fresh table per amplitude
        params, lams = draw_model(rng, L, routes=("algebra",))
        built = []

        def counted(*args):
            built.append(args)
            return weights(*args)

        monkeypatch.setattr(rmatrix, "weights", counted)
        dim = 1 << L
        for which in "ABCD":
            built.clear()
            m = dense(monodromy_entry(which, lams[0], params.theta, params))
            assert len(built) <= L * (L + 1)
            assert len(set(built)) == len(built)
            for b in range(dim):
                e = [0j] * dim
                e[b] = 1 + 0j
                assert list(m[:, b]) == fresh_apply(which, lams[0],
                                                    params.theta, params, e)


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
            assert set(res) == {"bb", "ab", "db", "cb"}
            for key, val in res.items():
                assert val < 1e-11, (key, val)

    def test_coincident_arguments_rejected(self):
        with pytest.raises(CoincidentSpectral):
            commutation_residuals(0.4, 0.4, 0.57 - 0.08j, P2)

    def test_each_distinct_entry_is_built_once(self, monkeypatch):
        # 24 matrix uses of 15 distinct (entry, lambda, theta), from 10 basis
        # pushes, one per (auxiliary input, lambda, theta), and one set of
        # site tables for each of the 8 distinct (lambda, theta); the caches
        # leave every residual bit-identical
        calls = []
        build = yb_algebra._dense

        def counted(aux_in, sites):
            calls.append((aux_in, id(sites)))
            return build(aux_in, sites)

        monkeypatch.setattr(yb_algebra, "_dense", counted)
        args = (0.21 - 0.13j, -0.34 + 0.08j, 0.57 - 0.08j, P2)
        cached = commutation_residuals(*args)
        assert len(calls) == len(set(calls)) == 10
        assert len({sites for _, sites in calls}) == 8
        calls.clear()
        monkeypatch.setattr(yb_algebra.functools, "cache", lambda f: f)
        assert commutation_residuals(*args) == cached
        assert len(calls) == 24


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


def numpy_commutation(l1, l2, theta, params):
    """Oracle: the exchange-relation residuals on numpy arrays."""
    g = params.gamma
    q = cmath.exp(g)
    t = cmath.exp(theta)
    kvec = q ** np.array(cartan_h(params.L))

    def mat(which, lam, th):
        return dense(monodromy_entry(which, lam, th, params))

    def rel(lhs, rhs):
        scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()))
        return 0.0 if scale == 0.0 else float(np.abs(lhs - rhs).max()) / scale

    def kcomb(c_inv, c_dir):
        return c_inv / kvec + c_dir * kvec

    g_main = kcomb(t * q ** 2, -(q ** -2) / t)
    g_one = kcomb(t * q, -1 / (t * q))
    xb1, xb2 = cmath.exp(l1), cmath.exp(l2)
    g_cross = kcomb(t * q * xb1 / xb2, -xb2 / (xb1 * t * q))
    out = {}
    out["bb"] = rel(mat("B", l1, theta) @ mat("B", l2, theta + g),
                    mat("B", l2, theta) @ mat("B", l1, theta + g))
    out["ab"] = rel(
        mat("A", l1, theta + g) @ mat("B", l2, theta),
        (s(l2 - l1 + g) / s(l2 - l1)) * (s(theta + g) / s(theta + 2 * g))
        * (mat("B", l2, theta + g) @ mat("A", l1, theta + 2 * g))
        - (s(theta + g - l2 + l1) / s(l2 - l1)) * (s(g) / s(theta + 2 * g))
        * (mat("B", l1, theta + g) @ mat("A", l2, theta + 2 * g)))
    out["db"] = rel(
        mat("D", l1, theta - g) @ mat("B", l2, theta),
        (s(l1 - l2 + g) / s(l1 - l2))
        * (mat("B", l2, theta - g) @ mat("D", l1, theta))
        * (g_one / g_main)[None, :]
        - (s(g) / s(l1 - l2))
        * (mat("B", l1, theta - g) @ mat("D", l2, theta))
        * (g_cross / g_main)[None, :])
    out["cb"] = rel(
        mat("C", l1, theta + g) @ mat("B", l2, theta),
        (s(theta) / s(theta + g))
        * (mat("B", l2, theta + g) @ mat("C", l1, theta + 2 * g))
        * (g_one / g_main)[None, :]
        + (s(g) / s(theta + g)) * (s(theta + g + l1 - l2) / s(l1 - l2))
        * (mat("A", l2, theta + g) @ mat("D", l1, theta))
        * (g_one / g_main)[None, :]
        - (s(g) / s(l1 - l2))
        * (mat("A", l1, theta + g) @ mat("D", l2, theta))
        * (g_cross / g_main)[None, :])
    return out


def numpy_cbb(n, lambdas, theta, params):
    """Oracle: the annihilator-through-creators residual on numpy arrays."""
    lam = [complex(z) for z in lambdas]
    lhs = creation_string(params, lam[1:], theta, list(range(n)))
    lhs = np.asarray(apply_monodromy_entry("C", lam[0], theta + params.gamma,
                                           params, lhs))
    terms = [c * np.asarray(creation_string(params, args, theta,
                                            list(range(1, n))))
             for c, args in exchange_terms(lam, theta, params, n)]
    rhs = np.sum(np.stack(terms), axis=0)
    scale = max([float(np.linalg.norm(lhs))]
                + [float(np.linalg.norm(v)) for v in terms])
    return float(np.linalg.norm(lhs - rhs)) / scale


def numpy_nilpotency(params, lambdas):
    """Oracle: the over-long creation string's norm ratio on numpy arrays."""
    L = params.L
    v = np.asarray(creation_string(params, list(lambdas), params.theta,
                                   list(range(L + 1))))
    scale = 1.0
    for j in range(L + 1):
        m = dense(monodromy_entry("B", lambdas[j],
                                  params.theta + j * params.gamma, params))
        scale *= float(np.abs(m).max())
    return float(np.linalg.norm(v)) / scale


class TestNumpyOracles:
    """The pure-Python dense checks against numpy transcriptions.

    The comparisons run where the identities fail, so that each residual is
    far above rounding and its numerator and scale both show.
    """

    G, TH = 0.31 + 0.12j, 0.57 - 0.08j

    @staticmethod
    def check(got, want):
        assert want > 1e-6
        assert abs(got - want) <= min(1e-14, 1e-12 * want)

    @pytest.mark.parametrize("L", [2, 3])
    def test_commutation_residuals(self, rng, broken_weights, L):
        for _ in range(6):
            params = ModelParams(gamma=self.G, theta=0.0,
                                 mu=separated(rng, L), L=L)
            l1, l2 = separated(rng, 2)
            got = commutation_residuals(l1, l2, self.TH, params)
            want = numpy_commutation(l1, l2, self.TH, params)
            assert set(got) == set(want)
            for key in got:
                self.check(got[key], want[key])

    @pytest.mark.parametrize("n,L", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_cbb_residual(self, rng, broken_weights, n, L):
        for _ in range(4):
            params = ModelParams(gamma=self.G, theta=0.0,
                                 mu=separated(rng, L), L=L)
            lams = separated(rng, n + 1)
            self.check(cbb_residual(n, lams, self.TH, params),
                       numpy_cbb(n, lams, self.TH, params))

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_nilpotency_norm(self, rng, broken_weights, L):
        for _ in range(4):
            params, _ = draw_model(rng, L, routes=("algebra",))
            lams = draw_spectral(rng, L + 1)
            self.check(nilpotency_norm(params, lams),
                       numpy_nilpotency(params, lams))
