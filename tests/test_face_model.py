"""Height enumeration oracle, weight dictionary, and star-triangle identity."""

import itertools

import pytest

from sosdw import face_model, rmatrix
from sosdw.core import (
    ROUTE_TABLE,
    ModelParams,
    pairwise_sum,
)
from sosdw.closed_form import partition_permutation_sum
from sosdw.face_model import (
    InvalidBoundary,
    InvalidQuartet,
    enumerate_height_grids,
    enumerate_partition,
    face_weight,
    hexagon_residual,
)
from sosdw.rmatrix import WeightTables, weights
from sosdw.sampling import draw_model

REFERENCE_VALUE = 0.018805557352697261 + 0j
# frozen from the agreement of all four exact routes at the fixture point
# (relative spread 1.3e-15 at freeze time); tolerance per the build contract

P = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j, mu=(0.0,), L=1)
LAM = 0.23 - 0.11j

# Quartet (k_bl, k_br, k_tl, k_tr) -> the (row, col) weight-table entry it
# selects, in the (++, +-, -+, --) basis: a+, a-, b+, b-, c+, c-.
SIX = {
    (0, 1, -1, 0): (0, 0),
    (0, -1, 1, 0): (3, 3),
    (1, 0, 0, -1): (1, 1),
    (-1, 0, 0, 1): (2, 2),
    (1, 0, 0, 1): (1, 2),
    (-1, 0, 0, -1): (2, 1),
}
# The same map keyed by (k_br - k_bl, k_tl - k_bl, k_tr - k_bl).
ENTRY = {(br - bl, tl - bl, tr - bl): e for (bl, br, tl, tr), e in SIX.items()}


def lam_tables():
    """Empty weight tables at LAM and the base height of P."""
    return WeightTables(LAM, P.theta, P)


def fresh_face_weight(k_bl, k_br, k_tl, k_tr, lam, params):
    """Oracle: one vertex weight read off a table built for this read alone."""
    entry = ENTRY[(k_br - k_bl, k_tl - k_bl, k_tr - k_bl)]
    th_loc = params.theta + (k_tl + 1) * params.gamma
    return weights(lam, th_loc, params)[entry]


def fresh_height_grids(L):
    """Oracle: every grid, built row by row without the module's walk or its
    cache, in the order of a depth-first walk over the interior faces in
    row-major order that tries the lower offset first."""
    def rows(lower, r):
        # rows from L - r to r, each offset one step from its left and
        # lower neighbours, in lexicographic order
        partial = [(L - r,)]
        for c in range(1, L + 1):
            partial = [p + (k,) for p in partial
                       for k in (p[-1] - 1, p[-1] + 1)
                       if abs(k - lower[c]) == 1]
        return [p for p in partial if p[-1] == r]

    grids = [(tuple(range(L, -1, -1)),)]
    for r in range(1, L + 1):
        grids = [g + (row,) for g in grids for row in rows(g[-1], r)]
    return [g for g in grids if g[-1] == tuple(range(L + 1))]


def fresh_enumerate_partition(params, lams):
    """Oracle: the face sum over freshly walked grids with a fresh weight
    table at every vertex read, products in row-major order and one
    pairwise sum over configurations."""
    L = params.L
    terms = []
    for grid in fresh_height_grids(L):
        w = 1.0 + 0j
        for r, (lower, upper) in enumerate(zip(grid, grid[1:])):
            for c in range(L):
                w *= fresh_face_weight(lower[c], lower[c + 1], upper[c],
                                       upper[c + 1], lams[r] - params.mu[c],
                                       params)
        terms.append(w)
    return pairwise_sum(terms)


def fresh_hexagon_residual(u, v, ks, params):
    """Oracle: the star-triangle residual with a fresh table per read."""
    k1, k2, k3, k4, k5, k6 = ks
    fw = fresh_face_weight

    def candidates(*neighbours):
        return sorted(set.intersection(*({nb - 1, nb + 1}
                                          for nb in neighbours)))

    lhs = [fw(k3, k4, k2, k0, v, params) * fw(k2, k0, k1, k6, u + v, params)
           * fw(k0, k4, k6, k5, u, params) for k0 in candidates(k2, k4, k6)]
    rhs = [fw(k2, k3, k1, k0, u, params) * fw(k3, k4, k0, k5, u + v, params)
           * fw(k0, k5, k1, k6, v, params) for k0 in candidates(k1, k3, k5)]
    scale = max(abs(t) for t in lhs + rhs)
    if scale == 0.0:
        return 0.0
    return abs(pairwise_sum(lhs) - pairwise_sum(rhs)) / scale


def count_configurations(L):
    """Oracle: number of admissible domain-wall configurations."""
    return sum(1 for _ in enumerate_height_grids(L))


def random_hexagon_boundary(rng):
    """Six offsets in a closed cycle of unit steps."""
    while True:
        ks = [rng.randint(-2, 2)]
        for _ in range(5):
            ks.append(ks[-1] + rng.choice((-1, 1)))
        if abs(ks[-1] - ks[0]) == 1:
            return ks


def counting(monkeypatch, module, name):
    """Count the calls made to one global of a sosdw module."""
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def unit_steps(grid):
    """Whether every pair of horizontal or vertical neighbours differs by 1."""
    rows_ok = all(abs(a - b) == 1 for row in grid for a, b in zip(row, row[1:]))
    cols_ok = all(abs(a - b) == 1 for lower, upper in zip(grid, grid[1:])
                  for a, b in zip(lower, upper))
    return rows_ok and cols_ok


class TestQuartetDictionary:
    def test_six_patterns(self):
        for (bl, br, tl, tr), entry in SIX.items():
            th_loc = P.theta + (tl + 1) * P.gamma
            got = face_weight(bl, br, tl, tr, lam_tables())
            assert got == weights(LAM, th_loc, P)[entry], (bl, br, tl, tr)

    def test_translation_invariance(self):
        # shifting all four offsets keeps the pattern and moves the anchor
        for (bl, br, tl, tr), entry in SIX.items():
            th_loc = P.theta + (tl + 6) * P.gamma
            got = face_weight(bl + 5, br + 5, tl + 5, tr + 5,
                              lam_tables())
            assert got == weights(LAM, th_loc, P)[entry], (bl, br, tl, tr)

    def test_step_of_two_rejected(self):
        with pytest.raises(InvalidQuartet):
            face_weight(0, 2, 1, 1, lam_tables())

    def test_constant_quartet_rejected(self):
        with pytest.raises(InvalidQuartet):
            face_weight(0, 0, 0, 0, lam_tables())

    def test_every_non_unit_step_rejected(self):
        # the pattern lookup alone enforces the unit-step rule on all four
        # edges: every other quartet raises
        for br, tl, tr in itertools.product(range(-3, 4), repeat=3):
            if unit_steps(((0, br), (tl, tr))):
                face_weight(0, br, tl, tr, lam_tables())
            else:
                with pytest.raises(InvalidQuartet):
                    face_weight(0, br, tl, tr, lam_tables())


class TestFaceWeightValues:
    """Pinned dictionary rows: quartets whose top-left offset is -1 evaluate
    the corresponding weight at the bare reference height."""

    def test_straight_cell(self):
        w = weights(LAM, P.theta, P)
        assert face_weight(0, 1, -1, 0, lam_tables()) == w[(0, 0)]

    def test_exchange_cell(self):
        w = weights(LAM, P.theta, P)
        assert face_weight(0, -1, -1, 0, lam_tables()) == w[(1, 2)]

    def test_anchor_is_one_step_above_top_left(self):
        for tl in range(-3, 4):
            # the c- quartet, whose weight depends on the anchor
            th_loc = P.theta + (tl + 1) * P.gamma
            got = face_weight(tl - 1, tl, tl, tl - 1, lam_tables())
            assert got == weights(LAM, th_loc, P)[(2, 1)], tl


class TestWeightTables:
    """Each evaluation builds a vertex's table once per top-left offset and
    reads the same numbers, in the same order, as a fresh table per read."""

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_partition_bit_identical_to_fresh_tables(self, rng, L):
        # the grids of this L are already walked, for another parameter set
        enumerate_partition(*draw_model(rng, L, routes=("face",)))
        for _ in range(3):
            params, lams = draw_model(rng, L, routes=("face",))
            assert enumerate_partition(params, lams) \
                == fresh_enumerate_partition(params, lams)

    def test_hexagon_bit_identical_to_fresh_tables(self, rng):
        for _ in range(40):
            ks = random_hexagon_boundary(rng)
            u = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
            v = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
            assert hexagon_residual(u, v, ks, P) \
                == fresh_hexagon_residual(u, v, ks, P)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_one_table_per_vertex_and_offset(self, rng, monkeypatch, L):
        params, lams = draw_model(rng, L, routes=("face",))
        built = counting(monkeypatch, rmatrix, "weights")
        read = counting(monkeypatch, face_model, "face_weight")
        enumerate_partition(params, lams)
        assert len(built) <= L * L * (L + 1)
        assert len(set(built)) == len(built)
        # every vertex of every configuration is still read one by one
        assert len(read) == count_configurations(L) * L * L

    def test_hexagon_builds_each_table_once(self, rng, monkeypatch):
        built = counting(monkeypatch, rmatrix, "weights")
        read = counting(monkeypatch, face_model, "face_weight")
        for _ in range(20):
            hexagon_residual(0.23 - 0.11j, -0.37 + 0.19j,
                             random_hexagon_boundary(rng), P)
            assert len(set(built)) == len(built) <= len(read)
            built.clear()
            read.clear()

    def test_tables_fill_only_on_read(self):
        tables = lam_tables()
        with pytest.raises(InvalidQuartet):
            face_weight(0, 2, 1, 1, tables)
        assert tables == {}
        face_weight(2, 3, 3, 2, tables)
        assert list(tables) == [4]
        assert tables[4] == weights(LAM, P.theta + 4 * P.gamma, P)


class TestBoundary:
    def test_smallest_grid(self):
        assert list(enumerate_height_grids(1)) == [((1, 0), (0, 1))]

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_corners(self, L):
        for k in enumerate_height_grids(L):
            assert k[0][0] == L and k[0][L] == 0
            assert k[L][0] == 0 and k[L][L] == L

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_every_grid_has_the_domain_wall_boundary(self, L):
        for k in enumerate_height_grids(L):
            assert k[0] == tuple(range(L, -1, -1))
            assert k[L] == tuple(range(L + 1))
            assert [row[0] for row in k] == list(range(L, -1, -1))
            assert [row[L] for row in k] == list(range(L + 1))


class TestEnumeration:
    @pytest.mark.parametrize("L,count", [(1, 1), (2, 2), (3, 7), (4, 42),
                                         (5, 429), (6, 7436)])
    def test_configuration_counts(self, L, count):
        assert count_configurations(L) == count
        assert ROUTE_TABLE["face"].workload(L, None) == count
        # a second call reads the same grids as the first and as a walk
        # that shares nothing with the module's
        first = enumerate_height_grids(L)
        grids = [next(first), *first]
        assert list(enumerate_height_grids(L)) == grids \
            == fresh_height_grids(L)
        # immutable all the way down, since every caller shares them
        assert all(type(grid) is tuple and type(row) is tuple
                   and type(k) is int
                   for grid in grids for row in grid for k in row)
        # equal rows of different grids are one object
        rows = [row for grid in grids for row in grid]
        assert len({id(row) for row in rows}) == len(set(rows))

    def test_grids_are_complete_and_valid(self):
        grids = list(enumerate_height_grids(3))
        assert len(set(grids)) == len(grids) == 7
        for grid in grids:
            assert len(grid) == 4 and all(len(row) == 4 for row in grid)
            assert all(type(k) is int for row in grid for k in row)
            assert unit_steps(grid)

    def test_single_row_equals_closed_form(self, rng, partition_L1):
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


class TestHexagonIdentity:
    P = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j, mu=(0.0,), L=1)

    def test_known_boundaries(self):
        u, v = 0.23 - 0.11j, -0.37 + 0.19j
        for ks in ([0, 1, 2, 1, 0, -1], [1, 0, 1, 2, 1, 0]):
            assert hexagon_residual(u, v, ks, self.P) < 1e-12

    def test_random_boundaries(self, rng):
        for _ in range(60):
            ks = random_hexagon_boundary(rng)
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
