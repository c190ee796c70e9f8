"""The shared integer eliminator (groups.snf.eliminate_unit_pivots) against
dense oracles: Bareiss on the full matrix and sympy (tests only).

Both determinant routes, the Alexander interpolation and the cover's first
homology run through the same unit-pivot elimination, so each is checked
here against a computation that does not use it.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import join_components, lagrange_fraction
from spunslice.covers import (
    _bareiss,
    _fox_int_matrix,
    _int_det,
    _newton_int,
    alexander_det,
    alexander_polynomial,
    goeritz,
)
from spunslice.diagrams import (
    PlatError,
    PlatWord,
    TwistVector,
    build_symmetric_union,
    closure_components,
    plat_to_pd,
    wirtinger_relations,
)
from spunslice.groups import (
    abelian_invariants,
    abelianization,
    branched_cover_presentation,
    elementary_divisors,
    wirtinger,
)
from spunslice.groups.snf import eliminate_unit_pivots

try:
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


@st.composite
def knot_plats(draw):
    strands = draw(st.sampled_from([4, 6, 8]))
    word = draw(
        st.lists(
            st.tuples(st.integers(1, strands - 1), st.sampled_from([1, -1])),
            min_size=1,
            max_size=24,
        )
    )
    # links are closed into knots, not filtered out
    return PlatWord(strands, join_components(strands, word, draw(st.sampled_from([1, -1]))))


def _goeritz_minor(pd):
    return [list(row[:-1]) for row in goeritz(pd).matrix[:-1]]


def _fox_minor(pd, t):
    ngen, _arc, relations = wirtinger_relations(pd)
    return [[row.get(j, 0) for j in range(ngen - 1)] for row in _fox_int_matrix(relations, t)[:-1]]


def _sparse(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


@settings(max_examples=30, deadline=None)
@given(knot_plats())
def test_newton_interpolation_matches_the_fraction_oracle(plat):
    pd = plat_to_pd(plat)
    points = list(range(2, pd.n_crossings + 2))
    values = [_int_det(_sparse(_fox_minor(pd, t)), pd.n_crossings - 1) for t in points]
    assert _newton_int(points, values) == lagrange_fraction(points, values)


def test_newton_interpolation_rejects_non_integral_data():
    assert _newton_int([0, 1, 2], [0, 1, 0]) == [0, 2, -1]
    with pytest.raises(PlatError):
        _newton_int([0, 2], [0, 1])  # x / 2


def _assert_dets_agree(matrix):
    det = _int_det(_sparse(matrix), len(matrix))
    assert det == _bareiss(matrix)
    assert det == (sympy.Matrix(matrix).det() if matrix else 1)


@needs_sympy
@settings(max_examples=40, deadline=None)
@given(knot_plats())
def test_signed_determinants_match_dense_bareiss_and_sympy(plat):
    pd = plat_to_pd(plat)
    _assert_dets_agree(_goeritz_minor(pd))
    for t in (-1, 3):
        _assert_dets_agree(_fox_minor(pd, t))


@st.composite
def unit_rich_matrices(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from([0, 0, 1, -1, 1, -1]), st.integers(-12, 12))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(unit_rich_matrices())
def test_abelian_invariants_match_sympy_smith_form(matrix):
    D = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
    want = sorted(abs(D[i, i]) for i in range(min(D.shape)) if D[i, i])
    inv = abelian_invariants(matrix, len(matrix[0]))
    assert list(inv.divisors) == want
    assert inv.free_rank == len(matrix[0]) - len(want)
    assert elementary_divisors(matrix) == (tuple(want), len(want))


@pytest.mark.parametrize("ragged", [[[1, 2], [3]], [[1], [2, 3]]])
def test_dense_entry_points_reject_ragged_input(ragged):
    with pytest.raises(ValueError, match="ragged matrix"):
        abelian_invariants(ragged, 2)
    with pytest.raises(ValueError, match="ragged matrix"):
        elementary_divisors(ragged)


def test_unit_pivots_leave_an_equivalent_core():
    # [[1, 2], [3, 4]]: one unit pivot, core [4 - 3*2] = [-2]
    red = eliminate_unit_pivots(_sparse([[1, 2], [3, 4]]), 2)
    assert red.pivots == ((0, 0, 1),)
    assert (red.core_rows, red.core_cols, red.core) == ([1], [1], [[-2]])
    assert _int_det(_sparse([[1, 2], [3, 4]]), 2) == -2
    assert _int_det(_sparse([[0, 1], [1, 0]]), 2) == -1


# The 8-strand, 60-letter plat `8x60-2` of the benchmark's ladder (drawn with
# random.Random(0)).  Its 14 x 6 Smith core once grew without bound: clearing
# against a pivot that had stopped being the least entry, the old Smith normal
# form did not finish in 100 s.
LADDER_8X60_2 = PlatWord(8, (
    (4, -1), (5, -1), (7, 1), (5, 1), (4, -1), (2, 1), (5, 1), (5, 1), (1, -1), (2, 1),
    (2, 1), (7, 1), (6, 1), (6, 1), (4, 1), (5, -1), (6, 1), (5, 1), (3, -1), (7, -1),
    (1, 1), (4, 1), (3, -1), (6, 1), (4, 1), (5, -1), (2, -1), (3, -1), (7, -1), (4, 1),
    (3, -1), (5, -1), (1, -1), (6, 1), (4, -1), (6, 1), (4, -1), (4, 1), (1, -1), (6, 1),
    (3, -1), (6, 1), (7, -1), (4, -1), (2, 1), (5, -1), (7, 1), (5, -1), (2, 1), (3, 1),
    (5, 1), (5, 1), (3, -1), (3, -1), (3, -1), (7, -1), (5, -1), (2, 1), (7, 1), (5, 1),
))


def _seeded_knot_plat(seed, strands, letters):
    rng = random.Random(seed)
    while True:
        word = tuple((rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(letters))
        plat = PlatWord(strands, word)
        if closure_components(plat) == 1:
            return plat


def test_large_plats_agree_on_every_route_within_budget():
    t0 = time.monotonic()
    for plat in (LADDER_8X60_2, _seeded_knot_plat(0, 12, 300)):
        pd = plat_to_pd(plat)
        det = goeritz(pd).determinant
        assert alexander_det(pd) == det
        cover = abelianization(branched_cover_presentation(wirtinger(pd)))
        assert cover.free_rank == 0 and cover.order == det
        union = plat_to_pd(build_symmetric_union(plat, TwistVector((2,) * (plat.strands // 2))).knot)
        assert goeritz(union).determinant == alexander_det(union) == det * det
    assert time.monotonic() - t0 < 10.0


def test_alexander_polynomial_of_a_150_crossing_knot_within_budget():
    t0 = time.monotonic()
    pd = plat_to_pd(_seeded_knot_plat(0, 10, 150))
    coeffs = alexander_polynomial(pd)
    assert abs(sum(c * (-1) ** k for k, c in enumerate(coeffs))) == alexander_det(pd)
    assert time.monotonic() - t0 < 10.0
