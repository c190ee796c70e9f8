"""The shared integer eliminator (groups.snf.eliminate_unit_pivots) against
dense oracles: Bareiss on the full matrix and sympy (tests only); against
the per-entry Markowitz eliminator it replaced, and for its exact pivots
against the version that queued every row a pivot hit again
(tests/conftest.py);
abelianization's sparse rows against the dense exponent-sum matrix.

Both determinant routes, the Alexander interpolation and the cover's first
homology run through the same unit-pivot elimination, so each is checked
here against a computation that does not use it.
"""

import heapq
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    T35,
    TREFOIL,
    abelianized_matrix,
    eliminate_unit_pivots_markowitz,
    eliminate_unit_pivots_requeue_every_hit,
    goeritz_matrix,
    join_components,
    ladder_plats,
    lagrange_fraction,
    seeded_knot_plat,
    t3_plat,
)
from spunslice.covers import (
    _fox_int_matrix,
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
    plat_to_pd,
    wirtinger_relations,
)
from spunslice.groups import snf
from spunslice.groups.presentations import (
    GroupPresentation,
    abelianization,
    branched_cover_presentation,
    wirtinger,
)
from spunslice.groups.snf import (
    _bareiss,
    _divisors,
    abelian_invariants,
    determinant,
    elementary_divisors,
    eliminate_unit_pivots,
)
from test_covers import _seeded_knots_and_unions

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
    return [list(row[:-1]) for row in goeritz_matrix(goeritz(pd))[:-1]]


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
    values = [determinant(_sparse(_fox_minor(pd, t)), pd.n_crossings - 1) for t in points]
    assert _newton_int(points, values) == lagrange_fraction(points, values)


def test_newton_interpolation_rejects_non_integral_data():
    assert _newton_int([0, 1, 2], [0, 1, 0]) == [0, 2, -1]
    with pytest.raises(PlatError):
        _newton_int([0, 2], [0, 1])  # x / 2


def _assert_dets_agree(matrix):
    det = determinant(_sparse(matrix), len(matrix))
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


@st.composite
def presentations(draw):
    """1-6 generators and up to 6 relators of up to 8 letters; empty and
    repeated relators included."""
    n = draw(st.integers(1, 6))
    letter = st.integers(1, n).flatmap(lambda i: st.sampled_from([i, -i]))
    relators = draw(st.lists(st.lists(letter, max_size=8).map(tuple), max_size=6))
    if relators and draw(st.booleans()):
        relators.append(draw(st.sampled_from(relators)))
    return GroupPresentation(n, tuple(relators))


def _dense_abelianization(pres):
    return abelian_invariants(abelianized_matrix(pres), pres.n_generators)


@settings(max_examples=200, deadline=None)
@given(presentations())
@example(GroupPresentation(1, ()))
@example(GroupPresentation(3, ((), (1, 2, -1, -2), (1, 1, 2), (1, 1, 2), ())))
def test_sparse_abelianization_matches_the_dense_route(pres):
    assert abelianization(pres) == _dense_abelianization(pres)


@pytest.mark.parametrize("name", ["T35", "T37", "10x150-0", "10x150-1"])
def test_sparse_abelianization_of_branched_covers_matches_the_dense_route(name):
    plat = {"T35": T35, "T37": t3_plat(7), **dict(ladder_plats())}[name]
    pres = branched_cover_presentation(wirtinger(plat_to_pd(plat)))
    assert abelianization(pres) == _dense_abelianization(pres)


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
    assert determinant(_sparse([[1, 2], [3, 4]]), 2) == -2
    assert determinant(_sparse([[0, 1], [1, 0]]), 2) == -1


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


def test_large_plats_agree_on_every_route_within_budget():
    t0 = time.monotonic()
    for plat in (LADDER_8X60_2, seeded_knot_plat(0, 12, 300)):
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
    pd = plat_to_pd(seeded_knot_plat(0, 10, 150))
    coeffs = alexander_polynomial(pd)
    assert abs(sum(c * (-1) ** k for k, c in enumerate(coeffs))) == alexander_det(pd)
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# the shortest-row rule against the Markowitz oracle
# ---------------------------------------------------------------------------

def _under_both(compute):
    """compute() with the runtime eliminator, then with the Markowitz oracle
    in its place; compute must build fresh rows, which are consumed."""
    got = compute()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snf, "eliminate_unit_pivots", eliminate_unit_pivots_markowitz)
        want = compute()
    return got, want


def _assert_well_formed(red, m, n):
    pivot_rows = [r for r, _c, _p in red.pivots]
    pivot_cols = [c for _r, c, _p in red.pivots]
    assert len(set(pivot_rows)) == len(pivot_rows) and len(set(pivot_cols)) == len(pivot_cols)
    assert all(p in (1, -1) for _r, _c, p in red.pivots)
    assert red.core_rows == [i for i in range(m) if i not in pivot_rows]
    assert red.core_cols == [j for j in range(n) if j not in pivot_cols]
    assert [len(row) for row in red.core] == [len(red.core_cols)] * len(red.core_rows)


@st.composite
def sparse_unit_rich_matrices(draw):
    """Sparse rows over -3..3, 3 in 5 of their entries +-1, square or not;
    up to four rows hold 40 or more entries when there are that many
    columns."""
    m = draw(st.integers(1, 44))
    n = m if draw(st.booleans()) else draw(st.integers(1, 60))
    lengths = [draw(st.integers(0, 5)) for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=4)):
        lengths[i] = max(n - 8, 40)
    value = st.sampled_from([1, -1, 1, -1, 1, -1, 2, -2, 3, -3])
    rows = []
    for k in lengths:
        k = min(k, n)
        cols = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        rows.append({j: draw(value) for j in cols})
    return rows, n


@settings(max_examples=120, deadline=None)
@given(sparse_unit_rich_matrices())
def test_shortest_row_pivots_keep_the_oracles_determinant_and_divisors(case):
    rows, n = case
    red = eliminate_unit_pivots([dict(row) for row in rows], n)
    _assert_well_formed(red, len(rows), n)
    _assert_well_formed(eliminate_unit_pivots_markowitz([dict(row) for row in rows], n), len(rows), n)
    dense = [[row.get(j, 0) for j in range(n)] for row in rows]
    got, want = _under_both(lambda: _divisors(dense))
    assert got == want
    if len(rows) == n:
        got, want = _under_both(lambda: determinant([dict(row) for row in rows], n))
        assert got == want


@st.composite
def small_sparse_matrices(draw):
    """At most 12 x 12, at most 4 entries per row, entries in {+-1, +-2, 3}:
    rows a hit leaves at their length but with a new +-1 entry are common.
    No rows, no columns and m != n are drawn too: the queue keys are
    length * m + row and the pivot keys column count * n + column."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    value = st.sampled_from([1, -1, 2, -2, 3])
    rows = []
    for _ in range(m):
        cols = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=min(4, n), unique=True))
        rows.append({j: draw(value) for j in cols})
    return rows, n


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_unit_rich_matrices(), small_sparse_matrices()))
@example(([{0: 2, 1: -1, 2: 2}, {0: 3, 1: -2}], 3))
def test_the_queue_rule_takes_the_pivots_of_requeueing_every_hit(case):
    # the runtime queues a hit row again only when it has no entry in the
    # queue or its length changed; the oracle queues every hit row again.
    # In the example row 1 is popped without a +-1 entry; the pivot in row
    # 0 clears its -2, turns its 3 into -1 and fills column 2: the same
    # length and a new unit, so it must be queued again.
    rows, n = case
    got = eliminate_unit_pivots([dict(row) for row in rows], n)
    assert got == eliminate_unit_pivots_requeue_every_hit([dict(row) for row in rows], n)


def test_determinant_facts_plats_agree_under_both_eliminators():
    for plat, _union in _seeded_knots_and_unions():
        pd = plat_to_pd(plat)
        got, want = _under_both(lambda: (
            goeritz(pd).determinant,
            [determinant(_sparse(_fox_minor(pd, t)), pd.n_crossings - 1) for t in (-1, 3)],
            abelianization(branched_cover_presentation(wirtinger(pd))),
        ))
        assert got == want


def test_a_long_twist_face_is_queued_once_per_pivot_that_hits_it(monkeypatch):
    # the twist region's face row has 1,005 entries; re-keying every entry a
    # pivot touched once took 1,515,541 pushes on these 9,015 nonzeros
    pd = plat_to_pd(build_symmetric_union(TREFOIL, TwistVector((1000, 1000))).knot)
    rows = goeritz(pd).rows
    last = len(rows) - 1
    minor = [{j: v for j, v in row.items() if v and j != last} for row in rows[:-1]]
    nonzeros = sum(map(len, minor))
    pushes = 0

    def counting_heappush(queue, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(queue, item)

    monkeypatch.setattr(snf, "heappush", counting_heappush)
    assert abs(determinant(minor, last)) == 9
    assert 0 < pushes <= nonzeros
