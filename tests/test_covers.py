"""Determinants, Alexander invariants, and the surgered cobordism form.

Every determinant is checked along two independent routes (checkerboard
form and Fox calculus); a third route through the cover's fundamental
group lives in test_groups.py.  Fox calculus runs on the PD's Wirtinger
presentation (`alexander_det`) and on the plat's bridge presentation
(`bridge_fox_det`, the route the commands use), which never reads the PD.
Kinks, cap exchanges and stabilizations of the shipped plats change the
word but not the knot, so they must keep both determinants, the cover's H1
and the hom counts into S3, A4, S4 and A5; on T(3,5) they must also keep
the three premises read off the cover group.
"""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ALEX_AT_3,
    DETERMINANTS,
    FIG8,
    T35,
    TREFOIL,
    checkerboard_reference,
    fault_the_pd_sweep,
    goeritz_matrix,
    goeritz_reference,
    join_components,
    ladder_plats,
    seeded_knot_plat,
)
from spunslice import certificate
from spunslice.corpus import shipped_manifest_path
from spunslice.covers import (
    alexander_det,
    alexander_polynomial,
    bridge_fox_det,
    checkerboard,
    cobordism_linking_matrix,
    goeritz,
    goeritz_determinant,
    is_definite,
    surgery_description,
)
from spunslice.diagrams import (
    PDCode,
    PlatError,
    PlatWord,
    TwistVector,
    build_symmetric_union,
    closure_components,
    parse_plat,
    plat_to_pd,
)
from spunslice.groups.finite import alternating_group, symmetric_group
from spunslice.groups.homcount import hom_count
from spunslice.groups.presentations import abelianization, branched_cover_presentation, wirtinger
from spunslice.groups.toddcoxeter import DEFAULT_MAX_COSETS


def _evaluate(coeffs, t):
    value = 0
    for c in coeffs:
        value = value * t + c
    return value


# ---------------------------------------------------------------------------
# frozen determinant table, both routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(DETERMINANTS))
def test_determinant_both_routes(name):
    plat, expected = DETERMINANTS[name]
    pd = plat_to_pd(plat)
    assert goeritz_determinant(pd) == expected
    assert alexander_det(pd) == expected


@pytest.mark.parametrize("name", sorted(ALEX_AT_3))
def test_alexander_evaluation_at_three(name):
    plat, expected = ALEX_AT_3[name]
    coeffs = alexander_polynomial(plat_to_pd(plat))
    assert abs(_evaluate(coeffs, 3)) == expected


def test_alexander_polynomials_are_frozen():
    # normalized so the coefficients sum to +1
    assert alexander_polynomial(plat_to_pd(TREFOIL)) == (1, -1, 1)
    assert alexander_polynomial(plat_to_pd(FIG8)) == (-1, 3, -1)
    assert alexander_polynomial(plat_to_pd(T35)) == (
        1, -1, 0, 1, -1, 1, 0, -1, 1,
    )
    for plat, _ in DETERMINANTS.values():
        assert _evaluate(alexander_polynomial(plat_to_pd(plat)), 1) == 1


def test_alexander_det_is_evaluation_at_minus_one():
    for plat, _ in DETERMINANTS.values():
        pd = plat_to_pd(plat)
        coeffs = alexander_polynomial(pd)
        assert alexander_det(pd) == abs(_evaluate(coeffs, -1))


def test_torus_knot_evaluation_at_two():
    coeffs = alexander_polynomial(plat_to_pd(T35))
    assert abs(_evaluate(coeffs, 2)) == 151


# ---------------------------------------------------------------------------
# checkerboard data
# ---------------------------------------------------------------------------

def test_trefoil_goeritz_data_is_frozen():
    g = goeritz(plat_to_pd(TREFOIL))
    assert goeritz_matrix(g) == ((3, -3), (-3, 3))
    assert g.determinant == 3
    assert g.shaded_faces == 2


def test_goeritz_matrix_is_symmetric():
    for plat, _ in DETERMINANTS.values():
        m = goeritz_matrix(goeritz(plat_to_pd(plat)))
        for i in range(len(m)):
            for j in range(len(m)):
                assert m[i][j] == m[j][i]


# plat_to_pd(TREFOIL).crossings
TREFOIL_PD = ((3, 6, 4, 1, -1), (5, 2, 6, 3, -1), (1, 4, 2, 5, -1))


@pytest.mark.parametrize(
    "crossings, message",
    [
        (((3, 6, 4, 99, -1),) + TREFOIL_PD[1:], "edge 99 occurs 1 times"),
        (((3, 6, 4, 3, -1),) + TREFOIL_PD[1:], "edge 3 occurs 3 times"),
        # label 3 four times and label 5 never: the darts still pair off two
        # by two, so only the count refuses this code
        (TREFOIL_PD[:1] + ((3, 2, 6, 3, -1), (1, 4, 2, 3, -1)), "edge 3 occurs 4 times"),
        # one crossing whose two edges are loops: one face, a torus graph
        (((1, 2, 1, 2, 1),), "face count 1 != crossings + 2 = 3; nonplanar PD?"),
        # the trefoil beside that torus graph: 5 + 1 faces for 4 crossings
        (TREFOIL_PD + ((7, 8, 7, 8, 1),), "face adjacency graph is disconnected"),
        # that torus graph beside a one-crossing kink: 1 + 3 faces for 2
        # crossings pass the Euler count, and the torus faces cannot be colored
        (((1, 2, 1, 2, 1), (3, 3, 4, 4, 1)), "faces are not 2-colorable; malformed PD code"),
    ],
    ids=["edge-once", "edge-thrice", "edge-four-times", "face-count", "disconnected", "not-2-colorable"],
)
def test_malformed_pd_codes_are_rejected(crossings, message):
    for route in (goeritz, goeritz_reference):
        with pytest.raises(PlatError) as excinfo:
            route(PDCode(crossings))
        assert str(excinfo.value) == message


@st.composite
def seeded_knots_and_even_unions(draw):
    """A seeded knot plat on 4-10 strands with up to 15 letters a strand
    (the ladder's largest is 10/150), or an even union of it."""
    strands = draw(st.sampled_from((4, 6, 8, 10)))
    plat = seeded_knot_plat(draw(st.integers(0, 2**32)), strands, draw(st.integers(strands, 15 * strands)))
    if draw(st.booleans()):
        tv = draw(st.lists(st.sampled_from(range(-4, 5, 2)), min_size=strands // 2, max_size=strands // 2))
        plat = build_symmetric_union(plat, TwistVector(tv)).knot
    return plat


@settings(max_examples=60, deadline=None)
@given(seeded_knots_and_even_unions())
def test_checkerboard_and_goeritz_match_the_reference(plat):
    pd = plat_to_pd(plat)
    assert checkerboard(pd) == checkerboard_reference(pd)
    assert goeritz(pd) == goeritz_reference(pd)


def _seeded_knots_and_unions():
    """24 random knot plats on 4-8 strands with 1-16 letters, from
    random.Random(7), each followed by one even union of it."""
    rng = random.Random(7)
    for _ in range(24):
        strands = rng.choice((4, 6, 8))
        letters = rng.randint(1, 16)
        word = [(rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(letters)]
        plat = PlatWord(strands, join_components(strands, word, rng.choice((1, -1))))
        tv = TwistVector(tuple(rng.choice((-2, 0, 2, 4)) for _ in range(strands // 2)))
        yield plat, False
        yield build_symmetric_union(plat, tv).knot, True


# sha256 of `_determinant_facts` over `_seeded_knots_and_unions`, recorded
# before faces were walked on integer darts and the matrices were built
# sparse.  It pins face numbering, shading and which face is deleted.
DETERMINANT_FACTS_SHA256 = "e2175a702805e575d8adc65fa49facd70c9ce76c4bf914b2327c584433a8ad10"


def _determinant_facts(plat: PlatWord, union: bool) -> str:
    pd = plat_to_pd(plat)
    g = goeritz(pd)
    facts = [goeritz_matrix(g), g.determinant, g.shaded_faces, alexander_det(pd)]
    if not union:
        facts.append(alexander_polynomial(pd))
    return repr(facts)


def test_determinant_facts_are_byte_identical_to_the_recorded_digest():
    digest = hashlib.sha256()
    for plat, union in _seeded_knots_and_unions():
        digest.update(_determinant_facts(plat, union).encode() + b"\n")
    assert digest.hexdigest() == DETERMINANT_FACTS_SHA256


def test_determinant_memory_is_linear_in_crossings():
    pd = plat_to_pd(build_symmetric_union(T35, TwistVector((300, 300, 300))).knot)
    assert pd.n_crossings == 2776
    for route in (goeritz_determinant, alexander_det):
        tracemalloc.start()
        try:
            assert route(pd) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * pd.n_crossings, (route.__name__, peak)


# ---------------------------------------------------------------------------
# determinant squaring under symmetric union
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tv", [(0, 0), (2, 2), (-2, 2), (4, -2), (2, 0), (0, 6)])
def test_trefoil_union_determinant_squares(tv):
    su = build_symmetric_union(TREFOIL, TwistVector(tv))
    pd = plat_to_pd(su.knot)
    assert goeritz_determinant(pd) == 9
    assert alexander_det(pd) == 9


def test_fig8_union_determinant_squares():
    for tv in [(0, 0), (2, -2), (4, 2)]:
        pd = plat_to_pd(build_symmetric_union(FIG8, TwistVector(tv)).knot)
        assert goeritz_determinant(pd) == 25


# ---------------------------------------------------------------------------
# surgered cobordism
# ---------------------------------------------------------------------------

def test_trefoil_surgery_bands_are_frozen():
    sd = surgery_description(build_symmetric_union(TREFOIL, TwistVector((2, 2))))
    assert [b.bridge for b in sd.bands] == [1, 2]
    assert [b.framing for b in sd.bands] == [-1, -1]
    assert [b.half_twists for b in sd.bands] == [2, 2]
    assert [b.arcs for b in sd.bands] == [(1, 4), (5, 3)]
    assert cobordism_linking_matrix(sd) == [1, 1]
    assert is_definite(cobordism_linking_matrix(sd)) == "positive"


def test_mixed_signs_give_indefinite_form():
    sd = surgery_description(build_symmetric_union(TREFOIL, TwistVector((2, -2))))
    assert [b.framing for b in sd.bands] == [-1, 1]
    assert is_definite(cobordism_linking_matrix(sd)) == "indefinite"


def test_negative_twists_give_negative_definite_form():
    sd = surgery_description(build_symmetric_union(TREFOIL, TwistVector((-2, -4))))
    assert is_definite(cobordism_linking_matrix(sd)) == "negative"


def test_zero_twists_give_empty_surgery():
    sd = surgery_description(build_symmetric_union(TREFOIL, TwistVector((0, 0))))
    assert sd.bands == ()
    assert is_definite(cobordism_linking_matrix(sd)) == "empty"


def test_zero_entries_are_skipped():
    sd = surgery_description(build_symmetric_union(TREFOIL, TwistVector((2, 0))))
    assert len(sd.bands) == 1
    assert sd.bands[0].bridge == 1
    assert is_definite(cobordism_linking_matrix(sd)) == "positive"


def test_torus_union_surgery_is_frozen():
    su = build_symmetric_union(T35, TwistVector((2, 2, 2)))
    sd = surgery_description(su)
    assert [b.bridge for b in sd.bands] == [1, 2, 3]
    assert [b.framing for b in sd.bands] == [-1, -1, -1]
    assert [b.arcs for b in sd.bands] == [(1, 33), (46, 16), (75, 3)]
    assert cobordism_linking_matrix(sd) == [1, 1, 1]


def test_is_definite_on_explicit_matrices():
    assert is_definite([]) == "empty"
    assert is_definite([1]) == "positive"
    assert is_definite([-1, -1]) == "negative"
    assert is_definite([1, -1]) == "indefinite"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def knot_plats(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    word = tuple(
        (draw(st.integers(1, 3)), draw(st.sampled_from([1, -1])))
        for _ in range(n)
    )
    return PlatWord(4, word)


@settings(max_examples=40, deadline=None)
@given(knot_plats())
def test_random_plats_agree_on_both_determinant_routes(plat):
    if closure_components(plat) != 1:
        return
    pd = plat_to_pd(plat)
    d1 = goeritz_determinant(pd)
    d2 = alexander_det(pd)
    assert d1 == d2
    assert d1 >= 1
    assert d1 % 2 == 1  # knot determinants are odd


@settings(max_examples=15, deadline=None)
@given(
    knot_plats(),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda t: (2 * t[0], 2 * t[1])
    ),
)
def test_random_unions_square_the_determinant(plat, tv):
    if closure_components(plat) != 1:
        return
    base = goeritz_determinant(plat_to_pd(plat))
    su = build_symmetric_union(plat, TwistVector(tv))
    assert goeritz_determinant(plat_to_pd(su.knot)) == base * base


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([-1, 1]), min_size=0, max_size=6))
def test_definiteness_matches_sign_pattern(diag):
    verdict = is_definite(diag)
    if not diag:
        assert verdict == "empty"
    elif all(d > 0 for d in diag):
        assert verdict == "positive"
    elif all(d < 0 for d in diag):
        assert verdict == "negative"
    else:
        assert verdict == "indefinite"


def test_even_union_determinant_is_the_square_on_both_routes():
    # |det(K u K*(tv))| = det(K)^2 for even tv, on the knotted shipped plats
    # and the 6/40 and 8/60 ladder plats, four seeded twist vectors each
    plats = shipped_manifest_path().parent / "plats"
    knots = [parse_plat(p.read_text()) for p in sorted(plats.glob("*.plat")) if p.stem != "unknot"]
    knots += [plat for name, plat in ladder_plats() if not name.startswith("10x")]
    assert len(knots) == 15
    rng = random.Random(26)
    for plat in knots:
        det = goeritz_determinant(plat_to_pd(plat))
        assert det > 1 or plat == T35
        for _ in range(4):
            tv = TwistVector(tuple(rng.choice(range(-6, 7, 2)) for _ in range(plat.strands // 2)))
            pd = plat_to_pd(build_symmetric_union(plat, tv).knot)
            assert goeritz_determinant(pd) == alexander_det(pd) == det * det, (plat, tv)


# ---------------------------------------------------------------------------
# Fox calculus on the plat word
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(DETERMINANTS))
def test_bridge_fox_det_matches_the_determinant_table(name):
    plat, expected = DETERMINANTS[name]
    assert bridge_fox_det(plat) == expected


@st.composite
def seeded_knots_with_twists(draw):
    strands = draw(st.sampled_from((6, 8, 10, 12)))
    plat = seeded_knot_plat(draw(st.integers(0, 2**32)), strands, draw(st.integers(strands, 25 * strands)))
    tv = draw(st.lists(st.sampled_from(range(-4, 7, 2)), min_size=strands // 2, max_size=strands // 2))
    return plat, TwistVector(tv)


@settings(max_examples=120, deadline=None)
@given(seeded_knots_with_twists())
def test_the_plat_route_agrees_with_both_pd_routes(case):
    plat, tv = case
    for knot in (plat, build_symmetric_union(plat, tv).knot):
        pd = plat_to_pd(knot)
        assert bridge_fox_det(knot) == alexander_det(pd) == goeritz_determinant(pd), (knot, tv)


@pytest.mark.parametrize(
    "name, faulted, true", [("trefoil", 1, 3), ("figure8", 1, 5), ("t35", 3, 1), ("k5_2", 3, 7)]
)
def test_a_pd_sweep_fault_splits_the_determinant_routes(name, faulted, true, monkeypatch):
    # both PD routes read the faulted code and agree on a wrong value; the
    # plat route reads only the word, so it keeps the true one
    fault_the_pd_sweep(monkeypatch)
    plat = parse_plat((shipped_manifest_path().parent / "plats" / f"{name}.plat").read_text())
    pd = plat_to_pd(plat)
    assert goeritz_determinant(pd) == alexander_det(pd) == faulted
    assert bridge_fox_det(plat) == true


# ---------------------------------------------------------------------------
# plat moves: one knot, many words
# ---------------------------------------------------------------------------

_KNOTTED_PLATS = {
    p.stem: p.read_text()
    for p in sorted((shipped_manifest_path().parent / "plats").glob("*.plat"))
    if p.stem != "unknot"
}
_BATTERY = (symmetric_group(3), alternating_group(4), symmetric_group(4), alternating_group(5))


def _plat_move(plat: PlatWord, move: str, cap: int, s: int) -> PlatWord:
    """At the top or the bottom of the word ("kink-top", "exchange-bottom",
    ...): a Reidemeister I kink in cap `cap`, the letter (2 cap - 1, s); or
    an exchange of caps `cap` and `cap` + 1, whose 2-cables cross in the
    letters (2 cap, s), (2 cap - 1, s), (2 cap + 1, s), (2 cap, s).  Or a
    stabilization: two new strands and the letter (2b, s) at the bottom
    (Birman 1976)."""
    if move == "stabilize":
        return PlatWord(plat.strands + 2, plat.word + ((plat.strands, s),))
    kind, end = move.split("-")
    ks = (2 * cap - 1,) if kind == "kink" else (2 * cap, 2 * cap - 1, 2 * cap + 1, 2 * cap)
    letters = tuple((k, s) for k in ks)
    return PlatWord(plat.strands, letters + plat.word if end == "top" else plat.word + letters)


@st.composite
def knotted_plat_variants(draw):
    """A shipped knotted plat's name and the word after 1-3 random moves."""
    name = draw(st.sampled_from(sorted(_KNOTTED_PLATS)))
    variant = parse_plat(_KNOTTED_PLATS[name])
    for _ in range(draw(st.integers(1, 3))):
        move = draw(st.sampled_from(
            ("kink-top", "kink-bottom", "exchange-top", "exchange-bottom", "stabilize")
        ))
        last_cap = variant.bridges - move.startswith("exchange")
        cap, s = draw(st.integers(1, last_cap)), draw(st.sampled_from((1, -1)))
        variant = _plat_move(variant, move, cap, s)
    return name, variant


def _knot_invariants(plat: PlatWord) -> tuple:
    """Both determinant routes, the cover's H1 and the hom counts into S3,
    A4, S4 and A5; `plat_to_pd` refuses a plat that is not a knot."""
    pd = plat_to_pd(plat)
    group = wirtinger(pd)
    homs = [hom_count(group, G) for G in _BATTERY]
    assert all(h.exact for h in homs)
    cover = abelianization(branched_cover_presentation(group)).describe()
    return bridge_fox_det(plat), goeritz_determinant(pd), cover, [h.count for h in homs]


@settings(max_examples=100, deadline=None)
@given(knotted_plat_variants())
def test_kinks_and_stabilizations_keep_the_knot_invariants(case):
    # the moves keep the knot, so the new word must give the shipped word's
    # invariants; that word is parsed afresh, so nothing kept on a plat
    # object from an earlier example is reused
    name, variant = case
    assert _knot_invariants(variant) == _knot_invariants(parse_plat(_KNOTTED_PLATS[name]))


def _cover_premises(plat: PlatWord) -> tuple:
    """The base-cover premise's status and evidence, `cosets-defined`
    dropped (it depends on the presentation), and the quotient-structure and
    su2 premises on the cover group it returns, if it returns one."""
    (status, evidence), cover = certificate._base_cover(wirtinger(plat_to_pd(plat)), DEFAULT_MAX_COSETS)
    del evidence["cosets-defined"]
    if cover is None:
        return (status, evidence), None, None
    return (status, evidence), certificate._check_quotient_structure(cover), certificate._check_su2_cases(cover)


@pytest.mark.parametrize(
    "move, cap, s", [("kink-top", 2, 1), ("exchange-bottom", 1, -1), ("stabilize", 0, 1)]
)
def test_t35_plat_moves_keep_the_cover_premises(move, cap, s):
    # each variant's cover presentation differs from T(3,5)'s and goes
    # through the index-2 rewrite and the coset enumeration afresh
    want = _cover_premises(T35)
    assert _cover_premises(_plat_move(T35, move, cap, s)) == want
    assert want[0][0] == want[1][0] == want[2][0] == "checked"
