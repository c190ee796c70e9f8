"""Plat words, PD codes, chord diagrams, and symmetric unions."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DETERMINANTS,
    FIG8,
    KINK,
    T35,
    TREFOIL,
    TREFOIL_NEG,
    TWO_COMPONENT,
    UNKNOT,
    closure_components_walk,
    mirror,
    strand_permutation,
)
from spunslice.diagrams import (
    PDCode,
    PlatError,
    PlatWord,
    TwistVector,
    bridge_regions,
    build_symmetric_union,
    chord_diagram_of_tangle,
    closure_components,
    format_plat,
    parse_plat,
    plat_to_pd,
    validate_plat,
)
from spunslice.covers import goeritz_determinant


# ---------------------------------------------------------------------------
# validation and closure components
# ---------------------------------------------------------------------------

def test_trefoil_validates_as_knot():
    validate_plat(TREFOIL)
    assert closure_components(TREFOIL) == 1
    assert strand_permutation(TREFOIL) == (1, 3, 2, 4)
    assert TREFOIL.bridges == 2


def test_empty_word_on_four_strands_is_a_two_component_link():
    assert closure_components(TWO_COMPONENT) == 2
    with pytest.raises(PlatError, match="2 components, expected a knot"):
        validate_plat(TWO_COMPONENT)


def test_a_link_on_two_million_strands_is_refused_in_memory_of_its_word():
    # a cap pair no letter touches closes up on its own: it is counted, not
    # allocated, so the declared strand count costs no memory
    plat = PlatWord(2_000_000, ((1, 1),))
    tracemalloc.start()
    try:
        with pytest.raises(PlatError, match="plat closure has 1000000 components, expected a knot"):
            validate_plat(plat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_unknot_and_kink_validate():
    assert validate_plat(UNKNOT) is None and closure_components(UNKNOT) == 1
    assert validate_plat(KINK) is None and closure_components(KINK) == 1


def test_odd_strand_count_rejected():
    with pytest.raises(PlatError):
        validate_plat(PlatWord(3, ()))


def test_generator_out_of_range_rejected():
    with pytest.raises(PlatError, match="generator index 4 out of range 1..3"):
        validate_plat(PlatWord(4, ((4, 1),)))


def test_bad_sign_rejected():
    with pytest.raises(PlatError):
        validate_plat(PlatWord(4, ((2, 2),)))


# ---------------------------------------------------------------------------
# mirror
# ---------------------------------------------------------------------------

def test_mirror_flips_all_signs():
    assert mirror(TREFOIL) == TREFOIL_NEG
    assert mirror(mirror(FIG8)) == FIG8


def test_mirror_preserves_determinant():
    for plat, det in DETERMINANTS.values():
        assert goeritz_determinant(plat_to_pd(mirror(plat))) == det


# ---------------------------------------------------------------------------
# PD codes
# ---------------------------------------------------------------------------

def test_trefoil_pd_code_is_frozen():
    pd = plat_to_pd(TREFOIL)
    assert pd.crossings == (
        (3, 6, 4, 1, -1),
        (5, 2, 6, 3, -1),
        (1, 4, 2, 5, -1),
    )
    assert pd.n_crossings == 3
    assert pd.n_edges == 6
    pd.validate()


def test_pd_codes_of_corpus_plats_validate():
    for plat, _ in DETERMINANTS.values():
        pd = plat_to_pd(plat)
        pd.validate()
        assert pd.n_edges == 2 * pd.n_crossings or pd.n_crossings == 0


def test_pd_validate_rejects_bad_edge_labels():
    with pytest.raises(PlatError, match="edge labels must be exactly 1..2n"):
        PDCode(((1, 2, 3, 4, 1),)).validate()


def test_pd_validate_rejects_bad_sign():
    bad = ((3, 6, 4, 1, -1), (5, 2, 6, 3, -1), (1, 4, 2, 5, 2))
    with pytest.raises(PlatError, match="crossing sign must be"):
        PDCode(bad).validate()


def test_pd_validate_rejects_disconnected_diagram():
    # two one-crossing kinks with disjoint edge labels
    with pytest.raises(PlatError, match="diagram graph is disconnected"):
        PDCode(((1, 1, 2, 2, 1), (3, 3, 4, 4, 1))).validate()


# ---------------------------------------------------------------------------
# chord diagrams
# ---------------------------------------------------------------------------

def test_trefoil_chord_diagram_is_frozen():
    cd = chord_diagram_of_tangle(TREFOIL)
    assert cd.n == 3
    assert cd.chords == ((6, 3), (2, 5), (4, 1))
    assert cd.signs == (-1, -1, -1)


def test_fig8_chord_diagram_is_frozen():
    cd = chord_diagram_of_tangle(FIG8)
    assert cd.n == 4
    assert cd.chords == ((1, 4), (5, 8), (7, 2), (3, 6))
    assert cd.signs == (-1, -1, 1, 1)


def test_chord_endpoints_partition_the_interval():
    for plat in (KINK, TREFOIL, FIG8, T35):
        cd = chord_diagram_of_tangle(plat)
        points = [p for ch in cd.chords for p in ch]
        assert sorted(points) == list(range(1, 2 * cd.n + 1))
        assert len(cd.signs) == cd.n


def test_bridge_regions_are_frozen():
    # bridge 1's twist region is the unbounded one, flagged None
    assert bridge_regions(TREFOIL) == {1: None, 2: 3}
    assert bridge_regions(T35) == {1: None, 2: 33, 3: 12}


# ---------------------------------------------------------------------------
# twist vectors and symmetric unions
# ---------------------------------------------------------------------------

def test_twist_vector_even_check():
    TwistVector((0, -4)).validate(2)
    with pytest.raises(PlatError, match="t_2 = 1 is odd"):
        TwistVector((2, 1)).validate(2)
    with pytest.raises(PlatError, match="length 2 != bridge count 3"):
        TwistVector((1, 1)).validate(3)  # the length is checked first


def test_symmetric_union_of_trefoil_is_frozen():
    su = build_symmetric_union(TREFOIL, TwistVector((2, 2)))
    assert su.base == TREFOIL
    assert su.knot.strands == 6
    assert len(su.knot.word) == 20
    assert len(su.untwisted.word) == 10
    sites = su.sites
    assert [s.bridge for s in sites] == [1, 2]
    assert [s.half_twists for s in sites] == [2, 2]
    assert sites[0].columns == (1, 2)
    assert sites[1].columns == (4, 5)
    assert validate_plat(su.knot) is None and closure_components(su.knot) == 1


def test_symmetric_union_zero_twists_is_the_untwisted_diagram():
    su = build_symmetric_union(TREFOIL, TwistVector((0, 0)))
    assert su.knot == su.untwisted


def test_symmetric_union_rejects_odd_twists():
    with pytest.raises(PlatError, match="odd"):
        build_symmetric_union(TREFOIL, TwistVector((2, 1)))


def test_symmetric_union_rejects_wrong_length():
    with pytest.raises(PlatError, match="length 3 != bridge count 2"):
        build_symmetric_union(TREFOIL, TwistVector((2, 2, 2)))


def test_symmetric_union_rejects_link_closures():
    with pytest.raises(PlatError):
        build_symmetric_union(TWO_COMPONENT, TwistVector((0, 0)))


def test_symmetric_union_determinant_squares():
    su = build_symmetric_union(TREFOIL, TwistVector((2, 2)))
    assert goeritz_determinant(plat_to_pd(su.knot)) == 9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_format_plat_is_frozen():
    assert format_plat(TREFOIL) == "strands 4\ng2 +\ng2 +\ng2 +\n"


def test_parse_format_round_trip():
    for plat, _ in DETERMINANTS.values():
        assert parse_plat(format_plat(plat)) == plat


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PlatError, match="line 1: 'strands N' must come first"):
        parse_plat("hello\n")
    with pytest.raises(PlatError, match="strand count must be even"):
        parse_plat("strands 3\n")
    with pytest.raises(PlatError, match="line 2: expected 'g<k>"):
        parse_plat("strands 4\ng4+\n")
    # the index is decimal digits only, as in the strands line: int() would
    # read g+2 as g2 and g1_0 as g10
    for text in ("g+2 +", "g1_0 -", "g-2 +"):
        with pytest.raises(PlatError) as excinfo:
            parse_plat(f"strands 4\ng1 +\n{text}\n")
        assert str(excinfo.value) == f"line 3: bad generator {text.split()[0]!r}"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def plat_words(draw):
    strands = draw(st.sampled_from([2, 4, 6]))
    n = draw(st.integers(min_value=0, max_value=8))
    word = tuple(
        (draw(st.integers(1, strands - 1)), draw(st.sampled_from([1, -1])))
        for _ in range(n)
    )
    return PlatWord(strands, word)


@settings(max_examples=60, deadline=None)
@given(plat_words())
def test_random_plats_round_trip(plat):
    assert 1 <= closure_components(plat) <= plat.strands // 2
    assert parse_plat(format_plat(plat)) == plat
    assert mirror(mirror(plat)) == plat
    if closure_components(plat) != 1:
        return
    validate_plat(plat)
    assert closure_components(plat) == 1
    pd = plat_to_pd(plat)
    pd.validate()
    assert pd.n_crossings == len(plat.word)


@settings(max_examples=60, deadline=None)
@given(plat_words())
def test_random_knot_closures_have_consistent_chords(plat):
    if closure_components(plat) != 1:
        return
    cd = chord_diagram_of_tangle(plat)
    assert cd.n == len(plat.word)
    points = [p for ch in cd.chords for p in ch]
    assert sorted(points) == list(range(1, 2 * cd.n + 1))


@st.composite
def wide_plat_words(draw):
    strands = draw(st.sampled_from([2, 4, 6, 8, 10]))
    n = draw(st.integers(min_value=0, max_value=3 * strands))
    word = tuple(
        (draw(st.integers(1, strands - 1)), draw(st.sampled_from([1, -1])))
        for _ in range(n)
    )
    return PlatWord(strands, word)


@settings(max_examples=300, deadline=None)
@given(wide_plat_words())
def test_closure_components_matches_the_strand_walk(plat):
    # links included: the union-find must count every component the walk does
    assert closure_components(plat) == closure_components_walk(plat)
