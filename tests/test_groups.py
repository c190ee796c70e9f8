"""Presentations, coset enumeration, finite-group structure, hom counting.

The third determinant route lives here: |H1| of the branched double cover
via subgroup rewriting plus Smith normal form must agree with the two
diagrammatic routes from test_covers.py.
"""

import gc
import hashlib
import itertools
import random
import time
import weakref
from functools import cache, partial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    DETERMINANTS,
    FIG8,
    KINK,
    T35,
    TREFOIL,
    UNKNOT,
    centralizer_orbits,
    choose_schedule_from_scratch,
    commutator_subgroup_all_pairs,
    compile_schedule_rescan,
    embedding_wires,
    generating_sequence_pairwise,
    hom_count_brute,
    hom_count_reference,
    hom_extension_oracle,
    icosian_as_q5,
    light_generators_walk,
    normal_closure_all_conjugates,
    parse_presentation,
    quaternion_product_q5,
    reidemeister_schreier_index2_reference,
    seeded_knot_plat,
    simplified_all_rotations,
    sl2_f5_matrix_count,
    subgroup_closure_pairwise,
    t3_plat,
    unit_icosians_q5,
)
from spunslice.certificate import CertifyConfig, battery_group
from spunslice.corpus import shipped_manifest_path
from spunslice.diagrams import (
    PlatError,
    PlatWord,
    TwistVector,
    build_symmetric_union,
    closure_components,
    parse_plat,
    plat_to_pd,
    wirtinger_relations,
)
from spunslice.groups import homcount, quaternions
from spunslice.groups.finite import (
    FiniteGroup,
    GroupError,
    _hom_from_generators,
    alternating_group,
    closure_elements,
    cyclic_group,
    group_closure,
    is_even,
    iso_check,
    perm_mul,
    sl2_f5,
    structure_report,
    su2_obstruction,
    symmetric_group,
    table_group,
)
from spunslice.groups.homcount import (
    DEFAULT_NODE_BUDGET,
    HomCount,
    _choose_schedule,
    _compile_schedule,
    _modelled_cost,
    collapse_check,
    hom_count,
)
from spunslice.groups.presentations import (
    GroupPresentation,
    abelianization,
    branched_cover_presentation,
    cobordism_presentation,
    format_presentation,
    reidemeister_schreier_index2,
    wirtinger,
)
from spunslice.groups.quaternions import (
    GENERATORS,
    _unit_icosians,
    icosian_group,
    icosian_involution_lemma,
    icosian_mul,
)
from spunslice.groups.snf import elementary_divisors, smith_normal_form
from spunslice.groups.toddcoxeter import regular_representation, todd_coxeter


@pytest.fixture(scope="module")
def trefoil_group():
    return wirtinger(plat_to_pd(TREFOIL))


@pytest.fixture(scope="module")
def battery():
    return [symmetric_group(3), alternating_group(4), symmetric_group(4), alternating_group(5)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_elementary_divisors_frozen_example():
    assert elementary_divisors([[2, 4], [4, 2]]) == ((2, 6), 2)


def test_smith_normal_form_frozen_example():
    # D as recorded when smith_normal_form still returned U and V with it
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_normal_form(a) == [[2, 0, 0], [0, 2, 0], [0, 0, 156]]


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    return [
        [draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_divisor_chain_divides(matrix):
    divisors, rank = elementary_divisors(matrix)
    assert rank == len(divisors)
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.randoms(use_true_random=False))
def test_divisors_invariant_under_row_and_column_moves(matrix, rng):
    want = elementary_divisors(matrix)
    moved = [row[:] for row in matrix]
    for _ in range(4):
        if rng.random() < 0.5 and len(moved) > 1:
            i, j = rng.randrange(len(moved)), rng.randrange(len(moved))
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                moved[i] = [x + c * y for x, y in zip(moved[i], moved[j])]
        elif len(moved[0]) > 1:
            i, j = rng.randrange(len(moved[0])), rng.randrange(len(moved[0]))
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                for row in moved:
                    row[i] += c * row[j]
    assert elementary_divisors(moved) == want


# ---------------------------------------------------------------------------
# knot group presentations
# ---------------------------------------------------------------------------

def test_trefoil_wirtinger_shape(trefoil_group):
    w = trefoil_group
    assert w.n_generators == 3
    assert sorted(w.meridians) == [1, 2, 3]
    assert len(w.relators) == 3
    assert all(len(r) == 4 for r in w.relators)
    ab = abelianization(w)
    assert ab.free_rank == 1 and ab.torsion == ()


def test_index_two_subgroup_of_trefoil_group(trefoil_group):
    sub, _squares = reidemeister_schreier_index2(trefoil_group)
    assert sub.n_generators == 2 * trefoil_group.n_generators - 1
    ab = abelianization(sub)
    assert ab.free_rank == 1 and ab.torsion == (3,)


@pytest.mark.parametrize(
    "plat,torsion",
    [(UNKNOT, ()), (TREFOIL, (3,)), (FIG8, (5,)), (T35, ())],
    ids=["unknot", "trefoil", "fig8", "t35"],
)
def test_branched_cover_first_homology(plat, torsion):
    pres = branched_cover_presentation(wirtinger(plat_to_pd(plat)))
    ab = abelianization(pres)
    assert ab.free_rank == 0
    assert ab.torsion == torsion


def test_square_knot_branched_cover_homology():
    sq = build_symmetric_union(TREFOIL, TwistVector((0, 0))).knot
    ab = abelianization(branched_cover_presentation(wirtinger(plat_to_pd(sq))))
    assert ab.torsion == (3, 3)
    assert ab.order == 9


# the first 16 hex digits of sha256(repr([(n_generators, relators) ...])) of
# the branched-cover presentations of the shipped knotted plats; relator
# order fixes the Todd-Coxeter run and with it `cosets-defined`
COVER_PRESENTATIONS_DIGEST = "c314e39c7d2f0429"


def test_branched_cover_presentations_of_the_shipped_plats_are_pinned():
    plats = shipped_manifest_path().parent / "plats"
    knots = [parse_plat((plats / f"{name}.plat").read_text()) for name in ("figure8", "k5_2", "t25", "t35", "trefoil")]
    covers = [branched_cover_presentation(wirtinger(plat_to_pd(knot))) for knot in knots]
    digest = hashlib.sha256(repr([(p.n_generators, p.relators) for p in covers]).encode()).hexdigest()
    assert digest[:16] == COVER_PRESENTATIONS_DIGEST


@st.composite
def _relator_lists(draw):
    # fresh words (non-reduced, empty and repeated letters among them) and
    # copies of earlier ones, rotated, inverted or with a cancelling pair
    # put in, so that buckets of one letter multiset hold both duplicates
    # and relators that only share their letters
    n = draw(st.integers(1, 4))
    letter = st.integers(-n, n).filter(bool)
    relators: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 8))):
        if relators and draw(st.booleans()):
            w = draw(st.sampled_from(relators))
            i = draw(st.integers(0, len(w)))
            w = w[i:] + w[:i]
            if draw(st.booleans()):
                w = tuple(-x for x in reversed(w))
            if draw(st.booleans()):
                x, j = draw(letter), draw(st.integers(0, len(w)))
                w = w[:j] + (x, -x) + w[j:]
        else:
            w = tuple(draw(st.lists(letter, max_size=6)))
        relators.append(w)
    return GroupPresentation(n, tuple(relators))


@settings(max_examples=300, deadline=None)
@given(_relator_lists())
@example(GroupPresentation(2, ((1, 2, -1), (), (2, 1, -1), (1, -2, -1), (2,), (1, 1, 2), (1, 2, 1))))
def test_simplified_matches_the_all_rotations_oracle(pres):
    assert pres.simplified().relators == simplified_all_rotations(pres).relators


@st.composite
def _meridian_presentations(draw):
    """All generators meridians, or rarely not.  Relators: Wirtinger words
    x_o^s x_a x_o^-s x_b^-1, with kinks (o = a, o = b or both, whose
    rewrites cancel in part or in full), and random words of even length
    with a cancelling pair put in, or rarely of odd length; or the
    Wirtinger presentation of a seeded knot plat or of an even union."""
    if draw(st.integers(0, 3)) == 0:
        strands = draw(st.sampled_from((4, 6, 8, 10)))
        plat = seeded_knot_plat(draw(st.integers(0, 2**32)), strands, draw(st.integers(strands, 15 * strands)))
        if draw(st.booleans()):
            plat = build_symmetric_union(plat, TwistVector((2,) * (strands // 2))).knot
        return wirtinger(plat_to_pd(plat))
    n = draw(st.integers(1, 6))
    gen = st.integers(1, n)
    letter = st.integers(-n, n).filter(bool)
    relators = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            o, a, b, s = draw(gen), draw(gen), draw(gen), draw(st.sampled_from((1, -1)))
            kink = draw(st.sampled_from(("", "a", "b", "ab")))
            a, b = (o if "a" in kink else a), (o if "b" in kink else b)
            relators.append((s * o, a, -s * o, -b))
        else:
            w = draw(st.lists(letter, max_size=8))
            if len(w) % 2 and draw(st.integers(0, 9)):
                w.pop()
            x, j = draw(letter), draw(st.integers(0, len(w)))
            relators.append(tuple(w[:j] + [x, -x] + w[j:]))
    meridians = frozenset(range(1, n + 1))
    if draw(st.integers(0, 9)) == 0:
        meridians -= {draw(gen)}
    return GroupPresentation(n, tuple(relators), meridians)


def _index2_outcome(rewrite, pres):
    try:
        sub, squares = rewrite(pres)
    except PlatError as exc:
        return str(exc)
    return sub.n_generators, sub.relators, squares


@settings(max_examples=200, deadline=None)
@given(_meridian_presentations())
@example(wirtinger(plat_to_pd(KINK)))
@example(GroupPresentation(2, ((1, 1, -1, -1), (-2, 2, 2, -2), (1, 2, -1, -1)), frozenset({1, 2})))
def test_index2_rewrite_matches_the_reference(pres):
    # the relators in order (so the Todd-Coxeter run), the squares and the
    # refusals of the gen_map rewrite reduced afterwards
    want = _index2_outcome(reidemeister_schreier_index2_reference, pres)
    assert _index2_outcome(reidemeister_schreier_index2, pres) == want


def test_third_determinant_route_matches_the_other_two():
    from spunslice.covers import goeritz_determinant

    for name in ("unknot", "kink", "trefoil", "figure8", "t25", "k5-2"):
        plat, det = DETERMINANTS[name]
        pd = plat_to_pd(plat)
        ab = abelianization(branched_cover_presentation(wirtinger(pd)))
        assert ab.order == det == goeritz_determinant(pd)


# Two classical facts tie the cover route to code paths it does not share.
# For a knot K and an odd prime p, a map of the knot group into the dihedral
# group D_p either has abelian image (the 2p maps through Z) or sends every
# meridian to a reflection (the p * |H1(cover; F_p)| Fox colorings, p of them
# constant), so #Hom(K, D_p) = p + p * |H1(cover; F_p)|; and a 4-strand plat
# closes to a two-bridge knot, whose branched double cover is the lens space
# L(det K, q), with cyclic fundamental group.


@cache
def dihedral_group(p: int) -> FiniteGroup:
    rotation = tuple((i + 1) % p for i in range(p))
    reflection = tuple(-i % p for i in range(p))
    return group_closure((rotation, reflection), perm_mul, name=f"D{p}")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((4, 6, 8)), st.integers(1, 4))
def test_dihedral_hom_counts_are_cover_homology_mod_p(seed, strands, per_strand):
    plat = seeded_knot_plat(seed, strands, per_strand * strands)
    pres = wirtinger(plat_to_pd(plat))
    h1 = abelianization(branched_cover_presentation(pres))
    for p in (3, 5, 7):
        rank = h1.free_rank + sum(1 for d in h1.divisors if d % p == 0)
        homs = hom_count(pres, dihedral_group(p))
        assert homs.exact and homs.count == p + p * p**rank


def element_order(mult: list[list[int]], g: int) -> int:
    """Order of element g in a regular representation whose identity is 0."""
    order, x = 1, g
    while x:
        order, x = order + 1, mult[x][g]
    return order


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 25))
def test_two_bridge_knots_have_cyclic_covers(seed, letters):
    from spunslice.covers import goeritz_determinant

    pd = plat_to_pd(seeded_knot_plat(seed, 4, letters))
    det = goeritz_determinant(pd)
    result = todd_coxeter(branched_cover_presentation(wirtinger(pd)))
    assert result.complete and result.index == det
    mult = regular_representation(result)
    assert any(element_order(mult, g) == det for g in range(det))


# ---------------------------------------------------------------------------
# presentation parsing
# ---------------------------------------------------------------------------

def test_presentation_round_trip(trefoil_group):
    assert parse_presentation(format_presentation(trefoil_group)) == trefoil_group


def test_presentation_parse_errors():
    with pytest.raises(PlatError, match="expected 'gens N'"):
        parse_presentation("gens a\nrels a5")
    with pytest.raises(PlatError, match="missing 'gens N' line"):
        parse_presentation("")
    with pytest.raises(PlatError, match="generator index 0"):
        parse_presentation("gens 2\n1 0 -2")
    with pytest.raises(PlatError, match="bad relator letter"):
        parse_presentation("gens 2\n1 x")


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------

def test_cyclic_enumeration_completes():
    r = todd_coxeter(GroupPresentation(1, ((1, 1, 1, 1, 1),)))
    assert r.status == "complete" and r.complete
    assert r.index == 5


def test_binary_icosahedral_presentation_has_order_120():
    pres = GroupPresentation(
        2, ((1, 2, 1, 2, -1, -1, -1), (1, 1, 1, -2, -2, -2, -2, -2))
    )
    r = todd_coxeter(pres)
    assert r.complete and r.index == 120
    g = FiniteGroup(regular_representation(r), name="binary-icosahedral")
    assert g.order == 120
    assert len(g.involutions) == 1


def test_enumeration_of_an_infinite_index_subgroup_is_inconclusive(trefoil_group):
    # the trefoil group is infinite, so enumerating all cosets of the
    # trivial subgroup must exhaust any finite budget
    r = todd_coxeter(trefoil_group, max_cosets=50)
    assert r.status == "inconclusive"
    assert not r.complete
    assert r.index is None


def test_branched_torus_cover_is_the_binary_icosahedral_group():
    pres = branched_cover_presentation(wirtinger(plat_to_pd(T35)))
    r = todd_coxeter(pres, max_cosets=500_000)
    assert r.complete and r.index == 120
    cover = FiniteGroup(regular_representation(r), name="coverG")
    assert iso_check(cover, sl2_f5()) is not None
    assert structure_report(cover).perfect


def _orbifold_presentation(plat: PlatWord) -> GroupPresentation:
    """The Wirtinger presentation plus x_i^2 for every meridian, built
    without Reidemeister-Schreier: its meridians map onto Z/2 with the
    branched double cover's group as kernel."""
    w = wirtinger(plat_to_pd(plat))
    n = w.n_generators
    return GroupPresentation(n, w.relators + tuple((i, i) for i in range(1, n + 1)))


def test_t35_cover_order_by_the_orbifold_route():
    # index 240 over the index-2 subgroup of the words x_1 x_i leaves the
    # order-120 cover group; its table, read off the regular representation,
    # is SL(2,5), as the premise finds through the rewritten presentation
    orb = _orbifold_presentation(T35)
    r = todd_coxeter(orb, max_cosets=100_000)
    assert r.complete and r.index == 240
    kernel = tuple((1, i) for i in range(1, orb.n_generators + 1))
    assert todd_coxeter(orb, kernel, max_cosets=100_000).index == 2
    mult = regular_representation(r)
    # coset 0 is the identity and the element x_i the coset it reaches
    x = [r.table[0][2 * i - 2] for i in range(1, orb.n_generators + 1)]

    def mul(a: int, b: int) -> int:
        return mult[a][b]

    elems = closure_elements([mul(x[0], xi) for xi in x], mul)
    assert len(elems) == 120
    assert iso_check(table_group(elems, mul), sl2_f5()) is not None
    cover = branched_cover_presentation(wirtinger(plat_to_pd(T35)))
    assert todd_coxeter(cover, max_cosets=100_000).index == len(elems)


def test_t37_orbifold_and_cover_both_run_out_of_budget():
    cover = branched_cover_presentation(wirtinger(plat_to_pd(t3_plat(7))))
    for pres in (_orbifold_presentation(t3_plat(7)), cover):
        r = todd_coxeter(pres, max_cosets=20_000)
        assert (r.status, r.cosets_defined) == ("inconclusive", 20_000)


def _twisted_band_presentation(su) -> GroupPresentation:
    """The cobordism group read off the twisted union, without band_arcs:
    its Wirtinger presentation plus x_a x_b^-1 for each twisted band, a and
    b the arcs at the NW and NE ports of the band's first twist letter,
    found by the wire sweep."""
    wires = embedding_wires(su.knot)
    _n, arc, _relations = wirtinger_relations(wires.pd)
    w = wirtinger(wires.pd)

    def arc_at(site, column: int) -> int:
        return arc[wires.edge_label[wires.wire_at(site.letter_index, column)]] + 1

    bands = tuple(
        (arc_at(site, site.columns[0]), -arc_at(site, site.columns[1]))
        for site in su.sites
        if site.half_twists != 0
    )
    return GroupPresentation(w.n_generators, w.relators + bands)


def test_the_cobordism_group_depends_only_on_the_twist_support(battery):
    # the runtime adds its band relators to the untwisted union; the twisted
    # union with its bands identified must have the same hom counts
    plats = shipped_manifest_path().parent / "plats"
    knots = [parse_plat(p.read_text()) for p in sorted(plats.glob("*.plat")) if p.stem != "unknot"]
    assert len(knots) == 5
    rng = random.Random(28)
    for plat in knots:
        for _ in range(6):
            tv = TwistVector(tuple(rng.choice(range(-4, 7, 2)) for _ in range(plat.bridges)))
            su = build_symmetric_union(plat, tv)
            runtime, oracle = cobordism_presentation(su), _twisted_band_presentation(su)
            for G in battery:
                a, b = hom_count(runtime, G), hom_count(oracle, G)
                assert a.exact and b.exact and a.count == b.count, (plat, tv, G.name)


# ---------------------------------------------------------------------------
# finite group structure
# ---------------------------------------------------------------------------

def test_standard_group_orders():
    assert symmetric_group(3).order == 6
    assert alternating_group(4).order == 12
    assert symmetric_group(4).order == 24
    assert alternating_group(5).order == 60
    assert cyclic_group(7).order == 7


def test_special_linear_group_structure():
    sl = sl2_f5()
    assert sl.order == 120
    assert sl2_f5_matrix_count() == 120
    rep = structure_report(sl)
    assert rep.involution_count == 1
    assert rep.center_order == 2
    assert rep.normal_subgroup_orders == (1, 2, 120)
    assert rep.perfect and not rep.simple
    assert len(rep.quotients) == 1
    quotient, _ = rep.quotients[0]
    assert quotient.order == 60
    assert iso_check(quotient, alternating_group(5)) is not None


def test_alternating_five_structure():
    rep = structure_report(alternating_group(5))
    assert rep.order == 60
    assert rep.simple and rep.perfect
    assert rep.involution_count == 15
    assert rep.quotients == ()


def test_su2_obstruction_verdicts():
    assert su2_obstruction(alternating_group(5)) == "no-nontrivial-rep"
    assert su2_obstruction(sl2_f5()) == "embeds-possible"
    assert su2_obstruction(cyclic_group(7)) == "embeds-possible"


def test_unit_quaternion_model():
    assert icosian_involution_lemma()
    icosian = icosian_group()
    assert icosian.order == 120
    assert len(icosian.involutions) == 1
    assert iso_check(icosian, sl2_f5()) is not None
    assert structure_report(icosian).class_sizes == structure_report(sl2_f5()).class_sizes


def test_icosian_involution_lemma_builds_the_units_once_per_process(monkeypatch):
    builds = []
    build = quaternions._unit_icosians

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(quaternions, "_unit_icosians", counted)
    icosian_involution_lemma.cache_clear()
    assert icosian_involution_lemma() is True
    assert icosian_involution_lemma() is True
    assert len(builds) == 1


def test_integer_icosians_match_the_fraction_oracle():
    units = _unit_icosians()
    oracle = unit_icosians_q5()
    assert len(oracle) == 120
    assert {icosian_as_q5(u) for u in units} == oracle
    for g in GENERATORS:
        for u in units:
            assert icosian_as_q5(icosian_mul(g, u)) == quaternion_product_q5(icosian_as_q5(g), icosian_as_q5(u))
            assert icosian_as_q5(icosian_mul(u, g)) == quaternion_product_q5(icosian_as_q5(u), icosian_as_q5(g))
    # integer tuples sort the elements exactly as their Fraction coordinates do
    ordered = closure_elements(GENERATORS, icosian_mul, bound=121)
    assert [icosian_as_q5(u) for u in ordered] == sorted(oracle)
    # (1/4+1/4r5, -1/4+1/4r5, 1/2, 0) in quarters of Z[sqrt5]
    assert GENERATORS[1] == ((1, 1), (-1, 1), (2, 0), (0, 0))


# the first 16 hex digits of sha256(repr(G.mult)); element order fixes the
# class representatives the hom-count search tries, so this also guards node
# counts
TABLE_DIGESTS = {
    "S3": (lambda: symmetric_group(3), "04734113c8f3b770"),
    "A4": (lambda: alternating_group(4), "eec1bee1a3dfe2be"),
    "S4": (lambda: symmetric_group(4), "cddada2addd38e2c"),
    "A5": (lambda: alternating_group(5), "d648a03fc74c1cb8"),
    "SL2F5": (sl2_f5, "343c6f49ffface7c"),
    "2I": (icosian_group, "77b03a7df2e280ca"),
}


@pytest.mark.parametrize("name", TABLE_DIGESTS)
def test_group_tables_are_pinned(name):
    make, digest = TABLE_DIGESTS[name]
    G = make()
    assert G.name == name
    assert hashlib.sha256(repr(G.mult).encode()).hexdigest()[:16] == digest


def _inversion_parity_is_even(perm) -> bool:
    n = len(perm)
    return sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0


def test_is_even_matches_the_inversion_count_on_every_permutation_of_six():
    for perm in itertools.permutations(range(6)):
        assert is_even(perm) == _inversion_parity_is_even(perm)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
def test_is_even_matches_the_inversion_count(perm):
    assert is_even(perm) == _inversion_parity_is_even(perm)


@pytest.mark.parametrize("seq", [[0, 0], [1, 2], [0, 2, 1, 2], [-1, 0], [1]])
def test_is_even_rejects_a_sequence_that_is_not_a_permutation(seq):
    with pytest.raises(GroupError, match="not a permutation"):
        is_even(seq)


def test_icosian_product_checks_its_denominator():
    quarter = ((1, 0), (0, 0), (0, 0), (0, 0))  # 1/4, whose square is 1/16
    with pytest.raises(GroupError, match="leaves"):
        icosian_mul(quarter, quarter)


# a Latin square with identity 0 whose product is not associative
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


@pytest.mark.parametrize("cyclic_factor", [1, 50])
def test_nonassociative_tables_are_rejected(cyclic_factor):
    # the loop times the cyclic group C_m: (a, i)(b, j) = (ab, i + j)
    m, loop = cyclic_factor, NONASSOCIATIVE_LOOP
    table = [
        [loop[a][b] * m + (i + j) % m for b in range(5) for j in range(m)]
        for a in range(5)
        for i in range(m)
    ]
    with pytest.raises(GroupError, match="table is not associative"):
        FiniteGroup(table)


def test_iso_check_positive_result_is_an_isomorphism():
    g = symmetric_group(3)
    mapping = iso_check(g, g)
    assert mapping is not None
    assert sorted(mapping) == list(range(g.order))
    for a in range(g.order):
        for b in range(g.order):
            assert mapping[g.mult[a][b]] == g.mult[mapping[a]][mapping[b]]


def test_iso_check_rejects_nonisomorphic_groups():
    assert iso_check(symmetric_group(3), cyclic_group(6)) is None
    assert iso_check(alternating_group(4), cyclic_group(12)) is None


def test_iso_check_leaves_no_garbage_cycle_holding_its_groups():
    group = FiniteGroup(sl2_f5().mult)
    ref = weakref.ref(group)
    gc.disable()
    try:
        assert iso_check(group, sl2_f5()) is not None
        del group
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [0, 1])
def test_symmetric_group_needs_two_points(n):
    with pytest.raises(GroupError, match="need n >= 2"):
        symmetric_group(n)


def test_symmetric_group_is_built_once():
    assert symmetric_group(4) is symmetric_group(4)
    assert symmetric_group(3) is not symmetric_group(4)
    for _ in range(2):  # a failed call is not cached
        with pytest.raises(GroupError, match="need n >= 2"):
            symmetric_group(1)


# ---------------------------------------------------------------------------
# the closure walk against the pairwise-closure oracles
# ---------------------------------------------------------------------------

CLOSURE_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "A5": lambda: alternating_group(5),
    "SL2F5": sl2_f5,
    "icosian": icosian_group,
    "T35-cover": lambda: FiniteGroup(
        regular_representation(
            todd_coxeter(branched_cover_presentation(wirtinger(plat_to_pd(T35))), max_cosets=500_000)
        ),
        name="coverG",
    ),
}


@cache
def _closure_group(name: str) -> FiniteGroup:
    return CLOSURE_GROUPS[name]()


def _report_fields(rep):
    """The report with each quotient replaced by its order."""
    return rep._replace(quotients=tuple(q.order for q, _ in rep.quotients))


@cache
def _pairwise_oracles(name: str):
    """Both greedy generator sequences and the structure report, each
    computed through the pairwise closure."""
    G = _closure_group(name)
    ref = FiniteGroup(G.mult, name=G.name)
    ref.subgroup_closure = partial(subgroup_closure_pairwise, ref)
    return light_generators_walk(G), generating_sequence_pairwise(G), structure_report(ref)


@st.composite
def _group_and_elements(draw):
    name = draw(st.sampled_from(sorted(CLOSURE_GROUPS)))
    order = _closure_group(name).order
    return name, draw(st.sets(st.integers(min_value=0, max_value=order - 1), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_group_and_elements())
@example(("S4", {1}))
@example(("A5", {5, 7}))
@example(("SL2F5", {0, 1, 2}))
@example(("icosian", {3}))
@example(("T35-cover", {1, 2}))
def test_closure_walk_matches_the_pairwise_closure(case):
    name, elements = case
    G = _closure_group(name)
    assert G.subgroup_closure(elements) == subgroup_closure_pairwise(G, elements)
    light, by_order, report = _pairwise_oracles(name)
    assert G._greedy_generators(range(G.order)) == light
    assert G._greedy_generators(sorted(range(G.order), key=lambda a: -G.element_orders[a])) == by_order
    assert _report_fields(structure_report(G)) == _report_fields(report)


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_commutator_subgroup_from_generators_matches_all_pairs(name):
    G = _closure_group(name)
    for H in [G] + [Q for Q, _proj in G.proper_quotients]:
        H = FiniteGroup(H.mult, name=H.name)  # nothing cached yet
        assert H.commutator_subgroup == commutator_subgroup_all_pairs(H)
        ref = FiniteGroup(H.mult, name=H.name)
        ref.commutator_subgroup = commutator_subgroup_all_pairs(ref)
        assert _report_fields(structure_report(H)) == _report_fields(structure_report(ref))


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_classes_and_normal_closures_match_all_conjugates(name):
    G = _closure_group(name)
    every = range(G.order)
    orbits = {tuple(sorted({G.mult[G.mult[g][a]][G.inverse[g]] for g in every})) for a in every}
    assert G.conjugacy_classes == tuple(sorted(orbits))
    for a in every:
        assert G.normal_closure({a}) == normal_closure_all_conjugates(G, {a})
    pair = G._greedy_generators(every)[:2]
    assert G.normal_closure(pair) == normal_closure_all_conjugates(G, pair)


@pytest.mark.parametrize("make", [lambda: symmetric_group(3), lambda: alternating_group(4)], ids=["S3", "A4"])
def test_hom_from_generators_is_none_exactly_when_some_product_breaks(make):
    G = make()
    # a generating pair plus their product, so the images must also agree
    # with each other
    a, b = G._greedy_generators(range(G.order))
    gens = [a, b, G.mult[a][b]]
    found = 0
    for images in itertools.product(range(G.order), repeat=3):
        phi = _hom_from_generators(G, G, gens, images)
        assert phi == hom_extension_oracle(G, G, gens, images), images
        found += phi is not None
    assert 0 < found < G.order**2


class _CountedRows(tuple):
    """A multiplication table that counts the rows read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_subgroup_closure_reads_each_reached_row_once(name):
    G = FiniteGroup(_closure_group(name).mult)
    for elements in ([1], [1, 2], [G.identity], range(G.order)):
        G.mult = _CountedRows(G.mult)
        subgroup = G.subgroup_closure(elements)
        assert G.mult.reads <= len(subgroup)


# ---------------------------------------------------------------------------
# homomorphism counting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make",
    [
        partial(symmetric_group, 3),
        partial(alternating_group, 4),
        partial(symmetric_group, 4),
        partial(alternating_group, 5),
        sl2_f5,
        # the binary icosahedral group from its coset table
        lambda: FiniteGroup(
            regular_representation(
                todd_coxeter(
                    GroupPresentation(2, ((1, 2, 1, 2, -1, -1, -1), (1, 1, 1, -2, -2, -2, -2, -2)))
                )
            )
        ),
    ],
    ids=["S3", "A4", "S4", "A5", "SL2F5", "regular"],
)
def test_conjugation_table_matches_the_multiplication_table(make):
    G = make()
    mult, inv = G.mult, G.inverse
    assert G.conjugation == tuple(
        tuple(mult[mult[a][b]][inv[a]] for b in range(G.order)) for a in range(G.order)
    )


def test_trefoil_hom_counts_match_brute_force(trefoil_group):
    g = symmetric_group(3)
    pruned = hom_count(trefoil_group, g)
    brute = hom_count_brute(trefoil_group, g)
    assert pruned.exact and pruned.count == 12
    assert brute == 12


def test_trefoil_hom_counts_into_the_battery(trefoil_group, battery):
    # one node per derive step and one per candidate tried
    counts = [(hc.count, hc.nodes) for hc in (hom_count(trefoil_group, g) for g in battery)]
    assert counts == [(12, 13), (36, 20), (96, 31), (360, 51)]


def test_torus_hom_counts_into_the_battery(battery):
    pres = wirtinger(plat_to_pd(T35))
    counts = [(hc.count, hc.nodes) for hc in (hom_count(pres, g) for g in battery)]
    assert counts == [(6, 200), (12, 422), (24, 1100), (540, 4758)]


def test_hom_count_search_depth_does_not_grow_with_the_relators():
    # 1,599 relators x^2a y^2b, every one a check once x and y are chosen
    rels = tuple(
        (1,) * (2 * a) + (2,) * (2 * b) for a in range(40) for b in range(40) if a or b
    )
    pres = GroupPresentation(2, rels)
    hc = hom_count(pres, cyclic_group(2))
    assert (hc.status, hc.count) == ("exact", 4)
    assert hom_count_brute(pres, cyclic_group(2)) == 4


def test_hom_count_respects_its_node_budget(trefoil_group):
    hc = hom_count(trefoil_group, alternating_group(5), node_budget=10)
    assert hc.status == "inconclusive"
    assert hc.count is None
    # an exhausted search reports one node past its budget
    for budget in range(1, 51):
        hc = hom_count(trefoil_group, alternating_group(5), node_budget=budget)
        assert hc == HomCount("inconclusive", None, budget + 1)
    assert hom_count(trefoil_group, alternating_group(5), node_budget=51) == HomCount("exact", 360, 51)


def test_a_budget_crossed_after_checks_inside_a_block_counts_one_node_at_a_time(monkeypatch):
    # nodes are added per block; the last block here derives twice, checks
    # twice, derives once more and checks twice
    pres = cobordism_presentation(build_symmetric_union(TREFOIL, TwistVector((2, 2))))
    G = alternating_group(5)
    assert hom_count(pres, G) == HomCount("exact", 360, 109)
    _, blocks, _ = homcount._schedule(pres)
    assert [step[0] for step in blocks[-1][1]] == [2, 2, 0, 0, 2, 0, 0]
    before_derive, checks_before_crossing = homcount._before_derive, []

    def recorded(steps, k):
        prefix = before_derive(steps, k)
        checks_before_crossing.append(sum(not step[0] for step in prefix))
        return prefix

    monkeypatch.setattr(homcount, "_before_derive", recorded)
    for budget in range(109):
        assert hom_count(pres, G, node_budget=budget) == HomCount("inconclusive", None, budget + 1)
    assert 2 in checks_before_crossing


def test_node_counts_on_the_t35_sweep_unions(battery):
    # summed over the 27 unions with twists in {-2,0,2}^3, as recorded when
    # nodes were still counted one derive at a time
    unions = [
        cobordism_presentation(build_symmetric_union(T35, TwistVector(tv)))
        for tv in itertools.product((-2, 0, 2), repeat=3)
    ]
    sums = []
    for G in battery:
        counts = [hom_count(pres, G) for pres in unions]
        sums.append((sum(hc.count for hc in counts), sum(hc.nodes for hc in counts)))
    assert sums == [(162, 12_240), (324, 24_582), (648, 60_836), (28_980, 390_480)]


@st.composite
def _searched_presentations(draw):
    # relators x y x^-1 z (one-lookup derives and checks) mixed with other
    # words, negative letters included so that some inverses are read
    n = draw(st.integers(1, 5))
    letter = st.integers(-n, n).filter(bool)
    conjugate = st.tuples(letter, letter, letter).map(lambda t: (t[0], t[1], -t[0], t[2]))
    other = st.lists(letter, min_size=1, max_size=5).map(tuple)
    relators = draw(st.lists(st.one_of(conjugate, other), max_size=6))
    meridians = frozenset(range(1, n + 1)) if draw(st.booleans()) else frozenset()
    return GroupPresentation(n, tuple(relators), meridians)


def test_hom_count_matches_the_reference_step_runner():
    # the reference multiplies out every check and writes every inverse;
    # a search capped at `cap` nodes draws its budget up to the cap instead
    cap = 20_000
    kinds = set()

    @settings(max_examples=150, deadline=None)
    @given(
        _searched_presentations(),
        st.sampled_from([symmetric_group(3), alternating_group(4), alternating_group(5)]),
        st.integers(0, 10**6),
    )
    # every step kind: derives 1 to 4, a one-lookup check and a word check
    @example(
        GroupPresentation(4, ((3,), (-4,), (3, 2, -3, -1), (-3, 2, 3, -4), (3, 1, -3, -3), (-2,))),
        alternating_group(4),
        10**6,
    )
    def check(pres, G, draw):
        full = hom_count_reference(pres, G, node_budget=cap)
        budget = draw % (full.nodes + 2)
        assert hom_count(pres, G, node_budget=budget) == hom_count_reference(pres, G, budget)
        _, blocks, _ = homcount._schedule(pres)
        kinds.update(step[0] or ("check", bool(step[3])) for _, steps, _ in blocks for step in steps)

    check()
    assert kinds == {1, 2, 3, 4, ("check", True), ("check", False)}


@pytest.mark.parametrize(
    "pres,G,n_blocks",
    [
        (GroupPresentation(3, ((1, 1, -2), (1, 2, -3), (3, 3, 3, 3, 3))), alternating_group(5), 2),
        (GroupPresentation(3, ((1, 2, -1, -3),)), symmetric_group(3), 3),
        (wirtinger(plat_to_pd(FIG8)), alternating_group(5), 3),
        (GroupPresentation(3, ((1, 1, 1),)), alternating_group(4), 4),
        (wirtinger(plat_to_pd(T35)), alternating_group(4), 4),
    ],
    ids=["chain-A5", "conjugate-S3", "fig8-A5", "cube-A4", "t35-A4"],
)
def test_every_budget_through_the_leaf_block_matches_the_reference(pres, G, n_blocks):
    # the last block's candidates run in place; each one is a node and is
    # checked against the budget, as on the reference's stack
    _, blocks, _ = homcount._schedule(pres)
    assert len(blocks) == n_blocks
    full = hom_count_reference(pres, G)
    assert full.exact
    for budget in range(-1, full.nodes + 2):
        assert hom_count(pres, G, node_budget=budget) == hom_count_reference(pres, G, budget)


def test_t35_sweep_schedules_check_in_one_lookup_and_skip_only_unread_inverses():
    # the T(3,5) knot and its 27 unions with twists in {-2,0,2}^3
    checks, skipped, written = 0, 0, 0
    for n, rels in _t35_sweep_schedule_inputs():
        _, blocks, _ = homcount._schedule(GroupPresentation(n, tuple(rels)))
        steps = [step for _, block, _ in blocks for step in block]
        read = set()
        for kind, g, a, b, c in steps:
            read.update((a, b, c) if not kind and b else (a, b) if kind in (1, 2) else a)
        for kind, g, a, b, c in steps:
            if not kind:
                checks += 1
                assert b
            elif kind in (1, 3):
                skipped += 1
                assert -g not in read
            else:
                written += 1
    assert (checks, skipped, written) == (156, 1_556, 422)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-2, 2).filter(lambda x: x != 0), min_size=1, max_size=4),
        min_size=0,
        max_size=2,
    )
)
def test_pruned_and_brute_hom_counts_agree(relators):
    pres = GroupPresentation(2, tuple(tuple(r) for r in relators))
    g = symmetric_group(3)
    assert hom_count(pres, g).count == hom_count_brute(pres, g)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.integers(-n, n).filter(lambda x: x != 0), min_size=1, max_size=5
                ),
                max_size=4,
            ),
        )
    ),
    st.sampled_from([symmetric_group(3), alternating_group(4)]),
)
def test_pruned_and_brute_hom_counts_agree_on_up_to_four_generators(case, g):
    # block 2 is pruned by centralizer orbits, and its weight is carried
    # into blocks 3 and 4
    n, relators = case
    pres = GroupPresentation(n, tuple(tuple(r) for r in relators))
    assert hom_count(pres, g).count == hom_count_brute(pres, g)


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "A5", "C4", "SL2F5"])
def test_the_centralizer_orbit_table_matches_the_per_call_orbits(name):
    # kept once per group, for each class representative and for both
    # domains, the class and the whole group
    G = battery_group(name)
    every = range(G.order)
    want = {}
    for cls in G.conjugacy_classes:
        want[cls[0], False] = tuple(centralizer_orbits(G, cls[0], cls))
        want[cls[0], True] = tuple(centralizer_orbits(G, cls[0], every))
    assert G.centralizer_orbits == want
    assert G.centralizer_orbits is G.centralizer_orbits


@st.composite
def small_knot_plats(draw):
    word = draw(
        st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), min_size=1, max_size=3)
    )
    plat = PlatWord(4, tuple(word))
    assume(closure_components(plat) == 1)
    return plat


@settings(max_examples=15, deadline=None)
@given(small_knot_plats(), st.tuples(st.sampled_from([-2, 0, 2]), st.sampled_from([-2, 0, 2])))
def test_knot_plat_hom_counts_match_brute_force(plat, tv):
    # meridian-marked presentations: blocks 2 and on range over one class
    g = symmetric_group(3)
    base = wirtinger(plat_to_pd(plat))
    cob = cobordism_presentation(build_symmetric_union(plat, TwistVector(tv)))
    for pres in (base, cob):
        assert pres.meridians == frozenset(range(1, pres.n_generators + 1))
        assert hom_count(pres, g).count == hom_count_brute(pres, g)


def test_untwisted_torus_cobordism_into_a5_within_node_budget():
    su = build_symmetric_union(T35, TwistVector((0, 0, 0)))
    hc = hom_count(cobordism_presentation(su), alternating_group(5))
    assert (hc.status, hc.count) == ("exact", 5100)
    assert hc.nodes < 0.4 * DEFAULT_NODE_BUDGET


def _knot_presentations():
    for plat, k in ((TREFOIL, 2), (FIG8, 2), (T35, 3)):
        yield wirtinger(plat_to_pd(plat))
        for tv in itertools.product((-2, 0, 2), repeat=k):
            yield cobordism_presentation(build_symmetric_union(plat, TwistVector(tv)))


def test_indexed_schedule_matches_the_rescanning_oracle_on_knots():
    # the step order fixes the node counts
    for pres in _knot_presentations():
        rels = list(pres.relators)
        assert _compile_schedule(pres.n_generators, rels) == compile_schedule_rescan(
            pres.n_generators, rels
        )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-n, n).filter(lambda x: x != 0), max_size=7),
                max_size=9,
            ),
        )
    )
)
def test_indexed_schedule_matches_the_rescanning_oracle(case):
    n, relators = case
    rels = [tuple(r) for r in relators]
    assert _compile_schedule(n, rels) == compile_schedule_rescan(n, rels)


def _first_choices(n, rels):
    # the generators still free when the opening block stalls
    opening = {step[1] for step in _compile_schedule(n, rels)[0][1] if step[0] == "derive"}
    return [c for c in range(1, n + 1) if c not in opening]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-n, n).filter(lambda x: x != 0), max_size=7),
                max_size=9,
            ),
        )
    )
)
def test_forced_first_choice_matches_the_rescanning_oracle(case):
    n, relators = case
    rels = [tuple(r) for r in relators]
    for c in _first_choices(n, rels):
        assert _compile_schedule(n, rels, c) == compile_schedule_rescan(n, rels, c)


def test_lookahead_candidates_match_the_rescanning_oracle_on_knots(monkeypatch):
    compile_schedule = homcount._compile_schedule
    calls = []

    def recorded(n, rels, *args, **kwargs):
        calls.append(args)
        return compile_schedule(n, rels, *args, **kwargs)

    monkeypatch.setattr(homcount, "_compile_schedule", recorded)
    looked_ahead = 0
    for pres in _knot_presentations():
        n, rels = pres.n_generators, list(pres.relators)
        calls.clear()
        _choose_schedule(n, rels)
        if _modelled_cost(compile_schedule(n, rels)) <= homcount._LOOKAHEAD_COST * n:
            # below the gate: the greedy compile alone
            assert calls == [()]
            continue
        looked_ahead += 1
        assert calls[0] == () and 1 < len(calls) <= homcount._LOOKAHEAD_WIDTH
        for first, *_ in calls[1:]:
            assert compile_schedule(n, rels, first) == compile_schedule_rescan(n, rels, first)
    # the 7 slow T(3,5) unions: (0,0,0), (0,0,+-2) and (+-2,0,+-2)
    assert looked_ahead == 7


@st.composite
def _lookahead_presentations(draw):
    # few relators over five to nine generators, so that most draws model
    # above the lookahead gate and several candidates stall at known sets
    # that an earlier compile has passed through
    n = draw(st.integers(5, 9))
    letter = st.integers(-n, n).filter(bool)
    conjugate = st.tuples(letter, letter, letter).map(lambda t: (t[0], t[1], -t[0], t[2]))
    other = st.lists(letter, min_size=1, max_size=5).map(tuple)
    return n, draw(st.lists(st.one_of(conjugate, conjugate, other), min_size=1, max_size=4))


def test_lookahead_matches_the_from_scratch_oracle():
    above, won = 0, 0

    @settings(max_examples=200, deadline=None)
    @given(_lookahead_presentations())
    def check(case):
        nonlocal above, won
        n, rels = case
        chosen = _choose_schedule(n, rels)
        assert chosen == choose_schedule_from_scratch(n, rels)
        greedy = _compile_schedule(n, rels)
        above += _modelled_cost(greedy) > homcount._LOOKAHEAD_COST * n
        won += chosen != greedy

    check()
    # about 140 draws model above the gate, and in about 50 of them a
    # candidate beats the greedy schedule
    assert above > 100 and won > 20


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("S3", 5), ("S3", 6), ("A4", 5)]).flatmap(
        lambda gn: st.tuples(
            st.just(gn[0]),
            st.just(gn[1]),
            st.lists(
                st.lists(
                    st.integers(-gn[1], gn[1]).filter(lambda x: x != 0), min_size=1, max_size=4
                ),
                max_size=3,
            ),
        )
    )
)
@example(("S3", 5, [[-5, -5]]))  # greedy opens with 1 and checks x5^2 last
def test_schedules_above_the_lookahead_gate_count_as_brute_force(case):
    # most draws model above the gate of 2,000 nodes per generator (with no
    # relator, 5 free blocks model at 271,453); A4 on six generators would be
    # seconds of brute force
    name, n, relators = case
    G = symmetric_group(3) if name == "S3" else alternating_group(4)
    pres = GroupPresentation(n, tuple(tuple(r) for r in relators))
    expected = hom_count_brute(pres, G)
    assert hom_count(pres, G).count == expected
    rels = list(pres.simplified().relators)
    for c in _first_choices(n, rels):
        blocks = _compile_schedule(n, rels, c)
        with mock.patch.object(homcount, "_choose_schedule", lambda n, rels: blocks):
            assert hom_count(GroupPresentation(n, pres.relators), G).count == expected


def test_chosen_schedules_on_the_t35_sweep_beat_the_greedy_ones(monkeypatch, battery):
    presentations = [wirtinger(plat_to_pd(T35))] + [
        cobordism_presentation(build_symmetric_union(T35, TwistVector(tv)))
        for tv in itertools.product((-2, 0, 2), repeat=3)
    ]
    for pres in presentations:
        simple = pres.simplified()
        n, rels = simple.n_generators, list(simple.relators)
        assert _modelled_cost(_choose_schedule(n, rels)) <= _modelled_cost(_compile_schedule(n, rels))

    def counts():
        return [
            hom_count(GroupPresentation(p.n_generators, p.relators, p.meridians), G)
            for p in presentations
            for G in battery
        ]

    chosen = counts()
    monkeypatch.setattr(homcount, "_choose_schedule", homcount._compile_schedule)
    greedy = counts()
    assert [hc.count for hc in chosen] == [hc.count for hc in greedy]
    assert all(a.nodes <= b.nodes for a, b in zip(chosen, greedy))
    assert sum(hc.nodes for hc in chosen) < sum(hc.nodes for hc in greedy) / 5


def test_untwisted_torus_cobordism_into_a5_takes_the_cheaper_first_choice():
    # the greedy schedule takes 1,820,522 nodes
    su = build_symmetric_union(T35, TwistVector((0, 0, 0)))
    hc = hom_count(cobordism_presentation(su), alternating_group(5))
    assert (hc.count, hc.nodes) == (5100, 66084)


@cache
def _t35_sweep_schedule_inputs():
    # (n, relators) of the simplified T(3,5) knot group and its 27 unions
    presentations = [wirtinger(plat_to_pd(T35))] + [
        cobordism_presentation(build_symmetric_union(T35, TwistVector(tv)))
        for tv in itertools.product((-2, 0, 2), repeat=3)
    ]
    return [(p.n_generators, list(p.relators)) for p in map(GroupPresentation.simplified, presentations)]


def test_chosen_schedules_on_the_t35_sweep_are_pinned():
    blocks = [_choose_schedule(n, list(rels)) for n, rels in _t35_sweep_schedule_inputs()]
    digest = hashlib.sha256(repr(blocks).encode()).hexdigest()[:16]
    assert digest == "309df75d48cbff76"


def test_greedy_choices_on_the_t35_sweep_skip_a_third_of_the_closures(monkeypatch):
    # scoring every free generator at every stall takes 15,658 closures here
    closure = homcount._Cascade.closure
    calls = []

    def counted(self, c):
        calls.append(c)
        return closure(self, c)

    monkeypatch.setattr(homcount._Cascade, "closure", counted)
    for n, rels in _t35_sweep_schedule_inputs():
        _choose_schedule(n, list(rels))
    assert len(calls) <= 15_658 * 2 / 3


def test_lookahead_on_the_t35_sweep_splices_shared_tails(monkeypatch):
    # compiling every candidate from scratch takes 10,295 closures in 246
    # greedy choices here; a candidate that stalls at a known set an earlier
    # compile passed through takes that compile's blocks from there on
    closure, greedy = homcount._Cascade.closure, homcount._Cascade.greedy
    closures, choices = [], []

    def counted_closure(self, c):
        closures.append(c)
        return closure(self, c)

    def counted_greedy(self, free):
        choices.append(free)
        return greedy(self, free)

    monkeypatch.setattr(homcount._Cascade, "closure", counted_closure)
    monkeypatch.setattr(homcount._Cascade, "greedy", counted_greedy)
    for n, rels in _t35_sweep_schedule_inputs():
        _choose_schedule(n, list(rels))
    assert len(closures) <= 8_132
    assert len(choices) <= 173


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-n, n).filter(lambda x: x != 0), max_size=7),
                max_size=9,
            ),
        )
    )
)
def test_greedy_choice_skips_only_dominated_generators(case):
    # at every stall: the closure of c bounds the gain of each generator in
    # it, so skipping those leaves the choice of scoring every candidate
    n, relators = case
    rels = [tuple(r) for r in relators]
    greedy = homcount._Cascade.greedy

    def checked(self, free):
        gain = {c: len(self.closure(c)) for c in free}
        for c in free:
            assert all(gain[h] <= gain[c] for h in self.closure(c))
        choice = greedy(self, free)
        assert choice == self.ranked(free, 1)[0]
        return choice

    with mock.patch.object(homcount._Cascade, "greedy", checked):
        _compile_schedule(n, rels)


# ---------------------------------------------------------------------------
# cobordism presentations and the collapse check
# ---------------------------------------------------------------------------

def test_zero_twist_cobordism_adds_no_relators(trefoil_group):
    su0 = build_symmetric_union(TREFOIL, TwistVector((0, 0)))
    cob = cobordism_presentation(su0)
    base = wirtinger(plat_to_pd(su0.untwisted))
    assert len(cob.relators) == len(base.relators)


def test_twisted_cobordism_adds_one_relator_per_band(trefoil_group):
    su = build_symmetric_union(TREFOIL, TwistVector((2, 2)))
    cob = cobordism_presentation(su)
    base = wirtinger(plat_to_pd(su.untwisted))
    assert cob.relators[: len(base.relators)] == base.relators
    # x_a x_b^-1 for the band arcs that surgery_description reports
    assert cob.relators[len(base.relators) :] == ((1, -4), (5, -3))
    ab = abelianization(cob)
    assert ab.free_rank == 1 and ab.torsion == ()


def test_torus_cobordism_relators_identify_the_band_arcs():
    su = build_symmetric_union(T35, TwistVector((2, 2, 2)))
    cob = cobordism_presentation(su)
    base = wirtinger(plat_to_pd(su.untwisted))
    assert cob.relators[: len(base.relators)] == base.relators
    assert cob.relators[len(base.relators) :] == ((1, -33), (46, -16), (75, -3))


def test_untwisted_trefoil_union_is_distinguished(trefoil_group, battery):
    su0 = build_symmetric_union(TREFOIL, TwistVector((0, 0)))
    rep = collapse_check(cobordism_presentation(su0), trefoil_group, battery)
    assert rep.verdict == "distinguished"
    assert rep.rows == (
        ("S3", 30, 12), ("A4", 132, 36), ("S4", 432, 96), ("A5", 2220, 360),
    )


def test_twisted_trefoil_union_collapses_consistently(trefoil_group, battery):
    su = build_symmetric_union(TREFOIL, TwistVector((2, 2)))
    rep = collapse_check(cobordism_presentation(su), trefoil_group, battery)
    assert rep.verdict == "consistent-collapse"
    assert rep.rows == (
        ("S3", 12, 12), ("A4", 36, 36), ("S4", 96, 96), ("A5", 360, 360),
    )


def test_collapse_check_reports_budget_exhaustion(trefoil_group, battery):
    su = build_symmetric_union(TREFOIL, TwistVector((2, 2)))
    rep = collapse_check(
        cobordism_presentation(su), trefoil_group, battery[:1], node_budget=10
    )
    assert rep.verdict == "inconclusive"
    assert rep.rows == (("S3", None, None),)


def test_collapse_check_compiles_each_presentation_once(monkeypatch, battery):
    compiles, counts = [], []
    compile_schedule, count = homcount._compile_schedule, homcount.hom_count

    def counted_compile(n, rels, **kwargs):
        compiles.append(n)
        return compile_schedule(n, rels, **kwargs)

    def counted_count(pres, G, **kwargs):
        counts.append(G.name)
        return count(pres, G, **kwargs)

    monkeypatch.setattr(homcount, "_compile_schedule", counted_compile)
    monkeypatch.setattr(homcount, "hom_count", counted_count)
    su = build_symmetric_union(TREFOIL, TwistVector((2, 2)))
    cob, base = cobordism_presentation(su), wirtinger(plat_to_pd(TREFOIL))
    rep = collapse_check(cob, base, battery)
    assert rep.verdict == "consistent-collapse"
    assert len(compiles) == 2
    assert counts == [G.name for G in battery for _ in (cob, base)]
    # the kept schedule counts exactly as a fresh compile of an equal presentation
    for G in battery:
        for pres in (cob, base):
            fresh = GroupPresentation(pres.n_generators, pres.relators, pres.meridians)
            assert count(pres, G) == count(fresh, G)
    assert len(compiles) == 2 + 2 * len(battery)


def test_t3_85_cobordism_collapse_within_budget():
    t0 = time.monotonic()
    plat = t3_plat(85)
    su = build_symmetric_union(plat, TwistVector((2, 2, 2)))
    rep = collapse_check(
        cobordism_presentation(su),
        wirtinger(plat_to_pd(plat)),
        CertifyConfig().battery_groups(),
    )
    assert rep.verdict == "consistent-collapse"
    assert rep.rows == (
        ("S3", 6, 6), ("A4", 12, 12), ("S4", 24, 24), ("A5", 540, 540),
    )
    assert time.monotonic() - t0 < 10.0
