"""The sparse-row Todd-Coxeter enumerator against the list-of-lists
reference `todd_coxeter_lists` in conftest, on narrow and on wide, sparse
tables; the bytes its table costs; and where its coset budget binds."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import T35, t3_plat, todd_coxeter_lists
from spunslice.diagrams import plat_to_pd
from spunslice.groups.presentations import GroupPresentation, branched_cover_presentation, wirtinger
from spunslice.groups.toddcoxeter import todd_coxeter


@st.composite
def presentations(draw):
    """1-4 generators, up to 5 relators (empty ones and powers included)
    and 0-2 subgroup words."""
    n = draw(st.integers(min_value=1, max_value=4))
    letter = st.integers(min_value=1, max_value=n).flatmap(lambda g: st.sampled_from((g, -g)))
    word = st.lists(letter, max_size=8).map(tuple)
    power = st.builds(lambda x, k: (x,) * k, letter, st.integers(min_value=2, max_value=5))
    relators = draw(st.lists(st.one_of(word, power), max_size=5))
    subgroup = draw(st.lists(st.lists(letter, max_size=4).map(tuple), max_size=2))
    return GroupPresentation(n, tuple(relators)), tuple(subgroup)


@settings(max_examples=300, deadline=None)
@given(presentations(), st.sampled_from((1, 5, 50, 2000)))
def test_sparse_rows_match_the_list_table(case, budget):
    pres, subgroup = case
    assert todd_coxeter(pres, subgroup, budget) == todd_coxeter_lists(pres, subgroup, budget)


def test_t35_cover_enumeration_matches_the_list_table():
    pres = branched_cover_presentation(wirtinger(plat_to_pd(T35)))
    r = todd_coxeter(pres, max_cosets=500_000)
    assert r == todd_coxeter_lists(pres, max_cosets=500_000)
    assert r.complete and r.index == 120
    assert r.cosets_defined == 13_257


def test_coset_table_costs_at_most_five_bytes_per_cell():
    # the sparse rows hold only the defined entries and peak at 1.7 bytes
    # per cell here; one Python list per coset takes 8.8 bytes per cell and
    # fails
    pres = branched_cover_presentation(wirtinger(plat_to_pd(t3_plat(7))))
    cells = 20_000 * 2 * pres.n_generators
    assert cells == 20_000 * 158
    tracemalloc.start()
    try:
        r = todd_coxeter(pres, max_cosets=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.status == "inconclusive" and r.cosets_defined == 20_000
    assert peak <= 5 * cells


def test_the_t37_enumeration_to_20000_cosets_peaks_at_most_4_3_bytes_per_cell():
    # the union-find is one array('i') of forwarding pointers, 4 bytes per
    # coset, beside the sparse rows; the whole enumeration peaks at 1.7
    # bytes per cell here
    pres = branched_cover_presentation(wirtinger(plat_to_pd(t3_plat(7))))
    cells = 20_000 * 2 * pres.n_generators
    tracemalloc.start()
    try:
        todd_coxeter(pres, max_cosets=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.3 * cells


@pytest.mark.parametrize("q", [7, 11])
def test_a_defined_coset_costs_at_most_400_bytes(q):
    # a live coset's dict holds only its defined entries, so the cost barely
    # grows with the cover's width: 265 and 285 bytes per coset on CPython
    # 3.11 for the 79- and 127-generator covers, where a flat 4-byte table
    # of 2n columns takes 668 and 1,074
    pres = branched_cover_presentation(wirtinger(plat_to_pd(t3_plat(q))))
    tracemalloc.start()
    try:
        r = todd_coxeter(pres, max_cosets=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.status == "inconclusive" and r.cosets_defined == 20_000
    assert peak <= 400 * r.cosets_defined


def test_the_trivial_group_has_one_coset():
    pres = GroupPresentation(0, ((),))
    assert todd_coxeter(pres, ((),), 5) == todd_coxeter_lists(pres, ((),), 5)
    assert todd_coxeter(pres).index == 1
    with pytest.raises(ValueError, match="out of range"):
        todd_coxeter(pres, ((), (1,)))


def test_subgroup_letters_out_of_range_are_rejected():
    # a flat table would read another coset's row for such a letter
    pres = GroupPresentation(2, ((1, 1), (2, 2)))
    for bad in ((3,), (1, 0), (-3, 2)):
        with pytest.raises(ValueError, match="out of range"):
            todd_coxeter(pres, (bad,))


@st.composite
def wide_presentations(draw):
    """5-12 generators, as on a branched-cover presentation: a finite von
    Dyck core <a, b | a^p, b^q, (ab)^r>, every other generator identified
    with an earlier one (x_a x_b^-1) or killed, and up to 3 words of up to 6
    letters, all relabelled; so rows are wide and mostly undefined when they
    merge, and most enumerations complete."""
    n = draw(st.integers(min_value=5, max_value=12))
    p, q, r = draw(st.sampled_from(((2, 2, 3), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5))))
    relators = [(1,) * p, (2,) * q, (1, 2) * r]
    killed = draw(st.integers(min_value=3, max_value=n))
    for g in range(3, n + 1):
        relators.append((g,) if g == killed else (g, -draw(st.integers(1, g - 1))))
    letter = st.integers(min_value=1, max_value=n).flatmap(lambda g: st.sampled_from((g, -g)))
    relators += draw(st.lists(st.lists(letter, min_size=1, max_size=6).map(tuple), max_size=3))
    label = [0] + draw(st.permutations(range(1, n + 1)))
    relators = [tuple(label[x] if x > 0 else -label[-x] for x in w) for w in relators]
    subgroup = draw(st.lists(st.lists(letter, max_size=4).map(tuple), max_size=2))
    return GroupPresentation(n, tuple(draw(st.permutations(relators)))), tuple(subgroup)


@settings(max_examples=200, deadline=None)
@given(wide_presentations(), st.sampled_from((20, 300, 3000)))
def test_wide_sparse_rows_match_the_list_table(case, budget):
    pres, subgroup = case
    r = todd_coxeter(pres, subgroup, budget)
    ref = todd_coxeter_lists(pres, subgroup, budget)
    assert (r.status, r.index, r.table, r.cosets_defined) == (
        ref.status, ref.index, ref.table, ref.cosets_defined)


@pytest.mark.parametrize("word", [(1, 2, -1), (2, 3, -2), (1, -1, 2), (2, -2, 3)])
def test_subgroup_words_that_are_not_reduced_match_the_list_table(word):
    # a scan writes a fresh coset and its closing deduction straight into the
    # table only where both entries are empty; words that are not cyclically
    # or not freely reduced reach the other case
    pres = GroupPresentation(3, ((1, 1), (2, 2), (1, 2) * 3, (3, -1)))
    assert todd_coxeter(pres, (word,), 20) == todd_coxeter_lists(pres, (word,), 20)


def test_the_budget_counts_every_coset_defined():
    # a budget of exactly the index suffices, one less does not
    pres = GroupPresentation(1, ((1,) * 5,))
    r = todd_coxeter(pres, max_cosets=5)
    assert (r.status, r.index, r.cosets_defined) == ("complete", 5, 5)
    r = todd_coxeter(pres, max_cosets=4)
    assert (r.status, r.cosets_defined) == ("inconclusive", 4)
    cover = branched_cover_presentation(wirtinger(plat_to_pd(t3_plat(7))))
    for budget in (1, 2, 158, 20_000):
        r = todd_coxeter(cover, max_cosets=budget)
        assert (r.status, r.cosets_defined) == ("inconclusive", budget)
