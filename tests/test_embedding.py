"""One embedding per plat: each plat is swept once and its closure counted
once (a link is refused on every call), the embedding holds no reference
back to its plat and keeps at most 300 bytes per crossing, the diagram facts
read off it are pinned, and the walk along the knot agrees with the wire
sweep it replaced."""

import gc
import hashlib
import itertools
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIG8, T35, embedding_wires, join_components, ladder_plats
from spunslice import diagrams
from spunslice.certificate import certify
from spunslice.cli import main
from spunslice.corpus import shipped_manifest_path
from spunslice.decker import spin_plat
from spunslice.diagrams import (
    ChordDiagram,
    PlatError,
    PlatWord,
    TwistVector,
    band_arcs,
    bridge_regions,
    build_embedding,
    build_symmetric_union,
    chord_diagram_of_tangle,
    parse_plat,
    plat_to_pd,
    validate_plat,
    wirtinger_relations,
)
from spunslice.groups.presentations import cobordism_presentation


def _counting_sweeps(monkeypatch) -> list:
    calls = []
    sweep = diagrams._sweep
    monkeypatch.setattr(diagrams, "_sweep", lambda plat: (calls.append(plat), sweep(plat))[1])
    return calls


def test_certify_sweeps_each_distinct_plat_once(monkeypatch):
    calls = _counting_sweeps(monkeypatch)
    plat = PlatWord(T35.strands, T35.word)  # a fresh object: nothing kept on it yet
    certify(plat, TwistVector((2, 2, 2)))
    # base, twisted union and untwisted union
    assert len(calls) == 3
    assert len({id(p) for p in calls}) == 3


def test_a_second_spin_plat_reuses_the_embedding(monkeypatch):
    calls = _counting_sweeps(monkeypatch)
    plat = PlatWord(T35.strands, T35.word)
    first = spin_plat(plat)
    assert len(calls) == 1
    assert spin_plat(plat) == first
    assert len(calls) == 1


def _counting_closures(monkeypatch) -> list:
    calls = []
    count = diagrams.closure_components
    monkeypatch.setattr(diagrams, "closure_components", lambda plat: (calls.append(plat), count(plat))[1])
    return calls


PLATS = shipped_manifest_path().parent / "plats"


@pytest.mark.parametrize("argv, closures", [
    (["det", "trefoil.plat", "--twists=2,2"], 3),  # base, twisted and untwisted union
    (["det", "t35.plat"], 1),
    (["slice-check", "t35.plat", "--twists=2,2,2"], 1),
])
def test_each_plat_is_built_once_and_its_closure_counted_once(argv, closures, monkeypatch, capsys):
    counted, built = _counting_closures(monkeypatch), []
    init = PlatWord.__init__
    monkeypatch.setattr(PlatWord, "__init__", lambda self, *args: (built.append(self), init(self, *args))[1])
    assert main([argv[0], str(PLATS / argv[1])] + argv[2:]) == 0
    assert len(counted) == len(built) == closures
    assert len({id(p) for p in counted}) == closures


def test_a_link_is_refused_on_every_call(monkeypatch):
    # only success is kept on the plat, so a link is counted again each time
    counted = _counting_closures(monkeypatch)
    link, knot = PlatWord(4, ()), PlatWord(T35.strands, T35.word)
    for _ in range(2):
        with pytest.raises(PlatError, match="plat closure has 2 components, expected a knot"):
            validate_plat(link)
        validate_plat(knot)
    assert counted == [link, knot, link]


def test_the_kept_embedding_costs_at_most_300_bytes_per_crossing():
    # the column table, chords and PD of the T(3,5) union at (300, 300, 300)
    knot = build_symmetric_union(T35, TwistVector((300, 300, 300))).knot
    assert len(knot.word) == 2776
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_embedding(knot)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 300 * len(knot.word), kept


def test_the_embedding_is_freed_with_its_plat():
    plat = PlatWord(T35.strands, T35.word)
    ref = weakref.ref(build_embedding(plat))
    assert ref() is not None
    gc.disable()
    try:
        del plat
        assert ref() is None
    finally:
        gc.enable()


# sha256 of `_diagram_facts` over the ladder plats with tv (2,...,2) and
# the 27 T(3,5) vectors in {-2,0,2}^3, recorded before the embedding was
# kept on the plat and before chords were read off the PD pass.
DIAGRAM_FACTS_SHA256 = "de8cb056673abdd248c965b0b9da9e1acc63dcb603621083267859b2aed878cf"


def _diagram_facts(base: PlatWord, tv: tuple) -> str:
    su = build_symmetric_union(base, TwistVector(tv))
    pd, bands = band_arcs(su)
    pres = cobordism_presentation(su)
    rows = [plat_to_pd(p).crossings for p in (base, su.knot, su.untwisted)]
    for p in (base, su.knot):
        cd = chord_diagram_of_tangle(p)
        rows += [cd.chords, cd.signs, sorted(bridge_regions(p).items())]
    rows += [
        pd.crossings,
        tuple((site.bridge, arcs) for site, arcs in bands),
        (pres.n_generators, pres.relators, sorted(pres.meridians)),
    ]
    return repr(rows)


def test_diagram_facts_are_byte_identical_to_the_recorded_digest():
    cases = [(plat, (2,) * plat.bridges) for _name, plat in ladder_plats()]
    cases += [(T35, tv) for tv in itertools.product((-2, 0, 2), repeat=3)]
    digest = hashlib.sha256()
    for base, tv in cases:
        digest.update(_diagram_facts(base, tv).encode() + b"\n")
    assert digest.hexdigest() == DIAGRAM_FACTS_SHA256


def test_the_0_crossing_unknot_is_one_edge_and_one_arc():
    unknot = PlatWord(2, ())
    emb = build_embedding(unknot)
    assert emb.columns[1:] == ((1,), (1,))
    assert diagrams.wirtinger_relations(emb.pd) == (1, {1: 0}, [])
    _pd, bands = band_arcs(build_symmetric_union(unknot, TwistVector((2,))))
    assert [arcs for _site, arcs in bands] == [(1, 1)]


PLATS = shipped_manifest_path().parent / "plats"


@pytest.mark.parametrize(
    "plat,crossing,port",
    [
        # no g1 letter: down column 1, around bottom cap 1, up column 2 into
        # the last letter touching column 2
        (parse_plat((PLATS / "trefoil.plat").read_text()), 2, "SW"),
        (parse_plat((PLATS / "t35.plat").read_text()), 24, "SW"),
        # a g1 letter: down column 2 into the first letter touching it
        (FIG8, 0, "NW"),
    ],
    ids=["trefoil", "t35", "fig8"],
)
def test_the_first_passage_leaves_cap_1_by_the_documented_column(plat, crossing, port):
    columns = build_embedding(plat).columns

    def label_at(port: str) -> int:
        # the stretch of the port's column just above or below the letter
        k = plat.word[crossing][0]
        column = k if port[1] == "W" else k + 1
        above = sum(column in (j, j + 1) for j, _s in plat.word[:crossing])
        return columns[column][above + (port[0] == "S")]

    assert label_at(port) == 1
    assert label_at({"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}[port]) == 2


@st.composite
def knot_plats_and_even_twists(draw):
    strands = 2 * draw(st.integers(1, 5))
    low = 2 if draw(st.integers(0, 2)) == 0 else 1  # about a third without g1
    letter = st.tuples(st.integers(low, max(low, strands - 1)), st.sampled_from((1, -1)))
    word = draw(st.lists(letter, max_size=60)) if low < strands else []
    word = join_components(strands, word, draw(st.sampled_from((1, -1))))
    tv = tuple(draw(st.sampled_from((-4, -2, 0, 2, 4))) for _ in range(strands // 2))
    return PlatWord(strands, word), TwistVector(tv)


@settings(max_examples=200, deadline=None)
@given(knot_plats_and_even_twists())
def test_the_walk_matches_the_wire_sweep(case):
    base, tv = case
    su = build_symmetric_union(base, tv)
    for plat in (base, su.knot, su.untwisted):
        wires = embedding_wires(plat)
        assert plat_to_pd(plat) == wires.pd
        signs = tuple(crossing[4] for crossing in wires.pd.crossings)
        assert chord_diagram_of_tangle(plat) == ChordDiagram(len(plat.word), wires.chords, signs)
        caps = {j: wires.edge_label[wires.cap_wire(j)] - 1 for j in range(2, plat.bridges + 1)}
        assert bridge_regions(plat) == {1: None, **caps}
    wires = embedding_wires(su.untwisted)
    _n, arc, _relations = wirtinger_relations(wires.pd)
    bands = tuple(
        (site, tuple(arc[wires.edge_label[wires.wire_at(site.index0, c)]] + 1 for c in site.columns))
        for site in sorted(su.sites, key=lambda s: s.bridge)
        if site.half_twists != 0
    )
    assert band_arcs(su) == (wires.pd, bands)
