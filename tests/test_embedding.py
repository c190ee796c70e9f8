"""One embedding per plat: each plat is swept once, the embedding holds no
reference back to its plat, and the diagram facts read off it are pinned."""

import gc
import hashlib
import itertools
import weakref

from conftest import T35, ladder_plats
from spunslice import diagrams
from spunslice.certificate import certify
from spunslice.decker import spin_plat
from spunslice.diagrams import (
    PlatWord,
    TwistVector,
    band_arcs,
    bridge_regions,
    build_embedding,
    build_symmetric_union,
    chord_diagram_of_tangle,
    plat_to_pd,
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
    assert len(emb.wires) == 1 and emb.edge_label == {0: 1}
    assert diagrams.wirtinger_relations(emb.pd) == (1, {1: 0}, [])
    _pd, bands = band_arcs(build_symmetric_union(unknot, TwistVector((2,))))
    assert [arcs for _site, arcs in bands] == [(1, 1)]
