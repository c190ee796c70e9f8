"""The even-odd side test and the bitmask slice criterion against the
face-tuple flood fill and the per-midpoint criterion, the run checks against
the vertex-level edges, and the decker, curve and SVG texts pinned to the
bytes of the face-tuple implementation."""

import hashlib
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    KINK,
    T35,
    TREFOIL,
    criterion_report_midpoints,
    format_curve,
    ladder_plats,
    rotate_curve,
    side_map,
    side_map_faces,
    vertex_crossings,
    vertex_curve,
    vertex_edge_kinds,
)
from test_decker import corrupted_one_chord
from spunslice.corpus import shipped_manifest_path
from spunslice.decker import (
    criterion_report,
    spin_plat,
    symmetric_union_curve,
    trace_double_curve,
    validate_curve,
)
from spunslice.diagrams import PlatError, PlatWord, TwistVector, closure_components, parse_plat
from spunslice.render import render_decker


def assert_oracle_sides(ds, curve):
    assert list(side_map(ds, curve).items()) == list(side_map_faces(ds, curve).items())


def assert_oracle_report(ds, curve):
    assert criterion_report(ds, curve) == criterion_report_midpoints(ds, curve)


def kink_curves():
    """Hand-built curves on the spun kink, whose over circle is 2: the
    corrupted one, which fails both ways and leaves the north pole just west
    of longitude 0; a small disc that avoids the pole, so its anchor is the
    cap wedge at 0; and a box that crosses circle 1 at 8 and 14 and circle 2
    at 10 and 14, so the forward inclusion breaks only at midpoints 8 and 9,
    next to a crossing, where the side test does not look."""
    ds = spin_plat(KINK)
    disc = vertex_curve(2, ds.m, (2, 3, 2), ((1, 0, 10), (1, 0, 11), (1, 1, 11), (1, 1, 10)))
    box = vertex_curve(2, ds.m, (2, 3, 2), (
        (0, 1, 8), (1, 0, 8), *((1, 1, k) for k in (8, 9, 10)), (1, 2, 10),
        *((2, 0, k) for k in range(10, 15)), (1, 2, 14), (1, 1, 14), (1, 0, 14),
        *((0, 1, k) for k in range(14, 8, -1)),
    ))
    return ds, (corrupted_one_chord(ds), disc, box)


def even_twists(plat, t=2):
    return TwistVector((t,) * (plat.strands // 2))


def corpus_curves():
    manifest = shipped_manifest_path()
    for line in manifest.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, plat_file, twists, _det = line.split()
        ds = spin_plat(parse_plat((manifest.parent / plat_file).read_text()))
        if twists == "-":
            yield name, ds, trace_double_curve(ds)
        else:
            tv = TwistVector(tuple(int(t) for t in twists.split(",")))
            yield name, ds, symmetric_union_curve(ds, tv)


def test_side_map_matches_the_face_oracle_on_the_corpus():
    names = []
    for name, ds, curve in corpus_curves():
        assert_oracle_sides(ds, curve)
        names.append(name)
    assert len(names) == 16


def test_side_map_matches_the_face_oracle_on_every_t35_sweep_vector():
    ds = spin_plat(T35)
    for tv in product((-2, 0, 2), repeat=3):
        assert_oracle_sides(ds, symmetric_union_curve(ds, TwistVector(tv)))


def test_side_map_matches_the_face_oracle_on_the_ladder():
    plats = ladder_plats()
    assert [name for name, _p in plats] == [
        "6x40-0", "6x40-1", "6x40-2", "6x40-3",
        "8x60-0", "8x60-1", "8x60-2", "8x60-3", "8x60-4", "8x60-5",
        "10x150-0", "10x150-1",
    ]
    for _name, plat in plats:
        ds = spin_plat(plat)
        assert_oracle_sides(ds, symmetric_union_curve(ds, even_twists(plat)))


@pytest.mark.parametrize("m", [16, 17, 24])
def test_side_map_matches_the_face_oracle_at_each_resolution(m):
    for plat in (KINK, TREFOIL, T35, ladder_plats()[0][1]):
        ds = spin_plat(plat, m)
        assert_oracle_sides(ds, trace_double_curve(ds))
        assert_oracle_sides(ds, symmetric_union_curve(ds, even_twists(plat, -2)))


def test_side_map_matches_the_face_oracle_on_rotated_curves():
    for plat, tv in ((TREFOIL, (2, -2)), (T35, (2, 2, 2))):
        ds = spin_plat(plat)
        curve = symmetric_union_curve(ds, TwistVector(tv))
        for d in (1, 5, 12, 23, 37):
            assert_oracle_sides(ds, rotate_curve(curve, d))
            assert_oracle_report(ds, rotate_curve(curve, d))
    kink_ds, curves = kink_curves()
    for curve in curves:
        for d in (0, 1, 5, 12, 23, 37):
            assert_oracle_sides(kink_ds, rotate_curve(curve, d))
            assert_oracle_report(kink_ds, rotate_curve(curve, d))


@st.composite
def knot_plats_and_twists(draw):
    strands = draw(st.sampled_from([4, 6]))
    word = tuple(
        (draw(st.integers(1, strands - 1)), draw(st.sampled_from([1, -1])))
        for _ in range(draw(st.integers(1, 12)))
    )
    tv = tuple(2 * draw(st.integers(-2, 2)) for _ in range(strands // 2))
    return PlatWord(strands, word), TwistVector(tv)


@settings(max_examples=40, deadline=None)
@given(knot_plats_and_twists(), st.integers(0, 47))
def test_side_map_matches_the_face_oracle_on_random_plats(plat_tv, d):
    plat, tv = plat_tv
    assume(closure_components(plat) == 1)
    ds = spin_plat(plat)
    curve = symmetric_union_curve(ds, tv)
    assert_oracle_sides(ds, curve)
    assert_oracle_sides(ds, rotate_curve(curve, d))
    assert_oracle_report(ds, curve)
    assert_oracle_report(ds, rotate_curve(curve, d))
    kink_ds, curves = kink_curves()
    for curve in curves:
        assert_oracle_sides(kink_ds, rotate_curve(curve, d))
        assert_oracle_report(kink_ds, rotate_curve(curve, d))


# format_curve text of the (2, ..., 2) union curve, recorded from the
# face-tuple implementation, which classified every edge on each use
LADDER_CURVE_SHA256 = {
    "6x40-0": "382e03fd5b431a66ab8194a50c8032007435e8395ae1a3a1db66ba437ce79db1",
    "8x60-0": "3ab02ef2d10e82b5d2240bcae1a27a53d04b20dd13ec655baf9949b71de69f39",
    "10x150-0": "0ceeee2f5aa4b88fec0735dae1cc3f1c0abeb9c5366aea4199547d9bafb1680d",
}


def test_ladder_curve_texts_are_frozen():
    plats = dict(ladder_plats())
    for name, digest in LADDER_CURVE_SHA256.items():
        ds = spin_plat(plats[name])
        text = format_curve(ds, symmetric_union_curve(ds, even_twists(plats[name])))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# render_decker bytes of the union curves, recorded the same way
DECKER_SVG_SHA256 = {
    (TREFOIL, (2, 2)): "dc7916bc11637848662fdbbfc0fa9e927f52afe3a257ea6001b81fc15d355c56",
    (T35, (2, 2, 2)): "92a6a363de54440cdacf4dfaaefd8dae98fbbd8ea8334010b7e1ce39a702ab89",
}


@pytest.mark.parametrize("plat,tv", list(DECKER_SVG_SHA256), ids=["trefoil", "t35"])
def test_render_decker_bytes_are_frozen(plat, tv):
    ds = spin_plat(plat)
    svg = render_decker(ds, symmetric_union_curve(ds, TwistVector(tv)))
    assert hashlib.sha256(svg.encode()).hexdigest() == DECKER_SVG_SHA256[(plat, tv)]


# ---------------------------------------------------------------------------
# runs: the vertex-level edges, and never hiding an invalid step
# ---------------------------------------------------------------------------

def test_runs_follow_the_vertex_edges():
    # the steps inside a run are its H edges; each join is one V, X or P edge
    ds = spin_plat(TREFOIL)
    curve = trace_double_curve(ds)
    kinds = vertex_edge_kinds(curve)
    assert len(kinds) == len(curve.vertices) == curve.vertex_count
    walked = [abs(run[3]) for run in curve.runs if len(run) == 4]
    assert [kind[0] for kind in kinds].count("H") == sum(walked)
    assert len(kinds) - sum(walked) == len(curve.runs)
    assert curve.crossings() == vertex_crossings(curve)
    assert vertex_curve(curve.l, curve.m, curve.rows, curve.vertices) == curve


MALFORMED = {
    "not a grid edge": ((1, 0, 10), (1, 2, 10), (1, 1, 11)),
    "outside the grid": ((1, 0, 10), (1, 0, 11), (1, 3, 11), (1, 3, 10)),
    "longitude out of range": ((1, 0, 23), (1, 0, 24), (1, 1, 24), (1, 1, 23)),
    "non-adjacent horizontal step": ((1, 0, 10), (1, 0, 12), (1, 1, 12), (1, 1, 10)),
    "pole edge must land on region 0": (("N",), (1, 0, 10), (1, 0, 11)),
    "malformed vertices": ((1, 0, 10), (1, 0), (1, 1, 10)),
}


@pytest.mark.parametrize("message", list(MALFORMED))
def test_malformed_curves_raise_on_every_check(message):
    ds = spin_plat(KINK)
    bad = vertex_curve(2, ds.m, (2, 3, 2), MALFORMED[message])
    for _ in range(2):  # a failed classification is not kept
        with pytest.raises(PlatError, match=message):
            validate_curve(ds, bad)
        with pytest.raises(PlatError, match=message):
            bad.crossings()
        with pytest.raises(PlatError, match=message):
            side_map(ds, bad)
        with pytest.raises(PlatError, match=message):
            criterion_report(ds, bad)


def test_a_second_pole_visit_is_a_revisit():
    ds = spin_plat(KINK)
    twice = vertex_curve(2, ds.m, (2, 3, 2), (
        ("N",), (0, 0, 3), (0, 0, 4), ("N",), (0, 0, 5), (0, 0, 6),
    ))
    with pytest.raises(PlatError, match="revisits"):
        validate_curve(ds, twice)


def test_decker_lookups():
    ds = spin_plat(TREFOIL)
    assert [ds.pair_of(c) for c in range(1, ds.l + 1)] == [
        next(i for i, p in enumerate(ds.pairs, 1) if c in p[:2]) for c in range(1, ds.l + 1)
    ]
    assert [c for c in range(1, ds.l + 1) if ds.is_over(c)] == sorted(p[0] for p in ds.pairs)
    assert not ds.is_over(0) and not ds.is_over(ds.l + 1)
    with pytest.raises(PlatError, match="no such circle 7"):
        ds.pair_of(7)
