"""Doubled spun-surface diagrams and the separating-curve criterion."""

import hashlib
import itertools
import random
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    FIG8,
    KINK,
    T35,
    TREFOIL,
    UNKNOT,
    criterion_report_midpoints,
    crossing_set,
    dehn_twist_annulus,
    doubled_curve_vertices,
    format_curve,
    join_components,
    format_decker,
    parse_curve,
    parse_decker,
    rotate_curve,
    route_region_oracle,
    seeded_knot_plat,
    side_map,
    spin_chord_diagram,
    union_winds,
    validate_vertices,
    vertex_crossings,
    vertex_curve,
)
from spunslice import decker
from spunslice.corpus import shipped_manifest_path
from spunslice.diagrams import PlatError, PlatWord, TwistVector, chord_diagram_of_tangle, parse_plat
from spunslice.decker import (
    MAX_WINDING,
    NORTH,
    OVER_OFFSET,
    SOUTH,
    UNDER_OFFSET,
    SliceCurve,
    check_winding,
    criterion_report,
    spin_plat,
    symmetric_union_curve,
    trace_double_curve,
    validate_curve,
)


@pytest.fixture(scope="module")
def kink_ds():
    return spin_plat(KINK)


@pytest.fixture(scope="module")
def trefoil_ds():
    return spin_plat(TREFOIL)


@pytest.fixture(scope="module")
def trefoil_trace(trefoil_ds):
    return trace_double_curve(trefoil_ds)


# ---------------------------------------------------------------------------
# basic traces
# ---------------------------------------------------------------------------

def test_unknot_trace_is_a_polar_hexagon():
    ds = spin_plat(UNKNOT)
    assert ds.l == 0 and ds.n == 0
    curve = trace_double_curve(ds)
    assert curve.vertices == (
        ("N",), (0, 0, 23), (0, 1, 23), ("S",), (0, 1, 1), (0, 0, 1),
    )
    assert curve.crossings() == {}
    assert criterion_report(ds, curve).verdict == "pass-forward"


def test_kink_trace_passes_forward(kink_ds):
    assert kink_ds.l == 2 and kink_ds.n == 1
    curve = trace_double_curve(kink_ds)
    rep = criterion_report(kink_ds, curve)
    assert rep.verdict == "pass-forward"
    assert rep.forward and not rep.reverse
    assert all(len(v) == 2 for v in curve.crossings().values())


def test_trefoil_trace_crossings_are_frozen(trefoil_ds, trefoil_trace):
    assert trefoil_ds.l == 6 and trefoil_ds.n == 3
    assert trefoil_trace.crossings() == {
        1: (6, 18), 2: (2, 22), 3: (6, 18),
        4: (2, 22), 5: (6, 18), 6: (2, 22),
    }
    assert criterion_report(trefoil_ds, trefoil_trace).verdict == "pass-forward"


def test_side_map_flips_exactly_at_crossings(kink_ds):
    curve = trace_double_curve(kink_ds)
    sm = side_map(kink_ds, curve)
    xings = curve.crossings()
    for c in (1, 2):
        flips = 0
        for k in range(kink_ds.m):
            if sm[(c, k)] != sm[(c, (k - 1) % kink_ds.m)]:
                flips += 1
                assert k in set(xings[c])
        assert flips == len(xings[c])


# ---------------------------------------------------------------------------
# a deliberately corrupted curve fails
# ---------------------------------------------------------------------------

def corrupted_one_chord(ds):
    """Hand-built separating curve whose crossings with the over circle sit
    at the wrong longitudes ({M-10, M-6} instead of {M-2, 2}), breaking the
    one-sided containment test in both directions."""
    m = ds.m
    rows = (2, 4, 2)
    verts = [NORTH]
    verts += [(0, 0, (m - 1 - i) % m) for i in range(10)]
    verts += [(0, 1, m - 10)]
    verts += [(1, 0, m - 10), (1, 1, m - 10), (1, 2, m - 10)]
    verts += [(1, 2, m - 10 + i) for i in range(1, 5)]
    verts += [(1, 3, m - 6)]
    verts += [(2, 0, (m - 6 + i) % m) for i in range(6)]
    verts += [(2, 1, m - 1), SOUTH, (2, 1, 1)]
    verts += [(2, 1, 1 + i) for i in range(1, 6)]
    verts += [(2, 0, 6), (1, 3, 6), (1, 2, 6), (1, 1, 6)]
    verts += [(1, 1, (6 - i) % m) for i in range(1, 13)]
    verts += [(1, 0, m - 6), (0, 1, m - 6)]
    verts += [(0, 1, (m - 6 + i) % m) for i in range(1, 7)]
    verts += [(0, 0, 0)]
    return vertex_curve(2, m, rows, verts)


def test_corrupted_curve_fails_both_directions(kink_ds):
    bad = corrupted_one_chord(kink_ds)
    validate_curve(kink_ds, bad)
    rep = criterion_report(kink_ds, bad)
    assert rep.verdict == "fail"
    assert not rep.forward and not rep.reverse


def test_small_disc_curve_passes_vacuously(kink_ds):
    disc = vertex_curve(
        2, kink_ds.m, (2, 3, 2),
        ((1, 0, 10), (1, 0, 11), (1, 1, 11), (1, 1, 10)),
    )
    validate_curve(kink_ds, disc)
    rep = criterion_report(kink_ds, disc)
    assert rep.verdict.startswith("pass")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_decker_round_trip(trefoil_ds):
    assert parse_decker(format_decker(trefoil_ds)) == trefoil_ds


def test_curve_round_trip(trefoil_ds, trefoil_trace):
    ds2, c2 = parse_curve(format_curve(trefoil_ds, trefoil_trace))
    assert ds2 == trefoil_ds and c2 == trefoil_trace


def test_parse_decker_errors():
    with pytest.raises(PlatError, match="missing decker header"):
        parse_decker("")
    with pytest.raises(PlatError, match="bad decker header"):
        parse_decker("decker circles two resolution 24\n")
    good = format_decker(spin_plat(KINK))
    with pytest.raises(PlatError, match="unrecognized decker line"):
        parse_decker(good + "wobble 3\n")


def test_validate_curve_errors(kink_ds, trefoil_ds, trefoil_trace):
    with pytest.raises(PlatError, match="grid does not match"):
        validate_curve(kink_ds, trefoil_trace)
    with pytest.raises(PlatError, match="at least three vertices"):
        validate_curve(
            kink_ds,
            vertex_curve(2, 24, (1, 1, 1), ((0, 0, 0), (0, 0, 1))),
        )
    with pytest.raises(PlatError, match="revisits"):
        validate_curve(
            kink_ds,
            vertex_curve(
                2, 24, (2, 3, 2),
                ((1, 0, 10), (1, 0, 11), (1, 1, 11), (1, 1, 10), (1, 0, 10), (1, 0, 9)),
            ),
        )
    with pytest.raises(PlatError, match="not a grid edge"):
        validate_curve(
            kink_ds,
            vertex_curve(2, 24, (2, 3, 2), ((1, 0, 10), (1, 2, 10), (1, 1, 11))),
        )


def test_a_curve_is_checked_once_and_its_grid_on_every_call(kink_ds, trefoil_ds, monkeypatch):
    # the curve's own checks run when it is built; the side masks and the
    # crossings read the crossings those checks kept
    checks = []
    check = SliceCurve._crossings.func
    counted = cached_property(lambda c: (checks.append(c), check(c))[1])
    counted.__set_name__(SliceCurve, "_crossings")
    monkeypatch.setattr(SliceCurve, "_crossings", counted)
    curve = symmetric_union_curve(trefoil_ds, TwistVector((2, 2)))
    assert criterion_report(trefoil_ds, curve).verdict == "pass-forward"
    assert checks == [curve]
    with pytest.raises(PlatError, match="grid does not match"):
        validate_curve(kink_ds, curve)
    revisits = vertex_curve(curve.l, curve.m, curve.rows, curve.vertices + curve.vertices[:1])
    for _ in range(2):
        with pytest.raises(PlatError, match="revisits"):
            validate_curve(trefoil_ds, revisits)


# ---------------------------------------------------------------------------
# twisted curves
# ---------------------------------------------------------------------------

def test_union_curve_at_zero_twists_is_the_trace(trefoil_ds, trefoil_trace):
    assert symmetric_union_curve(trefoil_ds, TwistVector((0, 0))) == trefoil_trace


def test_union_curves_keep_crossings_and_verdict(trefoil_ds, trefoil_trace):
    want = crossing_set(trefoil_trace)
    for tv in [(2, 2), (2, -2), (-4, 2), (0, 6)]:
        cur = symmetric_union_curve(trefoil_ds, TwistVector(tv))
        assert crossing_set(cur) == want
        assert criterion_report(trefoil_ds, cur).verdict == "pass-forward"
        ds2, cur2 = parse_curve(format_curve(trefoil_ds, cur))
        assert cur2 == cur


def test_union_curve_rejects_odd_twists(trefoil_ds):
    with pytest.raises(PlatError, match="odd"):
        symmetric_union_curve(trefoil_ds, TwistVector((1, 2)))


@pytest.mark.parametrize(
    "plat,tvs",
    [
        (FIG8, [(0, 0), (2, 2), (2, -2), (4, 2), (-2, 6)]),
        (T35, [(0, 0, 0), (2, 2, 2), (2, -2, 2), (0, 4, -2), (6, 2, 0)]),
    ],
    ids=["fig8", "t35"],
)
def test_twist_batteries_keep_the_trace_verdict(plat, tvs):
    ds = spin_plat(plat)
    trace = trace_double_curve(ds)
    verdict = criterion_report(ds, trace).verdict
    assert verdict in ("pass-forward", "pass-reverse")
    for tv in tvs:
        cur = symmetric_union_curve(ds, TwistVector(tv))
        assert crossing_set(cur) == crossing_set(trace)
        assert criterion_report(ds, cur).verdict == verdict


def twist_oracle(ds, tv):
    """The doubled curve, then one Dehn twist per wound band: the union
    curve built in two routing passes."""
    cur = trace_double_curve(ds)
    for t, region in zip(tv, ds.bridge_annuli):
        if region is not None and t != 0:
            cur = dehn_twist_annulus(ds, cur, region, t // 2)
    return cur


@st.composite
def knot_plats_with_even_twists(draw):
    strands = draw(st.sampled_from([4, 6, 8]))
    word = [
        (draw(st.integers(1, strands - 1)), draw(st.sampled_from([1, -1])))
        for _ in range(draw(st.integers(0, 16)))
    ]
    plat = PlatWord(strands, join_components(strands, word, 1))
    tv = tuple(2 * draw(st.integers(-3, 3)) for _ in range(plat.bridges))
    return plat, tv, draw(st.sampled_from([16, 17, 24, 31, 64]))


@settings(max_examples=60, deadline=None)
@given(knot_plats_with_even_twists())
def test_one_routing_pass_equals_the_twist_oracle(plat_tv_m):
    plat, tv, m = plat_tv_m
    ds = spin_plat(plat, m)
    assert symmetric_union_curve(ds, TwistVector(tv)) == twist_oracle(ds, tv)


@pytest.mark.parametrize("tv", list(itertools.product((-2, 0, 2), repeat=3)))
def test_one_routing_pass_equals_the_twist_oracle_on_the_t35_sweep(tv):
    ds = spin_plat(T35)
    assert symmetric_union_curve(ds, TwistVector(tv)) == twist_oracle(ds, tv)


@settings(max_examples=20, deadline=None)
@example((0, 2, -4))
@given(st.tuples(*[st.integers(-3, 3).map(lambda t: 2 * t)] * 3))
def test_each_annulus_is_routed_once_whatever_the_twists(tv):
    ds = spin_plat(T35)
    route = decker._route_region
    calls = []

    def counting(m, arcs):
        calls.append(arcs)
        return route(m, arcs)

    with mock.patch.object(decker, "_route_region", counting):
        symmetric_union_curve(ds, TwistVector(tv))
    assert len(calls) == ds.l - 1


@settings(max_examples=200, deadline=None)
@example(16, OVER_OFFSET, UNDER_OFFSET, -8)
@example(4096, UNDER_OFFSET, OVER_OFFSET, 8)
@example(17, UNDER_OFFSET, UNDER_OFFSET, 0)
@given(
    st.integers(16, 4096),
    st.sampled_from([OVER_OFFSET, UNDER_OFFSET]),
    st.sampled_from([OVER_OFFSET, UNDER_OFFSET]),
    st.integers(-8, 8),
)
def test_two_strand_router_equals_the_general_router(m, top, bottom, winds):
    # the descending and the ascending strand of one annulus, as the
    # doubled curve describes them
    arcs = [
        (m - top, m - bottom, decker._short_rep(top - bottom, m) + winds * m),
        (top, bottom, decker._short_rep(bottom - top, m) + winds * m),
    ]
    rows, paths = decker._route_region(m, arcs)
    expanded = [
        [(r, (k + i * (1 if n > 0 else -1)) % m) for r, k, n in path for i in range(abs(n) + 1)]
        for path in paths
    ]
    assert (rows, expanded) == route_region_oracle(m, arcs)


def checked(check, ds, curve) -> bool:
    try:
        check(ds, curve)
    except PlatError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(knot_plats_with_even_twists(), st.data())
def test_runs_agree_with_the_vertex_level_curve(plat_tv_m, data):
    # the union curve as runs against the same curve built one vertex at a
    # time: vertices, count, crossings and side test; then, six times, one
    # vertex dropped, repeated, walked back to, moved a step east, up or
    # down, or swapped with the one before it, which both checks must accept
    # or refuse alike, or moved a full turn, to longitude k + M, which both
    # must refuse
    plat, tv, m = plat_tv_m
    ds = spin_plat(plat, m)
    curve = symmetric_union_curve(ds, TwistVector(tv))
    rows, verts = doubled_curve_vertices(ds, union_winds(ds, tv))
    assert (curve.rows, curve.vertices) == (rows, verts)
    assert curve.vertex_count == len(verts)
    assert curve.crossings() == vertex_crossings(curve)
    assert criterion_report(ds, curve) == criterion_report_midpoints(ds, curve)
    moved = {"east": (0, 1), "up": (-1, 0), "down": (1, 0)}
    for _ in range(6):
        i = data.draw(st.integers(1, len(verts) - 1))
        how = data.draw(st.sampled_from(["drop", "repeat", "back", "swap", "turn", *moved]))
        damaged = list(verts)
        if how == "drop":
            del damaged[i]
        elif how == "repeat":
            damaged.insert(i, verts[i])
        elif how == "back":  # ... u, v, u, v ...
            damaged[i + 1:i + 1] = verts[i - 1:i + 1]
        elif how == "swap":
            damaged[i - 1], damaged[i] = verts[i], verts[i - 1]
        elif how == "turn" and len(verts[i]) == 3:
            region, row, k = verts[i]
            damaged[i] = (region, row, k + m)
        elif how in moved and len(verts[i]) == 3:
            (region, row, k), (dr, dk) = verts[i], moved[how]
            damaged[i] = (region, row + dr, (k + dk) % m)
        bad = vertex_curve(ds.l, m, rows, damaged)
        valid = checked(validate_vertices, ds, bad)
        assert checked(validate_curve, ds, bad) == valid
        assert not (valid and how == "turn" and len(verts[i]) == 3)
        if valid:
            assert bad.vertex_count == len(bad.vertices)
            assert bad.crossings() == vertex_crossings(bad)
            assert criterion_report(ds, bad) == criterion_report_midpoints(ds, bad)


def shipped_knot(name: str) -> PlatWord:
    return parse_plat((shipped_manifest_path().parent / "plats" / f"{name}.plat").read_text())


@st.composite
def knot_plats_resolutions_and_even_twists(draw):
    """A knotted shipped plat or a seeded random knot plat on 4-8 strands,
    M = 16 or 24, and an even twist vector with entries up to 40."""
    plat = draw(st.one_of(
        st.sampled_from(["trefoil", "figure8", "t25", "k5_2", "t35"]).map(shipped_knot),
        st.builds(
            seeded_knot_plat, st.integers(0, 10**6), st.sampled_from([4, 6, 8]), st.integers(8, 24)
        ),
    ))
    tv = tuple(2 * draw(st.integers(-20, 20)) for _ in range(plat.bridges))
    return plat, TwistVector(tv), draw(st.sampled_from([16, 24]))


@settings(max_examples=60, deadline=None)
@given(knot_plats_resolutions_and_even_twists())
def test_the_side_test_does_not_read_the_twists(plat_tv_m):
    # a full turn of one strand flips every column of its annulus once, and
    # both strands turn |t|/2 times, so every column flips an even number of
    # times and the sides are the doubled curve's
    plat, tv, m = plat_tv_m
    ds = spin_plat(plat, m)
    assert criterion_report(ds, symmetric_union_curve(ds, tv)) == criterion_report(
        ds, trace_double_curve(ds)
    )


def test_t35_sweep_and_long_twist_curves_are_pinned():
    # the first 16 hex digits of sha256(repr([(rows, vertices) ...]))
    ds = spin_plat(T35)
    tvs = list(itertools.product((-2, 0, 2), repeat=3)) + [(1000, 1000, 1000)]
    curves = [symmetric_union_curve(ds, TwistVector(tv)) for tv in tvs]
    digest = hashlib.sha256(repr([(c.rows, c.vertices) for c in curves]).encode()).hexdigest()
    assert digest[:16] == "f33498a47643d9c5"


def test_slice_curve_winding_is_bounded_before_any_routing():
    assert MAX_WINDING == 2**18
    # exactly at the bound, and cap 1, which carries the cut, never winds
    check_winding(4096, TwistVector((0, 64, 64)))
    check_winding(4096, TwistVector((10**6, 64, 64)))
    check_winding(24, TwistVector((1000, 1000, 1000)))
    ds = spin_plat(T35, 4096)
    message = "twists wind 266240 longitudes at resolution 4096; at most 262144"
    with mock.patch.object(decker, "_route_region", side_effect=AssertionError("routed")):
        with pytest.raises(PlatError, match=message):
            check_winding(4096, TwistVector((0, 64, 66)))
        with pytest.raises(PlatError, match=message):
            symmetric_union_curve(ds, TwistVector((0, 64, 66)))


# ---------------------------------------------------------------------------
# moves that must not change the verdict
# ---------------------------------------------------------------------------

def test_dehn_twists_preserve_crossings_and_verdict(trefoil_ds, trefoil_trace):
    rng = random.Random(7)
    cur = trefoil_trace
    for _ in range(8):
        region = rng.randrange(1, trefoil_ds.l)
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        cur = dehn_twist_annulus(trefoil_ds, cur, region, n)
        validate_curve(trefoil_ds, cur)
        assert crossing_set(cur) == crossing_set(trefoil_trace)
        assert criterion_report(trefoil_ds, cur).verdict == "pass-forward"


def test_zero_twist_is_the_identity(trefoil_ds, trefoil_trace):
    assert dehn_twist_annulus(trefoil_ds, trefoil_trace, 2, 0) is trefoil_trace


def test_twisting_a_nonannulus_region_is_rejected(kink_ds):
    disc = vertex_curve(
        2, kink_ds.m, (2, 3, 2),
        ((1, 0, 10), (1, 0, 11), (1, 1, 11), (1, 1, 10)),
    )
    with pytest.raises(PlatError):
        dehn_twist_annulus(kink_ds, disc, 1, 1)


def test_rotations_preserve_the_verdict(trefoil_ds, trefoil_trace):
    for d in (1, 5, 11, 23):
        cur = rotate_curve(trefoil_trace, d)
        validate_curve(trefoil_ds, cur)
        assert criterion_report(trefoil_ds, cur).verdict == "pass-forward"


def test_full_rotation_is_the_identity(trefoil_ds, trefoil_trace):
    cur = rotate_curve(trefoil_trace, trefoil_ds.m)
    assert cur == trefoil_trace


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-48, max_value=48))
def test_rotation_by_any_amount_keeps_kink_verdict(d):
    ds = spin_plat(KINK)
    trace = trace_double_curve(ds)
    cur = rotate_curve(trace, d)
    validate_curve(ds, cur)
    assert criterion_report(ds, cur).verdict == "pass-forward"


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(-2, 2).filter(lambda n: n != 0)),
        min_size=1,
        max_size=4,
    )
)
def test_twist_sequences_keep_trefoil_verdict(moves):
    ds = spin_plat(TREFOIL)
    cur = trace_double_curve(ds)
    for region, n in moves:
        cur = dehn_twist_annulus(ds, cur, region, n)
    assert criterion_report(ds, cur).verdict == "pass-forward"


# ---------------------------------------------------------------------------
# resolution handling
# ---------------------------------------------------------------------------

def test_tiny_resolution_is_rejected():
    cd = chord_diagram_of_tangle(TREFOIL)
    with pytest.raises(PlatError):
        spin_chord_diagram(cd, 4)


def test_spin_plat_and_spin_chord_agree(trefoil_ds):
    # the chord diagram alone carries no bridge/twist-region data, so that
    # field stays unset; the doubled-curve combinatorics must coincide
    ds = spin_chord_diagram(chord_diagram_of_tangle(TREFOIL), 24)
    assert (ds.n, ds.l, ds.m, ds.pairs) == (
        trefoil_ds.n, trefoil_ds.l, trefoil_ds.m, trefoil_ds.pairs,
    )


def test_higher_resolution_still_passes():
    ds = spin_plat(KINK, 32)
    assert ds.m == 32
    assert criterion_report(ds, trace_double_curve(ds)).verdict == "pass-forward"


@pytest.mark.parametrize("m", [8, 15])
def test_decker_sets_below_the_one_bound_are_rejected_where_built(m):
    message = f"resolution {m} too small for the doubled curve; need at least 16"
    with pytest.raises(PlatError, match=message):
        spin_plat(TREFOIL, m)
    text = format_decker(spin_plat(TREFOIL)).replace("resolution 24", f"resolution {m}")
    with pytest.raises(PlatError, match=message):
        parse_decker(text)


def test_decker_sets_up_to_the_upper_bound_are_built():
    assert spin_plat(TREFOIL, 4096).m == 4096
    with pytest.raises(PlatError, match="resolution 4097 too large; at most 4096"):
        spin_plat(TREFOIL, 4097)
