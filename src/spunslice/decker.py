"""Spun-knot double-point sets and combinatorial slice curves.

Spinning a knotted arc sweeps a 2-sphere inside the 4-sphere; the double
points of its projection sweep latitude circles that come in over/under
pairs, glued by a longitude-preserving identification.  This module models
that sphere as a finite grid:

* latitude circles 1..L (L = 2n for n chords), ordered north to south by
  the passage order of the arc;
* L+1 complement regions: region 0 is the north polar disc, region L the
  south polar disc, the rest are annuli (region l lies between circles l
  and l+1);
* each region carries a small stack of grid rows; a vertex is
  ``(region, row, longitude)`` with longitudes sampled 0..M-1, plus one
  vertex per pole.

A curve is a vertex-simple cycle built from horizontal steps (H), row
steps within a region (V), circle crossings (X), and pole edges (P).  Each
annulus carries exactly the doubled curve's two strands, one descending and
one ascending.  The row coordinate is purely radial bookkeeping: it lets the
two strands share an annulus and wind full longitudes without touching.
Crossing data -- which circle is crossed at which longitude -- is the only
geometrically meaningful part and is what every check below consumes.  A
curve classifies its edges once (`SliceCurve.edge_kinds`); validation,
crossings and the side test all read that classification.  A band's winds
are part of the route: the two strands of its annulus are routed once, with
the winds added to their displacement, so no built curve is routed again.

The side test: a vertex-simple cycle separates the sphere into exactly two
faces.  A curve bounds a slice disc on one side of the identified surface
when, for every pair, the side-1 sweep of the over circle maps into the
side-1 sweep of the under circle (forward), or the same with over and
under swapped (reverse).  We 2-colour the complement combinatorially and
evaluate both inclusions at every midpoint between longitude samples.

The colouring is the even-odd rule.  The grid's cells are the cap wedges
between consecutive pole edges and, in each region, the cells between
consecutive rows (or a row and a circle) spanning longitudes k..k+1.  By the
Jordan curve theorem a cell's side is the parity of the curve edges crossed
on any walk to it from the anchor cell.  The walk from north cap wedge k
straight south to the cell straddling circle c at longitude k crosses only
the horizontal edges of regions 0..c-1 in column k, so one M-bit int per
region, its columns with an odd number of curve edges, gives every circle's
sides by XOR; the wedges take theirs from the pole edges the curve uses.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .diagrams import (
    ChordDiagram,
    PlatError,
    PlatWord,
    Record,
    TwistVector,
    bridge_regions,
    chord_diagram_of_tangle,
)

__all__ = [
    "DeckerSet",
    "SliceCurve",
    "check_winding",
    "criterion_report",
    "spin_plat",
    "symmetric_union_curve",
    "trace_double_curve",
]

DEFAULT_RESOLUTION = 24
# Sector layout of the doubled curve: its ascending strand keeps to
# longitudes OVER_OFFSET..UNDER_OFFSET east of the seam, its descending strand
# to the mirror sector west of it, and 16 keeps the two sectors well apart.
MIN_RESOLUTION = 16
# The crossing data never needs more than a few dozen longitudes; time and
# memory grow linearly in M (each band wind walks M longitudes), and 4096
# keeps one slice check well under a second and 30 MB.
MAX_RESOLUTION = 4096
# Each band wind walks M longitudes in both strands of its annulus, so a
# slice curve has about 2 * M * sum(|t_j| / 2, j >= 2) vertices.  2**18
# winding longitudes (about 525,000 vertices) keeps one slice curve near a
# second and 150 MB; (1000, 1000, 1000) still runs at the default M = 24.
MAX_WINDING = 2**18

NORTH = ("N",)
SOUTH = ("S",)

# Longitude offsets of the doubled curve: the descending strand crosses a
# circle at M - offset, the ascending strand at + offset.  Over circles are
# crossed close to the seam, under circles wide of it, so the side-1 sweep
# of an over circle nests inside that of its under partner.
OVER_OFFSET = 2
UNDER_OFFSET = 6


# ---------------------------------------------------------------------------
# decker sets


class DeckerSet(Record):
    """Latitude-circle pairing data of a spun knotted arc.

    pairs[i] = (over_circle, under_circle, sign), circles numbered 1..L in
    latitude order, each sampled at m longitudes, MIN_RESOLUTION <= m <=
    MAX_RESOLUTION.  The identification of the two circles of a pair matches
    equal longitude samples.  bridge_annuli, present when the set was built
    from a plat, maps each cap (1-based, entry j-1) to the annulus region
    swept by its arc; the first cap carries the cut and has no annulus.
    """

    _fields = ("n", "l", "m", "pairs", "bridge_annuli")

    def __init__(
        self,
        n: int,
        l: int,
        m: int,
        pairs: tuple[tuple[int, int, int], ...],
        bridge_annuli: tuple[int | None, ...] | None = None,
    ):
        if l != 2 * n or len(pairs) != n:
            raise PlatError("decker set needs 2n circles in n pairs")
        if m < MIN_RESOLUTION:
            raise PlatError(
                f"resolution {m} too small for the doubled curve; "
                f"need at least {MIN_RESOLUTION}"
            )
        if m > MAX_RESOLUTION:
            raise PlatError(f"resolution {m} too large; at most {MAX_RESOLUTION}")
        seen = sorted(c for over, under, _s in pairs for c in (over, under))
        if seen != list(range(1, l + 1)):
            raise PlatError("pairs must partition circles 1..L")
        for over, under, sign in pairs:
            if over == under:
                raise PlatError("a circle cannot pair with itself")
            if sign not in (-1, 1):
                raise PlatError("pair sign must be +1 or -1")
        self.n, self.l, self.m, self.pairs, self.bridge_annuli = n, l, m, pairs, bridge_annuli

    @cached_property
    def _roles(self) -> dict[int, tuple[int, bool]]:
        # circle -> (1-based pair index, is the over circle)
        return {
            c: (i, c == over)
            for i, (over, under, _s) in enumerate(self.pairs, start=1)
            for c in (over, under)
        }

    def pair_of(self, circle: int) -> int:
        """1-based pair index the circle belongs to."""
        if circle not in self._roles:
            raise PlatError(f"no such circle {circle}")
        return self._roles[circle][0]

    def is_over(self, circle: int) -> bool:
        return self._roles.get(circle, (0, False))[1]


def _pairs(cd: ChordDiagram) -> tuple[tuple[int, int, int], ...]:
    """(over, under, sign) per chord: the circle pairs of the spun tangle."""
    return tuple((a, b, s) for (a, b), s in zip(cd.chords, cd.signs))


def spin_plat(plat: PlatWord, m: int = DEFAULT_RESOLUTION) -> DeckerSet:
    """Decker set of the spun plat, with cap-annulus data for band twisting."""
    cd = chord_diagram_of_tangle(plat)
    regions = bridge_regions(plat)
    annuli = tuple(regions[j] for j in range(1, plat.bridges + 1))
    return DeckerSet(cd.n, 2 * cd.n, m, _pairs(cd), annuli)


# ---------------------------------------------------------------------------
# curves


class SliceCurve(Record):
    """A vertex-simple cycle on the grid sphere.

    vertices lists the cycle in order; the edge from the last vertex back
    to the first is implied.  rows[region] is the number of grid rows the
    curve's routing uses in that region (row 0 abuts the region's north
    boundary, row rows-1 its south boundary).
    """

    _fields = ("l", "m", "rows", "vertices")

    def __init__(self, l: int, m: int, rows: tuple[int, ...], vertices: tuple[tuple, ...]):
        if len(rows) != l + 1:
            raise PlatError("need one row count per region")
        if any(r < 1 for r in rows):
            raise PlatError("every region needs at least one row")
        self.l, self.m, self.rows, self.vertices = l, m, rows, vertices

    def edges(self):
        verts = self.vertices
        return zip(verts, verts[1:] + verts[:1])

    @cached_property
    def edge_kinds(self) -> tuple[tuple, ...]:
        """Kind of each edge of edges(), in order, classified on first use:
        ("H", +-1) east or west, ("V", +-1) down or up a row, ("X", circle,
        longitude) or ("P", "N" | "S").  Raises PlatError at the first edge
        that is not a grid edge, on every access."""
        lng, m, rows = self.l, self.m, self.rows
        kinds = []
        for u, v in self.edges():
            if len(u) != 3 or len(v) != 3:
                kinds.append(self._pole_kind(u, v))
                continue
            lu, ru, ku = u
            lv, rv, kv = v
            if not (0 <= lu <= lng and 0 <= ru < rows[lu]):
                raise PlatError(f"vertex {u} outside the grid")
            if not (0 <= lv <= lng and 0 <= rv < rows[lv]):
                raise PlatError(f"vertex {v} outside the grid")
            if not (0 <= ku < m and 0 <= kv < m):
                raise PlatError("longitude out of range")
            if lu == lv and ru == rv:
                if (ku + 1) % m == kv:
                    kinds.append(("H", 1))
                elif (kv + 1) % m == ku:
                    kinds.append(("H", -1))
                else:
                    raise PlatError(f"non-adjacent horizontal step {u} -> {v}")
            elif lu == lv and ku == kv and abs(ru - rv) == 1:
                kinds.append(("V", rv - ru))
            elif ku == kv and lv == lu + 1 and ru == rows[lu] - 1 and rv == 0:
                kinds.append(("X", lv, ku))  # crossing circle lv southward
            elif ku == kv and lu == lv + 1 and rv == rows[lv] - 1 and ru == 0:
                kinds.append(("X", lu, ku))  # crossing circle lu northward
            else:
                raise PlatError(f"not a grid edge: {u} -> {v}")
        return tuple(kinds)

    def _pole_kind(self, u: tuple, v: tuple) -> tuple:
        if u == NORTH or u == SOUTH:
            u, v = v, u
        if v == NORTH:
            if len(u) == 3 and u[0] == 0 and u[1] == 0:
                return ("P", "N")
            raise PlatError(f"pole edge must land on region 0 row 0, not {u}")
        if v == SOUTH:
            if len(u) == 3 and u[0] == self.l and u[1] == self.rows[self.l] - 1:
                return ("P", "S")
            raise PlatError(f"pole edge must land on the last row of region {self.l}")
        raise PlatError(f"malformed vertices {u} -> {v}")

    def crossings(self) -> dict[int, tuple[int, ...]]:
        """Sorted crossing longitudes per circle."""
        out: dict[int, list[int]] = {}
        for kind in self.edge_kinds:
            if kind[0] == "X":
                out.setdefault(kind[1], []).append(kind[2])
        return {c: tuple(sorted(ks)) for c, ks in sorted(out.items())}


def validate_curve(ds: DeckerSet, curve: SliceCurve) -> None:
    """Raise PlatError unless the curve is a valid simple cycle on ds.  The
    grid is checked against ds on every call; the vertex and parity checks
    run once per curve, whose success is kept on the curve object."""
    if curve.l != ds.l or curve.m != ds.m:
        raise PlatError("curve grid does not match the decker set")
    if "_simple" in curve.__dict__:
        return
    if len(curve.vertices) < 3:
        raise PlatError("a cycle needs at least three vertices")
    if len(set(curve.vertices)) != len(curve.vertices):
        raise PlatError("curve revisits a vertex")
    counts: dict[int, int] = {}
    for kind in curve.edge_kinds:
        if kind[0] == "X":
            counts[kind[1]] = counts.get(kind[1], 0) + 1
    for circle, count in counts.items():
        if count % 2:
            raise PlatError(
                f"curve crosses circle {circle} an odd number of times"
            )
    curve._simple = True


# ---------------------------------------------------------------------------
# region routing

# An annulus's two strands are routed as "downward" paths: row 0 at the north
# boundary, last row at the south.  A descriptor is (top longitude, bottom
# longitude, S) where S is the total signed eastward displacement the path
# must accumulate (S == bottom - top mod M; each extra full wind adds M).


def _short_rep(delta: int, m: int) -> int:
    """Representative of delta mod m in (-m/2, m/2]."""
    d = delta % m
    if d > m // 2:
        d -= m
    return d


def _route_region(m: int, arcs: list[tuple[int, int, int]]):
    """Route the doubled curve's two strands down one annulus.

    arcs holds the descending and the ascending strand, both as downward
    descriptors with the same extra winds; their entries, exits and short
    walks lie in the disjoint sectors around the seam.  Returns (rows,
    paths); paths[i] is a list of (row, longitude) for the i-th descriptor.
    Without a full turn each strand walks its short path on row 1.  With
    winds the strands leapfrog: on each row each one walks from where it
    is to just short of where the other started that row.
    """
    if all(abs(s) <= m // 2 for _t, _b, s in arcs):
        paths = []
        for top, bot, s in arcs:
            step = 1 if s > 0 else -1
            walk = [(1, (top + step * i) % m) for i in range(abs(s) + 1)]
            paths.append([(0, top)] + walk + [(2, bot)])
        return 3, paths
    sigma = 1 if arcs[0][2] > 0 else -1
    pos = [top for top, _b, _s in arcs]
    left = [abs(s) for _t, _b, s in arcs]
    paths = [[(0, top)] for top in pos]
    row = 0
    while left[0] or left[1]:
        row += 1
        gap = (pos[1] - pos[0]) * sigma % m
        for i, room in enumerate((gap, m - gap)):
            run = min(left[i], room - 1)
            paths[i].extend((row, (pos[i] + sigma * t) % m) for t in range(run + 1))
            pos[i] = (pos[i] + sigma * run) % m
            left[i] -= run
    for path, (_t, bot, _s) in zip(paths, arcs):
        path.append((row + 1, bot))
    return row + 2, paths


# ---------------------------------------------------------------------------
# the doubled curve and the even symmetric union


def _build_trace(ds: DeckerSet, winds: dict[int, int]) -> SliceCurve:
    """The doubled curve, both strands in annulus region r winding winds[r]
    extra full turns."""
    m = ds.m
    if ds.l == 0:
        verts = [NORTH, (0, 0, m - 1), (0, 1, m - 1), SOUTH, (0, 1, 1), (0, 0, 1)]
        return SliceCurve(0, m, (2,), tuple(verts))
    # crossing longitude per circle: the ascending strand at +offset, tight
    # on over circles and wide on under ones; the descending strand at M - offset
    up = {c: OVER_OFFSET if ds.is_over(c) else UNDER_OFFSET for c in range(1, ds.l + 1)}
    down = {c: m - k for c, k in up.items()}
    rows = [2] + [3] * (ds.l - 1) + [2]
    annulus_paths: dict[int, list[list]] = {}
    for region in range(1, ds.l):
        wind = winds.get(region, 0) * m
        arcs = [
            (down[region], down[region + 1], _short_rep(down[region + 1] - down[region], m) + wind),
            # ascending strand, described as a downward path (reversed later)
            (up[region], up[region + 1], _short_rep(up[region + 1] - up[region], m) + wind),
        ]
        rows[region], annulus_paths[region] = _route_region(m, arcs)

    def region_vertices(region: int, path) -> list[tuple]:
        return [(region, r, k) for r, k in path]

    desc: list[tuple] = [NORTH]
    # north disc: walk row 0 from the pole column to the first crossing
    walk = _walk_longitudes(m - 1, down[1], m)
    desc.extend((0, 0, k) for k in walk)
    desc.append((0, 1, down[1]))
    for region in range(1, ds.l):
        desc.extend(region_vertices(region, annulus_paths[region][0]))
    # south disc: enter at the last circle's longitude, walk to the pole column
    walk = _walk_longitudes(down[ds.l], m - 1, m)
    desc.extend((ds.l, 0, k) for k in walk)
    desc.append((ds.l, 1, m - 1))
    desc.append(SOUTH)
    asc: list[tuple] = []
    walk = _walk_longitudes(1, up[ds.l], m)
    asc.append((ds.l, 1, 1))
    asc.extend((ds.l, 1, k) for k in walk[1:])
    asc.append((ds.l, 0, up[ds.l]))
    for region in range(ds.l - 1, 0, -1):
        asc.extend(
            (region, r, k) for r, k in reversed(annulus_paths[region][1])
        )
    walk = _walk_longitudes(up[1], 1, m)
    asc.append((0, 1, up[1]))
    asc.extend((0, 1, k) for k in walk[1:])
    asc.append((0, 0, 1))
    curve = SliceCurve(ds.l, m, tuple(rows), tuple(desc + asc))
    validate_curve(ds, curve)
    return curve


def _walk_longitudes(start: int, end: int, m: int) -> list[int]:
    """Longitudes visited walking the short way from start to end."""
    s = _short_rep(end - start, m)
    step = 1 if s > 0 else -1
    return [(start + step * i) % m for i in range(abs(s) + 1)]


def trace_double_curve(ds: DeckerSet) -> SliceCurve:
    """The doubled-knot curve: down one seam of the sphere and back.

    The descending strand crosses circle c at longitude M - offset(c) and
    the ascending strand at + offset(c), with a tight offset on over
    circles and a wide one on under circles, so that each over circle's
    side-1 sweep nests inside its partner's.
    """
    return _build_trace(ds, {})


def check_winding(m: int, tv: TwistVector) -> None:
    """Raise PlatError when the band winds of tv at resolution m walk more
    than MAX_WINDING longitudes.  The first cap carries the cut and does not
    wind."""
    winding = m * sum(abs(t) // 2 for t in tv.entries[1:])
    if winding > MAX_WINDING:
        raise PlatError(
            f"twists wind {winding} longitudes at resolution {m}; at most {MAX_WINDING}"
        )


def symmetric_union_curve(ds: DeckerSet, tv: TwistVector) -> SliceCurve:
    """Slice curve of the even symmetric union: doubled curve plus band winds.

    Each cap's half-twist count t must be even; both strands in its annulus
    wind t/2 extra full turns, routed in the same pass that routes the
    doubled curve, so the crossing data is the doubled curve's.  The first
    cap carries the cut through the poles and needs no winding.
    """
    if ds.bridge_annuli is None:
        raise PlatError(
            "decker set lacks cap-annulus data; build it with spin_plat"
        )
    tv.validate(len(ds.bridge_annuli))
    check_winding(ds.m, tv)
    winds: dict[int, int] = {}
    for t, region in zip(tv, ds.bridge_annuli):
        if region is None or t == 0:
            continue
        if not 1 <= region <= ds.l - 1:
            raise PlatError(f"region {region} is not an annulus")
        winds[region] = winds.get(region, 0) + t // 2
    return _build_trace(ds, winds)


# ---------------------------------------------------------------------------
# two-colouring and the slice criterion


class CriterionReport(NamedTuple):
    """Outcome of the side test: which inclusion directions hold."""

    verdict: str  # pass-forward | pass-reverse | fail
    forward: bool
    reverse: bool


def _side_masks(ds: DeckerSet, curve: SliceCurve) -> list[int]:
    """Sides of the midpoints of circles 1..L, one M-bit int per circle:
    bit k is set when midpoint (c, k) lies on side 2."""
    validate_curve(ds, curve)
    m, verts = curve.m, curve.vertices
    # per region, the columns where the curve has an odd number of H edges
    crossed = [0] * (curve.l + 1)
    for (u, v), kind in zip(curve.edges(), curve.edge_kinds):
        if kind[0] == "H":
            crossed[u[0]] ^= 1 << (u[2] if kind[1] > 0 else v[2])
    # the anchor wedge lies on side 1; through the pole, the curve leaves at
    # longitude a and arrives at b, so the wedges b..a-1 lie on side 2
    side = 0
    if NORTH in verts:
        i = verts.index(NORTH)
        a, b = verts[(i + 1) % len(verts)][2], verts[i - 1][2]
        run = (1 << (a - b) % m) - 1
        side = (run << b | run >> (m - b)) & ((1 << m) - 1)
    masks = []
    for region in range(curve.l):
        side ^= crossed[region]
        masks.append(side)
    return masks


def criterion_report(ds: DeckerSet, curve: SliceCurve) -> CriterionReport:
    """Evaluate both inclusion directions of the side test."""
    sides = _side_masks(ds, curve)
    crossings = curve.crossings()
    m = curve.m
    forward = True
    reverse = True
    for over, under, _sign in ds.pairs:
        # midpoints k-1 and k are adjacent to a crossing at longitude k
        keep = (1 << m) - 1
        for k in crossings.get(over, ()) + crossings.get(under, ()):
            keep &= ~(1 << k | 1 << (k - 1) % m)
        so, su = sides[over - 1], sides[under - 1]
        if su & ~so & keep:  # over on side 1 where under is on side 2
            forward = False
        if so & ~su & keep:
            reverse = False
    if forward:
        verdict = "pass-forward"
    elif reverse:
        verdict = "pass-reverse"
    else:
        verdict = "fail"
    return CriterionReport(verdict, forward, reverse)
