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
steps within a region (V), circle crossings (X), and pole edges (P).  The
row coordinate is purely radial bookkeeping: it lets several strands share
a region and lets a strand wind full longitudes without touching itself.
Crossing data -- which circle is crossed at which longitude -- is the only
geometrically meaningful part and is what every check below consumes.  A
curve classifies its edges once (`SliceCurve.edge_kinds`); validation,
crossings, twisting and serialization all read that classification.

The side test: a vertex-simple cycle separates the sphere into exactly two
faces.  A curve bounds a slice disc on one side of the identified surface
when, for every pair, the side-1 sweep of the over circle maps into the
side-1 sweep of the under circle (forward), or the same with over and
under swapped (reverse).  We 2-colour the complement combinatorially and
evaluate both inclusions at every midpoint between longitude samples.

The colouring runs on one cylinder grid.  Stacking the rows of all regions
gives global rows 0..G-1 (G = sum of rows); region r starts at global row
start[r].  A face is (f, k) with f in 0..G, spanning longitudes k..k+1
between global rows f-1 and f, and has the integer id f*M + k.  Face f = 0
is the north cap, f = G the south cap, and f = start[c] straddles circle c.
Face (f, k) meets (f, k+1) across the edge at longitude k+1 (a row step, a
circle crossing, or at the caps a pole edge) and meets (f+1, k) across the
horizontal edge on global row f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .diagrams import (
    ChordDiagram,
    PlatError,
    PlatWord,
    TwistVector,
    bridge_regions,
    chord_diagram_of_tangle,
)

__all__ = [
    "CriterionReport",
    "DeckerSet",
    "SliceCurve",
    "check_slice_criterion",
    "criterion_report",
    "dehn_twist_annulus",
    "format_curve",
    "format_decker",
    "parse_curve",
    "parse_decker",
    "rotate_curve",
    "side_map",
    "spin_chord_diagram",
    "spin_plat",
    "symmetric_union_curve",
    "trace_double_curve",
    "validate_curve",
]

DEFAULT_RESOLUTION = 24
# Sector layout of the doubled curve: its ascending strand keeps to
# longitudes OVER_OFFSET..UNDER_OFFSET east of the seam, its descending strand
# to the mirror sector west of it, and 16 keeps the two sectors well apart.
MIN_RESOLUTION = 16

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


@dataclass(frozen=True)
class DeckerSet:
    """Latitude-circle pairing data of a spun knotted arc.

    pairs[i] = (over_circle, under_circle, sign), circles numbered 1..L in
    latitude order, each sampled at m >= MIN_RESOLUTION longitudes.  The
    identification of the two circles of a pair matches equal longitude
    samples.  bridge_annuli, present when the set was built
    from a plat, maps each cap (1-based, entry j-1) to the annulus region
    swept by its arc; the first cap carries the cut and has no annulus.
    """

    n: int
    l: int
    m: int
    pairs: tuple[tuple[int, int, int], ...]
    bridge_annuli: tuple[int | None, ...] | None = None

    def __post_init__(self):
        if self.l != 2 * self.n or len(self.pairs) != self.n:
            raise PlatError("decker set needs 2n circles in n pairs")
        if self.m < MIN_RESOLUTION:
            raise PlatError(
                f"resolution {self.m} too small for the doubled curve; "
                f"need at least {MIN_RESOLUTION}"
            )
        seen = sorted(c for over, under, _s in self.pairs for c in (over, under))
        if seen != list(range(1, self.l + 1)):
            raise PlatError("pairs must partition circles 1..L")
        for over, under, sign in self.pairs:
            if over == under:
                raise PlatError("a circle cannot pair with itself")
            if sign not in (-1, 1):
                raise PlatError("pair sign must be +1 or -1")

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


def spin_chord_diagram(cd: ChordDiagram, m: int = DEFAULT_RESOLUTION) -> DeckerSet:
    """Decker set of the spin of the tangle with chord diagram `cd`."""
    return DeckerSet(cd.n, 2 * cd.n, m, _pairs(cd))


def spin_plat(plat: PlatWord, m: int = DEFAULT_RESOLUTION) -> DeckerSet:
    """Decker set of the spun plat, with cap-annulus data for band twisting."""
    cd = chord_diagram_of_tangle(plat)
    regions = bridge_regions(plat)
    annuli = tuple(regions[j] for j in range(1, plat.bridges + 1))
    return DeckerSet(cd.n, 2 * cd.n, m, _pairs(cd), annuli)


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class SliceCurve:
    """A vertex-simple cycle on the grid sphere.

    vertices lists the cycle in order; the edge from the last vertex back
    to the first is implied.  rows[region] is the number of grid rows the
    curve's routing uses in that region (row 0 abuts the region's north
    boundary, row rows-1 its south boundary).
    """

    l: int
    m: int
    rows: tuple[int, ...]
    vertices: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.rows) != self.l + 1:
            raise PlatError("need one row count per region")
        if any(r < 1 for r in self.rows):
            raise PlatError("every region needs at least one row")

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

    def crossing_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (c, k) for c, ks in self.crossings().items() for k in ks
        )


def validate_curve(ds: DeckerSet, curve: SliceCurve) -> None:
    """Raise PlatError unless the curve is a valid simple cycle on ds."""
    if curve.l != ds.l or curve.m != ds.m:
        raise PlatError("curve grid does not match the decker set")
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


# ---------------------------------------------------------------------------
# region routing

# A region's strands are rebuilt as "downward" paths: row 0 at the north
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
    """Route vertex-disjoint downward paths through one region.

    Returns (rows, paths); paths[i] is a list of (row, longitude) for the
    i-th descriptor.  All strands must wind the same way; this covers every
    curve this package builds (doubled curves and their band twists).
    """
    if not arcs:
        return 1, []
    tops = [a[0] for a in arcs]
    bots = [a[1] for a in arcs]
    if len(set(tops)) != len(tops) or len(set(bots)) != len(bots):
        raise PlatError("strands enter or leave a region at a shared longitude")
    for top, bot, s in arcs:
        if (top + s) % m != bot % m:
            raise PlatError("strand displacement does not reach its exit")
    if all(abs(s) <= m // 2 for _t, _b, s in arcs):
        # no net winding: one walk row, each strand takes its short path
        paths = []
        used: set[int] = set()
        for top, bot, s in arcs:
            step = 1 if s > 0 else -1
            walk = [(1, (top + step * i) % m) for i in range(abs(s) + 1)]
            for _r, k in walk:
                if k in used:
                    raise PlatError(
                        "cannot route region strands at this resolution"
                    )
                used.add(k)
            paths.append([(0, top)] + walk + [(2, bot)])
        return 3, paths
    if not all(s > 0 for _t, _b, s in arcs) and not all(
        s < 0 for _t, _b, s in arcs
    ):
        raise PlatError("winding strands in one region must wind the same way")
    sigma = 1 if arcs[0][2] > 0 else -1
    pos = list(tops)
    remaining = [abs(s) for _t, _b, s in arcs]
    runs: list[list[list[int]]] = [[] for _ in arcs]  # per arc, per row
    steps = 0
    limit = 4 + sum(remaining)
    while any(remaining):
        if steps > limit:
            raise PlatError("region routing failed to converge")
        moved = False
        row_runs: list[list[int]] = []
        snapshot = list(pos)
        for i in range(len(arcs)):
            if len(arcs) == 1:
                gap = m
            else:
                gap = min(
                    (snapshot[j] - snapshot[i]) * sigma % m
                    for j in range(len(arcs))
                    if j != i
                )
            delta = min(remaining[i], max(gap - 1, 0))
            run = [(pos[i] + sigma * t) % m for t in range(delta + 1)]
            row_runs.append(run)
            pos[i] = run[-1]
            remaining[i] -= delta
            if delta:
                moved = True
        if not moved:
            raise PlatError("region routing deadlocked")
        for i, run in enumerate(row_runs):
            runs[i].append(run)
        steps += 1
    for i, (_top, bot, _s) in enumerate(arcs):
        if pos[i] != bot % m:
            raise PlatError("region routing internal mismatch")
    rows = steps + 2
    paths = []
    for i, (top, bot, _s) in enumerate(arcs):
        path = [(0, top)]
        for r, run in enumerate(runs[i], start=1):
            path.extend((r, k) for k in run)
        path.append((rows - 1, bot))
        paths.append(path)
    return rows, paths


# ---------------------------------------------------------------------------
# the doubled curve


def _build_trace(ds: DeckerSet) -> SliceCurve:
    m = ds.m
    if ds.l == 0:
        verts = [NORTH, (0, 0, m - 1), (0, 1, m - 1), SOUTH, (0, 1, 1), (0, 0, 1)]
        return SliceCurve(0, m, (2,), tuple(verts))
    # crossing longitude per circle: the ascending strand at +offset, tight
    # on over circles and wide on under ones; the descending strand at M - offset
    up = {c: OVER_OFFSET if ds.is_over(c) else UNDER_OFFSET for c in range(1, ds.l + 1)}
    down = {c: m - k for c, k in up.items()}
    rows = [2] + [3] * (ds.l - 1) + [2]
    annulus_paths: dict[int, tuple[list, list]] = {}
    for region in range(1, ds.l):
        arcs = [
            (down[region], down[region + 1], _short_rep(down[region + 1] - down[region], m)),
            # ascending strand, described as a downward path (reversed later)
            (up[region], up[region + 1], _short_rep(up[region + 1] - up[region], m)),
        ]
        nrows, paths = _route_region(m, arcs)
        rows[region] = nrows
        annulus_paths[region] = (paths[0], paths[1])

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


def trace_double_curve(ds: DeckerSet, cd: ChordDiagram | None = None) -> SliceCurve:
    """The doubled-knot curve: down one seam of the sphere and back.

    The descending strand crosses circle c at longitude M - offset(c) and
    the ascending strand at + offset(c), with a tight offset on over
    circles and a wide one on under circles, so that each over circle's
    side-1 sweep nests inside its partner's.
    """
    if cd is not None and _pairs(cd) != ds.pairs:
        raise PlatError("decker set was not built from this chord diagram")
    return _build_trace(ds)


# ---------------------------------------------------------------------------
# two-colouring and the slice criterion


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the side test: which inclusion directions hold."""

    verdict: str  # pass-forward | pass-reverse | fail
    forward: bool
    reverse: bool


def side_map(ds: DeckerSet, curve: SliceCurve) -> dict[tuple[int, int], int]:
    """Side label (1 or 2) of each circle midpoint k+1/2.

    Flood-fills the cylinder grid of the module docstring: the curve's
    edges are blocked in two bytearrays, horizontal edges at id f*M + k of
    the face below them (f < G) and the row-step, crossing and pole edges
    at the id of the face just east of them; the label of midpoint (c, k)
    is the colour of face start[c]*M + k.

    Side 1 is the complement component containing the north pole.  When the
    curve passes through the pole, the anchor is the north-cap face just
    east of the curve's departure edge from the pole; tying the anchor to
    the curve rather than to an absolute longitude keeps the labels stable
    under global rotation.
    """
    validate_curve(ds, curve)
    m, verts = curve.m, curve.vertices
    start = [0]
    for r in curve.rows:
        start.append(start[-1] + r)
    south = start[-1] * m  # id of the first south-cap face
    hblock = bytearray(south)
    vblock = bytearray(south + m)
    for (u, v), kind in zip(curve.edges(), curve.edge_kinds):
        if kind[0] == "H":
            region, row, k = u if kind[1] > 0 else v
            hblock[(start[region] + row) * m + k] = 1
        elif kind[0] == "P":
            k = (u if v in (NORTH, SOUTH) else v)[2]
            vblock[(0 if kind[1] == "N" else south) + k] = 1
        else:  # V or X: the face between the two rows the edge joins
            f = max(start[u[0]] + u[1], start[v[0]] + v[1])
            vblock[f * m + u[2]] = 1
    color = bytearray(south + m)

    def flood(i: int, label: int) -> None:
        color[i] = label
        stack = [i]
        push, pop = stack.append, stack.pop
        while stack:
            i = pop()
            k = i % m
            west = i - 1 if k else i + m - 1
            east = i + 1 if k < m - 1 else i - k
            if not (vblock[i] or color[west]):
                color[west] = label
                push(west)
            if not (vblock[east] or color[east]):
                color[east] = label
                push(east)
            if i >= m and not (hblock[i - m] or color[i - m]):
                color[i - m] = label
                push(i - m)
            if i < south and not (hblock[i] or color[i + m]):
                color[i + m] = label
                push(i + m)

    anchor = 0
    if NORTH in verts:
        anchor = verts[(verts.index(NORTH) + 1) % len(verts)][2]
    flood(anchor, 1)
    second = color.find(0)
    if second < 0:
        raise PlatError("curve does not separate the sphere")
    flood(second, 2)
    if color.find(0) >= 0:
        raise PlatError("curve complement has more than two components")
    return {
        (c, k): color[start[c] * m + k]
        for c in range(1, curve.l + 1)
        for k in range(m)
    }


def criterion_report(ds: DeckerSet, curve: SliceCurve) -> CriterionReport:
    """Evaluate both inclusion directions of the side test."""
    sides = side_map(ds, curve)
    crossings = curve.crossings()
    m = curve.m
    forward = True
    reverse = True
    for over, under, _sign in ds.pairs:
        xo = set(crossings.get(over, ()))
        xu = set(crossings.get(under, ()))
        for k in range(m):
            nxt = (k + 1) % m
            if k in xo or nxt in xo or k in xu or nxt in xu:
                continue  # midpoint adjacent to a crossing on either circle
            so = sides[(over, k)]
            su = sides[(under, k)]
            if so == 1 and su != 1:
                forward = False
            if su == 1 and so != 1:
                reverse = False
    if forward:
        verdict = "pass-forward"
    elif reverse:
        verdict = "pass-reverse"
    else:
        verdict = "fail"
    return CriterionReport(verdict, forward, reverse)


def check_slice_criterion(ds: DeckerSet, curve: SliceCurve) -> str:
    """Verdict of the side test: pass-forward, pass-reverse, or fail."""
    return criterion_report(ds, curve).verdict


# ---------------------------------------------------------------------------
# Dehn twists along region annuli


def dehn_twist_annulus(
    ds: DeckerSet, curve: SliceCurve, region: int, n: int
) -> SliceCurve:
    """Wind every strand of the curve inside an annulus region n extra turns.

    Crossing data is untouched: the strands re-enter and leave the region
    at their old longitudes, and the curve keeps its resolution.
    """
    if not 1 <= region <= curve.l - 1:
        raise PlatError(f"region {region} is not an annulus")
    if n == 0:
        return curve
    validate_curve(ds, curve)
    m = curve.m
    verts = list(curve.vertices)
    total = len(verts)
    # rotate the list so it does not start inside the region being rebuilt
    start = 0
    while verts[start] not in (NORTH, SOUTH) and verts[start][0] == region:
        start += 1
        if start == total:
            raise PlatError("curve lies entirely inside the twist region")
    verts = verts[start:] + verts[:start]
    kinds = curve.edge_kinds[start:] + curve.edge_kinds[:start]
    # carve out maximal runs inside the region
    runs: list[tuple[int, int]] = []  # [begin, end) index ranges
    i = 0
    while i < total:
        v = verts[i]
        if v not in (NORTH, SOUTH) and v[0] == region:
            j = i
            while j < total and verts[j] not in (NORTH, SOUTH) and verts[j][0] == region:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    if not runs:
        return curve
    arcs = []
    directions = []
    for begin, end in runs:
        before = verts[begin - 1]
        after = verts[end % total]
        for nb in (before, after):
            if nb in (NORTH, SOUTH) or nb[0] == region:
                raise PlatError("twist region strands must cross the region")
        if before[0] == region - 1 and after[0] == region + 1:
            down = True
        elif before[0] == region + 1 and after[0] == region - 1:
            down = False
        else:
            raise PlatError(
                "band twisting supports through-strands only; "
                "this curve turns back inside the region"
            )
        s = sum(kind[1] for kind in kinds[begin : end - 1] if kind[0] == "H")
        entry_k = verts[begin][2]
        exit_k = verts[end - 1][2]
        if down:
            arcs.append((entry_k, exit_k, s + n * m))
        else:
            arcs.append((exit_k, entry_k, -s + n * m))
        directions.append(down)
    nrows, paths = _route_region(m, arcs)
    new_rows = list(curve.rows)
    new_rows[region] = nrows
    out: list[tuple] = []
    cursor = 0
    for (begin, end), down, path in zip(runs, directions, paths):
        out.extend(verts[cursor:begin])
        ordered = path if down else list(reversed(path))
        out.extend((region, r, k) for r, k in ordered)
        cursor = end
    out.extend(verts[cursor:])
    twisted = SliceCurve(curve.l, m, tuple(new_rows), tuple(out))
    validate_curve(ds, twisted)
    if twisted.crossing_set() != curve.crossing_set():
        raise PlatError("twist changed crossing data (internal error)")
    return twisted


def rotate_curve(curve: SliceCurve, d: int) -> SliceCurve:
    """Rotate the whole curve d longitude samples eastward."""
    verts = tuple(
        v if v in (NORTH, SOUTH) else (v[0], v[1], (v[2] + d) % curve.m)
        for v in curve.vertices
    )
    return SliceCurve(curve.l, curve.m, curve.rows, verts)


def symmetric_union_curve(ds: DeckerSet, tv: TwistVector) -> SliceCurve:
    """Slice curve of the even symmetric union: doubled curve plus band winds.

    Each cap's half-twist count t must be even; the strands in its annulus
    wind t/2 extra full turns.  The first cap carries the cut through the
    poles and needs no winding.
    """
    if ds.bridge_annuli is None:
        raise PlatError(
            "decker set lacks cap-annulus data; build it with spin_plat"
        )
    tv.require_even()
    if len(tv) != len(ds.bridge_annuli):
        raise PlatError(
            f"twist vector has {len(tv)} entries for "
            f"{len(ds.bridge_annuli)} caps"
        )
    curve = _build_trace(ds)
    for t, region in zip(tv, ds.bridge_annuli):
        if region is None or t == 0:
            continue
        curve = dehn_twist_annulus(ds, curve, region, t // 2)
    return curve


# ---------------------------------------------------------------------------
# serialization


def format_decker(ds: DeckerSet) -> str:
    lines = [f"decker circles {ds.l} resolution {ds.m}"]
    for i, (_over, _under, sign) in enumerate(ds.pairs, start=1):
        lines.append(f"pair {i} sign {sign:+d}")
    for c in range(1, ds.l + 1):
        i = ds.pair_of(c)
        role = "over" if ds.is_over(c) else "under"
        lines.append(f"circle {c} pair {i} {role}")
    if ds.bridge_annuli is not None:
        cells = " ".join(
            "-" if r is None else str(r) for r in ds.bridge_annuli
        )
        lines.append(f"caps {cells}")
    return "\n".join(lines) + "\n"


def parse_decker(text: str) -> DeckerSet:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not lines[0].startswith("decker circles "):
        raise PlatError("missing decker header")
    head = lines[0].split()
    try:
        l, m = int(head[2]), int(head[4])
    except (IndexError, ValueError) as exc:
        raise PlatError(f"bad decker header: {lines[0]!r}") from exc
    signs: dict[int, int] = {}
    overs: dict[int, int] = {}
    unders: dict[int, int] = {}
    annuli: tuple[int | None, ...] | None = None
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "pair" and parts[2] == "sign":
            signs[int(parts[1])] = int(parts[3])
        elif parts[0] == "circle":
            c, i, role = int(parts[1]), int(parts[3]), parts[4]
            (overs if role == "over" else unders)[i] = c
        elif parts[0] == "caps":
            annuli = tuple(
                None if cell == "-" else int(cell) for cell in parts[1:]
            )
        else:
            raise PlatError(f"unrecognized decker line: {ln!r}")
    n = l // 2
    if sorted(signs) != list(range(1, n + 1)):
        raise PlatError("pair sign lines must cover pairs 1..n")
    if sorted(overs) != list(range(1, n + 1)) or sorted(unders) != list(
        range(1, n + 1)
    ):
        raise PlatError("each pair needs one over and one under circle")
    pairs = tuple((overs[i], unders[i], signs[i]) for i in range(1, n + 1))
    return DeckerSet(n, l, m, pairs, annuli)


def format_curve(ds: DeckerSet, curve: SliceCurve) -> str:
    validate_curve(ds, curve)
    lines = [format_decker(ds).rstrip("\n")]
    lines.append("curve rows " + " ".join(str(r) for r in curve.rows))
    first = curve.vertices[0]
    if first == NORTH:
        lines.append("start pole N")
    elif first == SOUTH:
        lines.append("start pole S")
    else:
        lines.append(f"start {first[0]} {first[1]} {first[2]}")
    moves: list[list] = []  # [kind, run length] for H and V, else [kind, argument]
    for (u, v), kind in zip(curve.edges(), curve.edge_kinds):
        tag = kind[0]
        if tag in ("H", "V"):
            if moves and moves[-1][0] == tag and (moves[-1][1] > 0) == (kind[1] > 0):
                moves[-1][1] += kind[1]
            else:
                moves.append([tag, kind[1]])
        elif tag == "X":
            moves.append([tag, "down" if u[0] < kind[1] else "up"])
        elif v in (NORTH, SOUTH):
            moves.append([tag, v[0]])
        else:
            moves.append([tag, v[2]])
    lines.extend(
        f"move {tag} {arg:+d}" if tag in ("H", "V") else f"move {tag} {arg}"
        for tag, arg in moves
    )
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_curve(text: str) -> tuple[DeckerSet, SliceCurve]:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    split = next(
        (i for i, ln in enumerate(lines) if ln.startswith("curve rows ")), None
    )
    if split is None:
        raise PlatError("missing 'curve rows' line")
    ds = parse_decker("\n".join(lines[:split]))
    rows = tuple(int(x) for x in lines[split].split()[2:])
    start_line = lines[split + 1].split()
    if start_line[0] != "start":
        raise PlatError("missing start line")
    if start_line[1] == "pole":
        at: tuple = NORTH if start_line[2] == "N" else SOUTH
    else:
        at = (int(start_line[1]), int(start_line[2]), int(start_line[3]))
    verts = [at]
    if lines[-1] != "end":
        raise PlatError("missing end line")
    for ln in lines[split + 2 : -1]:
        parts = ln.split()
        if parts[0] != "move":
            raise PlatError(f"unrecognized curve line: {ln!r}")
        kind, arg = parts[1], parts[2]
        if kind == "H":
            count = int(arg)
            step = 1 if count > 0 else -1
            for _ in range(abs(count)):
                l, r, k = at
                at = (l, r, (k + step) % ds.m)
                verts.append(at)
        elif kind == "V":
            count = int(arg)
            step = 1 if count > 0 else -1
            for _ in range(abs(count)):
                l, r, k = at
                at = (l, r + step, k)
                verts.append(at)
        elif kind == "X":
            l, r, k = at
            at = (l + 1, 0, k) if arg == "down" else (l - 1, rows[l - 1] - 1, k)
            verts.append(at)
        elif kind == "P":
            if arg == "N":
                at = NORTH
            elif arg == "S":
                at = SOUTH
            elif at == NORTH:
                at = (0, 0, int(arg))
            elif at == SOUTH:
                at = (ds.l, rows[ds.l] - 1, int(arg))
            else:
                raise PlatError("pole move from a non-pole vertex needs N or S")
            verts.append(at)
        else:
            raise PlatError(f"unknown move kind {kind!r}")
    if verts[-1] != verts[0]:
        raise PlatError("curve moves do not close the cycle")
    curve = SliceCurve(ds.l, ds.m, rows, tuple(verts[:-1]))
    validate_curve(ds, curve)
    return ds, curve
