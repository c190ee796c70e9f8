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
geometrically meaningful part.  A curve keeps each walk along a row as one
run, so a band's winds cost one run per row, not one vertex per longitude:
the checks test each run as an interval of longitudes and each join between
runs as one V, X or P step, and the side test XORs each run's interval.  The
two strands of a band's annulus are routed once, winds included.

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
from itertools import accumulate
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
# The crossing data never needs more than a few dozen longitudes; a curve's
# masks are M-bit ints, and at 4096 a slice check of T(3,5), winds up to
# MAX_WINDING included, takes about 0.1 s and 16 MB in a fresh process.
MAX_RESOLUTION = 4096
# Each band wind walks M longitudes in both strands of its annulus, so a
# slice curve has about 2 * M * sum(|t_j| / 2, j >= 2) vertices, one run per
# M / 2 of them.  2**18 winding longitudes (about 525,000 vertices) keep a
# slice check of T(3,5) near 0.2 s and 25 MB; (1000, 1000, 1000) runs at M = 24.
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
    """A vertex-simple cycle on the grid sphere, kept as runs.

    runs lists the cycle in order.  A run (region, row, start, n) walks |n|
    horizontal steps from longitude start along one row, east when n > 0;
    NORTH and SOUTH mark the poles.  Each item is joined to the next, and
    the last to the first, by one V, X or P step.  rows[region] is the
    number of grid rows the curve's routing uses in that region (row 0
    abuts the region's north boundary, row rows-1 its south boundary).
    """

    _fields = ("l", "m", "rows", "runs")

    def __init__(self, l: int, m: int, rows: tuple[int, ...], runs: tuple[tuple, ...]):
        if len(rows) != l + 1:
            raise PlatError("need one row count per region")
        if any(r < 1 for r in rows):
            raise PlatError("every region needs at least one row")
        self.l, self.m, self.rows, self.runs = l, m, rows, runs

    @property
    def vertices(self) -> tuple[tuple, ...]:
        """The cycle's vertices in order, (region, row, longitude) or a pole."""
        m, out = self.m, []
        for run in self.runs:
            if len(run) != 4:
                out.append(run)
            else:
                step = 1 if run[3] > 0 else -1
                out += [(*run[:2], (run[2] + step * i) % m) for i in range(abs(run[3]) + 1)]
        return tuple(out)

    def edges(self):
        verts = self.vertices
        return zip(verts, verts[1:] + verts[:1])

    @property
    def vertex_count(self) -> int:
        return sum(abs(run[3]) + 1 if len(run) == 4 else 1 for run in self.runs)

    @cached_property
    def _crossings(self) -> dict[int, list[int]]:
        """Crossing longitudes per circle, read from the X steps once the
        runs are checked to form a simple cycle of grid steps.  Raises
        PlatError at the first fault, on every access."""
        l, m, rows = self.l, self.m, self.rows
        full = (1 << m) - 1
        # the visited longitudes of each (region, row), an M-bit int at used[base[region] + row]
        base = [0, *accumulate(rows)]
        used = [0] * base[-1]
        poles, crossings, count, first = [], {}, 0, None
        # the last vertex so far: (er, erow, ek), or the last pole when er is -1
        er = erow = ek = -1
        for run in self.runs:
            if len(run) == 4:
                region, row, start, n = run
                if not (0 <= region <= l and 0 <= row < rows[region]):
                    raise PlatError(f"vertex {run[:3]} outside the grid")
                if not 0 <= start < m:
                    raise PlatError("longitude out of range")
                lo, width = (start, n + 1) if n >= 0 else ((start + n) % m, 1 - n)
                bits = (1 << width) - 1
                span = (bits << lo | bits >> (m - lo)) & full
                i = base[region] + row
                if width > m or used[i] & span:
                    raise PlatError("curve revisits a vertex")
                used[i] |= span
                count += width
                if region == er and start == ek and (row - erow == 1 or erow - row == 1):
                    er, erow, ek = region, row, (start + n) % m
                    continue  # a V step, the common join
                head = run[:3]
            elif run in (NORTH, SOUTH) and run not in poles:
                poles.append(run)
                count += 1
                head = run
            else:
                raise PlatError(
                    "curve revisits a vertex" if run in poles else f"malformed vertices {run}"
                )
            if first is None:
                first = head
            else:
                self._step((er, erow, ek) if er >= 0 else poles[-1], head, crossings)
            er, erow, ek = (region, row, (start + n) % m) if len(head) == 3 else (-1, -1, -1)
        if count < 3:
            raise PlatError("a cycle needs at least three vertices")
        self._step((er, erow, ek) if er >= 0 else poles[-1], first, crossings)
        for circle, ks in crossings.items():
            if len(ks) % 2:
                raise PlatError(f"curve crosses circle {circle} an odd number of times")
        return crossings

    def _step(self, u: tuple, v: tuple, crossings: dict[int, list[int]]) -> None:
        """Check that u -> v is a V, X or P step; keep an X step's longitude."""
        rows = self.rows
        if len(u) == 1 or len(v) == 1:
            pole, u = (u, v) if len(u) == 1 else (v, u)
            lands = (0, 0) if pole == NORTH else (self.l, rows[self.l] - 1)
            if len(u) != 3 or u[:2] != lands:
                raise PlatError(f"pole edge must land on region {lands[0]} row {lands[1]}, not {u}")
            return
        (lu, ru, ku), (lv, rv, kv) = u, v
        if ku == kv and lu == lv and abs(ru - rv) == 1:
            return
        if ku == kv and lv == lu + 1 and ru == rows[lu] - 1 and rv == 0:
            crossings.setdefault(lv, []).append(ku)  # crossing circle lv southward
        elif ku == kv and lu == lv + 1 and rv == rows[lv] - 1 and ru == 0:
            crossings.setdefault(lu, []).append(ku)  # crossing circle lu northward
        elif (lu, ru) != (lv, rv) or ku == kv:
            raise PlatError(f"not a grid edge: {u} -> {v}")
        elif (ku - kv) % self.m in (1, self.m - 1):
            raise PlatError(f"horizontal step {u} -> {v} between two runs")
        else:
            raise PlatError(f"non-adjacent horizontal step {u} -> {v}")

    def crossings(self) -> dict[int, tuple[int, ...]]:
        """Sorted crossing longitudes per circle."""
        return {c: tuple(sorted(ks)) for c, ks in sorted(self._crossings.items())}


def validate_curve(ds: DeckerSet, curve: SliceCurve) -> None:
    """Raise PlatError unless the curve is a valid simple cycle on ds.  The
    grid is checked against ds on every call; the run checks run once per
    curve, which keeps their crossings (`SliceCurve._crossings`)."""
    if curve.l != ds.l or curve.m != ds.m:
        raise PlatError("curve grid does not match the decker set")
    curve._crossings


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
    paths); paths[i] lists the i-th strand's runs (row, start, n), one per
    row.  Without a full turn each strand walks its short path on row 1.
    With winds the strands leapfrog: on each row each one walks from where
    it is to just short of where the other started that row.
    """
    if all(abs(s) <= m // 2 for _t, _b, s in arcs):
        return 3, [[(0, top, 0), (1, top, s), (2, bot, 0)] for top, bot, s in arcs]
    sigma = 1 if arcs[0][2] > 0 else -1
    pos = [top for top, _b, _s in arcs]
    left = [abs(s) for _t, _b, s in arcs]
    paths = [[(0, top, 0)] for top in pos]
    row = 0
    while left[0] or left[1]:
        row += 1
        gap = (pos[1] - pos[0]) * sigma % m
        for i, room in enumerate((gap, m - gap)):
            run = min(left[i], room - 1)
            paths[i].append((row, pos[i], sigma * run))
            pos[i] = (pos[i] + sigma * run) % m
            left[i] -= run
    for path, (_t, bot, _s) in zip(paths, arcs):
        path.append((row + 1, bot, 0))
    return row + 2, paths


# ---------------------------------------------------------------------------
# the doubled curve and the even symmetric union


def _build_trace(ds: DeckerSet, winds: dict[int, int]) -> SliceCurve:
    """The doubled curve, both strands in annulus region r winding winds[r]
    extra full turns."""
    m, l = ds.m, ds.l
    if l == 0:
        runs = (NORTH, (0, 0, m - 1, 0), (0, 1, m - 1, 0), SOUTH, (0, 1, 1, 0), (0, 0, 1, 0))
        return SliceCurve(0, m, (2,), runs)
    # crossing longitude per circle: the ascending strand at +offset, tight
    # on over circles and wide on under ones; the descending strand at M - offset
    up = [0] + [OVER_OFFSET if ds.is_over(c) else UNDER_OFFSET for c in range(1, l + 1)]
    down = [m - k for k in up]
    rows = [2] + [3] * (l - 1) + [2]
    # the descending strand: north pole, row 0 of the north disc to the first
    # crossing, each annulus, then the south disc to the pole column
    desc: list[tuple] = [NORTH, (0, 0, m - 1, _short_rep(down[1] + 1, m)), (0, 1, down[1], 0)]
    # the ascending strand, south pole to north, collected north to south
    asc: list[tuple] = [(0, 0, 1, 0), (0, 1, up[1], _short_rep(1 - up[1], m))]
    for region in range(1, l):
        wind = winds.get(region, 0) * m
        arcs = [
            (down[region], down[region + 1], _short_rep(down[region + 1] - down[region], m) + wind),
            # ascending strand, described as a downward path (reversed below)
            (up[region], up[region + 1], _short_rep(up[region + 1] - up[region], m) + wind),
        ]
        rows[region], (descending, ascending) = _route_region(m, arcs)
        desc += [(region, r, k, n) for r, k, n in descending]
        asc += [(region, r, (k + n) % m, -n) for r, k, n in ascending]
    desc += [(l, 0, down[l], _short_rep(-1 - down[l], m)), (l, 1, m - 1, 0), SOUTH]
    asc += [(l, 0, up[l], 0), (l, 1, 1, _short_rep(up[l] - 1, m))]
    curve = SliceCurve(l, m, tuple(rows), tuple(desc + asc[::-1]))
    validate_curve(ds, curve)
    return curve


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
    m, runs = curve.m, curve.runs
    full = (1 << m) - 1
    # per region, the columns where the curve has an odd number of H edges;
    # a run's H edges fill the columns between its two ends
    crossed = [0] * (curve.l + 1)
    for run in runs:
        if len(run) == 4 and run[3]:
            region, _row, start, n = run
            lo = start if n > 0 else (start + n) % m
            bits = (1 << abs(n)) - 1
            crossed[region] ^= bits << lo | bits >> (m - lo)
    # the anchor wedge lies on side 1; through the pole, the curve leaves at
    # longitude a and arrives at b, so the wedges b..a-1 lie on side 2
    side = 0
    if NORTH in runs:
        i = runs.index(NORTH)
        a, (_r, _row, start, n) = runs[(i + 1) % len(runs)][2], runs[i - 1]
        b = (start + n) % m
        wedge = (1 << (a - b) % m) - 1
        side = wedge << b | wedge >> (m - b)
    masks = []
    for region in range(curve.l):
        side ^= crossed[region]
        masks.append(side & full)
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
