"""Plat presentations of knots and their planar diagram data.

A plat word on 2b strands is a braid word whose plat closure (caps joining
strands (1,2), (3,4), ... at top and bottom) is a knot or link.  This module
validates plat words, converts them to PD codes with a fixed orientation and
sign convention, extracts the chord diagram of the associated (1,1)-tangle,
and builds the diagrams of twisted mirror doubles ("symmetric unions").

Conventions used throughout:

* Braid letters act top-to-bottom.  The letter (k, +1) crosses strands in
  columns k and k+1 with the NW-SE strand passing over; (k, -1) has the
  NE-SW strand passing over.
* PD tuples are (a, b, c, d, sign): the four edge labels counterclockwise
  around the crossing starting from the incoming under-edge a, so c is the
  outgoing under-edge.  sign = +1 exactly when the over-strand runs d -> b.
* Orientation and edge labels come from traversing the knot starting inside
  the leftmost top cap.  When a letter g1 touches column 1 the traversal
  leaves the cap down column 2; otherwise it leaves down column 1, turns
  through bottom cap 1 and enters column 2 from below.
* The (1,1)-tangle of a plat is the knot cut open inside top cap 1.
* The 0-crossing unknot (2 strands, empty word) is one edge through cap 1
  and no crossing: edge 1, Wirtinger arc 1, and an empty PD code.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import NamedTuple


class PlatError(ValueError):
    """Raised for structurally invalid plat words or closures."""


# ---------------------------------------------------------------------------
# core value types


class Record:
    """Equality, hash and repr by the fields named in `_fields`, as a
    NamedTuple has them, for a record that validates or normalizes its
    fields or keeps a per-object cache, neither of which a NamedTuple
    allows.  Unlike a tuple it equals only records of its class."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class PlatWord(Record):
    """A braid word on an even number of strands, read top to bottom."""

    _fields = ("strands", "word")

    def __init__(self, strands: int, word: tuple[tuple[int, int], ...]):
        if strands < 2 or strands % 2:
            raise PlatError("strand count must be even and >= 2")
        for k, s in word:
            if not 1 <= k <= strands - 1:
                raise PlatError(f"generator index {k} out of range 1..{strands - 1}")
            if s not in (-1, 1):
                raise PlatError(f"letter sign must be +1 or -1, got {s}")
        self.strands = strands
        self.word = tuple((int(k), int(s)) for k, s in word)

    @property
    def bridges(self) -> int:
        return self.strands // 2

    def __len__(self):
        return len(self.word)


class PDCode(NamedTuple):
    """Planar diagram code: crossings as (a, b, c, d, sign) tuples.

    Edge labels run 1..2n and each label occurs exactly twice across all
    tuples.  The empty code is the 0-crossing unknot diagram.
    """

    crossings: tuple[tuple[int, int, int, int, int], ...]

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_edges(self) -> int:
        return 2 * len(self.crossings)

    def validate(self):
        """Check the label-multiset and connectivity invariants."""
        counts: dict[int, int] = {}
        for tup in self.crossings:
            a, b, c, d, s = tup
            if s not in (-1, 1):
                raise PlatError(f"crossing sign must be +-1 in {tup}")
            for e in (a, b, c, d):
                counts[e] = counts.get(e, 0) + 1
        if not self.crossings:
            return
        labels = sorted(counts)
        if labels != list(range(1, self.n_edges + 1)):
            raise PlatError("edge labels must be exactly 1..2n")
        if any(v != 2 for v in counts.values()):
            bad = [e for e, v in counts.items() if v != 2]
            raise PlatError(f"edge labels {bad} do not occur exactly twice")
        # connectivity: each edge joins the two crossings that name it
        owner: dict[int, int] = {}
        pairs = [
            (owner.setdefault(e, i), i)
            for i, tup in enumerate(self.crossings)
            for e in tup[:4]
        ]
        if max(_classes(len(self.crossings), pairs)) > 0:
            raise PlatError("diagram graph is disconnected")


# ---------------------------------------------------------------------------
# edge classes: crossing connectivity and Wirtinger arcs


def _classes(n: int, pairs) -> list[int]:
    """Class index of each element 0..n-1 under the equivalence generated by
    pairs; classes are numbered 0, 1, ... in the order of their lowest element."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    number: dict[int, int] = {}
    return [number.setdefault(find(x), len(number)) for x in range(n)]


def wirtinger_relations(pd: PDCode):
    """Arc count, edge -> arc map and crossing relations x_c = x_o^s x_a x_o^-s.

    Arcs are the classes of edges joined through the over-strand (b ~ d) of
    every crossing, numbered from 0 in the order of their lowest edge label.
    """
    n_edges = pd.n_edges or 1  # the 0-crossing unknot is one edge
    classes = _classes(n_edges, ((b - 1, d - 1) for _a, b, _c, d, _s in pd.crossings))
    arc = {e: classes[e - 1] for e in range(1, n_edges + 1)}
    relations = [(arc[b], s, arc[a], arc[c]) for a, b, c, _d, s in pd.crossings]
    return len(set(classes)), arc, relations


class ChordDiagram(Record):
    """Chord diagram of a (1,1)-tangle: marked points 1..2n on an interval.

    chords[i] = (a, b) where a is the endpoint at which the tangle core
    passes over and b where it passes under; signs[i] is the crossing sign.
    """

    _fields = ("n", "chords", "signs")

    def __init__(self, n: int, chords: tuple[tuple[int, int], ...], signs: tuple[int, ...]):
        seen = sorted(p for ch in chords for p in ch)
        if seen != list(range(1, 2 * n + 1)):
            raise PlatError("chord endpoints must partition 1..2n")
        if len(signs) != n:
            raise PlatError("need one sign per chord")
        self.n, self.chords, self.signs = n, chords, signs


class TwistVector(Record):
    """Integer half-twist counts, one per bridge (top cap) of a plat."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        self.entries = tuple(int(t) for t in entries)

    def validate(self, bridges: int) -> None:
        """Raise PlatError unless there is one entry per bridge, all even.
        The length is checked first, so every command words a vector of the
        wrong length, odd entries or not, the same way."""
        if len(self.entries) != bridges:
            raise PlatError(f"twist vector length {len(self.entries)} != bridge count {bridges}")
        for j, t in enumerate(self.entries, start=1):
            if t % 2:
                raise PlatError(
                    f"twist entry t_{j} = {t} is odd; only the even family is supported"
                )

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# ---------------------------------------------------------------------------
# validation


def closure_components(plat: PlatWord) -> int:
    # A cap pair that no letter touches closes up on its own and is only
    # counted, so memory follows the word; the touched pairs, renumbered in
    # order, have top columns 0..n-1 and bottom columns n..2n-1 to join.
    touched = {k for k, _s in plat.word}
    pairs = sorted({p for k in touched for p in ((k + 1) // 2, k // 2 + 1)})
    untouched = plat.bridges - len(pairs)
    if not pairs:
        return untouched
    rank = {p: m for m, p in enumerate(pairs)}
    left = {k: 2 * rank[(k + 1) // 2] + 1 - k % 2 for k in touched}  # 0-based
    n = 2 * len(pairs)
    at = list(range(n))  # at[c] = top column of the strand now on column c
    for k, _s in plat.word:
        c = left[k]
        at[c], at[c + 1] = at[c + 1], at[c]
    strands = ((top, n + c) for c, top in enumerate(at))
    caps = ((x, x + 1) for x in range(0, 2 * n, 2))
    return max(_classes(2 * n, chain(strands, caps))) + 1 + untouched


def validate_plat(plat: PlatWord) -> None:
    """Check the closure is a knot; reject links naming the component count.
    Success is kept on the plat object, so a knot's closure is counted once
    and a link's again, and refused with the same error, on every call."""
    if "_knot" in plat.__dict__:
        return
    comps = closure_components(plat)
    if comps != 1:
        raise PlatError(f"plat closure has {comps} components, expected a knot (1)")
    plat._knot = True


# ---------------------------------------------------------------------------
# planar embedding: one walk along the knot


class Embedding(Record):
    """Edge labels of a plat diagram in traversal order, and its PD code.

    Edge 1 runs through top cap 1.  Passage t along the knot enters its
    crossing on edge t and leaves it on edge t+1, where edge 2n+1 is edge 1.
    columns[c][i] is the edge on column c just above the i-th letter (from 0)
    that touches c, and its last entry the edge below them all, so
    columns[c][0] runs through the column's top cap; columns[0] is unused.
    """

    _fields = ("columns", "chords", "pd")

    def __init__(self, columns: tuple, chords: tuple, pd: PDCode):
        self.columns = columns
        self.chords = chords  # (over entry time, under entry time) per crossing
        self.pd = pd


def _sweep(plat: PlatWord) -> Embedding:
    """Walk the knot once from inside top cap 1 and label edges as they come.

    Going down a column the walk meets the next letter below that touches
    it, going up the next letter above; past the last letter it turns
    through a bottom cap into the partner column, past the first through a
    top cap.  A letter (k, s) touches columns k and k+1 and sends the walk
    on along its other column.  The walk leaves cap 1 down column 2 when a
    letter g1 touches column 1, and down column 1 otherwise.  Each stretch
    of column it passes takes its edge's label.  A letter's PD tuple reads
    the stretches at its ports, counterclockwise NE, NW, SW, SE = 0..3.
    """
    word = plat.word
    n2 = 2 * len(word)
    touching: list[list[int]] = [[] for _ in range(plat.strands + 1)]
    for ci, (k, _s) in enumerate(word):
        touching[k].append(ci)
        touching[k + 1].append(ci)
    columns = [[0] * (len(line) + 1) for line in touching]
    columns[1][0] = columns[2][0] = 1  # edge 1 runs through top cap 1
    entry = [0] * n2  # entry[2 * ci + p % 2] = p: the port each strand of ci is entered at
    col, down, at = (2 if touching[1] else 1), True, -1
    for t in range(1, n2 + 1):
        while True:
            line = touching[col]
            i = bisect_right(line, at) if down else bisect_left(line, at)
            columns[col][i] = t  # stretch i lies just above the column's i-th letter
            if i < len(line) if down else i > 0:
                break
            col += 1 if col % 2 else -1  # through a cap into the partner column
            down, at = not down, (len(word) if down else -1)
        ci = line[i if down else i - 1]
        k = word[ci][0]
        port = (1 if col == k else 0) if down else (2 if col == k else 3)
        entry[2 * ci + port % 2] = port
        col, at = 2 * k + 1 - col, ci

    crossings, chords = [], []
    stretches = [zip(line, line[1:]) for line in columns]  # (above, below) each letter in turn
    for ci, (k, s) in enumerate(word):
        (nw, sw), (ne, se) = next(stretches[k]), next(stretches[k + 1])
        label = (ne, nw, sw, se)
        # the NW-SE strand, on the odd ports, is over exactly when s = +1
        over_in, under_in = entry[2 * ci + (s == 1)], entry[2 * ci + (s != 1)]
        a, b, c, d = label[under_in:] + label[:under_in]  # CCW from the incoming under port
        crossings.append((a, b, c, d, 1 if over_in == (under_in + 3) % 4 else -1))
        chords.append((label[over_in], label[under_in]))  # entry labels are passage times
    return Embedding(tuple(map(tuple, columns)), tuple(chords), PDCode(tuple(crossings)))


def build_embedding(plat: PlatWord) -> Embedding:
    """Edge labels, chords and PD code of a validated plat, from one walk
    along the knot.

    Built on the first call and kept on the plat object, next to the
    success of `validate_plat`, so every consumer of one plat shares one
    walk and one closure count.  The result is read-only and holds no
    reference to the plat, so it is freed with it.
    """
    emb = plat.__dict__.get("_embedding")
    if emb is None:
        validate_plat(plat)
        emb = plat._embedding = _sweep(plat)
    return emb


def plat_to_pd(plat: PlatWord) -> PDCode:
    """PD code of the plat closure (empty word gives the 0-crossing unknot)."""
    return build_embedding(plat).pd


# ---------------------------------------------------------------------------
# chord diagram of the cut-open tangle


def chord_diagram_of_tangle(plat: PlatWord) -> ChordDiagram:
    """Chord diagram of the (1,1)-tangle obtained by cutting inside top cap 1.

    Endpoints 1..2n are the crossing passages in traversal order; each chord
    pairs the over and under passage of one crossing, over endpoint first.
    """
    emb = build_embedding(plat)
    signs = tuple(crossing[4] for crossing in emb.pd.crossings)
    return ChordDiagram(len(plat.word), emb.chords, signs)


def bridge_regions(plat: PlatWord) -> dict[int, int | None]:
    """Map bridge j -> decker annulus region index of its cap arc.

    Bridge 1 carries the cut and corresponds to the two polar discs, so it
    has no annulus; it maps to None.
    """
    columns = build_embedding(plat).columns
    return {j: columns[2 * j][0] - 1 if j > 1 else None for j in range(1, plat.bridges + 1)}


# ---------------------------------------------------------------------------
# symmetric unions (twisted mirror doubles)


class BandSite(NamedTuple):
    """Where band j's twist region lives in the doubled diagram.

    letter_index points at the first twist letter in the twisted word (or
    the insertion position when t_j = 0); columns are the two strand columns
    meeting at that first crossing -- the left column carries a mirror-copy
    strand and the right column a base-copy strand.  index0 is the matching
    position in the untwisted word.
    """

    bridge: int
    letter_index: int
    index0: int
    columns: tuple[int, int]
    half_twists: int


class SymmetricUnion(NamedTuple):
    """Result of doubling a plat with per-bridge twist regions."""

    base: PlatWord
    tv: TwistVector
    knot: PlatWord
    untwisted: PlatWord
    sites: tuple[BandSite, ...]


def _pair_move_right(c: int) -> list[tuple[int, int]]:
    # slide a turnback pair from (c, c+1) one column right, passing under
    return [(c + 1, -1), (c, -1)]


def _pair_move_left(c: int) -> list[tuple[int, int]]:
    # slide a turnback pair from (c, c+1) one column left, passing under
    return [(c - 1, 1), (c, 1)]


def _pair_pass_right(c: int) -> list[tuple[int, int]]:
    # pair at (c, c+1) passes under the pair at (c+2, c+3)
    return _pair_move_right(c) + _pair_move_right(c + 1)


def _pair_pass_left(c: int) -> list[tuple[int, int]]:
    # pair at (c, c+1) passes under the pair at (c-2, c-1)
    return _pair_move_left(c) + _pair_move_left(c - 1)


def _band_half_twist(c: int, s: int) -> list[tuple[int, int]]:
    """One half twist of the band whose edges are the turnbacks at
    (c, c+1) and (c+2, c+3): the two 2-cables cross coherently once.

    The two turnback pairs swap columns, so an even number of half twists
    returns them to their starting positions -- which is exactly why only
    even twist vectors yield well-formed unions here.
    """
    return [(c + 1, s), (c, s), (c + 2, s), (c + 1, s)]


# Crossings the twists add to a symmetric union: t_1 adds |t_1| letters and
# each t_j, j >= 2, adds 4|t_j|.  At the bound, `det` on the trefoil with
# (4096, 3072) takes 0.4 s and 32 MB peak RSS for the whole process, and
# `cover-h1` 1.6 s and 84 MB (2-core Xeon VM); unbounded, (40000, 40000)
# took 6.2 s and 358 MB.  (1000, 1000, 1000) on T(3,5) adds 9,000.
MAX_TWIST_CROSSINGS = 2**14


def build_symmetric_union(plat: PlatWord, tv: TwistVector) -> SymmetricUnion:
    """Double the plat across a horizontal mirror and twist the bridge bands.

    The output plat on 4b-2 strands stacks the mirror image above the
    original.  The two copies are glued along the strands of top cap 1 (the
    cut).  For j >= 2 the two bridge-j turnbacks (the upper copy's dying cap
    and the lower copy's born cap) are the edges of one band of the standard
    ribbon disc of the untwisted union; t_j half-twists of that band wind
    the two turnbacks around each other coherently t_j times while they are
    adjacent, after which both are routed to the plat boundary.  t_1
    half-twists go on the gluing strands instead (the cut band).  With
    tv = 0 this is the plain mirror-double diagram of the connected sum
    with the mirror image.
    """
    validate_plat(plat)
    tv.validate(plat.bridges)
    added = abs(tv.entries[0]) + 4 * sum(abs(t) for t in tv.entries[1:])
    if added > MAX_TWIST_CROSSINGS:
        raise PlatError(f"twists add {added} crossings; at most {MAX_TWIST_CROSSINGS}")
    b = plat.bridges
    S = 4 * b - 2

    def assemble(twists: TwistVector):
        word: list[tuple[int, int]] = []
        sites: dict[int, tuple[int, tuple[int, int]]] = {}
        word.extend((k, -s) for k, s in reversed(plat.word))
        # conveyor: for each bridge j = 2..b bring the lower copy's cap pair
        # (parked at the extra columns) next to the upper copy's dying pair,
        # twist, then park the dying pair on the right.
        for j in range(2, b + 1):
            # incoming pair starts at (2b+1, 2b+2) and walks left to (2j+1, 2j+2)
            pos = 2 * b + 1
            while pos > 2 * j + 1:
                word.extend(_pair_pass_left(pos))
                pos -= 2
            sites[j] = (len(word), (2 * j, 2 * j + 1))
            t = twists.entries[j - 1]
            s = -1 if t > 0 else 1
            for _ in range(abs(t)):
                word.extend(_band_half_twist(2 * j - 1, s))
            # dying pair at (2j-1, 2j) passes the incoming pair, then keeps
            # going right past everything still waiting, and parks at
            # columns (S - 2j + 3, S - 2j + 4).
            pos = 2 * j - 1
            while pos < S - 2 * j + 3:
                word.extend(_pair_pass_right(pos))
                pos += 2
        sites[1] = (len(word), (1, 2))
        # same handedness convention as the band gadget: positive twists
        # cross with the NE-SW strand on top
        t1 = twists.entries[0]
        word.extend((1, -1 if t1 > 0 else 1) for _ in range(abs(t1)))
        word.extend(plat.word)
        return word, sites

    zero = TwistVector((0,) * b)
    word_t, sites_t = assemble(tv)
    word_0, sites_0 = assemble(zero)
    knot = PlatWord(S, tuple(word_t))
    untwisted = PlatWord(S, tuple(word_0))
    validate_plat(knot)
    validate_plat(untwisted)
    band_sites = tuple(
        BandSite(
            bridge=j,
            letter_index=sites_t[j][0],
            index0=sites_0[j][0],
            columns=sites_t[j][1],
            half_twists=tv.entries[j - 1],
        )
        for j in sorted(sites_t)
    )
    return SymmetricUnion(plat, tv, knot, untwisted, band_sites)


def band_arcs(su: SymmetricUnion):
    """PD code of the untwisted union and the band arcs of its twisted sites.

    Returns (pd, ((site, (arc_a, arc_b)), ...)) in bridge order, one entry per
    site with t_j != 0.  arc_a and arc_b are the 1-based Wirtinger arcs of the
    strands at the site's two columns (mirror copy, base copy), read off the
    untwisted diagram just above the site.
    """
    emb = build_embedding(su.untwisted)
    _n, arc, _relations = wirtinger_relations(emb.pd)
    word = su.untwisted.word

    def strand_arc(site: BandSite, column: int) -> int:
        # the edge on this column above the site, past the letters touching it
        above = sum(k in (column - 1, column) for k, _s in word[: site.index0])
        return arc[emb.columns[column][above]] + 1

    bands = tuple(
        (site, tuple(strand_arc(site, column) for column in site.columns))
        for site in sorted(su.sites, key=lambda s: s.bridge)
        if site.half_twists != 0
    )
    return emb.pd, bands


# ---------------------------------------------------------------------------
# plat text format


def parse_plat(text: str) -> PlatWord:
    """Parse the plat file format: `strands N` then one `g<k> +|-` per line."""
    strands = None
    word: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "strands":
            if strands is not None:
                raise PlatError(f"line {ln}: duplicate strands line")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise PlatError(f"line {ln}: expected 'strands N'")
            strands = int(parts[1])
            continue
        if strands is None:
            raise PlatError(f"line {ln}: 'strands N' must come first")
        if len(parts) != 2 or not parts[0].startswith("g"):
            raise PlatError(f"line {ln}: expected 'g<k> +|-'")
        if not parts[0][1:].isdecimal():  # int() would take signs and underscores
            raise PlatError(f"line {ln}: bad generator {parts[0]!r}")
        k = int(parts[0][1:])
        if parts[1] not in ("+", "-"):
            raise PlatError(f"line {ln}: sign must be + or -")
        word.append((k, 1 if parts[1] == "+" else -1))
    if strands is None:
        raise PlatError("missing 'strands N' line")
    return PlatWord(strands, tuple(word))


def format_plat(plat: PlatWord) -> str:
    lines = [f"strands {plat.strands}"]
    lines.extend(f"g{k} {'+' if s == 1 else '-'}" for k, s in plat.word)
    return "\n".join(lines) + "\n"
