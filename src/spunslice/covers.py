"""Determinant invariants and surgery data: the constructions.

Two independent routes to the knot determinant are implemented:

* a Goeritz matrix built from a checkerboard coloring of the PD's faces, and
* Fox colorings of the plat word, the Fox Jacobian at t = -1 of its bridge
  presentation, which never builds the PD code.

They share only the plat word, so a fault in the PD sweep reaches Goeritz
alone and the checks comparing the routes (and the order of the double
branched cover's first homology) see it.  Each ends in a sparse integer
minor whose determinant is `groups.snf.determinant`.  Fox calculus on the
PD (`alexander_det`, `alexander_polynomial`) serves the bench and tests
only.  The twist cobordism's surgery bands have a diagonal form.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagrams import PDCode, PlatError, PlatWord, SymmetricUnion, band_arcs, wirtinger_relations
from .groups.snf import determinant

# ---------------------------------------------------------------------------
# faces of a PD diagram
#
# A dart is one quarter-slot of a crossing, numbered d = 4c + p for slot p
# (the p-th entry of the PD tuple) of crossing c.  The face containing dart
# d is the one whose counterclockwise boundary walk arrives at crossing c
# along the edge in slot p-1 and leaves along the edge in slot p, i.e. the
# face touching the corner between slots p-1 and p.  The walk goes on from
# the dart at the other end of that edge, mate[d], to the next slot there.


def checkerboard(pd: PDCode):
    """Number the faces and 2-color them so faces sharing an edge differ.

    Returns (face_of, color): face_of[d] is the face of dart d, faces being
    numbered in order of their first dart, and color[f] in {0, 1}, the face
    of dart 0 being colored 1 ("shaded").  Colors alternate around a
    crossing, so dart d = 4c + p has color base[c] ^ (p & 1).  The Euler
    count (faces = crossings + 2) is checked, so a nonplanar or corrupted
    code fails loudly here.

    The darts are paired as the edge labels come, and each face is colored
    from the four corners of a crossing when the coloring reaches it.
    """
    n = pd.n_crossings
    nxt = [-1] * (4 * n)  # next dart on the face: the slot after the mate's
    first: dict[int, int] = {}  # edge label -> its first dart
    for d, e in enumerate(e for tup in pd.crossings for e in tup[:4]):
        o = first.setdefault(e, d)
        if o != d and nxt[o] < 0:
            nxt[o], nxt[d] = (d & ~3) | ((d + 1) & 3), (o & ~3) | ((o + 1) & 3)
    if -1 in nxt:  # a label that occurs once, or a third time, leaves a dart unpaired
        counts: dict[int, int] = {}
        for tup in pd.crossings:
            for e in tup[:4]:
                counts[e] = counts.get(e, 0) + 1
        e, k = next((e, k) for e, k in counts.items() if k != 2)
        raise PlatError(f"edge {e} occurs {k} times")
    face_of = [-1] * len(nxt)
    nfaces = 0
    for start in range(len(nxt)):
        if face_of[start] < 0:
            d = start
            while face_of[d] < 0:
                face_of[d] = nfaces
                d = nxt[d]
            nfaces += 1
    if nfaces != n + 2:
        raise PlatError(
            f"face count {nfaces} != crossings + 2 = {n + 2}; nonplanar PD?"
        )
    # darts d and nxt[d] lie on one face, which fixes base across every
    # edge; a conflict means some face would get both colors
    base = [1] + [-1] * (n - 1)
    color = [0] * nfaces
    queue = [0]
    for c in queue:
        for d in range(4 * c, 4 * c + 4):
            col = base[c] ^ (d & 1)
            color[face_of[d]] = col
            e = nxt[d]
            b = col ^ (e & 1)
            if base[e >> 2] < 0:
                base[e >> 2] = b
                queue.append(e >> 2)
            elif base[e >> 2] != b:
                raise PlatError("faces are not 2-colorable; malformed PD code")
    if len(queue) < n:
        raise PlatError("face adjacency graph is disconnected")
    return face_of, color


def _minor_det(rows: list[dict[int, int]]) -> int:
    """Determinant of a square sparse matrix with its last row and column
    deleted; zero entries are dropped on the way."""
    last = max(len(rows) - 1, 0)
    minor = [{j: v for j, v in row.items() if v and j != last} for row in rows[:-1]]
    return determinant(minor, last)


class GoeritzData(NamedTuple):
    rows: tuple[dict[int, int], ...]  # full (undeleted) matrix as sparse rows
    determinant: int
    shaded_faces: int


def goeritz(pd: PDCode) -> GoeritzData:
    """Goeritz matrix of the diagram and the knot determinant from it.

    Faces are checkerboard-colored; rows and columns are indexed by the
    shaded faces with the last one deleted.  Each crossing where two distinct
    shaded faces meet contributes an incidence sign eta to their off-diagonal
    entry; diagonals make the undeleted row sums zero.  eta depends only on
    which diagonal pair of corners is shaded (it is independent of strand
    orientations), and a global flip of eta leaves |det| unchanged.
    """
    if not pd.crossings:
        return GoeritzData((), 1, 0)
    face_of, color = checkerboard(pd)
    shaded = [f for f, col in enumerate(color) if col]
    index = [0] * len(color)
    for i, f in enumerate(shaded):
        index[f] = i
    G: list[dict[int, int]] = [{} for _ in shaded]
    for d in range(0, len(face_of), 4):
        # dart p touches the corner between edge slots p-1 and p, so darts
        # {0, 2} and {1, 3} are the two diagonal corner pairs; p = 0 when the
        # shaded pair is {0, 2}
        p = 1 - color[face_of[d]]
        fa, fb = face_of[d + p], face_of[d + p + 2]
        if fa == fb:
            continue  # nugatory crossing: one shaded face on both corners
        eta, ia, ib = 1 - 2 * p, index[fa], index[fb]
        ra, rb = G[ia], G[ib]
        ra[ib] = ra.get(ib, 0) - eta
        rb[ia] = rb.get(ia, 0) - eta
        ra[ia] = ra.get(ia, 0) + eta
        rb[ib] = rb.get(ib, 0) + eta
    return GoeritzData(tuple(G), abs(_minor_det(G)), len(shaded))


def goeritz_determinant(pd: PDCode) -> int:
    return goeritz(pd).determinant


# ---------------------------------------------------------------------------
# Fox calculus route


def _fox_int_matrix(relations, t: int) -> list[dict[int, int]]:
    """Integer Fox Jacobian at the given t as sparse rows {generator: value},
    with s = -1 rows scaled by t.

    The scaling clears denominators; it multiplies the determinant by a power
    of t, which the polynomial normalization strips later.
    """
    rows = []
    for over, s, ain, cout in relations:
        row = {over: 0, ain: 0, cout: 0}
        if s == 1:
            row[over] += 1 - t
            row[ain] += t
            row[cout] -= 1
        else:
            row[over] += t - 1
            row[ain] += 1
            row[cout] -= t
        rows.append(row)
    return rows


def alexander_polynomial(pd: PDCode) -> tuple[int, ...]:
    """Alexander polynomial coefficients, lowest degree first.

    Computed as the determinant of the Fox Jacobian of a Wirtinger
    presentation with one row and one column deleted, recovered exactly by
    integer evaluation and Newton interpolation, then normalized by
    stripping powers of t and fixing the sign so that the value at t = 1
    is +1 (it is always +-1 for a knot, which doubles as a sanity check).
    """
    nc = pd.n_crossings
    if nc == 0:
        return (1,)
    ngen, _arc, relations = wirtinger_relations(pd)
    if ngen != nc:
        raise PlatError("arc count != crossing count; not a knot diagram?")

    # minor size nc-1, entries of degree <= 1 in t, so the determinant has
    # degree <= nc - 1 and nc sample points pin it down
    points = list(range(2, nc + 2))
    values = [_minor_det(_fox_int_matrix(relations, t)) for t in points]
    coeffs = _newton_int(points, values)
    # strip unit powers of t
    low = next((i for i, c in enumerate(coeffs) if c), None)
    if low is None:
        raise PlatError("Alexander determinant vanished identically")
    coeffs = coeffs[low:]
    at1 = sum(coeffs)
    if abs(at1) != 1:
        raise PlatError(f"Alexander value at 1 is {at1}, not a unit; bad diagram")
    if at1 < 0:
        coeffs = [-c for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _newton_int(points: list[int], values: list[int]) -> list[int]:
    """Coefficients, lowest degree first, of the polynomial of degree
    < len(points) through integer data, by Newton divided differences on
    integers.  Those are integers exactly when the polynomial has integer
    coefficients, so a division with a remainder raises."""
    n = len(points)
    dd = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], points[i] - points[i - k])
            if r:
                raise PlatError("interpolated Alexander coefficients not integral")
            dd[i] = q
    # expand dd[0] + (x - x_0)(dd[1] + (x - x_1)(dd[2] + ...)) from inside out
    coeffs = [dd[-1]]
    for k in range(n - 2, -1, -1):
        shifted = [0] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= points[k] * c
        shifted[0] += dd[k]
        coeffs = shifted
    return coeffs


def alexander_det(pd: PDCode) -> int:
    """Knot determinant |Delta(-1)| via Fox calculus.

    Evaluated directly at t = -1: the determinant of the deleted Fox
    Jacobian equals Delta(t) up to a unit +-t^k, and at t = -1 every unit
    has absolute value 1, so no polynomial normalization is needed.
    """
    _ngen, _arc, relations = wirtinger_relations(pd)
    return abs(_minor_det(_fox_int_matrix(relations, -1)))


def bridge_fox_det(plat: PlatWord) -> int:
    """|Delta(-1)| by Fox colorings of the plat's b-bridge presentation
    (Przytycki, Banach Center Publ. 42, 1998): a column's color is a linear
    form in the top-cap colors but the last, a crossing colors its outgoing
    under-strand 2 * over - incoming under, and bottom cap i gives the row
    x_{2i-1} - x_{2i}.  These b - 1 rows are the Fox Jacobian at t = -1."""
    b, cols = plat.bridges, []
    for j in range(b - 1):  # every column's coefficient of top-cap color j
        x = [0] * (2 * b + 1)
        x[2 * j + 1] = x[2 * j + 2] = 1
        for k, s in plat.word:
            if s == 1:
                x[k], x[k + 1] = 2 * x[k] - x[k + 1], x[k]
            else:
                x[k], x[k + 1] = x[k + 1], 2 * x[k + 1] - x[k]
        cols.append(x)
    caps = [[x[2 * i + 1] - x[2 * i + 2] for x in cols] for i in range(b - 1)]
    return abs(determinant([{j: v for j, v in enumerate(row) if v} for row in caps], b - 1))


# ---------------------------------------------------------------------------
# the cobordism surgery description


class SurgeryBand(NamedTuple):
    bridge: int
    framing: int  # -sign(t_j): positive half-twists give framing -1 bands
    half_twists: int
    arcs: tuple[int, int]  # the two strand meridians the band circle encircles


class SurgeryDescription(NamedTuple):
    """Band data of the ribbon-move cobordism attached to a twisted double."""

    bands: tuple[SurgeryBand, ...]


def cobordism_linking_matrix(sd: SurgeryDescription) -> list[int]:
    """Intersection form of the twist-undoing cobordism, which is diagonal:
    its diagonal, -framing per band."""
    return [-b.framing for b in sd.bands]


def is_definite(diagonal: list[int]) -> str:
    """Classify a diagonal form by its diagonal: positive/negative/indefinite/empty."""
    if not diagonal:
        return "empty"
    if all(d > 0 for d in diagonal):
        return "positive"
    if all(d < 0 for d in diagonal):
        return "negative"
    return "indefinite"


def surgery_description(su: SymmetricUnion) -> SurgeryDescription:
    """One surgery circle per nonzero twist region, framing -sign(t_j).

    Every bridge with t_j != 0 contributes -- including bridge 1, whose
    twists act on the two gluing strands.  Each band records the meridian
    pair it encircles: the Wirtinger arc of the base-copy strand and of its
    mirror partner at the twist site, read off the untwisted diagram.
    """
    _pd, bands = band_arcs(su)
    return SurgeryDescription(
        tuple(
            SurgeryBand(
                bridge=site.bridge,
                framing=-1 if site.half_twists > 0 else 1,
                half_twists=site.half_twists,
                arcs=arcs,
            )
            for site, arcs in bands
        )
    )
