"""Determinant invariants and surgery data from PD codes.

Two independent routes to the knot determinant are implemented:

* a Goeritz matrix built from a checkerboard coloring of the diagram's
  faces, and
* the Alexander polynomial (via Fox derivatives of a Wirtinger
  presentation) evaluated at t = -1.

Keeping both routes separate lets downstream checks compare them (and the
order of the double branched cover's first homology) as genuinely distinct
computations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import PDCode, PlatError, SymmetricUnion, band_arcs, wirtinger_relations
from .groups.finite import Perm
from .groups.snf import eliminate_unit_pivots

# ---------------------------------------------------------------------------
# faces of a PD diagram
#
# A dart is one quarter-slot of a crossing: (crossing index, position 0..3)
# where position p is the p-th entry of the PD tuple.  The face containing
# dart (c, p) is the one whose counterclockwise boundary walk arrives at
# crossing c along the edge in slot p-1 and leaves along the edge in slot p,
# i.e. the face touching the corner between slots p-1 and p.


def _darts(pd: PDCode):
    by_edge: dict[int, list[tuple[int, int]]] = {}
    for ci, tup in enumerate(pd.crossings):
        for p in range(4):
            by_edge.setdefault(tup[p], []).append((ci, p))
    for e, ds in by_edge.items():
        if len(ds) != 2:
            raise PlatError(f"edge {e} occurs {len(ds)} times")
    return by_edge


def pd_faces(pd: PDCode):
    """Faces as dart cycles plus the dart -> face index map.

    The Euler count (faces = crossings + 2) is asserted, so a nonplanar or
    corrupted code fails loudly here.
    """
    if not pd.crossings:
        return [], {}
    by_edge = _darts(pd)

    def mate(d):
        a, b = by_edge[pd.crossings[d[0]][d[1]]]
        return b if d == a else a

    visited = set()
    faces = []
    face_of: dict[tuple[int, int], int] = {}
    for ci in range(len(pd.crossings)):
        for p in range(4):
            d = (ci, p)
            if d in visited:
                continue
            face = []
            cur = d
            while cur not in visited:
                visited.add(cur)
                face.append(cur)
                face_of[cur] = len(faces)
                nci, npos = mate(cur)
                cur = (nci, (npos + 1) % 4)
            faces.append(face)
    n = len(pd.crossings)
    if len(faces) != n + 2:
        raise PlatError(
            f"face count {len(faces)} != crossings + 2 = {n + 2}; nonplanar PD?"
        )
    return faces, face_of


def checkerboard(pd: PDCode):
    """2-color the faces so faces sharing an edge get opposite colors.

    Returns (faces, colors, face_of) with colors in {0, 1}; the face
    containing dart (0, 0) is colored 1 ("shaded").
    """
    faces, face_of = pd_faces(pd)
    by_edge = _darts(pd)
    adj: list[set[int]] = [set() for _ in faces]
    for _e, (d1, d2) in by_edge.items():
        fa, fb = face_of[d1], face_of[d2]
        adj[fa].add(fb)
        adj[fb].add(fa)
    color = [-1] * len(faces)
    start = face_of[(0, 0)]
    color[start] = 1
    queue = [start]
    while queue:
        f = queue.pop()
        for g in adj[f]:
            if color[g] == -1:
                color[g] = 1 - color[f]
                queue.append(g)
            elif color[g] == color[f]:
                raise PlatError("faces are not 2-colorable; malformed PD code")
    if -1 in color:
        raise PlatError("face adjacency graph is disconnected")
    return faces, color, face_of


def _bareiss(matrix) -> int:
    """Fraction-free Bareiss determinant of a dense square integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    M = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _int_det(matrix) -> int:
    """Signed determinant of a square integer matrix: unit pivots first
    (groups.snf.eliminate_unit_pivots), then Bareiss on the small core."""
    red = eliminate_unit_pivots(matrix)
    rows = Perm([r for r, _c, _p in red.pivots] + red.core_rows)
    cols = Perm([c for _r, c, _p in red.pivots] + red.core_cols)
    sign = 1 if rows.is_even == cols.is_even else -1
    for _r, _c, p in red.pivots:
        sign *= p
    return sign * _bareiss(red.core)


@dataclass(frozen=True)
class GoeritzData:
    matrix: tuple[tuple[int, ...], ...]  # full (undeleted) matrix
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
    _faces, color, face_of = checkerboard(pd)
    nfaces = max(face_of.values()) + 1
    shaded = [fi for fi in range(nfaces) if color[fi] == 1]
    index = {fi: i for i, fi in enumerate(shaded)}
    m = len(shaded)
    G = [[0] * m for _ in range(m)]
    for ci in range(len(pd.crossings)):
        # dart p touches the corner between edge slots p-1 and p, so darts
        # {0, 2} and {1, 3} are the two diagonal corner pairs
        fcs = [face_of[(ci, p)] for p in range(4)]
        pair02 = color[fcs[0]] == 1 and color[fcs[2]] == 1
        pair13 = color[fcs[1]] == 1 and color[fcs[3]] == 1
        if pair02 == pair13:
            raise PlatError("checkerboard coloring inconsistent at a crossing")
        if pair02:
            eta, fa, fb = 1, fcs[0], fcs[2]
        else:
            eta, fa, fb = -1, fcs[1], fcs[3]
        if fa == fb:
            continue  # nugatory crossing: one shaded face on both corners
        ia, ib = index[fa], index[fb]
        G[ia][ib] -= eta
        G[ib][ia] -= eta
        G[ia][ia] += eta
        G[ib][ib] += eta
    reduced = [row[:-1] for row in G[:-1]]
    det = abs(_int_det(reduced))
    return GoeritzData(tuple(tuple(r) for r in G), det, m)


def goeritz_determinant(pd: PDCode) -> int:
    return goeritz(pd).determinant


# ---------------------------------------------------------------------------
# Fox calculus route


def _fox_int_matrix(relations, ngen: int, t: int):
    """Integer Fox Jacobian at the given t, with s = -1 rows scaled by t.

    The scaling clears denominators; it multiplies the determinant by a power
    of t, which the polynomial normalization strips later.
    """
    rows = []
    for over, s, ain, cout in relations:
        row = [0] * ngen
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

    def eval_at(t: int) -> int:
        rows = _fox_int_matrix(relations, ngen, t)
        minor = [r[:-1] for r in rows[:-1]]
        return _int_det(minor)

    # minor size nc-1, entries of degree <= 1 in t, so the determinant has
    # degree <= nc - 1 and nc sample points pin it down
    points = list(range(2, nc + 2))
    values = [eval_at(t) for t in points]
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
    ngen, _arc, relations = wirtinger_relations(pd)
    rows = _fox_int_matrix(relations, ngen, -1)
    minor = [r[:-1] for r in rows[:-1]]
    return abs(_int_det(minor))


# ---------------------------------------------------------------------------
# the cobordism surgery description


@dataclass(frozen=True)
class SurgeryBand:
    bridge: int
    framing: int  # -sign(t_j): positive half-twists give framing -1 bands
    half_twists: int
    arcs: tuple[int, int]  # the two strand meridians the band circle encircles


@dataclass(frozen=True)
class SurgeryDescription:
    """Band data of the ribbon-move cobordism attached to a twisted double."""

    bands: tuple[SurgeryBand, ...]

    def linking_matrix(self) -> list[list[int]]:
        """Diagonal linking matrix of the band cores (entry -framing per band)."""
        eps = [-b.framing for b in self.bands]
        n = len(eps)
        return [[eps[i] if i == j else 0 for j in range(n)] for i in range(n)]


def cobordism_linking_matrix(sd: SurgeryDescription) -> list[list[int]]:
    """Intersection pairing of the twist-undoing cobordism: diag(-framing)."""
    return sd.linking_matrix()


def is_definite(matrix: list[list[int]]) -> str:
    """Classify a diagonal linking matrix: positive/negative/indefinite/empty."""
    diag = [matrix[i][i] for i in range(len(matrix))]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if i != j and v != 0:
                raise PlatError("linking matrix must be diagonal")
    if not diag:
        return "empty"
    if all(d > 0 for d in diag):
        return "positive"
    if all(d < 0 for d in diag):
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
