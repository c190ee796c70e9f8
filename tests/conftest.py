"""Shared frozen inputs for the test suite.

The plat words below are fixed once and for all; their invariants
(determinants, Alexander evaluations, cover homology) were derived from
independent sources -- closed-form torus-knot polynomials, checkerboard
forms computed by hand on small diagrams, and brute-force enumeration --
and the tests pin those numbers exactly.

The brute-force oracles at the end are the references that the runtime's
searches are checked against; they live here, outside the package.
"""

import random
from collections import deque
from heapq import heapify, heappop, heappush
from fractions import Fraction
from dataclasses import dataclass, field
from itertools import permutations, product

from spunslice import diagrams
from spunslice.covers import GoeritzData, _minor_det
from spunslice.decker import (
    DEFAULT_RESOLUTION,
    NORTH,
    OVER_OFFSET,
    SOUTH,
    UNDER_OFFSET,
    CriterionReport,
    DeckerSet,
    SliceCurve,
    _pairs,
    _short_rep,
    _side_masks,
    validate_curve,
)
from spunslice.diagrams import (
    ChordDiagram,
    Embedding,
    PDCode,
    PlatError,
    PlatWord,
    closure_components,
    validate_plat,
)
from spunslice.groups.finite import CLOSURE_BOUND, FiniteGroup, GroupError
from spunslice.groups.homcount import (
    _LOOKAHEAD_COST,
    _LOOKAHEAD_WIDTH,
    DEFAULT_NODE_BUDGET,
    HomCount,
    _Cascade,
    _choose_schedule,
    _compile_schedule,
    _modelled_cost,
    _relator_index,
)
from spunslice.groups.presentations import GroupPresentation, Word, free_reduce, invert
from spunslice.groups.snf import UnitReduction
from spunslice.groups.toddcoxeter import DEFAULT_MAX_COSETS, CosetResult

UNKNOT = PlatWord(2, ())
KINK = PlatWord(2, ((1, 1),))
UNKNOT_SLIDE = PlatWord(4, ((2, 1),))
TREFOIL = PlatWord(4, ((2, 1), (2, 1), (2, 1)))
TREFOIL_NEG = PlatWord(4, ((2, -1), (2, -1), (2, -1)))
FIG8 = PlatWord(4, ((2, 1), (1, -1), (2, 1), (2, 1)))
T25 = PlatWord(4, ((2, -1),) * 5)
K5_2 = PlatWord(4, ((2, 1), (1, -1), (1, -1), (2, 1), (2, 1)))
TWO_COMPONENT = PlatWord(4, ())


def t3_plat(q: int) -> PlatWord:
    """Torus knot T(3,q) as a plat on 6 strands: the braid-closure layout
    of (s1^-1 s2^-1)^q with the first and last cap-slide letters absorbed."""
    return PlatWord(
        6, tuple(([(3, -1), (2, -1), (3, 1), (5, -1), (4, -1), (5, 1)] * q)[1:-1])
    )


T35 = t3_plat(5)


def join_components(strands: int, word: list, sign: int) -> tuple:
    """The word with letters g_2i of the given sign appended until its plat
    closure is a knot."""
    # a letter g_2i below everything swaps two strands at bottom caps i and
    # i+1; when they lie on different components it merges them
    while (comps := closure_components(PlatWord(strands, tuple(word)))) > 1:
        word.append(next(
            (k, sign) for k in range(2, strands - 1, 2)
            if closure_components(PlatWord(strands, tuple(word) + ((k, sign),))) < comps
        ))
    return tuple(word)


def fault_the_pd_sweep(monkeypatch) -> None:
    """A PD-sweep fault: from here on every embedding the sweep builds has
    its first PD tuple rotated one slot and its sign negated, which swaps
    that crossing's over and under strands."""
    sweep = diagrams._sweep

    def faulted(plat):
        emb = sweep(plat)
        (a, b, c, d, s), *rest = emb.pd.crossings
        return Embedding(emb.columns, emb.chords, PDCode(((b, c, d, a, -s), *rest)))

    monkeypatch.setattr(diagrams, "_sweep", faulted)


def seeded_knot_plat(seed: int, strands: int, letters: int) -> PlatWord:
    """A random knot plat from random.Random(seed), redrawing words whose
    closure is a link."""
    rng = random.Random(seed)
    while True:
        word = tuple((rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(letters))
        plat = PlatWord(strands, word)
        if closure_components(plat) == 1:
            return plat


def ladder_plats() -> list[tuple[str, PlatWord]]:
    """The benchmark ladder's random knot plats, named `strands x letters -
    i`: 4 at 6/40, 6 at 8/60 and 2 at 10/150, drawn in that order from
    random.Random(0), redrawing words whose closure is a link."""
    rng = random.Random(0)
    out = []
    for strands, letters, count in ((6, 40, 4), (8, 60, 6), (10, 150, 2)):
        for i in range(count):
            while True:
                word = tuple(
                    (rng.randint(1, strands - 1), rng.choice((1, -1)))
                    for _ in range(letters)
                )
                plat = PlatWord(strands, word)
                if closure_components(plat) == 1:
                    break
            out.append((f"{strands}x{letters}-{i}", plat))
    return out

# determinant / Alexander oracles: values from the torus-knot formula
# Delta_{T(2,n)} and Delta_{T(3,5)}, and standard twist-knot polynomials
DETERMINANTS = {
    "unknot": (UNKNOT, 1),
    "kink": (KINK, 1),
    "unknot-slide": (UNKNOT_SLIDE, 1),
    "trefoil": (TREFOIL, 3),
    "trefoil-neg": (TREFOIL_NEG, 3),
    "figure8": (FIG8, 5),
    "t25": (T25, 5),
    "k5-2": (K5_2, 7),
    "t35": (T35, 1),
}

# |Delta(3)| evaluations, from the same closed forms
ALEX_AT_3 = {
    "trefoil": (TREFOIL, 7),
    "figure8": (FIG8, 1),
    "t25": (T25, 61),
    "k5-2": (K5_2, 11),
    "t35": (T35, 4561),
}


def premise(cert, name: str):
    """The premise record of `cert` named `name`."""
    for rec in cert.premises:
        if rec.name == name:
            return rec
    raise KeyError(name)


def sl2_f5_matrix_count() -> int:
    """Independent count of all determinant-1 matrices over F_5."""
    return sum(
        1
        for a in range(5)
        for b in range(5)
        for c in range(5)
        for d in range(5)
        if (a * d - b * c) % 5 == 1
    )


def hom_count_brute(pres, G) -> int:
    """Number of homomorphisms pres -> G by enumerating the images of
    generators 1, 2, ..., n in turn over all of G, and dropping a partial
    assignment as soon as a relator in the generators assigned so far
    fails.  Small inputs only."""
    n = pres.n_generators
    mult = G.mult
    inv = G.inverse
    ident = G.identity
    count = 0
    val = [0] * (n + 1)
    # closes[g]: the relators whose largest generator is g
    closes = [[] for _ in range(n + 1)]
    for r in pres.relators:
        closes[max((abs(x) for x in r), default=0)].append(r)

    def evaluate(word) -> int:
        acc = ident
        for x in word:
            img = val[x] if x > 0 else inv[val[-x]]
            acc = mult[acc][img]
        return acc

    def rec(g: int):
        # generators 1..g are assigned
        nonlocal count
        if any(evaluate(r) != ident for r in closes[g]):
            return
        if g == n:
            count += 1
            return
        for cand in range(G.order):
            val[g + 1] = cand
            rec(g + 1)

    rec(0)
    return count


def compile_schedule_rescan(n: int, rels: list, first: int | None = None) -> list:
    """The hom-count schedule by rescanning every relator: repeated passes
    in relator order derive each generator that a relator determines (its
    single unknown position), every fully known relator is checked after
    each derive, and a free generator is scored by rerunning the cascade
    on copies of the state.  `first`, when given, is the first free choice
    instead.  Same block format as the package's indexed compile, which
    must return identical blocks."""

    def cascade(assigned, consumed, derived=None) -> int:
        gained = 0
        progress = True
        while progress:
            progress = False
            for ri, r in enumerate(rels):
                if consumed[ri]:
                    continue
                unknown = [p for p, x in enumerate(r) if abs(x) not in assigned]
                if len(unknown) != 1:
                    continue
                consumed[ri] = True
                assigned.add(abs(r[unknown[0]]))
                gained += 1
                progress = True
                if derived is not None:
                    derived(r, unknown[0])
        return gained

    blocks = [(0, [])]
    assigned = set()
    consumed = [False] * len(rels)

    def emit_checks():
        for ri, r in enumerate(rels):
            if not consumed[ri] and all(abs(x) in assigned for x in r):
                consumed[ri] = True
                blocks[-1][1].append(("check", r))

    def derived(r, p):
        eps = 1 if r[p] > 0 else -1
        blocks[-1][1].append(("derive", abs(r[p]), r[:p], r[p + 1 :], eps))
        emit_checks()

    while True:
        emit_checks()
        cascade(assigned, consumed, derived)
        free = [g for g in range(1, n + 1) if g not in assigned]
        if not free:
            return blocks
        if first is not None and len(blocks) == 1:
            g = first
        else:
            g = max(free, key=lambda c: (cascade(assigned | {c}, list(consumed)), -c))
        blocks.append((g, []))
        assigned.add(g)


def choose_schedule_from_scratch(n: int, rels: list) -> list:
    """`_choose_schedule` with every lookahead candidate compiled from
    scratch: no compile splices the blocks another compile found after the
    same known set.  The package's lookahead must return identical
    blocks."""
    index = _relator_index(n, rels)
    blocks = _compile_schedule(n, rels, index=index)
    best = _modelled_cost(blocks)
    if best <= _LOOKAHEAD_COST * n:
        return blocks
    cascade = _Cascade(n, rels, index)
    # the first of these is the greedy choice, already compiled
    for c in cascade.ranked(cascade.run(), _LOOKAHEAD_WIDTH)[1:]:
        other = _compile_schedule(n, rels, c, index, best)
        if other is not None:
            blocks, best = other, _modelled_cost(other)
    return blocks


def simplified_all_rotations(pres: GroupPresentation) -> GroupPresentation:
    """`GroupPresentation.simplified` keying every relator by the least of
    all rotations of the word and of its inverse.  The package's bucketed
    dedup must return identical relators."""
    seen = set()
    rels = []
    for r in pres.relators:
        r2 = free_reduce(r)
        if not r2:
            continue

        def rotations(w):
            return [w[i:] + w[:i] for i in range(len(w))]

        key = min(rotations(r2) + rotations(invert(r2)))
        if key in seen:
            continue
        seen.add(key)
        rels.append(r2)
    return GroupPresentation(pres.n_generators, tuple(rels), pres.meridians)


class _ReferenceBudget(Exception):
    pass


def _reference_block(steps) -> tuple[list[tuple], int]:
    # (kind, g, a, b): kind 1 derives g as img[a]*img[b]*img[a]^-1, kind 2
    # as the word a, and kind 0 checks the word a with b derives before it
    out = []
    derives = 0
    for step in steps:
        if step[0] == "check":
            out.append((0, 0, step[1], derives))
            continue
        _, g, prefix, suffix, eps = step
        word = invert(prefix) + invert(suffix) if eps > 0 else suffix + prefix
        if len(word) == 3 and word[2] == -word[0]:
            out.append((1, g, word[0], word[1]))
        else:
            out.append((2, g, word, 0))
        derives += 1
    return out, derives


def hom_count_reference(pres, G, node_budget: int = DEFAULT_NODE_BUDGET) -> HomCount:
    """`hom_count` on the package's schedule and pruning with a plain step
    runner: every check is multiplied out from the identity and every
    derive writes the inverse of its image.  `hom_count` must return the
    same status, count and nodes under every node budget."""
    simple = pres.simplified()
    n = simple.n_generators
    if n == 0:
        return HomCount("exact", 1, 0)
    blocks = [
        (g, *_reference_block(steps)) for g, steps in _choose_schedule(n, list(simple.relators))
    ]
    all_meridian = simple.meridians == frozenset(range(1, n + 1))
    mult, conj, inv, ident = G.mult, G.conjugation, G.inverse, G.identity
    img = [ident] * (2 * n + 1)
    nodes = 0

    def run(steps, derives) -> bool:
        nonlocal nodes
        crossing = max(node_budget - nodes, 0) + 1
        if derives >= crossing:
            # the steps before the crossing derive
            k = crossing
            for i, step in enumerate(steps):
                if step[0]:
                    k -= 1
                    if not k:
                        steps = steps[:i]
                        break
        for kind, g, a, b in steps:
            if kind == 1:
                acc = conj[img[a]][img[b]]
            else:
                acc = ident
                for x in a:
                    acc = mult[acc][img[x]]
                if not kind:
                    if acc != ident:
                        nodes += b
                        return False
                    continue
            img[g] = acc
            img[-g] = inv[acc]
        if derives >= crossing:
            nodes += crossing
            raise _ReferenceBudget
        nodes += derives
        return True

    try:
        _, steps, derives = blocks[0]
        if not run(steps, derives):
            return HomCount("exact", 0, nodes)
        if len(blocks) == 1:
            return HomCount("exact", 1, nodes)
        total = 0
        stack = [iter([(cls[0], len(cls)) for cls in G.conjugacy_classes])]
        weights = [1]
        while stack:
            item = next(stack[-1], None)
            if item is None:
                stack.pop()
                weights.pop()
                continue
            nodes += 1
            if nodes > node_budget:
                raise _ReferenceBudget
            depth = len(stack)
            g, steps, derives = blocks[depth]
            cand, w = item
            img[g] = cand
            img[-g] = inv[cand]
            if not run(steps, derives):
                continue
            w *= weights[-1]
            if depth + 1 == len(blocks):
                total += w
                continue
            if depth == 1:
                domain = G.conjugacy_classes[G.class_index[cand]] if all_meridian else range(G.order)
                unweighted = [(h, 1) for h in domain]
                stack.append(iter(centralizer_orbits(G, cand, domain)))
            else:
                stack.append(iter(unweighted))
            weights.append(w)
    except _ReferenceBudget:
        return HomCount("inconclusive", None, nodes)
    return HomCount("exact", total, nodes)


def centralizer_orbits(G, g: int, domain) -> list[tuple[int, int]]:
    """`(representative, orbit size)` for each orbit of C_G(g) acting on
    domain by conjugation, representatives first in domain order, computed
    afresh on each call: the oracle of `FiniteGroup.centralizer_orbits`."""
    conj = G.conjugation
    cent = [c for c in range(G.order) if conj[c][g] == g]
    return [(h, len(orbit)) for h, orbit in G.orbits(cent, domain)]


def lagrange_fraction(points, values) -> list:
    """Coefficients, lowest degree first, of the polynomial of degree
    < len(points) through the data, by Lagrange interpolation over
    Fractions."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(points, values)):
        # numerator polynomial prod_{j != i} (x - x_j), built incrementally
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, ck in enumerate(basis):
                new[k] -= ck * xj
                new[k + 1] += ck
            basis = new
        w = Fraction(yi, denom)
        for k, ck in enumerate(basis):
            coeffs[k] += ck * w
    return coeffs


# Fraction oracle for the unit icosians.  A coordinate is a pair (x, y) of
# Fractions meaning x + y*sqrt5; nothing is scaled or divided, so the
# product below is exact by construction.

def _q5_mul(u, v):
    return (u[0] * v[0] + 5 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _q5_sum(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _q5_neg(u):
    return (-u[0], -u[1])


def quaternion_product_q5(p, q):
    """Hamilton product of quaternions with Q(sqrt5) coordinates."""
    a, b, c, d = p
    e, f, g, h = q
    m, n = _q5_mul, _q5_neg
    return (
        _q5_sum(m(a, e), n(m(b, f)), n(m(c, g)), n(m(d, h))),
        _q5_sum(m(a, f), m(b, e), m(c, h), n(m(d, g))),
        _q5_sum(m(a, g), n(m(b, h)), m(c, e), m(d, f)),
        _q5_sum(m(a, h), m(b, g), n(m(c, f)), m(d, e)),
    )


def unit_icosians_q5() -> set:
    """The 120 unit icosians with Fraction coordinates: +-1, +-i, +-j, +-k,
    (+-1 +-i +-j +-k)/2 and the even permutations of (0, +-1, +-1/phi,
    +-phi)/2."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    half = (Fraction(1, 2), Fraction(0))
    iphi_half = (Fraction(-1, 4), Fraction(1, 4))  # (sqrt5 - 1)/4
    phi_half = (Fraction(1, 4), Fraction(1, 4))  # (sqrt5 + 1)/4
    out = set()
    for i in range(4):
        for s in (one, _q5_neg(one)):
            out.add(tuple(s if k == i else zero for k in range(4)))
    for signs in product((1, -1), repeat=4):
        out.add(tuple(half if s > 0 else _q5_neg(half) for s in signs))
    base = (zero, half, iphi_half, phi_half)
    for p in permutations(range(4)):
        inversions = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        if inversions % 2:
            continue
        for signs in product((1, -1), repeat=4):
            out.add(tuple(base[k] if s > 0 else _q5_neg(base[k]) for k, s in zip(p, signs)))
    return out


def icosian_as_q5(u) -> tuple:
    """An integer-coordinate icosian in the oracle's Fraction form."""
    return tuple((Fraction(x, 4), Fraction(y, 4)) for x, y in u)


# The vertex-level slice curve, the oracle for `decker`'s runs: a curve as
# one tuple per vertex, with its edges classified one at a time, the checks
# that read that classification, and the doubled-curve builder that emits
# vertices.  `vertex_curve` compresses a vertex cycle into runs, so every
# hand-made curve below reaches the runtime's run checks and side test.
def vertex_curve(l: int, m: int, rows: tuple[int, ...], vertices) -> SliceCurve:
    """The SliceCurve of a vertex cycle.

    Each maximal walk in one direction along one row becomes a run
    (region, row, start, n); every other vertex, a pole or a malformed one,
    is kept as it is.  A longitude outside 0..M-1 takes no H step, so it
    starts a run of its own, as it is.  The cycle is read from its first
    vertex that no H step enters, so a walk that wraps past the end of the
    list stays one run; a cycle made only of H steps is read from its first
    vertex.
    """
    verts = list(vertices)

    def h_step(u, v) -> int:
        if len(u) == len(v) == 3 and u[:2] == v[:2] and 0 <= u[2] < m and 0 <= v[2] < m:
            if (u[2] + 1) % m == v[2]:
                return 1
            if (v[2] + 1) % m == u[2]:
                return -1
        return 0

    steps = [h_step(u, v) for u, v in zip(verts, verts[1:] + verts[:1])]
    begin = next((i for i in range(len(verts)) if not steps[i - 1]), 0)
    verts, steps = verts[begin:] + verts[:begin], steps[begin:] + steps[:begin]
    runs = []
    i = 0
    while i < len(verts):
        if len(verts[i]) != 3:
            runs.append(verts[i])
            i += 1
            continue
        j, d = i, steps[i]
        while d and j + 1 < len(verts) and steps[j] == d:
            j += 1
        runs.append((*verts[i], d * (j - i)))
        i = j + 1
    return SliceCurve(l, m, rows, tuple(runs))


def vertex_pole_kind(curve: SliceCurve, u: tuple, v: tuple) -> tuple:
    if u == NORTH or u == SOUTH:
        u, v = v, u
    if v == NORTH:
        if len(u) == 3 and u[0] == 0 and u[1] == 0:
            return ("P", "N")
        raise PlatError(f"pole edge must land on region 0 row 0, not {u}")
    if v == SOUTH:
        if len(u) == 3 and u[0] == curve.l and u[1] == curve.rows[curve.l] - 1:
            return ("P", "S")
        raise PlatError(f"pole edge must land on the last row of region {curve.l}")
    raise PlatError(f"malformed vertices {u} -> {v}")


def vertex_edge_kinds(curve: SliceCurve) -> tuple[tuple, ...]:
    """Kind of each edge of curve.edges(), in order: ("H", +-1) east or
    west, ("V", +-1) down or up a row, ("X", circle, longitude) or ("P",
    "N" | "S").  Raises PlatError at the first edge that is not a grid
    edge."""
    lng, m, rows = curve.l, curve.m, curve.rows
    kinds = []
    for u, v in curve.edges():
        if len(u) != 3 or len(v) != 3:
            kinds.append(vertex_pole_kind(curve, u, v))
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


def vertex_crossings(curve: SliceCurve) -> dict[int, tuple[int, ...]]:
    """Sorted crossing longitudes per circle, from the X edges."""
    out: dict[int, list[int]] = {}
    for kind in vertex_edge_kinds(curve):
        if kind[0] == "X":
            out.setdefault(kind[1], []).append(kind[2])
    return {c: tuple(sorted(ks)) for c, ks in sorted(out.items())}


def validate_vertices(ds: DeckerSet, curve: SliceCurve) -> None:
    """Raise PlatError unless the curve's vertices form a valid simple cycle
    on ds: no vertex twice, every edge a grid edge, every circle crossed an
    even number of times."""
    if curve.l != ds.l or curve.m != ds.m:
        raise PlatError("curve grid does not match the decker set")
    verts = curve.vertices
    if len(verts) < 3:
        raise PlatError("a cycle needs at least three vertices")
    if len(set(verts)) != len(verts):
        raise PlatError("curve revisits a vertex")
    for circle, ks in vertex_crossings(curve).items():
        if len(ks) % 2:
            raise PlatError(f"curve crosses circle {circle} an odd number of times")


def _walk_longitudes(start: int, end: int, m: int) -> list[int]:
    """Longitudes visited walking the short way from start to end."""
    s = _short_rep(end - start, m)
    step = 1 if s > 0 else -1
    return [(start + step * i) % m for i in range(abs(s) + 1)]


def doubled_curve_vertices(ds: DeckerSet, winds: dict[int, int]) -> tuple[tuple, tuple]:
    """(rows, vertices) of the doubled curve with both strands in annulus
    region r winding winds[r] extra full turns, one vertex at a time, each
    annulus routed by `route_region_oracle`."""
    m = ds.m
    if ds.l == 0:
        return (2,), (NORTH, (0, 0, m - 1), (0, 1, m - 1), SOUTH, (0, 1, 1), (0, 0, 1))
    up = {c: OVER_OFFSET if ds.is_over(c) else UNDER_OFFSET for c in range(1, ds.l + 1)}
    down = {c: m - k for c, k in up.items()}
    rows = [2] + [3] * (ds.l - 1) + [2]
    paths: dict[int, list[list]] = {}
    for region in range(1, ds.l):
        wind = winds.get(region, 0) * m
        arcs = [
            (down[region], down[region + 1], _short_rep(down[region + 1] - down[region], m) + wind),
            (up[region], up[region + 1], _short_rep(up[region + 1] - up[region], m) + wind),
        ]
        rows[region], paths[region] = route_region_oracle(m, arcs)
    verts: list[tuple] = [NORTH]
    verts += [(0, 0, k) for k in _walk_longitudes(m - 1, down[1], m)]
    verts.append((0, 1, down[1]))
    for region in range(1, ds.l):
        verts += [(region, r, k) for r, k in paths[region][0]]
    verts += [(ds.l, 0, k) for k in _walk_longitudes(down[ds.l], m - 1, m)]
    verts += [(ds.l, 1, m - 1), SOUTH]
    verts += [(ds.l, 1, k) for k in _walk_longitudes(1, up[ds.l], m)]
    verts.append((ds.l, 0, up[ds.l]))
    for region in range(ds.l - 1, 0, -1):
        verts += [(region, r, k) for r, k in reversed(paths[region][1])]
    verts += [(0, 1, k) for k in _walk_longitudes(up[1], 1, m)]
    verts.append((0, 0, 1))
    return tuple(rows), tuple(verts)


def union_winds(ds: DeckerSet, tv) -> dict[int, int]:
    """Extra full turns per annulus region for the even twist vector tv."""
    winds: dict[int, int] = {}
    for t, region in zip(tv, ds.bridge_annuli):
        if region is not None and t:
            winds[region] = winds.get(region, 0) + t // 2
    return winds


# `decker`'s side test as a dict of labels, for comparison with the oracle
# below; "the module docstring" is decker's.  The runtime reads the bit masks
# (`decker._side_masks`) directly.
def side_map(ds: DeckerSet, curve: SliceCurve) -> dict[tuple[int, int], int]:
    """Side label (1 or 2) of each circle midpoint k+1/2.

    The label is the parity of the curve edges crossed on any walk from the
    anchor, which the Jordan curve theorem makes well defined; see the module
    docstring.  Side 1 is the complement component containing the north
    pole.  When the curve passes through the pole, the anchor is the
    north-cap wedge just east of the curve's departure edge from the pole;
    tying the anchor to the curve rather than to an absolute longitude keeps
    the labels stable under global rotation.
    """
    masks = _side_masks(ds, curve)
    return {
        (c, k): 1 + (side >> k & 1)
        for c, side in enumerate(masks, start=1)
        for k in range(curve.m)
    }


# The side test's face-tuple flood fill, the reference for the even-odd
# `side_map` above: it labels faces by the components it floods, so it
# checks the parity rule rather than assuming the curve separates the sphere.
# Faces are ("NT", k), ("ST", k), ("XF", circle, k) and ("Q", region, row,
# k), and blocked edges a frozenset of vertex pairs.
def side_map_faces(ds, curve) -> dict[tuple[int, int], int]:
    """Side label (1 or 2) of each circle midpoint k+1/2.

    Side 1 is the complement component containing the north pole.  When the
    curve passes through the pole, the anchor is the reference face just
    east of the curve's departure edge from the pole; tying the anchor to
    the curve rather than to an absolute longitude keeps the labels stable
    under global rotation.
    """
    validate_vertices(ds, curve)
    m, lng, rows = curve.m, curve.l, curve.rows
    blocked = {frozenset((u, v)) for u, v in curve.edges()}

    def above(region: int, row: int, k: int):
        # face north of the H edge (region, row, k..k+1)
        if row >= 1:
            return ("Q", region, row - 1, k)
        if region == 0:
            return ("NT", k)
        return ("XF", region, k)

    def below(region: int, row: int, k: int):
        if row <= rows[region] - 2:
            return ("Q", region, row, k)
        if region == lng:
            return ("ST", k)
        return ("XF", region + 1, k)

    def neighbors(face):
        kind = face[0]
        if kind == "NT":
            k = face[1]
            yield ("NT", (k + 1) % m), frozenset((NORTH, (0, 0, (k + 1) % m)))
            yield ("NT", (k - 1) % m), frozenset((NORTH, (0, 0, k)))
            yield below(0, 0, k), frozenset(((0, 0, k), (0, 0, (k + 1) % m)))
        elif kind == "ST":
            k = face[1]
            last = rows[lng] - 1
            yield ("ST", (k + 1) % m), frozenset(
                (SOUTH, (lng, last, (k + 1) % m))
            )
            yield ("ST", (k - 1) % m), frozenset((SOUTH, (lng, last, k)))
            yield above(lng, last, k), frozenset(
                ((lng, last, k), (lng, last, (k + 1) % m))
            )
        elif kind == "Q":
            _q, region, row, k = face
            yield above(region, row, k), frozenset(
                ((region, row, k), (region, row, (k + 1) % m))
            )
            yield below(region, row + 1, k), frozenset(
                ((region, row + 1, k), (region, row + 1, (k + 1) % m))
            )
            for kk, other in ((k + 1) % m, (k + 1) % m), (k, (k - 1) % m):
                yield ("Q", region, row, other), frozenset(
                    ((region, row, kk), (region, row + 1, kk))
                )
        else:  # XF: face straddling circle `c` between longitudes k..k+1
            _x, c, k = face
            top_last = rows[c - 1] - 1
            yield above(c - 1, top_last, k), frozenset(
                ((c - 1, top_last, k), (c - 1, top_last, (k + 1) % m))
            )
            yield below(c, 0, k), frozenset(((c, 0, k), (c, 0, (k + 1) % m)))
            for kk, other in ((k + 1) % m, (k + 1) % m), (k, (k - 1) % m):
                yield ("XF", c, other), frozenset(
                    ((c - 1, top_last, kk), (c, 0, kk))
                )

    color: dict[tuple, int] = {}

    def flood(start, label):
        queue = deque([start])
        color[start] = label
        while queue:
            face = queue.popleft()
            for nb, edge in neighbors(face):
                if edge in blocked or nb in color:
                    continue
                color[nb] = label
                queue.append(nb)

    anchor = ("NT", 0)
    if NORTH in curve.vertices:
        i = curve.vertices.index(NORTH)
        depart = curve.vertices[(i + 1) % len(curve.vertices)]
        anchor = ("NT", depart[2])
    flood(anchor, 1)

    def all_faces():
        for k in range(m):
            yield ("NT", k)
            yield ("ST", k)
        for c in range(1, lng + 1):
            for k in range(m):
                yield ("XF", c, k)
        for region in range(lng + 1):
            for row in range(rows[region] - 1):
                for k in range(m):
                    yield ("Q", region, row, k)

    second = next((f for f in all_faces() if f not in color), None)
    if second is None:
        raise PlatError("curve does not separate the sphere")
    flood(second, 2)
    leftover = next((f for f in all_faces() if f not in color), None)
    if leftover is not None:
        raise PlatError("curve complement has more than two components")
    return {
        (c, k): color[("XF", c, k)]
        for c in range(1, lng + 1)
        for k in range(m)
    }


def criterion_report_midpoints(ds, curve) -> CriterionReport:
    """Both inclusion directions of the side test, one midpoint at a time on
    the `side_map_faces` labels: the reference for the bitmask comparison of
    `decker.criterion_report`."""
    sides = side_map_faces(ds, curve)
    crossings = vertex_crossings(curve)
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


# Decker-set and curve helpers that only tests use: the spin of a bare chord
# diagram, a global rotation, and a text form of decker sets and curves.
def spin_chord_diagram(cd: ChordDiagram, m: int = DEFAULT_RESOLUTION) -> DeckerSet:
    """Decker set of the spin of the tangle with chord diagram `cd`."""
    return DeckerSet(cd.n, 2 * cd.n, m, _pairs(cd))


def rotate_curve(curve: SliceCurve, d: int) -> SliceCurve:
    """Rotate the whole curve d longitude samples eastward."""
    runs = tuple(
        run if len(run) != 4 else (run[0], run[1], (run[2] + d) % curve.m, run[3])
        for run in curve.runs
    )
    return SliceCurve(curve.l, curve.m, curve.rows, runs)


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
    validate_vertices(ds, curve)
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
    for (u, v), kind in zip(curve.edges(), vertex_edge_kinds(curve)):
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
    curve = vertex_curve(ds.l, ds.m, rows, verts[:-1])
    validate_curve(ds, curve)
    return ds, curve


# The general region router: any number of strands, each checked to enter,
# leave and wind consistently.  The runtime routes only the doubled
# curve's two strands per annulus (`decker._route_region`); this is its
# oracle and the router of `dehn_twist_annulus`.
def route_region_oracle(m: int, arcs: list[tuple[int, int, int]]):
    """Route vertex-disjoint downward paths through one region.

    Returns (rows, paths); paths[i] is a list of (row, longitude) for the
    i-th descriptor.  All strands must wind the same way; this covers every
    curve this package builds (doubled curves and their band winds).
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


# The Dehn twist that re-routes one annulus of a built curve: the oracle for
# `symmetric_union_curve`, which routes each band's winds in the same pass
# that routes the doubled curve.
def crossing_set(curve: SliceCurve) -> frozenset[tuple[int, int]]:
    return frozenset(
        (c, k) for c, ks in curve.crossings().items() for k in ks
    )


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
    kinds = vertex_edge_kinds(curve)
    kinds = kinds[start:] + kinds[:start]
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
    nrows, paths = route_region_oracle(m, arcs)
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
    twisted = vertex_curve(curve.l, m, tuple(new_rows), out)
    validate_curve(ds, twisted)
    if crossing_set(twisted) != crossing_set(curve):
        raise PlatError("twist changed crossing data (internal error)")
    return twisted


# Plat and presentation helpers that only tests use.
def mirror(plat: PlatWord) -> PlatWord:
    """Mirror image: reversed word with all letter signs inverted."""
    return PlatWord(plat.strands, tuple((k, -s) for k, s in reversed(plat.word)))


def parse_presentation(text: str) -> GroupPresentation:
    ngen = None
    meridians: frozenset[int] = frozenset()
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "gens":
            if ngen is not None:
                raise PlatError(f"line {lineno}: duplicate gens line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise PlatError(f"line {lineno}: expected 'gens N'")
            ngen = int(parts[1])
            continue
        if ngen is None:
            raise PlatError(f"line {lineno}: 'gens N' must come first")
        if parts[0] == "meridians":
            meridians = frozenset(int(p) for p in parts[1:])
            continue
        try:
            word = tuple(int(p) for p in parts)
        except ValueError:
            raise PlatError(f"line {lineno}: bad relator letter") from None
        if any(x == 0 for x in word):
            raise PlatError(f"line {lineno}: generator index 0 is invalid")
        relators.append(word)
    if ngen is None:
        raise PlatError("missing 'gens N' line")
    return GroupPresentation(ngen, tuple(relators), meridians)


# The full Goeritz matrix, dense, from the sparse rows of `covers.goeritz`;
# the `goeritz` command prints the same rows without building it.
def goeritz_matrix(data) -> tuple[tuple[int, ...], ...]:
    m = data.shaded_faces
    return tuple(tuple(row.get(j, 0) for j in range(m)) for row in data.rows)


# The dense relators x generators exponent-sum matrix, the reference for the
# sparse rows that `groups.presentations.abelianization` hands the eliminator.
def abelianized_matrix(pres: GroupPresentation) -> list[list[int]]:
    rows = []
    for r in pres.relators:
        row = [0] * pres.n_generators
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


# The list-of-lists Todd-Coxeter enumerator, the reference for the flat
# `array('i')` table of `groups.toddcoxeter.todd_coxeter`: one Python list
# of 2n entries per coset, the same HLT order and the same coset numbering.
def _col(x: int) -> int:
    i = abs(x) - 1
    return 2 * i if x > 0 else 2 * i + 1


def _inv_col(col: int) -> int:
    return col ^ 1


def todd_coxeter_lists(
    pres: GroupPresentation,
    subgroup: tuple[Word, ...] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetResult:
    """Enumerate cosets of <subgroup words> in the presented group."""
    ncols = 2 * pres.n_generators
    relators = [r for r in (pres.simplified().relators) if r]
    table: list[list[int]] = [[-1] * ncols]
    parent = [0]  # union-find over cosets
    pending: list[tuple[int, int, int]] = []  # forced equalities queue

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_coset() -> int:
        table.append([-1] * ncols)
        parent.append(len(table) - 1)
        return len(table) - 1

    def set_entry(a: int, col: int, b: int):
        a, b = find(a), find(b)
        cur = table[a][col]
        if cur == -1:
            table[a][col] = b
            back = table[b][_inv_col(col)]
            if back == -1:
                table[b][_inv_col(col)] = a
            elif find(back) != a:
                pending.append((find(back), a, 0))
                process_pending()
        elif find(cur) != b:
            pending.append((find(cur), b, 0))
            process_pending()

    def process_pending():
        while pending:
            x, y, _ = pending.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x  # y dies, x survives
            for col in range(ncols):
                e = table[y][col]
                if e == -1:
                    continue
                e = find(e)
                cur = table[x][col]
                if cur == -1:
                    table[x][col] = e
                    back = table[e][_inv_col(col)]
                    if back == -1:
                        table[e][_inv_col(col)] = x
                    elif find(back) != x:
                        pending.append((find(back), x, 0))
                elif find(cur) != e:
                    pending.append((find(cur), e, 0))

    def scan(coset: int, word: Word) -> bool:
        """Scan word at coset, filling gaps; False if the budget is hit."""
        # forward as far as possible
        f = find(coset)
        i = 0
        n = len(word)
        while i < n:
            nxt = table[f][_col(word[i])]
            if nxt == -1:
                break
            f = find(nxt)
            i += 1
        if i == n:
            if f != find(coset):
                pending.append((f, find(coset), 0))
                process_pending()
            return True
        # backward from the end
        b = find(coset)
        j = n
        while j > i:
            prev = table[b][_inv_col(_col(word[j - 1]))]
            if prev == -1:
                break
            b = find(prev)
            j -= 1
        if j == i:
            # gap closed from both sides: force f = b
            if f != b:
                pending.append((f, b, 0))
                process_pending()
            return True
        if j == i + 1:
            set_entry(f, _col(word[i]), b)
            return True
        # genuine gap: define new cosets for all but the last position
        while j > i + 1:
            if len(table) >= max_cosets:
                return False
            c = new_coset()
            set_entry(f, _col(word[i]), c)
            f = find(c)
            i += 1
        set_entry(f, _col(word[i]), find(b))
        return True

    for w in subgroup:
        if not scan(0, w):
            return CosetResult("inconclusive", None, None, len(table), max_cosets)

    idx = 0
    while idx < len(table):
        if find(idx) != idx:
            idx += 1
            continue
        for r in relators:
            if not scan(idx, r):
                return CosetResult(
                    "inconclusive", None, None, len(table), max_cosets
                )
            if find(idx) != idx:
                break
        if find(idx) != idx:
            idx += 1
            continue
        for col in range(ncols):
            if find(idx) != idx:
                break
            if table[idx][col] == -1:
                if len(table) >= max_cosets:
                    return CosetResult(
                        "inconclusive", None, None, len(table), max_cosets
                    )
                c = new_coset()
                set_entry(idx, col, c)
        idx += 1

    # compress to live cosets
    live = [i for i in range(len(table)) if find(i) == i]
    renum = {c: k for k, c in enumerate(live)}
    final = []
    for c in live:
        row = []
        for col in range(ncols):
            e = table[c][col]
            if e == -1:
                raise RuntimeError("incomplete table reported as complete")
            row.append(renum[find(e)])
        final.append(tuple(row))
    return CosetResult("complete", len(live), tuple(final), len(table), max_cosets)


def strand_permutation(plat: PlatWord) -> tuple[int, ...]:
    """The 1-based bottom column of the strand entering at each top column."""
    pos = list(range(plat.strands))  # pos[i] = current column (0-based) of strand i
    col = list(range(plat.strands))  # inverse
    for k, _s in plat.word:
        a, b = col[k - 1], col[k]
        col[k - 1], col[k] = b, a
        pos[a], pos[b] = k, k - 1
    return tuple(p + 1 for p in pos)


def artin_presentation(plat: PlatWord) -> GroupPresentation:
    """The knot group read from the plat word by Artin's action, with no PD.

    Top cap j gives generator x_j: column 2j-1 carries x_j downward and
    column 2j carries x_j^-1.  Each letter gives one column a fresh
    generator: (k, +1) sends the labels (x_k, x_{k+1}) of columns k, k+1 to
    (new, x_k) with new = x_k x_{k+1} x_k^-1, and (k, -1) to (x_{k+1}, new)
    with new = x_{k+1}^-1 x_k x_{k+1}.  Bottom cap i gives the relator
    col_{2i-1} col_{2i} for i < b; the last cap's follows from the rest.
    Only the top-cap generators are meridian-marked: a fresh generator
    conjugates a column label that may be an inverse.
    """
    b = plat.strands // 2
    cols = [s * j for j in range(1, b + 1) for s in (1, -1)]
    relators = []
    n = b
    for k, sign in plat.word:
        x, y = cols[k - 1], cols[k]
        n += 1
        if sign > 0:
            relators.append((x, y, -x, -n))
            cols[k - 1], cols[k] = n, x
        else:
            relators.append((-y, x, y, -n))
            cols[k - 1], cols[k] = y, n
    relators += [(cols[2 * i], cols[2 * i + 1]) for i in range(b - 1)]
    return GroupPresentation(n, tuple(relators), frozenset(range(1, b + 1)))


# The strand-and-cap walk, the reference for the union-find over `_classes`
# in `diagrams.closure_components`: follow each strand down, across its
# bottom cap, back up and across its top cap until the component closes.
def closure_components_walk(plat: PlatWord) -> int:
    perm = strand_permutation(plat)
    n = plat.strands
    seen = [False] * (n + 1)
    comps = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        comps += 1
        c = start
        while not seen[c]:
            seen[c] = True
            d = perm[c - 1]  # follow strand down
            d = d + 1 if d % 2 else d - 1  # bottom cap
            e = perm.index(d) + 1  # back up the strand ending there
            seen[e] = True
            c = e + 1 if e % 2 else e - 1  # top cap
    return comps


# The wire sweep, the reference for the one walk along the knot in
# `diagrams._sweep`: a top-to-bottom pass builds wires (maximal edges between
# crossing ports) and a snapshot of every column before each letter, a
# traversal orients the wires and labels them 1..2n, and a last pass reads
# the PD code off the labelled ports.
_DIAG = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
_CCW = ("NE", "NW", "SW", "SE")  # counterclockwise port order at a crossing


@dataclass
class _Wire:
    ends: list  # [(port, column), (port, column)]
    vias: list  # indices j of the top caps the wire runs through


@dataclass
class WireEmbedding:
    """Planar data for a plat diagram: wires, ports, and a knot traversal."""

    wires: list = field(default_factory=list)
    port_wire: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)  # dangling state before each letter
    edge_order: list = field(default_factory=list)  # wire index per traversal label
    edge_label: dict = field(default_factory=dict)  # wire index -> 1-based label
    passages: list = field(default_factory=list)  # (crossing, enter_port, exit_port)
    chords: tuple = ()  # (over entry time, under entry time) per crossing
    pd: PDCode | None = None

    def cap_wire(self, j: int) -> int:
        """Wire index of the wire through top cap j."""
        for wi, w in enumerate(self.wires):
            if j in w.vias:
                return wi
        raise PlatError(f"no wire through top cap {j}")

    def wire_at(self, letter_index: int, column: int) -> int:
        """Wire index of the strand hanging at `column` just before letter_index."""
        kind, val = self.snapshots[letter_index][column - 1]
        # an untouched column hangs from its top cap
        return self.port_wire[val[0]] if kind == "term" else self.cap_wire(val)


def _wire_sweep(plat: PlatWord) -> WireEmbedding:
    emb = WireEmbedding()
    S = plat.strands
    # dangling[c] = ('term', (port, col, vias)) strand ends above at a
    #               crossing port, or ('peer', (other_col, j)) still open
    #               through top cap j, untouched like its partner other_col.
    dangling: list = [None] * (S + 1)
    for j in range(1, S // 2 + 1):
        left, right = 2 * j - 1, 2 * j
        dangling[left] = ("peer", (right, j))
        dangling[right] = ("peer", (left, j))

    def snapshot():
        return tuple(
            ("term", val) if kind == "term" else ("cap", val[1])
            for kind, val in dangling[1:]
        )

    def close(term_a, col_a, term_b, col_b, vias):
        wi = len(emb.wires)
        emb.wires.append(_Wire([(term_a, col_a), (term_b, col_b)], list(vias)))
        for t in (term_a, term_b):
            if t is not None:
                emb.port_wire[t] = wi

    def consume(col, port):
        kind, val = dangling[col]
        if kind == "term":
            prev_port, prev_col, vias = val
            close(prev_port, prev_col, port, col, vias)
        else:
            other, j = val
            dangling[other] = ("term", (port, col, [j]))

    for idx, (k, _s) in enumerate(plat.word):
        emb.snapshots.append(snapshot())
        consume(k, (idx, "NW"))
        consume(k + 1, (idx, "NE"))
        dangling[k] = ("term", ((idx, "SW"), k, []))
        dangling[k + 1] = ("term", ((idx, "SE"), k + 1, []))
    emb.snapshots.append(snapshot())

    # Bottom caps.  A column still "peer" here was never touched, nor was its
    # partner in top cap i, which bottom cap i joins too: in a knot that is the
    # 2-strand empty word, one port-less wire.  Otherwise both columns hang
    # from crossing ports and the cap closes one wire.
    for i in range(1, S // 2 + 1):
        a, b = dangling[2 * i - 1], dangling[2 * i]
        if a[0] == "peer":
            close(None, 2 * i - 1, None, 2 * i, [i])
            continue
        (ap, acol, avias), (bp, bcol, bvias) = a[1], b[1]
        close(ap, acol, bp, bcol, avias + bvias)
    return emb


def _wire_traverse(emb: WireEmbedding, plat: PlatWord):
    """Orient the knot and label wires 1..2n in traversal order."""
    start = emb.cap_wire(1)
    # leave the cut through the right half of cap 1: head for the end that
    # consumed the higher column among the wire's two cap-adjacent ends
    (pa, ca), (pb, cb) = emb.wires[start].ends
    first_port = pa if ca > cb else pb

    emb.edge_label[start] = 1
    emb.edge_order.append(start)
    port = first_port
    n2 = 2 * len(plat.word)
    for _step in range(n2):
        ci, corner = port
        exit_corner = _DIAG[corner]
        exit_port = (ci, exit_corner)
        emb.passages.append((ci, port, exit_port))
        nwire = emb.port_wire[exit_port]
        if nwire == start:
            break
        emb.edge_label[nwire] = len(emb.edge_order) + 1
        emb.edge_order.append(nwire)
        (pa, ca), (pb, cb) = emb.wires[nwire].ends
        port = pb if pa == exit_port else pa
    if len(emb.passages) != n2:
        raise PlatError("traversal did not close after visiting every crossing twice")


def _wire_build_pd(emb: WireEmbedding, plat: PlatWord):
    enter_at: dict[tuple[int, str], int] = {}  # port -> traversal time (1-based)
    for t, (_ci, pin, _pout) in enumerate(emb.passages, start=1):
        enter_at[pin] = t

    def label_of(port):
        return emb.edge_label[emb.port_wire[port]]

    crossings = []
    chords = []
    for ci, (k, s) in enumerate(plat.word):
        over_pair = ("NW", "SE") if s == 1 else ("NE", "SW")
        under_pair = ("NE", "SW") if s == 1 else ("NW", "SE")
        under_in = next(c for c in under_pair if (ci, c) in enter_at)
        # CCW cycle starting at the incoming under corner
        i0 = _CCW.index(under_in)
        cyc = [_CCW[(i0 + t) % 4] for t in range(4)]
        a = label_of((ci, cyc[0]))
        b = label_of((ci, cyc[1]))
        c = label_of((ci, cyc[2]))
        d = label_of((ci, cyc[3]))
        over_in = next(cn for cn in over_pair if (ci, cn) in enter_at)
        sign = 1 if over_in == cyc[3] else -1
        crossings.append((a, b, c, d, sign))
        chords.append((enter_at[(ci, over_in)], enter_at[(ci, under_in)]))
    emb.pd = PDCode(tuple(crossings))
    emb.chords = tuple(chords)


def embedding_wires(plat: PlatWord) -> WireEmbedding:
    validate_plat(plat)
    emb = _wire_sweep(plat)
    _wire_traverse(emb, plat)
    _wire_build_pd(emb, plat)
    return emb


# The unit-pivot eliminator as it queued every row a pivot hit again, the
# reference for the queue rule of `groups.snf.eliminate_unit_pivots`: both
# must take the same pivots and leave the same core.
def eliminate_unit_pivots_requeue_every_hit(rows: list[dict[int, int]], n: int) -> UnitReduction:
    """Eliminate +-1 pivots shortest row first, in the +-1 entry of that
    row whose column has the fewest entries; each row hit is queued again
    as (length, row), and a queued length that is out of date marks a stale
    entry.  The rows are consumed."""
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    live = [True] * len(rows)
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapify(queue)
    pivots = []
    while queue:
        length, r = heappop(queue)
        prow = rows[r]
        if not live[r] or len(prow) != length:
            continue  # retired, or hit since it was queued
        units = [(len(cols[j]), j) for j, v in prow.items() if v == 1 or v == -1]
        if not units:
            continue  # queued again if a pivot hits it
        c = min(units)[1]
        p = prow[c]
        live[r] = False
        pivots.append((r, c, p))
        for j in prow:
            cols[j].discard(r)
        for i in cols[c]:
            row = rows[i]
            f = row.pop(c) * p
            for j, v in prow.items():
                if j == c:
                    continue
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            heappush(queue, (len(row), i))
    done = {c for _r, c, _p in pivots}
    core_rows = [i for i in range(len(rows)) if live[i]]
    core_cols = [j for j in range(n) if j not in done]
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    return UnitReduction(tuple(pivots), core_rows, core_cols, core)


# The per-entry Markowitz eliminator, the reference for the shortest-row rule
# of `groups.snf.eliminate_unit_pivots`: a heap of (cost, row, col) over
# every +-1 entry, re-keyed after each pivot.  Its pivot order differs, but
# the determinant it signs and the divisors it leaves must not.
def eliminate_unit_pivots_markowitz(rows: list[dict[int, int]], n: int) -> UnitReduction:
    """Eliminate +-1 pivots of an integer matrix, cheapest first.

    The matrix comes as sparse rows {col: nonzero value} over n columns, and
    the elimination consumes them.  Each step takes the +-1 entry of
    least Markowitz cost (row nnz - 1) * (col nnz - 1), clears its column
    from every other row by exact integer row operations (so determinants
    are unchanged), and retires its row and column.  Column operations would
    clear the rest of the pivot row without touching any remaining row, so
    the matrix is equivalent to diag(pivots) + core, and a square matrix has
    determinant sign(row order) * sign(col order) * prod(pivots) * det(core)
    with rows ordered (pivot rows..., core rows) and columns likewise.
    Wirtinger-, Fox- and Goeritz-derived rows are sparse and rich in +-1
    entries, so the core is small (Havas-Holt-Rees, Linear Algebra Appl.
    192, 1993).
    """
    m = len(rows)
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    live = [True] * m
    heap: list[tuple[int, int, int]] = []

    def push(i, j):  # (Markowitz cost, row, col) of a +-1 entry
        v = rows[i][j]
        if v == 1 or v == -1:
            heappush(heap, ((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j))

    for i, row in enumerate(rows):
        for j in row:
            push(i, j)
    pivots = []
    while heap:
        cost, r, c = heappop(heap)
        prow = rows[r]
        p = prow.get(c) if live[r] else None
        if p != 1 and p != -1:
            continue  # stale: row retired or entry changed
        now = (len(prow) - 1) * (len(cols[c]) - 1)
        if now != cost:
            heappush(heap, (now, r, c))
            continue
        live[r] = False
        pivots.append((r, c, p))
        for j in prow:
            cols[j].discard(r)
        hit = cols[c]
        cols[c] = set()
        for i in hit:
            row = rows[i]
            f = row.pop(c) * p
            for j, v in prow.items():
                if j == c:
                    continue
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
        # costs changed only in the rows hit and the pivot row's columns
        for i in hit:
            for j in rows[i]:
                push(i, j)
        for j in prow:
            for i in cols[j]:
                push(i, j)
    done = {c for _r, c, _p in pivots}
    core_rows = [i for i in range(m) if live[i]]
    core_cols = [j for j in range(n) if j not in done]
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    return UnitReduction(tuple(pivots), core_rows, core_cols, core)


# ---------------------------------------------------------------------------
# The checkerboard and Goeritz rows as they were built from one list of darts
# per edge label, a second loop coloring every dart and a triple per entry:
# the references for `covers.checkerboard` and `covers.goeritz`, which must
# return the same faces, colors, rows and refusals.


def checkerboard_reference(pd: PDCode):
    """(face_of, color) of `covers.checkerboard`: faces numbered in order of
    their first dart, the face of dart 0 shaded."""
    darts: dict[int, list[int]] = {}
    for d, e in enumerate(e for tup in pd.crossings for e in tup[:4]):
        darts.setdefault(e, []).append(d)
    mate = [0] * (4 * pd.n_crossings)
    for e, ds in darts.items():
        if len(ds) != 2:
            raise PlatError(f"edge {e} occurs {len(ds)} times")
        mate[ds[0]], mate[ds[1]] = ds[1], ds[0]
    nxt = [(m & ~3) | ((m + 1) & 3) for m in mate]  # next dart on the face
    face_of = [-1] * len(mate)
    nfaces = 0
    for first in range(len(mate)):
        if face_of[first] < 0:
            d = first
            while face_of[d] < 0:
                face_of[d] = nfaces
                d = nxt[d]
            nfaces += 1
    n = pd.n_crossings
    if nfaces != n + 2:
        raise PlatError(
            f"face count {nfaces} != crossings + 2 = {n + 2}; nonplanar PD?"
        )
    base = [1] + [-1] * (n - 1)
    queue = [0]
    for c in queue:
        for d in range(4 * c, 4 * c + 4):
            e = nxt[d]
            b = base[c] ^ (d & 1) ^ (e & 1)
            if base[e >> 2] < 0:
                base[e >> 2] = b
                queue.append(e >> 2)
            elif base[e >> 2] != b:
                raise PlatError("faces are not 2-colorable; malformed PD code")
    if len(queue) < n:
        raise PlatError("face adjacency graph is disconnected")
    color = [0] * nfaces
    for d, f in enumerate(face_of):
        color[f] = base[d >> 2] ^ (d & 1)
    return face_of, color


def goeritz_reference(pd: PDCode) -> GoeritzData:
    """`covers.goeritz` on `checkerboard_reference`, one triple per entry."""
    if not pd.crossings:
        return GoeritzData((), 1, 0)
    face_of, color = checkerboard_reference(pd)
    shaded = [f for f, col in enumerate(color) if col]
    index = {f: i for i, f in enumerate(shaded)}
    G: list[dict[int, int]] = [{} for _ in shaded]
    for d in range(0, len(face_of), 4):
        p = 1 - color[face_of[d]]
        eta, fa, fb = 1 - 2 * p, face_of[d + p], face_of[d + p + 2]
        if fa == fb:
            continue
        ia, ib = index[fa], index[fb]
        for i, j, v in ((ia, ib, -eta), (ib, ia, -eta), (ia, ia, eta), (ib, ib, eta)):
            G[i][j] = G[i].get(j, 0) + v
    return GoeritzData(tuple(G), abs(_minor_det(G)), len(shaded))


# The index-2 Reidemeister-Schreier rewrite as it called a generator map per
# letter and reduced each rewritten word afterwards: the reference for
# `presentations.reidemeister_schreier_index2`, which must return the same
# relators, in the same order, and the same squares.


def _rewrite_index2_reference(word: Word, start: int, gen_map) -> Word:
    out: list[int] = []
    u = start
    for x in word:
        i = abs(x)
        if x > 0:
            g = gen_map(i, u)
            if g:
                out.append(g)
            u ^= 1
        else:
            v = u ^ 1
            g = gen_map(i, v)
            if g:
                out.append(-g)
            u = v
    return tuple(out)


def reidemeister_schreier_index2_reference(pres: GroupPresentation):
    """(kernel presentation, squares of the meridians rewritten)."""
    if pres.meridians != frozenset(range(1, pres.n_generators + 1)):
        raise PlatError("index-2 rewriting needs all generators meridian-marked")
    n = pres.n_generators
    for r in pres.relators:
        if sum(1 if x > 0 else -1 for x in r) % 2:
            raise PlatError("relator has odd meridian weight; no onto-Z/2 map")

    def gen_map(i: int, coset: int) -> int:
        if coset == 0:
            return 0 if i == 1 else i - 1
        return n - 1 + i

    new_relators = []
    for r in pres.relators:
        for start in (0, 1):
            w = free_reduce(_rewrite_index2_reference(r, start, gen_map))
            if w:
                new_relators.append(w)
    squares = [free_reduce(_rewrite_index2_reference((i, i), 0, gen_map)) for i in range(1, n + 1)]
    return GroupPresentation(2 * n - 1, tuple(new_relators)), tuple(squares)


# ---------------------------------------------------------------------------
# The all-products group table, the reference for `finite.cayley_table`: the
# closure's elements, sorted, and every table entry one directly computed
# product, |G|^2 of them.


def closure_elements(generators, mul, bound: int = CLOSURE_BOUND) -> list:
    """Every product of the generators under mul, sorted.

    BFS under right multiplication by the generators; for a finite set of
    invertible elements that already yields the generated group.  Raises if
    the closure exceeds the bound.
    """
    gens = list(generators)
    if not gens:
        raise GroupError("need at least one generator")
    have = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = mul(a, g)
                if c not in have:
                    if len(have) >= bound:
                        raise GroupError(f"closure exceeded bound {bound}")
                    have.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(have)


def table_group(elems, mul, name: str = "") -> FiniteGroup:
    """The group of a list of elements closed under mul, in list order;
    every table entry is one directly computed product."""
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=name)


# ---------------------------------------------------------------------------
# References for `FiniteGroup`'s closure walk (the orbit of the identity
# under right multiplication): the pairwise closure, which multiplies each
# new element by every element reached so far on both sides, and two greedy
# generator loops, one a breadth-first walk of its own over range(order) for
# Light's test, one over descending element order on the pairwise closure.
# Then the commutator subgroup as the closure of all |G|^2 commutators.


def subgroup_closure_pairwise(G, elements) -> frozenset[int]:
    """<elements>, closed under products on both sides."""
    todo = list(set(elements) | {G.identity})
    have = set(todo)
    while todo:
        a = todo.pop()
        for b in list(have):
            for c in (G.mult[a][b], G.mult[b][a]):
                if c not in have:
                    have.add(c)
                    todo.append(c)
    return frozenset(have)


def light_generators_walk(G) -> list[int]:
    """Greedy generators whose closure under right multiplication, starting
    from the identity, is the whole table (no associativity assumed)."""
    gens: list[int] = []
    reached = {G.identity}
    for a in range(G.order):
        if a in reached:
            continue
        gens.append(a)
        todo = list(reached)
        while todo:
            row = G.mult[todo.pop()]
            for g in gens:
                if row[g] not in reached:
                    reached.add(row[g])
                    todo.append(row[g])
    return gens


def generating_sequence_pairwise(G) -> list[int]:
    """A short generating sequence, preferring high-order elements."""
    by_order = sorted(range(G.order), key=lambda a: -G.element_orders[a])
    gens: list[int] = []
    have: frozenset[int] = frozenset({G.identity})
    for a in by_order:
        if a in have:
            continue
        gens.append(a)
        have = subgroup_closure_pairwise(G, gens)
        if len(have) == G.order:
            return gens
    if G.order == 1:
        return []
    raise GroupError("could not generate the group")


def commutator_subgroup_all_pairs(G) -> frozenset[int]:
    """<[a, b] for all a, b in G>."""
    comms = {
        G.mult[G.mult[a][b]][G.mult[G.inverse[a]][G.inverse[b]]]
        for a in range(G.order)
        for b in range(G.order)
    }
    return G.subgroup_closure(comms)


def normal_closure_all_conjugates(G, elements) -> frozenset[int]:
    """<g a g^-1 for every a in elements and every g in G>."""
    return G.subgroup_closure(
        {G.mult[G.mult[g][a]][G.inverse[g]] for a in elements for g in range(G.order)}
    )


def hom_extension_oracle(G, H, gens, images):
    """The homomorphism G -> H taking gens[i] to images[i], or None.

    Each element is sent to the product of the images along one shortest
    word in the generators; the map is kept only when it hits every image
    and respects every product x*y of G.
    """
    word = {G.identity: ()}
    frontier = [G.identity]
    while frontier:
        reached = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = G.mult[x][g]
                if y not in word:
                    word[y] = word[x] + (i,)
                    reached.append(y)
        frontier = reached
    if len(word) < G.order:
        return None
    phi = []
    for x in range(G.order):
        acc = H.identity
        for i in word[x]:
            acc = H.mult[acc][images[i]]
        phi.append(acc)
    if any(phi[g] != img for g, img in zip(gens, images)):
        return None
    for x in range(G.order):
        for y in range(G.order):
            if phi[G.mult[x][y]] != H.mult[phi[x]][phi[y]]:
                return None
    return tuple(phi)
