"""Shared frozen inputs for the test suite.

The plat words below are fixed once and for all; their invariants
(determinants, Alexander evaluations, cover homology) were derived from
independent sources -- closed-form torus-knot polynomials, checkerboard
forms computed by hand on small diagrams, and brute-force enumeration --
and the tests pin those numbers exactly.

The brute-force oracles at the end are the references that the runtime's
searches are checked against; they live here, outside the package.
"""

from spunslice.diagrams import PlatWord

UNKNOT = PlatWord(2, ())
KINK = PlatWord(2, ((1, 1),))
UNKNOT_SLIDE = PlatWord(4, ((2, 1),))
TREFOIL = PlatWord(4, ((2, 1), (2, 1), (2, 1)))
TREFOIL_NEG = PlatWord(4, ((2, -1), (2, -1), (2, -1)))
FIG8 = PlatWord(4, ((2, 1), (1, -1), (2, 1), (2, 1)))
T25 = PlatWord(4, ((2, -1),) * 5)
K5_2 = PlatWord(4, ((2, 1), (1, -1), (1, -1), (2, 1), (2, 1)))
TWO_COMPONENT = PlatWord(4, ())

# torus knot T(3,5) as a plat on 6 strands: the braid-closure layout of
# (s1^-1 s2^-1)^5 with the first and last cap-slide letters absorbed
T35 = PlatWord(
    6, tuple(([(3, -1), (2, -1), (3, 1), (5, -1), (4, -1), (5, 1)] * 5)[1:-1])
)

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
    """Number of homomorphisms pres -> G by enumerating all |G|^n
    assignments.  Tiny inputs only."""
    n = pres.n_generators
    mult = G.mult
    inv = G.inverse
    ident = G.identity
    count = 0
    val = [0] * (n + 1)

    def evaluate(word) -> int:
        acc = ident
        for x in word:
            img = val[x] if x > 0 else inv[val[-x]]
            acc = mult[acc][img]
        return acc

    def rec(g: int):
        nonlocal count
        if g > n:
            if all(evaluate(r) == ident for r in pres.relators):
                count += 1
            return
        for cand in range(G.order):
            val[g] = cand
            rec(g + 1)

    rec(1)
    return count
