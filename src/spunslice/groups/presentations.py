"""Finitely presented groups from knot diagrams and their covers.

Words are tuples of nonzero signed integers: +i is generator i, -i its
inverse (generators are 1-based).  A presentation may mark some generators
as meridians (conjugates of a fixed meridian class); meridian-marked
generators all carry weight 1 in the abelianization, which the index-2
rewriting below relies on.
"""

from __future__ import annotations

from ..diagrams import PDCode, PlatError, Record, SymmetricUnion, band_arcs, wirtinger_relations
from .snf import AbelianInvariants, invariants_of_rows

Word = tuple[int, ...]


def invert(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def free_reduce(word: Word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class GroupPresentation(Record):
    """<x_1..x_n | relators>, optionally with meridian-marked generators."""

    _fields = ("n_generators", "relators", "meridians")

    def __init__(
        self, n_generators: int, relators: tuple[Word, ...], meridians: frozenset[int] = frozenset()
    ):
        for r in relators:
            for x in r:
                if x == 0 or abs(x) > n_generators:
                    raise ValueError(f"relator letter {x} out of range")
        for m in meridians:
            if not 1 <= m <= n_generators:
                raise ValueError(f"meridian index {m} out of range")
        self.n_generators, self.relators, self.meridians = n_generators, relators, meridians

    @classmethod
    def _unchecked(cls, n_generators: int, relators: tuple[Word, ...], meridians=frozenset()):
        """A presentation whose letters all come from checked presentations,
        built without checking them again."""
        pres = cls.__new__(cls)
        pres.n_generators, pres.relators, pres.meridians = n_generators, relators, meridians
        return pres

    def simplified(self) -> "GroupPresentation":
        """Free reduction plus removal of empty relators and of relators
        equal to an earlier one up to cyclic rotation and inversion.  Both
        keep a word's multiset of letters |x|, so relators are bucketed by
        it, and the least rotation of the word and its inverse is compared
        only within a bucket that holds two."""
        first: dict[Word, Word] = {}
        keys: set[Word] = set()
        rels = []
        for r in self.relators:
            r2 = free_reduce(r)
            if not r2:
                continue
            letters = tuple(sorted(map(abs, r2)))
            other = first.get(letters)
            if other is None:
                first[letters] = r2
            else:
                if other:
                    # key the bucket's first relator once; () marks it done
                    keys.add(_least_rotation(other))
                    first[letters] = ()
                key = _least_rotation(r2)
                if key in keys:
                    continue
                keys.add(key)
            rels.append(r2)
        return GroupPresentation._unchecked(self.n_generators, tuple(rels), self.meridians)


def _least_rotation(word: Word) -> Word:
    """The least cyclic rotation of the word or of its inverse."""
    return min(w[i:] + w[:i] for w in (word, invert(word)) for i in range(len(w)))


def abelianization(pres: GroupPresentation) -> AbelianInvariants:
    """Invariants of the abelianized group, from one sparse row of generator
    exponent sums per relator."""
    rows = []
    for r in pres.relators:
        row: dict[int, int] = {}
        for x in r:
            row[abs(x) - 1] = row.get(abs(x) - 1, 0) + (1 if x > 0 else -1)
        rows.append({j: v for j, v in row.items() if v})
    return invariants_of_rows(rows, pres.n_generators)


def wirtinger(pd: PDCode) -> GroupPresentation:
    """Wirtinger presentation of the knot group from a PD code.

    One generator per arc (all meridians), one relator per crossing:
    x_over^s x_in x_over^-s x_out^-1 with s the crossing sign.  The
    0-crossing unknot gives <x_1 | >.
    """
    ngen, _arc, relations = wirtinger_relations(pd)
    relators = []
    for over, s, ain, cout in relations:
        o = over + 1
        relators.append((s * o, ain + 1, -s * o, -(cout + 1)))
    return GroupPresentation(ngen, tuple(relators), frozenset(range(1, ngen + 1)))


def cobordism_presentation(su: SymmetricUnion) -> GroupPresentation:
    """Fundamental group of the twist-cobordism complement.

    Start from the Wirtinger presentation of the untwisted union (the
    connected sum with the mirror image) and add, for every twisted bridge
    region j (bridge 1 included), one relator x_a x_b^-1 identifying the
    meridians of the two strands that meet at the region's first twist
    crossing -- one from the base copy and one from the mirror copy.
    """
    pd, bands = band_arcs(su)
    pres = wirtinger(pd)
    extra = tuple((arc_a, -arc_b) for _site, (arc_a, arc_b) in bands)
    return GroupPresentation(pres.n_generators, pres.relators + extra, pres.meridians)


# ---------------------------------------------------------------------------
# text format: `gens N`, then one relator per line of signed indices


def format_presentation(pres: GroupPresentation) -> str:
    lines = [f"gens {pres.n_generators}"]
    if pres.meridians:
        lines.append("meridians " + " ".join(str(m) for m in sorted(pres.meridians)))
    lines.extend(" ".join(str(x) for x in r) for r in pres.relators)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# index-2 rewriting


def _rewrite_index2(word: Word, start: int, emit: tuple[list[int], list[int]]) -> Word:
    """Rewrite a word of even length, which returns to its start coset,
    through the index-2 subgroup with transversal {1, m}, freely reduced.

    Every letter crosses to the other coset.  emit[u][x] is the signed
    subgroup generator (0 for the dropped trivial one) that letter x gives
    leaving coset u; negative letters index from the end of the list.  The
    output is reduced as it is emitted, by `free_reduce`'s stack rule, so
    the word is walked once.
    """
    out: list[int] = []
    u = start
    for x in word:
        g = emit[u][x]
        u ^= 1
        if g:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
    return tuple(out)


def reidemeister_schreier_index2(pres: GroupPresentation):
    """Presentation of the kernel of the onto-Z/2 map sending meridians to 1.

    Requires every generator to be meridian-marked (weight 1), so the map
    x_i -> 1 in Z/2 is well defined on all relators.  Uses the Schreier
    transversal {1, x_1}.  Subgroup generators: a_i = x_i x_1^-1 entering at
    coset 0 (a_1 trivial, dropped) and b_i = x_1 x_i entering at coset 1.

    Returns (presentation, meridian_square_words) where the k-th entry of
    meridian_square_words is the rewritten word of x_k^2, ready to serve as
    a branch relator.
    """
    if pres.meridians != frozenset(range(1, pres.n_generators + 1)):
        raise PlatError("index-2 rewriting needs all generators meridian-marked")
    n = pres.n_generators
    for r in pres.relators:
        if len(r) % 2:  # each letter has weight +-1, so the parity is the length's
            raise PlatError("relator has odd meridian weight; no onto-Z/2 map")

    # subgroup generator numbering: a_i (i >= 2) -> i - 1, b_i -> n - 1 + i.
    # x_i leaves coset 0 as a_i and coset 1 as b_i; x_i^-1 leaving coset u
    # is the inverse of x_i leaving coset u ^ 1.
    a = [0, 0, *range(1, n)]
    b = [0, *range(n, 2 * n)]
    emit = (a + [-g for g in reversed(b[1:])], b + [-g for g in reversed(a[1:])])
    new_relators = []
    for r in pres.relators:
        for start in (0, 1):
            w = _rewrite_index2(r, start, emit)
            if w:
                new_relators.append(w)
    squares = [_rewrite_index2((i, i), 0, emit) for i in range(1, n + 1)]
    sub = GroupPresentation(2 * n - 1, tuple(new_relators))
    return sub, tuple(squares)


def branched_cover_presentation(pres: GroupPresentation) -> GroupPresentation:
    """pi_1 of the double cover branched over the knot.

    The unbranched index-2 presentation plus one relator per meridian
    square (the branching fills the lifted meridian annuli with discs).
    """
    sub, squares = reidemeister_schreier_index2(pres)
    # the squares are rewritten with the kernel's generators, so their letters
    # are in the kernel's range
    return GroupPresentation._unchecked(
        sub.n_generators, sub.relators + tuple(w for w in squares if w)
    ).simplified()
