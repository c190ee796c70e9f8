"""Small finite groups with exhaustive structure analysis.

Elements are canonical indices into a multiplication table, which one
builder, `cayley_table`, reads from a Cayley graph: a complete coset table,
or the BFS closure of concrete generators -- tuples under a product
function: permutations, 2x2 matrices over the 5-element field, exact
quaternions -- which keeps each element's products with the generators.

The subgroup generated by S is the orbit of the identity under right
multiplication by S, reading each reached row once at S's columns.  In a
finite group every inverse is a positive power, so each element of <S> is a
positive word in S and the orbit is all of <S>.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import product
from typing import NamedTuple

from ..diagrams import PlatError

CLOSURE_BOUND = 10_000
STRUCTURE_BOUND = 1_000


class GroupError(PlatError):
    pass


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Construction verifies that the table has a two-sided identity and
    total inverses, and proves associativity at every order by Light's test
    over a generating set (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1961, 1.2): the elements g with (x*g)*y == x*(g*y) for all
    x, y are closed under multiplication, so checking the generators covers
    the whole table at a cost of (number of generators) * order^2.
    """

    def __init__(self, mult, name=""):
        self.mult = tuple(tuple(row) for row in mult)
        n = len(self.mult)
        self.order = n
        self.name = name
        if any(len(r) != n for r in self.mult):
            raise GroupError("multiplication table is not square")
        ident = next(
            (e for e in range(n) if all(self.mult[e][x] == x == self.mult[x][e] for x in range(n))),
            None,
        )
        if ident is None:
            raise GroupError("table has no identity")
        self.identity = ident
        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if self.mult[a][b] == ident and self.mult[b][a] == ident:
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise GroupError(f"element {a} has no inverse")
        self.inverse = tuple(inv)
        for g in self._greedy_generators(range(n)):
            g_row = self.mult[g]
            for x in range(n):
                row = self.mult[x]
                if self.mult[row[g]] != tuple(map(row.__getitem__, g_row)):
                    raise GroupError("table is not associative")

    def _greedy_generators(self, candidates) -> list[int]:
        """The candidates, in order, that the closure of those taken before
        them has not reached; they generate what all the candidates do."""
        gens: list[int] = []
        reached = frozenset({self.identity})
        for a in candidates:
            if a not in reached:
                gens.append(a)
                reached = self.subgroup_closure(gens)
        return gens

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for a in range(self.order):
            k, x = 1, a
            while x != self.identity:
                x, k = self.mult[x][a], k + 1
            orders.append(k)
        return tuple(orders)

    def orbits(self, acting, domain) -> list[tuple[int, set[int]]]:
        """`(representative, orbit)` for each orbit of the elements acting
        on domain by conjugation, representatives first in domain order."""
        conj = self.conjugation
        seen: set[int] = set()
        out = []
        for h in domain:
            if h not in seen:
                orbit = {conj[c][h] for c in acting}
                seen |= orbit
                out.append((h, orbit))
        return out

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        every = range(self.order)
        return tuple(tuple(sorted(orbit)) for _h, orbit in self.orbits(every, every))

    @cached_property
    def centralizer_orbits(self) -> dict[tuple[int, bool], tuple[tuple[int, int], ...]]:
        """`[g, whole]`: `(representative, orbit size)` per orbit of C_G(g) on g's
        class (on G when whole), for each class representative g, in domain order."""
        conj, every, table = self.conjugation, range(self.order), {}
        for cls in self.conjugacy_classes:
            cent = [c for c in every if conj[c][cls[0]] == cls[0]]
            for whole, domain in ((False, cls), (True, every)):
                table[cls[0], whole] = tuple((h, len(o)) for h, o in self.orbits(cent, domain))
        return table

    @cached_property
    def conjugation(self) -> tuple[tuple[int, ...], ...]:
        """`conjugation[a][b]` is a*b*a^-1; built on the first read."""
        mult, inv = self.mult, self.inverse
        return tuple(
            tuple(mult[c][inv[a]] for c in row) for a, row in enumerate(mult)
        )

    @cached_property
    def class_index(self) -> tuple[int, ...]:
        idx = [0] * self.order
        for k, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                idx[x] = k
        return tuple(idx)

    @cached_property
    def center(self) -> tuple[int, ...]:
        n = self.order
        return tuple(
            a for a in range(n) if all(self.mult[a][b] == self.mult[b][a] for b in range(n))
        )

    @cached_property
    def involutions(self) -> tuple[int, ...]:
        return tuple(
            a
            for a in range(self.order)
            if a != self.identity and self.mult[a][a] == self.identity
        )

    def subgroup_closure(self, elements) -> frozenset[int]:
        """<elements>: the orbit of the identity under right multiplication."""
        gens = tuple(set(elements))
        have = {self.identity}
        todo = [self.identity]
        while todo:
            row = self.mult[todo.pop()]
            for g in gens:
                c = row[g]
                if c not in have:
                    have.add(c)
                    todo.append(c)
        return frozenset(have)

    def normal_closure(self, elements) -> frozenset[int]:
        classes, index = self.conjugacy_classes, self.class_index
        return self.subgroup_closure(
            {x for k in {index[a] for a in elements} for x in classes[k]}
        )

    @cached_property
    def normal_subgroups(self) -> tuple[frozenset[int], ...]:
        """All normal subgroups, as joins of single-element normal closures.

        A normal closure depends only on the conjugacy class, so one
        representative per class gives every atom.
        """
        atoms = {self.normal_closure(cls[:1]) for cls in self.conjugacy_classes}
        found = {frozenset({self.identity})}
        frontier = set(found)
        while frontier:
            nxt = set()
            for n1 in frontier:
                for a in atoms:
                    j = self.subgroup_closure(n1 | a)
                    if j not in found:
                        found.add(j)
                        nxt.add(j)
            frontier = nxt
        return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))

    @cached_property
    def proper_quotients(self) -> tuple[tuple["FiniteGroup", tuple[int, ...]], ...]:
        """Quotients by the proper nontrivial normal subgroups, with projections."""
        return tuple(
            self.quotient(n, name=f"{self.name}/N{len(n)}")
            for n in self.normal_subgroups
            if 1 < len(n) < self.order
        )

    @cached_property
    def is_simple(self) -> bool:
        if self.order == 1:
            return False
        return all(
            len(n) in (1, self.order) for n in self.normal_subgroups
        )

    @cached_property
    def commutator_subgroup(self) -> frozenset[int]:
        """The normal closure of the commutators of a generating set, which
        is the subgroup generated by all commutators."""
        gens = self._greedy_generators(range(self.order))
        mult, inv = self.mult, self.inverse
        return self.normal_closure(
            {mult[mult[a][b]][mult[inv[a]][inv[b]]] for a in gens for b in gens}
        )

    @property
    def is_perfect(self) -> bool:
        return len(self.commutator_subgroup) == self.order

    def quotient(self, normal: frozenset[int], name="") -> tuple["FiniteGroup", tuple[int, ...]]:
        """The quotient by a normal subgroup, with the projection map."""
        if self.identity not in normal:
            raise GroupError("normal subgroup must contain the identity")
        cosets = []
        proj = [-1] * self.order
        for a in range(self.order):
            if proj[a] >= 0:
                continue
            coset = sorted(self.mult[a][h] for h in normal)
            k = len(cosets)
            cosets.append(coset[0])
            for x in coset:
                if proj[x] >= 0 and proj[x] != k:
                    raise GroupError("subgroup is not normal")
                proj[x] = k
        m = len(cosets)
        table = [[proj[self.mult[cosets[i]][cosets[j]]] for j in range(m)] for i in range(m)]
        return FiniteGroup(table, name=name), tuple(proj)


# ---------------------------------------------------------------------------
# closure of concrete generators


def perm_mul(a: tuple, b: tuple) -> tuple:
    """The permutation applying b first, then a, each the tuple of images."""
    return tuple(map(a.__getitem__, b))


def cycles(n: int, *cycs) -> tuple:
    """The permutation of 0..n-1 with the given cycles."""
    m = list(range(n))
    for cyc in cycs:
        for i, x in enumerate(cyc):
            m[x] = cyc[(i + 1) % len(cyc)]
    return tuple(m)


def is_even(perm) -> bool:
    """Whether a permutation of 0..n-1, given as its images, is even: a
    product of n minus (number of cycles) transpositions."""
    if sorted(perm) != list(range(len(perm))):
        raise GroupError(f"not a permutation: {perm}")
    seen = [False] * len(perm)
    n_cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            n_cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return (len(perm) - n_cycles) % 2 == 0


def f5_mul(m: tuple, n: tuple) -> tuple:
    """The product of 2x2 matrices over the 5-element field, each the
    row-major tuple of its entries mod 5."""
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % 5, (a * f + b * h) % 5, (c * e + d * g) % 5, (c * f + d * h) % 5)


def cayley_graph(generators, mul, bound: int = CLOSURE_BOUND) -> tuple[list, list[list[int]], int]:
    """`(elements, rows, identity)` for the group the generators close to
    under mul: the elements sorted, `rows[c][j]` = element c times generator
    j, and the identity, the element whose product with the first generator
    is that generator.  A BFS under right multiplication by finitely many
    invertible elements reaches the group they generate.  Raises if the
    closure exceeds the bound.
    """
    gens = list(generators)
    if not gens:
        raise GroupError("need at least one generator")
    succ = dict.fromkeys(gens)  # element -> its products with the generators
    queue = list(succ)
    for a in queue:  # the queue grows as the walk reaches new elements
        succ[a] = products = [mul(a, g) for g in gens]
        for c in products:
            if c not in succ:
                if len(succ) >= bound:
                    raise GroupError(f"closure exceeded bound {bound}")
                succ[c] = None
                queue.append(c)
    elems = sorted(succ)
    index = {x: i for i, x in enumerate(elems)}
    rows = [[index[c] for c in succ[x]] for x in elems]
    return elems, rows, next(i for i, row in enumerate(rows) if row[0] == index[gens[0]])


def cayley_table(rows, identity: int) -> list[tuple[int, ...]]:
    """The multiplication table of a group from its Cayley graph on some
    generating elements: `rows[c][j]` is element c times generator j.
    Along a BFS tree from the identity, the right action x -> x*d of d = c*g
    is that of c followed by g's column, one read per entry, and `mult[a][d]`
    is its value at a.  FiniteGroup verifies the result."""
    right: list = [None] * len(rows)
    right[identity] = list(range(len(rows)))
    queue = [identity]
    for c in queue:  # the queue grows as the walk reaches new elements
        pc = right[c]
        for j, d in enumerate(rows[c]):
            if right[d] is None:
                right[d] = [rows[x][j] for x in pc]
                queue.append(d)
    return list(zip(*right))


def group_closure(generators, mul, bound: int = CLOSURE_BOUND, name: str = "") -> FiniteGroup:
    """The group the generators close to under mul, its elements sorted."""
    _elems, rows, identity = cayley_graph(generators, mul, bound)
    return FiniteGroup(cayley_table(rows, identity), name=name)


@cache
def symmetric_group(n: int) -> FiniteGroup:
    """S_n, built once per process for each n."""
    if n < 2:
        raise GroupError("need n >= 2")
    gens = [cycles(n, (0, 1)), cycles(n, tuple(range(n)))]
    return group_closure(gens, perm_mul, name=f"S{n}")


@cache
def alternating_group(n: int) -> FiniteGroup:
    """A_n, built once per process for each n."""
    if n < 3:
        raise GroupError("need n >= 3")
    # an n-cycle is even for odd n; for even n take the (n-1)-cycle fixing 0
    long_cycle = tuple(range(n)) if n % 2 else tuple(range(1, n))
    return group_closure([cycles(n, (0, 1, 2)), cycles(n, long_cycle)], perm_mul, name=f"A{n}")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("need n >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}")


@cache
def sl2_f5() -> FiniteGroup:
    """SL2 over the 5-element field, by closure of the standard generators;
    built once per process."""
    s = (0, 4, 1, 0)  # [0 -1; 1 0]
    t = (1, 1, 0, 1)
    return group_closure([s, t], f5_mul, name="SL2F5")


# ---------------------------------------------------------------------------
# structure report


class StructureReport(NamedTuple):
    order: int
    class_sizes: tuple[int, ...]
    center_order: int
    involution_count: int
    normal_subgroup_orders: tuple[int, ...]
    simple: bool
    perfect: bool
    quotients: tuple[tuple[FiniteGroup, tuple[int, ...]], ...]  # proper nontrivial

    def describe(self) -> str:
        qs = ", ".join(f"order {q.order}" for q, _ in self.quotients) or "none"
        return (
            f"order {self.order}; {len(self.class_sizes)} conjugacy classes "
            f"{list(self.class_sizes)}; center {self.center_order}; "
            f"{self.involution_count} involutions; normal subgroup orders "
            f"{list(self.normal_subgroup_orders)}; "
            f"{'simple' if self.simple else 'not simple'}; "
            f"{'perfect' if self.perfect else 'not perfect'}; "
            f"proper nontrivial quotients: {qs}"
        )


def structure_report(G: FiniteGroup) -> StructureReport:
    """Class, center, involution and normal-subgroup data of G.

    Everything it reads is cached on G, so a second report on the same
    group rebuilds nothing.
    """
    if G.order > STRUCTURE_BOUND:
        raise GroupError(f"structure report limited to order {STRUCTURE_BOUND}")
    normals = G.normal_subgroups
    return StructureReport(
        order=G.order,
        class_sizes=tuple(sorted(len(c) for c in G.conjugacy_classes)),
        center_order=len(G.center),
        involution_count=len(G.involutions),
        normal_subgroup_orders=tuple(sorted(len(n) for n in normals)),
        simple=G.is_simple,
        perfect=G.is_perfect,
        quotients=G.proper_quotients,
    )


def su2_obstruction(G: FiniteGroup) -> str:
    """Can G land nontrivially in the unit quaternions?

    no-nontrivial-rep: G simple with >= 2 involutions (a nontrivial map
    would be injective, but the target group has -1 as its only
    involution).  embeds-possible: <= 1 involution, so the involution
    obstruction is silent.  Anything else: inconclusive.
    """
    rep = structure_report(G)
    if rep.simple and rep.involution_count >= 2:
        return "no-nontrivial-rep"
    if rep.involution_count <= 1:
        return "embeds-possible"
    return "inconclusive"


# ---------------------------------------------------------------------------
# isomorphism search


def _hom_from_generators(G: FiniteGroup, H: FiniteGroup, gens, images):
    """Extend generator images to a map on all of G, or None if inconsistent.

    A walk from the identity writes each element as a tree word in the
    generators and checks every (element, generator) product it meets
    against the image already set; the walk meets every such product once
    it reaches all of G, which suffices for multiplicativity.
    """
    phi = [-1] * G.order
    phi[G.identity] = H.identity
    queue = [G.identity]
    while queue:
        x = queue.pop()
        for g, img in zip(gens, images):
            y = G.mult[x][g]
            fy = H.mult[phi[x]][img]
            if phi[y] < 0:
                phi[y] = fy
                queue.append(y)
            elif phi[y] != fy:
                return None
    if min(phi) < 0:
        return None
    return tuple(phi)


def iso_check(G: FiniteGroup, H: FiniteGroup):
    """An explicit isomorphism G -> H (element map), or None.

    Searches generator images, pruned by element order and conjugacy class
    size; class-size multiset equality is a necessary pre-check.
    """
    if G.order != H.order:
        return None
    if sorted(G.element_orders) != sorted(H.element_orders):
        return None
    g_sizes = sorted(len(c) for c in G.conjugacy_classes)
    h_sizes = sorted(len(c) for c in H.conjugacy_classes)
    if g_sizes != h_sizes:
        return None
    # a short generating sequence, preferring high-order elements
    gens = G._greedy_generators(sorted(range(G.order), key=lambda a: -G.element_orders[a]))
    if not gens:
        return tuple([H.identity] * H.order) if H.order == 1 else None

    h_class_size = [len(H.conjugacy_classes[H.class_index[a]]) for a in range(H.order)]
    candidates = []
    for g in gens:
        size = len(G.conjugacy_classes[G.class_index[g]])
        order = G.element_orders[g]
        candidates.append(
            [
                h
                for h in range(H.order)
                if H.element_orders[h] == order and h_class_size[h] == size
            ]
        )

    for chosen in product(*candidates):
        phi = _hom_from_generators(G, H, gens, chosen)
        if phi is not None and len(set(phi)) == G.order:
            return phi
    return None
