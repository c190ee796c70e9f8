"""Small finite groups with exhaustive structure analysis.

Elements are canonical indices into a multiplication table.  Concrete
groups come either from BFS closure of generator objects (permutations,
2x2 matrices over the 5-element field, exact quaternions) or from a coset
enumeration's regular representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

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

    def __init__(self, mult, labels=None, name=""):
        self.mult = tuple(tuple(row) for row in mult)
        n = len(self.mult)
        self.order = n
        self.name = name
        if labels is None:
            labels = [str(i) for i in range(n)]
        self.labels = tuple(str(x) for x in labels)
        if len(self.labels) != n or any(len(r) != n for r in self.mult):
            raise GroupError("multiplication table is not square")
        ident = None
        for e in range(n):
            if all(self.mult[e][x] == x and self.mult[x][e] == x for x in range(n)):
                ident = e
                break
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
        for g in self._light_generators():
            g_row = self.mult[g]
            for x in range(n):
                row = self.mult[x]
                if self.mult[row[g]] != tuple(map(row.__getitem__, g_row)):
                    raise GroupError("table is not associative")

    def _light_generators(self) -> list[int]:
        """Greedy generators whose closure under right multiplication, starting
        from the identity, is the whole table (no associativity assumed)."""
        gens: list[int] = []
        reached = {self.identity}
        for a in range(self.order):
            if a in reached:
                continue
            gens.append(a)
            todo = list(reached)
            while todo:
                row = self.mult[todo.pop()]
                for g in gens:
                    if row[g] not in reached:
                        reached.add(row[g])
                        todo.append(row[g])
        return gens

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mult[x][a]
            k += 1
        return k

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(a) for a in range(self.order))

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.order
        classes = []
        for a in range(self.order):
            if seen[a]:
                continue
            orbit = {self.mult[self.mult[g][a]][self.inverse[g]] for g in range(self.order)}
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: c[0])
        return tuple(classes)

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
        todo = list(set(elements) | {self.identity})
        have = set(todo)
        while todo:
            a = todo.pop()
            for b in list(have):
                for c in (self.mult[a][b], self.mult[b][a]):
                    if c not in have:
                        have.add(c)
                        todo.append(c)
        return frozenset(have)

    def normal_closure(self, elements) -> frozenset[int]:
        conj = {
            self.mult[self.mult[g][a]][self.inverse[g]]
            for a in elements
            for g in range(self.order)
        }
        return self.subgroup_closure(conj)

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
        comms = {
            self.mult[self.mult[a][b]][self.mult[self.inverse[a]][self.inverse[b]]]
            for a in range(self.order)
            for b in range(self.order)
        }
        return self.subgroup_closure(comms)

    @property
    def is_perfect(self) -> bool:
        return len(self.commutator_subgroup) == self.order

    def quotient(self, normal: frozenset[int], name="") -> tuple["FiniteGroup", tuple[int, ...]]:
        """The quotient by a normal subgroup, with the projection map."""
        if self.identity not in normal:
            raise GroupError("normal subgroup must contain the identity")
        rep = {}
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
        q = FiniteGroup(table, [self.labels[c] for c in cosets], name=name)
        return q, tuple(proj)


# ---------------------------------------------------------------------------
# closure of concrete generators


class Perm:
    """A permutation of 0..n-1; (a*b) applies b first, then a."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        self.map = tuple(mapping)
        if sorted(self.map) != list(range(len(self.map))):
            raise GroupError(f"not a permutation: {mapping}")

    @classmethod
    def from_cycles(cls, n: int, *cycles):
        m = list(range(n))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                m[x] = cyc[(i + 1) % len(cyc)]
        return cls(m)

    def __mul__(self, other):
        return Perm(tuple(self.map[other.map[i]] for i in range(len(self.map))))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.map == other.map

    def __hash__(self):
        return hash(self.map)

    def key(self):
        return self.map

    def __repr__(self):
        return "(" + " ".join(str(x) for x in self.map) + ")"

    @property
    def is_even(self) -> bool:
        seen = [False] * len(self.map)
        parity = 0
        for i in range(len(self.map)):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = self.map[j]
                ln += 1
            parity ^= (ln - 1) & 1
        return parity == 0


class F5Mat:
    """A 2x2 matrix over the 5-element field, stored row-major."""

    __slots__ = ("v",)

    def __init__(self, entries):
        self.v = tuple(x % 5 for x in entries)
        if len(self.v) != 4:
            raise GroupError("need 4 entries")

    def det(self) -> int:
        a, b, c, d = self.v
        return (a * d - b * c) % 5

    def __mul__(self, other):
        a, b, c, d = self.v
        e, f, g, h = other.v
        return F5Mat((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def __eq__(self, other):
        return isinstance(other, F5Mat) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def key(self):
        return self.v

    def __repr__(self):
        a, b, c, d = self.v
        return f"[{a} {b}; {c} {d}]"


def closure_elements(generators, bound: int = CLOSURE_BOUND) -> list:
    """Every product of the generator objects, sorted by key().

    BFS under right multiplication by the generators; for a finite set of
    invertible elements that already yields the generated group.  Elements
    need *, ==, hash and a key() for canonical ordering.  Raises if the
    closure exceeds the bound.
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
                c = a * g
                if c not in have:
                    if len(have) >= bound:
                        raise GroupError(f"closure exceeded bound {bound}")
                    have.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(have, key=lambda x: x.key())


def group_closure(generators, bound: int = CLOSURE_BOUND, name: str = "") -> FiniteGroup:
    """BFS closure of generator objects into a FiniteGroup."""
    return table_group(closure_elements(generators, bound), name=name)


def table_group(elems, name: str = "") -> FiniteGroup:
    """The group of a multiplicatively closed list of element objects, in
    list order; every table entry is one directly computed product."""
    # identity = the unique idempotent
    ident = [x for x in elems if x * x == x]
    if len(ident) != 1:
        raise GroupError("generator closure is not a group")
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[a * b] for b in elems] for a in elems]
    return FiniteGroup(table, [repr(x) for x in elems], name=name)


@cache
def symmetric_group(n: int) -> FiniteGroup:
    """S_n, built once per process for each n."""
    if n < 2:
        raise GroupError("need n >= 2")
    gens = [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]
    return group_closure(gens, name=f"S{n}")


@cache
def alternating_group(n: int) -> FiniteGroup:
    """A_n, built once per process for each n."""
    if n < 3:
        raise GroupError("need n >= 3")
    gens = [Perm.from_cycles(n, (0, 1, 2))]
    if n % 2:
        gens.append(Perm.from_cycles(n, tuple(range(n))))
    else:
        gens.append(Perm.from_cycles(n, tuple(range(1, n))))
    return group_closure(gens, name=f"A{n}")


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, [str(i) for i in range(n)], name=f"C{n}")


@cache
def sl2_f5() -> FiniteGroup:
    """SL2 over the 5-element field, by closure of the standard generators;
    built once per process."""
    s = F5Mat((0, -1, 1, 0))
    t = F5Mat((1, 1, 0, 1))
    return group_closure([s, t], name="SL2F5")


# ---------------------------------------------------------------------------
# structure report


@dataclass(frozen=True)
class StructureReport:
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


def _generating_sequence(G: FiniteGroup) -> list[int]:
    """A short generating sequence, preferring high-order elements."""
    by_order = sorted(range(G.order), key=lambda a: -G.element_orders[a])
    gens: list[int] = []
    have: frozenset[int] = frozenset({G.identity})
    for a in by_order:
        if a in have:
            continue
        gens.append(a)
        have = G.subgroup_closure(gens)
        if len(have) == G.order:
            return gens
    if G.order == 1:
        return []
    raise GroupError("could not generate the group")


def _hom_from_generators(G: FiniteGroup, H: FiniteGroup, gens, images):
    """Extend generator images to a map on all of G, or None if inconsistent.

    BFS from the identity writes each element as a tree word in the
    generators; the map is then verified on every (element, generator)
    product, which suffices for multiplicativity.
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
    if min(phi) < 0:
        return None
    for x in range(G.order):
        for g, img in zip(gens, images):
            if phi[G.mult[x][g]] != H.mult[phi[x]][img]:
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
    gens = _generating_sequence(G)
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
