"""Counting homomorphisms from a finite presentation to a finite group.

The schedule.  A relator in which exactly one position is unknown
*derives* that generator from the images already chosen; a relator with
no unknown position is *checked*.  `_compile_schedule` runs this cascade
and records it as blocks `(generator, steps)`: an opening block with
generator 0, then one block per free choice.  When the cascade stalls,
the free generator whose choice would determine the most generators (its
*gain*, the size of its closure; the smallest on ties) is chosen next.  On Wirtinger-style presentations
this collapses the search tree to a handful of genuinely free choices.  A
presentation is compiled on its first count and the schedule is kept on
the presentation object.

The cost model.  Greedy gain can leave several independent free blocks
with every check waiting in the last one: into A5, the T(3,5) union with
twists (0,0,0) then takes 1,820,522 nodes, and opening with another
generator takes 66,084.  `_modelled_cost` scores a schedule without
running it: the survivors start at 1, a free block multiplies them by
b = 12 (A5's classes of 5-cycles have 12 elements), each check divides
them by b, and each candidate tried and each derive step costs one node
per survivor.  `_choose_schedule` compiles the greedy schedule and keeps
it when it models at most `_LOOKAHEAD_COST` = 2,000 nodes per generator.
Above that it also compiles the schedules that open with the other 7 of
the 8 first choices of largest gain, on one shared relator index, drops a
compile once its blocks so far model at the best cost yet (partial costs
never decrease), and keeps the cheapest, the greedy one on ties.  At a
stall the cascade state, which relators are done and how many unknown
positions each other one has, depends only on the set of known
generators, so every greedy block after the stall does too.  Each
completed compile of one `_choose_schedule` call files its blocks after
each stall under that set, and a candidate that stalls at a filed set
splices those blocks on instead of compiling them again.  Over the
T(3,5) knot and its 27 unions this runs 8,132 closures in 173 greedy
choices, where compiling every candidate from scratch runs 10,295 in
246.  The gate sits in a measured gap.  Of the 27 T(3,5) unions with
twists in {-2,0,2}^3, the 7 slow ones model at 4,341 per generator or
more (329,922 over 76 generators), the other 20 at 670 or less.  The
knot groups and (2,2,2) unions of T(3,q) for q = 5, 7, 11, 25 and 85
model at 1,138 or less.  The lookahead costs up to seven more
compiles and a compile's time grows with the number of generators, hence
a bound per generator: a fixed bound would send the T(3,85) (2,2,2) union
through 0.2 s of compiles to save 0.03 s of search.

The relator index.  For each generator the compile keeps the relators it
occurs in and how often (counted on a plain dict, twice as fast as a
`Counter` on relators of four letters), and for each relator the number
of its positions still unknown, so assigning a generator touches only
its own relators.
Derives come in the order of repeated passes in relator order: the
smallest ready relator (one unknown position) at or after the current
position, and when none is left, a new pass from the smallest ready
relator.  The checks one assignment unlocks follow it in relator order.
A free candidate is scored by a worklist closure over the relators it
touches: the generators that choosing it would determine.  The closure
finds the generator at a relator's last unknown position among the
relator's distinct generators.  Both lists, the relators of each generator
and the generators of each relator, are built by `_relator_index` once per
`_choose_schedule`, for the greedy compile and all of the lookahead's.

The dominance rule.  "Derive when exactly one position is unknown" is
monotone (knowing more never blocks a derive) and its closure idempotent,
so a closure's set does not depend on the order of the worklist, and if h
is in the closure of c then the closure of h lies inside it: h gains no
more than c.  `greedy` therefore walks the free generators in ascending
order and skips each one that an earlier, smaller candidate's closure
already contains.  A skipped h can tie c at best, and on ties the smaller
c wins anyway, so the choice is the one of scoring every candidate.  On
the T(3,5) knot and its 27 unions with twists in {-2,0,2}^3 this scores
10,295 closures where scoring every free generator takes 15,658.  Only the
lookahead's ranking of its first choices still scores every candidate.

The search.  Each derive step is compiled into one word whose value is the
derived image, and the images live in one signed table (`img[-g]` is the
inverse of `img[g]`), so evaluating a word has no branch.  A word x y x^-1,
the shape of 1,872 of the 1,953 derives on the 27 T(3,5) unions, is one
lookup in the group's conjugation table.  So is a check x y x^-1 z, the
shape of all 153 checks there: it compares the lookup with `img[z^-1]`.
Every other word is multiplied out from the identity.  A derive writes
the inverse of its image only when some step of the schedule reads it,
which 419 of the 1,953 do.  The search walks the inner blocks with an
explicit stack of candidate iterators; the last block's candidates, 70 %
of those tried into A5 on the 27 unions, run in a plain loop in the
same frame, with no stack entry of their own.  One node is one derive
step run or one candidate tried.
Nodes are counted per block: a block adds its derives at once when it
completes, or the derives before a check that fails.  A block that would
take the count past the node budget runs only its steps before the derive
that crosses it and stops the search there, so an exhausted search reports
budget + 1 nodes, as counting one derive at a time would.

Pruning.  Conjugating a homomorphism by c in G is a bijection of the hom
set, so the number of homomorphisms with a fixed image g of the block-1
generator is constant on conjugacy classes: block 1 takes one
representative g per class, weighted by the class size.  With g fixed,
conjugating by c in the centralizer C_G(g) is a bijection between the
homomorphisms extending (g, h) and those extending (g, chc^-1), so block 2
takes one representative per orbit of C_G(g) on its domain, weighted by
the orbit size.  When every generator is meridian-marked the other
generators are conjugate to the first in the presented group, so the
domain of blocks 2 and on is g's class; otherwise it is all of G.
"""

from __future__ import annotations

from heapq import heappop, heappush, nlargest
from typing import NamedTuple

from .finite import FiniteGroup
from .presentations import GroupPresentation, invert

DEFAULT_NODE_BUDGET = 5_000_000
_BRANCHING = 12
_LOOKAHEAD_COST = 2_000
_LOOKAHEAD_WIDTH = 8


class HomCount(NamedTuple):
    status: str  # "exact" | "inconclusive"
    count: int | None
    nodes: int

    @property
    def exact(self) -> bool:
        return self.status == "exact"


class _Budget(Exception):
    pass


def _relator_index(n: int, rels: list[tuple[int, ...]]):
    """`(occurs, gens)`: for each generator, `(relator, multiplicity)` of
    the relators it occurs in; for each relator, its distinct generators in
    order of first occurrence."""
    occurs: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    gens = []
    for ri, r in enumerate(rels):
        counts: dict[int, int] = {}
        for x in r:
            g = abs(x)
            counts[g] = counts.get(g, 0) + 1
        for g, m in counts.items():
            occurs[g].append((ri, m))
        gens.append(tuple(counts))
    return occurs, gens


class _Cascade:
    """One compile's state: the generators known, each relator's unknown
    positions, the blocks so far and the relators ready to derive."""

    def __init__(self, n: int, rels: list[tuple[int, ...]], index):
        self.rels = rels
        self.occurs, self.gens = index
        self.unknown = [len(r) for r in rels]
        self.done = [not r for r in rels]
        self.known = [False] * (n + 1)
        self.blocks: list[tuple[int, list[tuple]]] = [(0, [("check", r) for r in rels if not r])]
        # ready relators at or after the current position, and before it
        self.ahead = [ri for ri, u in enumerate(self.unknown) if u == 1]
        self.behind: list[int] = []

    def assign(self, g: int, pos: int) -> None:
        self.known[g] = True
        unknown, done, steps = self.unknown, self.done, self.blocks[-1][1]
        for ri, m in self.occurs[g]:
            if done[ri]:
                continue
            unknown[ri] -= m
            if unknown[ri] == 0:
                done[ri] = True
                steps.append(("check", self.rels[ri]))
            elif unknown[ri] == 1:
                heappush(self.ahead if ri >= pos else self.behind, ri)

    def closure(self, c: int) -> set[int]:
        """The generators choosing c would determine, c included."""
        gens, occurs, known, unknown, done = self.gens, self.occurs, self.known, self.unknown, self.done
        left: dict[int, int] = {}
        new = {c}
        work = [c]
        while work:
            for ri, m in occurs[work.pop()]:
                if done[ri]:
                    continue
                left[ri] = u = left.get(ri, unknown[ri]) - m
                if u == 1:
                    # the one generator at the last unknown position
                    for h in gens[ri]:
                        if not known[h] and h not in new:
                            new.add(h)
                            work.append(h)
                            break
        return new

    def run(self) -> list[int]:
        """Derive until the cascade stalls; the generators still free."""
        rels, known, done = self.rels, self.known, self.done
        while self.ahead or self.behind:
            if not self.ahead:
                self.ahead, self.behind = self.behind, []
            ri = heappop(self.ahead)
            if done[ri]:
                continue
            done[ri] = True
            r = rels[ri]
            p = next(p for p, x in enumerate(r) if not known[abs(x)])
            g = abs(r[p])
            self.blocks[-1][1].append(("derive", g, r[:p], r[p + 1 :], 1 if r[p] > 0 else -1))
            self.assign(g, ri + 1)
        return [g for g in range(1, len(known)) if not known[g]]

    def greedy(self, free: list[int]) -> int:
        """The free generator of largest gain, the smallest on ties.  A
        generator in the closure of a smaller one is skipped unscored."""
        best, most = 0, 0
        covered: set[int] = set()
        for c in free:
            if c in covered:
                continue
            new = self.closure(c)
            if len(new) > most:
                best, most = c, len(new)
            covered |= new
        return best

    def ranked(self, free: list[int], k: int) -> list[int]:
        """The k free generators of largest gain, the smallest first on ties."""
        return nlargest(k, free, key=lambda c: (len(self.closure(c)), -c))

    def choose(self, g: int) -> None:
        self.blocks.append((g, []))
        self.assign(g, 0)


def _compile_schedule(
    n: int,
    rels: list[tuple[int, ...]],
    first: int | None = None,
    index: tuple | None = None,
    stop: float | None = None,
    tails: dict | None = None,
):
    """Blocks `(generator, steps)`: the opening block (generator 0), then
    one per free choice.  A step is `("derive", g, prefix, suffix, eps)`
    or `("check", relator)`.  `first`, when given, is the first free
    choice; every other choice is greedy.  When `stop` is given, None once
    the modelled cost of the blocks so far reaches it.  `tails`, when
    given, maps the known generators at a stall before a greedy choice
    (`bytes(known)`) to the blocks that follow it: a compile that stalls
    at a known set in it splices those blocks on, and a completed compile
    adds its own stalls."""
    cascade = _Cascade(n, rels, _relator_index(n, rels) if index is None else index)
    blocks = cascade.blocks
    stalls = []
    while True:
        free = cascade.run()
        greedy = first is None or len(blocks) > 1
        if tails is not None and greedy:
            # the cascade state at a stall, and so every greedy block
            # after it, depends only on the known set
            key = bytes(cascade.known)
            tail = tails.get(key)
            if tail is not None:
                blocks = blocks + tail
                free = []
            else:
                stalls.append((key, len(blocks)))
        if stop is not None and _modelled_cost(blocks) >= stop:
            return None
        if not free:
            break
        cascade.choose(cascade.greedy(free) if greedy else first)
    for key, k in stalls:
        tails[key] = blocks[k:]
    return blocks


def _modelled_cost(blocks) -> float:
    """Search nodes the schedule is expected to take: a free block
    multiplies the surviving partial assignments by `_BRANCHING`, each
    check divides them by it, and each candidate tried and each derive
    step costs one node per survivor."""
    survivors = 1.0
    cost = 0.0
    for i, (_, steps) in enumerate(blocks):
        if i:
            survivors *= _BRANCHING
        cost += survivors
        for step in steps:
            if step[0] == "derive":
                cost += survivors
            else:
                survivors /= _BRANCHING
    return cost


def _choose_schedule(n: int, rels: list[tuple[int, ...]]):
    """The greedy schedule, unless its modelled cost is above
    `_LOOKAHEAD_COST` per generator: then the cheapest of the schedules
    that open with one of the `_LOOKAHEAD_WIDTH` first choices of largest
    gain, the greedy one on ties."""
    index = _relator_index(n, rels)
    tails: dict[bytes, list] = {}
    blocks = _compile_schedule(n, rels, index=index, tails=tails)
    best = _modelled_cost(blocks)
    if best <= _LOOKAHEAD_COST * n:
        return blocks
    cascade = _Cascade(n, rels, index)
    # the first of these is the greedy choice, already compiled
    for c in cascade.ranked(cascade.run(), _LOOKAHEAD_WIDTH)[1:]:
        other = _compile_schedule(n, rels, c, index, best, tails)
        if other is not None:
            blocks, best = other, _modelled_cost(other)
    return blocks


def _search_block(steps) -> tuple[list[tuple], int]:
    """One block's steps in the search's form, and its number of derives.
    A step is `(kind, g, a, b, c)`.  Kind 0 checks that
    img[a]*img[b]*img[a]^-1 is img[c], the relator x y x^-1 z read as
    a = x, b = y, c = z^-1, or, with b = 0, that the word a is the
    identity; its g is the number of derives of the block before it.
    Kind 1 derives the image of g as img[a]*img[b]*img[a]^-1 and kind 3 as
    the value of the word a; kinds 2 and 4 derive as 1 and 3 and also
    write the inverse, `img[-g]`.  This compile gives every derive kind 1
    or 3: `_schedule` raises to 2 and 4 the derives whose inverse a step
    reads."""
    out = []
    derives = 0
    for step in steps:
        if step[0] == "check":
            r = step[1]
            if len(r) == 4 and r[2] == -r[0]:
                out.append((0, derives, r[0], r[1], -r[3]))
            else:
                out.append((0, derives, r, 0, 0))
            continue
        # prefix g^eps suffix = 1
        _, g, prefix, suffix, eps = step
        word = invert(prefix) + invert(suffix) if eps > 0 else suffix + prefix
        if len(word) == 3 and word[2] == -word[0]:
            out.append((1, g, word[0], word[1], 0))
        else:
            out.append((3, g, word, 0, 0))
        derives += 1
    return out, derives


def _reads(step) -> tuple[int, ...]:
    """The entries of `img` that a search step reads."""
    kind, _, a, b, c = step
    if kind in (1, 2):
        return a, b
    return (a, b, c) if not kind and b else a


def _before_derive(steps, k: int) -> list[tuple]:
    """The steps before the k-th derive of a block with at least k >= 1."""
    for i, step in enumerate(steps):
        if step[0]:
            k -= 1
            if not k:
                return steps[:i]


def _schedule(pres: GroupPresentation) -> tuple[int, list, bool]:
    """`(n, blocks (g, search steps, derives), all meridian)` of the
    simplified presentation.  Compiled on the first count and kept on the
    presentation object, so counting one presentation into every battery
    group compiles it once."""
    got = pres.__dict__.get("_hom_schedule")
    if got is None:
        simple = pres.simplified()
        n = simple.n_generators
        blocks = [
            (g, *_search_block(steps))
            for g, steps in (_choose_schedule(n, list(simple.relators)) if n else ())
        ]
        # each generator is assigned once, so a read of img[-g] anywhere in
        # the schedule comes after g's derive
        read = {x for _, steps, _ in blocks for step in steps for x in _reads(step)}
        blocks = [
            (g, [(step[0] + 1, *step[1:]) if step[0] and -step[1] in read else step
                 for step in steps], derives)
            for g, steps, derives in blocks
        ]
        got = pres._hom_schedule = (n, blocks, simple.meridians == frozenset(range(1, n + 1)))
    return got


def hom_count(
    pres: GroupPresentation,
    G: FiniteGroup,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HomCount:
    """Exact number of homomorphisms pres -> G, or a typed inconclusive."""
    n, blocks, all_meridian = _schedule(pres)
    if n == 0:
        return HomCount("exact", 1, 0)

    mult = G.mult
    conj = G.conjugation
    inv = G.inverse
    ident = G.identity
    img = [ident] * (2 * n + 1)
    nodes = 0

    def run(steps, derives) -> bool:
        # derive and check one block's steps; False once a check fails.  A
        # check x y x^-1 z and a derive x y x^-1 read the conjugation table
        # once, and a derive writes img[-g] only when a step reads it.  A
        # block that would cross the budget runs up to its crossing derive
        # (the first one, when the budget is negative).
        nonlocal nodes
        crossing = 0
        if derives > node_budget - nodes and derives:
            crossing = max(node_budget - nodes, 0) + 1
            steps = _before_derive(steps, crossing)
        for kind, g, a, b, c in steps:
            if kind == 1:
                img[g] = conj[img[a]][img[b]]
            elif kind == 2:
                img[g] = acc = conj[img[a]][img[b]]
                img[-g] = inv[acc]
            elif kind or not b:
                # a word: derived by kinds 3 and 4, checked by kind 0
                acc = ident
                for x in a:
                    acc = mult[acc][img[x]]
                if kind:
                    img[g] = acc
                    if kind == 4:
                        img[-g] = inv[acc]
                elif acc != ident:
                    nodes += g
                    return False
            elif conj[img[a]][img[b]] != img[c]:
                nodes += g
                return False
        if crossing:
            nodes += crossing
            raise _Budget
        nodes += derives
        return True

    try:
        _, steps, derives = blocks[0]
        if not run(steps, derives):
            return HomCount("exact", 0, nodes)
        if len(blocks) == 1:
            return HomCount("exact", 1, nodes)
        # stack[d - 1] iterates the (candidate, weight) pairs of block d,
        # weights[d - 1] is the weight of the choices above it; the last
        # block's candidates run in place, without a stack entry
        total = 0
        last = len(blocks) - 1
        leaf, leaf_steps, leaf_derives = blocks[last]
        stack, weights = [], []
        items, w = [(cls[0], len(cls)) for cls in G.conjugacy_classes], 1
        while True:
            if len(stack) + 1 == last:
                for cand, v in items:
                    nodes += 1
                    if nodes > node_budget:
                        raise _Budget
                    img[leaf] = cand
                    img[-leaf] = inv[cand]
                    if run(leaf_steps, leaf_derives):
                        total += v * w
            else:
                stack.append(iter(items))
                weights.append(w)
            # the next candidate of an inner block that passes its steps
            while stack:
                item = next(stack[-1], None)
                if item is None:
                    stack.pop()
                    weights.pop()
                    continue
                nodes += 1
                if nodes > node_budget:
                    raise _Budget
                depth = len(stack)
                g, steps, derives = blocks[depth]
                cand, v = item
                img[g] = cand
                img[-g] = inv[cand]
                if run(steps, derives):
                    break
            else:
                break
            w = v * weights[-1]
            if depth == 1:
                domain = G.conjugacy_classes[G.class_index[cand]] if all_meridian else range(G.order)
                unweighted = [(h, 1) for h in domain]
                items = G.centralizer_orbits[cand, not all_meridian]
            else:
                items = unweighted
    except _Budget:
        return HomCount("inconclusive", None, nodes)
    return HomCount("exact", total, nodes)


# ---------------------------------------------------------------------------
# collapse evidence


class CollapseReport(NamedTuple):
    verdict: str  # "consistent-collapse" | "distinguished" | "inconclusive"
    rows: tuple[tuple[str, int | None, int | None], ...]


def collapse_check(
    cob: GroupPresentation,
    target: GroupPresentation,
    battery: list[FiniteGroup],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CollapseReport:
    """Compare finite-quotient counts of two presentations over a battery.

    distinguished: some battery group tells them apart (no collapse).
    consistent-collapse: all counts equal -- evidence, not proof.
    inconclusive: a count hit its search budget.
    """
    rows = []
    exhausted = False
    differs = False
    for G in battery:
        a = hom_count(cob, G, node_budget=node_budget)
        b = hom_count(target, G, node_budget=node_budget)
        rows.append((G.name or f"order{G.order}", a.count, b.count))
        if not (a.exact and b.exact):
            exhausted = True
        elif a.count != b.count:
            differs = True
    if exhausted:
        verdict = "inconclusive"
    elif differs:
        verdict = "distinguished"
    else:
        verdict = "consistent-collapse"
    return CollapseReport(verdict, tuple(rows))
