"""Counting homomorphisms from a finite presentation to a finite group.

The search precompiles a schedule with one cascade, `_cascade`: a relator
in which exactly one unassigned generator occurs exactly once *derives*
that generator from the images already chosen; every other relator is
checked as soon as its support is fully assigned.  When the cascade stalls,
the free generator whose choice would derive the most others is chosen
next.  The schedule is one block `(generator, steps)` per free choice,
after an opening block with generator 0; the search walks the blocks with
an explicit stack.  On Wirtinger-style presentations this collapses the
search tree to a handful of genuinely free choices.

Conjugacy pruning: for any presentation the count of homomorphisms with a
fixed image for the first-assigned generator is constant on conjugacy
classes (conjugating a homomorphism is a bijection of the hom set), so that
generator only ranges over class representatives, weighted by class size.
When every generator is meridian-marked the remaining generators are
conjugate to the first in the presented group, so their images are confined
to the chosen class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finite import FiniteGroup
from .presentations import GroupPresentation

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class HomCount:
    status: str  # "exact" | "inconclusive"
    count: int | None
    nodes: int

    @property
    def exact(self) -> bool:
        return self.status == "exact"


class _Budget(Exception):
    pass


def _cascade(rels, assigned: set[int], consumed: list[bool], derived=None) -> int:
    """Assign every generator that some relator determines, in repeated
    passes in relator order until nothing new falls out; return how many.

    A relator determines its single unassigned generator if that generator
    occurs in it once.  `derived(r, p)` is told of each such relator r and
    the position p of the generator it determined.
    """
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


def _compile_schedule(n: int, rels: list[tuple[int, ...]]):
    """Blocks `(generator, steps)`: the opening block (generator 0), then
    one per free choice.  A step is `("derive", g, prefix, suffix, eps)`
    or `("check", relator)`."""
    blocks: list[tuple[int, list[tuple]]] = [(0, [])]
    assigned: set[int] = set()
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
        _cascade(rels, assigned, consumed, derived)
        free = [g for g in range(1, n + 1) if g not in assigned]
        if not free:
            return blocks
        # the free generator whose choice would derive the most others
        g = max(free, key=lambda c: (_cascade(rels, assigned | {c}, list(consumed)), -c))
        blocks.append((g, []))
        assigned.add(g)


def hom_count(
    pres: GroupPresentation,
    G: FiniteGroup,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HomCount:
    """Exact number of homomorphisms pres -> G, or a typed inconclusive."""
    pres = pres.simplified()
    n = pres.n_generators
    if n == 0:
        return HomCount("exact", 1, 0)
    blocks = _compile_schedule(n, list(pres.relators))
    all_meridian = pres.meridians == frozenset(range(1, n + 1))

    mult = G.mult
    inv = G.inverse
    ident = G.identity
    val = [0] * (n + 1)
    nodes = 0

    def evaluate(word) -> int:
        acc = ident
        for x in word:
            img = val[x] if x > 0 else inv[val[-x]]
            acc = mult[acc][img]
        return acc

    def run(steps) -> bool:
        # derive and check one block's steps; False once a check fails
        nonlocal nodes
        for step in steps:
            if step[0] == "check":
                if evaluate(step[1]) != ident:
                    return False
                continue
            _, g, prefix, suffix, eps = step
            nodes += 1
            if nodes > node_budget:
                raise _Budget
            rhs = mult[inv[evaluate(prefix)]][inv[evaluate(suffix)]]
            val[g] = rhs if eps > 0 else inv[rhs]
        return True

    try:
        if not run(blocks[0][1]):
            return HomCount("exact", 0, nodes)
        if len(blocks) == 1:
            return HomCount("exact", 1, nodes)
        # stack[d - 1] iterates the candidates of block d; block 1 takes
        # one representative per conjugacy class, weighted by its size
        total = 0
        stack = [iter(G.conjugacy_classes)]
        while stack:
            cand = next(stack[-1], None)
            if cand is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > node_budget:
                raise _Budget
            g, steps = blocks[len(stack)]
            if len(stack) == 1:
                cls, cand = cand, cand[0]
                domain = cls if all_meridian else range(G.order)
            val[g] = cand
            if not run(steps):
                continue
            if len(stack) + 1 < len(blocks):
                stack.append(iter(domain))
            else:
                total += len(cls)
    except _Budget:
        return HomCount("inconclusive", None, nodes)
    return HomCount("exact", total, nodes)


# ---------------------------------------------------------------------------
# collapse evidence


@dataclass(frozen=True)
class CollapseReport:
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
