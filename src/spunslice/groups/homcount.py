"""Counting homomorphisms from a finite presentation to a finite group.

The search precompiles a schedule: relators in which exactly one unassigned
generator occurs exactly once become *definers* (they determine that
generator from the already-chosen images), everything else is checked as
soon as its support is fully assigned.  On Wirtinger-style presentations
this collapses the search tree to a handful of genuinely free choices.

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


def _compile_schedule(n: int, rels: list[tuple[int, ...]]):
    steps: list[tuple] = []
    assigned: set[int] = set()
    consumed = [False] * len(rels)

    def emit_checks():
        for ri, r in enumerate(rels):
            if not consumed[ri] and all(abs(x) in assigned for x in r):
                consumed[ri] = True
                steps.append(("check", r))

    def derive_cascade():
        # a relator whose single unassigned generator occurs once determines
        # that generator; keep resolving until nothing new falls out
        progress = True
        while progress:
            progress = False
            for ri, r in enumerate(rels):
                if consumed[ri]:
                    continue
                unknown = [p for p, x in enumerate(r) if abs(x) not in assigned]
                if len(unknown) != 1:
                    continue
                p = unknown[0]
                g = abs(r[p])
                consumed[ri] = True
                steps.append(
                    ("derive", g, r[:p], r[p + 1 :], 1 if r[p] > 0 else -1)
                )
                assigned.add(g)
                emit_checks()
                progress = True

    def cascade_gain(g: int) -> int:
        # how many generators a free choice of g would pin down
        sim_assigned = set(assigned)
        sim_assigned.add(g)
        sim_consumed = list(consumed)
        gained = 0
        progress = True
        while progress:
            progress = False
            for ri, r in enumerate(rels):
                if sim_consumed[ri]:
                    continue
                unknown = [p for p, x in enumerate(r) if abs(x) not in sim_assigned]
                if len(unknown) != 1:
                    continue
                sim_consumed[ri] = True
                sim_assigned.add(abs(r[unknown[0]]))
                gained += 1
                progress = True
        return gained

    emit_checks()
    derive_cascade()
    while len(assigned) < n:
        free = [g for g in range(1, n + 1) if g not in assigned]
        g = max(free, key=lambda cand: (cascade_gain(cand), -cand))
        steps.append(("assign", g))
        assigned.add(g)
        emit_checks()
        derive_cascade()
    return steps


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
    rels = list(pres.relators)
    steps = _compile_schedule(n, rels)
    all_meridian = pres.meridians == frozenset(range(1, n + 1))

    mult = G.mult
    inv = G.inverse
    ident = G.identity
    val = [0] * (n + 1)
    state = {"nodes": 0, "total": 0}
    first_assign = next((i for i, s in enumerate(steps) if s[0] == "assign"), None)

    def evaluate(word) -> int:
        acc = ident
        for x in word:
            img = val[x] if x > 0 else inv[val[-x]]
            acc = mult[acc][img]
        return acc

    def run(i: int, factor: int):
        if i == len(steps):
            state["total"] += factor
            return
        step = steps[i]
        kind = step[0]
        if kind == "check":
            if evaluate(step[1]) == ident:
                run(i + 1, factor)
            return
        if kind == "derive":
            _, g, prefix, suffix, eps = step
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                raise _Budget
            rhs = mult[inv[evaluate(prefix)]][inv[evaluate(suffix)]]
            val[g] = rhs if eps > 0 else inv[rhs]
            run(i + 1, factor)
            return
        g = step[1]
        if i == first_assign:
            for cls in G.conjugacy_classes:
                state["nodes"] += 1
                if state["nodes"] > node_budget:
                    raise _Budget
                val[g] = cls[0]
                run(i + 1, factor * len(cls))
        else:
            if all_meridian:
                domain = G.conjugacy_classes[G.class_index[val[steps[first_assign][1]]]]
            else:
                domain = range(G.order)
            for cand in domain:
                state["nodes"] += 1
                if state["nodes"] > node_budget:
                    raise _Budget
                val[g] = cand
                run(i + 1, factor)

    try:
        run(0, 1)
    except _Budget:
        return HomCount("inconclusive", None, state["nodes"])
    return HomCount("exact", state["total"], state["nodes"])


# ---------------------------------------------------------------------------
# collapse evidence


@dataclass(frozen=True)
class CollapseReport:
    verdict: str  # "consistent-collapse" | "distinguished" | "inconclusive"
    rows: tuple[tuple[str, int | None, int | None], ...]

    def describe(self) -> str:
        lines = [self.verdict]
        for name, a, b in self.rows:
            lines.append(f"  {name}: cobordism {a} vs target {b}")
        return "\n".join(lines)


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
