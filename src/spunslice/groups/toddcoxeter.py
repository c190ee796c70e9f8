"""HLT-style Todd-Coxeter coset enumeration with coincidence handling.

Cosets are numbered from 1; generator g owns columns 2g-2 (g) and 2g-1
(g^-1), so col ^ 1 is the inverse column.  `rows[c]` is one `{col: coset}`
dict of the defined entries of live coset c.  The union-find is one
`array('i')`: `fwd[c]` is 0 while c lives and the coset it merged into once
it dies, and `find` walks it with path halving.  A merge reads the dying
row's items, then frees the row (`rows[c] = None`).  The rows are sparse:
after 200,000 cosets on the 79-generator T(3,7) cover, the 150,306 live
rows hold 3.8 of 158 entries on average.  A defined coset costs about 135,
265 and 285 bytes on the T(3,5), T(3,7) and T(3,11) covers (tracemalloc
peak, CPython 3.11), where a flat 4-byte table of 2n columns took 468, 668
and 1,074, and T(3,7) exhausts the default budget at about 460 MB.  Dense,
narrow tables cost more: S8's Coxeter presentation (7 generators) peaks at
43 MB traced against 17.  The one runtime caller, the base-cover premise,
runs only at determinant 1, where the cover group is perfect and the
enumeration completes at index 120 or exhausts its budget on sparse rows.
`todd_coxeter` returns the table with live cosets renumbered from 0.

Termination is never guaranteed for infinite-index subgroups, so the
enumerator carries an explicit coset budget and returns a typed
inconclusive result instead of running forever.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .presentations import GroupPresentation, Word

DEFAULT_MAX_COSETS = 2_000_000


class CosetResult(NamedTuple):
    status: str  # "complete" | "inconclusive"
    index: int | None
    table: tuple[tuple[int, ...], ...] | None  # rows: cosets, cols: 2n letters
    cosets_defined: int
    max_cosets: int

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def _columns(word: Word, n: int) -> list[int]:
    for x in word:
        if x == 0 or abs(x) > n:
            raise ValueError(f"word letter {x} out of range")
    return [2 * x - 2 if x > 0 else -2 * x - 1 for x in word]


def todd_coxeter(
    pres: GroupPresentation,
    subgroup: tuple[Word, ...] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetResult:
    """Enumerate cosets of <subgroup words> in the presented group."""
    ngens = pres.n_generators
    ncols = 2 * ngens
    relators = [_columns(r, ngens) for r in pres.simplified().relators if r]
    words = [_columns(w, ngens) for w in subgroup]
    rows: list[dict[int, int] | None] = [None, {}]  # no coset 0; coset 1 is the subgroup's
    fwd = array("i", [0, 0])  # the coset a dead coset merged into; 0 while live
    pending: list[tuple[int, int]] = []  # forced equalities queue

    def find(x: int) -> int:
        while p := fwd[x]:
            q = fwd[p]
            if not q:
                return p
            fwd[x] = q  # path halving
            x = q
        return x

    def set_entry(a: int, col: int, b: int):
        a, b = find(a), find(b)
        cur = rows[a].get(col)
        if cur is None:
            rows[a][col] = b
            back = rows[b].get(col ^ 1)
            if back is None:
                rows[b][col ^ 1] = a
            elif find(back) != a:
                pending.append((find(back), a))
                process_pending()
        elif find(cur) != b:
            pending.append((find(cur), b))
            process_pending()

    def process_pending():
        while pending:
            x, y = pending.pop()
            if fwd[x]:
                x = find(x)
            if fwd[y]:
                y = find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            row, rows[y] = rows[y], None  # y dies, x survives; y's row is freed once read
            fwd[y] = x
            survivor = rows[x]
            for col, e in row.items():
                if fwd[e]:
                    e = find(e)
                cur = survivor.get(col)
                if cur is None:
                    survivor[col] = e
                    back = rows[e]
                    cur = back.get(col ^ 1)
                    if cur is None:
                        back[col ^ 1] = x
                        continue
                    e = x  # the back entry of e must be x
                if fwd[cur]:
                    cur = find(cur)
                if cur != e:
                    pending.append((cur, e))

    def scan(coset: int, word: list[int]) -> bool:
        """Scan word at the live coset, filling gaps; False if the budget is hit."""
        # forward as far as possible
        f = coset
        i = 0
        n = len(word)
        while i < n:
            nxt = rows[f].get(word[i])
            if nxt is None:
                break
            f = find(nxt) if fwd[nxt] else nxt
            i += 1
        # backward from the end
        b = coset
        j = n
        while j > i:
            prev = rows[b].get(word[j - 1] ^ 1)
            if prev is None:
                break
            b = find(prev) if fwd[prev] else prev
            j -= 1
        if j == i:
            # the two scans meet: force f = b
            if f != b:
                pending.append((f, b))
                process_pending()
            return True
        # genuine gap: define new cosets for all but the last position; a
        # fresh coset's row holds only its back entry, so only a word that
        # is not freely reduced needs set_entry, and then only the fresh
        # coset, whose row is empty, dies
        while j > i + 1:
            c = len(rows)
            if c > max_cosets:
                return False
            col = word[i]
            fwd.append(0)
            if col in rows[f]:
                rows.append({})
                set_entry(f, col, c)
                f = find(c)
            else:
                rows[f][col] = c
                rows.append({col ^ 1: f})
                f = c
            i += 1
        # the closing deduction; f and b are live
        col = word[i]
        if col not in rows[f] and col ^ 1 not in rows[b]:
            rows[f][col] = b
            rows[b][col ^ 1] = f
        else:
            set_entry(f, col, b)
        return True

    def inconclusive() -> CosetResult:
        return CosetResult("inconclusive", None, None, len(rows) - 1, max_cosets)

    for w in words:
        if not scan(1, w):
            return inconclusive()

    idx = 1
    while idx < len(rows):
        if not fwd[idx]:
            for r in relators:
                if not scan(idx, r):
                    return inconclusive()
                if fwd[idx]:
                    break
            else:
                # idx stays live: a fresh coset closes a hole without coincidence
                row = rows[idx]
                for col in range(ncols):
                    if col not in row:
                        c = len(rows)
                        if c > max_cosets:
                            return inconclusive()
                        row[col] = c
                        rows.append({col ^ 1: idx})
                        fwd.append(0)
        idx += 1

    # compress to live cosets, numbered from 0
    defined = len(rows) - 1
    live = [c for c in range(1, defined + 1) if not fwd[c]]
    renum = {c: k for k, c in enumerate(live)}
    final = []
    for c in live:
        row = rows[c]
        if len(row) != ncols:
            raise RuntimeError("incomplete table reported as complete")
        final.append(tuple(renum[find(row[col])] for col in range(ncols)))
    return CosetResult("complete", len(live), tuple(final), defined, max_cosets)


def regular_representation(result: CosetResult) -> list[list[int]]:
    """Multiplication table of the group from a trivial-subgroup coset table.

    Coset 0 is the identity; the element of coset c is the tree word
    reaching c.  mult[a][b] = coset of (element a) * (element b), computed by
    pushing a through b's tree word.
    """
    if not result.complete:
        raise ValueError("need a complete enumeration")
    table = result.table
    n = result.index
    # BFS spanning tree from coset 0
    perm: list[list[int] | None] = [None] * n
    perm[0] = list(range(n))
    order = [0]
    head = 0
    ncols = len(table[0]) if n else 0
    while head < len(order):
        c = order[head]
        head += 1
        for col in range(ncols):
            d = table[c][col]
            if perm[d] is None:
                # pi_d = column_col  composed after  pi_c
                pc = perm[c]
                perm[d] = [table[pc[i]][col] for i in range(n)]
                order.append(d)
    mult = [[perm[b][a] for b in range(n)] for a in range(n)]
    return mult
