"""HLT-style Todd-Coxeter coset enumeration with coincidence handling.

The coset table is one flat `array('i')` with entry (coset, col) at
coset * ncols + col.  Cosets are numbered from 1 and 0 marks an undefined
entry, so row 0 is never used (one row, 632 bytes on the 79-generator
T(3,7) cover).  Generator g owns columns 2g-2 (g) and 2g-1 (g^-1), so col ^ 1
is the inverse column.  The union-find over cosets lives in the same table:
when coset y merges into x, the first entry of y's row, which is never read
as a table entry again, becomes -x.  A negative first entry marks a dead row,
so find is called only on such a coset, and a merge visits only the defined
entries of the dying row (`itertools.compress` over the row).  The table is
the only buffer that grows during an enumeration, and a coset costs 4 bytes
x 2n columns: about 1.26 GB for the T(3,7) cover at the default budget of
2,000,000 cosets.  `todd_coxeter` returns the table with live cosets
renumbered from 0.

Termination is never guaranteed for infinite-index subgroups, so the
enumerator carries an explicit coset budget and returns a typed
inconclusive result instead of running forever.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress

from .presentations import GroupPresentation, Word

DEFAULT_MAX_COSETS = 2_000_000


@dataclass(frozen=True)
class CosetResult:
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
    if not ncols:  # the trivial group: one coset, and no row to hold the union-find
        return CosetResult("complete", 1, ((),), 1, max_cosets)
    blank = array("i", [0]) * ncols
    table = blank * 2  # row 0 unused, row 1 the subgroup's coset
    cols = range(ncols)
    pending: list[tuple[int, int]] = []  # forced equalities queue

    def find(x: int) -> int:
        while (p := table[x * ncols]) < 0:
            q = table[-p * ncols]
            if q >= 0:
                return -p
            table[x * ncols] = q  # path halving
            x = -q
        return x

    def set_entry(a: int, col: int, b: int):
        a, b = find(a), find(b)
        cur = table[a * ncols + col]
        if not cur:
            table[a * ncols + col] = b
            back = table[b * ncols + (col ^ 1)]
            if not back:
                table[b * ncols + (col ^ 1)] = a
            elif find(back) != a:
                pending.append((find(back), a))
                process_pending()
        elif find(cur) != b:
            pending.append((find(cur), b))
            process_pending()

    def process_pending():
        while pending:
            x, y = pending.pop()
            if table[x * ncols] < 0:
                x = find(x)
            if table[y * ncols] < 0:
                y = find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            row = table[y * ncols : y * ncols + ncols]
            table[y * ncols] = -x  # y dies, x survives
            # no write below touches row y: find never returns y again
            base = x * ncols
            for col in compress(cols, row):
                e = row[col]
                if table[e * ncols] < 0:
                    e = find(e)
                cur = table[base + col]
                if not cur:
                    table[base + col] = e
                    cur = table[e * ncols + (col ^ 1)]
                    if not cur:
                        table[e * ncols + (col ^ 1)] = x
                        continue
                    e = x  # the back entry of e must be x
                if table[cur * ncols] < 0:
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
            nxt = table[f * ncols + word[i]]
            if not nxt:
                break
            f = nxt if table[nxt * ncols] >= 0 else find(nxt)
            i += 1
        # backward from the end
        b = coset
        j = n
        while j > i:
            prev = table[b * ncols + (word[j - 1] ^ 1)]
            if not prev:
                break
            b = prev if table[prev * ncols] >= 0 else find(prev)
            j -= 1
        if j == i:
            # the two scans meet: force f = b
            if f != b:
                pending.append((f, b))
                process_pending()
            return True
        # genuine gap: define new cosets for all but the last position; a
        # fresh coset's row is empty but for its back entry, so only a word
        # that is not freely reduced needs set_entry, and then only the fresh
        # coset, whose row is empty, dies
        while j > i + 1:
            c = len(table) // ncols
            if c > max_cosets:
                return False
            table.extend(blank)
            col = word[i]
            if table[f * ncols + col]:
                set_entry(f, col, c)
                f = find(c)
            else:
                table[f * ncols + col] = c
                table[c * ncols + (col ^ 1)] = f
                f = c
            i += 1
        # the closing deduction; f and b are live
        col = word[i]
        if not table[f * ncols + col] and not table[b * ncols + (col ^ 1)]:
            table[f * ncols + col] = b
            table[b * ncols + (col ^ 1)] = f
        else:
            set_entry(f, col, b)
        return True

    def inconclusive() -> CosetResult:
        return CosetResult("inconclusive", None, None, len(table) // ncols - 1, max_cosets)

    for w in words:
        if not scan(1, w):
            return inconclusive()

    idx = 1
    while idx < len(table) // ncols:
        if table[idx * ncols] >= 0:
            for r in relators:
                if not scan(idx, r):
                    return inconclusive()
                if table[idx * ncols] < 0:
                    break
            else:
                # idx stays live: a fresh coset closes a hole without coincidence
                for col in range(ncols):
                    if not table[idx * ncols + col]:
                        c = len(table) // ncols
                        if c > max_cosets:
                            return inconclusive()
                        table.extend(blank)
                        table[idx * ncols + col] = c
                        table[c * ncols + (col ^ 1)] = idx
        idx += 1

    # compress to live cosets, numbered from 0
    defined = len(table) // ncols - 1
    live = [c for c in range(1, defined + 1) if table[c * ncols] >= 0]
    renum = {c: k for k, c in enumerate(live)}
    final = []
    for c in live:
        row = table[c * ncols : c * ncols + ncols]
        if 0 in row:
            raise RuntimeError("incomplete table reported as complete")
        final.append(tuple(renum[find(e)] for e in row))
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
