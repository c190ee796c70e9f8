"""Exact integer elimination: unit-pivot reduction, the signed determinant,
Smith normal form and abelian invariants over the integers, from sparse rows
or a dense matrix.

Unit pivots are taken shortest row first: the +-1 entry, in the shortest row
that holds one, whose column has the fewest entries.  That bounds both
factors of the Markowitz cost (Markowitz, Management Sci. 3, 1957), as in
Zlatev's search restricted to the shortest rows (SIAM J. Numer. Anal. 17,
1980), with one queue entry per row instead of one per entry, each a
single int.  What the pivots leave is a small dense core: `determinant`
finishes it by Bareiss's fraction-free elimination (Math. Comp. 22, 1968),
the invariants by Smith normal form."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .finite import is_even


class AbelianInvariants(NamedTuple):
    """Invariant factors (including trivial 1s) plus free rank."""

    divisors: tuple[int, ...]
    free_rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)

    @property
    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.divisors:
            out *= d
        return out

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        parts.extend("Z" for _ in range(self.free_rank))
        return " + ".join(parts) if parts else "0"


class UnitReduction(NamedTuple):
    """Result of eliminate_unit_pivots: the (row, col, +-1) pivots in order,
    and the dense core on the remaining rows and columns (original order)."""

    pivots: tuple[tuple[int, int, int], ...]
    core_rows: list[int]
    core_cols: list[int]
    core: list[list[int]]


def eliminate_unit_pivots(rows: list[dict[int, int]], n: int) -> UnitReduction:
    """Eliminate +-1 pivots of an integer matrix, shortest row first.

    The matrix comes as sparse rows {col: nonzero value} over n columns, and
    the elimination consumes them.  Each step takes the shortest live row
    that holds a +-1 entry and, in it, the +-1 entry whose column has the
    fewest entries (ties to the lower row, then the lower column index).  The
    row's length minus 1 is the fill the pivot adds to each row it hits, and
    the column count is how many rows it hits: Zlatev's restricted Markowitz
    search (SIAM J. Numer. Anal. 17, 1980; Markowitz, Management Sci. 3,
    1957) narrowed to one row.  The pivot's column is cleared from every
    other row by exact integer row operations (so determinants are
    unchanged); the pivot entry is popped from its row, whose other entries
    are then read in place, and a column gains a row only where a row
    operation adds fill.  A queue entry is the int length * len(rows) + row,
    which orders as (length, row), and the pivot is the least
    len(cols[j]) * n + j, which orders as (column count, column).  A row hit
    is queued again only when it has no entry in the queue or its length
    differs from its last entry's; a queued length that is out of date marks
    a stale entry.  An entry popped without a +-1 counts as gone, since a
    hit can make a +-1 and keep the row's length.  So the pivots are those
    of queueing every row hit again.

    Column operations would clear the rest of the pivot row without touching
    any remaining row, so the matrix is equivalent to diag(pivots) + core,
    and a square matrix has determinant
    sign(row order) * sign(col order) * prod(pivots) * det(core) with rows
    ordered (pivot rows..., core rows) and columns likewise.  Wirtinger-,
    Fox- and Goeritz-derived rows are sparse and rich in +-1 entries, so the
    core is small (Havas-Holt-Rees, Linear Algebra Appl. 192, 1993).
    """
    m = len(rows)
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    live = [True] * m
    queued: list[int | None] = [len(row) for row in rows]  # last entry's length, or gone
    queue = [length * m + i for i, length in enumerate(queued)]
    heapify(queue)
    unset = (m + 1) * n  # above every pivot key: a column holds at most m rows
    pivots = []
    while queue:
        length, r = divmod(heappop(queue), m)
        prow = rows[r]
        if not live[r] or len(prow) != length:
            continue  # retired, or hit since it was queued
        best = unset  # least len(cols[j]) * n + j over the row's +-1 entries
        for j, v in prow.items():
            if v == 1 or v == -1:
                key = len(cols[j]) * n + j
                if key < best:
                    best = key
        if best == unset:
            queued[r] = None  # queued again if a pivot hits it
            continue
        c = best % n
        p = prow.pop(c)
        live[r] = False
        pivots.append((r, c, p))
        for j in prow:
            cols[j].discard(r)
        hits = cols[c]  # column c is retired, so its set is not read again
        hits.discard(r)
        for i in hits:
            row = rows[i]
            f = row.pop(c) * p
            for j, v in prow.items():
                w = row.get(j)
                if w is None:  # fill
                    row[j] = -f * v
                    cols[j].add(i)
                elif w == f * v:
                    del row[j]
                    cols[j].discard(i)
                else:
                    row[j] = w - f * v
            if queued[i] != len(row):
                queued[i] = len(row)
                heappush(queue, len(row) * m + i)
    done = {c for _r, c, _p in pivots}
    core_rows = [i for i in range(m) if live[i]]
    core_cols = [j for j in range(n) if j not in done]
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    return UnitReduction(tuple(pivots), core_rows, core_cols, core)


def _bareiss(matrix) -> int:
    """Fraction-free Bareiss determinant of a dense square integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    M = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def determinant(rows: list[dict[int, int]], n: int) -> int:
    """Signed determinant of an n x n integer matrix given as sparse rows
    {col: nonzero value}, which are consumed: unit pivots first, then
    Bareiss on the dense core, signed by the pivots and by the parity of the
    (pivot..., core...) row and column orders."""
    red = eliminate_unit_pivots(rows, n)
    row_order = [r for r, _c, _p in red.pivots] + red.core_rows
    col_order = [c for _r, c, _p in red.pivots] + red.core_cols
    sign = 1 if is_even(row_order) == is_even(col_order) else -1
    for _r, _c, p in red.pivots:
        sign *= p
    return sign * _bareiss(red.core)


def smith_normal_form(matrix: list[list[int]]) -> list[list[int]]:
    """Diagonalize an integer matrix M as U @ M @ V = D with d_i | d_{i+1}
    and return D.

    All arithmetic is exact.  The pivot is always an entry of least absolute
    value; any nonzero remainder left by clearing its row and column is
    smaller, so the search starts again and the pivot shrinks until it
    divides its whole row and column.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    A = [list(map(int, row)) for row in matrix]
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]

    def clear(t) -> bool:
        """Clear row and column t against the pivot; False at a remainder."""
        p = A[t][t]
        for i in range(t + 1, m):
            if A[i][t]:
                row_op(i, t, A[i][t] // p)
                if A[i][t]:
                    return False
        for j in range(t + 1, n):
            if A[t][j]:
                col_op(j, t, A[t][j] // p)
                if A[t][j]:
                    return False
        return True

    t = 0
    while t < min(m, n):
        piv = min(
            ((abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]),
            default=None,
        )
        if piv is None:
            break
        _, pi, pj = piv
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        if not clear(t):
            continue  # a remainder is now the least entry: search again
        p = A[t][t]
        # divisibility: the pivot must divide every remaining entry
        bad = next(
            (i for i in range(t + 1, m) for j in range(t + 1, n) if A[i][j] % p), None
        )
        if bad is not None:
            row_op(t, bad, -1)  # row t += row bad leaves a remainder in row t
            continue
        if p < 0:
            A[t] = [-x for x in A[t]]
        t += 1
    return A


def invariants_of_rows(rows: list[dict[int, int]], n: int) -> AbelianInvariants:
    """Invariants of Z^n / (span of the rows), each row a sparse
    {col: nonzero value} over n columns; the rows are consumed.

    The nonzero invariant factors are one 1 per unit pivot, then the Smith
    normal form of the small core."""
    red = eliminate_unit_pivots(rows, n)
    D = smith_normal_form([row for row in red.core if any(row)])
    divisors = (1,) * len(red.pivots) + tuple(
        D[i][i] for i in range(min(len(D), len(red.core_cols))) if D[i][i]
    )
    return AbelianInvariants(divisors, n - len(divisors))


def _divisors(matrix: list[list[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors of a dense matrix."""
    n = len(matrix[0])
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    rows = [{j: int(v) for j, v in enumerate(row) if v} for row in matrix]
    return invariants_of_rows(rows, n).divisors


def elementary_divisors(matrix: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """(divisor chain d1 | d2 | ..., rank) of an integer matrix."""
    if not matrix or not matrix[0]:
        return (), 0
    divisors = _divisors(matrix)
    return divisors, len(divisors)


def abelian_invariants(matrix: list[list[int]], n_generators: int) -> AbelianInvariants:
    """Invariants of Z^g / (row space of `matrix`), g = n_generators."""
    if not matrix:
        return AbelianInvariants((), n_generators)
    divisors = _divisors(matrix)
    return AbelianInvariants(divisors, n_generators - len(divisors))
