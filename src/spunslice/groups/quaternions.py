"""The binary icosahedral group as exact unit quaternions.

Every coordinate of a unit icosian lies in (1/4) Z[sqrt5], so a coordinate
is stored as an integer pair (X, Y) meaning (X + Y sqrt5)/4 -- plain
integers, no floating point and no fractions.  The 120 units are the 24
Hurwitz-style elements plus the 96 even coordinate permutations of
(0, +-1, +-1/phi, +-phi)/2, phi the golden ratio.  Elements are tuples under
a product function: a quaternion is the tuple of its four coordinate pairs,
multiplied by icosian_mul.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

from .finite import FiniteGroup, GroupError, closure_elements, is_even, table_group

# coordinate k of x*y is the sum of sign * x[i] * y[j] over (sign, i, j) in row k
_HAMILTON = (
    ((1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
    ((1, 0, 1), (1, 1, 0), (1, 2, 3), (-1, 3, 2)),
    ((1, 0, 2), (-1, 1, 3), (1, 2, 0), (1, 3, 1)),
    ((1, 0, 3), (1, 1, 2), (-1, 2, 1), (1, 3, 0)),
)


def icosian_mul(p: tuple, q: tuple) -> tuple:
    """The product of two quaternions with coordinates in (1/4) Z[sqrt5].

    Products are computed on integers and divided by 4 exactly; a remainder
    raises GroupError, so the denominator is checked rather than assumed.
    """
    out = []
    for row in _HAMILTON:
        x = y = 0
        for sign, i, j in row:
            (a, a5), (b, b5) = p[i], q[j]
            x += sign * (a * b + 5 * a5 * b5)
            y += sign * (a * b5 + a5 * b)
        if x % 4 or y % 4:  # the sum has denominator 16
            raise GroupError(f"product {p} * {q} leaves (1/4) Z[sqrt5]")
        out.append((x // 4, y // 4))
    return tuple(out)


def _norm(u: tuple) -> tuple[int, int]:
    """w^2 + x^2 + y^2 + z^2 as the pair (X, Y) meaning (X + Y sqrt5)/16."""
    return (sum(x * x + 5 * y * y for x, y in u), sum(2 * x * y for x, y in u))


ZERO, ONE, HALF = (0, 0), (4, 0), (2, 0)
ICOSIAN_ONE = (ONE, ZERO, ZERO, ZERO)
ICOSIAN_MINUS_ONE = ((-4, 0), ZERO, ZERO, ZERO)
UNIT_NORM = (16, 0)

# (1 + i + j + k)/2 of order 6 and (phi + i/phi + j)/2 of order 10
GENERATORS = (
    (HALF, HALF, HALF, HALF),
    ((1, 1), (-1, 1), HALF, ZERO),
)


def _unit_icosians() -> list[tuple]:
    """The 120 unit icosians, each checked to have norm 1."""
    out = []
    for i in range(4):
        for s in (1, -1):
            comps = [ZERO] * 4
            comps[i] = (4 * s, 0)
            out.append(tuple(comps))
    for signs in product((1, -1), repeat=4):
        out.append(tuple((2 * s, 0) for s in signs))
    base = (ZERO, HALF, (-1, 1), (1, 1))  # 0, 1/2, 1/(2 phi), phi/2
    for p in permutations(range(4)):
        if not is_even(p):
            continue
        nonzero = [pos for pos in range(4) if p[pos]]
        for signs in product((1, -1), repeat=3):  # one sign per nonzero entry
            comps = [base[k] for k in p]
            for pos, s in zip(nonzero, signs):
                comps[pos] = (s * comps[pos][0], s * comps[pos][1])
            out.append(tuple(comps))
    if len(out) != 120 or len(set(out)) != 120:
        raise GroupError(f"expected 120 distinct units, built {len(set(out))}")
    for u in out:
        if _norm(u) != UNIT_NORM:
            raise GroupError(f"non-unit quaternion {u}")
    return out


@cache
def icosian_group() -> FiniteGroup:
    """The 120 unit icosians as a group, built once per process.

    The closure of two generators must be exactly the enumerated units;
    every table entry is then a directly computed quaternion product.
    """
    units = _unit_icosians()
    elems = closure_elements(GENERATORS, icosian_mul, bound=121)
    if set(elems) != set(units):
        raise GroupError("the generators do not close to the 120 unit icosians")
    return table_group(elems, icosian_mul, name="2I")


@cache
def icosian_involution_lemma() -> bool:
    """x^2 = 1 and x != 1 forces x = -1 among the unit icosians; checked
    once per process."""
    sols = [u for u in _unit_icosians() if icosian_mul(u, u) == ICOSIAN_ONE]
    return sorted(sols) == sorted((ICOSIAN_ONE, ICOSIAN_MINUS_ONE))
