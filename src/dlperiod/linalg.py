"""Small exact linear algebra over tuples of `fractions.Fraction`.

Vectors are immutable tuples of Fractions, matrices are tuples of row
vectors.  Everything here is dimension-checked and exact; there is no
pivoting heuristics beyond "first nonzero", which is fine for exact
arithmetic.  What is left serves the Weyl matrices and reflections
(`weyl`, `rootsys`) and the Fraction boundary of the integer criterion
forms: `common_denominator` turns rational input into integers over one
denominator, and `integerize` turns an integer direction into the
primitive Fraction vector that is shown.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import Iterable, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = Tuple[Vector, ...]

ZERO = Q(0)
ONE = Q(1)


def vec(xs: Iterable) -> Vector:
    return tuple(Q(x) for x in xs)


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(a: Vector, b: Vector) -> Q:
    if len(a) != len(b):
        raise ValueError(f"dot: dimension mismatch {len(a)} vs {len(b)}")
    # Skipping zero terms matters: reflection matrices are mostly zeros, and
    # exact-rational multiplication is far from free.
    return sum((x * y for x, y in zip(a, b) if x and y), ZERO)


def sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def scale(c, a: Vector) -> Vector:
    cq = Q(c)
    return tuple(cq * x for x in a)


def matinv(m: Matrix) -> Matrix:
    """Inverse of an invertible square matrix, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(r) + list(unit_vec(n, i)) for i, r in enumerate(m)]
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            raise ValueError("matinv: singular matrix")
        rows[c], rows[pr] = rows[pr], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return tuple(tuple(r[n:]) for r in rows)


def common_denominator(a: Sequence) -> Tuple[Tuple[int, ...], int]:
    """Integers `num` and the least positive `den` with a == num / den.

    Entries may be ints or Fractions; no Fraction is made.
    """
    den = lcm(*(x.denominator for x in a))
    return tuple(x.numerator * (den // x.denominator) for x in a), den


def integerize(a: Sequence) -> Vector:
    """Scale by a positive rational so entries are coprime integers.

    Entries may be ints or Fractions; the result is a Fraction tuple.
    """
    ints, _ = common_denominator(a)
    g = gcd(*ints) or 1
    return tuple(Q(v // g) for v in ints)
