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
from typing import Callable, Iterable, Optional, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = Tuple[Vector, ...]

ZERO = Q(0)
ONE = Q(1)


def vec(xs: Iterable) -> Vector:
    return tuple(Q(x) for x in xs)


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit_vec(n, i) for i in range(n))


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


def matvec(m: Matrix, x: Vector) -> Vector:
    return tuple(dot(row, x) for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def span_solver(basis: Sequence[Vector]) -> Callable[[Vector], Optional[Vector]]:
    """Exact coordinates-in-span solver for a fixed independent `basis`.

    Row-reduces [columns(basis) | I] once and returns a closure that maps each
    target to its coordinates (or None when the target leaves the span) with a
    single matrix-vector product, so one reduction serves every target (e.g.
    all columns of an inverse).  Raises ValueError if the basis is dependent
    (callers rely on coordinate uniqueness).
    """
    k = len(basis)
    if k == 0:
        return lambda target: None if any(target) else ()
    n = len(basis[0])
    rows = [
        [basis[j][i] for j in range(k)]
        + [ONE if t == i else ZERO for t in range(n)]
        for i in range(n)
    ]
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pr is None:
            raise ValueError("span_solver: basis vectors are not independent")
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    # rows 0..k-1 now read off coordinates; rows k.. must annihilate the target
    reducer = tuple(tuple(row[k:]) for row in rows)

    def solve(target: Vector) -> Optional[Vector]:
        if len(target) != n:
            raise ValueError(f"span_solver: expected dimension {n}, got {len(target)}")
        image = [dot(row, target) for row in reducer]
        if any(image[k:]):
            return None
        return tuple(image[:k])

    return solve


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
