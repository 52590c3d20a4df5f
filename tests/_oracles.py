"""Independent oracles used by the test suite.

Deliberately self-contained: these routines re-decide things the package
also computes, by different algorithms, sharing no code with src/.  Keep
them dumb and obviously correct rather than fast.  The matrix helpers at
the end let the Weyl tests act with and multiply an element's exact
`.matrix`, which the package only derives, and `reflect` applies the
reflection in a root by the textbook formula.
"""
from fractions import Fraction
from itertools import combinations

from dlperiod import UsageError

Q = Fraction


def _rref(rows):
    """Reduced row echelon form; returns (pivot_cols, rows)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, [tuple(row) for row in rows[:r]]


def _rank(rows):
    return len(_rref(rows)[0])


def _nullspace_1d(rows, ncols):
    """A spanning vector when the rows have nullity exactly 1, else None."""
    pivots, red = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    v = [Q(0)] * ncols
    v[f] = Q(1)
    for row, p in zip(red, pivots):
        v[p] = -row[f]
    return tuple(v)


def ray_feasible(rows):
    """Decide whether some x has row . x > 0 for every row, by extreme rays.

    Coordinates are first changed to a basis of the row space, making the
    nonnegativity cone pointed; the cone is then the hull of candidate rays
    obtained from maximal-rank-minus-one row subsets, and a strict point
    exists iff the sum of all candidate rays is one.
    """
    rows = [tuple(Q(x) for x in r) for r in rows]
    if not rows:
        return True
    if any(all(x == 0 for x in r) for r in rows):
        return False  # a zero form can never be strictly positive
    ncols = len(rows[0])
    _, basis = _rref(rows)
    k = len(basis)
    # row i = sum_j coords[i][j] * basis[j]; solve by another elimination
    coords = []
    for r in rows:
        # augmented solve: basis^T * c = r
        aug = [[basis[j][i] for j in range(k)] + [r[i]] for i in range(ncols)]
        pivots, red = _rref(aug)
        assert k not in pivots, "row not in its own row space?"
        c = [Q(0)] * k
        for row, p in zip(red, pivots):
            c[p] = row[k]
        coords.append(tuple(c))
    rays = {}
    for size in range(k):
        for subset in combinations(range(len(coords)), size):
            sub = [coords[i] for i in subset]
            if _rank(sub) != k - 1:
                continue
            v = _nullspace_1d(sub, k)
            if v is None:
                continue
            for cand in (v, tuple(-x for x in v)):
                if all(sum(a * b for a, b in zip(row, cand)) >= 0 for row in coords):
                    rays[cand] = True
    if not rays:
        return False
    total = [sum(col) for col in zip(*rays.keys())]
    return all(sum(a * b for a, b in zip(row, total)) > 0 for row in coords)


def identity(n):
    return tuple(tuple(Q(int(i == j)) for j in range(n)) for i in range(n))


def matvec(m, x):
    return tuple(sum((a * b for a, b in zip(row, x)), Q(0)) for row in m)


def matmul(a, b):
    return tuple(matvec(tuple(zip(*b)), row) for row in a)


def act(w, x):
    """A Weyl element's matrix applied to the point x."""
    xv = tuple(Q(c) for c in x)
    if len(xv) != w.rs.ambient:
        raise UsageError(f"act: point has {len(xv)} coordinates, ambient is {w.rs.ambient}")
    return matvec(w.matrix, xv)


def is_reflection_matrix(w):
    """True when w's matrix squares to the identity and has trace
    ambient - 2, i.e. a fixed space of codimension 1."""
    m, n = w.matrix, w.rs.ambient
    return matmul(m, m) == identity(n) and sum(m[i][i] for i in range(n)) == n - 2


def dot(a, b):
    if len(a) != len(b):
        raise ValueError(f"dot: dimension mismatch {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Q(0))


def reflect(x, alpha):
    """Reflection of x in the hyperplane orthogonal to alpha."""
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("reflect: zero root")
    c = 2 * dot(x, alpha) / aa
    return tuple(a - c * b for a, b in zip(x, alpha))
