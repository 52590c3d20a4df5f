"""Independent oracles used by the test suite.

Deliberately self-contained where they can be: the feasibility and matrix
routines re-decide things the package also computes, by different
algorithms, sharing no code with src/.  Keep them dumb and obviously
correct rather than fast.  The matrix helpers let the Weyl tests act with
and multiply an element's exact `.matrix`, which the package only derives,
`reflect` applies the reflection in a root by the textbook formula, and
`simple_coordinates` writes roots over the simple roots by row reduction.

The flag helpers at the end (`Flag`, `rref`, `enumerate_flags`,
`relative_position`, `semistable`, ...) decide one flag at a time what
`gfflag` counts in bulk.  They call the echelon step `_extender` of
`gffield` and the flag walk `_walk` of `gfflag`, and read gfflag's
rank-matrix helpers, caps and cocharacter checks.  They are the only
code that walks flags: `gfflag` counts relative positions by the
cyclic-shift reduction, semistable flags by the Harder-Narasimhan
recursion and Omega by a product formula, with no field arithmetic.
`omega_by_points` tests every projective point against every rational
hyperplane through the field tables.  `dl_tally_by_chains` counts the
points of every X(w) in S_n by one cyclic-shift reduction per element,
the method `gfflag` used before its length-ordered pass over the group,
and `smallest_primitive_by_order` is the primitive-element search that
`gffield` ran before it tested the primes dividing p - 1 on the norm.

`within` runs a call under a time bound, for refusals that must be quick.
"""
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product as iproduct
from math import prod

from dlperiod import DEFAULT_CAP, UsageError, _check_power, _check_size
from dlperiod.conjclass import reduce_to_minimal
from dlperiod.gffield import (
    _digits,
    _extender,
    _poly_rem,
    _prime_factors,
    build_extension,
    prime_power,
    rational_scalars,
)
from dlperiod.gfflag import (
    _check_cap,
    _check_subspace_cap,
    _echelon_bases,
    _one_line,
    _perm_from_ranks,
    _rank_frame,
    _single_nu,
    _symmetric,
    _walk,
    complete_dims,
    flag_count,
    nu_jump_dims,
)
from dlperiod.weyl import WeylElem, compose, coxeter_length, enumerate_group

Q = Fraction


def within(seconds, call):
    """call(), or TimeoutError once it has run for `seconds`."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


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


def simple_coordinates(simples, roots):
    """The coordinates of each root over the simple roots, as Fractions: one
    row reduction of the matrix whose columns are the simples, then the roots."""
    pivots, red = _rref(zip(*simples, *roots))
    k = len(simples)
    if pivots != list(range(k)):
        raise ValueError("simple_coordinates: the simple roots are dependent")
    return [tuple(row[k + j] for row in red) for j in range(len(roots))]


# -- flags over finite fields, one at a time ---------------------------------


def _reduced(fld, state):
    """Canonical reduced row-echelon rows of a state's span: the pairs,
    highest pivot first, each extend the already reduced ones."""
    extend = _extender(fld)
    done = ()
    for _pv, row in sorted(state, reverse=True):
        done = extend(done, row)
    return tuple(tuple(row) for _pv, row in reversed(done))


def rref(fld, rows):
    """Canonical reduced row-echelon rows spanning the same space."""
    extend = _extender(fld)
    state = ()
    for row in rows:
        state = extend(state, row)
    return _reduced(fld, state)


@dataclass(frozen=True)
class Flag:
    """Chain of proper subspaces, each as canonical echelon rows."""

    field: object
    n: int
    dims: tuple
    steps: tuple


def flag_from_chain(fld, n, chain):
    """Build a flag from generating rows per step (cumulative spans).

    Step i of the result spans all rows of chain[0..i]; dims must be
    strictly increasing and proper (< n).
    """
    steps = []
    acc = []
    prev = 0
    for gen_rows in chain:
        for r in gen_rows:
            if len(r) != n:
                raise UsageError(f"row of length {len(r)} in ambient dimension {n}")
            if any(not 0 <= x < fld.size for x in r):
                raise UsageError("row entries outside the field")
        acc.extend(tuple(r) for r in gen_rows)
        step = rref(fld, acc)
        if not len(step) > prev:
            raise UsageError("flag steps must strictly increase in dimension")
        prev = len(step)
        steps.append(step)
    if prev >= n:
        raise UsageError("flag steps must be proper subspaces")
    return Flag(field=fld, n=n, dims=tuple(len(s) for s in steps), steps=tuple(steps))


def frobenius_flag(flag, q):
    frob = flag.field.frob_map(q)
    steps = tuple(
        rref(flag.field, [tuple(frob[x] for x in row) for row in step])
        for step in flag.steps
    )
    return Flag(field=flag.field, n=flag.n, dims=flag.dims, steps=steps)


def _check_dims(n, dims):
    out = tuple(int(d) for d in dims)
    if any(d2 <= d1 for d1, d2 in zip((0,) + out, out)) or (out and out[-1] >= n):
        raise UsageError(f"flag type {out} invalid in dimension {n}")
    return out


def enumerate_flags(fld, n, dims, cap=DEFAULT_CAP):
    """Every flag of the given type exactly once (cap-checked first)."""
    dims_t = _check_dims(n, dims)
    _check_cap(fld, n, dims_t, cap)

    def enter(depth, rows, state, steps):
        return steps + (_reduced(fld, state),)

    return [
        Flag(field=fld, n=n, dims=dims_t, steps=steps)
        for steps in _walk(fld, n, dims_t, enter, ())
    ]


def relative_position(f, g):
    """Relative position (0-based one-line permutation) of complete flags."""
    if f.field != g.field or f.n != g.n:
        raise UsageError("relative position needs flags in the same space")
    full = complete_dims(f.n)
    if f.dims != full or g.dims != full:
        raise UsageError("relative position is defined for complete flags")
    extend = _extender(f.field)
    rank = _rank_frame(f.n)
    f_state = ()
    for i, f_step in enumerate(f.steps, 1):
        for row in f_step:
            f_state = extend(f_state, row)
        state = f_state
        for j, g_step in enumerate(g.steps, 1):
            for row in g_step:
                state = extend(state, row)
            rank[i][j] = len(state)
    return _perm_from_ranks(rank, f.n)


def omega_by_points(n, q, e, cap=DEFAULT_CAP):
    """Projective points over GF(q^e) avoiding all GF(q)-rational hyperplanes.

    Written directly against normalized coordinate vectors — independent
    of the flag machinery and of gfflag's product formula."""
    fld = build_extension(q, e)
    size = fld.size
    template = "projective space over {fld!r} has {size} points"
    _check_power(size, n - 1, cap, template, fld=fld)  # Q^(n-1) of them have x_1 = 1
    _check_size((size**n - 1) // (size - 1), cap, template, fld=fld)
    scal = rational_scalars(fld, q)
    add = fld.add
    rows = {s: tuple([fld.mul(s, x) for x in range(size)]) for s in scal}

    def normalized(pool):
        for lead in range(n):
            for tail in iproduct(pool, repeat=n - 1 - lead):
                yield (0,) * lead + (1,) + tail

    # each hyperplane as (coordinate, product row) over its nonzero entries
    hyperplanes = [[(i, rows[a]) for i, a in enumerate(h) if a] for h in normalized(scal)]
    count = 0
    for pt in normalized(tuple(range(size))):
        for h in hyperplanes:
            acc = 0
            for i, row in h:
                acc = add(acc, row[pt[i]])
            if not acc:
                break
        else:
            count += 1
    return count


@lru_cache(maxsize=None)
def _rational_subspaces(fld, q, n):
    """The states of all proper subspaces of fld^n rational over GF(q)."""
    scal = rational_scalars(fld, q)
    return tuple(st for d in range(1, n) for st in _echelon_bases(scal, range(n), n, d))


def semistable(nu, flag, q):
    """Slope test of a flag against every subspace rational over GF(q).

    `nu` (weakly decreasing, one value per graded line) induces degrees:
    the flag's graded piece i is weighted by the i-th distinct value.  The
    flag is semistable when no rational proper subspace has slope
    exceeding the total slope.
    """
    vnu = _single_nu(nu)
    if len(vnu) != flag.n:
        raise UsageError(f"cocharacter length {len(vnu)} vs ambient {flag.n}")
    if nu_jump_dims(vnu) != flag.dims:
        raise UsageError(
            f"flag type {flag.dims} does not match cocharacter jumps {nu_jump_dims(vnu)}"
        )
    prime_power(q)
    if not flag.dims:
        return True  # the trivial flag
    fld, n, total = flag.field, flag.n, sum(vnu)
    _check_subspace_cap(n, q, DEFAULT_CAP)
    extend = _extender(fld)
    # the graded piece between cuts k-1 and k has weight seg[k], so
    # deg U = seg[-1] dim U + sum_k (seg[k] - seg[k+1]) dim(U ^ V_{dims[k]})
    seg = [vnu[0]] + [vnu[d] for d in flag.dims]
    for u in _rational_subspaces(fld, q, n):
        du, ust = len(u), u
        deg = seg[-1] * du
        for k, (d, step) in enumerate(zip(flag.dims, flag.steps)):
            for row in step:
                ust = extend(ust, row)
            deg += (seg[k] - seg[k + 1]) * (du + d - len(ust))
        if deg * n > total * du:
            return False
    return True


def dl_tally_by_chains(n, q, e):
    """#X(w) over GF(q^e) for every w in S_n, one cyclic-shift reduction
    (``reduce_to_minimal``) per element not yet counted, replayed back from
    its terminal by DL 1976, Thm 1.6; as sorted (one-line form, count)
    pairs with the zero counts left out.  The terminal, of least length in
    its class, is a Coxeter element of the standard Levi whose blocks are
    its minimal stable intervals."""
    size = q**e
    counts = {}  # #X(w) by the root permutation of w

    def count(w):
        if w.perm in counts:
            return counts[w.perm]
        chain = reduce_to_minimal(w)
        tops = accumulate(_one_line(chain.terminal), max)
        cuts = [i for i, top in enumerate(tops, 1) if top < i]
        blocks = [b - a for a, b in zip([0] + cuts, cuts)]
        found = flag_count(n, cuts[:-1], q) * prod(
            size - q**i for m in blocks for i in range(1, m)
        )
        counts[chain.terminal.perm] = found
        for step in reversed(chain.steps):
            x = step.source
            if coxeter_length(step.target) < coxeter_length(x):
                sx = WeylElem(x.rs, compose(x.rs.gen_perms[step.gen], x.perm))
                found = size * found + (size - 1) * count(sx)
            counts[x.perm] = found
        return found

    tally = ((_one_line(w), count(w)) for w in enumerate_group(_symmetric(n)))
    return tuple(sorted((perm, c) for perm, c in tally if c))


def smallest_primitive_by_order(p, k, mod):
    """The least g >= 2 of multiplicative order p^k - 1 in GF(p)[x]/(mod):
    g^(order/r) != 1 for every prime r dividing the order, each tested by
    a power of g, with no norm.  For k >= 2 the constants are
    skipped: their order divides p - 1.  The powers run on packed
    polynomials, coefficient i in bits [w i, w i + w) of one int, with w
    wide enough that no coefficient of a product overflows into the next."""
    order = p**k - 1
    w = (2 * k * (p - 1) ** 2).bit_length()
    digit, low = (1 << w) - 1, (1 << w * k) - 1

    def pack(coeffs):
        return sum(c % p << w * i for i, c in enumerate(coeffs))

    # x^j mod (mod, p) for j = k .. 2k-2 folds a product's high half down
    folds = [pack(_poly_rem((0,) * j + (1,), mod, p)) for j in range(k, 2 * k - 1)]

    def mul(a, b):
        prod = a * b
        out, prod = prod & low, prod >> w * k
        for fold in folds:
            out += (prod & digit) % p * fold
            prod >>= w
        return pack(out >> w * i & digit for i in range(k))

    def power(a, e):
        out = 1
        while e:
            if e & 1:
                out = mul(out, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return out

    cofactors = [order // r for r in _prime_factors(order)]
    for g in range(p if k > 1 else 2, p**k):
        gp = pack(_digits(g, p, k))
        if all(power(gp, c) != 1 for c in cofactors):
            return g
    raise AssertionError(f"GF({p}^{k}) has no primitive element")
