"""Finite fields, flags, relative position, and point counts.

Field elements are ints in [0, p^k), encoding polynomial coefficients in
base p (digit i = coefficient of x^i) modulo a canonical irreducible:
the lexicographically smallest monic irreducible of degree k, comparing
coefficient tuples from the highest degree down.  Multiplication runs on
exp/log tables over the smallest primitive element (found by an order
test), addition is XOR in characteristic 2 and otherwise reads one
digit-built table of at most 256 rows (over all digits up to 256 elements,
else chunk by chunk; a larger prime field adds mod p), so the flag loops
below stay integer-only.

Linear algebra has one idiom: an *echelon state*, a tuple of
(pivot, row) pairs in which each row is zero before its pivot, has a 1
there, and is zero at the pivots of the pairs before it.  ``_extender``
gives the one step, extending a state by a row (the state itself when
the row lies in its span); its length is the rank.  ``rref`` and the
canonical flag steps are states back-substituted by the same step.

Flags of a type are walked depth first (``_walk``).  A node at depth k
lifts reduced-echelon rows through the coordinates that are not pivots
of V_{k-1}; the lifted rows already have distinct pivots, so they extend
the state of V_{k-1} to that of V_k without any reduction, and each
flag is produced exactly once.  Every node hands its subtree whatever
state the counter carries, so no leaf reduces its whole flag again.
All walks are cap-guarded before they start and raise CapacityError
naming the predicted count; the tally checks the cap on the complete
flags even though its walk stops one level short of them.

Three counters are exposed:

* ``dl_point_count`` — complete flags whose relative position against
  their q-power Frobenius image is a prescribed permutation.  The walk
  keeps the states of F_i + Frob(F)_j and writes the ranks with
  max(i, j) = k at depth k; a complete flag's permutation is read from the
  second differences of the rank matrix.  The walk stops at V_{n-2}: the
  last level is counted by incidence classes.  The Q + 1 hyperplanes over
  V_{n-2} (Q = q^e) differ in their last ranks only by which of
  Frob^-1 V_i, Frob V_j and their own image they contain, so a few
  special hyperplanes are evaluated one by one and all the others share
  one rank matrix, evaluated once and counted with multiplicity.
* ``omega_point_count`` — projective points avoiding every hyperplane
  rational over the q-element subfield (an independent computation, used
  to cross-identify the distinguished cell of the first counter);
* ``period_point_count`` — flags of a fixed type that are semistable for
  a weakly decreasing integer vector: no rational subspace U has slope
  above the total.  Both caps (flags, then rational subspaces) are checked
  first, so the count refuses what a walk would, although it visits no
  flag: one Harder-Narasimhan recursion over the sub-multisets of the
  weights gives every type in integer arithmetic.  ``semistable`` tests one flag against every rational U and
  is the independent check.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iproduct
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import CapacityError, UsageError

__all__ = [
    "Cochar",
    "Field",
    "Flag",
    "build_extension",
    "complete_dims",
    "coxeter_perm",
    "dl_point_count",
    "dl_point_tally",
    "enumerate_flags",
    "field_build",
    "flag_count",
    "flag_from_chain",
    "frobenius_flag",
    "gaussian_binomial",
    "omega_point_count",
    "perm_from_word",
    "period_point_count",
    "prime_power",
    "rational_scalars",
    "relative_position",
    "rref",
    "semistable",
]

Row = Tuple[int, ...]
State = Tuple[Tuple[int, Sequence[int]], ...]

FIELD_CAP = 2**16
DEFAULT_ENUM_CAP = 10**6


def _prime_factors(m: int) -> List[int]:
    """The distinct primes dividing m, ascending (none for m < 2)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _is_prime(p: int) -> bool:
    return _prime_factors(p) == [p]


def prime_power(q: int) -> Tuple[int, int]:
    """Decompose q = p^m with p prime, or raise UsageError."""
    if q < 2:
        raise UsageError(f"q must be a prime power >= 2, got {q}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise UsageError(f"{q} is not a prime power")
    p, m = factors[0], 1
    while p**m != q:
        m += 1
    return p, m


# ---------------------------------------------------------------------------
# fields


def _digits(e: int, p: int, k: int) -> List[int]:
    """The k base-p digits of e, lowest first (polynomial coefficients)."""
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _number(coeffs: Sequence[int], p: int) -> int:
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    """(a*b) mod (mod, p); polys are coefficient lists low -> high."""
    k = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    # reduce: x^k = -(mod[:k])
    for d in range(len(out) - 1, k - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for j in range(k):
                out[d - k + j] = (out[d - k + j] - c * mod[j]) % p
    return out[:k] + [0] * max(0, k - len(out))


def _poly_pow_mod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> List[int]:
    """a^e mod (mod, p) by square-and-multiply."""
    out = [1] + [0] * (len(mod) - 2)
    base = list(a)
    while e:
        if e & 1:
            out = _poly_mul_mod(out, base, mod, p)
        e >>= 1
        if e:
            base = _poly_mul_mod(base, base, mod, p)
    return out


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
            div = list(tail) + [1]  # monic of degree d
            # remainder of poly / div
            rem = list(poly)
            for top in range(len(rem) - 1, d - 1, -1):
                c = rem[top]
                if c:
                    rem[top] = 0
                    for j in range(d):
                        rem[top - d + j] = (rem[top - d + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


def _canonical_modulus(p: int, k: int) -> Tuple[int, ...]:
    """Lex-smallest monic irreducible of degree k over GF(p), comparing
    coefficients from degree k-1 down to the constant term."""
    for high_first in iproduct(range(p), repeat=k):
        poly = list(reversed(high_first)) + [1]  # low -> high
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


def _smallest_primitive(p: int, k: int, mod: Sequence[int]) -> int:
    """The least g >= 2 of multiplicative order p^k - 1: g^(order/r) != 1
    for every prime r dividing the order."""
    order = p**k - 1
    one = [1] + [0] * (k - 1)
    cofactors = [order // r for r in _prime_factors(order)]
    for g in range(2, p**k):
        gp = _digits(g, p, k)
        if all(_poly_pow_mod(gp, c, mod, p) != one for c in cofactors):
            return g
    raise AssertionError(f"GF({p}^{k}) has no primitive element")  # pragma: no cover


def _digit_sums(p: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """The addition table of d-digit base-p numbers, digit-wise mod p,
    built one digit at a time."""
    digit = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
    tbl = digit
    for _ in range(d - 1):
        tbl = tuple(
            tuple(h * p + s for h in tbl[a // p] for s in digit[a % p])
            for a in range(len(tbl) * p)
        )
    return tbl


class Field:
    """GF(p^k) with integer-encoded elements and table arithmetic."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.size = p**k
        self.modulus = _canonical_modulus(p, k)

        # addition is digit-wise mod p, read from one digit-built table of at
        # most 256 rows: over all digits up to 256 elements, else chunk by
        # chunk, in chunks as even as their number allows (GF(37^3): three
        # through 37 rows); FIELD_CAP leaves only prime fields with p > 256
        self._sums: Optional[Tuple[Tuple[int, ...], ...]] = None
        if p == 2:
            self.add = lambda a, b: a ^ b
            self.neg = lambda a: a
        else:
            negs: Tuple[int, ...] = (0,)
            for _ in range(k):
                negs = tuple(h * p + (-d) % p for h in negs for d in range(p))
            self.neg = lambda a, _n=negs: _n[a]
            if p > 256:
                self.add = lambda a, b: (a + b) % p
            else:
                chunks = -(-k // max(d for d in range(1, k + 1) if p**d <= 256))
                d = -(-k // chunks)
                h, tbl = p**d, _digit_sums(p, d)
                add = lambda a, b: tbl[a][b]
                for _ in range(chunks - 1):  # the lowest chunk, then the rest
                    add = lambda a, b, rest=add: tbl[a % h][b % h] + h * rest(a // h, b // h)
                self.add = add
                if chunks == 1:
                    self._sums = tbl

        # multiplication via a discrete log on the smallest primitive element g;
        # the walk adds g*(low digits) and g*(high digits), both tabulated
        exp = [1]
        if self.size > 2:
            gp = _digits(_smallest_primitive(p, k, self.modulus), p, k)

            def times_g(a: int) -> int:
                return _number(_poly_mul_mod(_digits(a, p, k), gp, self.modulus, p), p)

            half = p ** (k // 2)
            low = [times_g(a) for a in range(half)]
            high = [times_g(a * half) for a in range(self.size // half)]
            cur, add = 1, self.add
            for _ in range(self.size - 2):
                cur = add(low[cur % half], high[cur // half])
                exp.append(cur)
        self.exp: Tuple[int, ...] = tuple(exp)
        log = [-1] * self.size
        for i, v in enumerate(exp):
            log[v] = i
        self.log: Tuple[int, ...] = tuple(log)
        if any(v < 0 for v in log[1:]):  # pragma: no cover
            raise AssertionError(f"GF({p}^{k}): exp table does not cover all units")

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.size - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of 0")
        return self.exp[(self.size - 1 - self.log[a]) % (self.size - 1)]

    def frob_map(self, q: int) -> Tuple[int, ...]:
        """The table of x -> x^q; q must be a subfield order p^m, m | k."""
        return _frob_table(self, q)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def _frob_table(fld: Field, q: int) -> Tuple[int, ...]:
    p, m = prime_power(q)
    if p != fld.p or fld.k % m != 0:
        raise UsageError(f"GF({q}) is not a subfield of GF({fld.p}^{fld.k})")
    order = fld.size - 1
    table = [0] * fld.size
    for a in range(1, fld.size):
        table[a] = fld.exp[(fld.log[a] * q) % order]
    return tuple(table)


@lru_cache(maxsize=None)
def field_build(p: int, k: int) -> Field:
    """The canonical GF(p^k); capped at p^k <= 2^16."""
    if not _is_prime(p):
        raise UsageError(f"field characteristic must be prime, got {p}")
    if k < 1:
        raise UsageError(f"field degree must be >= 1, got {k}")
    if p**k > FIELD_CAP:
        raise CapacityError(f"field size {p}^{k} = {p**k} exceeds cap {FIELD_CAP}")
    return Field(p, k)


def build_extension(q: int, e: int) -> Field:
    """GF(q^e) for a prime power q."""
    p, m = prime_power(q)
    if e < 1:
        raise UsageError(f"extension degree must be >= 1, got {e}")
    return field_build(p, m * e)


@lru_cache(maxsize=None)
def rational_scalars(fld: Field, q: int) -> Tuple[int, ...]:
    """Elements of the q-element subfield (fixed points of x -> x^q)."""
    frob = fld.frob_map(q)
    out = tuple(a for a in range(fld.size) if frob[a] == a)
    if len(out) != q:  # pragma: no cover
        raise AssertionError(f"subfield of order {q} has {len(out)} elements")
    return out


# ---------------------------------------------------------------------------
# echelon states


@lru_cache(maxsize=None)
def _extender(fld: Field) -> Callable[[State, Sequence[int]], State]:
    """The echelon-extension step over fld.

    ``extend(state, row)`` reduces row against the state's pairs in order;
    if something is left, it returns the state plus (first nonzero column,
    remainder scaled to 1 there), otherwise the state itself.  Products
    read a doubled exp table, and a zero factor reads its zero tail.
    """
    order = fld.size - 1
    log = fld.log
    ext = fld.exp * 2 + (0,) * order
    logz = (2 * order,) + log[1:]
    if fld.p == 2:

        def sub(v, c, b):  # v - c*b
            lc = log[c]
            return [x ^ ext[lc + logz[y]] for x, y in zip(v, b)]

    else:
        nlog = tuple(log[fld.neg(c)] for c in range(fld.size))  # log of -c
        sums, add = fld._sums, fld.add
        if sums is not None:

            def sub(v, c, b):
                lc = nlog[c]
                return [sums[x][ext[lc + logz[y]]] for x, y in zip(v, b)]

        else:

            def sub(v, c, b):
                lc = nlog[c]
                return [add(x, ext[lc + logz[y]]) for x, y in zip(v, b)]

    def extend(state: State, row: Sequence[int]) -> State:
        if len(state) == len(row):  # the whole space
            return state
        for pv, b in state:
            c = row[pv]
            if c:
                row = sub(row, c, b)
        for pv, c in enumerate(row):
            if c:
                if c != 1:
                    li = order - log[c]
                    row = [ext[li + logz[x]] for x in row]
                return state + ((pv, row),)
        return state

    return extend


def _reduced(fld: Field, state: State) -> Tuple[Row, ...]:
    """Canonical reduced row-echelon rows of a state's span: the pairs,
    highest pivot first, each extend the already reduced ones."""
    extend = _extender(fld)
    done: State = ()
    for _pv, row in sorted(state, reverse=True):
        done = extend(done, row)
    return tuple(tuple(row) for _pv, row in reversed(done))


def rref(fld: Field, rows: Iterable[Row]) -> Tuple[Row, ...]:
    """Canonical reduced row-echelon rows spanning the same space."""
    extend = _extender(fld)
    state: State = ()
    for row in rows:
        state = extend(state, row)
    return _reduced(fld, state)


# ---------------------------------------------------------------------------
# flags


def complete_dims(n: int) -> Tuple[int, ...]:
    return tuple(range(1, n))


@dataclass(frozen=True)
class Flag:
    """Chain of proper subspaces, each as canonical echelon rows."""

    field: Field
    n: int
    dims: Tuple[int, ...]
    steps: Tuple[Tuple[Row, ...], ...]


def flag_from_chain(fld: Field, n: int, chain: Sequence[Sequence[Row]]) -> Flag:
    """Build a flag from generating rows per step (cumulative spans).

    Step i of the result spans all rows of chain[0..i]; dims must be
    strictly increasing and proper (< n).
    """
    steps: List[Tuple[Row, ...]] = []
    acc: List[Row] = []
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


def frobenius_flag(flag: Flag, q: int) -> Flag:
    frob = flag.field.frob_map(q)
    steps = tuple(
        rref(flag.field, [tuple(frob[x] for x in row) for row in step])
        for step in flag.steps
    )
    return Flag(field=flag.field, n=flag.n, dims=flag.dims, steps=steps)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def flag_count(n: int, dims: Sequence[int], qsize: int) -> int:
    """Number of flags of the given type over a field with qsize elements."""
    total = 1
    prev = 0
    for d in dims:
        total *= gaussian_binomial(n - prev, d - prev, qsize)
        prev = d
    return total


def _check_dims(n: int, dims: Sequence[int]) -> Tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if any(d2 <= d1 for d1, d2 in zip((0,) + out, out)) or (out and out[-1] >= n):
        raise UsageError(f"flag type {out} invalid in dimension {n}")
    return out


def _echelon_bases(
    pool: Sequence[int], cols: Sequence[int], n: int, s: int
) -> Iterator[State]:
    """Every s-dimensional subspace of the coordinates `cols` of an n-space,
    with entries in `pool`, as the state of its reduced-echelon rows, in a
    fixed deterministic order."""
    k = len(cols)
    for pivs in combinations(range(k), s):
        free_pos = [
            [c for c in range(pivs[i] + 1, k) if c not in pivs] for i in range(s)
        ]
        slots = [(i, cols[c]) for i in range(s) for c in free_pos[i]]
        for vals in iproduct(pool, repeat=len(slots)):
            rows = [[0] * n for _ in range(s)]
            for i in range(s):
                rows[i][cols[pivs[i]]] = 1
            for (i, c), v in zip(slots, vals):
                rows[i][c] = v
            yield tuple((cols[pivs[i]], tuple(rows[i])) for i in range(s))


def _check_cap(fld: Field, n: int, dims: Tuple[int, ...], cap: int) -> None:
    total = flag_count(n, dims, fld.size)
    if total > cap:
        raise CapacityError(
            f"flag family of type {dims} in dimension {n} over {fld!r} "
            f"has {total} members, exceeding cap {cap}"
        )


def _walk(fld: Field, n: int, dims: Tuple[int, ...], cap: int, enter, root) -> Iterator:
    """Depth first over every flag of type dims (cap-checked first).

    At depth k the node's new rows, lifted through the non-pivot
    coordinates of V_{k-1}, extend its state to that of V_{dims[k]};
    ``enter(k, rows, state, ctx)`` turns the parent's context into the
    node's, which its whole subtree shares.  Yields the leaves' contexts.
    """
    _check_cap(fld, n, dims, cap)
    if not dims:
        yield root
        return
    pool = tuple(range(fld.size))
    last = len(dims) - 1

    def rec(depth: int, state: State, ctx) -> Iterator:
        taken = {pv for pv, _row in state}
        free = [c for c in range(n) if c not in taken]
        for new in _echelon_bases(pool, free, n, dims[depth] - len(state)):
            grown = state + new
            child = enter(depth, [row for _pv, row in new], grown, ctx)
            if depth == last:
                yield child
            else:
                yield from rec(depth + 1, grown, child)

    yield from rec(0, (), root)


def enumerate_flags(
    fld: Field, n: int, dims: Sequence[int], cap: int = DEFAULT_ENUM_CAP
) -> List[Flag]:
    """Every flag of the given type exactly once (cap-guarded)."""
    dims_t = _check_dims(n, dims)

    def enter(depth, rows, state, steps):
        return steps + (_reduced(fld, state),)

    return [
        Flag(field=fld, n=n, dims=dims_t, steps=steps)
        for steps in _walk(fld, n, dims_t, cap, enter, ())
    ]


# ---------------------------------------------------------------------------
# relative position


def perm_from_word(n: int, word: Union[str, Sequence[Union[int, str]]]) -> Tuple[int, ...]:
    """One-line form (0-based images) of a product of adjacent swaps.

    Tokens are ``s1 .. s{n-1}`` (or bare 1-based integers); the rightmost
    letter acts first, matching the word convention elsewhere.
    """
    toks = word.split() if isinstance(word, str) else list(word)
    idx: List[int] = []
    for t in toks:
        if isinstance(t, int):
            v = t
        else:
            tt = str(t)
            if tt.startswith("s") and tt[1:].isdigit():
                v = int(tt[1:])
            elif tt.isdigit():
                v = int(tt)
            else:
                raise UsageError(f"unknown permutation token {t!r}")
        if not 1 <= v <= n - 1:
            raise UsageError(f"swap s{v} out of range for n={n}")
        idx.append(v)
    out = []
    for j in range(n):
        img = j
        for v in reversed(idx):
            if img == v - 1:
                img = v
            elif img == v:
                img = v - 1
        out.append(img)
    return tuple(out)


def coxeter_perm(n: int) -> Tuple[int, ...]:
    """One-line form of s1 s2 ... s{n-1}: (1, 2, ..., n-1, 0)."""
    return perm_from_word(n, [i for i in range(1, n)])


def _normalize_perm(n: int, w: Union[str, Sequence[int]]) -> Tuple[int, ...]:
    if isinstance(w, str):
        return perm_from_word(n, w)
    out = tuple(int(x) for x in w)
    if sorted(out) != list(range(n)):
        raise UsageError(f"{w!r} is not a 0-based permutation of range({n})")
    return out


def _rank_frame(n: int) -> List[List[int]]:
    """A matrix for rank(F_i + G_j), 0 <= i, j <= n, with its border filled:
    max(i, j) when i or j is 0 or n."""
    return [
        [max(i, j) if min(i, j) == 0 or max(i, j) == n else 0 for j in range(n + 1)]
        for i in range(n + 1)
    ]


def _perm_from_ranks(rank: Sequence[Sequence[int]], n: int) -> Tuple[int, ...]:
    """Relative position of two complete flags from rank(F_i + G_j).

    The second difference of dim(F_i ^ G_j) = i + j - rank is a
    permutation matrix; w(j) = i at the unique unit of column j.
    """
    w = [-1] * n
    for i in range(1, n + 1):
        above, here = rank[i - 1], rank[i]
        for j in range(1, n + 1):
            d = above[j] + here[j - 1] - here[j] - above[j - 1]
            if d == 1:
                if w[j - 1] >= 0:  # pragma: no cover
                    raise AssertionError("relative position: non-permutation matrix")
                w[j - 1] = i - 1
            elif d != 0:  # pragma: no cover
                raise AssertionError("relative position: bad second difference")
    if -1 in w:  # pragma: no cover
        raise AssertionError("relative position: empty column")
    return tuple(w)


def relative_position(f: Flag, g: Flag) -> Tuple[int, ...]:
    """Relative position (0-based one-line permutation) of complete flags."""
    if f.field != g.field or f.n != g.n:
        raise UsageError("relative position needs flags in the same space")
    full = complete_dims(f.n)
    if f.dims != full or g.dims != full:
        raise UsageError("relative position is defined for complete flags")
    extend = _extender(f.field)
    rank = _rank_frame(f.n)
    f_state: State = ()
    for i, f_step in enumerate(f.steps, 1):
        for row in f_step:
            f_state = extend(f_state, row)
        state = f_state
        for j, g_step in enumerate(g.steps, 1):
            for row in g_step:
                state = extend(state, row)
            rank[i][j] = len(state)
    return _perm_from_ranks(rank, f.n)


# ---------------------------------------------------------------------------
# point counts


def _tally_key(n: int, q: int, e: int) -> Tuple[int, int, int]:
    if n < 2:
        raise UsageError(f"ambient dimension must be >= 2, got {n}")
    prime_power(q)
    if e < 1:
        raise UsageError(f"e must be >= 1, got {e}")
    return n, q, e


@lru_cache(maxsize=16)
def _dl_tally_cached(n: int, q: int, e: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    fld = build_extension(q, e)
    dims = complete_dims(n)
    size = fld.size
    frob = fld.frob_map(q)
    unfrob = [0] * size
    for a, b in enumerate(frob):
        unfrob[b] = a
    rational = rational_scalars(fld, q)
    extend = _extender(fld)
    rank = _rank_frame(n)  # rank(F_i + G_j), G = Frob(F); depth k writes max(i, j) = k

    def enter(depth, rows, state, ctx):
        # ctx: the states of F_i + G_{k-1} for i < k, the images of b_1..b_{k-1},
        # and the state of V_{k-1}
        sums, images, _parent = ctx
        k = depth + 1
        image = [frob[x] for x in rows[0]]
        images = images + (image,)
        nxt = []
        for i, st in enumerate(sums):
            st = extend(st, image)
            rank[i][k] = len(st)
            nxt.append(st)
        st = state
        for j, image_j in enumerate(images, 1):
            st = extend(st, image_j)
            rank[k][j] = len(st)
        if k == n - 1:
            return _perm_from_ranks(rank, n)
        nxt.append(st)
        return nxt, images, state

    # The hyperplanes H over V_{n-2} are the points of the line V / V_{n-2}:
    # x < size stands for the row with 1 at c1 and x at c2, size for the row
    # with 1 at c2 (c1 < c2 the non-pivot coordinates).  The new ranks are
    # incidences: rank(V_i + Frob H) = n-1 iff Frob^-1 V_i lies in H,
    # rank(H + G_j) = n-1 iff G_j lies in H, rank(H + Frob H) = n-1 iff H is
    # rational.  Each holds for every H, for none, or for one H (the sum
    # with V_{n-2} when that is a hyperplane), and a rational H lies over a
    # rational V_{n-2} or equals V_{n-2} + G_{n-2}.  So the H outside the
    # special set below share one rank matrix, evaluated once.  The walk is
    # suspended at each V_{n-2} it yields, so rank holds that node's entries.
    counts: Counter = Counter()
    # the caller checked the cap on the complete flags; the walk visits fewer
    walk_cap = flag_count(n, dims, size)
    for ctx in _walk(fld, n, dims[:-1], walk_cap, enter, ([()], (), ())):
        base = ctx[2]
        taken = {pv for pv, _row in base}
        c1, c2 = [c for c in range(n) if c not in taken]
        if rank[n - 2][n - 2] == n - 2:
            # V_{n-2} is rational, so it holds every Frob^-1 V_i and G_j
            special = set(rational)
            special.add(size)
        else:
            special = set()
            preimages = ([unfrob[x] for x in row] for _pv, row in base)
            for chain in (preimages, ctx[1]):
                st = base
                for row in chain:
                    st = extend(st, row)
                    if len(st) > n - 2:
                        row = st[-1][1]
                        special.add(row[c2] if row[c1] else size)
                        break

        def leaf(x):
            row = [0] * n
            row[c1], row[c2] = (1, x) if x < size else (0, 1)
            return enter(n - 2, [row], base + ((c1 if row[c1] else c2, row),), ctx)

        for x in special:
            counts[leaf(x)] += 1
        generic = size + 1 - len(special)
        if generic:
            counts[leaf(next(x for x in range(size + 1) if x not in special))] += generic
    return tuple(sorted(counts.items()))


def dl_point_tally(n: int, q: int, e: int, cap: int = DEFAULT_ENUM_CAP) -> Dict[Tuple[int, ...], int]:
    """Count complete flags by relative position with their q-Frobenius image.

    Keys are 0-based one-line permutations; values sum to the number of
    complete flags over GF(q^e).  The cap is checked before the cached
    call, so the cache holds one entry per (n, q, e) whatever the cap."""
    n, q, e = _tally_key(n, q, e)
    _check_cap(build_extension(q, e), n, complete_dims(n), cap)
    return dict(_dl_tally_cached(n, q, e))


def dl_point_count(
    n: int, q: int, e: int, w: Union[str, Sequence[int]], cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Number of complete flags at relative position w from their image."""
    n, q, e = _tally_key(n, q, e)
    perm = _normalize_perm(n, w)
    return dl_point_tally(n, q, e, cap).get(perm, 0)


def omega_point_count(n: int, q: int, e: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Projective points over GF(q^e) avoiding all GF(q)-rational hyperplanes.

    Written directly against normalized coordinate vectors — independent
    of the flag machinery above."""
    n, q, e = _tally_key(n, q, e)
    fld = build_extension(q, e)
    size = fld.size
    npoints = (size**n - 1) // (size - 1)
    if npoints > cap:
        raise CapacityError(
            f"projective space over {fld!r} has {npoints} points, exceeding cap {cap}"
        )
    scal = rational_scalars(fld, q)
    mul, add = fld.mul, fld.add

    def normalized(pool: Sequence[int]) -> Iterator[Row]:
        for lead in range(n):
            for tail in iproduct(pool, repeat=n - 1 - lead):
                yield (0,) * lead + (1,) + tail

    hyperplanes = list(normalized(scal))
    count = 0
    for pt in normalized(tuple(range(size))):
        good = True
        for h in hyperplanes:
            acc = 0
            for a, b in zip(h, pt):
                if a and b:
                    acc = add(acc, mul(a, b))
            if acc == 0:
                good = False
                break
        if good:
            count += 1
    return count


# ---------------------------------------------------------------------------
# semistability


@dataclass(frozen=True)
class Cochar:
    """Tuple of weakly decreasing integer vectors, one per group factor."""

    nu: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if not self.nu:
            raise UsageError("empty cocharacter")
        lens = {len(v) for v in self.nu}
        if len(lens) != 1:
            raise UsageError(f"cocharacter factors of unequal lengths {sorted(lens)}")
        for v in self.nu:
            if not v:
                raise UsageError("empty cocharacter factor")
            if any(int(a) != a for a in v):
                raise UsageError("cocharacter entries must be integers")
            if any(a < b for a, b in zip(v, v[1:])):
                raise UsageError(f"cocharacter factor {v} is not weakly decreasing")

    @property
    def t(self) -> int:
        return len(self.nu)

    @property
    def n(self) -> int:
        return len(self.nu[0])


def cochar(*vectors) -> Cochar:
    """Cochar from vectors: cochar((1,0,0)) or cochar((1,0),(2,2))."""
    if len(vectors) == 1 and vectors[0] and isinstance(vectors[0][0], (tuple, list)):
        vectors = tuple(vectors[0])
    return Cochar(nu=tuple(tuple(int(a) for a in v) for v in vectors))


def _single_nu(nu) -> Tuple[int, ...]:
    if isinstance(nu, Cochar):
        if nu.t != 1:
            raise UsageError("this operation takes a single-factor cocharacter")
        return nu.nu[0]
    return cochar(tuple(nu)).nu[0]


def nu_jump_dims(nu: Sequence[int]) -> Tuple[int, ...]:
    """Positions where the weakly decreasing vector strictly drops."""
    return tuple(i + 1 for i in range(len(nu) - 1) if nu[i] > nu[i + 1])


def _check_subspace_cap(n: int, q: int, cap: int) -> None:
    count = sum(gaussian_binomial(n, d, q) for d in range(1, n))
    if count > cap:
        raise CapacityError(
            f"GF({q})^{n} has {count} rational proper subspaces, exceeding cap {cap}"
        )


@lru_cache(maxsize=None)
def _rational_subspaces(fld: Field, q: int, n: int) -> Tuple[State, ...]:
    """The states of all proper subspaces of fld^n rational over GF(q)."""
    scal = rational_scalars(fld, q)
    return tuple(st for d in range(1, n) for st in _echelon_bases(scal, range(n), n, d))


def semistable(nu, flag: Flag, q: int) -> bool:
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
    _check_subspace_cap(n, q, DEFAULT_ENUM_CAP)
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


def period_point_count(nu, q: int, e: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of semistable flags of nu's type over GF(q^e), by the
    Harder-Narasimhan recursion (Rapoport 1997; Orlik 2000).

    Every flag has a unique HN filtration by rational subspaces whose
    graded pieces, with the weights the flag induces on them, are
    semistable and have strictly decreasing mean weights.  So the flags of
    nu's type split by HN type, an ordered split of the multiset nu into
    pieces nu^(1), ..., nu^(r) with strictly decreasing means, and a type
    has prod_i [rest_i; n_i]_q #F(nu^(i))^ss Q^c flags: the rational
    filtration, the semistable flag on each piece, and an affine space of
    extensions, c counting the pairs (x in nu^(j), y in nu^(i)), i < j,
    with x > y.  The semistable flags are all flags minus the types with
    r >= 2.  Both caps are checked first, although no flag is visited.
    """
    vnu = _single_nu(nu)
    prime_power(q)
    if e < 1:
        raise UsageError(f"e must be >= 1, got {e}")
    fld = build_extension(q, e)
    n = len(vnu)
    dims = nu_jump_dims(vnu)
    if not dims:
        return 1  # the trivial flag, vacuously semistable
    _check_cap(fld, n, dims, cap)
    _check_subspace_cap(n, q, cap)
    # a piece is its multiplicities over the distinct values, highest first
    values = sorted(set(vnu), reverse=True)
    memo: Dict[Tuple, int] = {}

    def count(m: Tuple[int, ...], bound: Optional[Tuple[int, int]]) -> int:
        """Flags on a rational space carrying the weights m whose HN pieces
        have means below bound = (weight sum, dimension); for bound None,
        the semistable flags."""
        if not any(m):
            return 1
        key = (m, bound)
        if key not in memo:
            k = sum(m)
            split = 0
            for p in iproduct(*(range(c + 1) for c in m)):
                kp, sp = sum(p), sum(v * c for v, c in zip(values, p))
                if not kp or (p == m if bound is None else sp * bound[1] >= bound[0] * kp):
                    continue
                rest = tuple(c - d for c, d in zip(m, p))
                # pairs of a weight in rest above a weight in p
                crossings = sum(r * sum(p[i + 1:]) for i, r in enumerate(rest))
                split += (
                    gaussian_binomial(k, kp, q) * count(p, None)
                    * fld.size**crossings * count(rest, (sp, kp))
                )
            if bound is None:
                weights = [v for v, c in zip(values, m) for _ in range(c)]
                split = flag_count(k, nu_jump_dims(weights), fld.size) - split
            memo[key] = split
        return memo[key]

    return count(tuple(vnu.count(v) for v in values), None)
