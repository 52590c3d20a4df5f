"""Finite fields GF(p^k) and the echelon step over them.

Field elements are ints in [0, p^k), encoding polynomial coefficients in
base p (digit i = coefficient of x^i) modulo a canonical irreducible:
the lexicographically smallest monic irreducible of degree k, comparing
coefficient tuples from the highest degree down.  Candidates with a root
in GF(p) are dropped at once, the rest are divided only by the monic
irreducibles of degree 2..k/2 (tabulated once per degree).  Multiplication
runs on exp/log tables over the smallest primitive element (found by an
order test, whose primes dividing p - 1 are tested on the norm down to
GF(p); for k >= 2 the constants, whose order divides p - 1, are
skipped).  The exp walk adds g*(low digits) and g*(high digits) from two
tables built by additivity.  Addition is XOR in characteristic 2 and
otherwise reads one digit-built table of at most 256 rows (over all digits
up to 256 elements, else chunk by chunk; a larger prime field adds mod p),
each row a block rotation of a row built from the digits below and held
as `bytes` (entries are below 256), so the echelon steps of the
flag-at-a-time oracles in the test suite stay integer-only and the
garbage collector has no int tuples to scan.  A field stores only exp,
log and add: negation is a log shift by (Q - 1)/2, since -1 =
g^((Q-1)/2) for odd p (and -a = a for p = 2).  Every field writes exp
and log with one shared int object per value, so no two fields hold the
same number twice.

The rules of a field (a prime p, a degree k >= 1, p^k <= 2^16) are
checked once per (p, k) by ``_field_order``.  ``field_build`` runs it
before it builds a field; ``_extension_order`` runs it for the counts of
:mod:`dlperiod.gfflag`, which read only the order of GF(q^e) and its
name and build no field.

Linear algebra has one idiom: an *echelon state*, a tuple of
(pivot, row) pairs in which each row is zero before its pivot, has a 1
there, and is zero at the pivots of the pairs before it.  ``_extender``
gives the one step, extending a state by a row (the state itself when
the row lies in its span); its length is the rank.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product as iproduct
from operator import xor
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from . import UsageError, _check_size

__all__ = [
    "Field",
    "build_extension",
    "field_build",
    "prime_power",
    "rational_scalars",
]

State = Tuple[Tuple[int, Sequence[int]], ...]

FIELD_CAP = 2**16

# One int object per field value, shared by every field: exp and log are
# written with these, so the tables copied from them point here too.
# Grown to the largest field built so far, by field_build's cap at most
# FIELD_CAP entries.
_VALUES: List[int] = []


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
    """Decompose an int q = p^m with p prime, or raise UsageError."""
    if type(q) is not int or q < 2:
        raise UsageError(f"q must be a prime power >= 2, got {q!r}")
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


def _poly_rem(poly: Sequence[int], div: Sequence[int], p: int) -> List[int]:
    """The remainder of poly by the monic div over GF(p), low -> high."""
    d = len(div) - 1
    rem = list(poly)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for j in range(d):
                rem[top - d + j] = (rem[top - d + j] - c * div[j]) % p
    return rem[:d]


def _monics(p: int, d: int) -> Iterator[Tuple[int, ...]]:
    """Monic polynomials of degree d, lex order from degree d-1 down."""
    for high_first in iproduct(range(p), repeat=d):
        yield high_first[::-1] + (1,)


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """No root in GF(p), and no monic irreducible factor of degree 2..deg//2."""
    deg = len(poly) - 1
    for r in range(p if deg > 1 else 0):
        v = 0
        for c in reversed(poly):
            v = (v * r + c) % p
        if not v:
            return False
    return not any(
        not any(_poly_rem(poly, div, p))
        for d in range(2, deg // 2 + 1)
        for div in _irreducibles(p, d)
    )


@lru_cache(maxsize=None)
def _irreducibles(p: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """The monic irreducibles of degree d over GF(p), the trial divisors."""
    return tuple(poly for poly in _monics(p, d) if _poly_is_irreducible(poly, p))


def _canonical_modulus(p: int, k: int) -> Tuple[int, ...]:
    """Lex-smallest monic irreducible of degree k over GF(p), comparing
    coefficients from degree k-1 down to the constant term."""
    for poly in _monics(p, k):
        if _poly_is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


def _norm(mod: Sequence[int], g: Sequence[int], p: int) -> int:
    """N(g) in GF(p) for a nonzero g of GF(p)[x]/(mod), mod monic and
    irreducible: the product of g over the roots of mod, Res(mod, g), by
    Euclid's algorithm.  With r = a mod b, Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r), and Res(a, c) = c^(deg a) for a
    constant c; mod and g are coprime, so the remainders end at a nonzero
    constant."""
    a, b, out = list(mod), list(g), 1
    while not b[-1]:
        b.pop()
    while len(b) > 1:
        lead = b[-1]
        r = _poly_rem(a, [x * pow(lead, -1, p) % p for x in b], p)
        while not r[-1]:
            r.pop()
        if (len(a) - 1) * (len(b) - 1) % 2:
            out = -out
        out = out * pow(lead, len(a) - len(r), p) % p
        a, b = b, r
    return out * pow(b[0], len(a) - 1, p) % p


def _smallest_primitive(p: int, k: int, mod: Sequence[int]) -> int:
    """The least g >= 2 of multiplicative order p^k - 1: g^(order/r) != 1
    for every prime r dividing the order.  For k >= 2 the constants are
    skipped: their order divides p - 1.  When r divides p - 1, g^(order/r)
    is N(g)^((p-1)/r), N(g) = g^(order/(p-1)) the norm down to GF(p), so
    those primes are tested on the norm, a resultant over GF(p); for odd p
    this rejects the squares, half the candidates, before any power of g
    is taken.  The other powers run on packed polynomials, coefficient i
    in bits [w i, w i + w) of one int, with w wide enough that no
    coefficient of a product overflows into the next."""
    order = p**k - 1
    w = (2 * k * (p - 1) ** 2).bit_length()
    digit, low = (1 << w) - 1, (1 << w * k) - 1

    def pack(coeffs: Iterable[int]) -> int:
        return sum(c % p << w * i for i, c in enumerate(coeffs))

    # x^j mod (mod, p) for j = k .. 2k-2 folds a product's high half down
    folds = [pack(_poly_rem((0,) * j + (1,), mod, p)) for j in range(k, 2 * k - 1)]
    ones = pack([1] * k)

    def mul(a: int, b: int) -> int:
        prod = a * b
        out, prod = prod & low, prod >> w * k
        for fold in folds:
            out += (prod & digit) % p * fold
            prod >>= w
        if p == 2:  # a coefficient's residue is its low bit
            return out & ones
        return pack(out >> w * i & digit for i in range(k))

    def power(a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = mul(out, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return out

    primes = _prime_factors(order)
    on_norm = [(p - 1) // r for r in primes if (p - 1) % r == 0]
    cofactors = [order // r for r in primes if (p - 1) % r]
    for g in range(p if k > 1 else 2, p**k):
        coeffs = _digits(g, p, k)
        if on_norm:
            norm = _norm(mod, coeffs, p)
            if any(pow(norm, c, p) == 1 for c in on_norm):
                continue
        gp = pack(coeffs)
        if all(power(gp, c) != 1 for c in cofactors):
            return g
    raise AssertionError(f"GF({p}^{k}) has no primitive element")  # pragma: no cover


@lru_cache(maxsize=None)
def _digit_sums(p: int, d: int) -> Tuple[bytes, ...]:
    """The addition table of d-digit base-p numbers, digit-wise mod p, built
    one top digit at a time: row a + t p^i is row a, whose blocks add
    0, 1, .., p-1 to digit i, rotated by t blocks.  Rows are bytes, since
    p^d <= 256: the collector never scans them."""
    tbl: Tuple[bytes, ...] = (b"\0",)
    for i in range(d):
        h = p**i
        base = [bytes(x + t * h for t in range(p) for x in row) for row in tbl]
        tbl = tuple(row[s:] + row[:s] for s in range(0, h * p, h) for row in base)
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
        if p == 2:
            self.add = xor
        elif p > 256:
            self.add = lambda a, b: (a + b) % p
        else:
            chunks = -(-k // max(d for d in range(1, k + 1) if p**d <= 256))
            d = -(-k // chunks)
            h, tbl = p**d, _digit_sums(p, d)
            if chunks == 1:
                add = lambda a, b: tbl[a][b]
            else:  # the top two chunks in one call, then each lower one
                add = lambda a, b: tbl[a % h][b % h] + h * tbl[a // h][b // h]
                for _ in range(chunks - 2):
                    add = lambda a, b, rest=add: tbl[a % h][b % h] + h * rest(a // h, b // h)
            self.add = add

        # multiplication via a discrete log on the smallest primitive element g;
        # the walk adds g*(low digits) and g*(high digits), both tabulated by
        # additivity from g x^i, one table entry per add
        values = _VALUES
        values.extend(range(len(values), self.size))
        exp = [1]
        if self.size > 2:
            add = self.add
            gx = _digits(_smallest_primitive(p, k, self.modulus), p, k)
            tables = []
            for m in (k // 2, k - k // 2):
                times = [0]
                for _ in range(m):
                    block, basis, mult = times, _number(gx, p), 0
                    for _ in range(p - 1):
                        mult = add(mult, basis)
                        times = times + [add(t, mult) for t in block]
                    gx = _poly_rem([0] + gx, self.modulus, p)
                tables.append(times)
            low, high = tables
            half, cur = len(low), 1
            for _ in range(self.size - 2):
                cur = add(low[cur % half], high[cur // half])
                exp.append(values[cur])
        self.exp: Tuple[int, ...] = tuple(exp)
        log = [-1] * self.size
        for v, i in zip(exp, values):
            log[v] = i
        self.log: Tuple[int, ...] = tuple(log)
        if log.count(-1) > 1:  # pragma: no cover
            raise AssertionError(f"GF({p}^{k}): exp table does not cover all units")

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.size - 1)]

    def neg(self, a: int) -> int:
        """-a, a shift of log a by (Q - 1)/2 (-1 = g^((Q-1)/2)); -a = a for p = 2."""
        if a == 0 or self.p == 2:
            return a
        return self.exp[(self.log[a] + (self.size - 1) // 2) % (self.size - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of 0")
        return self.exp[(self.size - 1 - self.log[a]) % (self.size - 1)]

    def frob_map(self, q: int) -> Tuple[int, ...]:
        """The table of x -> x^q; q must be a subfield order p^m, m | k.  A
        q above the field size is refused before it is factored."""
        if type(q) is int and q > self.size:
            raise _not_a_subfield(self, q)
        return _frob_table(self, q)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


def _not_a_subfield(fld: Field, q: int) -> UsageError:
    return UsageError(f"GF({q}) is not a subfield of GF({fld.p}^{fld.k})")


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 or True must not find q = 2 or 1
def _frob_table(fld: Field, q: int) -> Tuple[int, ...]:
    p, m = prime_power(q)
    if p != fld.p or fld.k % m != 0:
        raise _not_a_subfield(fld, q)
    order, exp = fld.size - 1, fld.exp
    table = [exp[a * q % order] for a in fld.log]
    table[0] = 0
    return tuple(table)


def _power(b: int, k: int) -> int:
    """b^k for ints b >= 2, k >= 1, cut at a power past 2^14285 > 10^4300,
    which a refusal names by a true bound, so any k is quick."""
    bits = 1 if b <= FIELD_CAP else b.bit_length() - 1  # 2^bits <= b; b^14285 up to the cap
    return b ** min(k, -(-14285 // bits))


class _Order(namedtuple("_Order", "p k size")):
    """GF(p^k) known by its order alone, named as Field names it: what a
    count that does no field arithmetic reads of its field."""

    __slots__ = ()
    __repr__ = Field.__repr__


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 or True must not find GF(3) or k = 1
def _field_order(p: int, k: int) -> _Order:
    """The order of GF(p^k) for ints p, k; capped at p^k <= 2^16.  A p
    above the cap is refused by size before it is tested for primality."""
    if type(p) is not int or not (p > FIELD_CAP or _is_prime(p)):
        raise UsageError(f"field characteristic must be prime, got {p!r}")
    if type(k) is not int or k < 1:
        raise UsageError(f"field degree must be >= 1, got {k!r}")
    verb = "has" if p <= FIELD_CAP else "would have"
    template = "field GF({p}^{k}) {verb} {size} elements"
    _check_size(_power(p, k), FIELD_CAP, template, p=p, k=k, verb=verb)
    return _Order(p, k, p**k)


@lru_cache(maxsize=None, typed=True)  # typed, as for _field_order
def field_build(p: int, k: int) -> Field:
    """The canonical GF(p^k), once `_field_order` has checked p and k."""
    _field_order(p, k)
    return Field(p, k)


def _check_degree(e: int) -> None:
    if type(e) is not int or e < 1:
        raise UsageError(f"extension degree must be an integer >= 1, got {e!r}")


def _checked_prime_power(q: int, e: int) -> Tuple[int, int]:
    """prime_power(q) for the cell (q, e); a q above the field cap is
    refused by the size of GF(q^e) before it is factored."""
    if type(q) is int and q > FIELD_CAP:
        _check_degree(e)
        template = "field GF({q}^{e}) would have {size} elements"
        _check_size(_power(q, e), FIELD_CAP, template, q=q, e=e)
    return prime_power(q)


def _extension_order(q: int, e: int) -> _Order:
    """GF(q^e) for a prime power q and an int e >= 1, checked as a field
    but not built: the one check of the cell (q, e) for every count."""
    p, m = _checked_prime_power(q, e)
    _check_degree(e)
    return _field_order(p, m * e)


def build_extension(q: int, e: int) -> Field:
    """GF(q^e), after the checks of `_extension_order`."""
    order = _extension_order(q, e)
    return field_build(order.p, order.k)


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 or True must not find q = 3 or 1
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
    read a doubled exp table, and a zero factor reads its zero tail.  One
    subtraction serves every field: v - c*b adds (-c)*b through fld.add,
    with log(-c) = log c + (Q - 1)/2 (mod Q - 1; log c itself for p = 2).
    """
    order = fld.size - 1
    log, add = fld.log, fld.add
    half = order // 2 if fld.p > 2 else 0  # -1 = g^half
    ext = fld.exp * 2 + (0,) * order
    logz = (2 * order,) + log[1:]

    def sub(v, c, b):  # v - c*b = v + (-c)*b
        lc = (log[c] + half) % order
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
