"""Reflection-group elements: words, root permutations, matrices, and length
functions.

An element is the permutation it induces on the roots of its root system,
numbered as in :mod:`dlperiod.rootsys` (positive roots first, then their
negatives): `perm[i]` is the index of w(root i).  Products compose these
tuples, and lengths, descents and reduced words are read off them.  Every
product p * s_g by a generator, and every read of fixed root indices (the
simple-root images that key a visited element, the Coxeter-positive roots a
length counts), is one `operator.itemgetter` call made once per root system
(`_getters`), so the loop over the roots runs in C.  The
exact ambient matrix (`WeylElem.matrix`) and the least reduced word
(`WeylElem.word`) are derived from the permutation on each read; the
matrix sends each standard simple root to its image and fixes the
orthogonal complement of the roots.  Each row is looked up by the images
of the simple roots, made once from integer root sums and hashed once, so
`.matrix` is a cheap set or dict key.

Words are sequences of generator *names* (`"s1"`, `"t"`, `"tp"`, ...);
1-based generator positions are accepted as integer tokens.  Extended
tokens `sp0, sp1, ...` expand to the standard conjugated-reflection words
(kind B: sp_i negates coordinate i+1; kind D: sp_i negates coordinates 1
and i+2; kind A: sp_i is the empty word).

Two length functions are exposed:

* :func:`length` counts inversions against the standard positive system —
  the reflection length profile of the ambient realization;
* :func:`coxeter_length` counts inversions against the positive system
  attached to the *generators* (`RootSystem.cox_positive`), i.e. the word
  length of the presentation actually in use.

The two agree for standard-profile systems and for paper5 kind A; they
differ for paper5 kinds B and D, whose extra generator is a long element
of the standard system but a simple one of its own.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from operator import itemgetter, mul
from typing import Callable, Iterable, List, Sequence, Tuple, Union

from . import DEFAULT_CAP, UsageError, _check_size
from .rootsys import RootSystem, Vector, build_root_system, weyl_order

__all__ = [
    "Perm",
    "WeylElem",
    "checked_order",
    "compose",
    "coxeter_length",
    "coxeter_standard",
    "descents",
    "enumerate_group",
    "from_word",
    "generator",
    "generators",
    "identity_elem",
    "inverse",
    "inversions",
    "length",
    "multiply",
    "parse_word",
    "reduced_word",
    "support",
    "word_names",
]

Word = Tuple[int, ...]  # 0-based generator positions (internal canonical form)
WordLike = Union[str, Iterable[Union[int, str]]]
Perm = Tuple[int, ...]  # perm[i] = index of the image of root i
Matrix = Tuple[Vector, ...]  # rows


def compose(a: Perm, b: Perm) -> Perm:
    """The permutation of a * b: b acts first."""
    return tuple(map(a.__getitem__, b))


def _getter(indices: Sequence[int]) -> Callable[[Perm], Perm]:
    """p -> tuple(p[i] for i in indices), in C.  itemgetter of one index
    returns the item itself, so rank 1 (one simple root, one positive root)
    gets a 1-tuple by hand."""
    if len(indices) == 1:
        (i,) = indices
        return lambda p: (p[i],)
    return itemgetter(*indices)


# Per-system getters on a root permutation p: right[g](p) = p * s_g;
# key[g](p) = the simple-root images of p * s_g; simple(p) = those of p;
# positive(p) = the images of the Coxeter-positive roots, and negative is
# the set of Coxeter-negative roots, so a length is the size of the
# intersection (the images are distinct).
_Getters = namedtuple("_Getters", "right key simple positive negative")


@lru_cache(maxsize=None)
def _getters(rs: RootSystem) -> _Getters:
    base = rs.base_idx
    return _Getters(
        right=tuple(_getter(gp) for gp in rs.gen_perms),
        key=tuple(_getter([gp[c] for c in base]) for gp in rs.gen_perms),
        simple=_getter(base),
        positive=_getter([i for i, up in enumerate(rs.cox_positive) if up]),
        negative=frozenset(i for i, up in enumerate(rs.cox_positive) if not up),
    )


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class WeylElem:
    """Group element: the permutation it induces on the roots of `rs`."""

    __slots__ = ("rs", "perm")

    def __init__(self, rs: RootSystem, perm: Perm):
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "perm", perm)

    def __setattr__(self, name, value):
        raise AttributeError(f"WeylElem is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"WeylElem is read-only; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElem)
            and self.rs is other.rs
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"WeylElem(rs={self.rs!r}, perm={self.perm!r})"

    def __str__(self) -> str:
        return f"<{self.rs} {' '.join(word_names(self.rs, self.word))}>"

    @property
    def word(self) -> Word:
        """The lexicographically least reduced word, derived on each read."""
        return reduced_word(self)

    @property
    def matrix(self) -> Matrix:
        """The exact ambient matrix, derived from the permutation on each use."""
        return _matrix_frame(self.rs.kind, self.rs.rank).matrix(self.perm)


class _Row(tuple):
    """A matrix row whose hash, that of the plain tuple, is computed once."""

    def __init__(self, entries):
        self._hash = tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


class _MatrixFrame:
    """Integer data that turns a root permutation into its matrix.

    With a_i the standard simple roots and d_i their dual basis inside the
    root span, M = P + sum_i w(a_i) d_i^T, P the projection onto the
    orthogonal complement of the roots.  Row r of den * M is const[r] +
    sum_i w(a_i)[r] duals[i] (w(a_i) doubled), so one dict per row index,
    keyed by those r-th coordinates, holds each row, built once as a `_Row`:
    a matrix costs one lookup per row and hashes from cached row hashes.

    The duals are integer root sums.  The sum of beta beta^T over all roots
    beta is W-invariant, and every kind here is irreducible, so on the root
    span it is a scalar multiple c of the identity (Bourbaki, Lie Groups,
    Ch. VI, 1.12).  Pairing it with d_i, whose pairing with beta is the i-th
    simple coordinate of beta, gives c d_i = sum_{beta > 0} coord_i(beta) b,
    b the doubled root beta; with any doubled root a it gives
    c = sum_{beta > 0} (a, b)^2 / (2 (a, a)).
    """

    def __init__(self, rs: RootSystem):
        n = rs.ambient
        pos = rs.doubled[: len(rs.int_coords)]
        ambs = list(zip(*pos))
        sums = [[sum(map(mul, col, amb)) for amb in ambs] for col in zip(*rs.int_coords)]
        a = pos[0]
        s = sum(sum(x * y for x, y in zip(a, b)) ** 2 for b in pos)
        t = 2 * sum(x * x for x in a)  # d_i = sums[i] * t / s
        g = gcd(s, t * gcd(*(x for d in sums for x in d)))
        self.den = 2 * (s // g)  # s // g is the least denominator of the duals
        self.doubled = rs.doubled
        self.simples = rs.base_idx
        self.duals = [[x * t // g for x in d] for d in sums]
        self.const = [  # den * P, row by row
            [self.den * (r == k) - sum(c * d[k] for c, d in zip(key, self.duals)) for k in range(n)]
            for r, key in enumerate(zip(*[rs.doubled[s] for s in self.simples]))
        ]
        self.rows = [{} for _ in range(n)]

    def matrix(self, perm: Perm) -> Matrix:
        keys = list(zip(*[self.doubled[perm[s]] for s in self.simples]))
        out = list(map(dict.get, self.rows, keys))
        for r, row in enumerate(out):
            if row is None:
                out[r] = self.rows[r][keys[r]] = _Row(
                    Q(x + sum(c * d[k] for c, d in zip(keys[r], self.duals)), self.den)
                    for k, x in enumerate(self.const[r]))
        return tuple(out)


@lru_cache(maxsize=None)
def _matrix_frame(kind: str, rank: int) -> _MatrixFrame:
    return _MatrixFrame(build_root_system(kind, rank))


def identity_elem(rs: RootSystem) -> WeylElem:
    return WeylElem(rs, tuple(range(len(rs.doubled))))


def generator(rs: RootSystem, pos: int) -> WeylElem:
    """Generator by 0-based position in `rs.gen_names` order."""
    if type(pos) is not int or not 0 <= pos < len(rs.gen_perms):
        raise UsageError(f"generator position {pos!r} out of range for {rs}")
    return WeylElem(rs, rs.gen_perms[pos])


def generators(rs: RootSystem) -> Tuple[WeylElem, ...]:
    return tuple(generator(rs, i) for i in range(len(rs.gen_perms)))


def _sp_expansion(rs: RootSystem, k: int) -> Word:
    """Extended token sp<k>: word for the reflection negating one coordinate
    (kind B) or the first-plus-one coordinate pair (kind D)."""
    if rs.kind == "A":
        if not 0 <= k < rs.rank + 1:
            raise UsageError(f"sp{k} out of range for {rs}")
        return ()
    if rs.profile != "paper5":
        raise UsageError(f"extended token sp{k} needs the paper5 profile, not {rs}")
    if rs.kind == "B":
        if not 0 <= k <= rs.rank - 1:
            raise UsageError(f"sp{k} out of range for {rs}")
        # s_k ... s_1 t s_1 ... s_k  (t at position 0, s_i at position i)
        return tuple(range(k, 0, -1)) + (0,) + tuple(range(1, k + 1))
    # kind D, the last with a paper5 profile
    if not 0 <= k <= rs.rank - 2:
        raise UsageError(f"sp{k} out of range for {rs}")
    if k == 0:
        return (0, 1)  # tp s1
    # s_{k+1} ... s_2 (tp s1) s_2 ... s_{k+1}
    return tuple(range(k + 1, 1, -1)) + (0, 1) + tuple(range(2, k + 2))


def parse_word(rs: RootSystem, word: WordLike) -> Word:
    """Normalize a word to 0-based generator positions.

    Accepts a whitespace-separated string or an iterable of tokens; tokens
    are generator names, integer 1-based positions, or extended `sp<k>`
    tokens (which expand in place).
    """
    tokens: List[Union[int, str]]
    if isinstance(word, str):
        tokens = word.split()
    else:
        try:
            tokens = list(word)
        except TypeError:
            raise UsageError(f"a word must be a sequence, got {word!r}") from None
    name_to_pos = {nm: i for i, nm in enumerate(rs.gen_names)}
    out: List[int] = []
    for tok in tokens:
        t = str(tok).strip()
        if t in name_to_pos:
            out.append(name_to_pos[t])
        elif t.startswith("sp") and t[2:].isdecimal():
            out.extend(_sp_expansion(rs, int(t[2:])))
        elif type(tok) is int or t.isdecimal():
            p = int(t)
            if not 1 <= p <= len(rs.gen_names):
                raise UsageError(f"generator position {p} out of range for {rs}")
            out.append(p - 1)
        else:
            raise UsageError(f"unknown generator token {t!r} for {rs}")
    return tuple(out)


def word_names(rs: RootSystem, word: Word) -> Tuple[str, ...]:
    return tuple(rs.gen_names[i] for i in word)


def from_word(rs: RootSystem, word: WordLike) -> WeylElem:
    """Element of the given word; the rightmost letter acts first.

    The element is the left-to-right product of the generators, so for
    w = from_word(rs, "t s1") the action on a vector x is t(s1(x)).
    """
    right = _getters(rs).right
    p = tuple(range(len(rs.doubled)))
    for g in parse_word(rs, word):
        p = right[g](p)
    return WeylElem(rs, p)


def multiply(a: WeylElem, b: WeylElem) -> WeylElem:
    if a.rs is not b.rs:
        raise UsageError("multiply: elements live in different systems")
    return WeylElem(a.rs, compose(a.perm, b.perm))


def inverse(w: WeylElem) -> WeylElem:
    return WeylElem(w.rs, _invert(w.perm))


def inversions(w: WeylElem) -> Tuple[int, ...]:
    """Indices of the standard positive roots (0..N-1, as numbered in
    :mod:`dlperiod.rootsys`) that w sends to negative roots."""
    npos = len(w.rs.int_coords)
    return tuple(i for i, j in enumerate(w.perm[:npos]) if j >= npos)


def length(w: WeylElem) -> int:
    """Inversions of w against the standard positive system."""
    return len(inversions(w))


def coxeter_length(w: WeylElem) -> int:
    """Word length of w in the presentation given by rs.gen_names.

    Counted as inversions against the Coxeter-positive roots (`cox_positive`);
    equals the minimum number of generators whose product is w.
    """
    get = _getters(w.rs)
    return len(get.negative.intersection(get.positive(w.perm)))


def _left_descents(rs: RootSystem, inv: Perm) -> List[int]:
    """Generators g with l(s_g w) < l(w), given w^-1: those whose simple root
    w^-1 sends to a negative root."""
    pos = rs.cox_positive
    return [g for g, j in enumerate(_getters(rs).simple(inv)) if not pos[j]]


def descents(w: WeylElem) -> Tuple[int, ...]:
    """0-based positions g with coxeter_length(s_g * w) < coxeter_length(w)."""
    return tuple(_left_descents(w.rs, _invert(w.perm)))


def reduced_word(w: WeylElem) -> Word:
    """The lexicographically least reduced word (0-based positions).

    Any left descent can begin a reduced word, so peeling the smallest one
    at each step gives the least word.  Each peel shortens a group element,
    which reaches the identity within N peels (N positive roots); any other
    permutation raises UsageError.
    """
    rs = w.rs
    right = _getters(rs).right
    inv = _invert(w.perm)
    out: List[int] = []
    for _ in range(len(rs.int_coords) + 1):
        found = _left_descents(rs, inv)
        if not found:
            if inv == tuple(range(len(inv))):
                return tuple(out)
            break
        g = found[0]
        out.append(g)
        inv = right[g](inv)  # (s_g w)^-1 = w^-1 s_g
    raise UsageError(f"root permutation does not belong to the group of {rs}")


def support(w: WeylElem) -> frozenset:
    """1-based generator positions appearing in any reduced word of w."""
    return frozenset(g + 1 for g in reduced_word(w))


def coxeter_standard(rs: RootSystem) -> WeylElem:
    """Product of all generators once, in listed order."""
    return from_word(rs, tuple(range(1, len(rs.gen_names) + 1)))


def checked_order(rs: RootSystem, cap: int) -> int:
    """Order of the group of rs; raises CapacityError when it exceeds `cap`
    (and UsageError when `cap` is not an int)."""
    order = weyl_order(rs.kind, rs.rank)
    _check_size(order, cap, "group {rs} has order {size}", rs=rs)
    return order


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> List[WeylElem]:
    """All group elements in breadth-first order from the identity.

    Deterministic: generators are tried in their listed order.  A generator
    g with p(a_g) < 0 is skipped at p, since p s_g is then shorter and was
    found a level earlier; the order is that of trying every generator.
    Raises CapacityError (naming the group order) when the group is larger
    than `cap`.
    """
    order = checked_order(rs, cap)
    # An element is determined by the images of the simple roots, so visited
    # elements are keyed by those; only new ones are composed in full.
    get = _getters(rs)
    pos = rs.cox_positive
    gens = list(zip(rs.base_idx, get.right, get.key))
    seen = {rs.base_idx}
    perms: List[Perm] = [tuple(range(len(rs.doubled)))]
    for p in perms:  # grows while it is read: a breadth-first queue
        for b, right, key in gens:
            if not pos[p[b]]:
                continue  # p s_g is shorter than p, so it was found a level earlier
            k = key(p)
            if k not in seen:
                seen.add(k)
                perms.append(right(p))
    if len(perms) != order:
        raise AssertionError(
            f"enumerated {len(perms)} elements of {rs}, expected {order}"
        )
    return [WeylElem(rs, p) for p in perms]
