"""Reflection-group elements: words, root permutations, actions, and length
functions.

An element is the permutation it induces on the roots of its root system,
numbered as in :mod:`dlperiod.rootsys` (positive roots first, then their
negatives): `perm[i]` is the index of w(root i).  Products compose these
tuples, and lengths, descents and reduced words are read off them.  The
ambient matrix (`WeylElem.matrix`) is derived from the permutation when
asked for, exactly: it sends each standard simple root to its image and
fixes the orthogonal complement of the roots.

Words are sequences of generator *names* (`"s1"`, `"t"`, `"tp"`, ...);
1-based generator positions are accepted as integer tokens.  Extended
tokens `sp0, sp1, ...` expand to the standard conjugated-reflection words
(kind B: sp_i negates coordinate i+1; kind D: sp_i negates coordinates 1
and i+2; kind A: sp_i is the empty word).

Two length functions are exposed:

* :func:`length` counts inversions against the standard positive system —
  the reflection length profile of the ambient realization;
* :func:`coxeter_length` counts inversions against the positive system
  attached to the *generators* (`coxeter_positive_roots`), i.e. the word
  length of the presentation actually in use.

The two agree for standard-profile systems and for paper5 kind A; they
differ for paper5 kinds B and D, whose extra generator is a long element
of the standard system but a simple one of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import CapacityError, UsageError
from .linalg import (
    Matrix,
    Vector,
    dot,
    identity,
    matmul,
    matvec,
    span_solver,
    unit_vec,
    vec,
)
from .rootsys import RootSystem, build_root_system, weyl_order

__all__ = [
    "Perm",
    "WeylElem",
    "act",
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
    "is_reflection_matrix",
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

DEFAULT_GROUP_CAP = 1_000_000


def compose(a: Perm, b: Perm) -> Perm:
    """The permutation of a * b: b acts first."""
    return tuple(map(a.__getitem__, b))


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


@dataclass(frozen=True, eq=False, slots=True)
class WeylElem:
    """Group element: root permutation plus an optional defining word.

    Equality and hashing use (root system, permutation) only — the word is
    advisory and need not be reduced.
    """

    rs: RootSystem
    perm: Perm
    word: Optional[Word] = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElem)
            and self.rs is other.rs
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash(self.perm)

    def __str__(self) -> str:
        w = " ".join(word_names(self.rs, self.word)) if self.word is not None else "?"
        return f"<{self.rs} {w}>"

    @property
    def matrix(self) -> Matrix:
        """The exact ambient matrix, derived from the permutation on each use."""
        return _matrix_frame(self.rs.kind, self.rs.rank).matrix(self.perm)


class _MatrixFrame:
    """Integer data that turns a root permutation into its matrix.

    With a_i the standard simple roots and d_i their dual basis inside the
    root span, the matrix of w is M = P + sum_i w(a_i) d_i^T, where P is the
    projection onto the orthogonal complement of the roots.  Over one common
    denominator `den`, `const` is den * P and `terms[i][k]` is
    den * (root k) d_i^T, both flattened row by row, so M takes one integer
    sum per entry.  Rows are interned: a group's matrices share few rows,
    so derived matrices hold little memory of their own.
    """

    def __init__(self, rs: RootSystem):
        simples = rs.simple_roots
        gram = [tuple(dot(a, b) for b in simples) for a in simples]
        solve = span_solver(gram)  # gram is symmetric: solve(e_j) is row j of its inverse
        ginv = [solve(unit_vec(rs.rank, j)) for j in range(rs.rank)]
        n = self.n = rs.ambient
        duals = [
            [sum((g * a[c] for g, a in zip(row, simples)), Q(0)) for c in range(n)]
            for row in ginv
        ]
        half = lcm(*(x.denominator for d in duals for x in d))  # roots are doubled
        self.den = 2 * half
        self.simples = rs.base_idx
        self.terms = tuple(
            tuple(tuple(x * e for x in r for e in d) for r in rs.doubled)
            for d in ([int(x * half) for x in d] for d in duals)
        )
        self.const = tuple(
            self.den * (k // n == k % n)  # den * I, flattened
            - sum(t[s][k] for t, s in zip(self.terms, self.simples))
            for k in range(n * n)
        )
        self._rows: Dict[Tuple[int, ...], Vector] = {}

    def matrix(self, perm: Perm) -> Matrix:
        parts = [t[perm[s]] for t, s in zip(self.terms, self.simples)]
        sums = [sum(c) for c in zip(self.const, *parts)]
        out = []
        for i in range(0, len(sums), self.n):
            key = tuple(sums[i : i + self.n])
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = tuple(Q(x, self.den) for x in key)
            out.append(row)
        return tuple(out)


@lru_cache(maxsize=None)
def _matrix_frame(kind: str, rank: int) -> _MatrixFrame:
    return _MatrixFrame(build_root_system(kind, rank))


def identity_elem(rs: RootSystem) -> WeylElem:
    return WeylElem(rs, tuple(range(len(rs.roots))), ())


def generator(rs: RootSystem, pos: int) -> WeylElem:
    """Generator by 0-based position in `rs.gen_names` order."""
    if not 0 <= pos < len(rs.gen_perms):
        raise UsageError(f"generator position {pos} out of range for {rs}")
    return WeylElem(rs, rs.gen_perms[pos], (pos,))


def generators(rs: RootSystem) -> Tuple[WeylElem, ...]:
    return tuple(generator(rs, i) for i in range(len(rs.simple_roots)))


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
    if rs.kind == "D":
        if not 0 <= k <= rs.rank - 2:
            raise UsageError(f"sp{k} out of range for {rs}")
        if k == 0:
            return (0, 1)  # tp s1
        # s_{k+1} ... s_2 (tp s1) s_2 ... s_{k+1}
        return tuple(range(k + 1, 1, -1)) + (0, 1) + tuple(range(2, k + 2))
    raise UsageError(f"extended token sp{k} undefined for kind {rs.kind}")


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
        tokens = list(word)
    name_to_pos = {nm: i for i, nm in enumerate(rs.gen_names)}
    out: List[int] = []
    for tok in tokens:
        if isinstance(tok, int):
            if not 1 <= tok <= len(rs.gen_names):
                raise UsageError(f"generator position {tok} out of range for {rs}")
            out.append(tok - 1)
            continue
        t = str(tok).strip()
        if t in name_to_pos:
            out.append(name_to_pos[t])
        elif t.startswith("sp") and t[2:].isdigit():
            out.extend(_sp_expansion(rs, int(t[2:])))
        elif t.isdigit():
            p = int(t)
            if not 1 <= p <= len(rs.gen_names):
                raise UsageError(f"generator position {p} out of range for {rs}")
            out.append(p - 1)
        else:
            raise UsageError(f"unknown generator token {t!r} for {rs}")
    return tuple(out)


def word_names(rs: RootSystem, word: Optional[Word]) -> Tuple[str, ...]:
    if word is None:
        return ()
    return tuple(rs.gen_names[i] for i in word)


def from_word(rs: RootSystem, word: WordLike) -> WeylElem:
    """Element of the given word; the rightmost letter acts first.

    The element is the left-to-right product of the generators, so for
    w = from_word(rs, "t s1") the action on a vector x is t(s1(x)).
    """
    positions = parse_word(rs, word)
    p = tuple(range(len(rs.roots)))
    for g in positions:
        p = compose(p, rs.gen_perms[g])
    return WeylElem(rs, p, positions)


def multiply(a: WeylElem, b: WeylElem) -> WeylElem:
    if a.rs is not b.rs:
        raise UsageError("multiply: elements live in different systems")
    word = a.word + b.word if a.word is not None and b.word is not None else None
    return WeylElem(a.rs, compose(a.perm, b.perm), word)


def inverse(w: WeylElem) -> WeylElem:
    word = tuple(reversed(w.word)) if w.word is not None else None
    return WeylElem(w.rs, _invert(w.perm), word)


def act(w: WeylElem, x: Iterable) -> Vector:
    xv = vec(x)
    if len(xv) != w.rs.ambient:
        raise UsageError(
            f"act: point has {len(xv)} coordinates, ambient is {w.rs.ambient}"
        )
    return matvec(w.matrix, xv)


def is_reflection_matrix(w: WeylElem) -> bool:
    """True when w is orthogonal with w^2 = 1 and fixed space of codim 1."""
    m = w.matrix
    if matmul(m, m) != identity(w.rs.ambient):
        return False
    tr = sum(m[i][i] for i in range(w.rs.ambient))
    return tr == w.rs.ambient - 2


def inversions(w: WeylElem) -> Tuple[int, ...]:
    """Indices (into `positive_roots`) of the standard positive roots that w
    sends to negative roots."""
    npos = len(w.rs.positive_roots)
    return tuple(i for i, j in enumerate(w.perm[:npos]) if j >= npos)


def length(w: WeylElem) -> int:
    """Inversions of w against the standard positive system."""
    return len(inversions(w))


def coxeter_length(w: WeylElem) -> int:
    """Word length of w in the presentation given by rs.simple_roots.

    Counted as inversions against `coxeter_positive_roots`; equals the
    minimum number of generators whose product is w.
    """
    pos = w.rs.cox_positive
    return sum(1 for i, j in enumerate(w.perm) if pos[i] and not pos[j])


def _left_descents(rs: RootSystem, inv: Perm) -> List[int]:
    """Generators g with l(s_g w) < l(w), given w^-1: those whose simple root
    w^-1 sends to a negative root."""
    pos = rs.cox_positive
    return [g for g, b in enumerate(rs.base_idx) if not pos[inv[b]]]


def descents(w: WeylElem) -> Tuple[int, ...]:
    """0-based positions g with coxeter_length(s_g * w) < coxeter_length(w)."""
    return tuple(_left_descents(w.rs, _invert(w.perm)))


def reduced_word(w: WeylElem) -> Word:
    """A reduced word (0-based positions), peeling smallest left descents."""
    rs = w.rs
    inv = _invert(w.perm)
    out: List[int] = []
    while True:
        found = _left_descents(rs, inv)
        if not found:
            return tuple(out)
        g = found[0]
        out.append(g)
        inv = compose(inv, rs.gen_perms[g])  # (s_g w)^-1 = w^-1 s_g


def support(w: WeylElem) -> frozenset:
    """1-based generator positions appearing in any reduced word of w."""
    return frozenset(g + 1 for g in reduced_word(w))


def coxeter_standard(rs: RootSystem) -> WeylElem:
    """Product of all generators once, in listed order."""
    return from_word(rs, tuple(range(1, len(rs.gen_names) + 1)))


def checked_order(rs: RootSystem, cap: int) -> int:
    """Order of the group of rs; raises CapacityError when it exceeds `cap`."""
    order = weyl_order(rs.kind, rs.rank)
    if order > cap:
        raise CapacityError(
            f"group {rs} has order {order}, exceeding cap {cap}"
        )
    return order


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> List[WeylElem]:
    """All group elements in breadth-first order from the identity.

    Deterministic; attached words are geodesics in the generator alphabet.
    Raises CapacityError (naming the group order) when the group is larger
    than `cap`.
    """
    order = checked_order(rs, cap)
    # An element is determined by the images of the simple roots, so visited
    # elements are keyed by those; only new ones are composed in full.
    base = rs.base_idx
    gen_keys = [tuple(gp[b] for b in base) for gp in rs.gen_perms]
    seen = {base}
    perms: List[Perm] = [tuple(range(len(rs.roots)))]
    words: List[Word] = [()]
    head = 0
    while head < len(perms):
        p, w = perms[head], words[head]
        head += 1
        for g, (gp, gk) in enumerate(zip(rs.gen_perms, gen_keys)):
            key = tuple(map(p.__getitem__, gk))
            if key not in seen:
                seen.add(key)
                perms.append(compose(p, gp))
                words.append(w + (g,))
    if len(perms) != order:
        raise AssertionError(
            f"enumerated {len(perms)} elements of {rs}, expected {order}"
        )
    return [WeylElem(rs, p, w) for p, w in zip(perms, words)]
