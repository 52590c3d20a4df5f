"""Twisted conjugation machinery and the distinguished block elements.

Shift steps are the moves `w -> s * w * F(s)` for a generator `s` and an
automorphism `F` of the generator set (default: identity).  Downward
closures of such moves (never increasing `coxeter_length`) reach a
minimal-length member of the twisted class; the BFS here records a
replayable chain of steps.  The walks compose root permutations directly,
the right factor by the per-system getters of :mod:`dlperiod.weyl`, and
visit only the class (or its downward closure), never the whole group.
All four walks raise CapacityError when the group's order exceeds `cap`
and UsageError when the element is not in the group.

The second half of the module builds the distinguished representatives
indexed by a composition with signs (and for kind D an extra left factor
`delta`): each the product of its construction word, the delta word and
then one signed block cycle per part.  The blocks act on disjoint coordinates
(in kind D a negative one also flips the special first coordinate, which
no cycle moves), so they commute; a test checks this on every datum up to
A8, B7 and D7.  These are the reachability targets used by the scan drivers.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import DEFAULT_CAP, UsageError
from .rootsys import RootSystem, build_root_system, normalize_kind
from .weyl import (
    WeylElem,
    _getters,
    checked_order,
    compose,
    coxeter_length,
    from_word,
    parse_word,
    reduced_word,
)

__all__ = [
    "GPDatum",
    "ReductionChain",
    "ShiftStep",
    "cyclic_shift_step",
    "gp_element",
    "gp_enumerate",
    "gp_system",
    "gp_word_tokens",
    "min_length_bruteforce",
    "reduce_to_minimal",
    "shift_closure",
    "twisted_class",
]

GenMap = Optional[Dict[Union[int, str], Union[int, str]]]


def _position_of(rs: RootSystem, key) -> int:
    """Generator reference (name or 1-based position) -> 0-based position."""
    word = parse_word(rs, [key])
    if len(word) != 1:
        raise UsageError(f"{key!r} is not a single generator of {rs}")
    return word[0]


def _normalize_f(rs: RootSystem, F: GenMap) -> Optional[Tuple[int, ...]]:
    """Express F as a permutation of generator positions (None = identity).

    Keys and values are generator names or 1-based positions; generators
    that are not keys are fixed.
    """
    if F is None:
        return None
    if not isinstance(F, Mapping):
        raise UsageError(f"F must be a mapping of generators, got {F!r}")
    mapped = {_position_of(rs, k): _position_of(rs, v) for k, v in F.items()}
    perm = tuple(mapped.get(g, g) for g in range(len(rs.gen_names)))
    if sorted(perm) != list(range(len(perm))):
        raise UsageError(f"F is not a permutation of the generators: {perm}")
    return perm


# one move source -> target by the generator at 0-based position `gen`
ShiftStep = namedtuple("ShiftStep", "gen source target")
# the moves from `start` down to `terminal`, a tuple of ShiftSteps
ReductionChain = namedtuple("ReductionChain", "start steps terminal")


def cyclic_shift_step(w: WeylElem, gen: int, F: GenMap = None) -> WeylElem:
    """One twisted shift: s_gen * w * F(s_gen) (no length restriction)."""
    fperm = _normalize_f(w.rs, F)
    gens = w.rs.gen_perms
    if type(gen) is not int or not 0 <= gen < len(gens):
        raise UsageError(f"generator position {gen!r} out of range for {w.rs}")
    fs = _getters(w.rs).right[gen if fperm is None else fperm[gen]]
    return WeylElem(w.rs, compose(gens[gen], fs(w.perm)))


def _class_walk(
    w: WeylElem, F: GenMap, cap: int, monotone: bool
) -> Tuple[List[WeylElem], List[int], List[Tuple[int, int]]]:
    """Breadth-first walk over the shift moves from w, generators tried in
    their listed order; monotone=True drops moves that raise the length.

    Checks the cap first; after the walk, which stays inside w's W-orbit
    (W is finite, bounded by the cap), raises UsageError when w is not in
    the group.
    Returns the elements in discovery order, their coxeter_length, and
    parents: parents[j] = (i, gen) for each element j > 0 of the walk.
    """
    rs = w.rs
    fperm = _normalize_f(rs, F)
    checked_order(rs, cap)
    get = _getters(rs)
    # move g sends x to s_g x F(s_g): the getters of F(s_g) give x F(s_g)
    # and its simple-root images, and the left factor s_g maps them.  An
    # element is determined by the images of the simple roots, so visited
    # elements are keyed by those; only new ones are composed in full.
    f = range(len(rs.gen_perms)) if fperm is None else fperm
    moves = [(s.__getitem__, get.right[h], get.key[h]) for s, h in zip(rs.gen_perms, f)]
    seen = {get.simple(w.perm)}
    elems = [w]
    lengths = [coxeter_length(w)]
    parents: List[Tuple[int, int]] = [(0, 0)]  # the start has none
    for i, x in enumerate(elems):  # grows while it is read: a breadth-first queue
        p = x.perm
        for g, (s, right, fkey) in enumerate(moves):
            key = tuple(map(s, fkey(p)))
            if key in seen:
                continue
            y = WeylElem(rs, tuple(map(s, right(p))))
            ly = coxeter_length(y)
            if monotone and ly > lengths[i]:
                continue
            seen.add(key)
            elems.append(y)
            lengths.append(ly)
            parents.append((i, g))
    # the moves keep W, so w is in W exactly when the walk's shortest element
    # is, and that element has the shortest word to peel
    reduced_word(elems[lengths.index(min(lengths))])
    return elems, lengths, parents


def reduce_to_minimal(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_CAP
) -> ReductionChain:
    """Chain of nonincreasing shift steps to a minimal-length class member.

    BFS over `w -> s w F(s)` restricted to steps that do not increase
    coxeter_length; the terminal is the first minimum-length element in
    discovery order, so the result is deterministic.
    """
    elems, lengths, parents = _class_walk(w, F, cap, monotone=True)
    terminal = lengths.index(min(lengths))  # the first of least length
    steps: List[ShiftStep] = []
    j = terminal
    while j:  # back to the start, element 0
        i, g = parents[j]
        steps.append(ShiftStep(gen=g, source=elems[i], target=elems[j]))
        j = i
    return ReductionChain(w, tuple(reversed(steps)), elems[terminal])


def shift_closure(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_CAP
) -> List[WeylElem]:
    """All elements reachable from w by nonincreasing shift steps (BFS order)."""
    return _class_walk(w, F, cap, monotone=True)[0]


def twisted_class(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_CAP
) -> List[WeylElem]:
    """The whole twisted conjugacy class of w (BFS order, no length filter)."""
    return _class_walk(w, F, cap, monotone=False)[0]


def min_length_bruteforce(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_CAP
) -> int:
    """Minimum coxeter_length over the full twisted class (independent of
    the shift heuristics; used as the reference in tests)."""
    return min(_class_walk(w, F, cap, monotone=False)[1])


# ---------------------------------------------------------------------------
# distinguished block representatives


# the word of each extra left factor of kind D
_DELTA_WORDS = {"one": (), "s1": ("s1",), "tprime": ("tp",)}
_DELTAS = tuple(_DELTA_WORDS)
# the least rank of each kind with block representatives
_GP_MIN_RANK = {"A": 2, "B": 2, "D": 4}


def _check_gp_rank(kind: str, rank: int) -> None:
    if kind not in _GP_MIN_RANK:
        raise UsageError(f"block representatives exist for kinds A, B, D, not {kind}")
    if type(rank) is not int:
        raise UsageError(f"rank {rank!r} is not an integer")
    if rank < _GP_MIN_RANK[kind]:
        raise UsageError(f"kind {kind} needs rank >= {_GP_MIN_RANK[kind]}")


def _int_tuple(values) -> Optional[Tuple[int, ...]]:
    """values as a tuple of ints, or None when it is not a sequence of ints
    (a float or a bool is none)."""
    try:
        out = tuple(values)
    except TypeError:
        return None
    return out if all(type(v) is int for v in out) else None


class GPDatum(namedtuple("GPDatum", "kind rank parts signs delta", defaults=("one",))):
    """Composition-with-signs datum for a distinguished representative.

    `rank` is the number of permuted coordinates; `parts` is a composition
    of `rank` (kinds A, B) or of `rank - 1` (kind D, where the first
    coordinate is special).  `signs` holds one entry of +-1 per part (all
    +1 for kind A).  `delta` is an extra left factor for kind D only.
    The rank is an int, and `parts` and `signs` are stored as tuples of
    ints; a float or a bool is refused, so a datum is an exact cache key.
    """

    __slots__ = ()

    def __new__(cls, kind: str, rank: int, parts: Sequence[int], signs: Sequence[int],
                delta: str = "one"):
        _check_gp_rank(kind, rank)
        body = rank if kind in ("A", "B") else rank - 1
        parts, signs = _int_tuple(parts), _int_tuple(signs)
        if not parts or min(parts) < 1:
            raise UsageError("parts must be a nonempty composition of positive integers")
        if sum(parts) != body:
            raise UsageError(f"parts {parts} must sum to {body} for kind {kind}, rank {rank}")
        if signs is None or len(signs) != len(parts) or not set(signs) <= {1, -1}:
            raise UsageError("signs must be +-1, one per part")
        if kind == "A" and any(s != 1 for s in signs):
            raise UsageError("kind A admits only +1 signs")
        if kind != "D" and delta != "one":
            raise UsageError("a delta factor is only defined for kind D")
        if delta not in _DELTAS:
            raise UsageError(f"delta must be one of {_DELTAS}")
        return super().__new__(cls, kind, rank, parts, signs, delta)

    def __str__(self) -> str:
        sgn = ",".join("+" if s > 0 else "-" for s in self.signs)
        tail = "" if self.delta == "one" else f";{self.delta}"
        return f"{self.kind}{self.rank}({','.join(map(str, self.parts))};{sgn}{tail})"


def gp_system(datum: GPDatum) -> RootSystem:
    """The paper5 system the representative lives in."""
    if datum.kind == "A":
        return build_root_system("A", datum.rank - 1, "paper5")
    return build_root_system(datum.kind, datum.rank, "paper5")


def gp_word_tokens(datum: GPDatum) -> Tuple[str, ...]:
    """The construction word in generator-name tokens, sp unexpanded: the delta
    word, then one signed cycle per part.  A cycle's coordinates follow
    those of the earlier parts (for kind D, one to the right of the special
    first coordinate), and a negative sign puts sp<start> in front, start
    the number of coordinates the earlier parts consumed."""
    tokens = list(_DELTA_WORDS[datum.delta])
    first = 2 if datum.kind == "D" else 1
    consumed = 0
    for size, sign in zip(datum.parts, datum.signs):
        if sign == -1:
            tokens.append(f"sp{consumed}")
        m = consumed + first
        tokens.extend(f"s{i}" for i in range(m, m + size - 1))
        consumed += size
    return tuple(tokens)


@lru_cache(maxsize=None, typed=True)  # typed: a plain tuple must not find a datum's element
def gp_element(datum: GPDatum) -> WeylElem:
    """The distinguished representative: the product of its construction
    word, the delta factor times the signed block cycles.

    The blocks commute: a cycle permutes only its part's coordinates, and a
    negative part's sp<start> only changes signs, of the part's first
    coordinate and (kind D) of the special first one, which no cycle moves.
    A test checks this on every datum up to A8, B7 and D7.
    """
    return from_word(gp_system(datum), gp_word_tokens(datum))


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def gp_enumerate(kind: str, rank: Optional[int]) -> List[GPDatum]:
    """All data for (kind, rank), in deterministic order.

    Compositions are listed first-part-descending; signs iterate +1 before
    -1 per coordinate; kind D data carry each of the three delta factors,
    uncollapsed (distinct data may define equal group elements).  `kind`
    may be a combined name like "D4", as in `build_root_system`.
    """
    kind, rank = normalize_kind(kind, rank)
    _check_gp_rank(kind, rank)
    body = rank if kind in ("A", "B") else rank - 1
    out: List[GPDatum] = []
    for parts in _compositions(body):
        k = len(parts)
        if kind == "A":
            out.append(GPDatum(kind, rank, parts, (1,) * k))
            continue
        for signs in iproduct((1, -1), repeat=k):
            if kind == "B":
                out.append(GPDatum(kind, rank, parts, signs))
            else:
                for delta in _DELTAS:
                    out.append(GPDatum(kind, rank, parts, signs, delta))
    return out
