"""Twisted conjugation machinery and the distinguished block elements.

Shift steps are the moves `w -> s * w * F(s)` for a generator `s` and an
automorphism `F` of the generator set (default: identity).  Downward
closures of such moves (never increasing `coxeter_length`) reach a
minimal-length member of the twisted class; the BFS here records a
replayable chain of steps.

The second half of the module builds the distinguished representatives
indexed by a composition with signs (and for kind D an extra left factor
`delta`): signed block cycles whose supports are disjoint, hence pairwise
commuting.  These are the reachability targets used by the scan drivers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import CapacityError, UsageError
from .rootsys import RootSystem, build_root_system
from .weyl import (
    DEFAULT_GROUP_CAP,
    Perm,
    WeylElem,
    Word,
    checked_order,
    compose,
    coxeter_length,
    enumerate_group,
    from_word,
    generators,
    identity_elem,
    multiply,
    parse_word,
)

__all__ = [
    "GPDatum",
    "GroupTable",
    "ReductionChain",
    "ShiftStep",
    "cyclic_shift_step",
    "gp_element",
    "gp_enumerate",
    "gp_system",
    "gp_word",
    "gp_word_tokens",
    "group_table",
    "min_length_bruteforce",
    "reduce_to_minimal",
    "shift_closure",
    "twisted_class",
]

GenMap = Union[None, Dict[int, int], Callable[[WeylElem], WeylElem]]


class GroupTable:
    """Dense multiplication tables for a small group, indexed by ints.

    Element 0 is the identity; `elems[i].word` is a geodesic word; `index`
    maps root permutations to element indices.  Built lazily per root system
    and cached, since every twisted-class walk in a given group shares the
    same tables.
    """

    def __init__(self, rs: RootSystem, cap: int):
        self.rs = rs
        self.elems: List[WeylElem] = enumerate_group(rs, cap)
        self.index: Dict[Perm, int] = {w.perm: i for i, w in enumerate(self.elems)}
        gens = rs.gen_perms
        self.ngens = len(gens)
        self.length: List[int] = [coxeter_length(w) for w in self.elems]
        self.right: List[List[int]] = []
        self.left: List[List[int]] = []
        for w in self.elems:
            p = w.perm
            self.right.append([self.index[compose(p, g)] for g in gens])
            self.left.append([self.index[compose(g, p)] for g in gens])

    def conj_step(self, i: int, g: int, fperm: Optional[Tuple[int, ...]]) -> int:
        """Index of s_g * elems[i] * F(s_g)."""
        gg = g if fperm is None else fperm[g]
        return self.left[self.right[i][gg]][g]


def group_table(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> GroupTable:
    """The cached table of rs; raises CapacityError when the group exceeds
    `cap`, whether or not the table is cached already."""
    return _cached_table(rs, checked_order(rs, cap))


@lru_cache(maxsize=None)
def _cached_table(rs: RootSystem, order: int) -> GroupTable:
    return GroupTable(rs, order)


def _position_of(rs: RootSystem, key) -> int:
    """Generator reference (name or 1-based position) -> 0-based position."""
    if isinstance(key, str):
        try:
            return rs.gen_names.index(key)
        except ValueError:
            raise UsageError(f"unknown generator name {key!r} for {rs}") from None
    p = int(key)
    if not 1 <= p <= len(rs.gen_names):
        raise UsageError(f"generator position {p} out of range for {rs}")
    return p - 1


def _normalize_f(rs: RootSystem, F: GenMap) -> Optional[Tuple[int, ...]]:
    """Express F as a permutation of generator positions (None = identity).

    Dict keys/values follow the external convention: generator names or
    1-based positions.  A callable must send generators to generators.
    """
    if F is None:
        return None
    gens = generators(rs)
    if isinstance(F, dict):
        mapped = {_position_of(rs, k): _position_of(rs, v) for k, v in F.items()}
        perm = tuple(mapped.get(g, g) for g in range(len(gens)))
    else:
        images = []
        by_perm = {g.perm: i for i, g in enumerate(gens)}
        for g in gens:
            img = F(g)
            if not isinstance(img, WeylElem) or img.perm not in by_perm:
                raise UsageError("F must map generators to generators")
            images.append(by_perm[img.perm])
        perm = tuple(images)
    if sorted(perm) != list(range(len(gens))):
        raise UsageError(f"F is not a permutation of the generators: {perm}")
    return perm


@dataclass(frozen=True)
class ShiftStep:
    gen: int  # 0-based generator position
    source: WeylElem
    target: WeylElem


@dataclass(frozen=True)
class ReductionChain:
    start: WeylElem
    steps: Tuple[ShiftStep, ...]
    terminal: WeylElem


def cyclic_shift_step(w: WeylElem, gen: int, F: GenMap = None) -> WeylElem:
    """One twisted shift: s_gen * w * F(s_gen) (no length restriction)."""
    fperm = _normalize_f(w.rs, F)
    gens = generators(w.rs)
    if not 0 <= gen < len(gens):
        raise UsageError(f"generator position {gen} out of range for {w.rs}")
    s = gens[gen]
    fs = gens[gen if fperm is None else fperm[gen]]
    return multiply(s, multiply(w, fs))


def _closure_bfs(
    tbl: GroupTable,
    start: int,
    fperm: Optional[Tuple[int, ...]],
    monotone: bool,
) -> Tuple[List[int], Dict[int, Tuple[int, int]]]:
    """BFS over shift moves.  monotone=True restricts to nonincreasing length.

    Returns (discovery order, parents) where parents[j] = (i, gen)."""
    seen = {start}
    order = [start]
    parents: Dict[int, Tuple[int, int]] = {}
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        li = tbl.length[i]
        for g in range(tbl.ngens):
            j = tbl.conj_step(i, g, fperm)
            if j in seen:
                continue
            if monotone and tbl.length[j] > li:
                continue
            seen.add(j)
            parents[j] = (i, g)
            order.append(j)
    return order, parents


def reduce_to_minimal(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_GROUP_CAP
) -> ReductionChain:
    """Chain of nonincreasing shift steps to a minimal-length class member.

    BFS over `w -> s w F(s)` restricted to steps that do not increase
    coxeter_length; the terminal is the first minimum-length element in
    discovery order, so the result is deterministic.
    """
    fperm = _normalize_f(w.rs, F)
    tbl = group_table(w.rs, cap)
    try:
        start = tbl.index[w.perm]
    except KeyError:
        raise UsageError("element does not belong to the table's group") from None
    order, parents = _closure_bfs(tbl, start, fperm, monotone=True)
    best = min(tbl.length[i] for i in order)
    terminal = next(i for i in order if tbl.length[i] == best)
    rev: List[Tuple[int, int, int]] = []  # (gen, source, target)
    j = terminal
    while j != start:
        i, g = parents[j]
        rev.append((g, i, j))
        j = i
    steps = tuple(
        ShiftStep(gen=g, source=tbl.elems[i], target=tbl.elems[j])
        for g, i, j in reversed(rev)
    )
    return ReductionChain(start=tbl.elems[start], steps=steps, terminal=tbl.elems[terminal])


def shift_closure(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_GROUP_CAP
) -> List[WeylElem]:
    """All elements reachable from w by nonincreasing shift steps (BFS order)."""
    fperm = _normalize_f(w.rs, F)
    tbl = group_table(w.rs, cap)
    order, _ = _closure_bfs(tbl, tbl.index[w.perm], fperm, monotone=True)
    return [tbl.elems[i] for i in order]


def twisted_class(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_GROUP_CAP
) -> List[WeylElem]:
    """The whole twisted conjugacy class of w (BFS order, no length filter)."""
    fperm = _normalize_f(w.rs, F)
    tbl = group_table(w.rs, cap)
    order, _ = _closure_bfs(tbl, tbl.index[w.perm], fperm, monotone=False)
    return [tbl.elems[i] for i in order]


def min_length_bruteforce(
    w: WeylElem, F: GenMap = None, cap: int = DEFAULT_GROUP_CAP
) -> int:
    """Minimum coxeter_length over the full twisted class (independent of
    the shift heuristics; used as the reference in tests)."""
    return min(coxeter_length(x) for x in twisted_class(w, F, cap))


# ---------------------------------------------------------------------------
# distinguished block representatives


_DELTAS = ("one", "s1", "tprime")


@dataclass(frozen=True)
class GPDatum:
    """Composition-with-signs datum for a distinguished representative.

    `rank` is the number of permuted coordinates; `parts` is a composition
    of `rank` (kinds A, B) or of `rank - 1` (kind D, where the first
    coordinate is special).  `signs` holds one entry of +-1 per part (all
    +1 for kind A).  `delta` is an extra left factor for kind D only.
    """

    kind: str
    rank: int
    parts: Tuple[int, ...]
    signs: Tuple[int, ...]
    delta: str = "one"

    def __post_init__(self):
        if self.kind not in ("A", "B", "D"):
            raise UsageError(f"block representatives exist for kinds A, B, D, not {self.kind}")
        min_rank = {"A": 2, "B": 2, "D": 4}[self.kind]
        if self.rank < min_rank:
            raise UsageError(f"kind {self.kind} needs rank >= {min_rank}")
        body = self.rank if self.kind in ("A", "B") else self.rank - 1
        if not self.parts or any(p < 1 for p in self.parts):
            raise UsageError("parts must be a nonempty composition of positive integers")
        if sum(self.parts) != body:
            raise UsageError(
                f"parts {self.parts} must sum to {body} for kind {self.kind}, rank {self.rank}"
            )
        if len(self.signs) != len(self.parts) or any(s not in (1, -1) for s in self.signs):
            raise UsageError("signs must be +-1, one per part")
        if self.kind == "A" and any(s != 1 for s in self.signs):
            raise UsageError("kind A admits only +1 signs")
        if self.kind != "D" and self.delta != "one":
            raise UsageError("a delta factor is only defined for kind D")
        if self.delta not in _DELTAS:
            raise UsageError(f"delta must be one of {_DELTAS}")

    def __str__(self) -> str:
        sgn = ",".join("+" if s > 0 else "-" for s in self.signs)
        tail = "" if self.delta == "one" else f";{self.delta}"
        return f"{self.kind}{self.rank}({','.join(map(str, self.parts))};{sgn}{tail})"


def gp_system(datum: GPDatum) -> RootSystem:
    """The paper5 system the representative lives in."""
    if datum.kind == "A":
        return build_root_system("A", datum.rank - 1, "paper5")
    return build_root_system(datum.kind, datum.rank, "paper5")


def _block_tokens(datum: GPDatum, start: int, size: int, sign: int) -> Tuple[str, ...]:
    """Generator-name tokens for one signed cycle.

    `start` is the number of coordinates consumed by earlier parts; for
    kind D the block coordinates sit shifted one to the right of the
    special coordinate.
    """
    if datum.kind in ("A", "B"):
        m, n = start + 1, start + size
    else:  # D
        m, n = start + 2, start + size + 1
    toks = tuple(f"s{i}" for i in range(m, n))
    if sign == -1:
        toks = (f"sp{start}",) + toks
    return toks


def gp_word_tokens(datum: GPDatum) -> Tuple[str, ...]:
    """Construction word as generator-name tokens (sp tokens unexpanded)."""
    toks: List[str] = []
    if datum.delta == "s1":
        toks.append("s1")
    elif datum.delta == "tprime":
        toks.append("tp")
    consumed = 0
    for size, sign in zip(datum.parts, datum.signs):
        toks.extend(_block_tokens(datum, consumed, size, sign))
        consumed += size
    return tuple(toks)


def gp_word(datum: GPDatum) -> Word:
    """Construction word for the representative (0-based positions).

    Not reduced in general — sign prefixes expand to conjugated
    reflections, and the delta factor is prepended verbatim.
    """
    return parse_word(gp_system(datum), gp_word_tokens(datum))


def _block_elems(datum: GPDatum, rs: RootSystem) -> List[WeylElem]:
    out = []
    consumed = 0
    for size, sign in zip(datum.parts, datum.signs):
        out.append(from_word(rs, _block_tokens(datum, consumed, size, sign)))
        consumed += size
    return out


_GP_ELEM_CACHE: Dict[GPDatum, WeylElem] = {}


def gp_element(datum: GPDatum) -> WeylElem:
    """The distinguished representative, word attached.

    The block factors act on disjoint coordinate sets (plus, with negative
    signs, the shared sign ladder) and must commute pairwise; this is
    asserted because the whole construction rests on it.
    """
    cached = _GP_ELEM_CACHE.get(datum)
    if cached is not None:
        return cached
    rs = gp_system(datum)
    blocks = _block_elems(datum, rs)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            a, b = blocks[i], blocks[j]
            if compose(a.perm, b.perm) != compose(b.perm, a.perm):
                raise AssertionError(f"blocks {i} and {j} of {datum} do not commute")
    out = identity_elem(rs)
    if datum.delta == "s1":
        out = from_word(rs, "s1")
    elif datum.delta == "tprime":
        out = from_word(rs, "tp")
    for blk in blocks:
        out = multiply(out, blk)
    _GP_ELEM_CACHE[datum] = out
    return out


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def gp_enumerate(kind: str, rank: int) -> List[GPDatum]:
    """All data for (kind, rank), in deterministic order.

    Compositions are listed first-part-descending; signs iterate +1 before
    -1 per coordinate; kind D data carry each of the three delta factors,
    uncollapsed (distinct data may define equal group elements).
    """
    if kind not in ("A", "B", "D"):
        raise UsageError(f"block representatives exist for kinds A, B, D, not {kind}")
    body = rank if kind in ("A", "B") else rank - 1
    if body < 1 or (kind == "A" and rank < 2) or (kind == "B" and rank < 2) or (
        kind == "D" and rank < 4
    ):
        raise UsageError(f"rank {rank} too small for kind {kind}")
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
