"""Finite crystallographic root systems in exact coordinates.

Each system is realized inside a fixed ambient Q^N with the classical
coordinate conventions.  Every root lies in (1/2)Z^N, so inside the
program a root is its doubled integer vector: the simple roots are written
doubled, and the closure, the Cartan integers and the generator
permutations run on integers.  A `RootSystem` stores integers only; its
`simple_roots`, `positive_roots`, `pos_coords` and `coxeter_positive_roots`
are Fraction tuples derived from them on each read, for display.  Each
system carries two generator profiles:

* ``bourbaki`` — the standard simple roots for each kind,
* ``paper5`` — an alternative presentation for kinds A, B, D whose first
  generator is the reflection in a *short extra* root (``t`` = reflection
  in e_1 for kind B, ``tp`` = reflection in e_1 + e_2 for kind D); kind A
  keeps the standard generators but marks the trace-zero chamber model.

Regardless of profile, ``positive_roots`` is always the standard positive
system; the profile only changes which reflections are the *generators*
(``simple_roots``/``gen_names``) and, for B/D, which positive system makes
those generators simple (``coxeter_positive_roots``, used by the word and
length machinery).

The roots of a (kind, rank) are numbered once, for both profiles: the
standard positive roots in `positive_roots` order take indices 0..N-1 and
their negatives N..2N-1, in the same order.  Each generator is stored as the
permutation it induces on these indices (`gen_perms`), which is how
:mod:`dlperiod.weyl` represents group elements.  One closure per base
finds the positive roots and the pairs each simple reflection swaps; a
reflection commutes with negation, so the image of root i + N is the
negative of the image of root i, N indices away.

>>> rs = build_root_system("A", 2)
>>> len(rs.positive_roots)
3
>>> build_root_system("B", 3, "paper5").gen_names
('t', 's1', 's2')
>>> build_root_system("B", 3, "paper5").simple_roots[0]
(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))
"""
from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import chain
from operator import mul, sub
from typing import Iterable, Mapping, Sequence, Tuple

from . import UsageError

__all__ = [
    "KINDS",
    "PROFILES",
    "RootSystem",
    "build_root_system",
    "normalize_kind",
    "parabolic_dim",
    "positive_root_count",
    "rank_vs_dim_table",
    "weyl_order",
]

IntVector = Tuple[int, ...]
Vector = Tuple[Q, ...]

KINDS = ("A", "B", "C", "D", "E", "F", "G")
PROFILES = ("bourbaki", "paper5")

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def positive_root_count(kind: str, rank: int) -> int:
    """Number of positive roots (closed form, used as a build sanity check)."""
    if kind == "A":
        return rank * (rank + 1) // 2
    if kind in ("B", "C"):
        return rank * rank
    if kind == "D":
        return rank * (rank - 1)
    if kind == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if kind == "F":
        return 24
    return 6  # G2


def weyl_order(kind: str, rank: int) -> int:
    """Order of the full reflection group."""
    fact = 1
    for i in range(2, rank + 2):
        fact *= i
    if kind == "A":
        return fact  # (rank+1)!
    fact_r = fact // (rank + 1)  # rank!
    if kind in ("B", "C"):
        return fact_r * 2**rank
    if kind == "D":
        return fact_r * 2 ** (rank - 1)
    if kind == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if kind == "F":
        return 1152
    return 12  # G2


class RootSystem:
    """An immutable root-system datum; obtain instances via build_root_system.

    Instances are interned by (kind, rank, profile), so identity comparison
    is safe and cheap.  No slot holds a Fraction: the Fraction views below
    are derived from the integer data on each read.
    """

    __slots__ = (
        "kind",
        "rank",
        "profile",
        "ambient",
        "gen_names",
        "int_coords",  # coords of each positive root in the standard simple basis
        "trace_zero",  # paper5-A chamber lives in the sum-zero hyperplane
        "doubled",  # root numbering (see the module docstring): index -> doubled root
        "gen_perms",  # generator g sends root i to root gen_perms[g][i]
        "base_idx",  # index of each generator's simple root in the Coxeter-positive system
        "cox_positive",  # cox_positive[i]: root i lies in coxeter_positive_roots
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"RootSystem is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RootSystem is read-only; cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"RootSystem(kind={self.kind!r}, rank={self.rank}, profile={self.profile!r})"

    def __str__(self) -> str:
        return f"{self.kind}{self.rank}[{self.profile}]"

    @property
    def positive_roots(self) -> Tuple[Vector, ...]:
        """The standard positive roots, sorted."""
        return _fractions(self.doubled[: len(self.int_coords)], 2)

    @property
    def pos_coords(self) -> Tuple[Vector, ...]:
        """`int_coords` as Fractions, parallel to `positive_roots`."""
        return _fractions(self.int_coords, 1)

    @property
    def simple_roots(self) -> Tuple[Vector, ...]:
        """The profile's generator roots, in order; paper5 B/D store the
        flipped extra root, shown here by its positive twin."""
        return _fractions([self.doubled[i % len(self.int_coords)] for i in self.base_idx], 2)

    @property
    def coxeter_positive_roots(self) -> Tuple[Vector, ...]:
        """The positive system whose simple reflections are the generators
        (differs from `positive_roots` only for paper5 B/D)."""
        return _fractions(_closure([self.doubled[i] for i in self.base_idx])[0], 2)


def _chain(n: int, count: int) -> Tuple[IntVector, ...]:
    """Doubled e_i - e_{i+1} for i < count, in an n-dimensional ambient."""
    return tuple(
        tuple(2 if j == i else -2 if j == i + 1 else 0 for j in range(n))
        for i in range(count)
    )


def _standard_simples(kind: str, rank: int) -> Tuple[int, Tuple[IntVector, ...]]:
    """Ambient dimension and the doubled standard simple roots for (kind, rank)."""
    if kind == "A":
        return rank + 1, _chain(rank + 1, rank)
    if kind in ("B", "C", "D"):
        last = {"B": (0, 2), "C": (0, 4), "D": (2, 2)}[kind]
        return rank, (*_chain(rank, rank - 1), (0,) * (rank - 2) + last)
    if kind == "E":
        first = (1, -1, -1, -1, -1, -1, -1, 1)
        second = (2, 2, 0, 0, 0, 0, 0, 0)
        rest = [
            tuple(-2 if j == i - 3 else 2 if j == i - 2 else 0 for j in range(8))
            for i in range(3, 9)
        ]
        return 8, (first, second, *rest)[:rank]
    if kind == "F":
        return 4, ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))
    # G2 in the sum-zero-friendly 3-coordinate model
    return 3, ((2, -2, 0), (-4, 2, 2))


def _paper5_base(kind: str, rank: int) -> Tuple[Tuple[IntVector, ...], Tuple[str, ...]]:
    """Doubled base, extra root flipped, + generator names for paper5 kinds B, D."""
    n_names = tuple(f"s{i}" for i in range(1, rank))
    chain = _chain(rank, rank - 1)
    if kind == "B":
        return ((-2,) + (0,) * (rank - 1), *chain), ("t", *n_names)
    # kind D
    return ((-2, -2) + (0,) * (rank - 2), *chain), ("tp", *n_names)


def _fractions(rows: Sequence[IntVector], den: int) -> Tuple[Vector, ...]:
    """Integer rows divided by `den`, sharing one Fraction per distinct entry."""
    cache = {x: Q(x, den) for x in set(chain.from_iterable(rows))}
    return tuple(tuple(map(cache.__getitem__, r)) for r in rows)


def _closure(base: Sequence[IntVector]):
    """Positive roots of `base` sorted by (height, coordinates), as doubled
    vectors and as coordinates over `base`, and the pairs of positive roots
    each simple reflection swaps.

    Each positive root is reached from a simple one by simple reflections
    that raise its height (Bourbaki, Lie Groups, Ch. VI, 1.6).  A root
    carries its pairings with the simple coroots: a step r -> r - k a_i,
    k = <r, a_i^v> < 0, subtracts k times Cartan row i from them and k a_i
    from r, both made once for k = -1, -2, -3.  s_i swaps the ends of each
    step, negates a_i and fixes the roots with k = 0; the rest top a step.
    """
    norms = [sum(map(mul, b, b)) for b in base]
    cartan = [[2 * sum(map(mul, a, b)) // bb for b, bb in zip(base, norms)] for a in base]
    steps = [{k: (tuple(k * x for x in a), tuple(k * x for x in row)) for k in (-1, -2, -3)}
             for a, row in zip(base, cartan)]
    unit = [tuple(int(i == j) for j in range(len(base))) for i in range(len(base))]
    found = {a: (c, tuple(row)) for a, c, row in zip(base, unit, cartan)}
    swaps = [[] for _ in base]
    queue = list(base)
    while queue:
        r = queue.pop()
        c, pairing = found[r]
        for i, k in enumerate(pairing):
            if k < 0:
                ka, krow = steps[i][k]
                r2 = tuple(map(sub, r, ka))
                swaps[i].append((r, r2))
                if r2 not in found:
                    found[r2] = (c[:i] + (c[i] - k,) + c[i + 1 :], tuple(map(sub, pairing, krow)))
                    queue.append(r2)
    keyed = sorted(found.items(), key=lambda t: (sum(t[1][0]), t[1][0]))
    return tuple(r for r, _ in keyed), tuple(c for _, (c, _) in keyed), swaps


def _gen_perms(base: Sequence[IntVector], swaps, index: Mapping[IntVector, int]):
    """The reflection in each root of `base` as a permutation of root
    indices, from its `_closure` swaps; every entry is one of index's ints."""
    ids = tuple(index.values())
    neg = ids[len(ids) // 2 :] + ids[: len(ids) // 2]
    perms = []
    for a, pairs in zip(base, swaps):
        perm = list(ids)
        b = index[a]
        perm[b], perm[neg[b]] = neg[b], b
        for r, r2 in pairs:
            i, j = index[r], index[r2]
            perm[i], perm[j], perm[neg[i]], perm[neg[j]] = j, i, neg[j], neg[i]
        perms.append(tuple(perm))
    return tuple(perms)


@lru_cache(maxsize=None)
def _root_table(kind: str, rank: int):
    """The root numbering of (kind, rank), shared by both profiles: (ambient,
    doubled standard simple roots, their `_closure` swaps, doubled roots by
    index, index of each doubled root, simple-root coordinates of the
    positive roots)."""
    ambient, std = _standard_simples(kind, rank)
    pos2, coords, swaps = _closure(std)
    npos = positive_root_count(kind, rank)
    if len(pos2) != npos:
        raise AssertionError(
            f"{kind}{rank}: closure produced {2 * len(pos2)} roots, "
            f"expected {2 * npos}"
        )
    doubled = pos2 + tuple(tuple(-x for x in r) for r in pos2)
    index = dict(zip(doubled, range(2 * npos)))
    return ambient, std, swaps, doubled, index, coords


def _rank(rank) -> int:
    """An integer rank from an int or a decimal string; anything else raises
    UsageError, so a float is never truncated and a bool is no rank."""
    if isinstance(rank, (int, str)) and not isinstance(rank, bool):
        try:
            return int(rank)
        except ValueError:
            pass
    raise UsageError(f"rank {rank!r} is not an integer")


def normalize_kind(kind: str, rank) -> Tuple[str, int]:
    """(kind letter, rank) from a kind letter and a rank, or from a combined
    name like "E6" with the rank omitted or equal; raises UsageError."""
    k = str(kind).strip().upper()
    if len(k) > 1:  # accept "E6", "G2", ... style
        body = k[1:]
        if k[0] not in KINDS or not body.isdigit():
            raise UsageError(f"unknown root-system kind {kind!r}")
        implied = int(body)
        if rank is not None and _rank(rank) != implied:
            raise UsageError(f"kind {kind!r} contradicts rank={rank}")
        return k[0], implied
    if k not in KINDS:
        raise UsageError(f"unknown root-system kind {kind!r}")
    if rank is None:
        raise UsageError(f"kind {k!r} needs an explicit rank")
    return k, _rank(rank)


@lru_cache(maxsize=None)
def _build_interned(kind: str, rank: int, profile: str) -> RootSystem:
    ambient, base, swaps, doubled, index, coords = _root_table(kind, rank)
    npos = len(coords)
    names = tuple(f"s{i}" for i in range(1, rank + 1))
    cox_idx = range(npos)
    if profile == "paper5" and kind != "A":
        # the generators are the simple reflections of the base obtained by
        # flipping the extra root; positivity is recomputed against it
        base, names = _paper5_base(kind, rank)
        pos5, _, swaps = _closure(base)
        cox_idx = [index[r] for r in pos5]
    cox_positive = [False] * (2 * npos)
    for i in cox_idx:
        cox_positive[i] = True

    return RootSystem(
        kind=kind,
        rank=rank,
        profile=profile,
        ambient=ambient,
        gen_names=names,
        int_coords=coords,
        trace_zero=profile == "paper5" and kind == "A",
        doubled=doubled,
        gen_perms=_gen_perms(base, swaps, index),
        base_idx=tuple(index[a] for a in base),
        cox_positive=tuple(cox_positive),
    )


def build_root_system(kind: str, rank: int | None = None, profile: str = "bourbaki") -> RootSystem:
    """Construct (or fetch the interned copy of) a root system.

    `kind` is one of A..G, or a combined name like "E6"; `profile` is
    "bourbaki" or "paper5" (the latter only for kinds A, B, D).
    """
    k, r = normalize_kind(kind, rank)
    lo, hi = _RANK_RANGE[k]
    if r < lo or (hi is not None and r > hi):
        top = hi if hi is not None else "inf"
        raise UsageError(f"rank {r} out of range [{lo}, {top}] for kind {k}")
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}")
    if profile == "paper5" and k not in ("A", "B", "D"):
        raise UsageError(f"profile 'paper5' is only defined for kinds A, B, D (got {k})")
    return _build_interned(k, r, profile)


def _check_nodes(rs: RootSystem, nodes) -> Tuple[int, ...]:
    nodes = tuple(nodes) if isinstance(nodes, Iterable) else (nodes,)
    for i in nodes:
        if type(i) is not int:
            raise UsageError(f"node {i!r} is not an integer")
    out = sorted(set(nodes))
    for i in out:
        if not 1 <= i <= rs.rank:
            raise UsageError(f"node {i} out of range 1..{rs.rank}")
    return tuple(out)


def parabolic_dim(rs: RootSystem, removed: Iterable[int]) -> int:
    """Positive roots supported on at least one removed node.

    Counts beta > 0 whose coordinate at some removed simple root is nonzero;
    equivalently the dimension of the partial flag variety obtained by
    deleting those nodes.  Standard-profile systems only.
    """
    if rs.profile != "bourbaki":
        raise UsageError("parabolic_dim expects the standard (bourbaki) profile")
    nodes = _check_nodes(rs, removed)
    cols = list(zip(*rs.int_coords))
    return sum(map(any, zip(*(cols[i - 1] for i in nodes))))


def rank_vs_dim_table(rs: RootSystem) -> Tuple[Tuple[int, int, int, bool], ...]:
    """Per-node table (node, dim of the maximal parabolic quotient, dim - rank,
    dim == rank) for single-node removal."""
    if rs.profile != "bourbaki":
        raise UsageError("rank_vs_dim_table expects the standard (bourbaki) profile")
    rows = []
    for i in range(1, rs.rank + 1):
        d = parabolic_dim(rs, (i,))
        rows.append((i, d, d - rs.rank, d == rs.rank))
    return tuple(rows)
