"""Finite crystallographic root systems in exact rational coordinates.

Each system is realized inside a fixed ambient Q^N with the classical
coordinate conventions, and carries two generator profiles:

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
:mod:`dlperiod.weyl` represents group elements.

>>> rs = build_root_system("A", 2)
>>> len(rs.positive_roots)
3
>>> build_root_system("B", 3, "paper5").gen_names
('t', 's1', 's2')
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from . import UsageError
from .linalg import Vector, dot, scale, sub, vec

__all__ = [
    "KINDS",
    "PROFILES",
    "LinearForm",
    "RootSystem",
    "build_root_system",
    "chamber_forms",
    "form_label",
    "parabolic_dim",
    "positive_root_count",
    "rank_vs_dim_table",
    "reflect",
    "weyl_order",
]

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


@dataclass(frozen=True)
class LinearForm:
    """A strict linear condition `coeffs . x > 0` with a human-readable label."""

    coeffs: Vector
    label: str = ""

    def evaluate(self, x: Vector) -> Q:
        return dot(self.coeffs, x)


def form_label(coeffs: Vector) -> str:
    """Render coefficients as a readable expression in x1..xN."""
    parts: list[str] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        term = f"x{i + 1}" if mag == 1 else f"{mag}*x{i + 1}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


@dataclass(frozen=True, eq=False)
class RootSystem:
    """An immutable root-system datum; obtain instances via build_root_system.

    Instances are interned by (kind, rank, profile), so identity comparison
    is safe and cheap.
    """

    kind: str
    rank: int
    profile: str
    ambient: int
    simple_roots: Tuple[Vector, ...]  # the profile's generator roots, in order
    gen_names: Tuple[str, ...]
    positive_roots: Tuple[Vector, ...]  # standard positive system, sorted
    pos_coords: Tuple[Vector, ...]  # coords of each positive root in the
    # standard simple basis (parallel to positive_roots)
    coxeter_positive_roots: Tuple[Vector, ...]  # positive system whose simple
    # roots are exactly `simple_roots`' reflections (differs from
    # positive_roots only for paper5 B/D)
    trace_zero: bool  # paper5-A chamber lives in the sum-zero hyperplane
    pos_set: FrozenSet[Vector] = field(repr=False, default=frozenset())
    neg_set: FrozenSet[Vector] = field(repr=False, default=frozenset())
    cox_pos_set: FrozenSet[Vector] = field(repr=False, default=frozenset())
    cox_neg_set: FrozenSet[Vector] = field(repr=False, default=frozenset())
    # root numbering (see the module docstring): index -> root, exact and doubled
    roots: Tuple[Vector, ...] = field(repr=False, default=())
    doubled: Tuple[Tuple[int, ...], ...] = field(repr=False, default=())
    # generator g sends root i to root gen_perms[g][i]
    gen_perms: Tuple[Tuple[int, ...], ...] = field(repr=False, default=())
    # index of each generator's simple root in the Coxeter-positive system
    base_idx: Tuple[int, ...] = field(repr=False, default=())
    # cox_positive[i]: root i lies in coxeter_positive_roots
    cox_positive: Tuple[bool, ...] = field(repr=False, default=())

    def __str__(self) -> str:
        return f"{self.kind}{self.rank}[{self.profile}]"


def reflect(x: Vector, alpha: Vector) -> Vector:
    """Reflection of x in the hyperplane orthogonal to alpha."""
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("reflect: zero root")
    return sub(x, scale(2 * dot(x, alpha) / aa, alpha))


def _standard_simples(kind: str, rank: int) -> Tuple[int, Tuple[Vector, ...]]:
    """Ambient dimension and the standard simple roots for (kind, rank)."""
    h = Q(1, 2)
    if kind == "A":
        n = rank + 1
        return n, tuple(
            vec([1 if j == i else -1 if j == i + 1 else 0 for j in range(n)])
            for i in range(rank)
        )
    if kind in ("B", "C", "D"):
        n = rank
        simples = [
            vec([1 if j == i else -1 if j == i + 1 else 0 for j in range(n)])
            for i in range(rank - 1)
        ]
        if kind == "B":
            simples.append(vec([0] * (n - 1) + [1]))
        elif kind == "C":
            simples.append(vec([0] * (n - 1) + [2]))
        else:
            simples.append(vec([0] * (n - 2) + [1, 1]))
        return n, tuple(simples)
    if kind == "E":
        first = tuple([h, -h, -h, -h, -h, -h, -h, h])
        second = vec([1, 1, 0, 0, 0, 0, 0, 0])
        rest = [
            vec([(-1 if j == i - 3 else 1 if j == i - 2 else 0) for j in range(8)])
            for i in range(3, 9)
        ]
        alls = (first, second, *rest)
        return 8, alls[:rank]
    if kind == "F":
        return 4, (
            vec([0, 1, -1, 0]),
            vec([0, 0, 1, -1]),
            vec([0, 0, 0, 1]),
            (h, -h, -h, -h),
        )
    # G2 in the sum-zero-friendly 3-coordinate model
    return 3, (vec([1, -1, 0]), vec([-2, 1, 1]))


def _paper5_simples(kind: str, rank: int) -> Tuple[Tuple[Vector, ...], Tuple[str, ...]]:
    """Generator roots + names for the paper5 profile (kinds A, B, D only)."""
    n_names = tuple(f"s{i}" for i in range(1, rank))
    if kind == "A":
        _, simples = _standard_simples("A", rank)
        return simples, tuple(f"s{i}" for i in range(1, rank + 1))
    chain = tuple(
        vec([1 if j == i else -1 if j == i + 1 else 0 for j in range(rank)])
        for i in range(rank - 1)
    )
    if kind == "B":
        extra = vec([1] + [0] * (rank - 1))
        return (extra, *chain), ("t", *n_names)
    # kind D
    extra = vec([1, 1] + [0] * (rank - 2))
    return (extra, *chain), ("tp", *n_names)


IntVector = Tuple[int, ...]


def _doubled(vs: Iterable[Vector]) -> Tuple[IntVector, ...]:
    return tuple(tuple(int(2 * x) for x in v) for v in vs)


def _fractions(rows: Iterable[IntVector], den: int) -> Tuple[Vector, ...]:
    """Integer rows divided by `den`, sharing one Fraction per distinct entry."""
    cache: dict = {}
    return tuple(
        tuple(cache[x] if x in cache else cache.setdefault(x, Q(x, den)) for x in r)
        for r in rows
    )


def _idot(a: IntVector, b: IntVector) -> int:
    return sum(x * y for x, y in zip(a, b))


def _orbit_closure(
    base: Sequence[IntVector],
) -> Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]]:
    """Positive roots of `base` and their coordinates over it, both sorted by
    (height, coordinates).

    Runs on doubled integer coordinates (every root lies in (1/2)Z^n), where
    the Cartan integer <r, a> = 2(r, a)/(a, a) is exact.  Every positive root
    is reached from a simple one by simple reflections that raise the
    height, so only steps with <r, a> < 0 are followed.
    """
    mirrors = [(a, _idot(a, a)) for a in base]
    unit = [tuple(int(i == j) for j in range(len(base))) for i in range(len(base))]
    found = dict(zip(base, unit))
    queue = list(base)
    while queue:
        r = queue.pop()
        c = found[r]
        for i, (a, aa) in enumerate(mirrors):
            k = 2 * _idot(r, a) // aa
            if k < 0:
                r2 = tuple(x - k * y for x, y in zip(r, a))
                if r2 not in found:
                    found[r2] = c[:i] + (c[i] - k,) + c[i + 1 :]
                    queue.append(r2)
    keyed = sorted(found.items(), key=lambda t: (sum(t[1]), t[1]))
    return tuple(r for r, _ in keyed), tuple(c for _, c in keyed)


def _reflection_perm(
    doubled: Sequence[IntVector], index: Dict[IntVector, int], a: IntVector
) -> Tuple[int, ...]:
    """The permutation of root indices induced by the reflection in `a`."""
    aa = _idot(a, a)
    out = []
    for r in doubled:
        k = 2 * _idot(r, a) // aa
        out.append(index[tuple(x - k * y for x, y in zip(r, a))])
    return tuple(out)


@lru_cache(maxsize=None)
def _root_table(kind: str, rank: int):
    """The root numbering of (kind, rank), shared by both profiles.

    Returns (ambient, standard simple roots, doubled roots by index, index
    of each doubled root, Fraction roots by index, simple-root coordinates
    of the positive roots).
    """
    ambient, std = _standard_simples(kind, rank)
    pos2, coords = _orbit_closure(_doubled(std))
    npos = positive_root_count(kind, rank)
    if len(pos2) != npos:
        raise AssertionError(
            f"{kind}{rank}: closure produced {2 * len(pos2)} roots, "
            f"expected {2 * npos}"
        )
    doubled = pos2 + tuple(tuple(-x for x in r) for r in pos2)
    index = {r: i for i, r in enumerate(doubled)}
    return ambient, std, doubled, index, _fractions(doubled, 2), _fractions(coords, 1)


def _normalize_kind(kind: str, rank) -> Tuple[str, int]:
    k = str(kind).strip().upper()
    if len(k) > 1:  # accept "E6", "G2", ... style
        body = k[1:]
        if k[0] not in KINDS or not body.isdigit():
            raise UsageError(f"unknown root-system kind {kind!r}")
        implied = int(body)
        if rank is not None and int(rank) != implied:
            raise UsageError(f"kind {kind!r} contradicts rank={rank}")
        return k[0], implied
    if k not in KINDS:
        raise UsageError(f"unknown root-system kind {kind!r}")
    if rank is None:
        raise UsageError(f"kind {k!r} needs an explicit rank")
    return k, int(rank)


@lru_cache(maxsize=None)
def _build_interned(kind: str, rank: int, profile: str) -> RootSystem:
    ambient, std, doubled, index, roots, coords = _root_table(kind, rank)
    npos = len(coords)
    pos = roots[:npos]

    if profile == "bourbaki":
        gens = std
        names = tuple(f"s{i}" for i in range(1, rank + 1))
        trace_zero = False
    else:
        gens, names = _paper5_simples(kind, rank)
        trace_zero = kind == "A"
    base = _doubled(gens)
    if profile == "paper5" and kind != "A":
        # the generators are the simple reflections of the base obtained by
        # flipping the extra root; positivity is recomputed against it
        base = (tuple(-x for x in base[0]), *base[1:])
        cox_idx = [index[r] for r in _orbit_closure(base)[0]]
    else:
        cox_idx = list(range(npos))
    cox_positive = [False] * (2 * npos)
    for i in cox_idx:
        cox_positive[i] = True

    return RootSystem(
        kind=kind,
        rank=rank,
        profile=profile,
        ambient=ambient,
        simple_roots=gens,
        gen_names=names,
        positive_roots=pos,
        pos_coords=coords,
        coxeter_positive_roots=tuple(roots[i] for i in cox_idx),
        trace_zero=trace_zero,
        pos_set=frozenset(pos),
        neg_set=frozenset(roots[npos:]),
        cox_pos_set=frozenset(roots[i] for i in cox_idx),
        cox_neg_set=frozenset(roots[(i + npos) % (2 * npos)] for i in cox_idx),
        roots=roots,
        doubled=doubled,
        gen_perms=tuple(_reflection_perm(doubled, index, a) for a in base),
        base_idx=tuple(index[a] for a in base),
        cox_positive=tuple(cox_positive),
    )


def build_root_system(kind: str, rank: int | None = None, profile: str = "bourbaki") -> RootSystem:
    """Construct (or fetch the interned copy of) a root system.

    `kind` is one of A..G, or a combined name like "E6"; `profile` is
    "bourbaki" or "paper5" (the latter only for kinds A, B, D).
    """
    k, r = _normalize_kind(kind, rank)
    lo, hi = _RANK_RANGE[k]
    if r < lo or (hi is not None and r > hi):
        top = hi if hi is not None else "inf"
        raise UsageError(f"rank {r} out of range [{lo}, {top}] for kind {k}")
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}")
    if profile == "paper5" and k not in ("A", "B", "D"):
        raise UsageError(f"profile 'paper5' is only defined for kinds A, B, D (got {k})")
    return _build_interned(k, r, profile)


def chamber_forms(rs: RootSystem) -> Tuple[LinearForm, ...]:
    """Strict forms cutting out the fundamental chamber of the profile's base.

    One form `(x, root) > 0` per generator root, in generator order.
    """
    return tuple(
        LinearForm(coeffs=root, label=form_label(root)) for root in rs.simple_roots
    )


def _check_nodes(rs: RootSystem, nodes) -> Tuple[int, ...]:
    if isinstance(nodes, int):
        nodes = (nodes,)
    out = sorted(set(int(i) for i in nodes))
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
    idx = [i - 1 for i in nodes]
    return sum(1 for c in rs.pos_coords if any(c[i] != 0 for i in idx))


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
