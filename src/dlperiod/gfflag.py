"""Flag walks, relative position, and point counts over the fields of
:mod:`dlperiod.gffield`.

Flags of a type are walked depth first (``_walk``).  A node at depth k
lifts reduced-echelon rows through the coordinates that are not pivots
of V_{k-1}; the lifted rows already have distinct pivots, so they extend
the state of V_{k-1} to that of V_k without any reduction, and each
flag is produced exactly once.  Every node hands its subtree whatever
state the counter carries, so no leaf reduces its whole flag again.
Walks take no cap: callers check the cap before they walk, by the one
cap rule of the package (an int cap; CapacityError naming the count or
a bound on it).  The counts check the flag cap too, although none of
them walks a flag, and check GF(q^e) by the field rules without building
it (``gffield._extension_order``), since none does field arithmetic.  A
family whose big Bruhat cell alone passes 2^16 bits is refused on that
cell's size before its exact count, which costs about the square of its
bits, is formed.  The flag-at-a-time oracles
(``rref``, ``enumerate_flags``, ``relative_position``, ``semistable``)
live in the test suite and walk the flags with ``_walk``.

Permutations are one-line tuples of 0-based images.  A word for one is
read in S_n = W(A_{n-1}) by :mod:`dlperiod.weyl`, with its grammar, and
the one-line form is read off the images of the simple roots
(``perm_from_word``, ``coxeter_perm``).

Three counters are exposed:

* ``dl_point_count`` — complete flags whose relative position against
  their q-power Frobenius image is a prescribed permutation w, the points
  of the Deligne-Lusztig variety X(w) over GF(Q), Q = q^e.  Each w of S_n
  is reduced by cyclic shifts x -> s x s that never raise the length
  (``conjclass.reduce_to_minimal``).  A shift of equal length keeps the
  count; one that drops the length by two gives #X(x) = Q #X(sxs) +
  (Q - 1) #X(sx) (Deligne-Lusztig, Ann. of Math. 103 (1976), Thm 1.6).
  The chain ends at an element of least length in its class
  (Geck-Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
  Algebras (2000), Thm 3.2.9), in S_n a Coxeter element of the standard
  Levi whose blocks, of sizes mu, are its minimal stable intervals; it
  has [n; mu]_q prod_blocks prod_{i=1}^{m-1} (Q - q^i) points, the
  rational parabolics of that type times Drinfeld's count on each block.
  No field arithmetic is done, and the group walk refuses S_n past the
  default cap (n >= 10);
* ``omega_point_count`` — projective points avoiding every hyperplane
  rational over the q-element subfield, used to cross-identify the
  distinguished cell of the first counter: the points with
  GF(q)-independent coordinates, prod_{i=1}^{n-1} (Q - q^i) of them (the
  test suite keeps the point-by-point enumeration as its oracle);
* ``period_point_count`` — flags of a fixed type that are semistable for
  a weakly decreasing integer vector: no rational subspace U has slope
  above the total.  Both caps (flags, then rational subspaces) are checked
  first, so the count refuses what a walk would, although it visits no
  flag: one Harder-Narasimhan recursion over the sub-multisets of the
  weights gives every type in integer arithmetic.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, combinations, product as iproduct
from math import prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import DEFAULT_CAP, UsageError, _check_power, _check_size
from .conjclass import reduce_to_minimal
from .gffield import (
    Field,
    State,
    _Order,
    _VALUES,
    _extension_order,
    build_extension,
    field_build,
    prime_power,
    rational_scalars,
)
from .rootsys import RootSystem, build_root_system
from .weyl import (
    WeylElem,
    compose,
    coxeter_length,
    coxeter_standard,
    enumerate_group,
    from_word,
)

__all__ = [
    "Cochar",
    "Field",
    "build_extension",
    "complete_dims",
    "coxeter_perm",
    "dl_point_count",
    "dl_point_tally",
    "field_build",
    "flag_count",
    "gaussian_binomial",
    "omega_point_count",
    "perm_from_word",
    "period_point_count",
    "prime_power",
    "rational_scalars",
]

# ---------------------------------------------------------------------------
# flags


def complete_dims(n: int) -> Tuple[int, ...]:
    return tuple(range(1, n))


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


def _flag_dim(n: int, dims: Sequence[int]) -> int:
    """Dimension of the variety of flags of type dims in an n-space:
    (n^2 - sum of the squared block sizes) / 2."""
    blocks = [b - a for a, b in zip((0, *dims), (*dims, n))]
    return (n * n - sum(b * b for b in blocks)) // 2


def _check_cap(fld: Union[Field, _Order], n: int, dims: Tuple[int, ...], cap: int) -> None:
    """Refuse more flags of type dims than cap over fld, a field or its
    order.  The big Bruhat cell alone has Q^dim of them, dim that of the
    flag variety, a bound checked first."""
    template = "flag family of type {dims} in dimension {n} over {fld!r} has {size} members"
    fields = dict(dims=dims, n=n, fld=fld)
    _check_power(fld.size, _flag_dim(n, dims), cap, template, **fields)
    _check_size(flag_count(n, dims, fld.size), cap, template, **fields)


def _walk(fld: Field, n: int, dims: Tuple[int, ...], enter, root) -> Iterator:
    """Depth first over every flag of type dims; callers check the cap.

    At depth k the node's new rows, lifted through the non-pivot
    coordinates of V_{k-1}, extend its state to that of V_{dims[k]};
    ``enter(k, rows, state, ctx)`` turns the parent's context into the
    node's, which its whole subtree shares.  Yields the leaves' contexts.
    """
    if not dims:
        yield root
        return
    pool = _VALUES[:fld.size]
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


# ---------------------------------------------------------------------------
# relative position


def _one_line(w: WeylElem) -> Tuple[int, ...]:
    """The one-line form (0-based images) of w in A_{n-1}, standard profile:
    w(e_j - e_{j+1}) = e_{w(j)} - e_{w(j+1)}, so the images of the simple
    roots chain the images of 0, 1, ..., n-1."""
    images = [w.rs.doubled[w.perm[i]] for i in w.rs.base_idx]
    return tuple(r.index(2) for r in images) + (images[-1].index(-2),)


def _symmetric(n: int) -> RootSystem:
    """A_{n-1}, whose Weyl group is S_n, for an int n >= 2."""
    return build_root_system("A", _check_dimension(n) - 1)


def perm_from_word(n: int, word: Union[str, Sequence[Union[int, str]]]) -> Tuple[int, ...]:
    """One-line form (0-based images) of a word in S_n = W(A_{n-1}).

    Words are read by :func:`dlperiod.weyl.from_word`: tokens ``s1 ..
    s{n-1}``, 1-based positions as ints or digits, and the empty ``sp<k>``;
    the rightmost letter acts first.  No cap is checked: each new n builds
    A_{n-1}, O(n^3) work (about 0.15 s at n = 80 and 1 s at n = 150 on a
    2-vCPU host), and keeps it in the root-system cache, which has no
    bound.  The counts check their caps before they read a word.
    """
    return _one_line(from_word(_symmetric(n), word))


def coxeter_perm(n: int) -> Tuple[int, ...]:
    """One-line form of s1 s2 ... s{n-1}: (1, 2, ..., n-1, 0).  Uncapped,
    at the cost of :func:`perm_from_word`: A_{n-1} built once per n and kept."""
    return _one_line(coxeter_standard(_symmetric(n)))


def _normalize_perm(n: int, w: Union[str, Sequence[int]]) -> Tuple[int, ...]:
    if isinstance(w, str):
        return perm_from_word(n, w)
    out = _sequence(w, "a permutation")
    if not all(type(x) is int for x in out) or sorted(out) != list(range(n)):
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


# ---------------------------------------------------------------------------
# point counts


def _check_dimension(n: int) -> int:
    if type(n) is not int or n < 2:
        raise UsageError(f"ambient dimension must be an integer >= 2, got {n!r}")
    return n


def _cell(n: int, q: int, e: int) -> _Order:
    """GF(q^e), checked but not built, for a count on an n-space, n an int
    >= 2: no count does field arithmetic."""
    _check_dimension(n)
    return _extension_order(q, e)


@lru_cache(maxsize=16)
def _dl_tally_cached(n: int, q: int, e: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    size = q**e
    counts: Dict[Tuple[int, ...], int] = {}  # #X(w) by the root permutation of w

    def count(w: WeylElem) -> int:
        if w.perm in counts:
            return counts[w.perm]
        chain = reduce_to_minimal(w)
        # the terminal is a Coxeter element of the standard Levi whose blocks
        # are its minimal stable intervals: [n; blocks]_q rational parabolics
        # of that type, times Drinfeld's count on each block
        tops = accumulate(_one_line(chain.terminal), max)
        cuts = [i for i, top in enumerate(tops, 1) if top < i]
        blocks = [b - a for a, b in zip([0] + cuts, cuts)]
        found = flag_count(n, cuts[:-1], q) * prod(
            size - q**i for m in blocks for i in range(1, m)
        )
        counts[chain.terminal.perm] = found
        for step in reversed(chain.steps):  # back from the terminal, by DL 1.6
            x = step.source
            if coxeter_length(step.target) < coxeter_length(x):
                sx = WeylElem(x.rs, compose(x.rs.gen_perms[step.gen], x.perm))
                found = size * found + (size - 1) * count(sx)
            counts[x.perm] = found
        return found

    tally = ((_one_line(w), count(w)) for w in enumerate_group(_symmetric(n)))
    return tuple(sorted((perm, c) for perm, c in tally if c))


def dl_point_tally(n: int, q: int, e: int, cap: int = DEFAULT_CAP) -> Dict[Tuple[int, ...], int]:
    """Count complete flags by relative position with their q-Frobenius image.

    Keys are 0-based one-line permutations; values sum to the number of
    complete flags over GF(q^e).  The cap is checked before the cached
    call, so the cache holds one entry per (n, q, e) whatever the cap."""
    _check_cap(_cell(n, q, e), n, complete_dims(n), cap)
    return dict(_dl_tally_cached(n, q, e))


def dl_point_count(
    n: int, q: int, e: int, w: Union[str, Sequence[int]], cap: int = DEFAULT_CAP
) -> int:
    """Number of complete flags at relative position w from their image.

    The cap is checked before w is read: a word is read in A_{n-1}, whose
    root system grows as n^2, and every n the cap admits is small.  A
    raised cap that admits n >= 10 is refused on the order of S_n."""
    _check_cap(_cell(n, q, e), n, complete_dims(n), cap)
    perm = _normalize_perm(n, w)
    return dict(_dl_tally_cached(n, q, e)).get(perm, 0)


def omega_point_count(n: int, q: int, e: int, cap: int = DEFAULT_CAP) -> int:
    """Projective points over GF(q^e) avoiding all GF(q)-rational hyperplanes.

    A point lies on one exactly when a nonzero GF(q)-combination of its
    coordinates vanishes, so Omega is the set of points whose coordinates
    are GF(q)-linearly independent.  Such a point has x_1 != 0; scaled to
    x_1 = 1, each later x_i is one of the Q - q^(i-1) values off the span
    of those before it (Q = q^e), hence prod_{i=1}^{n-1} (Q - q^i) points,
    counted with no field arithmetic.  The point caps are checked first.
    ``omega_by_points`` in the test suite enumerates the points instead."""
    fld = _cell(n, q, e)
    size = fld.size
    template = "projective space over {fld!r} has {size} points"
    _check_power(size, n - 1, cap, template, fld=fld)  # Q^(n-1) of them have x_1 = 1
    _check_size((size**n - 1) // (size - 1), cap, template, fld=fld)
    return prod(size - q**i for i in range(1, n))


# ---------------------------------------------------------------------------
# semistability


class Cochar(namedtuple("Cochar", "nu")):
    """Tuple `nu` of weakly decreasing integer vectors, one per group factor.
    Entries must be ints; a bool is no entry."""

    __slots__ = ()

    def __new__(cls, nu: Tuple[Tuple[int, ...], ...]):
        if not nu:
            raise UsageError("empty cocharacter")
        lens = {len(v) for v in nu}
        if len(lens) != 1:
            raise UsageError(f"cocharacter factors of unequal lengths {sorted(lens)}")
        for v in nu:
            if not v:
                raise UsageError("empty cocharacter factor")
            if not all(isinstance(a, int) and not isinstance(a, bool) for a in v):
                raise UsageError("cocharacter entries must be integers")
            if any(a < b for a, b in zip(v, v[1:])):
                raise UsageError(f"cocharacter factor {v} is not weakly decreasing")
        return super().__new__(cls, nu)

    @property
    def t(self) -> int:
        return len(self.nu)

    @property
    def n(self) -> int:
        return len(self.nu[0])


def cochar(*vectors) -> Cochar:
    """Cochar from one vector, one sequence of vectors, or several vectors:
    cochar((1,0,0)), cochar([(1,0),(2,2)]) or cochar((1,0),(2,2)).  A
    Cochar is returned as it is."""
    if len(vectors) == 1:
        if isinstance(vectors[0], Cochar):
            return vectors[0]
        one = _sequence(vectors[0], "a cocharacter vector")
        vectors = one if one and isinstance(one[0], (tuple, list)) else (one,)
    return Cochar(nu=tuple(_sequence(v, "a cocharacter vector") for v in vectors))


def _sequence(v, what: str) -> tuple:
    try:
        return tuple(v)
    except TypeError:
        raise UsageError(f"{what} must be a sequence, got {v!r}") from None


def _single_nu(nu) -> Tuple[int, ...]:
    cc = cochar(nu)
    if cc.t != 1:
        raise UsageError("this operation takes a single-factor cocharacter")
    return cc.nu[0]


def nu_jump_dims(nu: Sequence[int]) -> Tuple[int, ...]:
    """Positions where the weakly decreasing vector strictly drops."""
    return tuple(i + 1 for i in range(len(nu) - 1) if nu[i] > nu[i + 1])


def _check_subspace_cap(n: int, q: int, cap: int) -> None:
    count = sum(gaussian_binomial(n, d, q) for d in range(1, n))
    _check_size(count, cap, "GF({q})^{n} has {size} rational proper subspaces", q=q, n=n)


def period_point_count(nu, q: int, e: int, cap: int = DEFAULT_CAP) -> int:
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
    r >= 2.  Both caps are checked first, although no flag is visited; the
    trivial flag of a constant nu is checked against the flag cap alone.
    """
    vnu = _single_nu(nu)
    fld = _extension_order(q, e)
    n = len(vnu)
    dims = nu_jump_dims(vnu)
    _check_cap(fld, n, dims, cap)
    if not dims:
        return 1  # the trivial flag, vacuously semistable
    _check_subspace_cap(n, q, cap)
    # a piece is its multiplicities over the distinct values, highest first
    values = sorted(set(vnu), reverse=True)

    @lru_cache(maxsize=None)
    def count(m: Tuple[int, ...], bound: Optional[Tuple[int, int]]) -> int:
        """Flags on a rational space carrying the weights m whose HN pieces
        have means below bound = (weight sum, dimension); for bound None,
        the semistable flags."""
        if not any(m):
            return 1
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
        return split

    return count(tuple(vnu.count(v) for v in values), None)
