"""Classification driver over products of projective linear factors.

A group datum is `t` copies of PGL_n treated as one group whose factors
are cyclically rotated by the twist; its combined element is a tuple of
symmetric-group elements, its cocharacter a tuple of weakly decreasing
integer vectors.  The verdict chain applies three tests in a fixed order:

(a) the word length must equal the dimension of the attached space,
(b) the length must not exceed the (diagonal) rank n-1, and
(c) the element must be a twisted Coxeter element: its factors' reduced
    words, pooled, use each generator orbit exactly once.

Every nonscalar factor has dimension >= n-1, with equality only for the
two minuscule end shapes (x, y, ..., y) and (x, ..., x, y).  So once (a)
and (b) pass, the dimension is n-1 and exactly one factor is nonscalar,
of end shape; the chain asserts this rather than testing it.

Survivors are the Drinfeld-type cases; everything else is excluded with
the first failing test as the reason.  The chain reads only the total
length, the number of generators the pooled supports cover, and one
(dim, side) pair per cocharacter factor, so one function `_verdict` decides
every case.  The exhaustive scan enumerates all (w, nu) pairs below the
given bounds: it computes (reduced word, length, support) once per group
element and (dim, side) once per weakly decreasing vector, and joins them
per record.  It raises CapacityError before building anything when the
record count exceeds `dlperiod.DEFAULT_CAP`.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product as iproduct
from math import comb, factorial
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import DEFAULT_CAP, UsageError, _check_size
from .gffield import _checked_prime_power
from .gfflag import Cochar, _flag_dim, _symmetric, cochar, nu_jump_dims
from .weyl import WeylElem, enumerate_group, reduced_word, word_names

__all__ = [
    "GroupSpec",
    "ScanRecord",
    "Verdict",
    "classification_scan",
    "pd_dimension",
    "res_coxeter_check",
    "theorem_verdict",
]


class GroupSpec(namedtuple("GroupSpec", "n t", defaults=(1,))):
    """t rotated factors, each projective linear of degree n (split form)."""

    __slots__ = ()

    def __new__(cls, n: int, t: int = 1):
        if type(n) is not int or n < 2:
            raise UsageError(f"factor degree must be >= 2, got {n}")
        if type(t) is not int or t < 1:
            raise UsageError(f"factor count must be >= 1, got {t}")
        return super().__new__(cls, n, t)

    @property
    def rank(self) -> int:
        return self.n - 1


class Verdict(namedtuple("Verdict", "outcome reason n t side chain", defaults=(None, ()))):
    """`outcome` is "drinfeld_case" or "excluded"; `side` is "lower" or
    "upper" for a drinfeld_case, else None; `chain` holds (test, value)
    pairs."""

    __slots__ = ()

    @property
    def is_case(self) -> bool:
        return self.outcome == "drinfeld_case"

    def chain_dict(self) -> Dict[str, int]:
        return dict(self.chain)


def _normalize_ws(spec: GroupSpec, ws) -> Tuple[WeylElem, ...]:
    tup = (ws,) if isinstance(ws, WeylElem) else tuple(ws)
    if len(tup) != spec.t:
        raise UsageError(f"expected {spec.t} factor elements, got {len(tup)}")
    rs = _symmetric(spec.n)
    for w in tup:
        if not isinstance(w, WeylElem) or w.rs is not rs:
            got = w if isinstance(w, WeylElem) else repr(w)
            raise UsageError(f"factor elements must come from {rs}; got {got}")
    return tup


def _normalize_nu(spec: GroupSpec, nu) -> Cochar:
    cc = cochar(nu)
    if cc.t != spec.t:
        raise UsageError(f"expected {spec.t} cocharacter factors, got {cc.t}")
    if cc.n != spec.n:
        raise UsageError(f"cocharacter length {cc.n} does not match degree {spec.n}")
    return cc


def _elem_stats(w: WeylElem) -> Tuple[Tuple[str, ...], int, FrozenSet[int]]:
    """(reduced word as names, length, support) of one factor element."""
    rw = reduced_word(w)
    return word_names(w.rs, rw), len(rw), frozenset(rw)


def _pooled(stats) -> Tuple[int, int]:
    """Total length of the factors, and how many generators their supports
    cover together; `stats` holds one (word, length, support) per factor."""
    lw, covered = 0, set()
    for _, length, supp in stats:
        lw += length
        covered |= supp
    return lw, len(covered)


def _nu_stats(v: Tuple[int, ...]) -> Tuple[int, Optional[str]]:
    """(dim, side) of one weakly decreasing vector.

    dim is that of its partial flag variety, 0 when the vector is scalar.
    side is 'lower' for shape (x, y, ..., y), 'upper' for (x, ..., x, y)
    with x > y, None otherwise; for n = 2 the shapes coincide and count as
    lower."""
    n = len(v)
    jumps = nu_jump_dims(v)
    side = "lower" if jumps == (1,) else "upper" if jumps == (n - 1,) else None
    return _flag_dim(n, jumps), side


def pd_dimension(spec: GroupSpec, nu) -> int:
    """Dimension of the space attached to nu: scalar factors contribute 0,
    every other factor the dimension of its partial flag variety."""
    return sum(_nu_stats(v)[0] for v in _normalize_nu(spec, nu).nu)


def res_coxeter_check(spec: GroupSpec, ws) -> bool:
    """Twisted Coxeter test for the rotated product.

    True iff the factor lengths sum to n-1 and the pooled reduced words
    hit every generator orbit exactly once (each orbit crosses the t
    factors, so pooling is the right notion of "once").
    """
    lw, covered = _pooled(_elem_stats(w) for w in _normalize_ws(spec, ws))
    return lw == covered == spec.n - 1


@lru_cache(maxsize=None)
def _verdict(
    n: int, t: int, lw: int, covered: int, nus: Tuple[Tuple[int, Optional[str]], ...]
) -> Verdict:
    """The verdict chain on total length lw, `covered` generators and one
    (dim, side) pair per cocharacter factor.  Cached: records with equal
    inputs share one (frozen) Verdict."""
    r0 = n - 1
    dim = sum(d for d, _ in nus)
    sides = [s for d, s in nus if d]  # one per nonscalar factor
    t1 = len(sides)
    chain = (
        ("length", lw),
        ("dim", dim),
        ("rank_bound", r0),
        ("rank_times_nonscalar", r0 * t1),
    )
    if t1 == 0:
        reason = "central cocharacter: every factor is scalar"
    elif lw != dim:
        reason = f"dimension test: length {lw} != dim {dim}"
    elif lw > r0:
        reason = f"rank bound: length {lw} > rank {r0}"
    elif not (r0 * t1 <= dim <= r0 and sides[0] is not None):  # pragma: no cover
        # every nonscalar factor has dim >= n - 1, with equality only for
        # the two end shapes; so here t1 = 1, dim = r0 and the shape is an end
        raise AssertionError(f"nonscalar factors {nus} below the dimension bound")
    elif covered != r0:  # lw == dim == r0 here, so this is res_coxeter_check
        reason = "twisted Coxeter test failed"
    else:
        side = sides[0]
        reason = f"all tests passed; minuscule {side} end"
        return Verdict(outcome="drinfeld_case", reason=reason, n=n, t=t, side=side, chain=chain)
    return Verdict(outcome="excluded", reason=reason, n=n, t=t, chain=chain)


def theorem_verdict(spec: GroupSpec, ws, nu) -> Verdict:
    """Run the verdict chain on one (element tuple, cocharacter) pair."""
    lw, covered = _pooled(_elem_stats(w) for w in _normalize_ws(spec, ws))
    nus = tuple(_nu_stats(v) for v in _normalize_nu(spec, nu).nu)
    return _verdict(spec.n, spec.t, lw, covered, nus)


# `words` holds the reduced word (names) of each factor
ScanRecord = namedtuple("ScanRecord", "n t q words nu verdict")


def _decreasing_vectors(n: int, bound: int) -> List[Tuple[int, ...]]:
    pool = range(bound, -1, -1)
    return [tuple(v) for v in combinations_with_replacement(pool, n)]


def classification_scan(
    n_max: int, t_max: int, q: int, nu_bound: int
) -> List[ScanRecord]:
    """Exhaustive verdicts for 2 <= n <= n_max, 1 <= t <= t_max.

    Every factor tuple of symmetric-group elements is paired with every
    tuple of weakly decreasing cocharacter vectors with entries in
    [0, nu_bound].  q is recorded into the records (the verdict chain is
    q-independent) after the prime-power check of every count, which
    refuses a q above the field cap by size before factoring it.  Raises
    CapacityError before building anything when the scan would hold more
    than `dlperiod.DEFAULT_CAP` records.
    """
    _checked_prime_power(q, 1)
    if (
        any(type(x) is not int for x in (n_max, t_max, nu_bound))
        or n_max < 2 or t_max < 1 or nu_bound < 0
    ):
        raise UsageError(
            f"need n_max >= 2, t_max >= 1, nu_bound >= 0; "
            f"got ({n_max}, {t_max}, {nu_bound})"
        )
    template = "classification scan ({n_max}, {t_max}, {nu_bound}) needs at least {size} records"
    for total in accumulate(
        (factorial(n) * comb(nu_bound + n, n)) ** t
        for n in range(2, n_max + 1)
        for t in range(1, t_max + 1)
    ):
        _check_size(total, DEFAULT_CAP, template, n_max=n_max, t_max=t_max, nu_bound=nu_bound)
    records: List[ScanRecord] = []
    for n in range(2, n_max + 1):
        elems = [_elem_stats(w) for w in enumerate_group(_symmetric(n))]
        nus = _decreasing_vectors(n, nu_bound)
        stats = {v: _nu_stats(v) for v in nus}
        for t in range(1, t_max + 1):
            weights = [
                (cochar(*vs), tuple(stats[v] for v in vs)) for vs in iproduct(nus, repeat=t)
            ]
            for fs in iproduct(elems, repeat=t):
                words = tuple(f[0] for f in fs)
                lw, covered = _pooled(fs)
                for cc, nu_stats in weights:
                    verdict = _verdict(n, t, lw, covered, nu_stats)
                    records.append(
                        ScanRecord(n=n, t=t, q=q, words=words, nu=cc, verdict=verdict)
                    )
    return records
