"""Classification driver over products of projective linear factors.

A group datum is `t` copies of PGL_n treated as one group whose factors
are cyclically rotated by the twist; its combined element is a tuple of
symmetric-group elements, its cocharacter a tuple of weakly decreasing
integer vectors.  The verdict chain applies four tests in a fixed order:

(a) the word length must equal the dimension of the attached space,
(b) the length must not exceed the (diagonal) rank n-1,
(c) the dimension must equal (n-1) * (number of nonscalar factors) with
    the single nonscalar factor minuscule of end type, and
(d) the element must be a twisted Coxeter element: its factors' reduced
    words, pooled, use each generator orbit exactly once.

Survivors are the Drinfeld-type cases; everything else is excluded with
the first failing test as the reason.  The exhaustive scan enumerates all
(w, nu) pairs below the given bounds and records every verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import UsageError
from .gfflag import Cochar, cochar, nu_jump_dims, prime_power
from .rootsys import build_root_system, parabolic_dim
from .weyl import WeylElem, coxeter_length, enumerate_group, reduced_word, support, word_names

__all__ = [
    "GroupSpec",
    "ScanRecord",
    "Verdict",
    "classification_scan",
    "pd_dimension",
    "res_coxeter_check",
    "theorem_verdict",
]


@dataclass(frozen=True)
class GroupSpec:
    """t rotated factors, each projective linear of degree n (split form)."""

    n: int
    t: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise UsageError(f"factor degree must be >= 2, got {self.n}")
        if self.t < 1:
            raise UsageError(f"factor count must be >= 1, got {self.t}")

    @property
    def rank(self) -> int:
        return self.n - 1


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "drinfeld_case" | "excluded"
    reason: str
    n: int
    t: int
    side: Optional[str] = None  # "lower" | "upper" for drinfeld_case
    chain: Tuple[Tuple[str, int], ...] = ()

    @property
    def is_case(self) -> bool:
        return self.outcome == "drinfeld_case"

    def chain_dict(self) -> Dict[str, int]:
        return dict(self.chain)


def _factor_system(n: int):
    return build_root_system("A", n - 1, "bourbaki")


def _normalize_ws(spec: GroupSpec, ws) -> Tuple[WeylElem, ...]:
    tup = (ws,) if isinstance(ws, WeylElem) else tuple(ws)
    if len(tup) != spec.t:
        raise UsageError(f"expected {spec.t} factor elements, got {len(tup)}")
    rs = _factor_system(spec.n)
    for w in tup:
        if not isinstance(w, WeylElem) or w.rs is not rs:
            raise UsageError(
                f"factor elements must come from {rs}; got {w!r}"
            )
    return tup


def _normalize_nu(spec: GroupSpec, nu) -> Cochar:
    cc = nu if isinstance(nu, Cochar) else cochar(*nu) if nu and isinstance(
        nu[0], (tuple, list)
    ) else cochar(tuple(nu))
    if cc.t != spec.t:
        raise UsageError(f"expected {spec.t} cocharacter factors, got {cc.t}")
    if cc.n != spec.n:
        raise UsageError(f"cocharacter length {cc.n} does not match degree {spec.n}")
    return cc


def pd_dimension(spec: GroupSpec, nu) -> int:
    """Dimension of the space attached to nu: scalar factors contribute 0,
    every other factor the dimension of its partial flag variety."""
    cc = _normalize_nu(spec, nu)
    rs = _factor_system(spec.n)
    total = 0
    for v in cc.nu:
        jumps = nu_jump_dims(v)
        if jumps:
            total += parabolic_dim(rs, jumps)
    return total


def res_coxeter_check(spec: GroupSpec, ws) -> bool:
    """Twisted Coxeter test for the rotated product.

    True iff the factor lengths sum to n-1 and the pooled reduced words
    hit every generator orbit exactly once (each orbit crosses the t
    factors, so pooling is the right notion of "once").
    """
    tup = _normalize_ws(spec, ws)
    total = sum(coxeter_length(w) for w in tup)
    if total != spec.n - 1:
        return False
    covered: set = set()
    for w in tup:
        covered |= support(w)
    return len(covered) == spec.n - 1


def _nonscalar_indices(cc: Cochar) -> List[int]:
    return [i for i, v in enumerate(cc.nu) if len(set(v)) > 1]


def _minuscule_side(n: int, v: Tuple[int, ...]) -> Optional[str]:
    """'lower' for shape (x, y, ..., y), 'upper' for (x, ..., x, y); x > y.

    For n = 2 the shapes coincide and count as lower."""
    jumps = nu_jump_dims(v)
    if jumps == (1,):
        return "lower"
    if jumps == (n - 1,):
        return "upper"
    return None


def theorem_verdict(spec: GroupSpec, ws, nu) -> Verdict:
    """Run the verdict chain on one (element tuple, cocharacter) pair."""
    tup = _normalize_ws(spec, ws)
    cc = _normalize_nu(spec, nu)
    n, t = spec.n, spec.t
    nonscalar = _nonscalar_indices(cc)
    t1 = len(nonscalar)
    lw = sum(coxeter_length(w) for w in tup)
    dim_xn = pd_dimension(spec, cc)
    r0 = spec.rank
    chain = (
        ("length", lw),
        ("dim", dim_xn),
        ("rank_bound", r0),
        ("rank_times_nonscalar", r0 * t1),
    )
    if t1 == 0:
        return Verdict(
            outcome="excluded",
            reason="central cocharacter: every factor is scalar",
            n=n,
            t=t,
            chain=chain,
        )
    if lw != dim_xn:
        return Verdict(
            outcome="excluded",
            reason=f"dimension test: length {lw} != dim {dim_xn}",
            n=n,
            t=t,
            chain=chain,
        )
    if lw > r0:
        return Verdict(
            outcome="excluded",
            reason=f"rank bound: length {lw} > rank {r0}",
            n=n,
            t=t,
            chain=chain,
        )
    side: Optional[str] = None
    if r0 * t1 != dim_xn or t1 != 1:
        return Verdict(
            outcome="excluded",
            reason=(
                f"rank-dimension test: rank*nonscalar {r0 * t1} != dim {dim_xn}"
                if r0 * t1 != dim_xn
                else f"rank-dimension test: {t1} nonscalar factors"
            ),
            n=n,
            t=t,
            chain=chain,
        )
    side = _minuscule_side(n, cc.nu[nonscalar[0]])
    if side is None:
        return Verdict(
            outcome="excluded",
            reason="shape test: nonscalar factor is not minuscule of end type",
            n=n,
            t=t,
            chain=chain,
        )
    if not res_coxeter_check(spec, tup):
        return Verdict(
            outcome="excluded",
            reason="twisted Coxeter test failed",
            n=n,
            t=t,
            chain=chain,
        )
    return Verdict(
        outcome="drinfeld_case",
        reason=f"all tests passed; minuscule {side} end",
        n=n,
        t=t,
        side=side,
        chain=chain,
    )


@dataclass(frozen=True)
class ScanRecord:
    n: int
    t: int
    q: int
    words: Tuple[Tuple[str, ...], ...]  # reduced word (names) per factor
    nu: Cochar
    verdict: Verdict


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
    q-independent) after a prime-power sanity check.
    """
    prime_power(q)
    if n_max < 2 or t_max < 1 or nu_bound < 0:
        raise UsageError(
            f"need n_max >= 2, t_max >= 1, nu_bound >= 0; "
            f"got ({n_max}, {t_max}, {nu_bound})"
        )
    records: List[ScanRecord] = []
    for n in range(2, n_max + 1):
        rs = _factor_system(n)
        group = enumerate_group(rs)
        nus = _decreasing_vectors(n, nu_bound)
        for t in range(1, t_max + 1):
            spec = GroupSpec(n=n, t=t)
            ccs = [cochar(*nu_tuple) for nu_tuple in iproduct(nus, repeat=t)]
            for ws in iproduct(group, repeat=t):
                words = tuple(word_names(rs, reduced_word(w)) for w in ws)
                for cc in ccs:
                    verdict = theorem_verdict(spec, ws, cc)
                    records.append(
                        ScanRecord(n=n, t=t, q=q, words=words, nu=cc, verdict=verdict)
                    )
    return records
