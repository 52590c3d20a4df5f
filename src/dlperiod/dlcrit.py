"""Strict feasibility criterion attached to a group element and q >= 2.

For an element w acting on the ambient space and an integer q >= 2, the
criterion asks for a point x with

* x strictly inside a region attached to w — either all inversion
  hyperplanes of w (mode ``full_D``) or the full fundamental chamber
  (mode ``chamber_C``, a smaller region, so feasibility there implies
  feasibility in ``full_D``), and
* (q*x - w*x, alpha) > 0 for every standard simple root alpha.

Everything is expressed against the *standard* positive system of the
element's kind and rank, whatever generator profile w was built in.

The second half of the module produces closed-form witnesses for the
distinguished block representatives of kinds A, B, D: a strictly
decreasing coordinate chain whose slopes and drops are chosen so every
form above is positive at q = 2, hence for all q >= 2 (the criterion
forms are monotone in q on the chamber).  Witnesses are exact rationals
and are re-verified against the actual form system before being
returned; a failure raises instead of returning a bad point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Dict, List, Optional, Sequence, Tuple

from . import UsageError
from .conjclass import GPDatum, gp_element, gp_enumerate
from .feaslin import (
    FeasibilityResult,
    StrictSystem,
    strict_feasible,
    verify_witness,
)
from .linalg import Vector, integerize
from .rootsys import LinearForm, build_root_system, form_label
from .weyl import WeylElem, inverse, inversions

__all__ = [
    "CriterionReport",
    "GPScanEntry",
    "GPScanResult",
    "MODES",
    "build_criterion_system",
    "check_dl_criterion",
    "gp_witness",
    "report_payload",
    "scan_gp",
]

MODES = ("full_D", "chamber_C")


def _check_q(q: int) -> int:
    if not isinstance(q, int) or q < 2:
        raise UsageError(f"q must be an integer >= 2, got {q!r}")
    return q


def _standard_twin(w: WeylElem):
    rs = w.rs
    if rs.profile == "bourbaki":
        return w, rs
    twin = build_root_system(rs.kind, rs.rank, "bourbaki")
    return WeylElem(twin, w.perm, w.word), twin


@dataclass(frozen=True)
class CriterionReport:
    w: WeylElem  # rehomed to the standard profile
    q: int
    mode: str
    system: StrictSystem
    result: FeasibilityResult


def build_criterion_system(w: WeylElem, q: int, mode: str = "full_D") -> StrictSystem:
    """Assemble the strict form system for (w, q, mode).

    Region forms come first (labelled ``inv:`` or ``base:``), then one
    ``crit:`` form per standard simple root with coefficients
    q*alpha - w^{-1}(alpha).
    """
    _check_q(q)
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    wb, rs = _standard_twin(w)
    forms: List[LinearForm] = []
    if mode == "full_D":
        for i in inversions(wb):
            root = rs.positive_roots[i]
            forms.append(LinearForm(coeffs=root, label=f"inv:{form_label(root)}"))
    else:
        for root in rs.simple_roots:
            forms.append(LinearForm(coeffs=root, label=f"base:{form_label(root)}"))
    winv = inverse(wb).perm
    for root, i in zip(rs.simple_roots, rs.base_idx):
        winv_root = rs.roots[winv[i]]
        coeffs = tuple(q * a - b for a, b in zip(root, winv_root))
        forms.append(LinearForm(coeffs=coeffs, label=f"crit:{form_label(root)}"))
    return StrictSystem(forms=tuple(forms))


def check_dl_criterion(w: WeylElem, q: int, mode: str = "full_D") -> CriterionReport:
    """Decide the criterion for (w, q, mode) with a verified outcome.

    When the chamber mode is feasible, the witness is additionally checked
    against the full_D system (the chamber is contained in every inversion
    region, so this must hold; a failure indicates a bug and raises).
    """
    wb, _ = _standard_twin(w)
    system = build_criterion_system(wb, q, mode)
    result = strict_feasible(system)
    if mode == "chamber_C" and result.feasible:
        full = build_criterion_system(wb, q, "full_D")
        if not verify_witness(full, result.witness):  # pragma: no cover
            raise AssertionError("chamber witness escaped the inversion region")
    return CriterionReport(w=wb, q=q, mode=mode, system=system, result=result)


def report_payload(report: CriterionReport) -> Dict:
    """JSON-ready dict for a criterion report (rationals as 'p/q' strings)."""
    res = report.result
    return {
        "type": f"{report.w.rs.kind}{report.w.rs.rank}",
        "q": report.q,
        "mode": report.mode,
        "feasible": res.feasible,
        "witness": [str(c) for c in res.witness] if res.witness is not None else None,
        "certificate": [str(c) for c in res.certificate]
        if res.certificate is not None
        else None,
        "forms": [
            {"coeffs": [str(c) for c in f.coeffs], "label": f.label}
            for f in report.system.forms
        ],
    }


# ---------------------------------------------------------------------------
# closed-form witnesses for the block representatives


def _run_blocks(
    kind: str,
    x: List[Optional[Q]],
    parts: Sequence[int],
    signs: Sequence[int],
    pos: int,
) -> None:
    """Fill x (1-based positions pos..) for a run of standard block cycles.

    Entering, x[pos-1] (0-based: pos-1) is already set.  Within a block
    [m, n] the coordinates fall with a slope small enough to keep the tail
    above half the block start; between blocks the value drops past the
    threshold that keeps the boundary criterion form positive at q = 2
    (half the previous coordinate for kind A, a third of the wrap sum for
    kind B)."""
    ell = len(x)
    for size, sign in zip(parts, signs):
        m, n = pos, pos + size - 1
        start = x[m - 1]
        if start is None:  # pragma: no cover - drop step always precedes
            raise AssertionError("block chain entered without a start value")
        if n > m:
            a = start / (2 * size)
            for j in range(1, size):
                x[m - 1 + j] = start - j * a
        if n < ell:
            xn = x[n - 1]
            prev = x[n - 2] if n > m else xn
            lo = prev / 2 if kind == "A" else (xn + prev) / 3
            b = (lo + xn) / 2
            x[n] = xn - b
        pos = n + 1


def _chain_witness(kind: str, parts: Sequence[int], signs: Sequence[int], ell: int) -> Vector:
    x: List[Optional[Q]] = [None] * ell
    x[0] = Q(1)
    _run_blocks(kind, x, parts, signs, 1)
    return tuple(x)  # type: ignore[arg-type]


def _delta_witness_D(datum: GPDatum) -> Vector:
    """Witness for kind D with a nontrivial delta factor.

    The delta factor merges the special first coordinate into the first
    block, giving one cycle on coordinates 1..n1 (n1 = parts[0] + 1) whose
    two sign hops are u (into coordinate 2) and v (back into coordinate
    1); the remaining blocks are standard.
    """
    ell = datum.rank
    n1 = datum.parts[0] + 1
    parity = 1 if sum(1 for s in datum.signs if s < 0) % 2 == 0 else -1
    if datum.delta == "s1":
        u, v = parity, datum.signs[0]
    else:  # tprime
        u, v = -parity, -datum.signs[0]
    x: List[Optional[Q]] = [None] * ell
    x2 = Q(1)
    x[1] = x2
    a = x2 / (2 * (n1 - 1))
    for j in range(1, n1 - 1):
        x[1 + j] = x2 - j * a
    # coordinate 1: above everything if it re-enters negated, else just a
    # hair above coordinate 2
    x[0] = Q(7, 2) * x2 if u < 0 else x2 + a
    if n1 < ell:
        xn = x[n1 - 1]
        if n1 >= 3:
            z = x[n1 - 2]
        else:
            z = x[0] if u > 0 else xn
        lo = (xn + z) / 3
        b = (lo + xn) / 2
        x[n1] = xn - b
        _run_blocks("B", x, datum.parts[1:], datum.signs[1:], n1 + 1)
    return tuple(x)  # type: ignore[arg-type]


def gp_witness(datum: GPDatum, q: int) -> Vector:
    """Exact chamber witness for a block representative at the given q.

    The same point works for every q >= 2; it is validated against the
    chamber_C system of gp_element(datum) before being returned.
    """
    _check_q(q)
    if datum.kind == "A":
        xs = _chain_witness("A", datum.parts, datum.signs, datum.rank)
    elif datum.kind == "B":
        xs = _chain_witness("B", datum.parts, datum.signs, datum.rank)
    elif datum.delta == "one":
        parity = 1 if sum(1 for s in datum.signs if s < 0) % 2 == 0 else -1
        xs = _chain_witness("B", (1, *datum.parts), (parity, *datum.signs), datum.rank)
    else:
        xs = _delta_witness_D(datum)
    system = build_criterion_system(gp_element(datum), q, "chamber_C")
    if not verify_witness(system, xs):
        raise AssertionError(f"recipe witness failed for {datum} at q={q}")
    return xs


@dataclass(frozen=True)
class GPScanEntry:
    datum: GPDatum
    report: CriterionReport


@dataclass(frozen=True)
class GPScanResult:
    kind: str
    rank: int
    q: int
    mode: str
    entries: Tuple[GPScanEntry, ...]
    all_pass: bool


def scan_gp(kind: str, rank: int, q: int, mode: str = "chamber_C") -> GPScanResult:
    """Run the criterion over every block representative of (kind, rank).

    Recipe witnesses are used directly (and re-verified exactly); if a
    recipe ever failed to verify, the entry falls back to the generic
    elimination decision so the scan result stays honest.
    """
    _check_q(q)
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    entries: List[GPScanEntry] = []
    for datum in gp_enumerate(kind, rank):
        w = gp_element(datum)
        system = build_criterion_system(w, q, mode)
        try:
            xs = gp_witness(datum, q)
        except AssertionError:  # pragma: no cover - recipes are total
            report = check_dl_criterion(w, q, mode)
        else:
            if mode == "full_D" and not verify_witness(system, xs):  # pragma: no cover
                report = check_dl_criterion(w, q, mode)
            else:
                result = FeasibilityResult(feasible=True, witness=integerize(xs))
                if not verify_witness(system, result.witness):  # pragma: no cover
                    raise AssertionError("integerized witness failed re-verification")
                wb, _ = _standard_twin(w)
                report = CriterionReport(w=wb, q=q, mode=mode, system=system, result=result)
        entries.append(GPScanEntry(datum=datum, report=report))
    return GPScanResult(
        kind=kind,
        rank=rank,
        q=q,
        mode=mode,
        entries=tuple(entries),
        all_pass=all(e.report.result.feasible for e in entries),
    )
