"""Strict homogeneous feasibility over the rationals, with certificates.

A system is a finite list of linear forms f_i; the question is whether
some x satisfies f_i . x > 0 for all i.  By the strict Farkas / Gordan
alternative exactly one of the following exists, and this module always
produces it explicitly:

* a rational witness x (returned scaled to a primitive integer vector), or
* a certificate y >= 0, y != 0, with sum_i y_i f_i = 0.

Forms are integers over a positive denominator (`LinearForm.num` /
`LinearForm.den`), so the positive rescaling to integers happens when a
form is built, and solving and verifying run on integers only.
`common_denominator` and `integerize` are this module's Fraction boundary:
rational input becomes integers over one denominator, and an integer
direction becomes the primitive Fraction vector that is shown.  The
decision procedure is one exact Phase-I simplex on the Gordan side: each
form's integers are divided by their gcd, and the LP "sum_i y_i f_i = 0,
sum_i y_i = 1, y >= 0" is solved from an all-artificial basis by
fraction-free integer pivoting (Edmonds / Bareiss) with Bland's rule
(Bland, Math. Oper. Res. 2, 1977).  An optimum of 0 gives y, which times
the form scales is the certificate; a positive optimum gives Phase-I duals
u with f_i . u < 0 for every i, so x = -u is a witness.  Both outcomes are
re-verified exactly, with integer dot products and sums, before being
returned as Fraction tuples.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import UsageError

__all__ = [
    "FeasibilityResult",
    "LinearForm",
    "StrictSystem",
    "form_label",
    "strict_feasible",
    "strict_system",
    "verify_certificate",
    "verify_witness",
]


IntVector = Tuple[int, ...]
Vector = Tuple[Q, ...]


def common_denominator(a: Sequence) -> Tuple[IntVector, int]:
    """Integers `num` and the least positive `den` with a == num / den.

    Entries may be ints or Fractions; no Fraction is made.
    """
    den = lcm(*(x.denominator for x in a))
    return tuple(x.numerator * (den // x.denominator) for x in a), den


def integerize(a: Sequence) -> Vector:
    """Scale by a positive rational so entries are coprime integers.

    Entries may be ints or Fractions; the result is a Fraction tuple.
    """
    ints, _ = common_denominator(a)
    g = gcd(*ints) or 1
    return tuple(Q(v // g) for v in ints)


class LinearForm:
    """A strict linear condition `coeffs . x > 0` with a human-readable label.

    The coefficients are the integers `num` over the positive integer `den`
    (coeffs = num / den), which is all that solving and verifying read.  The
    Fraction tuple `coeffs` and the `label` (`prefix` plus the expression of
    named / den, by default the form itself) are made on each access.
    """

    __slots__ = ("num", "den", "_prefix", "_named")

    def __init__(
        self, num: IntVector, den: int = 1, prefix: str = "", named: Optional[IntVector] = None
    ):
        self.num, self.den = num, den
        self._prefix, self._named = prefix, num if named is None else named

    @property
    def coeffs(self) -> Vector:
        return tuple(Q(x, self.den) for x in self.num)

    @property
    def label(self) -> str:
        return self._prefix + form_label(tuple(Q(x, self.den) for x in self._named))

    def __repr__(self) -> str:
        return f"LinearForm(coeffs={self.coeffs!r}, label={self.label!r})"


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


class StrictSystem(namedtuple("StrictSystem", "forms")):
    """Conjunction of strict conditions `form.coeffs . x > 0`, one per
    LinearForm in the tuple `forms`."""

    __slots__ = ()

    def __new__(cls, forms: Tuple[LinearForm, ...]):
        dims = {len(f.num) for f in forms}
        if len(dims) > 1:
            raise UsageError(f"mixed form dimensions in system: {sorted(dims)}")
        if dims == {0}:
            raise UsageError("zero-dimensional forms")
        return super().__new__(cls, forms)

    @property
    def dim(self) -> int:
        return len(self.forms[0].num) if self.forms else 0


def strict_system(forms: Iterable[Union[LinearForm, Sequence]]) -> StrictSystem:
    """Build a system from LinearForms or raw coefficient sequences."""
    return StrictSystem(
        forms=tuple(
            f if isinstance(f, LinearForm) else LinearForm(*common_denominator([Q(x) for x in f]))
            for f in forms
        )
    )


# `witness` is a primitive integer vector with all forms > 0, `certificate`
# a y >= 0, y != 0 with sum y_i f_i = 0; the one not found is None
FeasibilityResult = namedtuple("FeasibilityResult", "feasible witness certificate",
                               defaults=(None, None))


def verify_witness(system: StrictSystem, x: Sequence) -> bool:
    """True when every form is positive at x (ints or Fractions)."""
    if len(x) != system.dim and system.forms:
        return False
    xs, _ = common_denominator(x)  # a positive multiple of x
    return all(sum(a * b for a, b in zip(f.num, xs)) > 0 for f in system.forms)


def verify_certificate(system: StrictSystem, y: Sequence) -> bool:
    """True when y >= 0, y != 0 and sum_i y_i f_i = 0 (ints or Fractions)."""
    if len(y) != len(system.forms) or not system.forms:
        return False
    ys, _ = common_denominator(y)  # a positive multiple of y
    if any(c < 0 for c in ys) or not any(ys):
        return False
    # the combination times the lcm of the form denominators
    den = lcm(*(f.den for f in system.forms))
    comb = [0] * system.dim
    for c, f in zip(ys, system.forms):
        if c:
            c *= den // f.den
            for i, a in enumerate(f.num):
                comb[i] += c * a
    return not any(comb)


def _phase_one(cols: List[List[int]], d: int):
    """Minimise the artificial sum of the Gordan LP by integer pivoting.

    The unknowns are y_1..y_m (one per form, columns 0..m-1) with
    sum_i y_i g_i = 0 in d rows, sum_i y_i = 1 in row d, y >= 0, and one
    artificial column per row (columns m..m+d); the last column is the
    right-hand side and the last row the objective row (reduced costs,
    and minus the objective value in the last column).  The integer
    tableau `tab` stands for tab / det, where det is the determinant of
    the current basis; a pivot on (r, s) replaces every entry outside row
    r by (p * tab[i][j] - tab[i][s] * tab[r][j]) // det with p = tab[r][s],
    which divides exactly because every entry is a minor of the starting
    tableau (Edmonds), and p becomes the new det.  Bland's rule (the
    least eligible index, for the entering column and among tied leaving
    rows) excludes cycling.  Artificial columns never re-enter.

    Returns (tableau, basis, det).
    """
    m = len(cols)
    rhs = m + d + 1
    tab = []
    for k in range(d + 1):
        row = [g[k] for g in cols] if k < d else [1] * m
        row += [0] * (d + 2)
        row[m + k] = 1
        tab.append(row)
    tab[d][rhs] = 1
    tab.append([-sum(col) for col in zip(*tab)])
    tab[-1][m : m + d + 1] = [0] * (d + 1)
    obj = tab[-1]
    basis = list(range(m, m + d + 1))
    det = 1
    while obj[rhs]:  # the artificial sum is still positive
        s = next((j for j in range(m) if obj[j] < 0), None)
        if s is None:
            break
        r = None
        for i in range(d + 1):
            a = tab[i][s]
            if a > 0:
                if r is None:
                    r = i
                    continue
                # compare the ratios tab[i][rhs] / a and tab[r][rhs] / tab[r][s]
                left, right = tab[i][rhs] * tab[r][s], tab[r][rhs] * a
                if left < right or (left == right and basis[i] < basis[r]):
                    r = i
        if r is None:  # pragma: no cover - the objective is bounded below by 0
            raise AssertionError("unbounded phase-I column")
        p = tab[r][s]
        prow = tab[r]
        for i, row in enumerate(tab):
            if i == r:
                continue
            c = row[s]
            if c:
                tab[i] = [(p * x - c * y) // det for x, y in zip(row, prow)]
            elif p != det:
                tab[i] = [p * x // det for x in row]
        obj = tab[-1]
        basis[r] = s
        det = p
    return tab, basis, det


def strict_feasible(system: StrictSystem) -> FeasibilityResult:
    """Decide the system, returning a verified witness or certificate.

    Deterministic: identical systems produce identical results.
    """
    m = len(system.forms)
    if m == 0:
        return FeasibilityResult(feasible=True, witness=())
    d = system.dim

    cols: List[List[int]] = []
    scales: List[Tuple[int, int]] = []
    for i, f in enumerate(system.forms):
        g = gcd(*f.num)
        if g == 0:
            # 0 > 0 is its own refutation
            cert = tuple(Q(1) if j == i else Q(0) for j in range(m))
            if not verify_certificate(system, cert):  # pragma: no cover
                raise AssertionError("certificate failed exact re-verification")
            return FeasibilityResult(feasible=False, certificate=cert)
        cols.append([v // g for v in f.num])  # f scaled by den / g > 0
        scales.append((f.den, g))

    tab, basis, det = _phase_one(cols, d)
    rhs = m + d + 1
    if tab[-1][rhs] == 0:
        # a convex combination of the scaled forms vanishes; y_j is
        # tab[i][rhs] * den_j / g_j, cleared by the lcm of the basic g_j
        basic = [(j, tab[i][rhs]) for i, j in enumerate(basis) if j < m]
        lg = lcm(*(scales[j][1] for j, _ in basic))
        y = [0] * m
        for j, t in basic:
            den, g = scales[j]
            y[j] = t * den * (lg // g)
        cert = integerize(y)
        if not verify_certificate(system, cert):  # pragma: no cover
            raise AssertionError("certificate failed exact re-verification")
        return FeasibilityResult(feasible=False, certificate=cert)

    # optimum > 0: the duals u of the d equality rows give g_i . u < 0 for
    # every form; the artificial column of row k has reduced cost 1 - u_k
    obj = tab[-1]
    witness = integerize([obj[m + k] - det for k in range(d)])
    if not verify_witness(system, witness):  # pragma: no cover
        raise AssertionError("witness failed exact re-verification")
    return FeasibilityResult(feasible=True, witness=witness)
