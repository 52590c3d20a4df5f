"""Exact-arithmetic tools for reflection groups and finite-field flag geometry.

The package covers five loosely coupled areas:

* root systems with exact coordinates, held as doubled integer roots
  (:mod:`dlperiod.rootsys`),
* reflection-group elements, words, and twisted conjugation
  (:mod:`dlperiod.weyl`, :mod:`dlperiod.conjclass`),
* strict rational feasibility with positive-combination certificates
  (:mod:`dlperiod.feaslin`, :mod:`dlperiod.dlcrit`),
* flag enumeration and point counts over finite fields
  (:mod:`dlperiod.gfflag`),
* a small classification driver tying the numeric criteria together
  (:mod:`dlperiod.classify`).

No floating point is used anywhere: every quantity is an integer, a
`fractions.Fraction`, or a finite-field element.  The computations run on
integers; Fractions are made only for the values that are shown.
"""


class UsageError(ValueError):
    """Bad argument or argument combination at an API/CLI boundary (exit 2)."""


class CapacityError(RuntimeError):
    """A requested enumeration would exceed its configured cap (exit 2).

    The message always names the predicted size so the caller can decide
    whether raising the cap is sane.
    """


def _check_size(size: int, cap: int, what: str) -> None:
    """The one cap rule: `cap` must be an int (a bool is none), and a `size`
    above it raises CapacityError("<what>, exceeding cap <cap>")."""
    if type(cap) is not int:
        raise UsageError(f"cap must be an integer, got {cap!r}")
    if size > cap:
        raise CapacityError(f"{what}, exceeding cap {cap}")


__version__ = "0.1.0"

__all__ = ["UsageError", "CapacityError", "__version__"]
