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

    The message names the predicted size, or a bound on it when the size
    is too long to print, so the caller can decide whether raising the cap
    is sane.
    """


DEFAULT_CAP = 10**6
_FULL_BELOW = 10**4300  # str() refuses ints of more than 4,300 digits


def _check_size(size: int, cap: int, template: str, **fields) -> None:
    """The one cap rule: `cap` must be an int (a bool is none), and a `size`
    above it raises CapacityError("<template>, exceeding cap <cap>").  Only
    then is the template formatted with `size` and `fields`; an int of more
    than 4,300 digits is named "more than 2^b" for the largest such b."""
    if type(cap) is not int:
        raise UsageError(f"cap must be an integer, got {cap!r}")
    if size > cap:
        named = {
            k: f"more than 2^{(v - 1).bit_length() - 1}"
            if type(v) is int and v >= _FULL_BELOW else v
            for k, v in dict(fields, size=size, cap=cap).items()
        }
        raise CapacityError((template + ", exceeding cap {cap}").format(**named))


def _check_power(base: int, exp: int, cap: int, template: str, **fields) -> None:
    """`_check_size` on base^exp, a lower bound of a size not yet formed:
    past 2^16 bits any cap below 2^(2^16) refuses on it, naming the size
    "more than base^exp"; a smaller bound leaves the exact size to check."""
    if exp * (base.bit_length() - 1) > 2**16:
        bound = template.replace("{size}", "more than {base}^{exp}")
        _check_size(2 ** 2**16, cap, bound, base=base, exp=exp, **fields)


__version__ = "0.1.0"

__all__ = ["DEFAULT_CAP", "UsageError", "CapacityError", "__version__"]
