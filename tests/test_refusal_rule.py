"""Every capacity refusal goes through `dlperiod._check_size`."""
import ast
from pathlib import Path

import pytest

from dlperiod import DEFAULT_CAP, CapacityError, _check_size

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "perfbench")


def _constructions(source: str, name: str):
    """Lines of every call of `name` or `<module>.name` in the source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ]


def _cap_names(source: str):
    """Module-level names ending in CAP that the source assigns."""
    return [
        target.id
        for node in ast.parse(source).body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("CAP")
    ]


def test_construction_finder():
    src = "raise CapacityError('x')\nimport dlperiod\ne = dlperiod.CapacityError()\nCapacityError\n"
    assert _constructions(src, "CapacityError") == [1, 3]


def test_capacity_error_is_made_only_by_the_cap_rule():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for top in CHECKED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line in _constructions(path.read_text(), "CapacityError")
    ]
    assert [f.split(":")[0] for f in found] == ["src/dlperiod/__init__.py"]


def test_one_default_cap():
    found = {
        f"{path.relative_to(ROOT / 'src')}:{name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in _cap_names(path.read_text())
    }
    assert found == {"dlperiod/__init__.py:DEFAULT_CAP", "dlperiod/gffield.py:FIELD_CAP"}
    assert DEFAULT_CAP == 10**6


class _Unprintable:
    def __format__(self, spec):
        raise AssertionError("formatted although nothing was refused")


def test_text_is_made_only_on_refusal():
    _check_size(5, 5, "{size} of {what}", what=_Unprintable())
    with pytest.raises(AssertionError, match="formatted"):
        _check_size(6, 5, "{size} of {what}", what=_Unprintable())


@pytest.mark.parametrize("size, named", [
    (10**4300 - 1, "9" * 4300),  # 4,300 digits: printed in full
    (10**4300, "more than 2^14284"),
    (2**20000, "more than 2^19999"),  # a power of two is not more than itself
    (2**20000 + 1, "more than 2^20000"),
], ids=["4300_digits", "4301_digits", "power_of_two", "above_power_of_two"])
def test_sizes_past_4300_digits_are_named_by_a_bound(size, named):
    with pytest.raises(CapacityError) as err:
        _check_size(size, 0, "has {size}")
    assert str(err.value) == f"has {named}, exceeding cap 0"


def test_fields_and_cap_are_named_by_the_same_rule():
    with pytest.raises(CapacityError) as err:
        _check_size(10**5000, 10**4400, "{n} has {size}", n=10**4301)
    assert str(err.value) == (
        "more than 2^14287 has more than 2^16609, exceeding cap more than 2^14616"
    )
