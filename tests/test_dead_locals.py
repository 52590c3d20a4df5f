"""No function in src/ binds a name it never reads."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BINDERS = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr, ast.For, ast.AsyncFor,
            ast.comprehension, ast.withitem)


def _targets(node):
    """The expressions a binding statement or clause assigns to."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, ast.withitem):
        return [node.optional_vars] if node.optional_vars is not None else []
    return [node.target]


def _dead_locals(source: str):
    """(line, function, name) of every name a function binds (by assignment,
    loop or comprehension target, or ``with ... as``) and never reads,
    nested functions included; names starting with ``_`` are exempt, and so
    are names a ``global`` or ``nonlocal`` statement shares."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared, read, bound = set(), set(), {}
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, _BINDERS):
                for target in _targets(node):
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            bound.setdefault(name.id, name.lineno)
        found += [
            (line, func.name, name) for name, line in bound.items()
            if name not in read and name not in shared and not name.startswith("_")
        ]
    return sorted(set(found))


def test_dead_local_finder():
    src = (
        "def f(xs):\n"
        "    a, b = xs\n"
        "    for i, _j in enumerate(xs):\n"
        "        print(a)\n"
        "    with open(xs) as fh:\n"
        "        pass\n"
        "    ys = [k for k in xs]\n"
        "    n = 0\n"
        "    def g():\n"
        "        nonlocal n\n"
        "        n = 1\n"
        "    return [m for m in xs if (t := m)]\n"
    )
    assert _dead_locals(src) == [
        (2, "f", "b"), (3, "f", "i"), (5, "f", "fh"), (7, "f", "ys"), (12, "f", "t"),
    ]


def test_no_dead_locals():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {func}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, func, name in _dead_locals(path.read_text())
    ]
    assert found == []
