"""The program's surface: every function, class and method that ``src/fcw``
defines is used by the program, its scripts or the benchmark.

Code that only tests call belongs in ``tests/`` (as an oracle or a helper),
so a name that nothing outside the tests references is a leftover.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ROOT / "src" / "fcw"
USERS = (PROGRAM, ROOT / "scripts", ROOT / "benchmark")


def _references(node):
    """The names that ``node`` and its subtree read, as identifiers,
    attributes or imports, one entry per reference."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1]


def unreferenced_definitions():
    """Every function, class and method name defined in ``src/fcw`` that
    no file of the program, its scripts or the benchmark references outside
    the name's own definitions; dunder methods are called by Python itself."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for root in USERS for path in root.rglob("*.py")}
    total = Counter(name for tree in trees.values() for name in _references(tree))
    inside = Counter()  # references from within a definition of the same name
    defined = set()
    for path, tree in trees.items():
        if not path.is_relative_to(PROGRAM):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
                inside[node.name] += sum(name == node.name for name in _references(node))
    return sorted(
        name for name in defined if total[name] == inside[name] and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_program_definition_is_used_outside_the_tests():
    assert unreferenced_definitions() == []
