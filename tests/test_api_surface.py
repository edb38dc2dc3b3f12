"""Every public module-level function and class of `cqm`, and every public
method of its classes, is used by the program: some code outside tests/
names it.  A name counts as used when src/cqm names it outside its own
definition (in another module or in its own), when scripts/ or perfbench/
name it, or when `cqm.__all__` exports it.  What only tests call belongs in
the tests (tests/oracles.py)."""

import ast
from collections import Counter
from pathlib import Path

import cqm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cqm"


def _names(node) -> Counter:
    """How often each identifier occurs under `node`: variables, attributes
    and imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def _unused(definitions) -> list:
    """Labels of the public definitions that `definitions(trees)` yields as
    (module path, label, node) whose name no code outside tests/ uses."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    elsewhere = set(cqm.__all__)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            elsewhere |= set(_names(ast.parse(path.read_text())))
    return [
        f"{path.name}: {label}"
        for path, label, node in definitions(trees)
        if not node.name.startswith("_")
        and node.name not in elsewhere
        and in_src[node.name] - _names(node)[node.name] == 0
    ]


def _module_level(trees):
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node


def _methods(trees):
    for path, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        yield path, f"{cls.name}.{node.name}", node


def test_every_public_definition_is_named_outside_the_tests():
    assert _unused(_module_level) == []


def test_every_public_method_is_named_outside_the_tests():
    assert _unused(_methods) == []
