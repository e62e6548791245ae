"""Design guards checked on the source text of the package."""

import ast
from collections import Counter
from pathlib import Path

import tauhunt

SRC = Path(tauhunt.__file__).parent


def _definitions(tree):
    """(qualified name, node) for every top-level def/class and every
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(node) -> Counter:
    """Names and attribute names used under node; imports and the string
    entries of __all__ are not uses."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_library_name_is_used_by_the_library():
    """No def, class or method exists only because a test calls it: each
    is referenced somewhere in the package outside its own definition."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = sum((_references(tree) for tree in trees), Counter())
    unused = [
        qualname
        for tree in trees
        for qualname, node in _definitions(tree)
        if used[node.name] == _references(node)[node.name]
    ]
    assert not unused, "referenced only from outside the package: " + ", ".join(unused)
