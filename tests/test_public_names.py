"""Every public name in ``src/hsembed`` is used by the package or the benchmark.

A public top-level function or class, or a public method or property of a
public class, must be referenced somewhere in ``src/hsembed`` outside its
own definition and ``__init__.py``, or in ``perfbench/`` (whose wrap sites
name functions in strings). The one exception is a name that
``tests/test_acceptance.py`` imports. Names are matched by spelling, so a
method counts as used when any attribute of that name is used.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hsembed"


def public_definitions(tree):
    """(qualified name, node, is_method) of the public top-level functions
    and classes and the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member, True


def references(tree, strings=False):
    """How often each name is used in ``tree``: bare and imported names as
    they are, attribute names as ".name", and with ``strings`` every string
    constant both ways."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Attribute):
            found["." + node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update((node.value, "." + node.value))
    return found


def acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hsembed")
        for alias in node.names
    }


def unused_public_names():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used += references(ast.parse(path.read_text()), strings=True)
    for tree in modules.values():
        used += references(tree)
    allowed = acceptance_imports()
    unused = []
    for module, tree in modules.items():
        for qualified, node, is_method in public_definitions(tree):
            # a method can only be reached as an attribute
            spellings = {"." + node.name} if is_method else {node.name, "." + node.name}
            inside = references(node)
            if qualified not in allowed and all(used[n] <= inside[n] for n in spellings):
                unused.append(f"{module}: {qualified}")
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert unused_public_names() == []

