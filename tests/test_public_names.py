"""Every public name in ``src/hsembed`` is used by the package or the
benchmark, every import by its module, and no module but ``hsi.py`` reads
an image's whole cube.

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


def unused_imports():
    """"module:line: name" of each name that an import in ``src/hsembed``
    (``__init__.py`` aside, which imports to re-export) binds and its module
    never reads, unless the import's line carries ``# noqa: F401``: the
    check pyflakes names F401, made without a linter."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # "import a.b" binds a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_every_import_is_used_by_its_module():
    assert unused_imports() == []


def whole_cube_reads():
    """"module:line: .name" of each attribute ``data`` or ``pixels`` read in
    ``src/hsembed`` outside ``hsi.py``: an image's whole cube, read at once.
    Everything else reads an image through ``rows`` and ``spectra``, a row
    block at a time."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "hsi.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("data", "pixels"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    return found


def test_no_module_but_hsi_reads_a_whole_cube():
    assert whole_cube_reads() == []
