"""Every module-level function and class of the library has a reader that
is not a test.

The tests' reference routines live in ``tests/oracles.py``; the library
keeps only what its own modules, ``scripts/`` or ``perfbench/`` run.  A
name counts as read when it occurs in one of those places as a ``Name``, an
``Attribute`` or an import alias, or as a part of a dotted target string
in ``perfbench/layers.py``, which the tracer resolves by name.  A read
inside the name's own definition (recursion) does not count, and neither
do docstrings and comments, which the syntax tree does not hold as names.

Methods are out of reach.  A reader of a method is an attribute read on an
object whose class the syntax tree does not know, and several classes share
method names (``restrict`` is a method of the graphs, of ``Heap`` and of
``SetPartition``), so one ``x.restrict(...)`` in the library would count as
a reader of each of them.

Run as a script, it prints the unread names, one a line.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eulerpart"
LAYERS_FILE = ROOT / "perfbench" / "layers.py"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _names_read(tree):
    """The identifiers a syntax tree reads: names, attribute names and
    import aliases (each part of a dotted module path)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
    return out


def _dotted_targets(tree):
    """Each part of each string constant that is a dotted name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unread_library_names():
    """(module, name) for each module-level function or class in the
    package that nothing outside its own definition reads, sorted."""
    readers = set()
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _parse(path)
            readers |= _names_read(tree)
            if path == LAYERS_FILE:
                readers |= _dotted_targets(tree)
    defined = []  # (module, name, the statement that defines it)
    statements = []  # (the statement, the names it reads)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            statements.append((stmt, _names_read(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name, stmt))
    return sorted(
        (module, name)
        for module, name, own in defined
        if name not in readers
        and not any(stmt is not own and name in read for stmt, read in statements)
    )


def test_every_library_name_has_a_reader():
    assert unread_library_names() == []


if __name__ == "__main__":
    for module, name in unread_library_names():
        print(f"{module}.{name}")
