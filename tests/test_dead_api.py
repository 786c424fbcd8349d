"""Every function, class and method defined in src/lusoforge has a caller.

A definition counts as used when the Python files of src/, scripts/, bench/
or tests/ name it outside its own `def` or `class` statement: read as a name
or an attribute, imported, or spelled as a string literal that is exactly the
name (the benchmark's tracer patches functions by name). Comments and prose
do not count. Dunder methods are exempt, since Python calls them itself.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lusoforge"
SEARCHED = ("src", "scripts", "bench", "tests")


def definitions(path: Path):
    """(qualified name, bare name, line) of every def and class in a module."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((f"{prefix}{child.name}", child.name, child.lineno))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def name_uses() -> Counter:
    """How often each name is read, imported, or spelled as a string literal."""
    uses: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif isinstance(node, ast.alias):
                    uses[node.name.rpartition(".")[2]] += 1
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    uses[node.value] += 1
    return uses


def test_every_definition_is_named_elsewhere():
    defs = {path: definitions(path) for path in sorted(PACKAGE.glob("*.py"))}
    uses = name_uses()
    dead = [f"{path.name}:{line} {qualname}"
            for path, found in defs.items() for qualname, name, line in found
            if not (name.startswith("__") and name.endswith("__"))
            and not uses[name]]
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)
