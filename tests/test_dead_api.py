"""Every function, class and method defined in src/lusoforge has a caller.

A definition counts as used when the Python files of src/, scripts/, bench/
or tests/ name it outside its own `def` or `class` statement: read as a name
or an attribute, imported, or spelled as a string literal that is exactly the
name (the benchmark's tracer patches functions by name). Comments and prose
do not count. Dunder methods are exempt, since Python calls them itself.

The stricter test keeps test-only code out of src/: every def, class, method
and module-level name must be named by the program itself, that is by the
files of src/, scripts/ or bench/ (less the benchmark's own tests), outside
the lines of its own definition.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lusoforge"
SEARCHED = ("src", "scripts", "bench", "tests")
PROGRAM = ("src", "scripts", "bench")


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


def spans(path: Path):
    """(bare name, first line, last line) of every def, class and method in
    a module, and of every name a module-level assignment binds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found += [(node.id, stmt.lineno, stmt.end_lineno)
                      for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)]
    return found


def named(tops):
    """(path, line, name) of each name read, imported, or spelled as a
    string literal in the Python files under `tops`."""
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    yield path, node.lineno, node.id
                elif isinstance(node, ast.Attribute):
                    yield path, node.lineno, node.attr
                elif isinstance(node, ast.alias):
                    yield path, node.lineno, node.name.rpartition(".")[2]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield path, node.lineno, node.value


def name_uses() -> Counter:
    """How often each name is read, imported, or spelled as a string literal."""
    return Counter(name for _, _, name in named(SEARCHED))


def test_every_definition_is_named_elsewhere():
    defs = {path: definitions(path) for path in sorted(PACKAGE.glob("*.py"))}
    uses = name_uses()
    dead = [f"{path.name}:{line} {qualname}"
            for path, found in defs.items() for qualname, name, line in found
            if not (name.startswith("__") and name.endswith("__"))
            and not uses[name]]
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)


def test_every_definition_has_a_program_caller():
    where: dict[str, list] = {}
    for path, line, name in named(PROGRAM):
        if "tests" not in path.relative_to(ROOT).parts:
            where.setdefault(name, []).append((path, line))
    dead = [f"{path.name}:{first} {name}"
            for path in sorted(PACKAGE.glob("*.py")) for name, first, last in spans(path)
            if not (name.startswith("__") and name.endswith("__"))
            and all(p == path and first <= line <= last for p, line in where.get(name, ()))]
    assert not dead, "defined in src/ but named by no program caller:\n" + "\n".join(dead)
