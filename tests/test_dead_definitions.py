"""Every public definition in the library has a user in src/ or benchmarks/.

A public top-level function or class, or a public method, of
src/spdefem/*.py whose name no Name, Attribute, import alias or
identifier string in src/spdefem/*.py or benchmarks/*.py uses is dead
code: only tests could reach it. Identifier strings count because
benchmarks/tracing.py names the functions it wraps as strings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spdefem").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def _public(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def definitions(tree):
    """(qualified name, name) of the public top-level defs and their public methods."""
    for node in tree.body:
        if not _public(node):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _public(item) and isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_public_definition_is_used():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in SOURCES + BENCHMARKS}
    used = set()
    for tree in trees.values():
        used.update(used_names(tree))
    dead = [f"{path.name}: {qualname}"
            for path in SOURCES
            for qualname, name in definitions(trees[path])
            if name not in used]
    assert not dead, dead
