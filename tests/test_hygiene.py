"""Static hygiene of src/camscat: no unused import, no dead local, no dead
module constant, and no public definition that only the tests reach.

No linter is a dependency of the package, so the scan uses the standard
library's ast alone.  Names starting with "_" are exempt, and the imports
of __init__.py are re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "camscat"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _reads(node) -> set:
    """Names loaded anywhere under node, nested scopes included; an
    augmented assignment reads its target."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
            names.add(n.target.id)
    return names


def _own_nodes(fn):
    """Nodes of fn's own scope: nested functions, lambdas and classes are
    not entered."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def test_no_unused_imports():
    unused = []
    for path, tree in _trees():
        if path.name == "__init__.py":
            continue
        used = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if not name.startswith("_") and name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def test_no_dead_locals():
    dead = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            used = _reads(fn)
            for node in _own_nodes(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    used.update(node.names)
            for node in _own_nodes(fn):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                        and not node.id.startswith("_") and node.id not in used):
                    dead.append(f"{path.name}:{node.lineno} {fn.name}.{node.id}")
    assert not dead, dead


def _refs(node) -> set:
    """Names node reads as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))}


def test_no_dead_module_constants():
    """Every module-level assignment of the package is read by package code,
    as a name, an attribute or an import; dunders like __all__ are exempt."""
    trees = list(_trees())
    read = set()
    for _, tree in trees:
        read |= _refs(tree)
        read |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = []
    for path, tree in trees:
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for node in (n for t in targets for n in ast.walk(t)):
                if (isinstance(node, ast.Name) and not node.id.startswith("__")
                        and node.id not in read):
                    dead.append(f"{path.name}:{stmt.lineno} {node.id}")
    assert not dead, dead


def _readme_names() -> set:
    """Identifiers inside README's code spans and code blocks."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(blocks + spans)))


def test_public_definitions_have_a_caller():
    """Every public top-level function and class of the package is reached
    from other package code, from perfbench, or by name from README."""
    stmts = [(path.name, stmt) for path, tree in _trees() if path.name != "__init__.py"
             for stmt in tree.body]
    outside = _readme_names()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _refs(ast.parse(path.read_text(), filename=str(path)))
    orphans = []
    for name, stmt in stmts:
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_") and stmt.name not in outside
                and not any(stmt.name in _refs(other) for _, other in stmts
                            if other is not stmt)):
            orphans.append(f"{name}:{stmt.lineno} {stmt.name}")
    assert not orphans, orphans
