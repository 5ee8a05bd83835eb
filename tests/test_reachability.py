"""Every library definition is reached from code that a user runs.

The scan parses ``src/charfol/*.py`` with :mod:`ast`.  It starts from the
names that the library uses at module level (the console script's ``main``
among them) and from everything that ``scripts/*.py`` and ``perfbench/*.py``
name, including the dotted strings by which the benchmark's tracer binds
what it wraps.  From there it follows the ``Name`` and ``Attribute``
references inside each reached definition.  A name matches every top-level
function or class so called, and an attribute also every method, so the
scan can only over-approximate what is reached; annotations are not
references.

Every definition must be reached.  Code that only tests call, such as the
reference implementations the tests compare the library with, belongs in
``tests/``.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "charfol").glob("*.py"))
ENTRY_POINTS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(trees: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """``module.name`` and ``module.Class.method`` of every top-level def."""
    defs: dict[str, ast.AST] = {}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{stem}.{node.name}.{item.name}"] = item
    return defs


def _modules_imported(tree: ast.Module) -> set[str]:
    """Names bound by plain ``import``: an attribute of one is not ours."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _references(nodes, modules: set[str]) -> set[tuple[str, str]]:
    """The ``("name", id)`` and ``("attr", attr)`` references in ``nodes``,
    annotations left out."""
    out: set[tuple[str, str]] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            stack += node.decorator_list + node.body
            stack += [d for d in args.defaults + args.kw_defaults if d is not None]
            continue
        if isinstance(node, ast.AnnAssign):
            stack += [node.target] + ([node.value] if node.value else [])
            continue
        if isinstance(node, ast.Name):
            out.add(("name", node.id))
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                out.add(("attr", node.attr))
        stack += ast.iter_child_nodes(node)
    return out


def _roots(trees: dict[str, ast.Module], modules: dict[str, set[str]]) -> set[tuple[str, str]]:
    names: set[tuple[str, str]] = set()
    for stem, tree in trees.items():
        top = [
            node
            for node in tree.body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))
        ]
        names |= _references(top, modules[stem])
    for path in ENTRY_POINTS:
        tree = ast.parse(path.read_text())
        names |= _references(tree.body, _modules_imported(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("charfol"):
                names |= {("name", alias.name) for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names |= {("attr", part) for part in parts}
    return names


def _scan() -> tuple[set[str], set[str]]:
    """(defined, reached)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in LIBRARY}
    modules = {stem: _modules_imported(tree) for stem, tree in trees.items()}
    defs = _definitions(trees)
    by_name: dict[str, list[str]] = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
    reached: set[str] = set()
    pending = list(_roots(trees, modules))
    seen: set[tuple[str, str]] = set()
    while pending:
        ref = pending.pop()
        if ref in seen:
            continue
        seen.add(ref)
        kind, name = ref
        for qual in by_name.get(name, ()):
            if kind == "name" and qual.count(".") > 1:
                continue  # a bare name is never a method
            todo = [qual]
            node = defs[qual]
            if isinstance(node, ast.ClassDef):
                # construction, comparison and printing call the dunders
                todo += [
                    f"{qual}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name.startswith("__")
                    and item.name.endswith("__")
                ]
            for q in todo:
                if q in reached:
                    continue
                reached.add(q)
                n = defs[q]
                if isinstance(n, ast.ClassDef):
                    body = n.bases + n.keywords + n.decorator_list
                    body += [s for s in n.body if not isinstance(s, ast.FunctionDef)]
                else:
                    body = [n]
                pending += _references(body, modules[q.split(".", 1)[0]])
    return set(defs), reached


def test_every_library_definition_is_reached():
    defined, reached = _scan()
    unreached = sorted(defined - reached)
    assert unreached == [], f"only tests reach {unreached}: delete them or move them to tests/"
