"""Every library definition is reached from code that a user runs.

The scan parses ``src/charfol/*.py`` with :mod:`ast`.  It starts from the
names that the library uses at module level (the console script's ``main``
among them) and from everything that ``scripts/*.py`` and ``perfbench/*.py``
name, including the dotted strings by which the benchmark's tracer binds
what it wraps.  From there it follows the ``Name`` and ``Attribute``
references inside each reached definition.  A name matches every top-level
function or class so called.  An attribute ``self.m`` inside a method of
class ``C`` matches the methods ``m`` of ``C`` and of its library bases and
subclasses; any other attribute matches every method so called, and every
top-level definition.  So the scan can only over-approximate what is
reached; annotations are not references.

Every definition must be reached.  Code that only tests call, such as the
reference implementations the tests compare the library with, belongs in
``tests/``.  The definitions that only ``perfbench/`` reaches are pinned by
name, so what the benchmark alone keeps alive is written down.

A second scan holds every library module to its imports: each name an
import binds must be read in the module, in an annotation or through
``__all__`` at least.
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


def _references(nodes, modules: set[str], owner: str | None = None) -> set[tuple[str, str]]:
    """The ``("name", id)``, ``("attr", attr)`` and ``("self", "<owner>.<attr>")``
    references in ``nodes``, annotations left out; the last kind is an
    attribute of ``self`` inside a method of the class ``owner``."""
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
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if receiver == "self" and owner is not None:
                out.add(("self", f"{owner}.{node.attr}"))
            elif receiver not in modules:
                out.add(("attr", node.attr))
        stack += ast.iter_child_nodes(node)
    return out


def _families(defs: dict[str, ast.AST]) -> dict[str, set[str]]:
    """Each library class with its library bases and subclasses, at any
    depth, and the bases of those subclasses: the classes whose methods
    ``self`` may reach inside it.  A base matches every library class of its
    name."""
    by_name: dict[str, list[str]] = {}
    for qual, node in defs.items():
        if isinstance(node, ast.ClassDef):
            by_name.setdefault(node.name, []).append(qual)
    parents = {
        qual: {
            base
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
            for base in by_name.get(b.id if isinstance(b, ast.Name) else b.attr, ())
        }
        for qual, node in defs.items()
        if isinstance(node, ast.ClassDef)
    }

    def closure(start: str, step) -> set[str]:
        seen, todo = set(), [start]
        while todo:
            for nxt in step(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    children = {qual: {c for c, ps in parents.items() if qual in ps} for qual in parents}
    out = {}
    for qual in parents:
        below = {qual} | closure(qual, children.__getitem__)
        out[qual] = below.union(*(closure(c, parents.__getitem__) for c in below))
    return out


def _roots(
    trees: dict[str, ast.Module], modules: dict[str, set[str]], entries: list[ast.Module]
) -> set[tuple[str, str]]:
    names: set[tuple[str, str]] = set()
    for stem, tree in trees.items():
        top = [
            node
            for node in tree.body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))
        ]
        names |= _references(top, modules[stem])
    for tree in entries:
        names |= _references(tree.body, _modules_imported(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("charfol"):
                names |= {("name", alias.name) for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names |= {("attr", part) for part in parts}
    return names


def _scan(trees: dict[str, ast.Module], entries: list[ast.Module]) -> tuple[set[str], set[str]]:
    """(defined, reached) for library modules by stem and entry-point modules."""
    modules = {stem: _modules_imported(tree) for stem, tree in trees.items()}
    defs = _definitions(trees)
    families = _families(defs)
    by_name: dict[str, list[str]] = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
    reached: set[str] = set()
    pending = list(_roots(trees, modules, entries))
    seen: set[tuple[str, str]] = set()
    while pending:
        ref = pending.pop()
        if ref in seen:
            continue
        seen.add(ref)
        kind, name = ref
        if kind == "self":
            owner, attr = name.rsplit(".", 1)
            matches = [f"{cls}.{attr}" for cls in families[owner] if f"{cls}.{attr}" in defs]
        else:
            # a bare name is never a method
            matches = [q for q in by_name.get(name, ()) if kind == "attr" or q.count(".") == 1]
        for qual in matches:
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
                stem, *path = q.split(".")
                if isinstance(n, ast.ClassDef):
                    body = n.bases + n.keywords + n.decorator_list
                    body += [s for s in n.body if not isinstance(s, ast.FunctionDef)]
                    pending += _references(body, modules[stem])
                else:
                    owner = f"{stem}.{path[0]}" if len(path) == 2 else None
                    pending += _references([n], modules[stem], owner)
    return set(defs), reached


def _library_scan() -> tuple[set[str], set[str]]:
    trees = {path.stem: ast.parse(path.read_text()) for path in LIBRARY}
    return _scan(trees, [ast.parse(path.read_text()) for path in ENTRY_POINTS])


def test_every_library_definition_is_reached():
    defined, reached = _library_scan()
    unreached = sorted(defined - reached)
    assert unreached == [], f"only tests reach {unreached}: delete them or move them to tests/"


#: the definitions that only ``perfbench/`` reaches, each with the line
#: there that keeps it; a benchmark change that drops the line frees the
#: definition, and a library change that keeps a definition alive for the
#: benchmark alone adds it here
BENCHMARK_ONLY = {
    # workloads.py: len(g.faces()) in _add_pair, _instance and the _grow predicates
    "model.FoliationGraph.faces",
    # workloads.py check_universe: g.is_isomorphic(lib.zoo.example(name))
    "model.FoliationGraph.is_isomorphic",
    # workloads.py _add_pair: lib.moves.create_pair(g, ...); tracer.py TRACED
    "moves.create_pair",
    # workloads.py check_polygon: lib.moves.eliminate_embryo; tracer.py TRACED
    "moves.eliminate_embryo",
    # workloads.py check_polygon: lib.moves.resolve_connection(g, eid, ...); tracer.py TRACED
    "moves.resolve_connection",
    # workloads.py check_polygon: lib.moves.resolve_embryo
    "moves.resolve_embryo",
    # workloads.py check_polygon, through eliminate_embryo and resolve_embryo
    "moves._embryo_site",
    # workloads.py _add_pair and check_polygon, through create_pair and resolve_embryo
    "moves._Surgeon.fresh_point_id",
    # tracer.py TRACED: ("taming", "is_lyapunov")
    "taming.is_lyapunov",
    # tracer.py TRACED: ("taming", "is_taming")
    "taming.is_taming",
}


def test_the_benchmark_alone_keeps_these_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in LIBRARY}
    entries = {path: ast.parse(path.read_text()) for path in ENTRY_POINTS}
    _, reached = _scan(trees, list(entries.values()))
    others = [tree for path, tree in entries.items() if path.parent.name != "perfbench"]
    _, without = _scan(trees, others)
    assert reached - without == BENCHMARK_ONLY


# a method that shares its name with a reached one: the scan that matched
# every attribute by name alone took ``B.helper`` for reached through
# ``self.helper`` in ``A.run``
SHADOWED_METHOD = """
class Base:
    def base(self):
        return 0


class A:
    def run(self):
        return self.helper() + self.base()

    def helper(self):
        return 1


class C(A, Base):
    def helper(self):
        return 2


class B:
    def other(self):
        return 3

    def helper(self):
        return 4


def main():
    return C().run() + B().other()


main()
"""


def test_self_attributes_reach_only_their_class_family():
    # self in A.run may be a C, so it reaches C's override and C's other
    # base; B is no kin of A, and nothing else names its helper
    defined, reached = _scan({"m": ast.parse(SHADOWED_METHOD)}, [])
    assert sorted(defined - reached) == ["m.B.helper"]
    assert {"m.A.helper", "m.C.helper", "m.Base.base"} <= reached


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that a module's imports bind and nothing in it reads.

    A read is any ``Name``, annotations included, or an entry of the
    module's ``__all__``; ``from __future__`` imports bind no name.
    """
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in bound if name not in read]


def test_every_library_import_is_used():
    unused = {
        path.name: names
        for path in LIBRARY
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}, f"imported but never read: {unused}"


def test_the_import_scan_reads_annotations_and_all():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Mapping, Sequence\n"
        "from .m import A, B as C, D\n"
        "__all__ = ['D']\n"
        "def f(x: Mapping) -> C:\n"
        "    return x\n"
    )
    assert _unused_imports(tree) == ["os", "Sequence", "A"]
