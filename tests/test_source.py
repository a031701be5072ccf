"""Source hygiene: every module parses as Python 3.10, which the package
declares as its minimum, carries no unused import or dead private name,
and bounds every cache it keeps."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _trees():
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _loaded_names(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_unused_imports():
    # package __init__ modules import in order to re-export
    unused = []
    for path, tree in _trees().items():
        if path.name == "__init__.py":
            continue
        used = _loaded_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s: %s" % (path.relative_to(SRC), name))
    assert unused == []


def test_no_unreferenced_private_names():
    trees = _trees()
    referenced = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                referenced.add(n.id)
            elif isinstance(n, ast.Attribute):
                referenced.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                referenced.update(a.name for a in n.names)
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += ["%s: %s" % (path.relative_to(SRC), name) for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in referenced]
    assert dead == []


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _unbounded_caches(tree):
    """Nodes that set up a cache without an integer maxsize."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and _named(n.func, "lru_cache"):
            size = n.args[0] if n.args else next(
                (k.value for k in n.keywords if k.arg == "maxsize"), None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                yield n
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from (d for d in n.decorator_list if _named(d, "lru_cache"))
        elif (isinstance(n, ast.Attribute) and n.attr == "cache"
              and isinstance(n.value, ast.Name) and n.value.id == "functools"
              or isinstance(n, ast.ImportFrom) and n.module == "functools"
              and any(a.name == "cache" for a in n.names)):
            yield n


def test_every_lru_cache_has_an_integer_maxsize():
    # cache memory needs explicit bounds: no maxsize=None, no bare
    # @lru_cache (128 by default, but unstated) and no functools.cache
    unbounded = ["%s:%d" % (path.relative_to(SRC), n.lineno)
                 for path, tree in _trees().items() for n in _unbounded_caches(tree)]
    assert unbounded == []


def _node_classes(trees):
    """(path, class) for each class that subclasses `Node`, directly or
    through another such class."""
    classes = [(p, n) for p, tree in trees.items() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    names = {"Node"}
    while True:
        found = {n.name for _, n in classes if any(_named(b, m) for b in n.bases for m in names)}
        if found <= names:
            return [(p, n) for p, n in classes if n.name in names - {"Node"}]
        names |= found


def test_no_node_class_is_a_dataclass():
    # `Node` builds, freezes and prints every node from the annotated
    # fields; a dataclass decorator would generate a second constructor
    nodes = _node_classes(_trees())
    assert len(nodes) >= 28
    decorated = ["%s: %s" % (p.relative_to(SRC), n.name) for p, n in nodes
                 if any(_named(d.func if isinstance(d, ast.Call) else d, "dataclass")
                        for d in n.decorator_list)]
    assert decorated == []
