"""Engine modules import each other at module level and by public names
only: no module reaches for a `_`-prefixed name of a sibling, and no engine
import hides inside a function."""

import ast
import os
import pathlib
import subprocess
import sys

from icrs.terms import Term

SRC = pathlib.Path(__file__).parent.parent / "src" / "icrs"


def engine_imports(tree):
    """(import node, enclosing function or None) for every import of an
    icrs module: relative imports and absolute `icrs` ones."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child
            if isinstance(child, ast.ImportFrom):
                if child.level or (child.module or "").split(".")[0] == "icrs":
                    out.append((child, inner))
            elif isinstance(child, ast.Import):
                if any(a.name.split(".")[0] == "icrs" for a in child.names):
                    out.append((child, inner))
            visit(child, inner)

    visit(tree, None)
    return out


def offences(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node, func in engine_imports(tree):
        where = f"{path.name}:{node.lineno}"
        if func is not None:
            found.append(f"{where}: engine import inside {func.name}")
        # `from . import _randgen` names a module; `from .x import _y` a private name
        if isinstance(node, ast.ImportFrom) and node.module:
            private = [a.name for a in node.names if a.name.startswith("_")]
            if private:
                found.append(f"{where}: private names {private} from {node.module}")
    return found


def test_no_private_or_function_local_engine_imports():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [o for path in paths for o in offences(path)]
    assert not found, "\n".join(found)


def test_node_slots_are_read_in_terms_only():
    """The per-node summaries and memos are the term layer's own: other
    modules go through public helpers."""
    slots = set(Term.__slots__) - {"__weakref__"}
    assert {"_tagged", "_free", "_matches", "_unrolled"} <= slots
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "terms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in slots:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not found, "\n".join(found)


def dataclass_uses(path):
    """Lines of the module that import `dataclasses` or name `dataclass`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            hit = any(a.name == "dataclasses" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "dataclasses"
        else:
            hit = getattr(node, "id", getattr(node, "attr", None)) == "dataclass"
        if hit:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_uses_dataclasses():
    """A dataclass generates and compiles its methods when the module is
    imported, and `dataclasses` loads `inspect`: the engine's records and
    term nodes are plain slotted classes, and importing the engine loads
    neither module."""
    found = [o for path in sorted(SRC.glob("*.py")) for o in dataclass_uses(path)]
    assert not found, "\n".join(found)
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, icrs; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert loaded.strip() == "[]"


# calls that make a mapping at module level, and caching decorators
TABLE_MAKERS = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
                "WeakValueDictionary"}
CACHE_DECORATORS = {"lru_cache", "cache"}


def called_name(node):
    """The name a call or a bare reference names, `f` or `mod.f`."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def module_tables(path):
    """(name, maker) for each name the module binds at its top level to a
    mapping: "dict" for a literal or comprehension, else the call."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if isinstance(node.value, (ast.Dict, ast.DictComp)):
                maker = "dict"
            else:
                maker = called_name(node.value)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if maker in TABLE_MAKERS:
                found += [(t.id, maker) for t in targets if isinstance(t, ast.Name)]
    return found


def cached_functions(path):
    """The functions of the module, at any depth, under a caching
    decorator."""
    return [f"{path.name}:{node.lineno}: {node.name}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(called_name(d) in CACHE_DECORATORS for d in node.decorator_list)]


def test_needed_fair_tables_are_owned_by_the_run():
    """The redex-local epsilon images live in a table that a needed-fair
    run owns and drops: neither module on that route keeps a module-level
    mapping or cache, so a long-lived process does not accumulate them."""
    for name in ("strategies.py", "essential.py"):
        assert module_tables(SRC / name) == [], name
        assert cached_functions(SRC / name) == [], name


def test_modules_keep_weak_tables_only():
    """No engine module caches under a decorator, and every module-level
    mapping is a weak table keyed by the term its entries are read from: a
    fact derived from a rule side lives as long as the rule side, so
    nothing a module holds outlives the systems that made it."""
    paths = sorted(SRC.glob("*.py"))
    cached = [c for path in paths for c in cached_functions(path)]
    assert not cached, "\n".join(cached)
    tables = {(path.name, name): maker for path in paths
              for name, maker in module_tables(path)}
    assert tables == {("rewriting.py", "_plans"): "WeakKeyDictionary",
                      ("systems.py", "_metas"): "WeakKeyDictionary"}


def undeleted_self_calls(path):
    """(checked, offences): the nested functions of the module that call
    themselves by name, and those of them that the enclosing function does
    not `del`.  Such a closure holds itself through its cell, so each call
    of the enclosing function leaves a cycle for the cyclic collector."""
    checked, found = [], []

    def calls_itself(fn):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == fn.name for n in ast.walk(fn))

    def deletes(fn, name):
        return any(isinstance(n, ast.Delete) and any(
            isinstance(t, ast.Name) and t.id == name for t in n.targets)
            for n in ast.walk(fn))

    def visit(node, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if outer is not None and calls_itself(child):
                    where = f"{path.name}:{child.lineno}: {child.name} in {outer.name}"
                    checked.append(where)
                    if not deletes(outer, child.name):
                        found.append(where)
                visit(child, child)
            else:
                visit(child, None if isinstance(child, ast.ClassDef) else outer)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return checked, found


def test_self_calling_closures_are_deleted():
    """A nested function that calls itself is dropped by its enclosing
    function before it returns, so no call leaves a cycle behind."""
    checked, found = [], []
    for path in sorted(SRC.glob("*.py")):
        c, f = undeleted_self_calls(path)
        checked += c
        found += f
    assert len(checked) >= 3, checked  # rewriting's two walks and one in systems
    assert not found, "\n".join(found)
