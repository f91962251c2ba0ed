"""Term walks in the term, rewriting and strategy layers go over explicit
stacks, so deep terms do not reach the interpreter's recursion limit: no
function there calls itself by its bare name, but for the walks listed
below."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "icrs"
MODULES = ("terms.py", "rewriting.py", "strategies.py")

ALLOWED = {
    # walks a rule's right-hand side, whose depth the rule's author sets
    "rewriting.apply_valuation.go",
    # walks a rule's left-hand side against a node, as deep as the pattern
    "rewriting._match_node.go",
}


def self_calls(tree, module):
    """Qualified names of the functions that call themselves by bare name,
    nested functions included."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + (child.name,))
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == child.name for n in ast.walk(child)):
                    found.append(name)
                visit(child, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(tree, (module,))
    return found


def test_the_scan_finds_a_nested_self_call():
    tree = ast.parse("def outer(t):\n"
                     "    def walk(u):\n"
                     "        return [walk(c) for c in u]\n"
                     "    return walk(t)\n")
    assert self_calls(tree, "m") == ["m.outer.walk"]


def test_no_term_walk_recurses():
    found = []
    for name in MODULES:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        found += self_calls(tree, name[:-3])
    assert set(found) == ALLOWED, sorted(set(found) ^ ALLOWED)
