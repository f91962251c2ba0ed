"""Walks in the engine go over explicit stacks, so deep terms do not reach
the interpreter's recursion limit: no function in the package calls itself
by its bare name, and no method calls itself through `self`, but for the
walks listed below."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "icrs"

ALLOWED = {
    # walks a rule's right-hand side, whose depth the rule's author sets
    "rewriting.apply_valuation.go",
    # walks a rule's left-hand side against a node, as deep as the pattern
    "rewriting._match_node.go",
    # the rule checks walk rule sides, as deep as the rule's author wrote
    # them: metavariable chains, renaming apart, and unifying two left-hand
    # sides for overlaps
    "systems._metavar_chain_cycle.walk",
    "systems._rename_metavars",
    "systems._Unifier.unify",
    "systems._Unifier._coverable",
    "systems._Unifier._ground",
    # builds a random test term to a depth the caller gives, a few levels
    "_randgen.random_term",
}


def calls_itself(fn, in_class):
    """Does the function call itself by its bare name, or, as a method,
    through `self`?"""
    for n in ast.walk(fn):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (in_class and isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"):
            return True
    return False


def self_calls(tree, module):
    """Qualified names of the functions that call themselves, nested
    functions and methods included."""
    found = []

    def visit(node, scope, in_class=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + (child.name,))
                if calls_itself(child, in_class):
                    found.append(name)
                visit(child, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), in_class=True)
            else:
                visit(child, scope, in_class)

    visit(tree, (module,))
    return found


def test_the_scan_finds_a_nested_self_call():
    tree = ast.parse("def outer(t):\n"
                     "    def walk(u):\n"
                     "        return [walk(c) for c in u]\n"
                     "    return walk(t)\n")
    assert self_calls(tree, "m") == ["m.outer.walk"]


def test_the_scan_finds_a_method_calling_itself():
    tree = ast.parse("class C:\n"
                     "    def walk(self, u):\n"
                     "        return [self.walk(c) for c in u]\n"
                     "    def other(self, u):\n"
                     "        return self.walk(u)\n")
    assert self_calls(tree, "m") == ["m.C.walk"]


def test_no_term_walk_recurses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += self_calls(tree, path.stem)
    assert set(found) == ALLOWED, sorted(set(found) ^ ALLOWED)
