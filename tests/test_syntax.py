import pathlib
import random

import pytest

from icrs import (
    Abs, MetaApp, Rec, RecVar, Sym, Var, alpha_eq, parse_position, parse_system, parse_term, position_str,
    print_system, print_term,
)
from icrs.errors import ParseError
from icrs.syntax import parse_metaterm

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"


def test_roundtrip_corpus_systems():
    for f in sorted(CORPUS.glob("*.crs")):
        system = parse_system(f.read_text())
        again = parse_system(print_system(system))
        assert again.signature == system.signature
        for r1, r2 in zip(system.rules, again.rules):
            assert r1.name == r2.name
            assert alpha_eq(r1.lhs, r2.lhs)
            assert alpha_eq(r1.rhs, r2.rhs)


@pytest.mark.parametrize("text", [
    "f([x] g(x), a)",
    "rec L. cons(a, L)",
    "[x] [y] p(x, y, k)",
    "rec G. [x] g(x, G)",
    "cons(a, rec L. cons(a, L))",
])
def test_roundtrip_terms(text):
    t = parse_term(text)
    assert alpha_eq(parse_term(print_term(t)), t)


def test_bare_lowercase_is_symbol_unless_bound():
    t = parse_term("f(x, [x] g(x))")
    # the first x is a nullary symbol, the second a bound variable
    from icrs.terms import Sym, free_vars

    assert isinstance(t.args[0], Sym)
    assert not free_vars(t)


def test_metaterm_only_in_rules():
    with pytest.raises(ParseError):
        parse_term("Z(a)")
    m = parse_metaterm("Z(a)")
    assert print_term(m) == "Z(a)"


def test_primed_metavariables():
    m = parse_metaterm("f([x] Z(x), Z')")
    assert print_term(m) == "f([x] Z(x), Z')"


def test_positions():
    assert parse_position("@") == ()
    assert parse_position("1.0.2") == (1, 0, 2)
    assert position_str(()) == "@"
    assert position_str((1, 0, 2)) == "1.0.2"


def test_hole_parses_and_prints():
    assert print_term(parse_term("f(_|_)")) == "f(_|_)"


def test_arity_conflict_rejected():
    with pytest.raises(ParseError):
        parse_system("rule r1: f(Z) -> k ; rule r2: f(Z, W) -> k ;")


def test_parse_error_position():
    with pytest.raises(ParseError):
        parse_system("rule r1: f(Z) - > k ;")


def test_truncated_printing():
    t = parse_term("rec G. g(G)")
    assert print_term(t, max_depth=2) == "g(g(_|_))"


def recursive_print(u):
    """The recursive printer the iterative one replaced."""
    match u:
        case Var(x, _) | RecVar(x):
            return x
        case Abs(x, body, _):
            return f"[{x}] {recursive_print(body)}"
        case Sym(f, args, _) | MetaApp(f, args):
            if not args:
                return f
            return f"{f}({', '.join(recursive_print(a) for a in args)})"
        case Rec(v, body):
            return f"rec {v}. {recursive_print(body)}"


def test_deep_chain_parses_and_prints_back():
    # deeper than the recursion limit
    text = "g(" * 3000 + "a" + ")" * 3000
    assert print_term(parse_term(text)) == text
    text = "rec S. " + "[x] " * 3000 + "g(x, S)"
    assert print_term(parse_term(text)) == text


def test_printing_agrees_with_recursive_printer():
    rng = random.Random(12)
    checked = 0
    for _ in range(200):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(1, 6))
        text = print_term(term)
        assert text == recursive_print(term)
        assert print_term(parse_term(text)) == text
        checked += 1
    for f in sorted(CORPUS.glob("*.crs")):
        for rule in parse_system(f.read_text()).rules:
            for side in (rule.lhs, rule.rhs):
                assert print_term(side) == recursive_print(side)
                checked += 1
    assert checked >= 220


@pytest.mark.parametrize("text,where", [
    ("f(a, [X] b)", "1:7"),
    ("rec x. a", "1:5"),
    ("f(a, b", "1:7"),
    ("f(a,, b)", "1:5"),
    ("f(Z)", "1:3"),
    ("rec L. L(a)", "1:8"),
    ("g(a) h", "1:6"),
])
def test_parse_errors_keep_their_positions(text, where):
    # each node is judged with the binders in scope at its own name
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert str(e.value).startswith(where)


def test_names_are_judged_in_their_own_scope():
    # the inner rec binds X for its body only, not for the outer X(...)
    assert print_term(parse_metaterm("X([x] x, rec X. f(X))")) == (
        "X([x] x, rec X. f(X))")
    assert print_term(parse_term("f([x] g(x), x)")) == "f([x] g(x), x)"
    assert isinstance(parse_term("f([x] g(x), x)").args[1], Sym)
