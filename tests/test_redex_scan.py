"""The indexed, node-local redex scans agree with the route they replaced:
every rule matched from the root at every position up to a bound."""

import random

import pytest

from icrs import (
    FAIR, OUTERMOST_FAIR, MetaApp, Rule, Sym, find_redexes, is_normal_form,
    match, parse_system, parse_term,
)
from icrs.rewriting import redex_at
from icrs.strategies import _Predicate, min_redex_depth
from icrs.systems import RewriteSystem
from icrs.terms import positions_to_depth

import genrand

INSTANCES = 80


def root_walk_redexes(term, system, depth_bound):
    """(position, rule name) of every redex above the bound, by matching
    every rule from the root at every position."""
    out = []
    if depth_bound <= 0:
        return out
    for p in sorted(positions_to_depth(term, depth_bound - 1)):
        for rule in system.rules:
            if match(rule, term, p) is not None:
                out.append((p, rule.name))
    out.sort(key=lambda x: (len(x[0]), x[0]))
    return out


def root_walk_outermost(term, system, position, rule):
    if match(rule, term, position) is None:
        return False
    return not any(match(r, term, position[:k]) is not None
                   for k in range(len(position)) for r in system.rules)


def instances(seed, count=INSTANCES, depth=4):
    rng = random.Random(seed)
    for _ in range(count):
        system = genrand.random_system(rng)
        yield system, genrand.random_term(rng, system, depth)


def names(redexes):
    return [(u.position, u.rule.name) for u in redexes]


def test_find_redexes_agrees_with_root_walk():
    for system, term in instances(31):
        for bound in (0, 1, 3, 6):
            assert (names(find_redexes(term, system, bound))
                    == root_walk_redexes(term, system, bound))


def test_redex_at_agrees_with_root_walk():
    for system, term in instances(32, count=40):
        for p in sorted(positions_to_depth(term, 4)) + [(9,), (1, 9)]:
            u = redex_at(term, system, p)
            first = next((r.name for r in system.rules
                          if match(r, term, p) is not None), None)
            assert (u.rule.name if u else None) == first


def test_outermost_satisfies_agrees_with_prefix_check():
    # satisfies takes a redex of the term, so only redexes are checked
    for system, term in instances(33):
        pred = _Predicate(OUTERMOST_FAIR, system)
        fair = _Predicate(FAIR, system)
        for u in find_redexes(term, system, 6):
            assert (pred.satisfies(term, u)
                    == root_walk_outermost(term, system, u.position, u.rule))
            assert fair.satisfies(term, u)


def deep_instances(seed, count=30):
    """Random terms hung below a long random spine of constructors and
    redex roots, so that redexes and their ancestors lie deep."""
    rng = random.Random(seed)
    for _ in range(count):
        system = genrand.random_system(rng)
        names_ = {r.name for r in system.rules}
        unary = ["c1"] + sorted(names_ & {"dup", "drop", "col", "uno"})
        term = genrand.random_term(rng, system, 3, allow_rec=False)
        spine = rng.randint(15, 50)
        for _ in range(spine):
            roll = rng.random()
            if roll < 0.2:
                term = Sym("c2", (term, Sym("k")))
            elif roll < 0.35:
                term = Sym("c2", (Sym("k"), term))
            elif roll < 0.45 and "swap" in names_:
                term = Sym("swap", (term, Sym("k")))
            else:
                term = Sym(rng.choice(unary), (term,))
        yield system, term, spine + 4


def test_outermost_satisfies_agrees_on_deep_positions():
    # the scan's trie answers above its bound, matching below it
    checked = deep = 0
    for system, term, depth in deep_instances(35):
        redexes = find_redexes(term, system, depth)
        expected = [root_walk_outermost(term, system, u.position, u.rule)
                    for u in redexes]
        for bound in (0, 5, 17, depth):
            pred = _Predicate(OUTERMOST_FAIR, system)
            pred.scanned(term, find_redexes(term, system, bound), bound)
            for u, want in zip(redexes, expected):
                assert pred.satisfies(term, u) == want
                checked += 1
                deep += u.depth >= 20
    assert checked >= 1000
    assert deep >= 300


def test_normal_form_and_min_depth_agree_with_root_walk():
    # the generated terms' distinct nodes all occur above depth 12
    for system, term in instances(34):
        old = root_walk_redexes(term, system, 12)
        depth = min_redex_depth(term, system)
        assert depth == (len(old[0][0]) if old else None)
        assert is_normal_form(term, system) == (not old)


def test_min_redex_depth_has_no_fixed_bound(spine_system):
    deep = parse_term("g(b, " * 100 + "a" + ")" * 100)
    assert min_redex_depth(deep, spine_system) == 100
    assert min_redex_depth(parse_term("rec S. g(b, S)"), spine_system) is None


@pytest.mark.parametrize("lhs_root", [MetaApp("Z"), Sym("c1", (MetaApp("Z"),))])
def test_rule_without_symbol_root_is_tried_everywhere(lhs_root):
    # check_rule rejects a meta-variable at the lhs root, but an unchecked
    # system still matches it at every node, in rule order
    base = parse_system("sym k/0 ; sym c1/1 ; sym c2/2 ;\n"
                        "rule dup: dup(Z) -> c2(Z, Z) ;")
    anywhere = Rule("any", MetaApp("Z"), Sym("k"))
    system = RewriteSystem((anywhere, Rule("root", lhs_root, Sym("k")))
                           + base.rules, base.signature)
    term = parse_term("c2(dup(c1(k)), rec S. c1(S))")
    for bound in (1, 2, 4):
        assert (names(find_redexes(term, system, bound))
                == root_walk_redexes(term, system, bound))
    assert min_redex_depth(term, system) == 0
