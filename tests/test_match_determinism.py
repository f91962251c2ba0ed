"""`match` names the binders of the subterm by their pattern depth, so two
matches of one redex give equal valuations, and two scans of one term give
equal redexes."""

import pathlib
import random

from icrs import (
    Abs, Sym, Var, contract, find_redexes, match, parse_system, parse_term,
    print_term,
)
from icrs.rewriting import redex_at

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

BINDING_RULES = {"lam", "hob", "nest"}
INSTANCES = 120


def fixpoint_term():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return parse_term(" ".join(ln.strip() for ln in lines
                               if ln.strip() and not ln.lstrip().startswith("#")))


def assert_repeatable(term, system, bound):
    first = find_redexes(term, system, bound)
    assert first == find_redexes(term, system, bound)
    for u in first:
        again = match(u.rule, term, u.position)
        assert again == match(u.rule, term, u.position)
        assert again == u.valuation
    return len(first)


def test_fixpoint_term_matches_repeatably():
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    assert assert_repeatable(fixpoint_term(), system, 8) >= 4


def test_random_binding_systems_match_repeatably():
    rng = random.Random(4242)
    checked = redexes = 0
    while checked < INSTANCES:
        system = genrand.random_system(rng)
        if not BINDING_RULES & {r.name for r in system.rules}:
            continue
        term = genrand.random_term(rng, system, rng.randint(2, 5))
        redexes += assert_repeatable(term, system, 6)
        checked += 1
    assert redexes >= INSTANCES


def test_binder_name_free_in_the_redex_is_not_captured():
    # the context binds `_b0`, the name the pattern's first binder would
    # get; the parser rejects such binders, so the term is built directly
    system = parse_system(genrand.CONSTRUCTORS + "\n"
                          "rule lam: ap(lm([x] Z(x)), W) -> Z(W) ;")
    inner = Abs("x", Sym("c2", (Var("x"), Var("_b0"))))
    redex = Sym("ap", (Sym("lm", (inner,)), Sym("k", ())))
    term = Sym("lm", (Abs("_b0", redex),))
    u = redex_at(term, system, (1, 0))
    assert print_term(contract(term, u).target) == "lm([_b0] c2(k, _b0))"
