"""`match` keeps the binder names of the subterm, so two matches of one
redex give equal valuations, and two scans of one term give equal redexes.
A binder that shadows an earlier binder of the same match is renamed; the
route that renamed every binder by its pattern depth is written out below
as the reference the kept names must agree with."""

import gc
import pathlib
import random
import weakref

from icrs import (
    Abs, Sym, Var, alpha_eq, contract, find_redexes, match, parse_system,
    parse_term, positions_to_depth, print_term,
)
from icrs import rewriting
from icrs.errors import PositionError, TermError
from icrs.rewriting import Substitute, Valuation, redex_at, substitute
from icrs.terms import (
    MetaApp, free_vars, fresh_name, match_memo, resolve, subterm_at,
)

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


def renaming_match(rule, term, position=()):
    """The old route: every binder of the subterm is renamed by its pattern
    depth (`_b0`, `_b1`, ...), copying the abstraction's body."""
    try:
        target = subterm_at(term, position)
    except (PositionError, TermError):
        return None
    assignment = {}

    def go(pat, tm, pairs, scope):
        tm = resolve(tm)
        match pat:
            case MetaApp(z, pargs):
                names = []
                for a in pargs:
                    if a.name not in pairs:
                        return False
                    names.append(pairs[a.name])
                if scope and (free_vars(tm) & set(scope)) - set(names):
                    return False
                sub = Substitute(tuple(names), tm)
                if z in assignment:
                    old = assignment[z]
                    return old.params == sub.params and alpha_eq(old.body, sub.body)
                assignment[z] = sub
                return True
            case Var(x, _):
                return isinstance(tm, Var) and pairs.get(x) == tm.name
            case Abs(x, pbody, _):
                if not isinstance(tm, Abs):
                    return False
                z = fresh_name(f"_b{len(scope)}", free_vars(tm) | set(scope))
                tbody = substitute(tm.body, (tm.var,), (Var(z),))
                return go(pbody, tbody, {**pairs, x: z}, scope + (z,))
            case Sym(f, pargs, _):
                return (isinstance(tm, Sym) and tm.fun == f
                        and len(tm.args) == len(pargs)
                        and all(go(pa, ta, pairs, scope)
                                for pa, ta in zip(pargs, tm.args)))
        return False

    if go(rule.lhs, target, {}, ()):
        return Valuation(assignment)
    return None


def scan_and_contract(term, system, bound):
    """The redexes of the term, as (position, rule) pairs, and the printed
    contractum of each."""
    redexes = find_redexes(term, system, bound)
    targets = [contract(term, u).target for u in redexes]
    return [(u.position, u.rule.name) for u in redexes], targets


def assert_agrees_with_renaming_route(monkeypatch, term, system, bound):
    kept = scan_and_contract(term, system, bound)
    with monkeypatch.context() as m:
        m.setattr(rewriting, "match", renaming_match)
        renamed = scan_and_contract(term, system, bound)
    assert kept[0] == renamed[0]
    for a, b in zip(kept[1], renamed[1]):
        assert alpha_eq(a, b)
        assert print_term(a) == print_term(b)
    return kept


def test_nested_same_name_binders(monkeypatch):
    system = parse_system(
        "sym h/1 ; sym a/0 ; sym b/0 ;\n"
        "rule two: f([x] g([y] Z(x, y))) -> Z(a, b) ;\n"
        "rule same: p([x] q([x] W(x))) -> W(a) ;")
    # the inner binder shadows the outer one: it alone is renamed
    term = parse_term("f([x] g([x] h(x)))")
    v = match(system.rule("two"), term)
    assert v["Z"].params == ("x", "_b1")
    assert print_term(v["Z"].body) == "h(_b1)"
    assert print_term(contract(term, redex_at(term, system, ())).target) == "h(b)"
    outer = parse_term("f([x] g([y] h(x)))")
    assert print_term(contract(outer, redex_at(outer, system, ())).target) == "h(a)"
    # the pattern's own binders shadow one another the same way
    term = parse_term("p([x] q([x] h(x)))")
    v = match(system.rule("same"), term)
    assert v["W"].params == ("_b1",)
    assert print_term(contract(term, redex_at(term, system, ())).target) == "h(a)"
    assert match(system.rule("same"), parse_term("p([y] q([x] h(y)))")) is None
    # the context binds `_b1`, the name the shadowing binder would get
    inner = Abs("x", Sym("g", (Abs("x", Sym("h", (Var("_b1"),))),)))
    terms = [parse_term(text) for text in (
        "f([x] g([x] h(x)))", "f([x] g([y] h(x)))",
        "c(f([x] g([x] f([x] g([x] x)))), p([x] q([x] h(x))))")]
    for term in terms + [Abs("_b1", Sym("f", (inner,)))]:
        found, _ = assert_agrees_with_renaming_route(
            monkeypatch, term, system, 6)
        assert found


def test_context_bound_variable_with_a_binder_name(monkeypatch):
    # the context's `z` is free in the redex, beside a subterm binder `z`
    system = parse_system("sym g/2 ;\nrule r: f([y] Z(y), W) -> Z(W) ;")
    term = parse_term("[z] f([y] [z] g(y, z), z)")
    u = redex_at(term, system, (0,))
    assert u.valuation["Z"].params == ("y",)
    target = contract(term, u).target
    assert print_term(target) == "[z] [z1] g(z, z1)"
    assert_agrees_with_renaming_route(monkeypatch, term, system, 4)
    # the same name bound inside the redex and free beside it
    term = parse_term("[y] f([y] g(y, y), y)")
    u = redex_at(term, system, (0,))
    assert u.valuation["Z"].params == ("y",)
    assert print_term(contract(term, u).target) == "[y] g(y, y)"


def test_kept_names_agree_with_renaming_route(monkeypatch):
    """Along seeded reductions of binding systems (whose contracta nest
    copies of one body, so binders come to shadow binders of the same
    name) and of the fixpoint term, the scans find the same redexes and
    every contractum is alpha-equal to, and prints as, the old route's."""
    rng = random.Random(77)
    checked = redexes = 0
    while checked < INSTANCES:
        system = genrand.random_system(rng)
        if not BINDING_RULES & {r.name for r in system.rules}:
            continue
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        for _ in range(4):
            found, targets = assert_agrees_with_renaming_route(
                monkeypatch, term, system, 6)
            redexes += len(found)
            if not found:
                break
            term = targets[rng.randrange(len(targets))]
        checked += 1
    assert redexes >= 2 * INSTANCES
    beta = parse_system((CORPUS / "lambda_beta.crs").read_text())
    term = fixpoint_term()
    for _ in range(6):
        found, targets = assert_agrees_with_renaming_route(
            monkeypatch, term, beta, 8)
        term = targets[0]


def uncached_match(rule, term, position=()):
    """`match` with its memo bypassed: the same matcher, run afresh.
    Returns the valuation or None, and whether the match unrolled a rec
    binder."""
    try:
        target = subterm_at(term, position)
    except (PositionError, TermError):
        return None, False
    return UNCACHED(rule, resolve(target))


UNCACHED = rewriting._match_node


def assert_memo_agrees(term, system, depth):
    """Every rule at every position to the depth: the memoised match, by
    position and at the node in hand, equals an uncached call, and is what
    the node's memo holds under the rule's weak reference: False for no match, the valuation
    itself when the match unrolled no rec binder, else a weak reference to
    it.  Returns the valuations found, the number of them kept weakly and
    the number of `match` calls."""
    found = []
    weak = calls = 0
    for p in positions_to_depth(term, depth):
        node = resolve(subterm_at(term, p))
        for rule in system.rules:
            expected, unrolled = uncached_match(rule, term, p)
            v = match(rule, term, p)
            assert v == expected
            kept = match_memo(node)[rule.ref]
            if v is None:
                assert kept is False
            elif unrolled:
                assert isinstance(kept, weakref.ref) and kept() is v
                weak += 1
            else:
                assert kept is v
            assert match(rule, node) is v
            calls += 2
            if expected is not None:
                found.append(expected)
    return found, weak, calls


# (system file, input term) of the benchmark's normalize inputs
CORPUS_INPUTS = [
    ("spine_growth.crs", "f(a, c)"), ("outermost_pair.crs", "f(a)"),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
]


def test_memo_agrees_with_uncached_match(monkeypatch):
    computed = []

    def counting(rule, node):
        computed.append(node)
        return UNCACHED(rule, node)

    monkeypatch.setattr(rewriting, "_match_node", counting)
    runs = [(parse_system((CORPUS / f).read_text()), parse_term(text))
            for f, text in CORPUS_INPUTS]
    runs.append((parse_system((CORPUS / "lambda_beta.crs").read_text()),
                 fixpoint_term()))
    rng = random.Random(91)
    for _ in range(60):
        system = genrand.random_system(rng)
        runs.append((system, genrand.random_term(rng, system, rng.randint(2, 4))))
    # the shadowing binders of test_nested_same_name_binders and of
    # test_context_bound_variable_with_a_binder_name
    nested = parse_system(
        "sym h/1 ; sym a/0 ; sym b/0 ;\n"
        "rule two: f([x] g([y] Z(x, y))) -> Z(a, b) ;\n"
        "rule same: p([x] q([x] W(x))) -> W(a) ;")
    inner = Abs("x", Sym("g", (Abs("x", Sym("h", (Var("_b1"),))),)))
    for term in [parse_term(text) for text in (
            "f([x] g([x] h(x)))", "f([x] g([y] h(x)))", "p([y] q([x] h(y)))",
            "c(f([x] g([x] f([x] g([x] x)))), p([x] q([x] h(x))))")] + [
            Abs("_b1", Sym("f", (inner,)))]:
        runs.append((nested, term))
    context = parse_system("sym g/2 ;\nrule r: f([y] Z(y), W) -> Z(W) ;")
    for text in ("[z] f([y] [z] g(y, z), z)", "[y] f([y] g(y, y), y)"):
        runs.append((context, parse_term(text)))
    found = []
    weak = calls = 0
    for system, term in runs:
        # along a few steps, so contracta nest copies of matched bodies
        for _ in range(3):
            more, w, n = assert_memo_agrees(term, system, 5)
            found += more
            weak += w
            calls += n
            redexes = find_redexes(term, system, 5)
            if not redexes:
                break
            term = contract(term, redexes[rng.randrange(len(redexes))]).target
    # matches below a rec binder, kept weakly, are among them
    assert len(found) >= 300 and weak >= 20
    # shadowing binders renamed to `_b<depth>` are among them
    assert sum(any(x.startswith("_b") for sub in v.assignment.values()
                   for x in sub.params) for v in found) >= 5
    # a match read back from the node's memo runs no matcher
    assert calls - len(computed) >= len(found)
    # a valuation kept strongly outlives a collection: matching again
    # reads it back without a run
    gc.collect()
    before = len(computed)
    kept = again = 0
    for system, term in runs:
        for p in positions_to_depth(term, 5):
            node = resolve(subterm_at(term, p))
            for rule in system.rules:
                held = match_memo(node).get(rule.ref)
                if held is not None and held.__class__ is not weakref.ref:
                    kept += held is not False
                    assert match(rule, node) is (held or None)
                    again += 1
    assert kept >= 100 and len(computed) == before and again >= kept
