"""The rule kernel: instantiation from a per-rhs plan and the
class-dispatched matcher agree with the recursive walks they replaced,
copied below as references, and the plans pin no term.  The memo's
contract is checked in `test_match_determinism.py`.

On untagged inputs the kernel returns the very same nodes as the
references.  On tagged inputs it may keep more tags: an occurrence of a
renamed binder keeps its own tag, where the references dropped it."""

import contextlib
import gc
import io
import pathlib
import random

import pytest

from icrs import (
    FAIR, Abs, Rec, RecVar, Sym, Var, contract, find_redexes, normalize,
    parse_system, parse_term, positions_to_depth,
)
from icrs import rewriting, systems
from icrs.cli import main
from icrs.developments import PathSpace
from icrs.errors import (
    ArityMismatch, EngineError, FiniteChainsViolated, TermError,
    UnassignedMetaVariable,
)
from icrs.oracle import brute_descendant_map
from icrs.rewriting import (
    Redex, Substitute, Valuation, apply_substitute, apply_valuation, redex_at,
    substitute,
)
from icrs.syntax import parse_metaterm
from icrs.terms import (
    MetaApp, alpha_eq, check_guarded, children, fresh_name, free_vars,
    iter_tagged, resolve, set_tag_at, strip_tags, subterm_at,
    truncate,
)

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"
NAMES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the references: the recursive walks the kernel replaced

def ref_apply_valuation(valuation, metaterm):
    avoid = None
    has_rec = False

    def go(t):
        nonlocal avoid, has_rec
        match t:
            case Var(_, _) | RecVar(_):
                return t
            case Abs(x, body, tag):
                if avoid is None:
                    avoid = set().union(*(
                        free_vars(sub.body) - set(sub.params)
                        for sub in valuation.assignment.values()))
                if x in avoid:
                    x2 = fresh_name(x, avoid | free_vars(body))
                    body = substitute(body, (x,), (Var(x2),))
                    x = x2
                return Abs(x, go(body), tag)
            case Sym(f, args, tag):
                return Sym(f, tuple(go(a) for a in args), tag)
            case MetaApp(z, args):
                return apply_substitute(valuation[z], tuple(go(a) for a in args))
            case Rec(v, body):
                has_rec = True
                return Rec(v, go(body))
        raise TypeError(f"not a meta-term: {t!r}")

    out = go(metaterm)
    if has_rec:
        try:
            check_guarded(out)
        except TermError as e:
            raise FiniteChainsViolated(str(e)) from e
    return out


def ref_match_node(rule, node):
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
                z, tbody = tm.var, tm.body
                if z in scope:
                    z = fresh_name(f"_b{len(scope)}", free_vars(tm) | set(scope))
                    tbody = substitute(tbody, (tm.var,), (Var(z),))
                return go(pbody, tbody, {**pairs, x: z}, scope + (z,))
            case Sym(f, pargs, _):
                return (isinstance(tm, Sym) and tm.fun == f
                        and len(tm.args) == len(pargs)
                        and all(go(pa, ta, pairs, scope)
                                for pa, ta in zip(pargs, tm.args)))
        return False

    if go(rule.lhs, node, {}, ()):
        return Valuation(assignment)
    return None


def outcome(f, *args):
    """The result, or the type and message of the engine error raised."""
    try:
        return f(*args)
    except EngineError as e:
        return type(e), str(e)


def nodes(t):
    """The nodes of t's representation, rec bodies included."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        out.append(u)
        todo.extend((u.body,) if isinstance(u, Rec) else (c for _, c in children(u)))
    return out


def tags(t):
    return set(iter_tagged(truncate(t, 8))[0])


def assert_same_up_to_kept_tags(got, want):
    """got is want, or (on tagged inputs) want with more tags kept."""
    if got is want:
        return False
    assert strip_tags(got) is strip_tags(want)
    assert tags(want) <= tags(got)
    return True


# ---------------------------------------------------------------------------
# seeded inputs

def tag_some(rng, t, share):
    """t with tags on some of its positions to depth 8."""
    for i, p in enumerate(sorted(positions_to_depth(t, 8))):
        if rng.random() < share and not isinstance(subterm_at(t, p), MetaApp):
            t = set_tag_at(t, p, i)
    return t


def random_body(rng, depth, free, recs=()):
    """A term whose free variables are among `free`: shadowing binders from
    NAMES, and rec binders named S, so substituting a rec variable S into it
    renames them."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        if free and rng.random() < 0.6:
            return Var(rng.choice(free))
        if recs and rng.random() < 0.3:
            return RecVar(rng.choice(recs))
        return Sym("c", ())
    if roll < 0.45:
        x = rng.choice(NAMES)
        return Abs(x, random_body(rng, depth - 1, free + (x,), recs))
    if roll < 0.55:
        v = "S" if "S" not in recs else "T"
        return Rec(v, Sym("g", (random_body(rng, depth - 1, free, recs + (v,)), RecVar(v))))
    if roll < 0.75:
        return Sym("h", (random_body(rng, depth - 1, free, recs),))
    return Sym("g", (random_body(rng, depth - 1, free, recs),
                     random_body(rng, depth - 1, free, recs)))


def random_valuation(rng, arities, faults):
    """Substitutes whose bodies have the context's names y and z free beside
    their parameters, so rhs binders named y or z must be renamed.  With
    faults, a meta-variable may be left out or given repeated parameters."""
    assignment = {}
    for z, n in arities.items():
        if faults and rng.random() < 0.08:
            continue
        params = tuple(rng.sample(("x", "y", "z", "w"), n))
        if faults and n > 1 and rng.random() < 0.2:
            params = (params[0],) * n
        free = params + (("y", "z") if rng.random() < 0.8 else ())
        assignment[z] = Substitute(params, random_body(rng, rng.randint(0, 3), free))
    return Valuation(assignment)


def random_metaterm(rng, depth, arities, faults, bound=(), recs=()):
    """A rule side: symbols, abstractions over NAMES, guarded rec binders,
    and meta-variables, nested and 0-ary; with faults, some applied to the
    wrong number of arguments, or round a bare rec loop."""
    roll = rng.random()
    metas = sorted(arities)
    if depth <= 0 or roll < 0.15:
        if bound and rng.random() < 0.5:
            return Var(rng.choice(bound))
        if recs and rng.random() < 0.3:
            return RecVar(rng.choice(recs))
        zero = [z for z in metas if arities[z] == 0]
        if zero and rng.random() < 0.5:
            return MetaApp(rng.choice(zero), ())
        return Sym("c", ())
    if roll < 0.45:
        z = rng.choice(metas)
        n = arities[z]
        if faults and rng.random() < 0.1:
            n = rng.choice([k for k in range(4) if k != n])
        return MetaApp(z, tuple(random_metaterm(rng, depth - 1, arities, faults, bound, recs)
                                for _ in range(n)))
    if roll < 0.65:
        x = rng.choice(NAMES)
        return Abs(x, random_metaterm(rng, depth - 1, arities, faults, bound + (x,), recs))
    if roll < 0.75:
        v = f"R{depth}"
        body = random_metaterm(rng, depth - 1, arities, faults, bound, recs + (v,))
        if faults and rng.random() < 0.3:
            unary = [z for z in metas if arities[z] == 1]
            if unary:
                # rec W. Z(W): unguarded when Z projects on its argument
                return Rec(v, MetaApp(rng.choice(unary), (RecVar(v),)))
        return Rec(v, Sym("g", (body, RecVar(v))))
    if roll < 0.85:
        return Sym("h", (random_metaterm(rng, depth - 1, arities, faults, bound, recs),))
    return Sym("g", (random_metaterm(rng, depth - 1, arities, faults, bound, recs),
                     random_metaterm(rng, depth - 1, arities, faults, bound, recs)))


def instantiation_cases(seed, count, faults, tagged):
    rng = random.Random(seed)
    for _ in range(count):
        arities = {f"Z{i}": rng.randint(0, 3) for i in range(rng.randint(1, 4))}
        v = random_valuation(rng, arities, faults)
        rhs = random_metaterm(rng, rng.randint(1, 5), arities, faults)
        if tagged:
            v = Valuation({z: Substitute(s.params, tag_some(rng, s.body, 0.3))
                           for z, s in v.assignment.items()})
            rhs = tag_some(rng, rhs, 0.6)
        yield v, rhs


# ---------------------------------------------------------------------------
# instantiation

def test_instantiation_is_the_reference_on_untagged_inputs():
    renamed = recs = metas = 0
    for v, rhs in instantiation_cases(3, 600, faults=False, tagged=False):
        got = apply_valuation(v, rhs)
        assert got is ref_apply_valuation(v, rhs)
        assert apply_valuation(v, rhs) is got  # from the plan built once
        avoid = set().union(*(free_vars(s.body) - set(s.params)
                              for s in v.assignment.values()))
        kinds = {(u.__class__, getattr(u, "args", 1) == (), getattr(u, "var", None))
                 for u in nodes(rhs)}
        recs += any(cls is Rec for cls, _, _ in kinds)
        metas += (MetaApp, True, None) in kinds
        renamed += any(cls is Abs and x in avoid for cls, _, x in kinds)
    assert renamed >= 40 and recs >= 100 and metas >= 100


def test_instantiation_keeps_more_tags_only():
    kept = 0
    for v, rhs in instantiation_cases(4, 600, faults=False, tagged=True):
        kept += assert_same_up_to_kept_tags(apply_valuation(v, rhs),
                                            ref_apply_valuation(v, rhs))
    assert kept >= 8


def test_instantiation_raises_as_the_reference_did():
    raised = {}
    for v, rhs in instantiation_cases(5, 1500, faults=True, tagged=False):
        want = outcome(ref_apply_valuation, v, rhs)
        assert outcome(apply_valuation, v, rhs) == want
        if isinstance(want, tuple):
            raised.setdefault(want[0], set()).add(want[1].split(" ")[0])
    assert set(raised) == {ArityMismatch, UnassignedMetaVariable, FiniteChainsViolated}
    # arity mismatches of both kinds: a wrong count and repeated parameters
    assert {"substitute", "substituted"} <= raised[ArityMismatch]


def test_named_errors_keep_their_messages():
    proj = Substitute(("x",), Var("x"))
    cases = [
        (Valuation({}), "g(Z, c)"),
        (Valuation({"Z": proj}), "Z(c, c)"),
        (Valuation({"Z": proj}), "Z"),
        (Valuation({"Z": Substitute(("x", "x"), Var("x"))}), "Z(c, c)"),
        (Valuation({"Z": proj}), "rec W. Z(W)"),
        (Valuation({"Z": proj}), "h(rec W. Z(W))"),
    ]
    for v, text in cases:
        rhs = parse_metaterm(text)
        want = outcome(ref_apply_valuation, v, rhs)
        assert isinstance(want, tuple)
        assert outcome(apply_valuation, v, rhs) == want


def test_a_ground_side_comes_back_as_it_is():
    rhs = parse_metaterm("g(h(c), rec S. g(c, S))")
    assert apply_valuation(Valuation({}), rhs) is rhs
    with pytest.raises(FiniteChainsViolated):
        apply_valuation(Valuation({}), Rec("X", RecVar("X")))


# ---------------------------------------------------------------------------
# matching

MATCH_SYSTEM = """
sym c/0 ; sym a/0 ; sym b/0 ; sym h/1 ; sym g/2 ;
rule lam: ap(lm([x] Z(x)), W) -> Z(W) ;
rule two: p([x] q([y] Z(x, y))) -> Z(a, b) ;
rule same: s([x] t([x] W(x))) -> W(a) ;
rule flip: r([x] [y] Z(y, x)) -> Z(a, b) ;
rule esc: e([x] Z, W) -> Z ;
rule nl: d(Z, Z) -> Z ;
rule nlb: n([x] Z(x), [y] Z(y)) -> Z(a) ;
rule var: w([x] x) -> a ;
"""


def shaped_term(rng, depth, bound=()):
    """A closed term biased towards instances of MATCH_SYSTEM's left-hand
    sides, with binders drawn from NAMES, so they shadow one another, and
    variables of the context free in matched subterms."""
    def sub(*names):
        return shaped_term(rng, depth - 1, bound + names)

    x, y = rng.choice(NAMES), rng.choice(NAMES)
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return Var(rng.choice(bound)) if bound and rng.random() < 0.6 else Sym("c")
    if roll < 0.25:
        return Abs(x, sub(x))
    if roll < 0.3 and not bound:
        return Rec("R", Sym("g", (sub(), RecVar("R"))))
    if roll < 0.4:
        return Sym("g", (sub(), sub()))
    shape = rng.choice(["lam", "two", "same", "flip", "esc", "nl", "nlb", "var"])
    if shape == "lam":
        return Sym("ap", (Sym("lm", (Abs(x, sub(x)),)), sub()))
    if shape == "two":
        return Sym("p", (Abs(x, Sym("q", (Abs(y, sub(x, y)),))),))
    if shape == "same":
        return Sym("s", (Abs(x, Sym("t", (Abs(y, sub(x, y)),))),))
    if shape == "flip":
        return Sym("r", (Abs(x, Abs(y, sub(x, y))),))
    if shape == "esc":
        return Sym("e", (Abs(x, sub(x) if rng.random() < 0.5 else sub()), sub()))
    if shape == "nl":
        u = sub()
        return Sym("d", (u, u if rng.random() < 0.6 else sub()))
    if shape == "nlb":
        u = sub(x)
        z = fresh_name("y", free_vars(u))
        other = rng.choice([Abs(x, u), Abs(z, substitute(u, (x,), (Var(z),))),
                            Abs(x, sub(x))])
        return Sym("n", (Abs(x, u), other))
    return Sym("w", (Abs(x, Var(rng.choice((x,) + bound))),))


def match_cases(seed, count, tagged):
    """(rule, resolved node, counts) at every position to depth 6 of seeded
    terms, against every rule of MATCH_SYSTEM: an unchecked system, with a
    non-linear left-hand side among others."""
    system = parse_system(MATCH_SYSTEM)
    rng = random.Random(seed)
    for _ in range(count):
        t = shaped_term(rng, rng.randint(2, 5))
        if tagged:
            t = tag_some(rng, t, 0.8)
        for p in positions_to_depth(t, 6):
            node = resolve(subterm_at(t, p))
            for rule in system.rules:
                yield rule, node


def test_matching_is_the_reference_on_untagged_inputs():
    matched, shadowed, nonlinear, escaped = set(), 0, 0, 0
    for rule, node in match_cases(8, 300, tagged=False):
        want = ref_match_node(rule, node)
        got, _ = rewriting._match_node(rule, node)
        assert got == want  # Substitutes compare bodies by identity
        if want is None:
            escaped += rule.name == "esc" and isinstance(node, Sym) and node.fun == "e"
            continue
        matched.add(rule.name)
        shadowed += any(x.startswith("_b") for s in want.assignment.values()
                        for x in s.params)
        nonlinear += rule.name in ("nl", "nlb")
    assert matched == {r.name for r in parse_system(MATCH_SYSTEM).rules}
    assert shadowed >= 20 and nonlinear >= 20 and escaped >= 20


def test_matching_keeps_more_tags_only():
    kept = 0
    for rule, node in match_cases(9, 300, tagged=True):
        want = ref_match_node(rule, node)
        got, _ = rewriting._match_node(rule, node)
        assert (got is None) == (want is None)
        if want is None:
            continue
        assert got.assignment.keys() == want.assignment.keys()
        for z, s in want.assignment.items():
            assert got[z].params == s.params
            kept += assert_same_up_to_kept_tags(got[z].body, s.body)
    assert kept >= 20


# ---------------------------------------------------------------------------
# what the kernel keeps

def interned():
    """The keys of every intern table."""
    return {(cls, key) for cls in (Var, Abs, Sym, MetaApp, Rec, RecVar)
            for key in cls._table}


def test_plans_do_not_pin_terms():
    """Rule sides with abstractions, rec binders and ground subterms, an
    rhs binder renamed away from a variable of the context: once the system
    and the terms are dropped, no node they built stays interned.  The
    redexes have the root symbols of the seeded systems, so a redex node
    built by another test may outlive this one: its memo holds the rules
    matched at it weakly, so it keeps none of them."""
    gc.collect()
    before = interned()
    system = parse_system(
        "sym k/0 ; sym c1/1 ; sym c2/2 ;\n"
        "rule lam: ap(lm([x] Z(x)), W) -> c2(lm([y] Z(y)), rec S. c2(W, S)) ;\n"
        "rule two: dup(Z) -> c2(Z, c1(k)) ;\n"
        "rule ground: drop(Z) -> c2(k, rec S. c1(S)) ;")
    term = parse_term("[y] c2(ap(lm([x] c2(x, y)), y), c2(dup(k), drop(k)))")
    made = [contract(term, u).target for u in find_redexes(term, system, 6)]
    assert len(made) == 3 and len(interned() - before) >= 30
    del system, term, made
    gc.collect()
    assert not interned() - before


def corpus_runs():
    """Fair runs of the four corpus inputs with infinite normal forms."""
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    fixpoint = " ".join(ln.strip() for ln in lines
                        if ln.strip() and not ln.lstrip().startswith("#"))
    inputs = [("spine_growth.crs", "f(a, c)"), ("outermost_pair.crs", "f(a)"),
              ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
              ("lambda_beta.crs", fixpoint)]
    for name, text in inputs:
        system = parse_system((CORPUS / name).read_text())
        yield normalize(parse_term(text), system, FAIR, 8, 400)[1]


def test_matching_and_instantiating_leave_no_cycles():
    """The matcher's and the evaluator's walks refer to themselves while
    they run, and to nothing once they return: with the cyclic collector
    off, matching every redex of the corpus runs afresh and instantiating
    its right-hand side leave nothing for the collector."""
    runs = list(corpus_runs())
    steps = 0
    gc.collect()
    gc.disable()
    try:
        for trace in runs:
            for step in trace.steps:
                u = step.redex
                v, _ = rewriting._match_node(u.rule, step.path[-1])
                assert v == u.valuation
                apply_valuation(v, u.rule.rhs)
                steps += 1
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert steps >= 50


# ---------------------------------------------------------------------------
# redexes hash by position and rule

def test_redex_hash_leaves_out_the_valuation():
    system = parse_system(MATCH_SYSTEM)
    rule = system.rule("nl")
    a = Redex((1,), rule, Valuation({"Z": Substitute((), Sym("a"))}))
    b = Redex((1,), rule, Valuation({"Z": Substitute((), Sym("b"))}))
    assert hash(a) == hash(b) and a != b
    assert a == Redex((1,), rule, Valuation({"Z": Substitute((), Sym("a"))}))
    assert len({a, b}) == 2


# ---------------------------------------------------------------------------
# static checks run once per rule

def test_check_system_checks_each_pattern_once(monkeypatch):
    calls = {"pattern": 0, "left-linear": 0}
    pattern, linear = systems.check_pattern, systems.check_left_linear

    def counted_pattern(lhs):
        calls["pattern"] += 1
        return pattern(lhs)

    def counted_linear(system):
        calls["left-linear"] += 1
        return linear(system)

    monkeypatch.setattr(systems, "check_pattern", counted_pattern)
    monkeypatch.setattr(systems, "check_left_linear", counted_linear)
    system = parse_system((CORPUS / "map_streams.crs").read_text())
    assert systems.check_system(system).ok
    assert calls == {"pattern": len(system.rules), "left-linear": 1}


# ---------------------------------------------------------------------------
# a renamed binder's occurrence keeps its tag

BETA = parse_system((CORPUS / "lambda_beta.crs").read_text())


def assert_descendants_agree(term, u):
    """Every position below the redex: the step's descendant map, the path
    space's and the labelled replay's agree.  Returns how many have one."""
    step = contract(term, u)
    n = len(u.position)
    below = [p for p in positions_to_depth(term, 12)
             if p[:n] == u.position and len(p) > n]
    engine = step.descendant_map(below)
    paths = PathSpace(term, [u], BETA)
    brute = brute_descendant_map(below, [step])
    for p in below:
        assert engine[p] == paths.descendants_of(p) == brute[p], p
    return sum(bool(engine[p]) for p in below)


def test_a_renamed_binder_occurrence_has_its_descendant():
    term = parse_term("abs([y] app(abs([x] abs([y] app(x, y))), y))")
    u = redex_at(term, BETA, (1, 0))
    assert assert_descendants_agree(term, u) >= 5
    step = contract(term, u)
    p = (1, 0, 1, 1, 0, 1, 0, 2)
    assert step.descendant_map([p])[p] == {(1, 0, 1, 0, 2)}


def test_develop_table_shows_the_renamed_occurrence():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["develop", str(CORPUS / "lambda_beta.crs"), "--term",
                     "abs([y] app(abs([x] abs([y] app(x, y))), y))",
                     "--redexes", "1.0", "--table-depth", "9"])
    assert code == 0
    assert "  1.0.1.1.0.1.0.2 -> 1.0.1.0.2" in out.getvalue().splitlines()


def random_lambda(rng, depth, bound=()):
    """A λ-term over app/abs whose binders are x and y only, so binders
    shadow binders and contracta rename them."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return Var(rng.choice(bound)) if bound else Sym("c")
    x = rng.choice(("x", "y"))
    if roll < 0.5:
        return Sym("abs", (Abs(x, random_lambda(rng, depth - 1, bound + (x,))),))
    if roll < 0.75:
        fun = Sym("abs", (Abs(x, random_lambda(rng, depth - 1, bound + (x,))),))
        return Sym("app", (fun, random_lambda(rng, depth - 1, bound)))
    return Sym("app", (random_lambda(rng, depth - 1, bound),
                       random_lambda(rng, depth - 1, bound)))


def test_seeded_lambda_terms_agree_on_descendants():
    rng = random.Random(23)
    steps = found = 0
    while steps < 150:
        term = random_lambda(rng, rng.randint(3, 6))
        for u in find_redexes(term, BETA, 8):
            found += assert_descendants_agree(term, u)
            steps += 1
    assert found >= 300
