import random

import pytest

from icrs import (
    Abs, Redex, ReductionDescriptor, Substitute, Sym, Valuation, Var,
    alpha_eq, apply_substitute, apply_valuation, contract, descendants,
    dev_sequence_of_steps, emaciate_reduction, find_redexes, graft, match,
    parse_system, parse_term, print_term, residuals, subterm_at, substitute,
    trace_of,
)
from icrs.errors import (
    ArityMismatch, FiniteChainsViolated, InfiniteResultError,
    PreconditionViolated, StaleRedex,
)
from icrs.oracle import brute_descendant_map, brute_descendants
from icrs import rewriting
from icrs.rewriting import redex_at
from icrs.syntax import parse_metaterm
from icrs.terms import Rec, check_guarded, free_vars

import genrand


def T(text):
    return parse_term(text)


def TV(text, *names):
    """Parse, then read the listed nullary symbols as free variables."""
    def fix(t):
        match t:
            case Sym(f, args, _) if f in names and not args:
                return Var(f)
            case Sym(f, args, tag):
                return Sym(f, tuple(fix(a) for a in args), tag)
            case Abs(x, body, tag):
                return Abs(x, fix(body), tag)
            case _:
                return t

    return fix(parse_term(text))


class TestSubstitute:
    def test_plain(self):
        assert print_term(substitute(TV("g(x)", "x"), ["x"], [T("a")])) == "g(a)"

    def test_variable_convention_renames(self):
        out = substitute(Abs("y", Var("x")), ["x"], [Var("y")])
        # the binder must move out of the way of the incoming free y
        assert isinstance(out, Abs) and out.var != "y"
        assert free_vars(out) == {"y"}

    def test_rational_image(self):
        out = substitute(Var("x"), ["x"], [T("rec G. g(G)")])
        assert alpha_eq(out, T("rec G. g(G)"))

    def test_simultaneous(self):
        out = substitute(TV("p(x, y)", "x", "y"), ["x", "y"], [Var("y"), Var("x")])
        assert print_term(out) == "p(y, x)"

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            substitute(TV("g(x)", "x"), ["x", "y"], [T("a")])

    def test_rec_binder_renamed_on_capture(self):
        from icrs.terms import Rec, RecVar

        body = Rec("W", Sym("c2", (Var("x"), RecVar("W"))))
        out = substitute(body, ["x"], [RecVar("W")])
        # the incoming rec reference must not be captured by the inner binder
        assert isinstance(out, Rec) and out.var != "W"


class TestApplySubstitute:
    def test_parallel_beta(self):
        sub = Substitute(("x",), TV("h(x)", "x"))
        assert print_term(apply_substitute(sub, [T("a")])) == "h(a)"

    def test_nullary(self):
        assert print_term(apply_substitute(Substitute((), T("c")), [])) == "c"

    def test_simultaneity(self):
        sub = Substitute(("x", "y"), TV("f(y, x)", "x", "y"))
        assert print_term(apply_substitute(sub, [T("a"), T("b")])) == "f(b, a)"


class TestApplyValuation:
    def test_nested_scheme(self):
        v = Valuation({"Z": Substitute(("x",), TV("h(x)", "x")),
                       "Z'": Substitute((), T("a"))})
        out = apply_valuation(v, parse_metaterm("Z(g(Z(Z')))"))
        assert print_term(out) == "h(g(h(a)))"

    def test_identity_projection(self):
        v = Valuation({"Z": Substitute(("x",), Var("x"))})
        assert print_term(apply_valuation(v, parse_metaterm("Z(a)"))) == "a"

    def test_map_rule_rhs_over_cyclic_list(self, map_system):
        rhs = map_system.rule("map_cons").rhs
        v = Valuation({"F": Substitute(("z",), TV("f(z)", "z")),
                       "X": Substitute((), T("a")),
                       "XS": Substitute((), T("rec L. cons(a, L)"))})
        out = apply_valuation(v, rhs)
        assert alpha_eq(out, T("cons(f(a), map([z] f(z), rec L. cons(a, L)))"))

    def test_unguarded_image_raises(self):
        # a projecting substitute turns the meta-variable cycle into a bare loop
        v = Valuation({"Z": Substitute(("x",), Var("x"))})
        with pytest.raises(FiniteChainsViolated):
            apply_valuation(v, parse_metaterm("rec W. Z(W)"))


def contains_rec(t):
    match t:
        case Rec(_, _):
            return True
        case Abs(_, body, _):
            return contains_rec(body)
        case Sym(_, args, _):
            return any(map(contains_rec, args))
        case _:
            return False


def template_system(*names):
    return parse_system(genrand.CONSTRUCTORS + "\n" + "\n".join(
        src for name, src in genrand.RULE_TEMPLATES if name in names))


class TestShapedInstantiation:
    """apply_valuation checks for unguarded cycles only when the rhs has a
    rec binder, and gathers binder names only when it has an abstraction;
    match looks for escaping variables only under pattern binders."""

    def test_rec_free_rhs_instances_are_guarded(self):
        rng = random.Random(41)
        cyclic_bodies = checked = 0
        for _ in range(150):
            system = genrand.random_system(rng)
            assert not any(contains_rec(r.rhs) for r in system.rules)
            t = genrand.random_term(rng, system, 4)
            for u in find_redexes(t, system, 5):
                cyclic_bodies += any(contains_rec(sub.body)
                                     for sub in u.valuation.assignment.values())
                check_guarded(apply_valuation(u.valuation, u.rule.rhs))
                check_guarded(contract(t, u).target)
                checked += 1
        assert checked >= 300 and cyclic_bodies >= 30

    def test_binder_free_steps_make_no_free_vars_calls(self, monkeypatch):
        calls = []
        counted = rewriting.free_vars

        def counting(t):
            calls.append(t)
            return counted(t)

        monkeypatch.setattr(rewriting, "free_vars", counting)
        rng = random.Random(43)

        def steps_and_calls(system):
            steps = []
            for _ in range(60):
                t = genrand.random_term(rng, system, 4)
                steps += [(t, u) for u in find_redexes(t, system, 4)]
            calls.clear()
            for t, u in steps:
                v = match(u.rule, t, u.position)
                apply_valuation(v, u.rule.rhs)
                contract(t, u)
            return len(steps), len(calls)

        steps, n = steps_and_calls(template_system("dup", "swap", "uno", "col", "drop"))
        assert steps >= 100 and n == 0
        # the counter sees the calls a rule with binders needs
        steps, n = steps_and_calls(template_system("hob", "lam", "nest"))
        assert steps >= 20 and n > 0


class TestMatch:
    def test_binder_binding(self, beta_system):
        rule = beta_system.rule("beta")
        v = match(rule, T("app(abs([x] h(x)), a)"), ())
        assert v is not None
        assert alpha_eq(apply_substitute(v["Z"], [T("b")]), T("h(b)"))
        assert print_term(v["Z'"].body) == "a"

    def test_no_match(self, pair_system):
        assert match(pair_system.rule("inner"), T("f(a)"), ()) is None

    def test_example_instance(self, dup_system):
        v = match(dup_system.rule("r"), T("f([x] g(x), a)"), ())
        assert alpha_eq(apply_valuation(v, dup_system.rule("r").lhs),
                        T("f([x] g(x), a)"))

    def test_missing_position_is_no_match(self, spine_system):
        rule = spine_system.rule("once")
        assert match(rule, T("f(a, c)"), (3,)) is None
        assert match(rule, T("f(a, c)"), (1, 1)) is None
        assert match(rule, T("f(a, c)"), (1,)) is not None

    def test_escape_blocks_match(self):
        # Z() cannot capture the bound x it would need to carry out of scope
        system = parse_system("rule r: g([x] f(Z)) -> Z ;")
        assert match(system.rule("r"), T("g([x] f(x))"), ()) is None
        assert match(system.rule("r"), T("g([x] f(a))"), ()) is not None

    def test_roundtrip_random_valuations(self, dup_system):
        rng = random.Random(5)
        rule = dup_system.rule("r")
        for _ in range(25):
            body = genrand.random_term(rng, dup_system, 3, bound_vars=["x"])
            v = Valuation({"Z": Substitute(("x",), body),
                           "Z'": Substitute((), genrand.random_term(rng, dup_system, 2))})
            inst = apply_valuation(v, rule.lhs)
            got = match(rule, inst, ())
            assert got is not None
            assert alpha_eq(apply_valuation(got, rule.lhs), inst)


class TestStepRedex:
    def test_rule_or_rule_name(self, spine_system):
        t = T("f(a, c)")
        u = rewriting.step_redex(t, spine_system, [1], "once")
        assert u == redex_at(t, spine_system, (1,))
        assert u == rewriting.step_redex(t, spine_system, (1,),
                                         spine_system.rule("once"))

    def test_one_message_for_every_scripted_route(self, spine_system):
        t = T("f(a, c)")
        bad = [((1,), "loop")]
        routes = [
            lambda: trace_of(t, bad, spine_system),
            lambda: dev_sequence_of_steps(t, bad, spine_system),
            lambda: emaciate_reduction(
                dev_sequence_of_steps(t, [], spine_system),
                ReductionDescriptor(steps=bad), {()}, spine_system),
        ]
        for route in routes:
            with pytest.raises(PreconditionViolated,
                               match=r"^no loop redex at 1$"):
                route()


class TestFindRedexes:
    def test_spine_term(self, spine_system):
        got = [(u.rule.name, u.position) for u in find_redexes(T("f(a, c)"), spine_system, 2)]
        assert got == [("spine", ()), ("once", (1,)), ("loop", (2,))]

    def test_normal_prefix(self, spine_system):
        assert find_redexes(T("g(b, b)"), spine_system, 1) == []

    def test_rational_tower(self, collapse_system):
        got = [u.position for u in find_redexes(T("rec F. f(F)"), collapse_system, 3)]
        assert got == [(), (1,), (1, 1)]


class TestContract:
    def test_root_step(self, beta_system):
        t = T("app(abs([x] h(x)), a)")
        rec = contract(t, redex_at(t, beta_system, ()))
        assert print_term(rec.target) == "h(a)"

    def test_inner_step_keeps_parallel_redex(self, spine_system):
        t = T("f(a, c)")
        rec = contract(t, redex_at(t, spine_system, (1,)))
        assert print_term(rec.target) == "f(b, c)"
        res = residuals([redex_at(t, spine_system, (2,))], rec)
        assert [u.position for u in res] == [(2,)]

    def test_duplicating_step(self, growth_system):
        t = T("g(f([x] g(g(x))))")
        rec = contract(t, redex_at(t, growth_system, (1,)))
        assert print_term(rec.target) == "g(g(g(g(g(a)))))"

    def test_stale_redex(self, spine_system):
        t = T("f(a, c)")
        u = redex_at(t, spine_system, (1,))
        rec = contract(t, u)
        with pytest.raises(StaleRedex):
            contract(rec.target, u)

    def test_target_matches_independent_graft(self, spine_system):
        t = T("f(a, c)")
        u = redex_at(t, spine_system, ())
        rec = contract(t, u)
        expected = graft(t, (), apply_valuation(u.valuation, u.rule.rhs))
        assert alpha_eq(rec.target, expected)

    def test_context_above_is_untouched(self, spine_system):
        t = T("g(f(a, c), b)")
        rec = contract(t, redex_at(t, spine_system, (1,)))
        assert print_term(subterm_at(rec.target, (2,))) == "b"
        assert rec.target.fun == "g"


class TestDescendants:
    def test_pattern_positions_vanish(self, beta_system):
        t = T("app(abs([x] h(x)), a)")
        rec = contract(t, redex_at(t, beta_system, ()))
        # root, abs node and bound-variable occurrence all die
        dm = rec.descendant_map([(), (1, 1), (1, 1, 0, 1)])
        assert dm[()] == frozenset()
        assert dm[(1, 1)] == frozenset()
        assert dm[(1, 1, 0, 1)] == frozenset()

    def test_parallel_position_survives(self, spine_system):
        t = T("f(a, c)")
        rec = contract(t, redex_at(t, spine_system, (1,)))
        assert descendants([(2,)], rec) == {(2,)}

    def test_duplicated_argument(self, growth_system):
        t = T("f([x] g(g(x)))")
        rec = contract(t, redex_at(t, growth_system, ()))
        # the outer g of the matched body lands once per meta occurrence
        assert descendants([(1, 0)], rec) == {(), (1, 1)}

    def test_agrees_with_labelled_replay(self, growth_system):
        rng = random.Random(11)
        checked = 0
        for _ in range(40):
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 4)
            us = find_redexes(t, system, 4)
            if not us:
                continue
            u = rng.choice(us)
            rec = contract(t, u)
            from icrs.terms import positions_to_depth

            probes = sorted(positions_to_depth(t, 3))
            mine = rec.descendant_map(probes)
            oracle = brute_descendant_map(probes, [(u.position, u.rule)], source=t)
            assert mine == oracle
            checked += 1
        assert checked >= 20

    def test_descendant_inside_a_cycle_raises(self):
        system = parse_system("rule r: f(X) -> rec S. g(X, S) ;")
        t = T("f(a)")
        rec = contract(t, redex_at(t, system, ()))
        # a lands at 1, 2.1, 2.2.1, ...: infinitely many descendants
        with pytest.raises(InfiniteResultError):
            rec.descendant_map([(1,)])


class TestResiduals:
    def test_contracted_redex_has_none(self, spine_system):
        t = T("f(a, c)")
        u = redex_at(t, spine_system, (1,))
        rec = contract(t, u)
        assert rec.residual_map([u])[u] == ()

    def test_duplication_gives_two(self, growth_system):
        t = T("f([x] g(g(x)))")
        inner = redex_at(t, growth_system, (1, 0))
        rec = contract(t, redex_at(t, growth_system, ()))
        got = {u.position for u in residuals([inner], rec)}
        assert got == {(), (1, 1)}
