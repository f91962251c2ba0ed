import random

import pytest

from icrs import (
    ALL_REDEXES, DevSequence, PathSpace, alpha_eq, complete_development,
    dev_sequence_of_steps, find_redexes, has_finite_jumps, parse_system,
    parse_term, print_term, project_dev_over_finite, project_sequence,
    redexes_from_positions, residuals, target_term,
)
from icrs.developments import TermNode
from icrs.errors import FiniteJumpsViolated, InfiniteStageSet
from icrs.oracle import all_development_orders, brute_descendants
from icrs.rewriting import redex_at
from icrs.terms import Abs, Rec, Sym, Var, resolve, subterm_at

import genrand


def T(text):
    return parse_term(text)


EXPECTED_MAX_PATH = (
    "(s,@) -e-> (r,@,@) -e-> (s,1.0) -1-> (s,1.0.1) -e-> (r,1,@) -1-> "
    "(r,1.1,@) -e-> (s,1.0) -1-> (s,1.0.1) -e-> (r,1.1.1,@) -e-> (s,2)")
EXPECTED_PROJECTION = (
    ". -e-> . -e-> g -1-> . -e-> g -1-> . -e-> g -1-> . -e-> . -e-> a")


class TestPaths:
    def test_duplicating_example_single_maximal_path(self, dup_system):
        s = T("f([x] g(x), a)")
        space = PathSpace(s, redexes_from_positions(s, dup_system, [()]), dup_system)
        enum = space.enumerate()
        assert not enum.truncated
        assert [p.render() for p in enum.maximal] == [EXPECTED_MAX_PATH]
        assert space.project(enum.maximal[0]).render() == EXPECTED_PROJECTION

    def test_empty_set_paths_are_branches(self, dup_system):
        t = T("g(g(g(a)))")
        space = PathSpace(t, [], dup_system)
        enum = space.enumerate()
        assert [p.render() for p in enum.maximal] == [
            "(s,@) -1-> (s,1) -1-> (s,1.1) -1-> (s,1.1.1)"]
        assert space.project(enum.maximal[0]).render() == "g -1-> g -1-> g -1-> a"

    def test_constant_term(self, dup_system):
        space = PathSpace(T("a"), [], dup_system)
        enum = space.enumerate()
        assert [p.render() for p in enum.maximal] == ["(s,@)"]
        assert space.project(enum.maximal[0]).render() == "a"

    def test_rational_term_needs_budget(self, collapse_system):
        space = PathSpace(T("rec F. f(F)"), [], collapse_system)
        enum = space.enumerate(budget=30)
        assert enum.truncated and not enum.maximal

    def test_phi_injective_on_examples(self, dup_system, growth_system):
        for system, text, pos in [(dup_system, "f([x] g(x), a)", [()]),
                                  (growth_system, "g(f([x] g(g(x))))", [(1,)])]:
            s = T(text)
            space = PathSpace(s, redexes_from_positions(s, system, pos), system)
            enum = space.enumerate(collect_all=True)
            projections = {}
            for p in enum.maximal:
                proj = space.project(p)
                assert projections.setdefault(proj, p) == p

    def test_projection_strip_invariant_under_contraction(self, dup_system):
        # contracting a developed redex deletes only unlabelled material
        s = T("f([x] g(x), a)")
        u = redex_at(s, dup_system, ())
        space0 = PathSpace(s, [u], dup_system)
        before = {space0.project(p).stripped() for p in space0.enumerate().maximal}
        dev = complete_development(s, [u], dup_system)
        space1 = PathSpace(dev.target, [], dup_system)
        after = {space1.project(p).stripped() for p in space1.enumerate().maximal}
        assert before == after


class TestFiniteJumps:
    def test_tower_of_collapses_fails(self, collapse_system):
        assert not has_finite_jumps(T("rec F. f(F)"), ALL_REDEXES, collapse_system)

    def test_finite_sets_always_pass(self, collapse_system):
        t = T("rec F. f(F)")
        us = find_redexes(t, collapse_system, 3)
        assert has_finite_jumps(t, us, collapse_system)

    def test_empty_set(self, dup_system):
        assert has_finite_jumps(T("f([x] g(x), a)"), [], dup_system)

    def test_all_redexes_of_convergent_term(self, spine_system):
        assert has_finite_jumps(T("f(a, c)"), ALL_REDEXES, spine_system)

    def test_deep_collapse_tower_under_context(self, collapse_system):
        t = T("c2(a, rec F. f(F))")
        system = parse_system(
            "rule collapse: f(Z) -> Z ; sym a/0 ; sym c2/2 ;")
        assert not has_finite_jumps(t, ALL_REDEXES, system)


class TestTargetTerm:
    def test_duplicating_example(self, dup_system):
        s = T("f([x] g(x), a)")
        u = redexes_from_positions(s, dup_system, [()])
        assert print_term(target_term(s, u, dup_system)) == "g(g(g(a)))"

    def test_empty_set_rebuilds_term(self, dup_system):
        for text in ("f([x] g(x), a)", "rec L. cons(a, L)", "rec G. [x] g(x, G)"):
            t = T(text)
            assert alpha_eq(target_term(t, [], dup_system), t)

    def test_growth_example(self, growth_system):
        s = T("g(f([x] g(g(x))))")
        u = redexes_from_positions(s, growth_system, [(1,)])
        assert print_term(target_term(s, u, growth_system)) == "g(g(g(g(g(a)))))"

    def test_rational_target(self, spine_system):
        # developing the root of f(a,c) once, through the path machine
        s = T("f(a, c)")
        u = redexes_from_positions(s, spine_system, [()])
        assert alpha_eq(target_term(s, u, spine_system), T("g(a, f(a, c))"))

    def test_all_redexes_target(self, spine_system):
        s = T("f(a, c)")
        got = target_term(s, ALL_REDEXES, spine_system)
        assert alpha_eq(got, T("g(b, f(b, c))"))

    def test_violation_raises(self, collapse_system):
        with pytest.raises(FiniteJumpsViolated):
            target_term(T("rec F. f(F)"), ALL_REDEXES, collapse_system)

    def test_beta_target_with_rhs_binder(self, map_system):
        s = T("map([z] s(z), rec L. cons(zero, L))")
        u = redexes_from_positions(s, map_system, [()])
        got = target_term(s, u, map_system)
        assert alpha_eq(got, T("cons(s(zero), map([z] s(z), rec L. cons(zero, L)))"))


class TestCompleteDevelopment:
    def test_matches_target_term(self, dup_system):
        s = T("f([x] g(x), a)")
        u = redexes_from_positions(s, dup_system, [()])
        dev = complete_development(s, u, dup_system)
        assert print_term(dev.target) == "g(g(g(a)))"

    def test_empty_set_identity(self, dup_system):
        t = T("f([x] g(x), a)")
        dev = complete_development(t, [], dup_system)
        assert dev.target is t and dev.steps == ()

    def test_order_independent_pair(self):
        system = parse_system("rule p: p(Z) -> q(Z) ; rule once: a -> b ;")
        t = T("p(a)")
        us = find_redexes(t, system, 2)
        dev = complete_development(t, us, system)
        assert print_term(dev.target) == "q(b)"
        out = all_development_orders(t, us, system)
        assert out.orders == 2 and len(out.finals) == 1
        assert alpha_eq(out.finals[0], dev.target)

    def test_no_residuals_of_developed_set(self, spine_system):
        t = T("f(a, c)")
        us = find_redexes(t, spine_system, 2)
        dev = complete_development(t, us, spine_system)
        assert residuals(us, dev) == []


class TestProjections:
    def test_square_for_empty_set(self, spine_system):
        t = T("f(a, c)")
        dev = complete_development(
            t, redexes_from_positions(t, spine_system, [()]), spine_system)
        right, bottom = project_dev_over_finite(dev, [])
        assert alpha_eq(right.target, bottom.target)
        assert alpha_eq(right.target, dev.target)

    def test_square_commutes(self):
        system = parse_system("rule p: p(Z) -> q(Z) ; rule once: a -> b ;")
        t = T("p(a)")
        dev_u = complete_development(
            t, redexes_from_positions(t, system, [()]), system)
        right, bottom = project_dev_over_finite(
            dev_u, redexes_from_positions(t, system, [(1,)]))
        assert alpha_eq(right.target, bottom.target)
        assert print_term(right.target) == "q(b)"

    def test_project_sequence_single_stage(self):
        system = parse_system("rule p: p(Z) -> q(Z) ; rule once: a -> b ;")
        t = T("p(a)")
        seq = dev_sequence_of_steps(t, [((1,), "once")], system)
        projected = project_sequence(seq, redex_at(t, system, ()), system=system)
        assert print_term(projected.initial) == "q(a)"
        assert print_term(projected.final) == "q(b)"

    def test_project_length_zero(self):
        system = parse_system("rule p: p(Z) -> q(Z) ;")
        t = T("p(k)")
        seq = DevSequence(t, ())
        projected = project_sequence(seq, redex_at(t, system, ()), system=system)
        assert print_term(projected.initial) == "q(k)"
        assert len(projected) == 0

    def test_infinite_stage_rejected(self, spine_system):
        t = T("f(a, c)")
        dev = complete_development(t, ALL_REDEXES, spine_system)
        seq = DevSequence(t, (dev,))
        with pytest.raises(InfiniteStageSet):
            project_sequence(seq, redex_at(t, spine_system, ()), system=spine_system)


class TestRandomisedAgreement:
    def test_orders_targets_and_maps_agree(self):
        rng = random.Random(99)
        done = 0
        while done < 40:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3)
            us = genrand.random_redex_set(rng, t, system, max_size=3)
            if not us:
                continue
            dev = complete_development(t, us, system)
            out = all_development_orders(t, us, system)
            assert len(out.finals) == 1
            assert alpha_eq(out.finals[0], dev.target)
            assert alpha_eq(target_term(t, us, system), dev.target)
            done += 1


def root_walk_binder(term, p, name):
    """The former PathSpace._binder_position: the branch walked from the
    root, the innermost binder of `name` winning."""
    best = None
    t = term
    for i, step in enumerate(p):
        t = resolve(t)
        if isinstance(t, Abs) and t.var == name:
            best = p[:i]
        t = subterm_at(t, (step,))
    return best


def one_binder_name(t):
    """The term with every binder and variable called x, so that inner
    binders shadow outer ones."""
    match t:
        case Var():
            return Var("x")
        case Abs(_, body):
            return Abs("x", one_binder_name(body))
        case Sym(f, args):
            return Sym(f, tuple(map(one_binder_name, args)))
        case Rec(v, body):
            return Rec(v, one_binder_name(body))
        case _:
            return t


class TestPathSpaceWalks:
    @pytest.mark.parametrize("all_redexes", [False, True])
    def test_node_local_walks_agree_with_root_walks(self, all_redexes):
        rng = random.Random(23 + all_redexes)
        cyclic = positions = 0
        for k in range(60):
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 4)
            if k % 2:
                t = one_binder_name(t)
            cyclic += "rec" in print_term(t)
            us = (ALL_REDEXES if all_redexes
                  else genrand.random_redex_set(rng, t, system, max_size=3))
            space = PathSpace(t, us, system)
            paths = space.enumerate(budget=30, collect_all=True).maximal
            reached = {n.position for path in paths for n in path.nodes
                       if isinstance(n, TermNode)}
            for p in sorted(reached):
                node = space.subterm(p)
                assert node == resolve(subterm_at(t, p))
                for name in ("x", "x1", "x2", "x3", "x4"):
                    assert space._binder_position(p, name) == root_walk_binder(t, p, name)
            positions += len(reached)
        assert cyclic >= 10
        assert positions >= 1000
