import random
import time

import pytest

from icrs import (
    ALL_REDEXES, alpha_eq, complete_development, find_redexes,
    has_finite_jumps, parse_system, parse_term, print_term,
)
from icrs.errors import DevelopmentExplosion
from icrs.oracle import (
    _add_label, _replay_step, all_development_orders, brute_descendants,
    brute_needed, develops_by_exhaustion, fjp_witness_suite,
    phi_injectivity_check,
)
from icrs.rewriting import apply_valuation, match, redex_at
from icrs.terms import (
    graft, iter_tagged, positions_to_depth, resolve, set_tag_at, strip_tags,
    subterm_at,
)

import genrand


def T(text):
    return parse_term(text)


class TestAllOrders:
    def test_two_redex_pair(self):
        system = parse_system("rule p: p(Z) -> q(Z) ; rule once: a -> b ;")
        t = T("p(a)")
        out = all_development_orders(t, find_redexes(t, system, 2), system)
        assert out.orders == 2
        assert [print_term(f) for f in out.finals] == ["q(b)"]

    def test_empty_set(self, spine_system):
        t = T("f(a, c)")
        out = all_development_orders(t, [], spine_system)
        assert out.orders == 1 and alpha_eq(out.finals[0], t)

    def test_duplicating_example(self, dup_system):
        t = T("f([x] g(x), a)")
        out = all_development_orders(t, [redex_at(t, dup_system, ())], dup_system)
        assert [print_term(f) for f in out.finals] == ["g(g(g(a)))"]

    def test_probe_sets_singleton(self, growth_system):
        t = T("f([x] g(g(x)))")
        us = [redex_at(t, growth_system, ()), redex_at(t, growth_system, (1, 0))]
        out = all_development_orders(t, us, growth_system,
                                     probe_positions=[(1, 0, 1)])
        assert len(out.descendant_sets) == 1
        assert len(out.residual_sets) == 1

    def test_cap(self, spine_system):
        t = T("f(a, c)")
        with pytest.raises(DevelopmentExplosion):
            all_development_orders(t, find_redexes(t, spine_system, 2),
                                   spine_system, cap=2)


def template_system(*names):
    """The named rules of the randomized generator's templates."""
    rules = dict(genrand.RULE_TEMPLATES)
    return parse_system(genrand.CONSTRUCTORS + "\n"
                        + "\n".join(rules[n] for n in names))


def old_replay(term, position, rule):
    v = match(rule, term, position)
    if v is None:
        raise DevelopmentExplosion(f"oracle step does not match at {position}")
    return graft(term, position, apply_valuation(v, rule.rhs))


def old_all_development_orders(term, redexes, cap=4000,
                               probe_positions=(), probe_redexes=()):
    """The per-residual route: every order is its own path, and each edge
    replays the step once more per pending redex to find its residuals.
    One tag per node, so a probe redex label overwrites a probe position
    label on the same node; run probes and probe redexes apart."""
    start = term
    for i, p in enumerate(probe_positions):
        start = set_tag_at(start, tuple(p), ("o", i))
    for j, u in enumerate(probe_redexes):
        start = set_tag_at(start, u.position, ("r", j))
    finals, desc_sets, res_sets = [], set(), set()
    orders = explored = 0
    stack = [(start, tuple((u.position, u.rule) for u in redexes))]
    while stack:
        cur, pending = stack.pop()
        explored += 1
        if explored > cap:
            raise DevelopmentExplosion(f"more than {cap} development states")
        if not pending:
            orders += 1
            clean = strip_tags(cur)
            if not any(alpha_eq(clean, f) for f in finals):
                finals.append(clean)
            found, complete = iter_tagged(cur)
            if not complete:
                raise DevelopmentExplosion("a label landed inside a cycle")
            desc_sets.add(frozenset(q for q, t in found if t[0] == "o"))
            res_sets.add(frozenset(q for q, t in found if t[0] == "r"))
            continue
        for k, (pos, rule) in enumerate(pending):
            nxt = old_replay(cur, pos, rule)
            new_pending = []
            for p2, r2 in pending[:k] + pending[k + 1:]:
                moved = old_replay(set_tag_at(cur, p2, ("tmp",)), pos, rule)
                found, complete = iter_tagged(moved)
                if not complete:
                    raise DevelopmentExplosion("a residual landed inside a cycle")
                new_pending.extend((q, r2) for q, t in found if t == ("tmp",))
            stack.append((nxt, tuple(sorted(new_pending, key=lambda x: x[0]))))
    return finals, desc_sets, res_sets, orders


class TestMergedStates:
    def test_probe_redex_keeps_probe_position(self):
        # the probe redex uno@1 sits on probe position 1
        system = template_system("dup", "uno")
        t = T("dup(uno(k))")
        u = redex_at(t, system, ())
        probes = [(), (1,), (1, 1)]
        out = all_development_orders(t, [u], system, probe_positions=probes,
                                     probe_redexes=[redex_at(t, system, (1,))])
        expected = {(1,), (1, 1), (2,), (2, 1)}
        assert brute_descendants(probes, [(u.position, u.rule)], source=t) == expected
        assert [set(d) for d in out.descendant_sets] == [expected]
        assert [set(r) for r in out.residual_sets] == [{(1,), (2,)}]

    def test_duplicating_set_within_cap(self):
        system = template_system("col", "dup", "nest")
        t = T("nest([x1] dup(col(x1)))")
        us = [redex_at(t, system, p) for p in [(), (1, 0), (1, 0, 1)]]
        out = all_development_orders(t, us, system)
        assert out.orders == 8077
        assert len(out.finals) == 1
        assert alpha_eq(out.finals[0], complete_development(t, us, system).target)
        assert develops_by_exhaustion(t, us, system)
        assert has_finite_jumps(t, us, system)

    def test_equal_states_merge(self):
        system = template_system("uno")
        t = T("c2(c2(uno(k), uno(k)), uno(k))")
        us = find_redexes(t, system, 4)
        assert len(us) == 3
        # 1 + 3 + 3 + 1 distinct states; the per-order route visits 16
        assert all_development_orders(t, us, system, cap=8).orders == 6
        with pytest.raises(DevelopmentExplosion):
            all_development_orders(t, us, system, cap=7)
        with pytest.raises(DevelopmentExplosion):
            old_all_development_orders(t, us, cap=15)
        assert old_all_development_orders(t, us, cap=16)[3] == 6

    @staticmethod
    def seeded_instances(count):
        """(term, redex set, system, probe redexes): the duplicating set the
        per-residual route cannot finish under its cap, then seeded ones."""
        system = template_system("col", "dup", "nest")
        t = T("nest([x1] dup(col(x1)))")
        yield (t, [redex_at(t, system, p) for p in [(), (1, 0), (1, 0, 1)]],
               system, [redex_at(t, system, (1, 0, 1))])
        rng = random.Random(4711)
        done = 0
        while done < count:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3 + done % 2)
            us = genrand.random_redex_set(rng, t, system, max_size=3)
            if us:
                done += 1
                yield (t, us, system,
                       rng.sample(find_redexes(t, system, 5), min(2, len(us))))

    def test_agrees_with_per_residual_route(self):
        cyclic = exploded = 0
        for t, us, system, probe_redexes in self.seeded_instances(150):
            probes = sorted(positions_to_depth(t, 2))
            cyclic += "rec" in print_term(t)
            try:
                old_finals, old_desc, _, old_orders = old_all_development_orders(
                    t, us, probe_positions=probes)
                _, _, old_res, _ = old_all_development_orders(
                    t, us, probe_redexes=probe_redexes)
            except DevelopmentExplosion:
                exploded += 1
                try:
                    out = all_development_orders(
                        t, us, system, probe_positions=probes,
                        probe_redexes=probe_redexes)
                except DevelopmentExplosion:
                    continue
                assert has_finite_jumps(t, us, system)
                assert len(out.finals) == 1
                continue
            out = all_development_orders(t, us, system, probe_positions=probes,
                                         probe_redexes=probe_redexes)
            assert out.orders == old_orders
            assert len(out.finals) == len(old_finals)
            assert all(any(alpha_eq(f, g) for g in old_finals) for f in out.finals)
            assert set(out.descendant_sets) == old_desc
            assert set(out.residual_sets) == old_res
        assert cyclic >= 20 and exploded >= 1


class TestBruteDescendants:
    def test_pattern_positions_vanish(self, beta_system):
        t = T("app(abs([x] h(x)), a)")
        u = redex_at(t, beta_system, ())
        got = brute_descendants([(), (1,)], [(u.position, u.rule)], source=t)
        assert got == set()

    def test_duplication(self, growth_system):
        t = T("f([x] g(g(x)))")
        u = redex_at(t, growth_system, ())
        got = brute_descendants([(1, 0)], [(u.position, u.rule)], source=t)
        assert got == {(), (1, 1)}

    def test_multi_step_replay(self, spine_system):
        t = T("f(a, c)")
        u1 = redex_at(t, spine_system, ())
        t2 = complete_development(t, [u1], spine_system).target
        u2 = redex_at(t2, spine_system, (1,))
        got = brute_descendants([(2,)], [(u1.position, u1.rule),
                                         (u2.position, u2.rule)], source=t)
        assert got == {(2, 2)}


class TestBruteNeeded:
    def test_root_redex_needed(self, spine_system):
        t = T("f(a, c)")
        assert brute_needed(redex_at(t, spine_system, ()), t, spine_system)[0] == "needed"

    def test_loop_not_needed(self, spine_system):
        t = T("f(a, c)")
        verdict, witness = brute_needed(redex_at(t, spine_system, (2,)), t, spine_system)
        assert verdict == "not-needed"
        assert witness is not None

    def test_once_needed(self, spine_system):
        t = T("f(a, c)")
        assert brute_needed(redex_at(t, spine_system, (1,)), t, spine_system)[0] == "needed"

    def test_dropped_argument_not_needed(self):
        system = parse_system("rule drop: drop(Z) -> k ; rule once: a -> b ;")
        t = T("drop(a)")
        assert brute_needed(redex_at(t, system, (1,)), t, system)[0] == "not-needed"


class TestPhiInjectivity:
    def test_examples(self, dup_system, growth_system):
        s = T("f([x] g(x), a)")
        assert phi_injectivity_check(s, [redex_at(s, dup_system, ())], dup_system).ok
        assert phi_injectivity_check(T("g(g(g(a)))"), [], dup_system).ok

    def test_randomised(self):
        rng = random.Random(2024)
        done = 0
        while done < 30:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3)
            us = genrand.random_redex_set(rng, t, system, max_size=3)
            rep = phi_injectivity_check(t, us, system, budget=800)
            assert rep.ok
            done += 1

    def test_nested_cycles_are_walked_in_time(self):
        # visited paths grow with the square of the budget on nested cycles;
        # each one costs the same however long it is
        system = template_system("lam")
        t = T("rec R3. c2(c2(ap(lm([x1] x1), k), rec R1. c2(k, R1)), R3)")
        us = [redex_at(t, system, (1, 1))]
        for budget, visited in ((100, 10_286), (200, 40_586)):
            start = time.perf_counter()
            rep = phi_injectivity_check(t, us, system, budget=budget)
            assert time.perf_counter() - start < 1.0
            assert rep.ok and rep.instances == visited


class TestOneWalkReplay:
    """The oracle's step and labelling walk down to the position once; the
    two-walk routes (match from the root, then graft or set_tag_at) are
    the references."""

    def test_steps_and_labels_agree_with_two_walks(self):
        rng = random.Random(41)
        steps = labels = 0
        for _ in range(60):
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 4)
            positions = sorted(positions_to_depth(t, 3))
            tagged = t
            for k, p in enumerate(rng.sample(positions, min(3, len(positions)))):
                old = resolve(subterm_at(tagged, p))
                expected = set_tag_at(tagged, p, (old.tag or frozenset()) | {("o", k)})
                tagged = _add_label(tagged, p, ("o", k))
                assert tagged == expected
                labels += 1
            for u in find_redexes(t, system, 4):
                assert (_replay_step(tagged, u.position, u.rule)
                        == old_replay(tagged, u.position, u.rule))
                steps += 1
            rule = system.rules[0]
            for p in positions:
                if match(rule, tagged, p) is None:
                    with pytest.raises(DevelopmentExplosion):
                        _replay_step(tagged, p, rule)
            with pytest.raises(DevelopmentExplosion):  # no such position
                _replay_step(tagged, (9,), rule)
        assert steps >= 100
        assert labels >= 150


class TestFjpSuite:
    def test_witnesses(self, collapse_system, spine_system):
        instances = [
            (T("rec F. f(F)"), ALL_REDEXES, collapse_system),
            (T("f(f(a))"), find_redexes(T("f(f(a))"), collapse_system, 3), collapse_system),
            (T("f(a, c)"), ALL_REDEXES, spine_system),
            (T("f(a, c)"), [], spine_system),
        ]
        report = fjp_witness_suite(instances)
        assert report.ok, report.render()
        assert not has_finite_jumps(T("rec F. f(F)"), ALL_REDEXES, collapse_system)

    def test_random_finite_sets(self):
        rng = random.Random(555)
        instances = []
        while len(instances) < 25:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3)
            us = genrand.random_redex_set(rng, t, system, max_size=3)
            if us:
                instances.append((t, us, system))
        report = fjp_witness_suite(instances)
        assert report.ok, report.render()
