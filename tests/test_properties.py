"""Cross-cutting properties tying the modules together: mirror stability
under projection, sub-mirroring for nested prefix sets, safety of projections
along depth-stratified normalising reductions, and strategy/oracle agreement."""

import random

import pytest

from icrs import (
    ALL_REDEXES, DevSequence, FAIR, NEEDED_FAIR, OUTERMOST_FAIR, alpha_eq,
    complete_development, dev_sequence_of_steps, emaciate_step, epsilon_seq,
    essential_skeleton, find_redexes, needed_pilot, normalize,
    parse_system, parse_term, print_term, redexes_from_positions,
    sequence_mirrors, sub_mirrors,
)
from icrs.errors import ResidualHitsPrefix
from icrs.oracle import brute_needed
from icrs.rewriting import redex_at
from icrs.terms import positions_to_depth, prefix_closure

import genrand


def T(text):
    return parse_term(text)


class TestMirrorStabilityUnderProjection:
    """A mirroring pair stays mirroring after projecting both over the same
    step, as long as neither side's residuals hit the prefix set."""

    def test_skeleton_and_original(self, growth_system):
        s0 = T("g(f([x] g(g(x))))")
        D = dev_sequence_of_steps(
            s0, [((1, 1, 0, 1), "ren"), ((1, 1, 0), "ren"), ((1,), "dup")],
            growth_system)
        P = {(), (1,)}
        E = essential_skeleton(D, P)
        ok, why = sequence_mirrors(E, D, P)
        assert ok, why
        u = redex_at(s0, growth_system, (1,))
        d_proj = emaciate_step(D, u, P).sequence
        e_proj = emaciate_step(E, u, P).sequence
        ok, why = sequence_mirrors(e_proj, d_proj, P)
        assert ok, why

    def test_random_instances(self):
        rng = random.Random(424)
        done = 0
        while done < 12:
            system = genrand.random_system(rng)
            try:
                seq = genrand.random_dev_sequence(rng, system, max_stages=2,
                                                  term_depth=3)
            except Exception:
                continue
            prefix = genrand.random_prefix_set(rng, seq.final, max_depth=2)
            if not prefix:
                continue
            skel = essential_skeleton(seq, prefix)
            candidates = find_redexes(seq.initial, system, 3)
            if not candidates:
                continue
            u = rng.choice(candidates)
            try:
                d_proj = emaciate_step(seq, u, prefix).sequence
                e_proj = emaciate_step(skel, u, prefix).sequence
            except ResidualHitsPrefix:
                continue
            ok, why = sequence_mirrors(e_proj, d_proj, prefix)
            assert ok, why
            done += 1


class TestSubMirroring:
    """Projections with respect to a smaller prefix set sub-mirror the
    projections with respect to the larger one."""

    def test_growth_narrative(self, growth_system):
        s0 = T("g(f([x] g(g(x))))")
        D = dev_sequence_of_steps(
            s0, [((1, 1, 0, 1), "ren"), ((1, 1, 0), "ren"), ((1,), "dup")],
            growth_system)
        P = {(), (1,)}
        Q = {()}
        u = redex_at(s0, growth_system, (1,))
        with_p = emaciate_step(D, u, P).sequence
        with_q = emaciate_step(D, u, Q).sequence
        ok, why = sub_mirrors(with_q, Q, with_p, P)
        assert ok, why

    def test_random_instances(self):
        rng = random.Random(777)
        done = 0
        while done < 10:
            system = genrand.random_system(rng)
            try:
                seq = genrand.random_dev_sequence(rng, system, max_stages=2,
                                                  term_depth=3)
            except Exception:
                continue
            prefix = genrand.random_prefix_set(rng, seq.final, max_depth=2)
            sub = frozenset(p for p in prefix if rng.random() < 0.6)
            sub = prefix_closure(sub) if sub else frozenset()
            if not sub or sub == prefix:
                continue
            candidates = find_redexes(seq.initial, system, 3)
            if not candidates:
                continue
            u = rng.choice(candidates)
            try:
                with_p = emaciate_step(seq, u, prefix).sequence
                with_q = emaciate_step(seq, u, sub).sequence
            except ResidualHitsPrefix:
                continue
            ok, why = sub_mirrors(with_q, sub, with_p, prefix)
            assert ok, why
            done += 1


class TestNormalFormSafety:
    """Along a depth-stratified reduction to normal form, projecting over any
    co-reduction step never lands a residual on the stratum prefix."""

    def test_spine_strata_with_random_costeps(self, spine_system):
        rng = random.Random(9)
        term = T("f(a, c)")
        pilot = needed_pilot(term, spine_system, 4, 300)
        specs = pilot.trace.step_specs()
        # a cut's prefix holds every stratum prefix at its index
        for i, depth in pilot.cuts:
            prefix = pilot.prefix(i, depth)
            d_d = dev_sequence_of_steps(term, specs[:i], spine_system)
            for _ in range(6):
                candidates = find_redexes(term, spine_system, 4)
                v = rng.choice(candidates)
                # never raises ResidualHitsPrefix: the projection is defined
                emaciate_step(d_d, v, prefix)


class TestNeededFairNeverWasteful:
    def test_selected_redexes_are_never_not_needed(self, spine_system):
        kind = NEEDED_FAIR
        _, trace = normalize(T("f(a, c)"), spine_system, kind, 4, 200)
        assert trace.steps
        for i, step in enumerate(trace.steps):
            u = step.redex
            verdict, _ = brute_needed(u, trace.terms[i], spine_system,
                                      bound=16, nf_depth=4)
            assert verdict != "not-needed", (i, u.position)


class TestAllRedexDescendants:
    """Descendant queries on machine-built developments agree with the
    stepwise route."""

    def test_map_root_development(self, map_system):
        term = T("map([z] s(z), rec L. cons(zero, L))")
        via_all = complete_development(term, ALL_REDEXES, map_system)
        via_steps = complete_development(
            term, redexes_from_positions(term, map_system, [()]), map_system)
        assert alpha_eq(via_all.target, via_steps.target)
        probes = [(2, 1), (2, 2)]
        assert via_all.descendant_map(probes) == via_steps.descendant_map(probes)
        assert via_all.descendant_map(probes)[(2, 1)] == frozenset([(1, 1)])


class TestWeaklyConvergentOnlyDetected:
    def test_root_loop_reports_divergence(self):
        system = parse_system("rule wk: f([x] Z(x)) -> Z(f([x] Z(x))) ;")
        approx, trace = normalize(T("f([x] x)"), system, FAIR, 3, 40)
        assert approx.status == "divergence-suspected"

    def test_growing_variant_converges(self):
        system = parse_system("rule wk: f([x] Z(x)) -> Z(f([x] Z(x))) ;")
        approx, trace = normalize(T("f([x] g(x))"), system, OUTERMOST_FAIR, 4, 100)
        assert approx.status == "approximant"
        assert print_term(approx.term) == "g(g(g(g(_|_))))"
