import pytest

from icrs import (
    FAIR, NEEDED_FAIR, OUTERMOST_FAIR, Trace, alpha_eq, detect_rational_nf,
    fairness_audit, find_redexes, is_normal_form, needed_pilot, normalize,
    outermost_redexes, parse_system, parse_term, print_term, trace_of,
    truncate,
)
from icrs import strategies
from icrs.errors import FuelExhausted, SystemCheckFailed
from icrs.oracle import brute_needed
from icrs.rewriting import redex_at


def T(text):
    return parse_term(text)


def alternating_spine_steps(rounds):
    """f(a,c): alternately contract the spine redex and the fresh a."""
    specs = []
    pos_f = ()
    for _ in range(rounds):
        specs.append((pos_f, "spine"))
        specs.append((pos_f + (1,), "once"))
        pos_f = pos_f + (2,)
    return specs


class TestOutermost:
    def test_root_redex_is_outermost(self, pair_system):
        got = outermost_redexes(T("f(a)"), pair_system, 3)
        assert [u.position for u in got] == [()]

    def test_spine_term(self, spine_system):
        got = outermost_redexes(T("f(a, c)"), spine_system, 3)
        assert [u.position for u in got] == [()]

    def test_normal_form_has_none(self, spine_system):
        assert outermost_redexes(T("g(b, b)"), spine_system, 3) == []

    def test_parallel_outermost(self, spine_system):
        got = outermost_redexes(T("g(a, c)"), spine_system, 3)
        assert [u.position for u in got] == [(1,), (2,)]


def first_selected(term, system, kind):
    """The redex the strategy contracts first from the term."""
    _, trace = normalize(term, system, kind, 4, fuel=1)
    return trace.steps[0].redex


class TestSelect:
    def test_serves_oldest_obligation(self, spine_system):
        u = first_selected(T("f(a, c)"), spine_system, FAIR)
        assert u.position == ()  # ties broken outermost-leftmost

    def test_outermost_fair_ignores_covered(self, spine_system):
        u = first_selected(T("f(a, c)"), spine_system, OUTERMOST_FAIR)
        assert u.position == ()

    def test_needed_fair_skips_loop(self, spine_system):
        kind = NEEDED_FAIR
        u = first_selected(T("f(a, c)"), spine_system, kind)
        assert u.rule.name != "loop"


class TestNormalize:
    def test_growing_argument(self, pair_system):
        approx, trace = normalize(T("f(a)"), pair_system, OUTERMOST_FAIR, 4, 200)
        assert approx.status == "approximant"
        assert print_term(approx.term) == "g(g(g(g(_|_))))"

    def test_spine_fair(self, spine_system):
        approx, trace = normalize(T("f(a, c)"), spine_system, FAIR, 4, 400)
        assert approx.status == "approximant"
        assert alpha_eq(approx.term, truncate(T("rec S. g(b, S)"), 4))
        nf = detect_rational_nf(trace)
        assert nf is not None and alpha_eq(nf, T("rec S. g(b, S)"))

    def test_map_over_cyclic_list(self, map_system):
        term = T("map([z] s(z), rec L. cons(zero, L))")
        approx, trace = normalize(term, map_system, OUTERMOST_FAIR, 3, 200)
        assert alpha_eq(approx.term, truncate(T("rec M. cons(s(zero), M)"), 3))

    def test_already_normal(self, spine_system):
        approx, trace = normalize(T("g(b, b)"), spine_system, FAIR, 4, 50)
        assert approx.status == "normal-form"
        assert print_term(approx.term) == "g(b, b)"
        assert len(trace.steps) == 0

    def test_divergence_reported(self):
        system = parse_system("rule loop: c -> c ;")
        approx, trace = normalize(T("c"), system, FAIR, 3, 40)
        assert approx.status == "divergence-suspected"

    def test_collapse_loop_reported(self, collapse_system):
        approx, trace = normalize(T("rec F. f(F)"), collapse_system, FAIR, 3, 40)
        assert approx.status == "divergence-suspected"

    def test_system_gate(self):
        bad = parse_system("rule eq: eq(Z, Z) -> k ;")
        with pytest.raises(SystemCheckFailed):
            normalize(T("eq(k, k)"), bad, FAIR, 2, 10)

    def test_all_strategies_agree(self, spine_system):
        finals = []
        for kind in (FAIR, OUTERMOST_FAIR, NEEDED_FAIR):
            approx, _ = normalize(T("f(a, c)"), spine_system, kind, 4, 400)
            finals.append(approx.term)
        assert alpha_eq(finals[0], finals[1]) and alpha_eq(finals[1], finals[2])

    def test_own_trace_passes_own_audit(self, spine_system, pair_system):
        for system, text in ((spine_system, "f(a, c)"), (pair_system, "f(a)")):
            for kind in (FAIR, OUTERMOST_FAIR):
                approx, trace = normalize(T(text), system, kind, 4, 300)
                assert fairness_audit(trace, kind)

    def test_fair_trace_is_outermost_fair(self, spine_system):
        _, trace = normalize(T("f(a, c)"), spine_system, FAIR, 4, 300)
        assert fairness_audit(trace, OUTERMOST_FAIR)

    def test_strong_convergence_certificate(self, spine_system):
        approx, trace = normalize(T("f(a, c)"), spine_system, FAIR, 5, 400)
        depths = [len(s.redex.position) for s in trace.steps]
        assert all(d >= approx.stable_depth for d in depths[approx.certificate:])
        for d in range(1, 6):
            shallow = [i for i, x in enumerate(depths) if x < d]
            assert len(shallow) < len(depths)


class TestAudits:
    def test_alternating_reduction_is_outermost_fair(self, pair_system):
        steps = [((1,) + (1,) * k, "inner") for k in range(5)] + [((), "outer")]
        trace = trace_of(T("f(a)"), steps, pair_system)
        assert fairness_audit(trace, OUTERMOST_FAIR)

    def test_starving_the_root_fails(self, pair_system):
        steps = [((1,) + (1,) * k, "inner") for k in range(10)]
        trace = trace_of(T("f(a)"), steps, pair_system)
        verdict = fairness_audit(trace, OUTERMOST_FAIR)
        assert not verdict
        assert "@" in verdict.detail

    def test_spine_without_loop_service(self, spine_system):
        trace = trace_of(T("f(a, c)"), alternating_spine_steps(6), spine_system)
        assert not fairness_audit(trace, FAIR)
        assert fairness_audit(trace, OUTERMOST_FAIR)
        assert fairness_audit(trace, NEEDED_FAIR)


class TestRationalNF:
    def test_finite_normal_form(self, spine_system):
        trace = trace_of(T("g(b, b)"), [], spine_system)
        assert print_term(detect_rational_nf(trace)) == "g(b, b)"

    def test_periodic_fold(self, spine_system):
        _, trace = normalize(T("f(a, c)"), spine_system, FAIR, 5, 400)
        assert alpha_eq(detect_rational_nf(trace), T("rec S. g(b, S)"))

    def test_aperiodic_prefix_gives_none(self):
        system = parse_system(
            "rule spine: f(X, Y) -> g(X, f(X, Y)) ; rule once: a -> b ;"
            "rule loop: c -> c ; sym m/1 ; sym n/1 ;")
        final = T("m(m(n(m(m(m(n(f(a, c))))))))")
        trace = Trace(system, "x", [final], [])
        assert detect_rational_nf(trace) is None


class TestPilot:
    def test_strata_shape(self, spine_system):
        pilot = needed_pilot(T("f(a, c)"), spine_system, 4, 300)
        indices = [i for i, _ in pilot.cuts]
        assert indices == sorted(set(indices)) and pilot.cuts[-1][1] == 4
        depths = [len(s.redex.position) for s in pilot.trace.steps]
        below = 0
        for i, depth in pilot.cuts:
            # from the index on every step is at least the cut's depth deep,
            # and the step before it is as deep as the cut before it
            assert all(d >= depth for d in depths[i:])
            assert i == 0 or depths[i - 1] == below
            assert all(len(p) < depth for p in pilot.prefix(i, depth))
            below = depth

    def test_already_normal(self, spine_system):
        pilot = needed_pilot(T("g(b, b)"), spine_system, 3, 50)
        assert pilot.cuts == ((0, 3),)
        assert alpha_eq(pilot.trace.terms[0], T("g(b, b)"))

    def test_pilot_fuel_error(self):
        system = parse_system("rule loop: c -> c ;")
        with pytest.raises(FuelExhausted):
            needed_pilot(T("c"), system, 3, 30)

    @pytest.mark.parametrize("text,term", [
        ("rule loop: c -> c ;", "c"),  # stuck at the root: divergence
        ("sym g/1 ; rule a: a -> g(a) ;", "a"),  # growing: fuel
    ])
    def test_pilot_failure_carries_the_outermost_fair_run(self, text, term):
        """A pilot that does not stabilise raises with the approximant and
        the trace of outermost-fair normalize to the pilot's depth."""
        system = parse_system(text)
        with pytest.raises(FuelExhausted) as info:
            needed_pilot(T(term), system, 40, 30)
        approx, trace = normalize(T(term), system, OUTERMOST_FAIR, 40, 30)
        assert approx.status in ("divergence-suspected", "fuel-exhausted")
        assert info.value.approximant == approx
        assert info.value.trace.terms == trace.terms
        assert info.value.trace.steps == trace.steps

    def test_needed_positions_match_oracle(self, spine_system):
        t = T("f(a, c)")
        pilot = needed_pilot(t, spine_system, 4, 300)
        needed = pilot.essential_start_positions()
        for u in find_redexes(t, spine_system, 3):
            verdict, _ = brute_needed(u, t, spine_system)
            if verdict == "unknown":
                continue
            assert (u.position in needed) == (verdict == "needed"), u.position


class TestFixpointEncoding:
    """The explicit application/abstraction encoding of fixed-point
    iteration over a looping argument converges to its infinite normal form
    under every fair strategy."""

    def _term(self):
        import pathlib

        text = (pathlib.Path(__file__).parent.parent / "src" / "icrs" /
                "corpus" / "lambda_fixpoint.term").read_text()
        body = "".join(line for line in text.splitlines()
                       if not line.startswith("#"))
        return parse_term(body)

    def test_converges_with_rational_nf(self, beta_system):
        t = self._term()
        expected = parse_term("rec S. app(app(gc, bc), S)")
        for kind in (FAIR, OUTERMOST_FAIR):
            approx, trace = normalize(t, beta_system, kind, 4, 400)
            assert approx.status == "approximant"
            nf = detect_rational_nf(trace)
            assert nf is not None and alpha_eq(nf, expected)
            assert fairness_audit(trace, kind)

    def test_needed_fair_run_passes_its_audit(self, beta_system):
        # the audit replays the pilots on the fuel the run gave them; on the
        # least pilot fuel they do not stabilise at this depth
        approx, trace = normalize(self._term(), beta_system, NEEDED_FAIR, 80, 4000)
        assert approx.status == "approximant"
        assert trace.pilot_fuel == 4000
        assert fairness_audit(trace, NEEDED_FAIR)
        assert trace_of(trace.initial, [], beta_system).pilot_fuel == strategies.PILOT_FUEL


class TestLedger:
    def test_normalize_attaches_obligation_ledger(self, spine_system):
        _, trace = normalize(T("f(a, c)"), spine_system, FAIR, 3, 200)
        assert trace.ledger
        assert all(ob.resolved_at is None or ob.resolved_at >= ob.born
                   for ob in trace.ledger)
        assert any(ob.resolution == "contracted" for ob in trace.ledger)
