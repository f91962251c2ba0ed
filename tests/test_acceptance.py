"""Acceptance suite: one test per criterion, each timed against its budget
and reporting a pass/fail line in the terminal summary."""

import random
import time

import pytest

from icrs import (
    ALL_REDEXES, DevSequence, FAIR, NEEDED_FAIR, OUTERMOST_FAIR, Measure,
    alpha_eq, complete_development, detect_rational_nf, dev_sequence_of_steps,
    emaciate_step, epsilon_seq, epsilon_step, fairness_audit, find_redexes,
    has_finite_jumps, measure, measure_less, needed_pilot,
    normalize, parse_term, path_prefix_set, print_term, redexes_from_positions,
    sequence_mirrors, target_term, trace_of, truncate,
)
from icrs.cli import main as cli_main
from icrs.errors import ResidualHitsPrefix
from icrs.oracle import (
    all_development_orders, brute_descendants, brute_needed,
    develops_by_exhaustion, phi_injectivity_check,
)
from icrs.rewriting import redex_at
from icrs.systems import pattern_meta
from icrs.terms import positions_to_depth, prefix_closure

import genrand
from conftest import CORPUS


def T(text):
    return parse_term(text)


_LINES = []


@pytest.fixture(scope="module")
def report(request):
    yield _LINES.append
    tr = request.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        tr.ensure_newline()
        tr.section("acceptance criteria")
        for line in _LINES:
            tr.write_line(line)


class _Clock:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def check(self):
        assert self.elapsed < self.budget, (
            f"criterion exceeded its {self.budget}s budget: {self.elapsed:.1f}s")
        return self.elapsed


def _run_cli(*argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_01_duplicating_paths_and_development(report):
    clock = _Clock(1.0)
    code, out = _run_cli("paths", str(CORPUS / "nested_duplication.crs"),
                         "--term", "f([x] g(x), a)", "--redexes", "@")
    assert code == 0
    assert "maximal paths: 1" in out
    assert ("(s,@) -e-> (r,@,@) -e-> (s,1.0) -1-> (s,1.0.1) -e-> (r,1,@) -1-> "
            "(r,1.1,@) -e-> (s,1.0) -1-> (s,1.0.1) -e-> (r,1.1.1,@) -e-> (s,2)"
            ) in out
    assert (". -e-> . -e-> g -1-> . -e-> g -1-> . -e-> g -1-> . -e-> . -e-> a"
            ) in out
    code, out2 = _run_cli("paths", str(CORPUS / "nested_duplication.crs"),
                          "--term", "g(g(g(a)))")
    assert code == 0
    assert "(s,@) -1-> (s,1) -1-> (s,1.1) -1-> (s,1.1.1)" in out2
    assert "g -1-> g -1-> g -1-> a" in out2
    code, out3 = _run_cli("develop", str(CORPUS / "nested_duplication.crs"),
                          "--term", "f([x] g(x), a)", "--redexes", "@")
    assert code == 0 and "target: g(g(g(a)))" in out3
    t = clock.check()
    report(f"criterion 1 pass ({t:.2f}s): duplicating-development paths, "
           "projections and target reproduced exactly")


def test_criterion_02_prefix_set_and_essential_positions(report, dup_system):
    clock = _Clock(1.0)
    s = T("f([x] g(x), a)")
    dev = complete_development(
        s, redexes_from_positions(s, dup_system, [()]), dup_system)
    P = {(), (1,), (1, 1)}
    pps = path_prefix_set(P, dev)
    listed = (
        "(s,@) -e-> (r,@,@) -e-> (s,1.0) -1-> (s,1.0.1) -e-> (r,1,@) -1-> "
        "(r,1.1,@) -e-> (s,1.0)")
    longest = max(pps.paths, key=len)
    assert longest.render() == listed
    assert {p.render() for p in pps.paths} == {
        longest.prefix(n).render() for n in range(1, len(longest.nodes) + 1)}
    essential = epsilon_step(P, dev)
    assert essential == {(), (1,), (1, 0), (1, 0, 1)}
    t = clock.check()
    report(f"criterion 2 pass ({t:.2f}s): path prefix set is the 7 prefixes "
           "of the listed path; essential positions are @,1,1.0,1.0.1")


def test_criterion_03_emaciated_projection_narrative(report, growth_system):
    clock = _Clock(1.0)
    s0 = T("g(f([x] g(g(x))))")
    D = dev_sequence_of_steps(
        s0, [((1, 1, 0, 1), "ren"), ((1, 1, 0), "ren"), ((1,), "dup")],
        growth_system)
    P = {(), (1,)}
    mu0 = measure(D, P)

    res1 = emaciate_step(D, redex_at(s0, growth_system, (1,)), P)
    D1 = res1.sequence
    assert print_term(D1.initial) == "g(g(g(g(g(a)))))"
    assert print_term(D1.final) == "g(h(g(h(g(a)))))"
    assert [sorted(u.position for u in st.redexes) for st in D1.stages] == [
        [], [(1,), (1, 1, 1)], []]
    mu1 = measure(D1, P)
    assert measure_less(mu1, mu0)

    u2 = redex_at(D1.initial, growth_system, (1, 1, 1, 1))
    res2 = emaciate_step(D1, u2, P)
    D2 = res2.sequence
    assert print_term(D2.initial) == "g(g(g(g(h(a)))))"
    assert print_term(D2.final) == "g(h(g(g(h(a)))))"
    assert [sorted(u.position for u in st.redexes) for st in D2.stages] == [
        [], [(1,)], []]
    assert measure(D2, P) == mu1
    assert epsilon_seq(P, D2)[0] == epsilon_seq(P, D1)[0]
    ok, why = sequence_mirrors(D2, D1, P)
    assert ok, why

    res3 = emaciate_step(D2, redex_at(D2.initial, growth_system, (1,)), P)
    D3 = res3.sequence
    assert print_term(D3.initial) == "g(h(g(g(h(a)))))"
    assert print_term(D3.final) == "g(h(g(g(h(a)))))"
    assert all(not list(st.redexes) for st in D3.stages)
    assert measure_less(measure(D3, P), measure(D2, P))
    t = clock.check()
    report(f"criterion 3 pass ({t:.2f}s): all three emaciated projections "
           "match, with the measure strictly decreasing on essential steps "
           "and preserved on the inessential one")


def test_criterion_04_development_order_independence(report):
    clock = _Clock(60.0)
    rng = random.Random(20260808)
    instances = 0
    while instances < 200:
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, 3)
        us = genrand.random_redex_set(rng, term, system, max_size=4)
        if not us:
            continue
        probes = sorted(positions_to_depth(term, 2))
        probe_redexes = [u for u in find_redexes(term, system, 3)
                         if all(u.position != v.position for v in us)][:2]
        out = all_development_orders(term, us, system,
                                     probe_positions=probes,
                                     probe_redexes=probe_redexes)
        assert len(out.finals) == 1, print_term(term)
        assert len(out.descendant_sets) == 1
        assert len(out.residual_sets) == 1
        dev = complete_development(term, us, system)
        assert alpha_eq(dev.target, out.finals[0])
        instances += 1
    t = clock.check()
    report(f"criterion 4 pass ({t:.1f}s): {instances} randomized development "
           "instances reach one target with equal descendant/residual sets "
           "over every contraction order")


def test_criterion_05_finite_jumps_iff_development(report, collapse_system):
    clock = _Clock(10.0)
    tower = T("rec F. f(F)")
    assert not has_finite_jumps(tower, ALL_REDEXES, collapse_system)
    assert not develops_by_exhaustion(tower, ALL_REDEXES, collapse_system)
    rng = random.Random(5050)
    agreements = 0
    while agreements < 60:
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, 3)
        us = genrand.random_redex_set(rng, term, system, max_size=3)
        if not us:
            continue
        fjp = has_finite_jumps(term, us, system)
        dev = develops_by_exhaustion(term, us, system)
        assert fjp is True and dev is True
        complete_development(term, us, system)  # the engine route succeeds too
        agreements += 1
    t = clock.check()
    report(f"criterion 5 pass ({t:.1f}s): finite jumps <=> complete "
           f"development on {agreements} finite sets and the collapsing tower")


# cyclic λ-terms over lambda_beta.crs with their developed terms: each turn
# of the cycle re-enters the redex it left, so the walk machine needs a
# finite state space here, which trimmed environments give it
CYCLIC_LAMBDA = [
    ("rec S. app(abs([x] app(x, S)), abs([y] y))",
     "rec T. app(abs([y] y), T)"),
    ("rec S. app(abs([x] app(S, x)), abs([y] y))",
     "rec T. app(T, abs([y] y))"),
    ("rec S. abs([z] app(abs([x] app(x, app(z, S))), abs([y] y)))",
     "rec T. abs([z] app(abs([y] y), app(z, T)))"),
    ("rec S. app(abs([x] abs([w] app(x, app(w, S)))), abs([y] y))",
     "rec T. abs([w] app(abs([y] y), app(w, T)))"),
]


@pytest.mark.parametrize("term,developed", CYCLIC_LAMBDA)
def test_criterion_05_cyclic_lambda_terms_develop(report, beta_system, term,
                                                  developed):
    clock = _Clock(5.0)
    code, out = _run_cli("develop", str(CORPUS / "lambda_beta.crs"),
                         "--term", term, "--all-redexes")
    assert code == 0
    printed = out.removeprefix("target: ").strip()
    assert alpha_eq(parse_term(printed), T(developed))
    assert has_finite_jumps(T(term), ALL_REDEXES, beta_system)
    assert develops_by_exhaustion(T(term), ALL_REDEXES, beta_system)
    t = clock.check()
    report(f"criterion 5 pass ({t:.1f}s): {term} develops to {printed}")


def test_criterion_06_essentiality_matches_descendants(report):
    clock = _Clock(60.0)
    rng = random.Random(606)
    instances = 0
    checks = 0
    while instances < 200:
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, 3)
        us = genrand.random_redex_set(rng, term, system, max_size=3)
        if not us:
            continue
        dev = complete_development(term, us, system)
        prefix = genrand.random_prefix_set(rng, dev.target, max_depth=2)
        if not prefix:
            continue
        essential = epsilon_step(prefix, dev)
        from icrs import PathSpace

        space = PathSpace(term, us, system)
        pattern_positions = set()
        for u in us:
            for rel in pattern_meta(u.rule.lhs).positions:
                pattern_positions.add(u.position + rel)
        specs = [(s.redex.position, s.redex.rule) for s in dev.steps]
        for p in positions_to_depth(term, 3):
            if p in pattern_positions or space.bound_by(p) is not None:
                continue
            desc = brute_descendants([p], specs, source=term)
            assert (p in essential) == bool(desc & prefix), (p, desc)
            checks += 1
        instances += 1
    t = clock.check()
    report(f"criterion 6 pass ({t:.1f}s): essentiality of non-pattern "
           f"positions coincides with descendants hitting the prefix set "
           f"({instances} instances, {checks} positions)")


def test_criterion_07_measure_laws(report):
    clock = _Clock(120.0)
    rng = random.Random(707)
    essential_cases = 0
    inessential_cases = 0
    while essential_cases + inessential_cases < 200:
        system = genrand.random_system(rng)
        try:
            seq = genrand.random_dev_sequence(rng, system, max_stages=2,
                                              term_depth=3)
        except Exception:
            continue
        prefix = genrand.random_prefix_set(rng, seq.final, max_depth=2)
        if not prefix:
            continue
        candidates = find_redexes(seq.initial, system, 4)
        if not candidates:
            continue
        u = rng.choice(candidates)
        kind = (u.position in epsilon_seq(prefix, seq)[0])
        try:
            res = emaciate_step(seq, u, prefix)
        except ResidualHitsPrefix:
            continue
        mu_before = measure(seq, prefix)
        mu_after = measure(res.sequence, prefix)
        if kind:
            assert measure_less(mu_after, mu_before), (
                print_term(seq.initial), u.position)
            essential_cases += 1
        else:
            assert mu_after == mu_before
            assert (epsilon_seq(prefix, res.sequence)[0]
                    == epsilon_seq(prefix, seq)[0])
            ok, why = sequence_mirrors(res.sequence, seq, prefix)
            assert ok, why
            inessential_cases += 1
    t = clock.check()
    report(f"criterion 7 pass ({t:.1f}s): measure strictly decreases on "
           f"{essential_cases} essential projections and is preserved with "
           f"mirroring on {inessential_cases} inessential ones")


def test_criterion_08_normalisation_agreement(report, pair_system,
                                              spine_system, map_system):
    clock = _Clock(10.0)
    goal = 6
    jobs = [
        (pair_system, "f(a)", 80),
        (spine_system, "f(a, c)", 200),
        (map_system, "map([z] s(z), rec L. cons(zero, L))", 120),
    ]
    kinds = [FAIR, OUTERMOST_FAIR, NEEDED_FAIR]
    for system, text, fuel in jobs:
        finals = []
        for kind in kinds:
            approx, trace = normalize(T(text), system, kind, goal, fuel)
            assert approx.status in ("approximant", "normal-form")
            depths = [len(s.redex.position) for s in trace.steps]
            for d in range(1, goal + 1):
                shallow = [i for i, x in enumerate(depths) if x < d]
                assert len(shallow) <= len(depths)
                if shallow:
                    assert max(shallow) <= approx.certificate
            finals.append(trace.final)
        for d in range(1, goal + 1):
            cuts = [truncate(f, d) for f in finals]
            assert alpha_eq(cuts[0], cuts[1]) and alpha_eq(cuts[1], cuts[2])
    approx54, _ = normalize(T("f(a)"), pair_system, FAIR, goal, 80)
    for d in range(1, goal + 1):
        expected = T("g(" * d + "_|_" + ")" * d)
        assert alpha_eq(truncate(approx54.term, d), expected)
    _, trace516 = normalize(T("f(a, c)"), spine_system, FAIR, goal, 200)
    nf = detect_rational_nf(trace516)
    assert nf is not None and alpha_eq(nf, T("rec S. g(b, S)"))
    t = clock.check()
    report(f"criterion 8 pass ({t:.1f}s): fair/outermost-fair/needed-fair "
           "produce alpha-equal depth-1..6 approximants on all three systems; "
           "rational normal form rec S. g(b, S) and g^d(_|_) reproduced")


def test_criterion_09_audit_verdicts(report, pair_system, spine_system):
    clock = _Clock(1.0)
    steps1 = [((1,) + (1,) * k, "inner") for k in range(5)] + [((), "outer")] \
        + [((1,) * 6, "inner"), ((1,) * 7, "inner")]
    trace1 = trace_of(T("f(a)"), steps1, pair_system)
    assert fairness_audit(trace1, OUTERMOST_FAIR)
    steps2 = [((1,) + (1,) * k, "inner") for k in range(10)]
    trace2 = trace_of(T("f(a)"), steps2, pair_system)
    assert not fairness_audit(trace2, OUTERMOST_FAIR)
    verdict = fairness_audit(trace2, NEEDED_FAIR)
    assert not verdict and "@" in verdict.detail
    specs = []
    pos_f = ()
    for _ in range(6):
        specs.append((pos_f, "spine"))
        specs.append((pos_f + (1,), "once"))
        pos_f = pos_f + (2,)
    trace3 = trace_of(T("f(a, c)"), specs, spine_system)
    assert not fairness_audit(trace3, FAIR)
    assert fairness_audit(trace3, OUTERMOST_FAIR)
    assert fairness_audit(trace3, NEEDED_FAIR)
    t = clock.check()
    report(f"criterion 9 pass ({t:.2f}s): audits reproduce the outermost-fair "
           "pass/fail pair and the fair-fail/outermost-pass/needed-pass triple")


def test_criterion_10_needed_iff_essential_for_stratum(report, spine_system):
    clock = _Clock(120.0)
    checked = 0
    disagreements = []
    cases = [
        (spine_system, "f(a, c)"),
        (spine_system, "g(a, f(a, c))"),
        (spine_system, "f(b, f(a, c))"),
    ]
    drop_system = __import__("icrs").parse_system(
        "rule drop: drop(Z) -> k ; rule once: a -> b ; rule loop: c -> c ;")
    cases += [(drop_system, "drop(a)"), (drop_system, "drop(c)")]
    for system, text in cases:
        term = T(text)
        pilot = needed_pilot(term, system, 4, 300)
        essential = pilot.essential_start_positions()
        for u in find_redexes(term, system, 4):
            verdict, _ = brute_needed(u, term, system, bound=16, nf_depth=4)
            if verdict == "unknown":
                continue
            if (u.position in essential) != (verdict == "needed"):
                disagreements.append((text, u.position, verdict))
            checked += 1
    assert not disagreements, disagreements
    assert checked >= 10
    t = clock.check()
    report(f"criterion 10 pass ({t:.1f}s): brute-force neededness equals "
           f"essentiality for some pilot stratum on {checked} redexes")


def test_criterion_11_projection_injectivity(report, dup_system):
    clock = _Clock(30.0)
    s = T("f([x] g(x), a)")
    rep = phi_injectivity_check(s, redexes_from_positions(s, dup_system, [()]),
                                dup_system)
    assert rep.ok
    rng = random.Random(1111)
    done = 0
    paths = rep.instances
    while done < 40:
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, 3)
        us = genrand.random_redex_set(rng, term, system, max_size=3)
        rep = phi_injectivity_check(term, us, system, budget=600)
        assert rep.ok, rep.render()
        paths += rep.instances
        done += 1
    t = clock.check()
    report(f"criterion 11 pass ({t:.1f}s): no projection collision across "
           f"{paths} enumerated paths on {done + 1} instances")
