"""Rational normal forms certified by the run (`detect_rational_nf`): the
forms the benchmark ladders print stay as they were, every certified form is
normal and agrees with fresh runs to twice the run's depth, and a run that
proves nothing gives None."""

import contextlib
import io
import json
import random

import pytest

from conftest import CORPUS, corpus_text, parse_system
from genrand import random_system, random_term
from icrs import parse_term, print_term
from icrs.cli import main
from icrs.strategies import (
    FAIR, NEEDED_FAIR, OUTERMOST_FAIR, Trace, detect_rational_nf,
    is_normal_form, normalize,
)
from icrs.terms import Rec, RecVar, Sym, alpha_eq, truncate

FIXPOINT = " ".join(ln.strip() for ln in corpus_text("lambda_fixpoint.term").splitlines()
                    if ln.strip() and not ln.lstrip().startswith("#"))

# name -> (system file, term, the printed rational normal form)
CORPUS_RUNS = {
    "spine": ("spine_growth.crs", "f(a, c)", "rec S1. g(b, S1)"),
    "pair": ("outermost_pair.crs", "f(a)", "rec S1. g(S1)"),
    "map": ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))",
            "rec S1. cons(s(zero), S1)"),
    "fixpoint": ("lambda_beta.crs", FIXPOINT, "rec S1. app(app(gc, bc), S1)"),
}

# the depths of the benchmark's normalize and needed ladders
NORMALIZE_LADDER = {"spine": (4, 8, 16, 32, 48), "pair": (4, 8, 16, 32, 48, 63),
                    "map": (4, 8, 16, 32), "fixpoint": (4, 8, 16)}
NEEDED_LADDER = {"spine": (3, 4, 5, 6), "pair": (3, 4, 6, 8), "map": (3, 4, 6),
                 "fixpoint": (1,)}

LADDER_RUNS = [(name, strategy, depth)
               for ladder, strategies in ((NORMALIZE_LADDER, ("fair", "outermost-fair")),
                                          (NEEDED_LADDER, ("needed-fair",)))
               for name, depths in ladder.items()
               for depth in depths for strategy in strategies]


@pytest.mark.parametrize("name, strategy, depth", LADDER_RUNS)
def test_ladder_forms_are_pinned(name, strategy, depth):
    system_file, term, form = CORPUS_RUNS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["normalize", str(CORPUS / system_file), "--term", term,
                     "--strategy", strategy, "--depth", str(depth),
                     "--fuel", "4000", "--json"])
    assert code == 0
    assert json.loads(out.getvalue())["rational_normal_form"] == form


def check_certified(term, system, nf, depth, fuel):
    """The certified form is normal, and its truncation at every depth up to
    twice the run's agrees with the approximant of a fresh fair run there.
    Returns how many depths were compared."""
    assert is_normal_form(nf, system)
    compared = 0
    for d in range(1, 2 * depth + 1):
        approx, _ = normalize(term, system, FAIR, d, fuel)
        assert approx.status in ("approximant", "normal-form"), (term, d)
        assert alpha_eq(truncate(nf, d), truncate(approx.term, d)), (term, nf, d)
        compared += 1
    return compared


def test_certified_forms_agree_with_fresh_runs_on_the_corpus():
    for system_file, text, _ in CORPUS_RUNS.values():
        system, term = parse_system(corpus_text(system_file)), parse_term(text)
        for kind in (FAIR, OUTERMOST_FAIR, NEEDED_FAIR):
            _, trace = normalize(term, system, kind, 3, 4000)
            nf = detect_rational_nf(trace)
            assert nf is not None and nf is not trace.final
            assert check_certified(term, system, nf, 3, 4000) == 6


@pytest.mark.parametrize("seed", range(4))
def test_certified_forms_agree_on_seeded_systems(seed):
    """Seeded terms, and cycles through them, whose runs recur as the cycle
    unrolls."""
    rng = random.Random(seed)
    certified = 0
    for _ in range(40):
        system = random_system(rng)
        term = random_term(rng, system, rng.randint(2, 5))
        if rng.random() < 0.5:
            term = Rec("R", Sym("c2", (term, RecVar("R"))))
        depth = rng.randint(2, 4)
        for kind in (FAIR, OUTERMOST_FAIR):
            approx, trace = normalize(term, system, kind, depth, 400)
            nf = detect_rational_nf(trace)
            if nf is None:
                continue
            if nf is trace.final:  # a finite normal form
                assert approx.status == "normal-form"
                continue
            assert nf.__class__ is Rec and print_term(nf).startswith("rec S1. ")
            check_certified(term, system, nf, depth, 400)
            certified += 1
    assert certified >= 10


def run_trace(system_text, term, kind, depth, fuel=400):
    return normalize(parse_term(term), parse_system(system_text), kind, depth, fuel)[1]


@pytest.mark.parametrize("kind, depth", [(FAIR, 2), (FAIR, 12), (OUTERMOST_FAIR, 12),
                                         (NEEDED_FAIR, 8)])
def test_a_finite_chain_has_no_cycle(kind, depth):
    # the normal form is g^6(b): a run that reaches it gives it, one that
    # stops above the redex proves nothing
    trace = run_trace(corpus_text("spine_growth.crs"), "g(g(g(g(g(g(a))))))",
                      kind, depth)
    nf = detect_rational_nf(trace)
    assert nf is (None if depth < 6 else parse_term("g(g(g(g(g(g(b))))))"))


@pytest.mark.parametrize("kind", [FAIR, OUTERMOST_FAIR])
def test_a_stream_without_a_period_gives_none(kind):
    # from(zero) unfolds to the stream 0, 1, 2, ...; no run term recurs
    trace = run_trace("rule from: from(X) -> cons(X, from(s(X))) ;", "from(zero)",
                      kind, 40)
    assert len(trace) > 0 and not is_normal_form(trace.final, trace.system)
    assert detect_rational_nf(trace) is None


def test_deep_recurrence_without_recursion():
    """A run term recurring 3000 deep is found, and its form checked and
    written with its least period, over explicit stacks."""
    system = parse_system(corpus_text("outermost_pair.crs"))
    deep = parse_term("g(" * 3000 + "a" + ")" * 3000)
    trace = Trace(system, "scripted", [parse_term("a"), deep], [])
    assert detect_rational_nf(trace) is parse_term("rec S1. g(S1)")
    deep = parse_term("h(" + "g(" * 2999 + "a" + ")" * 3000)
    trace = Trace(system, "scripted", [parse_term("a"), deep], [])
    nf = detect_rational_nf(trace)
    assert nf is parse_term("rec S1. h(" + "g(" * 2999 + "S1" + ")" * 3000)


@pytest.mark.parametrize("strategy", ["fair", "needed-fair"])
@pytest.mark.parametrize("depth", [2, 3])
def test_short_fixpoint_runs_print_the_least_period(strategy, depth):
    # the first recurrence of these runs is two or three periods deep
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["normalize", str(CORPUS / "lambda_beta.crs"), "--term", FIXPOINT,
                     "--strategy", strategy, "--depth", str(depth),
                     "--fuel", "4000", "--json"])
    assert code == 0
    assert (json.loads(out.getvalue())["rational_normal_form"]
            == "rec S1. app(app(gc, bc), S1)")


def test_a_period_that_is_no_repetition_is_kept():
    # g(h(S)) is the least period; g(S) and the like do not unfold to it
    system = parse_system(corpus_text("outermost_pair.crs"))
    trace = Trace(system, "scripted", [parse_term("a"), parse_term("g(h(g(h(a))))")], [])
    assert detect_rational_nf(trace) is parse_term("rec S1. g(h(S1))")
