"""Engine objects die by reference count.  A path space keeps its nodes'
downward links, so it holds no cycle; a node's match memo holds the rules
matched at it weakly; rule-side facts live in weak tables keyed by the side;
a system's validity is a flag on the system; and a run's table of
contractions is a local of the run.  So no run leaves work for the cyclic
collector, and nothing a run built outlives it."""

import collections
import gc
import pathlib
import random
import weakref

import pytest

from icrs import (
    ALL_REDEXES, FAIR, NEEDED_FAIR, OUTERMOST_FAIR, complete_development,
    epsilon_step, find_redexes, has_finite_jumps, match, normalize,
    parse_system, parse_term, path_prefix_set, require_valid,
)
from icrs import systems
from icrs.developments import PathSpace
from icrs.errors import EngineError, SystemCheckFailed
from icrs.oracle import all_development_orders
from icrs.terms import Abs, MetaApp, Rec, RecVar, Sym, Var, match_memo

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"


def fixpoint_term():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return parse_term(" ".join(ln.strip() for ln in lines
                               if ln.strip() and not ln.lstrip().startswith("#")))


CORPUS_INPUTS = [
    ("spine_growth.crs", "f(a, c)"), ("outermost_pair.crs", "f(a)"),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
    ("lambda_beta.crs", None),
]


def engine_garbage(work):
    """The objects of engine classes that `work()` leaves for the cyclic
    collector, by class name: every collection meanwhile keeps what it
    finds (`gc.DEBUG_SAVEALL`), and one more runs when the work is done."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return collections.Counter(type(o).__qualname__ for o in gc.garbage
                                   if type(o).__module__.startswith("icrs."))
    finally:
        gc.set_debug(0)
        del gc.garbage[:]


def seeded_developments():
    rng = random.Random(7)
    done = 0
    while done < 40:
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        us = genrand.random_redex_set(rng, term, system)
        if not us:
            continue
        try:
            all_development_orders(term, us, system)
            has_finite_jumps(term, us, system)
            has_finite_jumps(term, ALL_REDEXES, system)
            dev = complete_development(term, us, system)
            prefix = genrand.random_prefix_set(rng, dev.target, max_depth=2)
            path_prefix_set(prefix, dev)
            epsilon_step(prefix, dev)
        except EngineError:
            continue
        done += 1


def corpus_normalisations():
    for name, text in CORPUS_INPUTS:
        system = parse_system((CORPUS / name).read_text())
        term = fixpoint_term() if text is None else parse_term(text)
        for kind in (FAIR, OUTERMOST_FAIR):
            normalize(term, system, kind, 8, 400)


def needed_fair_fixpoint():
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    normalize(fixpoint_term(), system, NEEDED_FAIR, 16, 4000)


@pytest.mark.parametrize("work", [
    seeded_developments, corpus_normalisations, needed_fair_fixpoint])
def test_no_cyclic_engine_garbage(work):
    assert engine_garbage(work) == {}


@pytest.mark.parametrize("kind", [FAIR, OUTERMOST_FAIR, NEEDED_FAIR],
                         ids=lambda k: k.kind)
def test_a_run_and_its_contractions_leave_no_cycle(kind):
    """A run's table of `Contraction`s and the records its steps share."""
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    term = fixpoint_term()
    assert engine_garbage(lambda: normalize(term, system, kind, 16, 4000)) == {}


def test_a_contraction_record_dies_with_its_trace():
    """The run's table dies with the run; the trace's steps hold the
    records they share, and nothing else does."""
    gc.collect()
    gc.disable()
    try:
        system = parse_system((CORPUS / "lambda_beta.crs").read_text())
        approx, trace = normalize(fixpoint_term(), system, FAIR, 16, 4000)
        records = {id(s.local): s.local for s in trace.steps}
        assert len(records) < len(trace.steps)
        contracta = [weakref.ref(r.contractum) for r in records.values()]
        scans = [weakref.ref(u.valuation) for r in records.values() for u in r.scan]
        assert scans
        del approx, records, trace, system
        assert not any(ref() for ref in contracta + scans)
    finally:
        gc.enable()


def test_a_path_space_leaves_no_cycle():
    """Term nodes, rule nodes and the returns from pattern-bound variables
    of a cyclic lambda-term with all its redexes."""
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    term = parse_term("rec S. app(abs([x] app(x, S)), abs([y] y))")
    assert engine_garbage(
        lambda: PathSpace(term, ALL_REDEXES, system).enumerate(budget=40)) == {}


SYSTEM_TEXT = ("sym k/0 ; sym c1/1 ; sym c2/2 ;\n"
               "rule lam: ap(lm([x] Z(x)), W) -> c2(Z(W), rec S. c1(S)) ;\n"
               "rule dup: dup(Z) -> c2(Z, Z) ;")


def test_a_dropped_system_frees_its_rule():
    """A node that outlives a system, matched against its rules, keeps
    none of them alive, nor does the validity check."""
    node = parse_term("dup(c1(k))")
    system = parse_system(SYSTEM_TEXT)
    require_valid(system)
    rule = system.rule("dup")
    assert match(rule, node) is not None
    assert [u.rule for u in find_redexes(node, system, 3)] == [rule]
    dead = weakref.ref(rule)
    gc.disable()
    try:
        del system, rule
        assert dead() is None
    finally:
        gc.enable()
    assert match(parse_system(SYSTEM_TEXT).rule("dup"), node) is not None


def test_a_match_memo_drops_the_keys_of_dead_rules():
    """A node held while system after system is parsed, matched at it and
    dropped keeps one memo entry, not one per dead rule."""
    node = parse_term("dup(c1(k))")
    for _ in range(1000):
        system = parse_system("rule dup: dup(Z) -> c2(Z, Z) ;")
        assert match(system.rule("dup"), node) is not None
        del system
    assert len(match_memo(node)) <= 1


def interned():
    return {(cls, key) for cls in (Var, Abs, Sym, MetaApp, Rec, RecVar)
            for key in cls._table}


def test_the_intern_tables_stay_flat():
    """With the collector off, dropping a system, its terms and what was
    done with them returns the intern tables to what they held before."""
    gc.collect()
    gc.disable()
    try:
        before = interned()
        system = parse_system(SYSTEM_TEXT)
        term = parse_term("c2(ap(lm([x] dup(x)), flat), rec R. c2(dup(flat), R))")
        us = find_redexes(term, system, 3)
        dev = complete_development(term, us, system)
        has_finite_jumps(term, ALL_REDEXES, system)
        PathSpace(term, us, system).enumerate(budget=30)
        epsilon_step(frozenset({()}), dev)
        normalize(term, system, FAIR, 4, 100)
        assert len(interned() - before) >= 10
        del system, term, us, dev
        assert not interned() - before
    finally:
        gc.enable()


def test_the_intern_tables_stay_flat_over_repeated_runs():
    """With the collector off, run after run of each strategy leaves the
    intern tables as they were before the first."""
    gc.collect()
    gc.disable()
    try:
        before = interned()
        for _ in range(3):
            system = parse_system(SYSTEM_TEXT)
            term = parse_term("c2(ap(lm([x] dup(x)), flat), rec R. c2(dup(flat), R))")
            for kind in (FAIR, OUTERMOST_FAIR, NEEDED_FAIR):
                normalize(term, system, kind, 4, 100)
            assert len(interned() - before) >= 10
            del system, term
            assert not interned() - before
    finally:
        gc.enable()


def test_require_valid_checks_a_system_once(monkeypatch):
    """A valid system is checked the first time only; an equal system
    object is checked on its own; an invalid one is checked, and raises,
    every time."""
    checked = []
    check = systems.check_system
    monkeypatch.setattr(systems, "check_system",
                        lambda s: checked.append(s) or check(s))
    valid = parse_system(SYSTEM_TEXT)
    for _ in range(3):
        assert require_valid(valid) is valid
    assert checked == [valid]
    twin = parse_system(SYSTEM_TEXT)
    require_valid(twin)
    require_valid(twin)
    assert len(checked) == 2 and checked[1] is twin
    overlapping = parse_system("rule a: f(g(Z)) -> Z ; rule b: g(Z) -> Z ;")
    for k in range(3):
        with pytest.raises(SystemCheckFailed):
            require_valid(overlapping)
        assert len(checked) == 3 + k
