"""The needed-fair predicate, which the fairness audit of a needed-fair
trace replays, serves the essential set of every term from the live pilot.
A term on the pilot's trace reads the pilot's suffix from there; a term off
it runs outermost-fair until it joins the trace and splices the new steps
onto the pilot's steps from the join.  The route both replaced, a fresh
pilot for every term, is the reference here: for every term the audit of a
needed-fair run consults, the served set must equal the fresh pilot's.

No difference is known.  A fresh pilot ages its obligations afresh and
could take other steps than the suffix or the splice; by the neededness
correspondence all of them report the needed positions, and on these inputs
they agree exactly."""

import pathlib
import random

import pytest

from icrs import FAIR, NEEDED_FAIR, fairness_audit, normalize, parse_system, parse_term
from icrs import strategies
from icrs.errors import EngineError
from icrs.strategies import Pilot
from icrs.strategies import needed_pilot  # the reference, never counted

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

RANDOM_SYSTEMS = 200

# the inputs of the benchmark's needed workload, at its depths
NEEDED_INPUTS = [
    ("spine_growth.crs", "f(a, c)", (3, 4, 5, 6)),
    ("outermost_pair.crs", "f(a)", (3, 4, 6, 8)),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))", (3, 4, 6)),
    ("lambda_beta.crs", None, (1, 8)),
]


def fixpoint_term():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


def outcome(fn):
    try:
        return fn()
    except EngineError as e:
        return type(e)


def audited(term, system, depth, fuel, kind=NEEDED_FAIR):
    """Normalise with the kind's strategy and audit the trace against
    needed-fair, which asks the predicate about every term of the trace;
    the approximant.  A fair trace leaves the pilot's trace more often
    than a needed-fair one, and so makes more splices."""
    approx, trace = normalize(term, system, kind, depth, fuel)
    fairness_audit(trace, NEEDED_FAIR)
    return approx


@pytest.fixture
def consulted(monkeypatch):
    """Every (predicate, term, answer) of the needed-fair predicates in the
    test, the number of fresh pilots (the runs' own among them) and of
    splices made, and the number of outermost-fair runs made so far and of
    those that tried to join a pilot's trace."""
    seen = []
    counts = {"pilots": 0, "splices": 0}
    runs = {"runs": 0, "joins": 0}
    answer = strategies._Predicate._needed_positions
    pilot = strategies.needed_pilot
    splice = strategies.Pilot.spliced
    reduce = strategies._reduce

    def reducing(term, system, kind, stable_bound, fuel, until=None, *rest,
                 **named):
        if kind.kind == "outermost-fair":
            runs["runs"] += 1
            runs["joins"] += until is not None
        return reduce(term, system, kind, stable_bound, fuel, until, *rest,
                      **named)

    def recording(self, term):
        out = answer(self, term)
        seen.append((self, term, out))
        return out

    def counting(*args):
        counts["pilots"] += 1
        return pilot(*args)

    def splicing(self, *args):
        out = splice(self, *args)
        counts["splices"] += out is not None
        return out

    monkeypatch.setattr(strategies._Predicate, "_needed_positions", recording)
    monkeypatch.setattr(strategies, "needed_pilot", counting)
    monkeypatch.setattr(strategies.Pilot, "spliced", splicing)
    monkeypatch.setattr(strategies, "_reduce", reducing)
    return seen, counts, runs


def differences(seen):
    """Terms whose served set differs from a fresh pilot's, and the number
    of distinct terms compared."""
    out = []
    compared = {}
    for pred, term, served in seen:
        if id(term) in compared:
            continue
        compared[id(term)] = term  # holding the term keeps its id
        fresh = outcome(lambda: needed_pilot(
            term, pred.system, pred.depth_goal, pred.fuel
        ).essential_start_positions())
        if fresh != served:
            out.append((term, served, fresh))
    return out, len(compared)


@pytest.mark.parametrize("system_file,term,depths", NEEDED_INPUTS)
def test_suffix_sets_match_fresh_pilots_on_needed_inputs(
        consulted, system_file, term, depths):
    seen, _, _ = consulted
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_term())
    for depth in depths:
        approx = audited(t, system, depth, 4000)
        assert approx.status != "fuel-exhausted"
    diffs, compared = differences(seen)
    assert diffs == []
    assert compared >= 2 * len(depths)


def test_suffix_sets_match_fresh_pilots_on_random_systems(consulted):
    seen, counts, reduced = consulted
    rng = random.Random(6)
    runs = 0
    for _ in range(RANDOM_SYSTEMS):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        rng.randint(3, 5)  # unused; drawn so the random systems stay put
        before = len(seen)
        outcome(lambda: audited(term, system, rng.randint(1, 3), 60, FAIR))
        runs += len(seen) > before
    # 1 of the 65 join runs stabilises before it joins and serves as a
    # fresh pilot
    assert reduced == {"runs": 212, "joins": 65}
    diffs, compared = differences(seen)
    assert diffs == []
    assert runs >= 120
    assert compared >= 300
    assert counts["splices"] >= 30


@pytest.mark.parametrize("system_file,term,depth", [
    ("spine_growth.crs", "f(a, c)", 6), ("lambda_beta.crs", None, 8)],
    ids=["spine", "fixpoint"])
def test_one_pilot_serves_each_audit(consulted, system_file, term, depth):
    """A needed-fair trace is the skeleton of an outermost-fair pilot, so
    the audit's own pilot, fresh from the first term, serves every term
    of it with no splice; on the fixpoint the pilot's inessential steps
    contract the looping redex, whose target is its source."""
    seen, counts, _ = consulted
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_term())
    approx, trace = normalize(t, system, NEEDED_FAIR, depth, 4000)
    assert approx.status == "approximant"
    assert counts == {"pilots": 1, "splices": 0}  # the run's own
    assert fairness_audit(trace, NEEDED_FAIR)
    assert len({id(t) for _, t, _ in seen}) == len(trace.terms)
    assert counts == {"pilots": 2, "splices": 0}


def test_splice_is_a_run_and_sweeps_as_a_fresh_pass(monkeypatch):
    """A spliced pilot's trace is a reduction from the term it was made
    for, and its sweep, which takes the old pilot's past the join, equals
    a pass over all of its steps."""
    splices = []
    splice = strategies.Pilot.spliced

    def keeping(self, term, fuel):
        out = splice(self, term, fuel)
        if out is not None:
            # the old pilot's sets stand for the last indices: the sweep
            # reads no prefix of their cuts (a collapsed cut's is read
            # later, by essential_start_positions)
            covered = len(out._swept) - len(out.tail)
            assert all(i < covered for i, _ in vars(out).get("_prefixes", ()))
            splices.append((term, out))
        return out

    monkeypatch.setattr(strategies.Pilot, "spliced", keeping)
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    audited(parse_term(fixpoint_term()), system, 4, 4000)
    rng = random.Random(8)
    for _ in range(120):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(3, 5))
        outcome(lambda: audited(term, system, 3, 60, FAIR))
    assert len(splices) >= 80
    assert sum(bool(p.tail) for _, p in splices) >= 60
    for term, pilot in splices:
        trace = pilot.trace
        assert trace.initial == term
        for i, step in enumerate(trace.steps):
            assert step.source == trace.terms[i]
            assert step.target == trace.terms[i + 1]
        swept = Pilot(trace, pilot.cuts)
        for i in range(len(trace.terms)):
            assert (pilot.essential_start_positions(i)
                    == swept.essential_start_positions(i))
