"""The needed-fair predicate, which the fairness audit of a needed-fair
trace replays, serves the essential set of every term on the live pilot's
trace from the pilot's suffix there; a term off the trace gets a fresh
pilot.  A fresh pilot for every term is the reference here: for every term
the audit consults, the served set must equal the fresh pilot's.

No difference is known.  A fresh pilot ages its obligations afresh and
could take other steps than the suffix; by the neededness correspondence
both report the needed positions, and on these inputs they agree
exactly."""

import pathlib
import random

import pytest

from icrs import FAIR, NEEDED_FAIR, fairness_audit, normalize, parse_system, parse_term
from icrs import strategies
from icrs.errors import EngineError
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
    than a needed-fair one, and so makes more pilots."""
    approx, trace = normalize(term, system, kind, depth, fuel)
    fairness_audit(trace, NEEDED_FAIR)
    return approx


@pytest.fixture
def consulted(monkeypatch):
    """Every (predicate, term, answer) of the needed-fair predicates in the
    test, and the number of pilots made (the runs' own among them)."""
    seen = []
    counts = {"pilots": 0}
    answer = strategies._Predicate._needed_positions
    pilot = strategies.needed_pilot

    def recording(self, term):
        out = answer(self, term)
        seen.append((self, term, out))
        return out

    def counting(*args):
        counts["pilots"] += 1
        return pilot(*args)

    monkeypatch.setattr(strategies._Predicate, "_needed_positions", recording)
    monkeypatch.setattr(strategies, "needed_pilot", counting)
    return seen, counts


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
    seen, _ = consulted
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_term())
    for depth in depths:
        approx = audited(t, system, depth, 4000)
        assert approx.status != "fuel-exhausted"
    diffs, compared = differences(seen)
    assert diffs == []
    assert compared >= 2 * len(depths)


def test_suffix_sets_match_fresh_pilots_on_random_systems(consulted):
    seen, counts = consulted
    rng = random.Random(6)
    runs = 0
    for _ in range(RANDOM_SYSTEMS):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        rng.randint(3, 5)  # unused; drawn so the random systems stay put
        before = len(seen)
        outcome(lambda: audited(term, system, rng.randint(1, 3), 60, FAIR))
        runs += len(seen) > before
    assert counts == {"pilots": 212}
    diffs, compared = differences(seen)
    assert diffs == []
    assert runs >= 120
    assert compared >= 300


@pytest.mark.parametrize("system_file,term,depth", [
    ("spine_growth.crs", "f(a, c)", 6), ("lambda_beta.crs", None, 8)],
    ids=["spine", "fixpoint"])
def test_one_pilot_serves_each_audit(consulted, system_file, term, depth):
    """A needed-fair trace is the skeleton of an outermost-fair pilot, so
    the audit's own pilot, fresh from the first term, serves every term
    of it; on the fixpoint the pilot's inessential steps contract the
    looping redex, whose target is its source."""
    seen, counts = consulted
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_term())
    approx, trace = normalize(t, system, NEEDED_FAIR, depth, 4000)
    assert approx.status == "approximant"
    assert counts == {"pilots": 1}  # the run's own
    assert fairness_audit(trace, NEEDED_FAIR)
    assert len({id(t) for _, t, _ in seen}) == len(trace.terms)
    assert counts == {"pilots": 2}
