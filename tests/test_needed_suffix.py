"""Needed-fair serves the essential set of every term on a pilot's trace
from that one pilot's suffix.  The route it replaced, a fresh pilot for
every term the run meets, is the reference here: for every term a
needed-fair run consults, the suffix set must equal the fresh pilot's.

No difference is known.  A fresh pilot ages its obligations afresh and
could take other steps than the suffix; by the neededness correspondence
both report the needed positions, and on these inputs they agree exactly."""

import pathlib
import random

import pytest

from icrs import needed_fair, normalize, parse_system, parse_term
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
    ("lambda_beta.crs", None, (1,)),
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


@pytest.fixture
def consulted(monkeypatch):
    """Every (predicate, term, answer) of the needed-fair runs in the test,
    and the number of pilots they started."""
    seen = []
    pilots = [0]
    answer = strategies._Predicate._needed_positions
    pilot = strategies.needed_pilot

    def recording(self, term):
        out = answer(self, term)
        seen.append((self, term, out))
        return out

    def counting(*args):
        pilots[0] += 1
        return pilot(*args)

    monkeypatch.setattr(strategies._Predicate, "_needed_positions", recording)
    monkeypatch.setattr(strategies, "needed_pilot", counting)
    return seen, pilots


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
            term, pred.system, pred.kind.pilot_depth, pred.kind.pilot_fuel
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
        approx, _ = normalize(t, system, needed_fair(), depth, 4000)
        assert approx.status != "fuel-exhausted"
    diffs, compared = differences(seen)
    assert diffs == []
    assert compared >= 2 * len(depths)


def test_suffix_sets_match_fresh_pilots_on_random_systems(consulted):
    seen, _ = consulted
    rng = random.Random(6)
    runs = 0
    for _ in range(RANDOM_SYSTEMS):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        kind = needed_fair(rng.randint(3, 5), 200)
        before = len(seen)
        outcome(lambda: normalize(term, system, kind, rng.randint(1, 3), 60))
        runs += len(seen) > before
    diffs, compared = differences(seen)
    assert diffs == []
    assert runs >= 120
    assert compared >= 300


def test_one_pilot_serves_the_spine_run(consulted, spine_system):
    seen, pilots = consulted
    approx, trace = normalize(parse_term("f(a, c)"), spine_system,
                              needed_fair(), 6, 4000)
    assert approx.status == "approximant"
    assert len({id(t) for _, t, _ in seen}) >= len(trace.steps)
    assert pilots[0] <= 2
