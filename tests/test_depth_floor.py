"""The index after which every step of a trace is at least d deep has one
implementation: bisection on `Trace.depth_floor()`.  `normalize`'s
stability certificate and `needed_pilot`'s cut read it; both agree with
the loops they replaced, written out below.  A pilot keeps one cut, at its
goal, and its sweep holds every stratum prefix at the stratum's index."""

import pathlib
import random
from bisect import bisect_left

import pytest

from icrs import (
    FAIR, OUTERMOST_FAIR, needed_pilot, normalize, parse_system, parse_term,
    positions_to_depth,
)
from icrs.errors import EngineError

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

GOALS = (2, 4, 8)
RANDOM_SYSTEMS = 200


def fixpoint_text():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


CORPUS_INPUTS = [
    ("spine_growth.crs", "f(a, c)"),
    ("outermost_pair.crs", "f(a)"),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
    ("lambda_beta.crs", None),
]


def old_certificate(trace, depth_goal):
    """normalize's former forward loop."""
    certificate = 0
    for i, s in enumerate(trace.steps):
        if len(s.redex.position) < depth_goal:
            certificate = i + 1
    return certificate


def old_stratum_index(trace, d):
    """needed_pilot's former backward rescan."""
    depths = [len(s.redex.position) for s in trace.steps]
    for i in range(len(depths) - 1, -1, -1):
        if depths[i] < d:
            return i + 1
    return 0


def check_trace(trace, depths):
    floor = trace.depth_floor()
    assert floor == sorted(floor)
    for d in depths:
        assert bisect_left(floor, d) == old_stratum_index(trace, d)
        assert old_stratum_index(trace, d) == old_certificate(trace, d)
    return len(depths)


def check_cut(pilot, goal):
    """The cut is the goal's stratum index with the goal, and for every
    depth d up to the goal, the stratum of depth d, at the index after
    which every step is at least d deep, with the positions of the term
    there above d, lies in the sweep's set at that index."""
    trace = pilot.trace
    assert pilot.cut == (old_stratum_index(trace, goal), goal)
    for d in range(1, goal + 1):
        i = old_stratum_index(trace, d)
        prefix = frozenset(positions_to_depth(trace.terms[i], d - 1))
        assert all(len(p) < d for p in prefix)
        assert prefix <= pilot.essential_start_positions(i)
    return goal


def check_run(term, system, goal, fuel):
    """Certificates of fair and outermost-fair runs and the cut of the
    pilot; the number of indices compared."""
    checked = 0
    for kind in (FAIR, OUTERMOST_FAIR):
        approx, trace = normalize(term, system, kind, goal, fuel)
        if approx.status in ("normal-form", "approximant"):
            assert approx.certificate == old_certificate(trace, goal)
            checked += 1
        checked += check_trace(trace, range(1, goal + 3))
    return checked + check_cut(needed_pilot(term, system, goal, fuel), goal)


@pytest.mark.parametrize("system_file,term", CORPUS_INPUTS)
def test_corpus_runs(system_file, term):
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_text())
    assert sum(check_run(t, system, goal, 4000) for goal in GOALS) > 0


def test_random_systems():
    rng = random.Random(12)
    checked = runs = 0
    for _ in range(RANDOM_SYSTEMS):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        goal = rng.randint(2, 5)
        try:
            checked += check_run(term, system, goal, 200)
        except EngineError:
            continue
        runs += 1
    assert runs >= 100
    assert checked >= 1000
