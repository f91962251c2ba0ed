"""A needed-fair run replays the essential steps of its pilot.  While the
replay is on the pilot's trace it takes the pilot's steps and the pilot's
redex scans; off the trace it contracts and derives the target's redexes
from the source's.  The routes they replaced are the reference: every step
the replay yields equals a fresh contraction of its redex, onto the very
same target, and every scan equals a fresh `find_redexes` at the same
bound.  The counts of steps taken from the pilot and of pilots made are
pinned, so the reuse cannot fall away unnoticed; they do not depend on the
machine."""

import random

import pytest

from conftest import corpus_text, parse_system
from genrand import random_system, random_term
from icrs import parse_term
from icrs import strategies
from icrs.errors import EngineError
from icrs.rewriting import contract, find_redexes
from icrs.strategies import NEEDED_FAIR, fairness_audit, normalize
from icrs.systems import max_lhs_depth

FIXPOINT = " ".join(ln.strip() for ln in corpus_text("lambda_fixpoint.term").splitlines()
                    if ln.strip() and not ln.lstrip().startswith("#"))

CORPUS_INPUTS = {
    "spine": ("spine_growth.crs", "f(a, c)"),
    "pair": ("outermost_pair.crs", "f(a)"),
    "map": ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
    "fixpoint": ("lambda_beta.crs", FIXPOINT),
}

# (input, depth) -> (steps, steps taken from the pilot, pilots), on the
# depths of the benchmark's needed ladder and the fixpoint at depth 16
COUNTS = {
    ("spine", 3): (5, 5, 1), ("spine", 4): (7, 7, 1),
    ("spine", 5): (9, 9, 1), ("spine", 6): (11, 11, 1),
    ("pair", 3): (3, 3, 1), ("pair", 4): (4, 4, 1),
    ("pair", 6): (6, 6, 1), ("pair", 8): (8, 8, 1),
    ("map", 3): (4, 4, 1), ("map", 4): (5, 5, 1), ("map", 6): (7, 7, 1),
    ("fixpoint", 1): (10, 10, 1), ("fixpoint", 16): (70, 70, 1),
}


def specs(redexes):
    return [(u.position, u.rule.name) for u in redexes]


@pytest.fixture
def checked(monkeypatch):
    """Check every step and scan a needed-fair run's replay yields against
    the fresh route; count the steps taken from the pilot, those contracted
    off its trace, and the pilots replayed."""
    counts = {"taken": 0, "contracted": 0, "pilots": 0}
    replay = strategies._replay

    def replaying(pilot, redexes, bound, table):
        counts["pilots"] += 1
        own = {id(step) for step in pilot.trace.steps}
        system = pilot.trace.system
        for rec, scan in replay(pilot, redexes, bound, table):
            fresh = contract(rec.source, rec.redex)
            assert rec == fresh and rec.target is fresh.target
            assert specs(scan) == specs(find_redexes(rec.target, system, bound))
            counts["taken" if id(rec) in own else "contracted"] += 1
            yield rec, scan

    monkeypatch.setattr(strategies, "_replay", replaying)
    return counts


@pytest.mark.parametrize("name, depth", list(COUNTS))
def test_pilot_steps_and_scans_agree_with_fresh_ones(checked, name, depth):
    system_file, text = CORPUS_INPUTS[name]
    _, trace = normalize(parse_term(text), parse_system(corpus_text(system_file)),
                         NEEDED_FAIR, depth, 4000)
    steps, taken, pilots = COUNTS[name, depth]
    assert len(trace) == steps
    assert checked == {"taken": taken, "contracted": steps - taken,
                       "pilots": pilots}


@pytest.mark.parametrize("seed", range(3))
def test_pilot_steps_and_scans_agree_on_seeded_systems(checked, seed):
    rng = random.Random(seed)
    for _ in range(40):
        system = random_system(rng)
        term = random_term(rng, system, rng.randint(2, 5))
        try:
            normalize(term, system, NEEDED_FAIR, rng.randint(1, 4), 80)
        except EngineError:
            pass
    assert checked["taken"] > 0 and checked["contracted"] > 0


def test_pilot_scans_are_fresh_scans(monkeypatch):
    """A fresh pilot keeps one scan per trace term, equal to a fresh scan
    at the pilot's bound."""
    pilots = []
    made = strategies.needed_pilot

    def keeping(term, system, depth_goal, fuel):
        pilots.append(made(term, system, depth_goal, fuel))
        return pilots[-1]

    monkeypatch.setattr(strategies, "needed_pilot", keeping)
    system = parse_system(corpus_text("lambda_beta.crs"))
    normalize(parse_term(FIXPOINT), system, NEEDED_FAIR, 8, 4000)
    pilot, = pilots
    goal = pilot.cuts[-1][1]
    bound = strategies._scan_bound(goal + max_lhs_depth(system))
    assert len(pilot.scans) == len(pilot.trace.terms)
    for t, scan in zip(pilot.trace.terms, pilot.scans):
        assert specs(scan) == specs(find_redexes(t, system, bound))


@pytest.mark.parametrize("depth", [16, 64, 96])
def test_fixpoint_needed_fair_runs_pass_their_audit(depth):
    system = parse_system(corpus_text("lambda_beta.crs"))
    approx, trace = normalize(parse_term(FIXPOINT), system, NEEDED_FAIR, depth, 4000)
    assert approx.status == "approximant"
    assert fairness_audit(trace, NEEDED_FAIR)
