"""A needed-fair run takes its steps and redex scans from the pilot it
follows, and a splice starts from the scan its step derives from the
pilot's.  The routes they replaced are the reference: every step taken from
a pilot equals a fresh contraction of the selected redex, onto the very
same target, and every scan taken or derived equals a fresh `find_redexes`
at the same bound.  The counts of steps taken and of splices are pinned, so
the reuse cannot fall away unnoticed; they do not depend on the machine."""

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

# (input, depth) -> (steps, steps taken from the pilot, splices, splices
# started from the scan of the step that left the trace), on the depths of
# the benchmark's needed ladder and the fixpoint at depth 16
COUNTS = {
    ("spine", 3): (5, 5, 0, 0), ("spine", 4): (7, 7, 0, 0),
    ("spine", 5): (9, 9, 0, 0), ("spine", 6): (11, 11, 0, 0),
    ("pair", 3): (3, 3, 0, 0), ("pair", 4): (4, 4, 0, 0),
    ("pair", 6): (6, 6, 0, 0), ("pair", 8): (8, 8, 0, 0),
    ("map", 3): (4, 4, 0, 0), ("map", 4): (5, 5, 0, 0), ("map", 6): (7, 7, 0, 0),
    ("fixpoint", 1): (11, 5, 2, 2), ("fixpoint", 16): (71, 33, 28, 28),
}


def specs(redexes):
    return [(u.position, u.rule.name) for u in redexes]


@pytest.fixture
def checked(monkeypatch):
    """Check every step and scan a needed-fair run takes from a pilot, and
    the first scan of every splice, against the fresh route; count them."""
    counts = {"taken": 0, "splices": 0, "derived": 0}
    step = strategies._Predicate.step
    splice = strategies.Pilot.spliced
    reduce = strategies._reduce

    def stepping(self, term, redex, bound):
        rec, taken = step(self, term, redex, bound)
        if taken is not None:
            fresh = contract(term, redex)
            assert rec == fresh and rec.target is fresh.target
            assert specs(taken) == specs(find_redexes(rec.target, self.system, bound))
            counts["taken"] += 1
        return rec, taken

    def splicing(self, term, fuel, left=None):
        out = splice(self, term, fuel, left)
        if out is not None:
            counts["splices"] += 1
            counts["derived"] += left is not None
        return out

    def reducing(term, system, kind, stable_bound, fuel, until=None,
                 redexes=None, scans=None):
        if redexes is not None:
            bound = strategies._scan_bound(stable_bound)
            assert specs(redexes) == specs(find_redexes(term, system, bound))
        return reduce(term, system, kind, stable_bound, fuel, until, redexes, scans)

    monkeypatch.setattr(strategies._Predicate, "step", stepping)
    monkeypatch.setattr(strategies.Pilot, "spliced", splicing)
    monkeypatch.setattr(strategies, "_reduce", reducing)
    return counts


@pytest.mark.parametrize("name, depth", list(COUNTS))
def test_pilot_steps_and_scans_agree_with_fresh_ones(checked, name, depth):
    system_file, text = CORPUS_INPUTS[name]
    _, trace = normalize(parse_term(text), parse_system(corpus_text(system_file)),
                         NEEDED_FAIR, depth, 4000)
    steps, taken, splices, derived = COUNTS[name, depth]
    assert len(trace) == steps
    assert checked == {"taken": taken, "splices": splices, "derived": derived}


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
    assert checked["taken"] > 0 and checked["derived"] > 0


def test_pilot_scans_are_fresh_scans():
    """Every pilot, fresh or spliced, keeps one scan per trace term, equal to
    a fresh scan at the pilot's bound: past a join they are the old pilot's."""
    system = parse_system(corpus_text("lambda_beta.crs"))
    pred = strategies._Predicate(NEEDED_FAIR, system, 10, 600)
    bound = strategies._scan_bound(10 + max_lhs_depth(system))
    pilots = []
    term = parse_term(FIXPOINT)
    for _ in range(12):
        positions = pred._needed_positions(term)
        pilots.append(pred._pilot)
        u = min((u for u in find_redexes(term, system, bound)
                 if u.position in positions), key=lambda u: u.position)
        rec, _ = pred.step(term, u, bound)
        term = rec.target
    assert len({id(p) for p in pilots}) > 1
    for pilot in pilots:
        assert len(pilot.scans) == len(pilot.trace.terms)
        for t, scan in zip(pilot.trace.terms, pilot.scans):
            assert specs(scan) == specs(find_redexes(t, system, bound))


@pytest.mark.parametrize("depth", [16, 64])
def test_fixpoint_needed_fair_runs_pass_their_audit(depth):
    system = parse_system(corpus_text("lambda_beta.crs"))
    approx, trace = normalize(parse_term(FIXPOINT), system, NEEDED_FAIR, depth, 4000)
    assert approx.status == "approximant"
    assert fairness_audit(trace, NEEDED_FAIR)
