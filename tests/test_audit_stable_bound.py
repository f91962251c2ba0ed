"""A run that ended stable certifies only the prefix above its stable bound
(depth goal plus the largest lhs depth), and leaves the redexes at or below
it for a continuation.  The fairness audit treats an obligation whose
members all lie there as inconclusive, as it treats one younger than its
window; runs out of fuel and scripted traces are audited as before."""

import random

import pytest

from icrs import (
    FAIR, NEEDED_FAIR, OUTERMOST_FAIR, fairness_audit, normalize, parse_term,
    trace_of,
)
from icrs.errors import EngineError
from icrs.strategies import Trace
from icrs.systems import max_lhs_depth

import genrand

KINDS = (FAIR, OUTERMOST_FAIR, NEEDED_FAIR)


def seeded_runs(kind):
    """Seeds 0-2, fifteen systems each, a term of depth 3 per system, run
    at depths 1-4 on 80 steps of fuel."""
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(15):
            system = genrand.random_system(rng)
            term = genrand.random_term(rng, system, 3)
            for depth in range(1, 5):
                try:
                    approx, trace = normalize(term, system, kind, depth, 80)
                except EngineError:
                    continue
                yield depth, approx, trace


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
def test_stable_runs_pass_their_audit(kind):
    runs = below_bound = 0
    for depth, approx, trace in seeded_runs(kind):
        runs += 1
        stable = approx.status in ("normal-form", "approximant")
        assert trace.stable_bound == (
            depth + max_lhs_depth(trace.system) if stable else None)
        assert fairness_audit(trace, kind), (depth, approx.status)
        if stable and not fairness_audit(
                Trace(trace.system, trace.label, trace.terms, trace.steps,
                      pilot_fuel=trace.pilot_fuel), kind):
            below_bound += 1  # passes only by the bound
    assert runs >= 150 and below_bound >= 10


@pytest.mark.parametrize("bound", [1, 4])
def test_an_unserved_obligation_above_the_bound_fails(pair_system, bound):
    """The root redex is starved while the inner one is contracted ever
    deeper: its obligation lies above any positive stable bound."""
    steps = [((1,) + (1,) * k, "inner") for k in range(10)]
    starved = trace_of(parse_term("f(a)"), steps, pair_system)
    trace = Trace(pair_system, OUTERMOST_FAIR.kind, starved.terms,
                  starved.steps, stable_bound=bound)
    verdict = fairness_audit(trace, OUTERMOST_FAIR)
    assert not verdict
    assert verdict.witness.members == frozenset({((), "outer")})
    # at or below the bound the same obligation is inconclusive
    assert fairness_audit(Trace(pair_system, OUTERMOST_FAIR.kind, starved.terms,
                                starved.steps, stable_bound=0), OUTERMOST_FAIR)


def test_runs_out_of_fuel_record_no_bound(spine_system):
    for kind in KINDS:
        approx, trace = normalize(parse_term("f(a, c)"), spine_system, kind, 6, 5)
        assert approx.status == "fuel-exhausted"
        assert trace.stable_bound is None
