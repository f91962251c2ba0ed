"""Needed-fair normalisation replays the essential skeleton of one
outermost-fair pilot.  The route it replaced, a fresh pilot asked about
every term the run meets, is the reference: every step the run keeps is at
a position essential for a fresh pilot from the term it is contracted in.
The run ends as outermost-fair does, makes one pilot on the corpus inputs,
and ends with the status and exit code the predicate-driven run gave at
low fuel."""

import contextlib
import io
import json
import random

import pytest

from conftest import CORPUS, corpus_text, parse_system
from genrand import random_system, random_term
from icrs import parse_term, strategies
from icrs.cli import main
from icrs.errors import EngineError
from icrs.strategies import (
    NEEDED_FAIR, OUTERMOST_FAIR, detect_rational_nf, normalize,
)
from icrs.systems import max_lhs_depth

FIXPOINT = " ".join(ln.strip() for ln in corpus_text("lambda_fixpoint.term").splitlines()
                    if ln.strip() and not ln.lstrip().startswith("#"))

CORPUS_INPUTS = {
    "spine": ("spine_growth.crs", "f(a, c)"),
    "pair": ("outermost_pair.crs", "f(a)"),
    "map": ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
    "fixpoint": ("lambda_beta.crs", FIXPOINT),
}

# the four inputs at depths 1-8, and the fixpoint at depth 16
LADDER = [(name, depth) for name in CORPUS_INPUTS for depth in range(1, 9)]
LADDER.append(("fixpoint", 16))


def corpus_input(name):
    system_file, text = CORPUS_INPUTS[name]
    return parse_system(corpus_text(system_file)), parse_term(text)


def pilot_goal(system, depth):
    """The goal of the pilots of a needed-fair run at this depth."""
    return strategies._scan_bound(depth + max_lhs_depth(system)) - 1


def inessential_kept(trace, goal):
    """The kept steps whose position is not essential for a fresh pilot
    from the step's source, at the run's pilot goal and fuel."""
    out = []
    for step in trace.steps:
        fresh = strategies.needed_pilot(step.source, trace.system, goal,
                                        trace.pilot_fuel)
        if step.redex.position not in fresh.essential_start_positions(0):
            out.append(step)
    return out


@pytest.mark.parametrize("name, depth", [(n, d) for n, d in LADDER if d in (1, 4, 8, 16)])
def test_kept_steps_are_essential_for_fresh_pilots(name, depth):
    system, term = corpus_input(name)
    _, trace = normalize(term, system, NEEDED_FAIR, depth, 4000)
    assert trace.steps
    assert inessential_kept(trace, pilot_goal(system, depth)) == []


def test_kept_steps_are_essential_on_seeded_systems():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        system = random_system(rng)
        term = random_term(rng, system, rng.randint(2, 5))
        depth = rng.randint(1, 4)
        try:
            _, trace = normalize(term, system, NEEDED_FAIR, depth, 80)
            kept = inessential_kept(trace, pilot_goal(system, depth))
        except EngineError:
            continue
        assert kept == []
        checked += len(trace.steps)
    assert checked >= 100


@pytest.mark.parametrize("name, depth", LADDER)
def test_needed_fair_ends_as_outermost_fair(name, depth):
    system, term = corpus_input(name)
    runs = [normalize(term, system, kind, depth, 4000)
            for kind in (NEEDED_FAIR, OUTERMOST_FAIR)]
    (needed, needed_trace), (outermost, outermost_trace) = runs
    assert (needed.term, needed.status, needed.stable_depth) == (
        outermost.term, outermost.status, outermost.stable_depth)
    assert detect_rational_nf(needed_trace) == detect_rational_nf(outermost_trace)
    assert needed_trace.ledger is None


def test_one_pilot_per_run(monkeypatch):
    """A machine-independent work count: every needed-fair run of the
    ladder replays the skeleton of one pilot, and keeps fewer steps than
    the pilot took."""
    pilots = []
    made = strategies.needed_pilot

    def counting(*args):
        pilots.append(made(*args))
        return pilots[-1]

    monkeypatch.setattr(strategies, "needed_pilot", counting)
    for name, depth in LADDER:
        system, term = corpus_input(name)
        del pilots[:]
        approx, trace = normalize(term, system, NEEDED_FAIR, depth, 4000)
        assert approx.status == "approximant"
        pilot, = pilots
        assert len(trace.steps) < len(pilot.trace.steps), (name, depth)


def test_a_replay_that_ends_early_is_followed_by_a_fresh_pilot(monkeypatch):
    """A pilot whose replay ends before the run is stable hands over to a
    fresh pilot from the term reached, which ends the run as one pilot
    does."""
    system, term = corpus_input("fixpoint")
    want, _ = normalize(term, system, NEEDED_FAIR, 8, 4000)
    replay = strategies._replay
    replays = []

    def first_three(pilot, redexes, bound, table):
        replays.append(pilot)
        for _, taken in zip(range(3), replay(pilot, redexes, bound, table)):
            yield taken

    monkeypatch.setattr(strategies, "_replay", first_three)
    approx, trace = normalize(term, system, NEEDED_FAIR, 8, 4000)
    assert approx == want
    assert len(replays) == -(-len(trace.steps) // 3)
    assert [p.trace.initial for p in replays] == trace.terms[::3][:len(replays)]


# (input, fuel) -> the statuses at depths 1-8, as the run that asked its
# predicate at every term gave them: a(pproximant), f(uel-exhausted) or
# d(ivergence-suspected)
LOW_FUEL = {
    ("spine", 1): "dddddddd", ("spine", 6): "aaafffff", ("spine", 20): "aaaaaaaa",
    ("pair", 1): "dddddddd", ("pair", 6): "aaaaafff", ("pair", 20): "aaaaaaaa",
    ("map", 1): "dddddddd", ("map", 6): "aaaaffff", ("map", 20): "aaaaaaaa",
    ("fixpoint", 1): "ffdddddd", ("fixpoint", 6): "ffffffff",
    ("fixpoint", 20): "aaafffff",
}
STATUS = {"a": ("approximant", 0), "f": ("fuel-exhausted", 4),
          "d": ("divergence-suspected", 3)}


@pytest.mark.parametrize("name, fuel", list(LOW_FUEL))
def test_low_fuel_status_and_exit_code(name, fuel):
    system_file, text = CORPUS_INPUTS[name]
    got = []
    for depth in range(1, 9):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["normalize", str(CORPUS / system_file), "--term", text,
                         "--strategy", "needed-fair", "--depth", str(depth),
                         "--fuel", str(fuel), "--json"])
        got.append((json.loads(out.getvalue())["status"], code))
    assert got == [STATUS[c] for c in LOW_FUEL[name, fuel]]
