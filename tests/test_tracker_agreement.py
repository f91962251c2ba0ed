"""The fairness tracker keeps the Redex of every member of an open
obligation, taken from the scan or from the residual map of the step, and
never matches it again.  The stored redexes agree with the route they
replaced: after every observed term and step, each equals the rule matched
from the root of the current term at the member's position."""

import pathlib
import random

import pytest

from icrs import (
    FAIR, NEEDED_FAIR, OUTERMOST_FAIR, Redex, match, normalize, parse_system,
    parse_term,
)
from icrs import strategies
from icrs.errors import EngineError

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

KINDS = {
    "fair": FAIR,
    "outermost-fair": OUTERMOST_FAIR,
    "needed-fair": NEEDED_FAIR,
}


def fixpoint_text():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


# the benchmark's normalize inputs, at depths that keep needed-fair quick
CORPUS_INPUTS = [
    ("spine_growth.crs", "f(a, c)", 6, 3),
    ("outermost_pair.crs", "f(a)", 6, 3),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))", 6, 3),
    ("lambda_beta.crs", None, 4, 1),
]


class CheckedTracker(strategies.FairnessTracker):
    members_checked = 0

    def observe_term(self, index, term, redexes=None):
        super().observe_term(index, term, redexes)
        self.check(term)

    def observe_step(self, index, term, step):
        super().observe_step(index, term, step)
        self.check(step.target)

    def check(self, term):
        for ob in self.obligations:
            if not ob.open:
                continue
            for p, rn in ob.members:
                rule = self.system.rule(rn)
                v = match(rule, term, p)
                assert v is not None, (p, rn)
                assert self.tracked[(p, rn)] == Redex(p, rule, v)
                CheckedTracker.members_checked += 1


@pytest.fixture
def checked(monkeypatch):
    monkeypatch.setattr(strategies, "FairnessTracker", CheckedTracker)
    CheckedTracker.members_checked = 0
    yield CheckedTracker


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("system_file,term,depth,needed_depth", CORPUS_INPUTS)
def test_corpus_inputs(checked, kind, system_file, term, depth, needed_depth):
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_text())
    goal = needed_depth if kind == "needed-fair" else depth
    _, trace = normalize(t, system, KINDS[kind], goal, 2000)
    assert trace.steps
    assert checked.members_checked > 0


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_systems(checked, kind):
    rng = random.Random(5150)
    runs = 0
    for _ in range(40):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        try:
            _, trace = normalize(term, system, KINDS[kind], rng.randint(1, 3), 60)
        except EngineError:
            continue
        runs += bool(trace.steps)
    assert runs >= 10
    assert checked.members_checked > 100
