"""A run computes the redex-local part of a step once per (redex node,
rule): the contractum, its redex scan and the descendant images below the
redex live in a `Contraction` that every step contracting the pair shares.
The shared records agree with the route they replaced, a fresh record per
step (`contract` given no table), and the contractum is instantiated once
per pair in a run."""

import pathlib
import random
import sys

import pytest

from icrs import (
    FAIR, NEEDED_FAIR, OUTERMOST_FAIR, contract, find_redexes, normalize,
    parse_system, parse_term, rewriting,
)
from icrs import strategies
from icrs.errors import EngineError
from icrs.rewriting import cut_scan
from icrs.systems import max_lhs_depth

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"
KINDS = (FAIR, OUTERMOST_FAIR, NEEDED_FAIR)


def fixpoint_text():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


# the benchmark's normalize inputs and their depths
LADDER = [
    ("spine_growth.crs", "f(a, c)", range(1, 9)),
    ("outermost_pair.crs", "f(a)", range(1, 9)),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))", range(1, 9)),
    ("lambda_beta.crs", None, [*range(1, 9), 16]),
]


def agree_with_fresh_records(term, system, kind, depth, fuel):
    """Normalise, then check every step of the run against the step made
    again with a record of its own: the target, the target's redexes at the
    run's scan bound, and the descendant and residual maps of every member
    a fair tracker holds.  Returns the number of members compared."""
    _, trace = normalize(term, system, kind, depth, fuel)
    bound = strategies._scan_bound(depth + max_lhs_depth(system))
    tracker = strategies.FairnessTracker(FAIR, system, bound, trace.pilot_fuel)
    scan = find_redexes(term, system, bound)
    compared = 0
    for i, step in enumerate(trace.steps):
        tracker.observe_term(i, step.source, scan)
        fresh = contract(step.source, step.redex)
        assert fresh.local is not step.local
        assert fresh.target is step.target and fresh == step
        members = [tracker.tracked[m]
                   for m in sorted({m for ob in tracker.live for m in ob.members})]
        positions = [u.position for u in members]
        assert step.descendant_map(positions) == fresh.descendant_map(positions)
        assert step.residual_map(members) == fresh.residual_map(members)
        compared += len(members)
        target_scan = step.target_redexes(scan, system, bound)
        assert target_scan == fresh.target_redexes(scan, system, bound)
        assert target_scan == find_redexes(step.target, system, bound)
        tracker.observe_step(i, step.source, step)
        scan = target_scan
    return compared


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
@pytest.mark.parametrize("system_file, text, depths", LADDER,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_shared_records_agree_on_the_corpus_ladder(kind, system_file, text, depths):
    system = parse_system((CORPUS / system_file).read_text())
    term = parse_term(text if text is not None else fixpoint_text())
    assert sum(agree_with_fresh_records(term, system, kind, d, 4000)
               for d in depths) > 0


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
def test_shared_records_agree_on_seeded_systems(kind):
    rng = random.Random(2718)
    runs = compared = 0
    for _ in range(30):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        try:
            compared += agree_with_fresh_records(term, system, kind,
                                                 rng.randint(1, 3), 60)
        except EngineError:
            continue
        runs += 1
    assert runs >= 15 and compared > 50


@pytest.fixture
def instantiations(monkeypatch):
    """The number of contracta `contract` instantiates."""
    count = [0]
    apply_valuation = rewriting.apply_valuation

    def counted(valuation, metaterm):
        if sys._getframe(1).f_code.co_name == "contract":
            count[0] += 1
        return apply_valuation(valuation, metaterm)

    monkeypatch.setattr(rewriting, "apply_valuation", counted)
    return count


@pytest.mark.parametrize("kind, depth, calls, steps", [
    (FAIR, 16, 17, 100), (FAIR, 64, 17, 340), (OUTERMOST_FAIR, 16, 7, 122)],
    ids=["fair-16", "fair-64", "outermost-fair-16"])
def test_each_pair_is_instantiated_once_per_run(instantiations, kind, depth,
                                                calls, steps):
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    _, trace = normalize(parse_term(fixpoint_text()), system, kind, depth, 4000)
    assert len(trace.steps) == steps
    assert instantiations[0] == calls
    pairs = {(s.path[-1], s.redex.rule) for s in trace.steps}
    assert len({id(s.local) for s in trace.steps}) == len(pairs) == calls
    # a second run makes records of its own
    normalize(parse_term(fixpoint_text()), system, kind, depth, 4000)
    assert instantiations[0] == 2 * calls


def test_contract_without_a_table_makes_a_fresh_record(instantiations):
    system = parse_system((CORPUS / "spine_growth.crs").read_text())
    term = parse_term("g(a, a)")
    u, w = find_redexes(term, system, 3)
    first, second = contract(term, u), contract(term, u)
    assert first.local is not second.local and instantiations[0] == 2
    # the two redexes are one node: the second step reuses the first's record
    table = {}
    shared = contract(term, u, table)
    again = contract(shared.target, w, table)
    assert again.local is shared.local and instantiations[0] == 3
    assert list(table) == [(shared.path[-1], u.rule)]


def test_cut_scan_keeps_the_redexes_above_the_bound():
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    scan = find_redexes(parse_term(fixpoint_text()), system, 12)
    assert scan
    for bound in range(-1, 14):
        assert cut_scan(scan, bound) == [u for u in scan if u.depth < bound]
