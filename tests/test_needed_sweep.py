"""The needed-fair pilot's single backward sweep agrees with the route it
replaced: one epsilon sequence per stratum prefix, replayed through
`dev_sequence_of_steps`, unioned over the strata.  Also pins the fact the
sweep relies on to skip the finite-jumps check: a stage realised step by
step always has the finite jumps property."""

import pathlib
import random

import pytest

from icrs import (
    dev_sequence_of_steps, epsilon_seq, has_finite_jumps, needed_fair,
    needed_pilot, parse_system, parse_term,
)
from icrs.errors import EngineError
from icrs.strategies import Pilot, Stratum
from icrs.systems import max_lhs_depth

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

RANDOM_PILOTS = 400
RANDOM_SEQUENCES = 300


def per_stratum_positions(pilot):
    """The old route: an epsilon sequence per stratum over a replay of the
    pilot's steps up to the stratum index."""
    initial, system = pilot.trace.initial, pilot.trace.system
    specs = pilot.trace.step_specs()
    out = set()
    for st in pilot.strata:
        if not st.prefix:
            continue
        dev = dev_sequence_of_steps(initial, specs[: st.index], system)
        out |= epsilon_seq(st.prefix, dev)[0]
    return frozenset(out)


def outcome(fn):
    try:
        return fn()
    except EngineError as e:
        return type(e)


def fixpoint_term():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


# the inputs of the benchmark's needed workload, at its smallest depths
NEEDED_INPUTS = [
    ("spine_growth.crs", "f(a, c)", 3),
    ("outermost_pair.crs", "f(a)", 3),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))", 3),
    ("lambda_beta.crs", None, 1),
]


@pytest.mark.parametrize("system_file,term,depth", NEEDED_INPUTS)
def test_sweep_matches_per_stratum_on_needed_inputs(system_file, term, depth):
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_term())
    # the pilot depth normalize uses for needed-fair at this goal depth
    pilot_depth = max(needed_fair().pilot_depth,
                      depth + max_lhs_depth(system) + 1)
    # the input and the next terms of its outermost-fair run
    first = needed_pilot(t, system, pilot_depth, 600)
    checked = 0
    for s in dict.fromkeys(first.trace.terms[:4]):
        pilot = needed_pilot(s, system, pilot_depth, 600)
        swept = pilot.essential_start_positions()
        assert swept == per_stratum_positions(pilot)
        checked += bool(pilot.trace.steps)
    assert checked


def test_sweep_matches_per_stratum_on_random_pilots():
    rng = random.Random(4)
    compared = with_steps = 0
    for _ in range(RANDOM_PILOTS):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        depth = rng.randint(2, 5)
        try:
            pilot = needed_pilot(term, system, depth, 200)
        except EngineError:
            continue
        # the pilot's own strata nest; random strata test the union law
        # itself, with prefixes the deepest stratum does not cover
        trace = pilot.trace
        picked = sorted(rng.randint(0, len(trace.steps)) for _ in range(3))
        random_strata = Pilot(trace, tuple(
            Stratum(k + 1, i, trace.terms[i],
                    genrand.random_prefix_set(rng, trace.terms[i]))
            for k, i in enumerate(picked)))
        for p in (pilot, random_strata):
            swept = outcome(p.essential_start_positions)
            assert swept == outcome(lambda: per_stratum_positions(p)), term
        compared += 1
        with_steps += bool(trace.steps)
    assert compared >= 300
    assert with_steps >= 200


def test_realised_stages_have_finite_jumps():
    rng = random.Random(5)
    stages = 0
    for _ in range(RANDOM_SEQUENCES):
        system = genrand.random_system(rng)
        seq = genrand.random_dev_sequence(rng, system)
        for st in seq.stages:
            assert st.steps is not None
            assert has_finite_jumps(st.source, st.redexes, system)
            stages += 1
    assert stages >= RANDOM_SEQUENCES
