"""The needed-fair pilot's single backward sweep agrees with the route it
replaced: one epsilon sequence per stratum prefix, one stratum per depth,
replayed through `dev_sequence_of_steps`, unioned over the strata.  A
pilot reads each cut's prefix from one walk of its term.  Its epsilon steps are
redex-local, and agree with zeta over the whole-term path prefix set, in
sets and in path counts.  Also pins the fact the sweep relies on to skip the
finite-jumps check: a stage realised step by step always has the finite
jumps property.  A table of redex-local images changes no set of any
sweep, and each image and path space is computed once per table."""

import pathlib
import random
from bisect import bisect_left

import pytest

from icrs import (
    complete_development, dev_sequence_of_steps, epsilon_seq, epsilon_step,
    NEEDED_FAIR, fairness_audit, find_redexes, has_finite_jumps, needed_pilot, normalize,
    is_prefix_set, parse_system, parse_term, path_prefix_set,
    positions_to_depth, resolve, subterm_at, zeta,
)
from icrs import essential, strategies
from icrs.developments import DevRecord, PathSpace
from icrs.errors import EngineError, PreconditionViolated
from icrs.strategies import Pilot

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

RANDOM_PILOTS = 400
RANDOM_SEQUENCES = 300


def depth_strata(pilot):
    """(index, prefix) for every depth d up to the pilot's goal, as the
    pilot once made its strata: the index after which every step is at
    least d deep, and the positions of the term there above d."""
    floor = pilot.trace.depth_floor()
    out = []
    for d in range(1, pilot.cuts[-1][1] + 1):
        i = bisect_left(floor, d)
        out.append((i, frozenset(positions_to_depth(pilot.trace.terms[i], d - 1))))
    return out


def per_stratum_positions(pilot, strata):
    """The old route: an epsilon sequence per (index, prefix) stratum over a
    replay of the pilot's steps up to the index, unioned over the strata."""
    initial, system = pilot.trace.initial, pilot.trace.system
    specs = pilot.trace.step_specs()
    out = set()
    for i, prefix in strata:
        if not prefix:
            continue
        dev = dev_sequence_of_steps(initial, specs[:i], system)
        out |= epsilon_seq(prefix, dev)[0]
    return frozenset(out)


class GivenPrefix(Pilot):
    """A pilot whose cut at an index reads the union of the prefix sets
    given there, {index: [prefix set, ...]}, in place of the positions of
    the term above the cut's depth."""

    def __init__(self, trace, given, table=None):
        super().__init__(trace, tuple((i, k + 1) for k, i in enumerate(sorted(given))),
                         table=table)
        vars(self)["given"] = given

    def prefix(self, i, depth):
        return frozenset().union(*self.given[i])

    def strata(self):
        return [(i, prefix) for i, sets in self.given.items() for prefix in sets]


def random_given(rng, trace):
    """Three random prefix sets at random indices of the trace, some of them
    perhaps at one index."""
    given = {}
    for i in sorted(rng.randint(0, len(trace.steps)) for _ in range(3)):
        given.setdefault(i, []).append(genrand.random_prefix_set(rng, trace.terms[i]))
    return given


def outcome(fn):
    try:
        return fn()
    except EngineError as e:
        return type(e)


def fixpoint_term():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


class FirstPilot(Exception):
    pass


def pilot_depth(system, term, depth):
    """The depth of the pilots that needed-fair normalize makes at this goal
    depth, read off its first pilot, and at least the tests' own floor
    of 8."""

    def first(term, system, depth_goal, fuel):
        raise FirstPilot(depth_goal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "needed_pilot", first)
        try:
            normalize(term, system, NEEDED_FAIR, depth, 4000)
        except FirstPilot as e:
            return max(8, e.args[0])
    raise AssertionError("normalize made no pilot")


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
    goal = pilot_depth(system, t, depth)
    # the input and the next terms of its outermost-fair run
    first = needed_pilot(t, system, goal, 600)
    checked = 0
    for s in dict.fromkeys(first.trace.terms[:4]):
        pilot = needed_pilot(s, system, goal, 600)
        swept = pilot.essential_start_positions()
        assert swept == per_stratum_positions(pilot, depth_strata(pilot))
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
        random_strata = GivenPrefix(trace, random_given(rng, trace))
        for p, strata in ((pilot, depth_strata(pilot)),
                          (random_strata, random_strata.strata())):
            swept = outcome(p.essential_start_positions)
            assert swept == outcome(lambda: per_stratum_positions(p, strata)), term
        compared += 1
        with_steps += bool(trace.steps)
    assert compared >= 300
    assert with_steps >= 200


@pytest.mark.parametrize("system_file,term,depth",
                         NEEDED_INPUTS + [("lambda_beta.crs", None, 16)])
def test_a_run_walks_each_cut_term_once_per_pilot(monkeypatch, system_file,
                                                   term, depth):
    """A needed-fair run reads a cut's prefix at the cut, as its pilots
    sweep, and after it, as starts past it collapse onto it; each pilot
    walks the term at a cut index once, on the first read."""
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_term())
    walk, read = strategies.positions_to_depth, Pilot.prefix
    pilots, walks, reading = [], {}, []  # walks: (pilot, index) -> count

    def walking(u, d):
        walks[reading[-1]] += 1
        return walk(u, d)

    def prefix(self, i, d):
        pilots.append(self)  # alive, so no two pilots share an id
        reading.append((id(self), i))
        walks.setdefault(reading[-1], 0)
        try:
            return read(self, i, d)
        finally:
            reading.pop()

    monkeypatch.setattr(strategies, "positions_to_depth", walking)
    monkeypatch.setattr(Pilot, "prefix", prefix)
    normalize(t, system, NEEDED_FAIR, depth, 4000)
    monkeypatch.undo()
    assert walks and set(walks.values()) == {1}
    assert len(pilots) > len(walks)


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


# ---------------------------------------------------------------------------
# redex-local epsilon steps

RANDOM_STAGES = 400


def corpus_pilots():
    """The pilots of the needed inputs, and of the fixpoint at depth 16."""
    fixpoint = ("lambda_beta.crs", None, 16)
    for system_file, term, depth in NEEDED_INPUTS + [fixpoint]:
        system = parse_system((CORPUS / system_file).read_text())
        t = parse_term(term if term is not None else fixpoint_term())
        yield needed_pilot(t, system, pilot_depth(system, t, depth), 600)


def stage_of(step, system):
    return DevRecord(step.source, step.target, (step.redex,), (step,), system)


def whole_term(prefix, stage):
    """The route the local step replaced: zeta over the path prefix set of
    the whole term, and the number of its paths."""
    pps = path_prefix_set(prefix, stage)
    fed = set()
    for path in pps.paths:
        fed |= zeta(path)
    return frozenset(fed), len(pps)


def local_counts(prefix, stage):
    """Passed-through positions and paths walked from the redex node."""
    p = stage.steps[0].redex.position
    n = len(p)
    passed = sum(q[:n] != p for q in prefix)
    rel = frozenset(q[n:] for q in prefix if q[:n] == p)
    step, = stage.steps
    return passed, len(essential._redex_paths(rel, step, stage.system, {}))


def assert_local_agrees(prefix, stage):
    fed, count = whole_term(prefix, stage)
    assert epsilon_step(prefix, stage) == fed
    passed, local = local_counts(prefix, stage)
    assert passed + local == count
    return local


def test_local_steps_match_whole_term_on_corpus_pilots():
    stages = 0
    for pilot in corpus_pilots():
        swept, system = pilot._swept, pilot.trace.system
        for i in range(len(swept) - 1):
            stage = stage_of(pilot.trace.steps[i], system)
            # the set the sweep feeds the stage, and a full prefix set
            full = frozenset(positions_to_depth(stage.target, 5))
            for prefix in (swept[i + 1], full):
                assert_local_agrees(prefix, stage)
            stages += 1
    assert stages >= 150


def test_swept_sets_are_prefix_sets_of_their_terms():
    """The sweep's steps do not check the sets they are passed, so every
    set the sweep builds must be a prefix set of its trace term."""
    swept_sets = 0
    for pilot in corpus_pilots():
        swept = pilot._swept
        for i, prefix in enumerate(swept):
            assert is_prefix_set(prefix, pilot.trace.terms[i]), i
        swept_sets += len(swept)
    assert swept_sets >= 150


def test_collapsed_start_positions_match_a_fresh_walk():
    """Past an index where strata collapse, the start positions add the
    deepest collapsed stratum's prefix; the route it replaced walked the
    term at the start index instead."""
    collapsed_starts = 0
    for pilot in corpus_pilots():
        terms, swept = pilot.trace.terms, pilot._swept
        for start in range(len(terms)):
            depths = [d for i, d in pilot.cuts if i < start]
            want = swept[start] if start < len(swept) else frozenset()
            if depths:
                want = want | frozenset(
                    positions_to_depth(terms[start], max(depths) - 1))
                collapsed_starts += 1
            assert pilot.essential_start_positions(start) == want, start
    assert collapsed_starts >= 20


def test_local_steps_match_whole_term_on_random_stages():
    rng = random.Random(9)
    stages = walked = 0
    for _ in range(RANDOM_STAGES):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 5))
        redexes = find_redexes(term, system, 6)
        if not redexes:
            continue
        u = rng.choice(redexes)
        stage = outcome(lambda: complete_development(term, [u], system))
        if not isinstance(stage, DevRecord):
            continue
        target = stage.target
        for prefix in (genrand.random_prefix_set(rng, target, rng.randint(1, 5)),
                       frozenset(positions_to_depth(target, rng.randint(0, 6)))):
            local = outcome(lambda: assert_local_agrees(prefix, stage))
            if isinstance(local, int):
                walked += local > 0
            else:  # the whole-term route raised: the local one must too
                assert outcome(lambda: epsilon_step(prefix, stage)) is local
        stages += 1
    assert stages >= 300
    assert walked >= 300


def test_sweep_builds_term_nodes_only_below_the_contracted_redexes(monkeypatch):
    """A machine-independent work count: every term node a PathSpace builds
    during the fixpoint pilot's sweep is a node of the contracted redex's
    subterm, and there are fewer of them than the whole-term route builds."""
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    t = parse_term(fixpoint_term())
    pilot = needed_pilot(t, system, pilot_depth(system, t, 16), 600)
    steps, space_step, built = [], {}, []
    step_fn = strategies.local_epsilon_step
    init, settle = PathSpace.__init__, PathSpace._settle

    def stepping(prefix, step, system, table):
        steps.append(step)
        return step_fn(prefix, step, system, table)

    def initialising(self, term, redexes, system):
        space_step[self] = steps[-1]
        init(self, term, redexes, system)

    def settling(self, node):
        built.append((self, node))
        return settle(self, node)

    monkeypatch.setattr(strategies, "local_epsilon_step", stepping)
    monkeypatch.setattr(PathSpace, "__init__", initialising)
    monkeypatch.setattr(PathSpace, "_settle", settling)
    swept = pilot._swept
    monkeypatch.undo()
    assert len(steps) == len(swept) - 1 and built
    for space, node in built:
        step = space_step[space]
        assert space.root.sub is step.path[-1]
        q = step.redex.position + node.position
        assert node.sub is resolve(subterm_at(step.source, q))
    whole = []

    def counting(self, node):
        whole.append(node)
        return settle(self, node)

    monkeypatch.setattr(PathSpace, "_settle", counting)
    for i, step in enumerate(reversed(steps)):
        path_prefix_set(swept[i + 1], stage_of(step, system))
    monkeypatch.undo()
    assert len(built) < len(whole)


# ---------------------------------------------------------------------------
# the run's table of redex-local epsilon images

# the needed workload's ladder, and the fixpoint at depth 16
NEEDED_LADDER = [
    ("spine_growth.crs", "f(a, c)", (3, 4, 5, 6)),
    ("outermost_pair.crs", "f(a)", (3, 4, 6, 8)),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))", (3, 4, 6)),
    ("lambda_beta.crs", None, (1, 16)),
]


def table_free(prefix, step, system, table):
    """The full-enumeration route: zeta over the whole term's path prefix
    set, with no table."""
    return whole_term(prefix, stage_of(step, system))[0]


def table_free_sweep(pilot, tail=True):
    """The pilot's sweep with every local step made afresh."""
    if isinstance(pilot, GivenPrefix):
        fresh = GivenPrefix(pilot.trace, pilot.given)
    else:
        fresh = Pilot(pilot.trace, pilot.cuts, pilot.tail if tail else ())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "local_epsilon_step", table_free)
        return outcome(lambda: fresh._swept)


def audit_pilots(monkeypatch, term, system, depth):
    """The pilots from which the fairness audit of a needed-fair normalize
    run serves its terms, and the audit predicate's table."""
    pilots, tables = {}, {}
    answer = strategies._Predicate._needed_positions

    def recording(self, term):
        out = answer(self, term)
        pilots[id(self._pilot)] = self._pilot
        tables[id(self._table)] = self._table
        return out

    _, trace = normalize(term, system, NEEDED_FAIR, depth, 4000)
    monkeypatch.setattr(strategies._Predicate, "_needed_positions", recording)
    fairness_audit(trace, NEEDED_FAIR)
    monkeypatch.undo()
    table, = tables.values()
    return list(pilots.values()), table


@pytest.mark.parametrize("system_file,term,depths", NEEDED_LADDER)
def test_table_backed_sweeps_match_table_free_ones(monkeypatch, system_file,
                                                   term, depths):
    """Every pilot and splice of an audit sweeps on the audit predicate's
    one table; each set of its sweep is the set a sweep with no table
    gives, at every index, also when a splice sweeps the whole joined trace
    afresh."""
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_term())
    for depth in depths:
        pilots, table = audit_pilots(monkeypatch, t, system, depth)
        assert pilots and all(p.table is table for p in pilots)
        for pilot in pilots:
            swept = pilot._swept
            assert table_free_sweep(pilot) == swept, depth
            if pilot.tail:
                assert table_free_sweep(pilot, tail=False) == swept, depth


def test_table_backed_sweeps_match_on_random_pilots():
    """Table-backed sweeps equal table-free ones on the seeded pilots and
    random strata of `test_sweep_matches_per_stratum_on_random_pilots`,
    the random strata sweeping on their pilot's table."""
    rng = random.Random(4)
    compared = hits = 0  # hits: local steps that read an image from the table
    for _ in range(RANDOM_PILOTS):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        depth = rng.randint(2, 5)
        try:
            pilot = needed_pilot(term, system, depth, 200)
        except EngineError:
            continue
        trace = pilot.trace
        swept = outcome(lambda: pilot._swept)
        if isinstance(swept, tuple):
            reaching = sum(trace.steps[i].redex.position in swept[i + 1]
                           for i in range(len(swept) - 1))
            hits += reaching - sum(len(k) == 3 for k in pilot.table)
        assert swept == table_free_sweep(pilot), term
        # random strata on the same table
        random_strata = GivenPrefix(trace, random_given(rng, trace), pilot.table)
        swept = outcome(lambda: random_strata._swept)
        assert swept == table_free_sweep(random_strata), term
        compared += 1
    assert compared >= 300
    assert hits >= 100


def test_table_work_on_the_fixpoint_at_depth_16(monkeypatch):
    """A machine-independent work count for needed-fair normalize of the
    fixpoint at depth 16, which sweeps one pilot: of 136 local epsilon
    steps, 78 reach the contracted redex, over 26 distinct (redex node,
    rule, relative prefix) keys and 6 distinct (redex node, rule) pairs.
    One path space is built per pair and one enumeration made per key; a
    step whose prefix misses the redex builds and enumerates nothing."""
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    t = parse_term(fixpoint_term())
    keys, counts = [], {"spaces": 0, "enumerations": 0}
    step_fn = strategies.local_epsilon_step
    init, enumerate_ = PathSpace.__init__, PathSpace.enumerate

    def stepping(prefix, step, system, table):
        p = step.redex.position
        rel = frozenset(q[len(p):] for q in prefix if q[:len(p)] == p)
        keys.append((step.path[-1], step.redex.rule, rel))
        return step_fn(prefix, step, system, table)

    def initialising(self, *args):
        counts["spaces"] += 1
        init(self, *args)

    def enumerating(self, *args, **kwargs):
        counts["enumerations"] += 1
        return enumerate_(self, *args, **kwargs)

    monkeypatch.setattr(strategies, "local_epsilon_step", stepping)
    monkeypatch.setattr(PathSpace, "__init__", initialising)
    monkeypatch.setattr(PathSpace, "enumerate", enumerating)
    normalize(t, system, NEEDED_FAIR, 16, 4000)
    monkeypatch.undo()
    reaching = [k for k in keys if () in k[2]]
    assert (len(keys), len(reaching)) == (136, 78)
    assert counts["spaces"] == len({k[:2] for k in reaching}) == 6
    assert counts["enumerations"] == len(set(reaching)) == 26


def test_a_cut_enumeration_is_never_kept(monkeypatch):
    """A local step whose enumeration is cut short raises on every call
    and leaves no image in the table; once the enumeration completes, the
    image is the table-free one."""
    system = parse_system((CORPUS / "lambda_beta.crs").read_text())
    t = parse_term(fixpoint_term())
    pilot = needed_pilot(t, system, 8, 600)
    i = next(i for i, step in enumerate(pilot.trace.steps)
             if step.redex.position in pilot._swept[i + 1])
    step = pilot.trace.steps[i]
    prefix = pilot._swept[i + 1]
    enumerate_ = PathSpace.enumerate
    table = {}
    monkeypatch.setattr(PathSpace, "enumerate",
                        lambda self, **kw: enumerate_(self, budget=1, **kw))
    for _ in range(2):
        with pytest.raises(PreconditionViolated):
            essential.local_epsilon_step(prefix, step, system, table)
        assert all(len(k) == 2 for k in table)
    monkeypatch.undo()
    want = table_free(prefix, step, system, None)
    assert essential.local_epsilon_step(prefix, step, system, table) == want
    assert essential.local_epsilon_step(prefix, step, system, table) == want
    assert sum(len(k) == 3 for k in table) == 1
