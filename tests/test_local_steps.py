"""Steps are local to the contracted position.  A contraction rebuilds only
the path down to it, residuals and descendants are replayed inside the
redex subterm only, and the redex set of the target is built from the
source's set, the ancestors and a scan of the contractum.  Each agrees with
the route it replaced after every step of fair, outermost-fair and
needed-fair runs; descendants also agree with the oracle."""

import pathlib
import random

import pytest

from icrs import (
    FAIR, NEEDED_FAIR, OUTERMOST_FAIR, MetaApp, Redex, Sym, Valuation,
    apply_valuation, contract, find_redexes, graft, match, normalize,
    parse_system, parse_term,
)
from icrs import rewriting, strategies
from icrs.errors import (
    DevelopmentExplosion, EngineError, InfiniteResultError, NotCycleRoot,
    PositionError, StaleRedex, TermError,
)
from icrs.oracle import brute_descendant_map
from icrs.rewriting import redex_at
from icrs.terms import iter_tagged, positions_to_depth, set_tag_at, unfold

import genrand

CORPUS = pathlib.Path(__file__).parent.parent / "src" / "icrs" / "corpus"

KINDS = {
    "fair": FAIR,
    "outermost-fair": OUTERMOST_FAIR,
    "needed-fair": NEEDED_FAIR,
}

PROBE_DEPTH = 3


def fixpoint_text():
    lines = (CORPUS / "lambda_fixpoint.term").read_text().splitlines()
    return " ".join(ln.strip() for ln in lines
                    if ln.strip() and not ln.lstrip().startswith("#"))


# the benchmark's four normalize inputs: (system, term, depth, needed depth)
CORPUS_INPUTS = [
    ("spine_growth.crs", "f(a, c)", 6, 3),
    ("outermost_pair.crs", "f(a)", 6, 3),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))", 6, 3),
    ("lambda_beta.crs", None, 4, 1),
]


def whole_term_residual_map(step, redexes):
    """The former route: label the positions in the whole source, contract
    it again, read the labels off the whole target and match every
    residual from the root."""
    positions = [u.position for u in redexes]
    tagged = step.source
    for i, p in enumerate(positions):
        tagged = set_tag_at(tagged, p, ("d", i))
    u = step.redex
    v = match(u.rule, tagged, u.position)
    found, complete = iter_tagged(
        graft(tagged, u.position, apply_valuation(v, u.rule.rhs)))
    if not complete:
        raise InfiniteResultError("a descendant lands inside a cycle")
    desc = {p: set() for p in positions}
    for q, tag in found:
        desc[positions[tag[1]]].add(q)
    out = {}
    for w in redexes:
        rs = []
        for q in sorted(desc[w.position]):
            v = match(w.rule, step.target, q)
            if v is None:
                raise StaleRedex(w.rule.name)
            rs.append(Redex(q, w.rule, v))
        out[w] = tuple(rs)
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InfiniteResultError, DevelopmentExplosion):
        return "cycle"


def check_step(step, system, bound, tracked=()):
    """One step against the routes it replaced: its redex set, residuals and
    descendants, its untagged target and its errors."""
    scan = find_redexes(step.source, system, bound)
    assert iter_tagged(step.target)[0] == []
    assert (step.target_redexes(scan, system, bound)
            == find_redexes(step.target, system, bound))
    redexes = list(dict.fromkeys(scan + list(tracked)))
    assert (outcome(step.residual_map, redexes)
            == outcome(whole_term_residual_map, step, redexes))
    probes = sorted(set(positions_to_depth(step.source, PROBE_DEPTH))
                    | {u.position for u in redexes})
    assert (outcome(step.descendant_map, probes)
            == outcome(brute_descendant_map, probes, [step]))
    for q in ((9,), step.redex.position + (9,)):
        with pytest.raises(PositionError):
            step.descendant_map([q])
    CheckedTracker.steps += 1


class CheckedTracker(strategies.FairnessTracker):
    """Checks the redex set normalize carries, each step it takes, and a
    step at the deepest redex of each term, which has ancestors."""
    scans = 0
    steps = 0

    def observe_term(self, index, term, redexes=None):
        if redexes is not None:
            assert redexes == find_redexes(term, self.system, self.spawn_bound)
            CheckedTracker.scans += 1
        super().observe_term(index, term, redexes)

    def observe_step(self, index, term, step):
        check_step(step, self.system, self.spawn_bound, self.tracked.values())
        deepest = find_redexes(term, self.system, self.spawn_bound)[-1]
        if deepest.position != step.redex.position:
            check_step(contract(term, deepest), self.system, self.spawn_bound)
        super().observe_step(index, term, step)


@pytest.fixture
def checked(monkeypatch):
    monkeypatch.setattr(strategies, "FairnessTracker", CheckedTracker)
    CheckedTracker.scans = CheckedTracker.steps = 0
    yield CheckedTracker


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("system_file,term,depth,needed_depth", CORPUS_INPUTS)
def test_corpus_inputs(checked, kind, system_file, term, depth, needed_depth):
    system = parse_system((CORPUS / system_file).read_text())
    t = parse_term(term if term is not None else fixpoint_text())
    goal = needed_depth if kind == "needed-fair" else depth
    _, trace = normalize(t, system, KINDS[kind], goal, 2000)
    assert trace.steps
    assert checked.steps >= len(trace.steps)
    assert checked.scans > len(trace.steps)


def is_cyclic(t):
    try:
        unfold(t)
    except NotCycleRoot:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_systems(checked, kind):
    rng = random.Random(8808)
    runs = cyclic = 0
    for _ in range(60):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, rng.randint(2, 4))
        try:
            _, trace = normalize(term, system, KINDS[kind], rng.randint(1, 3), 60)
        except EngineError:
            continue
        if trace.steps:
            runs += 1
            cyclic += is_cyclic(term)
    assert runs >= 40
    assert cyclic >= 10
    assert checked.steps >= 90


def test_outermost_predicate_past_the_scan_bound():
    # ancestors above the recorded scan's bound are read off its positions,
    # deeper ones are matched
    rng = random.Random(4242)
    deep = 0
    for _ in range(80):
        system = genrand.random_system(rng)
        term = genrand.random_term(rng, system, 4)
        pred = strategies._Predicate(OUTERMOST_FAIR, system)
        pred.scanned(term, find_redexes(term, system, 2), 2)
        for u in find_redexes(term, system, 6):
            p = u.position
            outermost = not any(match(r, term, p[:k]) is not None
                                for k in range(len(p)) for r in system.rules)
            assert pred.satisfies(term, u) == outermost
            deep += len(p) > 2 and not outermost
    assert deep >= 20


# ---------------------------------------------------------------------------
# the errors of the replaced route

def spine():
    return parse_system((CORPUS / "spine_growth.crs").read_text())


def test_stale_redex():
    system = spine()
    once = system.rule("once")
    t = parse_term("f(a, c)")
    u = redex_at(t, system, (1,))
    step = contract(t, u)
    with pytest.raises(StaleRedex):
        contract(step.target, u)
    # an ancestor that no longer matches at the rebuilt node
    with pytest.raises(StaleRedex):
        step.residual_map([Redex((), once, Valuation({}))])
    # a redex below the contracted one whose descendant does not match
    root = contract(t, redex_at(t, system, ()))
    with pytest.raises(StaleRedex):
        root.residual_map([Redex((2,), once, Valuation({}))])


@pytest.mark.parametrize("p,position", [
    ((1,), (3,)), ((1,), (1, 1)), ((1,), (2, 3)),
    ((2,), (2, 3)), ((2,), (1, 1)), ((2,), (2, 2, 1)),
])
def test_position_not_in_the_term(p, position):
    system = spine()
    t = parse_term("f(a, f(a, c))")
    step = contract(t, redex_at(t, system, p))
    with pytest.raises(PositionError):
        step.descendant_map([position])


@pytest.mark.parametrize("outer", [False, True])
def test_descendant_inside_a_cycle(outer):
    system = parse_system("rule r: f(X) -> rec S. g(X, S) ;")
    t = parse_term("h(f(a), a)" if outer else "f(a)")
    p = (1,) if outer else ()
    step = contract(t, redex_at(t, system, p))
    with pytest.raises(InfiniteResultError):
        step.descendant_map([p + (1,)])
    if outer:
        assert step.descendant_map([(2,), ()]) == {(2,): {(2,)}, (): {()}}


@pytest.mark.parametrize("position", [(2,), (1, 2)])
def test_tagging_a_meta_node(position):
    # a meta-variable node beside the redex, or inside it
    system = spine()
    t = Sym("h", (Sym("f", (Sym("a"), MetaApp("Z"))), MetaApp("Z")))
    step = contract(t, redex_at(t, system, (1,)))
    with pytest.raises(TermError):
        step.descendant_map([position])


# ---------------------------------------------------------------------------
# the work of a step does not grow with the depth of the term

def test_steps_on_a_deep_term():
    # 3,000 levels: the step machinery walks the path without recursion
    system = spine()
    depth = 3000
    t = parse_term("f(a, c)")
    for _ in range(depth):
        t = Sym("g", (Sym("b"), t))
    p = (2,) * depth
    bound = depth + 3
    redexes = find_redexes(t, system, bound)
    step = contract(t, redex_at(t, system, p))
    assert (step.target_redexes(redexes, system, bound)
            == find_redexes(step.target, system, bound))
    res = step.residual_map(redexes)
    assert [[r.position[depth:] for r in res[u]] for u in redexes] == [
        [], [(1,), (2, 1)], [(2, 2)]]
    assert step.descendant_map([(1,), p[:-1] + (1,)]) == {
        (1,): {(1,)}, p[:-1] + (1,): {p[:-1] + (1,)}}


def scan_nodes_per_step(monkeypatch, kind, depth):
    calls = [0]
    children = rewriting.children

    def counted(t):
        calls[0] += 1
        return children(t)

    monkeypatch.setattr(rewriting, "children", counted)
    _, trace = normalize(parse_term("f(a, c)"), spine(), kind, depth, 4000)
    monkeypatch.setattr(rewriting, "children", children)
    return calls[0] / len(trace.steps)


@pytest.mark.parametrize("kind", [FAIR, OUTERMOST_FAIR], ids=lambda k: k.kind)
def test_scan_per_step_does_not_grow_with_depth(monkeypatch, kind):
    shallow = scan_nodes_per_step(monkeypatch, kind, 16)
    deep = scan_nodes_per_step(monkeypatch, kind, 64)
    assert deep <= 1.5 * shallow, (shallow, deep)
