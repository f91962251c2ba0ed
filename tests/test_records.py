"""The engine's records are plain slotted classes; they compare, hash and
answer `bool` and `len` as the dataclasses they replaced, written out below
as the reference, with the fields, defaults, `compare=False` fields and
hand-written methods they had.  Records are collected from the corpus
normalisations, developments, essentiality sweeps, checks and seeded
instances, and each is compared with its reference twin."""

import itertools
import random
from dataclasses import dataclass, field, fields

import pytest

from conftest import corpus_text, parse_system
from genrand import random_dev_sequence, random_prefix_set, random_redex_set, \
    random_system, random_term
from icrs import developments, essential, oracle, parse_term, strategies
from icrs.developments import (
    ALL_REDEXES, PathSpace, _Machine, complete_development, redexes_from_positions,
)
from icrs.errors import PreconditionViolated
from icrs.records import Frozen, Record
from icrs.rewriting import find_redexes
from icrs.syntax import parse_script
from icrs.systems import check_system, pattern_meta
from icrs.terms import Term, alpha_eq


# ---------------------------------------------------------------------------
# the reference: the dataclass declarations the records replaced

@dataclass(frozen=True)
class Rule:
    name: object
    lhs: object
    rhs: object


@dataclass(frozen=True)
class RewriteSystem:
    rules: tuple
    signature: tuple


@dataclass(frozen=True)
class Verdict:
    check: str
    ok: bool
    detail: str = ""
    witness: object = field(default=None, compare=False)

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class OverlapWitness:
    rule_outer: str
    rule_inner: str
    position: tuple
    instance: object


@dataclass(frozen=True)
class CheckReport:
    verdicts: tuple


@dataclass(frozen=True, eq=False)
class PatternMeta:
    positions: tuple
    abs_map: dict
    metavars: tuple
    finite: bool


@dataclass(frozen=True)
class Substitute:
    params: tuple
    body: object


@dataclass(frozen=True)
class Valuation:
    assignment: dict

    def __eq__(self, other):
        return isinstance(other, Valuation) and self.assignment == other.assignment

    def __hash__(self):
        return hash(frozenset(self.assignment.items()))


@dataclass(frozen=True)
class Redex:
    position: tuple
    rule: object
    valuation: object

    def __hash__(self):
        return hash((self.position, self.rule))


@dataclass(frozen=True)
class StepRecord:
    source: object
    target: object
    redex: object
    path: tuple = field(compare=False, repr=False)
    target_path: tuple = field(compare=False, repr=False)
    local: object = field(compare=False, repr=False)


@dataclass(frozen=True)
class AllRedexes:
    pass


@dataclass(frozen=True)
class PathProjection:
    labels: tuple
    edges: tuple


@dataclass(frozen=True)
class PathEnumeration:
    maximal: tuple
    truncated: tuple


@dataclass(frozen=True)
class _TState:
    value: object
    rel: object
    env: tuple
    names: tuple


@dataclass(frozen=True)
class _RState:
    rule: object
    value: object
    redex_value: object
    redex_rel: object
    env: tuple
    nenv: tuple
    names: tuple


@dataclass(frozen=True)
class DevRecord:
    source: object
    target: object
    redexes: object
    steps: object
    system: object


@dataclass(frozen=True)
class DevSequence:
    initial: object
    stages: tuple

    def __post_init__(self):
        prev = self.initial
        for st in self.stages:
            assert alpha_eq(st.source, prev)
            prev = st.target

    def __len__(self):
        return len(self.stages)


@dataclass(frozen=True)
class PathPrefixSet:
    paths: tuple
    anchor: frozenset

    def __len__(self):
        return len(self.paths)


@dataclass(frozen=True)
class Sweep:
    sets: tuple
    path_sets: tuple


@dataclass(frozen=True)
class Measure:
    values: tuple

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class ProjectionResult:
    sequence: object
    essential_sets: tuple
    skeleton: object


@dataclass(frozen=True)
class ReductionDescriptor:
    steps: tuple = ()
    period: tuple = ()
    limit: object = None
    max_rounds: int = 64


@dataclass(frozen=True)
class StrategyKind:
    kind: str


@dataclass
class Trace:
    system: object
    label: str
    terms: list
    steps: list
    ledger: list = None
    pilot_fuel: int = strategies.PILOT_FUEL
    stable_bound: int = None

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class Approximant:
    term: object
    stable_depth: int
    certificate: int
    status: str


@dataclass
class Obligation:
    born: int
    members: frozenset
    resolved_at: object = None
    resolution: str = ""


@dataclass(frozen=True)
class AuditVerdict:
    ok: bool
    detail: str = ""
    witness: object = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class Pilot:
    trace: object
    cuts: tuple
    tail: tuple = field(default=(), compare=False, repr=False)
    table: dict = field(default=None, compare=False, repr=False)
    scans: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class OracleReport:
    claim: str
    instances: int
    agreements: int
    first_disagreement: object = None


@dataclass(frozen=True)
class DevelopmentOutcome:
    finals: tuple
    descendant_sets: tuple
    residual_sets: tuple
    orders: int


REFERENCE = {cls.__name__: cls for cls in (
    Rule, RewriteSystem, Verdict, OverlapWitness, CheckReport, PatternMeta,
    Substitute, Valuation, Redex, StepRecord, AllRedexes, PathProjection,
    PathEnumeration, _TState, _RState, DevRecord, DevSequence, PathPrefixSet,
    Sweep, Measure, ProjectionResult, ReductionDescriptor, StrategyKind, Trace,
    Approximant, Obligation, AuditVerdict, Pilot, OracleReport,
    DevelopmentOutcome)}
# slots that hold no field: the machine states' and rules' digests, a
# rule's weak reference to itself, and a system's index and validity flag
NOT_FIELDS = {"__dict__", "__weakref__", "digest", "ref", "_rules_by_root",
              "_valid"}


# ---------------------------------------------------------------------------
# collecting records

def collect(roots):
    """Every record reachable from the roots through record fields and
    containers, by class name; term nodes are not entered."""
    found = {}
    seen = set()
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if isinstance(obj, Term) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Record):
            found.setdefault(type(obj).__name__, []).append(obj)
            todo.extend(getattr(obj, f.name) for f in fields(REFERENCE[type(obj).__name__]))
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
    return found


CORPUS_RUNS = [
    ("spine_growth.crs", "f(a, c)"),
    ("outermost_pair.crs", "f(a)"),
    ("map_streams.crs", "map([z] s(z), rec L. cons(zero, L))"),
    ("lambda_beta.crs", " ".join(
        ln for ln in corpus_text("lambda_fixpoint.term").splitlines()
        if ln.strip() and not ln.lstrip().startswith("#"))),
]
CORPUS_SYSTEMS = ["collapse_growth.crs", "collapse_loop.crs", "lambda_beta.crs",
                  "map_streams.crs", "nested_duplication.crs",
                  "outermost_pair.crs", "spine_growth.crs"]
DEVELOP = [
    ("nested_duplication.crs", "f([x] g(x), a)"),
    ("lambda_beta.crs", "app(abs([x] app(x, x)), abs([y] app(y, y)))"),
    ("lambda_beta.crs", "rec S. app(abs([x] app(x, S)), abs([y] y))"),
    ("lambda_beta.crs", "abs([y] app(abs([x] abs([y] app(x, y))), y))"),
    ("collapse_growth.crs", "g(f([x] g(g(x))))"),
]
OVERLAPPING = ["rule r1: f(g(Z)) -> a ; rule r2: g(b) -> c ;",
               "rule r1: f([x] Z(x)) -> Z(k) ; rule r2: f([x] g(Z(x))) -> k ;",
               "rule eq: eq(Z, Z) -> k ;"]


@pytest.fixture(scope="module")
def records():
    roots = [strategies.FAIR, strategies.OUTERMOST_FAIR, strategies.NEEDED_FAIR,
             ALL_REDEXES, essential.ReductionDescriptor(),
             essential.ReductionDescriptor((((1,), "r"),), (((1,), "r"),), None, 3)]
    # the four corpus normalisations, their pilots and audits
    for system_file, text in CORPUS_RUNS:
        system = parse_system(corpus_text(system_file))
        term = parse_term(text)
        for kind in (strategies.FAIR, strategies.OUTERMOST_FAIR, strategies.NEEDED_FAIR):
            depth = 2 if kind is strategies.NEEDED_FAIR else 5
            approx, trace = strategies.normalize(term, system, kind, depth, 4000)
            roots += [approx, trace, strategies.fairness_audit(trace, kind),
                      strategies.fairness_audit(trace, kind, window=1)]
        roots.append(strategies.needed_pilot(term, system, 3, 4000))
    # checks and patterns of the corpus and of overlapping systems
    for text in [corpus_text(name) for name in CORPUS_SYSTEMS] + OVERLAPPING:
        system = parse_system(text)
        roots += [check_system(system)] + [pattern_meta(r.lhs) for r in system.rules]
    # developments, paths and the walk machine on corpus terms
    for system_file, text in DEVELOP:
        system = parse_system(corpus_text(system_file))
        term = parse_term(text)
        redexes = find_redexes(term, system, 6)
        roots += [complete_development(term, ALL_REDEXES, system),
                  complete_development(term, redexes, system)]
        space = PathSpace(term, redexes, system)
        enum = space.enumerate(budget=200)
        roots += [enum] + [space.project(p) for p in enum.maximal]
        machine = _Machine(term, redexes, system)
        roots += [machine.walk(), machine._ends]
    # the essentiality script
    system = parse_system(corpus_text("collapse_growth.crs"))
    term, prefix, stage_positions = parse_script(corpus_text("collapse_growth.script"))
    cur, stages = term, []
    for positions in stage_positions:
        redexes = redexes_from_positions(cur, system, positions)
        stages.append(complete_development(cur, redexes, system))
        cur = stages[-1].target
    seq = developments.DevSequence(term, tuple(stages))
    swept = essential.sweep(prefix, seq)
    roots += [seq, swept, swept.measure]
    u = find_redexes(term, system, 4)[-1]
    roots.append(essential.emaciate_step(seq, u, prefix))
    # seeded instances
    rng = random.Random(5)
    for _ in range(25):
        system = random_system(rng)
        dev_seq = random_dev_sequence(rng, system)
        final_prefix = random_prefix_set(rng, dev_seq.final)
        swept = essential.sweep(final_prefix, dev_seq)
        roots += [dev_seq, swept, swept.measure]
        term = random_term(rng, system, 3)
        us = random_redex_set(rng, term, system, max_size=3)
        if us:
            roots += [oracle.all_development_orders(term, us, system),
                      oracle.phi_injectivity_check(term, us, system, budget=400)]
            machine = _Machine(term, us, system)
            roots += [machine.walk(), machine._ends]
    return collect(roots)


# ---------------------------------------------------------------------------
# the checks

def hashed(x):
    """x's hash, or TypeError when a field is unhashable."""
    try:
        return hash(x)
    except TypeError as e:
        return type(e)


def reference_twin(rec):
    ref = REFERENCE[type(rec).__name__]
    return ref(**{f.name: getattr(rec, f.name) for f in fields(ref)})


def test_every_record_class_is_reached(records):
    assert set(records) == set(REFERENCE)
    assert sum(map(len, records.values())) > 1500


def test_fields_are_the_reference_fields_in_order(records):
    for name, recs in records.items():
        cls = type(recs[0])
        assert issubclass(cls, Record) and cls.__module__.startswith("icrs.")
        slots = [n for n in cls.__slots__ if n not in NOT_FIELDS]
        assert slots == [f.name for f in fields(REFERENCE[name])], name


def test_a_record_rebuilt_from_its_fields_compares_as_the_reference(records):
    for name, recs in records.items():
        ref = REFERENCE[name]
        for rec in recs[:300]:
            twin = reference_twin(rec)
            values = {f.name: getattr(rec, f.name) for f in fields(ref)}
            again = type(rec)(**values)
            assert (again == rec) == (ref(**values) == twin), name
            assert (rec == rec) and (twin == twin)
            assert bool(rec) == bool(twin), name
            if hasattr(ref, "__len__"):
                assert len(rec) == len(twin), name
            if ref.__hash__ is None:
                assert type(rec).__hash__ is None, name
            elif ref.__eq__ is not object.__eq__:  # PatternMeta hashes by identity
                assert hashed(rec) == hashed(twin) == hashed(again), name


def test_pairs_compare_as_the_reference(records):
    for name, recs in records.items():
        sample = recs[:40]
        twins = [reference_twin(r) for r in sample]
        for (a, ra), (b, rb) in itertools.product(zip(sample, twins), repeat=2):
            assert (a == b) == (ra == rb), name
            assert (a != b) == (ra != rb), name
        other = next(iter(records["Rule"] if name != "Rule" else records["Redex"]))
        assert (sample[0] == other) is False and (sample[0] != other) is True


@pytest.mark.parametrize("name, ignored", [
    ("StepRecord", ("path", "target_path", "local")), ("Verdict", ("witness",)),
    ("Pilot", ("tail", "scans"))])
def test_fields_left_out_of_equality(records, name, ignored):
    for rec in records[name][:50]:
        values = {f: getattr(rec, f) for f in type(rec).__slots__ if f not in NOT_FIELDS}
        values.update(dict.fromkeys(ignored, object()))
        other = type(rec)(**values)
        assert other == rec and hashed(other) == hashed(rec)
        changed = next(f for f in values if f not in ignored)
        values[changed] = object()
        assert type(rec)(**values) != rec


def test_frozen_records_reject_assignment(records):
    for name, recs in records.items():
        ref = REFERENCE[name]
        rec = recs[0]
        if not ref.__dataclass_params__.frozen:
            assert not isinstance(rec, Frozen)
            continue
        assert isinstance(rec, Frozen)
        for f in fields(ref):
            before = getattr(rec, f.name)
            with pytest.raises(AttributeError):
                setattr(rec, f.name, None)
            with pytest.raises(AttributeError):
                delattr(rec, f.name)
            assert getattr(rec, f.name) is before
        with pytest.raises(AttributeError):
            rec.not_a_field = 1


def test_mutable_records_take_assignment(records):
    ob = records["Obligation"][0]
    ob.resolution = ob.resolution
    trace = records["Trace"][0]
    trace.label = trace.label


def test_validation_in_init():
    with pytest.raises(PreconditionViolated):
        strategies.StrategyKind("eager")
    stage = complete_development(parse_term("a"), [], parse_system("rule r: f(Z) -> Z ;"))
    with pytest.raises(PreconditionViolated):  # a stage from a does not chain from b
        developments.DevSequence(parse_term("b"), (stage,))
