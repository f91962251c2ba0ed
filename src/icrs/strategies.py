"""Fair, outermost-fair and needed-fair reduction with fairness bookkeeping.

Fairness is realised by obligation tracking: every redex occurrence that
satisfies the strategy predicate opens an obligation carrying its residual
set; contracting any member (while it satisfies the predicate) resolves the
obligation, as does every member ceasing to satisfy the predicate.  The
scheduler always serves the oldest open obligation, contracting its
outermost-leftmost eligible member, which bounds every obligation's delay by
the number of live obligation classes.

Neededness is not computed directly: needed-fair replays the essential
skeleton of a stratified pilot reduction (an outermost-fair run cut into
depth strata), the steps whose redexes are essential for the strata, which
coincide with the needed ones on terms that reach normal forms.  The
fairness audit checks such a trace by asking every term's essential set of
a pilot of its own.  Exhaustive neededness lives in the oracle module.

A rational normal form is reported only when the run proves it: a run term
that recurs below the root of a later one certifies a cycle, and the cycle
is reported when it is normal (`detect_rational_nf`).  No prefix is folded
by guesswork, so a run that proves nothing reports nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

from .errors import FuelExhausted, NoEligibleRedex, PreconditionViolated
from .essential import local_epsilon_step
from .records import Frozen, Record
from .rewriting import contract, cut_scan, find_redexes, match, redex_trie, step_redex
from .syntax import position_str
from .systems import max_lhs_depth, require_valid
from .terms import (
    Rec, RecVar, alpha_eq, children, graft, path_nodes, positions_to_depth,
    resolve, truncate,
)


class StrategyKind(Frozen):
    __slots__ = ("kind",)

    def __init__(self, kind):
        if kind not in ("fair", "outermost-fair", "needed-fair"):
            raise PreconditionViolated(f"unknown strategy {kind!r}")
        self._set[0](self, kind)


FAIR = StrategyKind("fair")
OUTERMOST_FAIR = StrategyKind("outermost-fair")
NEEDED_FAIR = StrategyKind("needed-fair")

# the least fuel of a needed-fair pilot run; a run's own fuel raises it
PILOT_FUEL = 600


class Trace(Record):
    __slots__ = ("system", "label", "terms",
                 "steps",       # StepRecord per step
                 "ledger",      # Obligations with birth/resolution bookkeeping
                 "pilot_fuel",  # the fuel of the run's needed-fair pilots
                 "stable_bound")  # the bound a run ended stable at, else None

    def __init__(self, system, label, terms, steps, ledger=None,
                 pilot_fuel=PILOT_FUEL, stable_bound=None):
        self.system = system
        self.label = label
        self.terms = terms
        self.steps = steps
        self.ledger = ledger
        self.pilot_fuel = pilot_fuel
        self.stable_bound = stable_bound

    @property
    def initial(self):
        return self.terms[0]

    @property
    def final(self):
        return self.terms[-1]

    def __len__(self):
        return len(self.steps)

    def depth_floor(self):
        """Per-index minimum contraction depth from that index on.  It never
        decreases, so bisect_left(floor, d) is the index after which every
        step is at least d deep."""
        depths = [len(s.redex.position) for s in self.steps]
        floor = []
        cur = None
        for d in reversed(depths):
            cur = d if cur is None else min(cur, d)
            floor.append(cur)
        floor.reverse()
        return floor

    def step_specs(self):
        return [(s.redex.position, s.redex.rule.name) for s in self.steps]


def trace_of(term, step_specs, system, label="scripted"):
    """Build a trace from explicit (position, rule name) steps."""
    terms = [term]
    steps = []
    cur = term
    for pos, rule in step_specs:
        rec = contract(cur, step_redex(cur, system, pos, rule))
        steps.append(rec)
        cur = rec.target
        terms.append(cur)
    return Trace(system, label, terms, steps)


class Approximant(Frozen):
    __slots__ = (
        "term", "stable_depth",
        "certificate",  # step index after which all contractions were deeper
        # 'normal-form' | 'approximant' | 'divergence-suspected' | 'fuel-exhausted'
        "status")

    def __init__(self, term, stable_depth, certificate, status):
        set_term, set_stable_depth, set_certificate, set_status = self._set
        set_term(self, term)
        set_stable_depth(self, stable_depth)
        set_certificate(self, certificate)
        set_status(self, status)


# ---------------------------------------------------------------------------
# predicates

def is_normal_form(term, system):
    return min_redex_depth(term, system) is None


def min_redex_depth(term, system):
    """Depth of the shallowest redex, or None when the term is normal.

    Breadth-first over the distinct resolved nodes of the rational term: a
    node is first met at its shallowest depth, and whether it is a redex
    depends on the node alone, so each is matched once."""
    seen = set()
    level = [term]
    depth = 0
    while level:
        below = []
        for t in level:
            v = resolve(t)
            if v in seen:
                continue
            seen.add(v)
            if any(match(rule, v) is not None for rule in system.rules_for(v)):
                return depth
            below.extend(c for _, c in children(v))
        level = below
        depth += 1
    return None


def outermost_redexes(term, system, depth_bound):
    """Redexes with no redex at any strict prefix position."""
    redexes = find_redexes(term, system, depth_bound)
    pred = _Predicate(OUTERMOST_FAIR, system)
    pred.scanned(term, redexes, depth_bound)
    return [u for u in redexes if pred.satisfies(term, u)]


class _Predicate:
    """satisfies(term, redex): does a redex of the term satisfy the strategy
    predicate?  The answer never depends on the enumeration bound.
    Outermost-fair checks the ancestors of the redex: those above the bound
    of the term's recorded scan by one walk down the trie of its redex
    positions, deeper ones (which tracked residuals reach) by matching.

    Needed-fair, which only the fairness audit asks (a route independent
    of the run's skeleton replay), classifies a redex by whether its
    position is essential for an outermost-fair pilot run from the term:
    by the neededness correspondence, whether it is needed (Huet & Levy,
    "Computations in orthogonal rewriting systems", 1991; Middeldorp, "Call
    by need computations to root-stable form", 1997).  One live pilot
    serves every term on its trace: a suffix of an outermost-fair reduction
    is outermost-fair with the same limit, and a stratum of depth d whose
    index falls before the suffix's start collapses to the start.  A term
    off the trace runs outermost-fair until it joins the trace, and the
    pilot's steps from the join are spliced after the new ones (a finite
    prefix followed by an outermost-fair suffix is outermost-fair with the
    same limit).  A run that stabilises or spends the pilot fuel `fuel`
    before it joins serves or fails as a fresh pilot; a fresh pilot starts
    when the splice would be longer than the fuel.  Pilots stratify to
    `depth_goal` and share one table of redex-local epsilon images
    (`local_epsilon_step`), which lives as long as the predicate."""

    def __init__(self, kind, system, depth_goal=0, fuel=0):
        self.kind = kind
        self.system = system
        self.depth_goal = depth_goal
        self.fuel = fuel
        self._scan = (None, redex_trie(()), 0)  # (term, its redex trie, bound)
        self._pilot = None
        self._table = {}  # the redex-local epsilon images of every pilot's sweep
        self._held = (None, None)  # (term in hand, its needed positions)

    def scanned(self, term, redexes, bound):
        """Record the redexes of the term at depth < bound: outermost-fair
        then answers for ancestors above the bound from a trie of their
        positions."""
        if self.kind.kind == "outermost-fair":
            self._scan = (term, redex_trie(redexes), bound)

    def satisfies(self, term, redex):
        if self.kind.kind == "fair":
            return True
        if self.kind.kind == "outermost-fair":
            p = redex.position
            scanned, roots, bound = self._scan
            k = min(len(p), bound) if scanned is term else 0
            entry = roots
            for i in p[:k]:  # the ancestors at depths 0 .. k-1
                if entry[0] is not None:
                    return False
                entry = entry[1].get(i)
                if entry is None:
                    break
            if k == len(p):
                return True
            # ancestors at or past the bound, which tracked residuals reach
            above = path_nodes(term, p)[k:-1]
            return not any(match(r, a) is not None
                           for a in above for r in self.system.rules_for(a))
        return redex.position in self._needed_positions(term)

    def _needed_positions(self, term):
        if self._held[0] is not term:
            pilot = self._pilot
            start = pilot.index.get(term) if pilot else None
            if start is None:
                pilot = pilot and pilot.spliced(term, self.fuel)
                if pilot is None:  # a fresh pilot, on the predicate's table
                    fresh = needed_pilot(term, self.system, self.depth_goal,
                                         self.fuel)
                    pilot = Pilot(fresh.trace, fresh.cuts, table=self._table)
                self._pilot = pilot
                start = 0
            self._held = (term, self._pilot.essential_start_positions(start))
        return self._held[1]


# ---------------------------------------------------------------------------
# obligation tracking

class Obligation(Record):
    __slots__ = ("born",
                 "members",  # frozenset of (position, rule name)
                 "resolved_at", "resolution")

    def __init__(self, born, members, resolved_at=None, resolution=""):
        self.born = born
        self.members = members
        self.resolved_at = resolved_at
        self.resolution = resolution

    @property
    def open(self):
        return self.resolved_at is None


class FairnessTracker:
    """Obligations over the observed terms.  `tracked` holds the Redex of
    every member of an open obligation in the current term, taken from the
    scan or from the residual map of the last step, so no member is matched
    again.  `live` holds the open obligations in ledger order; it is pruned
    wherever an obligation is resolved, so no step rescans the ledger.

    Needed-fair pilots stratify to one less than the spawn bound, past every
    depth the run still rewrites at, or pending redexes near the bound would
    classify as inessential.  They run on pilot_fuel steps."""

    def __init__(self, kind, system, spawn_bound, pilot_fuel):
        self.pred = _Predicate(kind, system, spawn_bound - 1, pilot_fuel)
        self.system = system
        self.spawn_bound = spawn_bound
        self.obligations = []
        self.live = []
        self.tracked = {}  # (position, rule name) -> Redex

    def _prune(self):
        self.live = [ob for ob in self.live if ob.open]

    def observe_term(self, index, term, redexes=None):
        if redexes is None:
            redexes = find_redexes(term, self.system, self.spawn_bound)
        self.pred.scanned(term, redexes, self.spawn_bound)
        # clause 2: an obligation none of whose members satisfies the
        # predicate any more is discharged vacuously
        for ob in self.live:
            if not any(self.pred.satisfies(term, self.tracked[m])
                       for m in ob.members):
                ob.resolved_at = index
                ob.resolution = "vacuous"
        self._prune()
        live_sets = {ob.members for ob in self.live}
        for u in redexes:
            if self.pred.satisfies(term, u):
                m = (u.position, u.rule.name)
                key = frozenset([m])
                if key not in live_sets:
                    ob = Obligation(index, key)
                    self.obligations.append(ob)
                    self.live.append(ob)
                    live_sets.add(key)
                    self.tracked[m] = u

    def observe_step(self, index, term, step):
        contracted = step.redex.position
        contracted_sat = self.pred.satisfies(term, step.redex)
        # sorted: the order labels the redexes, and so the nodes built
        members = sorted({m for ob in self.live for m in ob.members})
        residual_map = (step.residual_map([self.tracked[m] for m in members])
                        if members else {})
        bypos = {u.position: rs for u, rs in residual_map.items()}
        self.tracked = {}
        for ob in self.live:
            if contracted_sat and any(p == contracted for p, _ in ob.members):
                ob.resolved_at = index
                ob.resolution = "contracted"
                continue
            new = set()
            for p, _ in ob.members:
                for r in bypos[p]:
                    m = (r.position, r.rule.name)
                    new.add(m)
                    self.tracked[m] = r
            ob.members = frozenset(new)
            if not ob.members:
                ob.resolved_at = index
                ob.resolution = "vacuous"
        self._prune()
        # identically-tracked obligations are redundant: keep the oldest
        by_members = {}
        for ob in self.live:
            other = by_members.get(ob.members)
            if other is None:
                by_members[ob.members] = ob
            elif other.born <= ob.born:
                ob.resolved_at = index
                ob.resolution = "merged"
            else:
                other.resolved_at = index
                other.resolution = "merged"
                by_members[ob.members] = ob
        self._prune()

    def select(self, term):
        for ob in self.live:
            for m in sorted(ob.members, key=lambda m: (len(m[0]), m[0])):
                u = self.tracked[m]
                if self.pred.satisfies(term, u):
                    return u
        raise NoEligibleRedex("no tracked redex satisfies the strategy predicate")


# ---------------------------------------------------------------------------
# normalisation

def _scan_bound(stable_bound):
    """The bound of the redex scans of a run of `_reduce`."""
    return stable_bound + 2


def _reduce(term, system, kind, stable_bound, fuel, until=None, scans=None):
    """The loop of fair and outermost-fair `normalize` and of the pilots:
    reduce with the kind's strategy until no redex lies above stable_bound
    (status 'stable'), until a term passes the test `until` (status
    'joined'), or for fuel steps (status None); the trace and the status.
    Each term's scan is appended to the list `scans` when one is given."""
    scan_bound = _scan_bound(stable_bound)
    pilot_fuel = max(fuel, PILOT_FUEL)
    tracker = FairnessTracker(kind, system, scan_bound, pilot_fuel)
    table = {}  # the run's Contraction per (redex node, rule)
    terms = [term]
    steps = []
    cur = term
    status = None
    redexes = find_redexes(cur, system, scan_bound)
    if scans is not None:
        scans.append(redexes)
    for _ in range(fuel):
        if until is not None and until(cur):
            status = "joined"
            break
        tracker.observe_term(len(steps), cur, redexes)
        if not any(u.depth < stable_bound for u in redexes):
            status = "stable"
            break
        rec = contract(cur, tracker.select(cur), table)
        tracker.observe_step(len(steps), cur, rec)
        steps.append(rec)
        redexes = rec.target_redexes(redexes, system, scan_bound)
        if scans is not None:
            scans.append(redexes)
        cur = rec.target
        terms.append(cur)
    return Trace(system, kind.kind, terms, steps, ledger=tracker.obligations,
                 pilot_fuel=pilot_fuel,
                 stable_bound=stable_bound if status == "stable" else None), status


def _needed_run(term, system, stable_bound, fuel):
    """The loop of needed-fair `normalize`: the essential skeleton of an
    outermost-fair pilot run from the term, replayed until no redex lies
    above stable_bound (status 'stable') or for fuel steps (status None),
    a fresh pilot starting from the term reached when a replay ends first.
    The pilots stratify to one less than the run's scan bound and run on
    the run's fuel, and on at least PILOT_FUEL; the trace records theirs,
    so that an audit makes the same pilots.  It keeps no ledger.

    A kept redex is essential for the pilot's strata, so needed (see
    `_Predicate`).  Projecting the pilot over an inessential step keeps
    the essential positions and mirrors the prefix above them (emaciated
    projection, `essential.py`), so each kept redex is matched at its own
    position on the term reached.  A pilot from a term with a redex above
    stable_bound keeps at least its last step above its goal, essential for
    the cut just after it."""
    scan_bound = _scan_bound(stable_bound)
    pilot_fuel = max(fuel, PILOT_FUEL)
    terms = [term]
    steps = []
    redexes = find_redexes(term, system, scan_bound)
    table = {}  # the Contractions of the steps made off a pilot's trace
    replay = iter(())
    status = None
    while len(steps) < fuel:
        if not any(u.depth < stable_bound for u in redexes):
            status = "stable"
            break
        taken = next(replay, None)
        if taken is None:
            pilot = needed_pilot(terms[-1], system, scan_bound - 1, pilot_fuel)
            replay = _replay(pilot, redexes, scan_bound, table)
            taken = next(replay)
        rec, redexes = taken
        steps.append(rec)
        terms.append(rec.target)
    return Trace(system, NEEDED_FAIR.kind, terms, steps, pilot_fuel=pilot_fuel,
                 stable_bound=stable_bound if status == "stable" else None), status


def _replay(pilot, redexes, bound, table):
    """The pilot's essential steps replayed from its first term, each with
    its target's redexes at depth < bound, given the first term's.  On the
    pilot's trace a step is the pilot's own, with the pilot's scan of its
    target cut to the bound; off it, the redex is matched and contracted on
    the term reached, with the table's Contractions.  Steps past the last
    cut are at least the pilot's goal deep, so inessential, and are not read."""
    system = pilot.trace.system
    cur = pilot.trace.initial
    for i, step in enumerate(pilot.trace.steps[:pilot.cuts[-1][0]]):
        p = step.redex.position
        if p not in pilot.essential_start_positions(i):
            continue
        if step.source is cur:
            rec = step
            redexes = cut_scan(pilot.scans[i + 1], bound)
        else:
            rec = contract(cur, step_redex(cur, system, p, step.redex.rule), table)
            redexes = rec.target_redexes(redexes, system, bound)
        cur = rec.target
        yield rec, redexes


def normalize(term, system, kind, depth_goal, fuel):
    """Drive the term with the chosen fair strategy until nothing above the
    goal depth can change any more, or fuel runs out.

    Once no redex occurs at depth < depth_goal + max-lhs-depth, contractions
    can never recreate one there (a step only changes the term at and below
    its redex, and a pattern spans at most the lhs depth), so the prefix
    above the goal is final and certified.
    """
    require_valid(system)
    stable_bound = depth_goal + max_lhs_depth(system)
    if kind == NEEDED_FAIR:
        trace, status = _needed_run(term, system, stable_bound, fuel)
    else:
        trace, status = _reduce(term, system, kind, stable_bound, fuel)
    return _approximant(trace, status, depth_goal), trace


def _approximant(trace, status, depth_goal):
    """The approximant of a run that ended with the status.  A run out of
    fuel is suspected to diverge when its last step is at its shallowest
    depth, above the goal; a needed-fair run, whose stabilised pilot comes
    back to that depth as it converges, only when every step is there."""
    cur = trace.final
    if status != "stable":
        depths = [len(s.redex.position) for s in trace.steps]
        if trace.label == NEEDED_FAIR.kind:
            depths.sort()  # the last is the deepest
        stuck = bool(depths) and min(depths) == depths[-1] < depth_goal
        status = "divergence-suspected" if stuck else "fuel-exhausted"
        return Approximant(truncate(cur, depth_goal), 0, len(trace), status)
    certificate = bisect_left(trace.depth_floor(), depth_goal)
    if is_normal_form(cur, trace.system):
        return Approximant(cur, depth_goal, certificate, "normal-form")
    return Approximant(truncate(cur, depth_goal), depth_goal,
                       certificate, "approximant")


# ---------------------------------------------------------------------------
# rational normal forms certified by the run

def detect_rational_nf(trace):
    """The normal form of the run's input when the run proves one: the final
    term when it is normal, else a rational limit certified by a recurrence;
    None when the run proves nothing.

    A run term t_i that occurs again at a position q other than the root of
    a later run term, t_j = C[t_i], certifies rec S. C[S]: replaying steps
    i..j under q, then under q.q, and so on, contracts ever deeper, each
    round |q| deeper than the last, so the reduction converges strongly to
    rec S. C[S].  Run terms are closed, so no binder of C captures a
    variable of t_i.  A normal limit is the normal form of the input,
    because orthogonal, fully-extended iCRSs have unique normal forms
    (Ketema & Simonsen, "Infinitary Combinatory Reduction Systems:
    Confluence", LMCS 2009).  The run terms are walked in order, each
    breadth-first over its distinct resolved nodes, so the shallowest,
    leftmost recurrence in the earliest term is tried first.  Nodes are
    hash-consed, so a recurrence is an identity lookup."""
    system = trace.system
    if is_normal_form(trace.final, system):
        return trace.final
    earlier = set()
    for t in trace.terms:
        root = resolve(t)
        if earlier:
            seen = {root}
            level = [((), root)]
            while level:
                below = []
                for q, u in level:
                    for i, c in children(u):
                        c = resolve(c)
                        if c in seen:
                            continue
                        seen.add(c)
                        if c in earlier:
                            candidate = Rec("S1", graft(t, q + (i,), RecVar("S1")))
                            if is_normal_form(candidate, system):
                                return _least_period(t, q + (i,), candidate)
                        below.append((q + (i,), c))
                level = below
        earlier.add(root)
    return None


def _least_period(t, q, candidate):
    """The candidate rec S. C[S] certified at q of t, written with its least
    period: a recurrence k periods deep has a context C that is k copies of
    the one-period context, so the first proper prefix q' of q, shortest
    first, whose length divides |q| and whose rec S. t[q' <- S] unfolds to
    the candidate's tree is taken; else the candidate itself."""
    for n in range(1, len(q)):
        if len(q) % n == 0:
            shorter = Rec("S1", graft(t, q[:n], RecVar("S1")))
            if alpha_eq(shorter, candidate):
                return shorter
    return candidate


# ---------------------------------------------------------------------------
# fairness audit

class AuditVerdict(Frozen):
    __slots__ = ("ok", "detail", "witness")

    def __init__(self, ok, detail="", witness=None):
        set_ok, set_detail, set_witness = self._set
        set_ok(self, ok)
        set_detail(self, detail)
        set_witness(self, witness)

    def __bool__(self):
        return self.ok


def fairness_audit(trace, kind, window=None):
    """Check the produced prefix against the strategy's fairness clause:
    every predicate-satisfying redex occurrence must, within the window,
    either have a residual contracted or stop having predicate-satisfying
    residuals.  Obligations younger than the window at the cut are
    inconclusive and pass, as are, in a run that ended stable, those whose
    members all lie at or below its stable bound: the run certifies only
    the prefix above it, and a continuation can still serve them."""
    require_valid(trace.system)
    end = len(trace.steps)
    if window is None:
        window = max(1, end)
    # the replay scans below every contracted redex, with the run's pilot fuel
    deepest = max((len(s.redex.position) for s in trace.steps), default=0)
    tracker = FairnessTracker(kind, trace.system, deepest + 2
                              + max_lhs_depth(trace.system), trace.pilot_fuel)
    for i, step in enumerate(trace.steps):
        tracker.observe_term(i, trace.terms[i])
        tracker.observe_step(i, trace.terms[i], step)
    tracker.observe_term(end, trace.final)
    bound = trace.stable_bound
    for ob in tracker.obligations:
        if ob.open and end - ob.born >= window and (
                bound is None or any(len(p) < bound for p, _ in ob.members)):
            pos = sorted(ob.members)
            return AuditVerdict(
                False,
                f"obligation born at step {ob.born} unresolved for "
                f"{end - ob.born} steps (members at "
                f"{', '.join(position_str(p) for p, _ in pos)})",
                witness=ob)
    return AuditVerdict(True)


# ---------------------------------------------------------------------------
# needed-fair pilot

class Pilot(Frozen, compare=("trace", "cuts")):
    __slots__ = ("trace",
                 # (index, depth) per distinct stratum index, in index order:
                 # from the index on every step is at least the depth deep,
                 # the deepest such depth up to the pilot's goal
                 "cuts",
                 # the sweep's sets at the last indices, taken over by a spliced pilot
                 "tail",
                 # the sweep's redex-local epsilon images, shared with its splices
                 "table",
                 # a fresh pilot's redexes of each trace term at its scan bound
                 "scans",
                 "__dict__")

    def __init__(self, trace, cuts, tail=(), table=None, scans=()):
        set_trace, set_cuts, set_tail, set_table, set_scans = self._set
        set_trace(self, trace)
        set_cuts(self, cuts)
        set_tail(self, tail)
        set_table(self, {} if table is None else table)
        set_scans(self, scans)

    @cached_property
    def index(self):
        """term -> its first index on the trace."""
        out = {}
        for i, t in enumerate(self.trace.terms):
            out.setdefault(t, i)
        return out

    @cached_property
    def _prefixes(self):
        return {}

    def prefix(self, i, depth):
        """The positions of the term at index i above the depth, from one
        walk of the term, made when the prefix is first read."""
        out = self._prefixes.get((i, depth))
        if out is None:
            out = self._prefixes[i, depth] = frozenset(
                positions_to_depth(self.trace.terms[i], depth - 1))
        return out

    @cached_property
    def _swept(self):
        """The backward sweep's set at every index up to the last cut's.
        Epsilon distributes over unions of prefix sets (a path's edge word
        lies in P | Q iff it lies in P or in Q), and the strata at one index
        nest, the deepest one's prefix being their union, so one sweep over
        the pilot's own steps, adding each cut's prefix at its index, gives
        at each index the union of the per-stratum essential sets.  The
        sets of `tail` stand for the last indices, and only the steps and
        cuts before them are read.  Every set is a union of epsilon images
        and cut prefixes, so a prefix set of its term, and the steps do not
        check it again.  The steps read and fill the table `table`."""
        depths = dict(self.cuts)

        def fed(i, base=frozenset()):
            depth = depths.get(i)
            return base | self.prefix(i, depth) if depth else base

        system = self.trace.system
        last = self.cuts[-1][0] if self.cuts else 0
        swept = list(reversed(self.tail)) or [fed(last)]
        for i in reversed(range(last + 1 - len(swept))):
            swept.append(fed(i, local_epsilon_step(
                swept[-1], self.trace.steps[i], system, self.table)))
        swept.reverse()
        return tuple(swept)

    def essential_start_positions(self, start=0):
        """Positions of the pilot's term at index `start` essential for some
        stratum prefix of the suffix from there; by the neededness
        correspondence these are the needed ones.  Strata whose index falls
        before `start` collapse to it, with the positions of that term above
        their depth as prefix.  No step from a cut's index on is above its
        depth, so those are the prefix of the last cut before `start`."""
        swept = self._swept
        out = swept[start] if start < len(swept) else frozenset()
        k = bisect_left(self.cuts, (start,))
        if k:
            out = out | self.prefix(*self.cuts[k - 1])
        return out

    def spliced(self, term, fuel):
        """The pilot from a term off the trace: outermost-fair from the term
        until it reaches a term of the trace, at index j say, then this
        pilot's steps from j on, cut by the spliced depth floor; past the
        join the sweep is this pilot's, and only the new steps are swept.  A
        run that stabilises or spends the fuel before it joins is, or raises
        as, a fresh pilot.  None when the splice would outrun the fuel."""
        trace = self.trace
        system = trace.system
        depth_goal = self.cuts[-1][1] if self.cuts else 0
        stable_bound = depth_goal + max_lhs_depth(system)
        run, status = _reduce(term, system, OUTERMOST_FAIR, stable_bound, fuel,
                              self.index.__contains__)
        if status == "stable":
            return _stratified(run, depth_goal, table=self.table)
        if status is None:
            raise FuelExhausted("pilot run did not stabilise",
                                _approximant(run, status, depth_goal), run)
        j = self.index[run.final]
        if len(run) + len(trace) - j > fuel:
            return None
        joined = Trace(system, trace.label, run.terms[:-1] + trace.terms[j:],
                       run.steps + trace.steps[j:])
        return _stratified(joined, depth_goal, self._swept[j + 1:], self.table)


def _stratified(trace, depth_goal, tail=(), table=None, scans=()):
    """The pilot over a stabilised outermost-fair trace: for every depth d
    up to the goal, the index after which all contractions are at least d
    deep, one cut per index, with the deepest depth that falls there, on
    the given table of redex-local images or a fresh one."""
    floor = trace.depth_floor()
    cuts = {bisect_left(floor, d): d for d in range(1, depth_goal + 1)}  # last d wins
    return Pilot(trace, tuple(cuts.items()), tail, table, scans)


def needed_pilot(term, system, depth_goal, fuel):
    """A fresh pilot: an outermost-fair run from the term to the goal depth
    in depth strata, with a table of its own and the run's scans."""
    require_valid(system)
    scans = []
    run, status = _reduce(term, system, OUTERMOST_FAIR,
                          depth_goal + max_lhs_depth(system), fuel,
                          scans=scans)
    if status != "stable":
        raise FuelExhausted("pilot run did not stabilise",
                            _approximant(run, status, depth_goal), run)
    return _stratified(run, depth_goal, scans=scans)
