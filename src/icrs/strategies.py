"""Fair, outermost-fair and needed-fair reduction with fairness bookkeeping.

Fairness is realised by obligation tracking: every redex occurrence that
satisfies the strategy predicate opens an obligation carrying its residual
set; contracting any member (while it satisfies the predicate) resolves the
obligation, as does every member ceasing to satisfy the predicate.  The
scheduler always serves the oldest open obligation, contracting its
outermost-leftmost eligible member, which bounds every obligation's delay by
the number of live obligation classes.

Neededness is not computed directly; needed-fair selection classifies
redexes as essential against a stratified pilot reduction (an outermost-fair
run cut into depth strata), which coincides with neededness on terms that
reach normal forms.  Exhaustive neededness lives in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import FuelExhausted, NoEligibleRedex, PreconditionViolated
from .developments import DevRecord
from .essential import epsilon_step
from .rewriting import Redex, contract, find_redexes, match
from .syntax import position_str
from .systems import require_valid, rule_meta
from .terms import (
    Abs, Rec, RecVar, Sym, Term, Var, alpha_eq, children, hole, is_hole,
    path_nodes, positions_to_depth, resolve, root_key, truncate,
)


@dataclass(frozen=True)
class StrategyKind:
    kind: str  # 'fair' | 'outermost-fair' | 'needed-fair'
    pilot_depth: int = 8
    pilot_fuel: int = 600

    def __post_init__(self):
        if self.kind not in ("fair", "outermost-fair", "needed-fair"):
            raise PreconditionViolated(f"unknown strategy {self.kind!r}")


FAIR = StrategyKind("fair")
OUTERMOST_FAIR = StrategyKind("outermost-fair")


def needed_fair(pilot_depth=8, pilot_fuel=600):
    return StrategyKind("needed-fair", pilot_depth, pilot_fuel)


@dataclass
class Trace:
    system: object
    label: str
    terms: list
    steps: list  # StepRecord per step
    ledger: list = None  # Obligations with birth/resolution bookkeeping

    @property
    def initial(self):
        return self.terms[0]

    @property
    def final(self):
        return self.terms[-1]

    def __len__(self):
        return len(self.steps)

    def depth_floor(self):
        """Per-index minimum contraction depth from that index on."""
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
    for pos, rulename in step_specs:
        rule = system.rule(rulename) if isinstance(rulename, str) else rulename
        v = match(rule, cur, tuple(pos))
        if v is None:
            raise PreconditionViolated(
                f"scripted step is not a redex at {position_str(tuple(pos))}")
        rec = contract(cur, Redex(tuple(pos), rule, v))
        steps.append(rec)
        cur = rec.target
        terms.append(cur)
    return Trace(system, label, terms, steps)


@dataclass(frozen=True)
class Approximant:
    term: Term
    stable_depth: int
    certificate: int  # step index after which all contractions were deeper
    status: str       # 'normal-form' | 'approximant' | 'divergence-suspected' | 'fuel-exhausted'


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
    roots = {u.position for u in redexes}
    out = []
    for u in redexes:
        if not any(u.position[:k] in roots for k in range(len(u.position))):
            out.append(u)
    return out


class _Predicate:
    """satisfies(term, redex): does a redex of the term satisfy the strategy
    predicate?  Scan-free for members (checked against ancestors only) so the
    bookkeeping never depends on the enumeration bound.

    Needed-fair classifies a redex by whether its position is essential for
    an outermost-fair pilot run from the term.  One live pilot serves every
    term on its trace: a term met again is looked up among the pilot's
    terms, and a fresh pilot starts only for a term that is not there.  A
    suffix of an outermost-fair reduction is itself outermost-fair (a redex
    outermost in the suffix is outermost in the whole run at the same index,
    so the run contracts it or its residuals stop being outermost), and it
    tends to the same limit.  Its strata stratify that limit: a stratum of
    depth d whose index falls before the suffix's start collapses to the
    start, because every step of the suffix is at depth d or more already.
    A fresh pilot from the same term ages its obligations afresh and may
    take other steps, but by the neededness correspondence the essential
    positions of every outermost-fair reduction to the limit are the needed
    ones (Huet & Levy, "Computations in orthogonal rewriting systems", 1991;
    Middeldorp, "Call by need computations to root-stable form", 1997), so
    the suffix's essential set is the fresh pilot's."""

    def __init__(self, kind, system):
        self.kind = kind
        self.system = system
        self._pilot = None
        self._on_pilot = {}  # term -> first index on the live pilot's trace
        self._held = (None, None)  # (term in hand, its needed positions)

    def satisfies(self, term, redex):
        if self.kind.kind == "fair":
            return True
        if self.kind.kind == "outermost-fair":
            *above, _ = path_nodes(term, redex.position)
            return not any(match(r, a) is not None
                           for a in above for r in self.system.rules_for(a))
        return redex.position in self._needed_positions(term)

    def _needed_positions(self, term):
        if self._held[0] is not term:
            start = self._on_pilot.get(term)
            if start is None:
                self._pilot = needed_pilot(term, self.system,
                                           self.kind.pilot_depth,
                                           self.kind.pilot_fuel)
                self._on_pilot = {}
                for i, t in enumerate(self._pilot.trace.terms):
                    self._on_pilot.setdefault(t, i)
                start = 0
            self._held = (term, self._pilot.essential_start_positions(start))
        return self._held[1]


# ---------------------------------------------------------------------------
# obligation tracking

@dataclass
class Obligation:
    born: int
    members: frozenset  # of (position, rule name)
    resolved_at: object = None
    resolution: str = ""

    @property
    def open(self):
        return self.resolved_at is None


class FairnessTracker:
    """Obligations over the observed terms.  `tracked` holds the Redex of
    every member of an open obligation in the current term, taken from the
    scan or from the residual map of the last step, so no member is matched
    again.  `live` holds the open obligations in ledger order; it is pruned
    wherever an obligation is resolved, so no step rescans the ledger."""

    def __init__(self, kind, system, spawn_bound):
        self.pred = _Predicate(kind, system)
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
        members = {m for ob in self.live for m in ob.members}
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


def select(kind, trace):
    """Rebuild the fairness state from the trace and pick the next redex of
    its final term: the oldest obligation whose members still satisfy the
    predicate, its outermost-leftmost eligible member."""
    require_valid(trace.system)
    tracker = _replay_tracker(kind, trace)
    tracker.observe_term(len(trace.steps), trace.final)
    return tracker.select(trace.final)


def _replay_tracker(kind, trace, spawn_bound=None):
    bound = spawn_bound or _default_bound(trace)
    tracker = FairnessTracker(kind, trace.system, bound)
    for i, step in enumerate(trace.steps):
        tracker.observe_term(i, trace.terms[i])
        tracker.observe_step(i, trace.terms[i], step)
    return tracker


def _max_lhs_depth(system):
    return max((rule_meta(r).max_depth() for r in system.rules), default=0)


def _default_bound(trace):
    deepest = max((len(s.redex.position) for s in trace.steps), default=0)
    return deepest + _max_lhs_depth(trace.system) + 2


# ---------------------------------------------------------------------------
# normalisation

def normalize(term, system, kind, depth_goal, fuel):
    """Drive the term with the chosen fair strategy until nothing above the
    goal depth can change any more, or fuel runs out.

    Once no redex occurs at depth < depth_goal + max-lhs-depth, contractions
    can never recreate one there (a step only changes the term at and below
    its redex, and a pattern spans at most the lhs depth), so the prefix
    above the goal is final and certified.
    """
    require_valid(system)
    maxl = _max_lhs_depth(system)
    stable_bound = depth_goal + maxl
    scan_bound = stable_bound + 2
    if kind.kind == "needed-fair" and kind.pilot_depth <= stable_bound:
        # the pilot must stratify past every depth the run still rewrites at,
        # or pending redexes near the bound would classify as inessential
        kind = StrategyKind(kind.kind, stable_bound + 1, kind.pilot_fuel)
    tracker = FairnessTracker(kind, system, scan_bound)
    terms = [term]
    steps = []
    cur = term
    status = None
    for _ in range(fuel):
        redexes = find_redexes(cur, system, scan_bound)
        tracker.observe_term(len(steps), cur, redexes)
        if not any(u.depth < stable_bound for u in redexes):
            status = "stable"
            break
        u = tracker.select(cur)
        rec = contract(cur, u)
        tracker.observe_step(len(steps), cur, rec)
        steps.append(rec)
        cur = rec.target
        terms.append(cur)
    trace = Trace(system, kind.kind, terms, steps, ledger=tracker.obligations)
    if status != "stable":
        floor = trace.depth_floor()
        stuck = bool(floor) and floor[0] == floor[-1] and floor[0] < depth_goal
        status = "divergence-suspected" if stuck else "fuel-exhausted"
        approx = Approximant(truncate(cur, depth_goal), 0,
                             len(steps), status)
        return approx, trace
    certificate = 0
    for i, s in enumerate(steps):
        if len(s.redex.position) < depth_goal:
            certificate = i + 1
    if is_normal_form(cur, system):
        approx = Approximant(cur, depth_goal, certificate, "normal-form")
    else:
        approx = Approximant(truncate(cur, depth_goal), depth_goal,
                             certificate, "approximant")
    return approx, trace


# ---------------------------------------------------------------------------
# rational normal forms from stable prefixes

def _wildcard_eq(a, b, pairs=()):
    a, b = resolve(a), resolve(b)
    if is_hole(a) or is_hole(b):
        return True
    ka, kb = root_key(a), root_key(b)
    if ka[0] != kb[0]:
        return False
    if ka[0] == "var":
        from .terms import _env_lookup

        return _env_lookup(pairs, a.name, b.name)
    if ka[0] == "abs":
        return _wildcard_eq(a.body, b.body, pairs + ((a.var, b.var),))
    if ka != kb:
        return False
    return all(_wildcard_eq(x, y, pairs) for x, y in zip(a.args, b.args))


def _known_depth(t):
    """Depth of the shallowest hole; None when the subtree is hole-free."""
    t = resolve(t)
    if is_hole(t):
        return 0
    best = None
    for _, c in children(t):
        d = _known_depth(c)
        if d is not None:
            best = d + 1 if best is None else min(best, d + 1)
    return best


def _fold_rational(snapshot):
    """Tie holes back to consistent ancestors, producing a rec term whose
    unfolding matches the snapshot; None when no sufficiently confirmed fold
    exists.  A fold onto an ancestor L levels up is accepted only when the
    snapshot stays known for at least L further levels below the fold point,
    i.e. a full extra period confirms the conjectured cycle."""
    counter = [0]

    def close(t, depth, ancestors):
        t = resolve(t)
        if is_hole(t):
            return None
        for anc, anc_depth, var, used in ancestors:
            if _wildcard_eq(t, anc):
                period = depth - anc_depth
                known = _known_depth(t)
                if known is None or known >= max(period + 1, 2):
                    used[0] = True
                    return RecVar(var)
        counter[0] += 1
        var = f"S{counter[0]}"
        used = [False]
        anc_entry = (t, depth, var, used)
        match t:
            case Var(_, _):
                out = t
            case Abs(x, body, _):
                inner = close(body, depth + 1, ancestors + (anc_entry,))
                if inner is None:
                    return None
                out = Abs(x, inner)
            case Sym(f, args, _):
                new = []
                for a in args:
                    inner = close(a, depth + 1, ancestors + (anc_entry,))
                    if inner is None:
                        return None
                    new.append(inner)
                out = Sym(f, tuple(new))
            case _:
                return None
        if used[0]:
            out = Rec(var, out)
        return out

    return close(snapshot, 0, ())


def detect_rational_nf(trace):
    """Upgrade a stabilised trace to a rational normal form when the stable
    prefixes are eventually periodic; None otherwise."""
    system = trace.system
    final = trace.final
    d = min_redex_depth(final, system)
    if d is None:
        return final
    if d == 0:
        return None
    snapshot = truncate(final, d)
    candidate = _fold_rational(snapshot)
    if candidate is None:
        return None
    if not is_normal_form(candidate, system):
        return None
    # the fold must explain the stable prefix exactly, not just consistently
    if not alpha_eq(truncate(candidate, d), snapshot):
        return None
    return candidate


# ---------------------------------------------------------------------------
# fairness audit

@dataclass(frozen=True)
class AuditVerdict:
    ok: bool
    detail: str = ""
    witness: object = None

    def __bool__(self):
        return self.ok


def fairness_audit(trace, kind, window=None):
    """Check the produced prefix against the strategy's fairness clause:
    every predicate-satisfying redex occurrence must, within the window,
    either have a residual contracted or stop having predicate-satisfying
    residuals.  Obligations younger than the window at the cut are
    inconclusive and pass."""
    require_valid(trace.system)
    if window is None:
        window = max(1, len(trace.steps))
    tracker = _replay_tracker(kind, trace)
    tracker.observe_term(len(trace.steps), trace.final)
    end = len(trace.steps)
    for ob in tracker.obligations:
        if ob.open and end - ob.born >= window:
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

@dataclass(frozen=True)
class Stratum:
    depth: int
    index: int      # trace index after which all steps are at least this deep
    term: Term
    prefix: frozenset  # positions of the stratum term above the depth


@dataclass(frozen=True)
class Pilot:
    trace: object
    strata: tuple

    @cached_property
    def _swept(self):
        """The backward sweep's set at every index up to the deepest
        stratum's.  Epsilon distributes over unions of prefix sets (a path's
        edge word lies in P | Q iff it lies in P or in Q), so one sweep over
        the pilot's own steps, adding each stratum's prefix at its index,
        gives at each index the union of the per-stratum essential sets."""
        at_index = {}
        for st in self.strata:
            if st.prefix:
                at_index.setdefault(st.index, set()).update(st.prefix)
        system = self.trace.system
        last = max(at_index, default=0)
        swept = [frozenset(at_index.get(last, ()))]
        for i in reversed(range(last)):
            step = self.trace.steps[i]
            stage = DevRecord(step.source, step.target, (step.redex,), (step,),
                              system)
            swept.append(epsilon_step(swept[-1], stage)
                         | at_index.get(i, frozenset()))
        swept.reverse()
        return tuple(swept)

    def essential_start_positions(self, start=0):
        """Positions of the pilot's term at index `start` essential for some
        stratum prefix of the suffix from there; by the neededness
        correspondence these are the needed ones.  Strata whose index falls
        before `start` collapse to it, with the positions of that term above
        their depth as prefix."""
        swept = self._swept
        out = swept[start] if start < len(swept) else frozenset()
        collapsed = [st.depth for st in self.strata
                     if st.prefix and st.index < start]
        if collapsed:
            above = positions_to_depth(self.trace.terms[start],
                                       max(collapsed) - 1)
            out = out | frozenset(above)
        return out


def needed_pilot(term, system, depth_goal, fuel):
    """An outermost-fair run re-indexed into depth strata: for every depth d
    up to the goal, an index after which all contractions are below d, the
    term there, and its positions above d."""
    approx, trace = normalize(term, system, OUTERMOST_FAIR, depth_goal, fuel)
    if approx.status in ("divergence-suspected", "fuel-exhausted"):
        raise FuelExhausted("pilot run did not stabilise", approx, trace)
    depths = [len(s.redex.position) for s in trace.steps]
    strata = []
    for d in range(1, depth_goal + 1):
        n_d = 0
        for i in range(len(depths) - 1, -1, -1):
            if depths[i] < d:
                n_d = i + 1
                break
        s_d = trace.terms[n_d]
        prefix = frozenset(p for p in positions_to_depth(s_d, d - 1))
        strata.append(Stratum(d, n_d, s_d, prefix))
    return Pilot(trace, tuple(strata))
