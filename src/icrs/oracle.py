"""Brute-force oracles, implemented independently of the main engine.

Everything here recomputes results the engine derives through its path
machinery or composed step maps, using direct enumeration instead: all
contraction orders of a development, labelled multi-step replays, exhaustive
searches over bounded reduction spaces.  Agreement between the two routes is
what the property suites assert.
"""

from __future__ import annotations

from .errors import DevelopmentExplosion, PositionError, TermError
from .developments import AllRedexes, Path, PathSpace, has_finite_jumps
from .records import Frozen
from .rewriting import Redex, apply_valuation, match, find_redexes, redex_at
from .systems import pattern_meta
from .terms import (
    MetaApp, alpha_eq, iter_tagged, path_nodes, rebuild_path, set_tag_at,
    strip_tags, truncate, with_tag,
)


class OracleReport(Frozen):
    __slots__ = ("claim", "instances", "agreements", "first_disagreement")

    def __init__(self, claim, instances, agreements, first_disagreement=None):
        set_claim, set_instances, set_agreements, set_first = self._set
        set_claim(self, claim)
        set_instances(self, instances)
        set_agreements(self, agreements)
        set_first(self, first_disagreement)

    @property
    def ok(self):
        return self.instances == self.agreements

    def render(self):
        status = "ok" if self.ok else "DISAGREEMENT"
        msg = f"{self.claim}: {self.agreements}/{self.instances} {status}"
        if self.first_disagreement is not None:
            msg += f"\n  witness: {self.first_disagreement}"
        return msg


# ---------------------------------------------------------------------------
# stepwise replay (independent of StepRecord's composed maps)

def _replay_step(term, position, rule):
    """One contraction, preserving node tags: the oracle's own step.  It
    walks down to the position once, matches at the node in hand and
    rebuilds the path above it."""
    try:
        nodes = path_nodes(term, position)
    except (PositionError, TermError):
        nodes = None
    v = None if nodes is None else match(rule, nodes[-1])
    if v is None:
        raise DevelopmentExplosion(
            f"oracle step does not match at {position}")
    return rebuild_path(nodes, position, apply_valuation(v, rule.rhs))[0]


def brute_descendant_map(positions, steps, source=None):
    """Label the positions, replay the steps in the labelled system, read the
    labelled positions off the final term, per position.

    steps: StepRecords (their sources fix the reduction), or (term, specs).
    """
    if source is None:
        source = steps[0].source
        specs = [(s.redex.position, s.redex.rule) for s in steps]
    else:
        specs = list(steps)
    positions = [tuple(p) for p in positions]
    tagged = source
    for i, p in enumerate(positions):
        tagged = set_tag_at(tagged, p, ("o", i))
    for pos, rule in specs:
        tagged = _replay_step(tagged, tuple(pos), rule)
    found, complete = iter_tagged(tagged)
    if not complete:
        raise DevelopmentExplosion("a label landed inside a cycle")
    out = {p: set() for p in positions}
    for q, tag in found:
        out[positions[tag[1]]].add(q)
    return {p: frozenset(qs) for p, qs in out.items()}


def brute_descendants(positions, steps, source=None):
    """Union of the brute-force descendant sets of the positions."""
    out = set()
    for qs in brute_descendant_map(positions, steps, source).values():
        out |= qs
    return out


# ---------------------------------------------------------------------------
# all development orders

class DevelopmentOutcome(Frozen):
    __slots__ = ("finals",           # alpha-distinct final terms (expect exactly one)
                 "descendant_sets",  # distinct probe descendant frozensets
                 "residual_sets",    # distinct probe-redex residual position frozensets
                 "orders")

    def __init__(self, finals, descendant_sets, residual_sets, orders):
        set_finals, set_descendant_sets, set_residual_sets, set_orders = self._set
        set_finals(self, finals)
        set_descendant_sets(self, descendant_sets)
        set_residual_sets(self, residual_sets)
        set_orders(self, orders)


def _add_label(term, p, label):
    """Add a label to the label set of the node at p, walking down once."""
    nodes = path_nodes(term, p)
    node = nodes[-1]
    if isinstance(node, MetaApp):
        raise TermError("cannot tag a meta-variable node")
    tag = (node.tag or frozenset()) | {label}
    return rebuild_path(nodes, p, with_tag(node, tag))[0]


def _labelled(found, kind):
    """Positions whose label set holds a label of the kind."""
    return frozenset(q for q, labels in found
                     if any(label[0] == kind for label in labels))


def all_development_orders(term, redexes, system, cap=4000,
                           probe_positions=(), probe_redexes=()):
    """Contract the redex set to completion in every order, tracking probes
    by labelled replay.  Expected: a single final term (modulo alpha), a
    single descendant set and a single residual set.

    A development state is one labelled term: a node's tag is a frozenset
    of labels, ("o", i) for probe position i, ("r", j) for probe redex j and
    ("u", k) for a pending residual of a redex with rule k.  One replay of a
    pending residual gives the next state together with its pending
    residuals.  States are explored generation by generation (orders of
    equal length side by side), and orders reaching equal labelled terms
    share one state, since equal states have equal futures; each state
    counts the orders reaching it, so `orders` stays the number of
    contraction orders while `cap` bounds the distinct states."""
    rules = list(dict.fromkeys(u.rule for u in redexes))
    start = term
    for i, p in enumerate(probe_positions):
        start = _add_label(start, tuple(p), ("o", i))
    for j, u in enumerate(probe_redexes):
        start = _add_label(start, u.position, ("r", j))
    for u in redexes:
        start = _add_label(start, u.position, ("u", rules.index(u.rule)))

    finals = []
    desc_sets = set()
    res_sets = set()
    orders = 0
    explored = 0
    generation = {start: 1}
    while generation:
        explored += len(generation)
        if explored > cap:
            raise DevelopmentExplosion(f"more than {cap} development states")
        following = {}
        for cur, count in generation.items():
            found, complete = iter_tagged(cur)
            if not complete:
                raise DevelopmentExplosion("a label landed inside a cycle")
            pending = [(q, rules[label[1]]) for q, labels in found
                       for label in labels if label[0] == "u"]
            for q, rule in pending:
                nxt = _replay_step(cur, q, rule)
                following[nxt] = following.get(nxt, 0) + count
            if not pending:
                orders += count
                clean = strip_tags(cur)
                if not any(alpha_eq(clean, f) for f in finals):
                    finals.append(clean)
                desc_sets.add(_labelled(found, "o"))
                res_sets.add(_labelled(found, "r"))
        generation = following
    return DevelopmentOutcome(tuple(finals), tuple(desc_sets),
                              tuple(res_sets), orders)


# ---------------------------------------------------------------------------
# exhaustive neededness

def brute_needed(redex, term, system, bound=10, nf_depth=2, scan_bound=None):
    """'needed' | 'not-needed' | 'unknown' by exhaustive search for a
    reduction to a depth-bounded normal form that avoids every residual of
    the redex.  Such a witness means not needed; exhausting all avoiding
    reductions without one means needed; hitting the length bound leaves the
    question open.

    States that agree up to a generous truncation depth and block the same
    shallow residual positions are identified; at oracle scale (shallow
    patterns, small terms) deeper structure cannot influence the shallow
    normal form."""
    maxl = max((pattern_meta(r.lhs).max_depth() for r in system.rules), default=0)
    scan = scan_bound if scan_bound is not None else nf_depth + maxl + 3
    horizon = nf_depth + 2 * maxl + 3
    start = set_tag_at(term, redex.position, ("u",))

    def u_positions(t):
        found, complete = iter_tagged(t)
        if not complete:
            raise DevelopmentExplosion("a residual landed inside a cycle")
        return {q for q, _ in found}

    def bounded_normal(t):
        return not any(u.depth < nf_depth
                       for u in find_redexes(strip_tags(t), system, scan))

    frontier = [(start, 0)]
    seen = set()
    unknown = False
    while frontier:
        cur, depth = frontier.pop()
        blocked = frozenset(u_positions(cur))
        key = (truncate(strip_tags(cur), horizon),
               frozenset(q for q in blocked if len(q) < horizon))
        if key in seen:
            continue
        seen.add(key)
        if bounded_normal(cur):
            return "not-needed", strip_tags(cur)
        if depth >= bound:
            unknown = True
            continue
        for v in find_redexes(strip_tags(cur), system, scan):
            if v.position in blocked:
                continue
            frontier.append((_replay_step(cur, v.position, v.rule), depth + 1))
    return ("unknown", None) if unknown else ("needed", None)


# ---------------------------------------------------------------------------
# projection injectivity and finite-jumps witnesses

def phi_injectivity_check(term, redexes, system, budget=2000):
    """Projections of distinct enumerated paths never collide.

    Walks the path space once, extending projections incrementally; every
    visited path (maximal or prefix) is registered under its projection.
    A projection is keyed by the number of the projection it extends, its
    last edge and its last label, and numbered in the order first met, so
    no key grows with the path."""
    space = PathSpace(term, redexes, system)
    init = space.initial()
    seen = {(None, None, init.node.label): (0, init)}
    count = 0
    stack = [(init, 0)]
    while stack:
        path, proj = stack.pop()
        count += 1
        if len(path) >= budget:
            continue
        for e, n in space.extensions(path):
            p2 = Path(path, e, n)
            key = (proj, e, n.label)
            hit = seen.get(key)
            if hit is None:
                hit = seen[key] = (len(seen), p2)
            elif hit[1] != p2:
                return OracleReport("phi-injectivity", count, 0, (hit[1], p2))
            stack.append((p2, hit[0]))
    return OracleReport("phi-injectivity", count, count)


def develops_by_exhaustion(term, redexes, system, step_cap=400, depth_horizon=10):
    """Independent complete-development attempt.

    Finite sets go through exhaustive order enumeration.  The set of all
    redexes is developed outermost-residual-first with residual roots kept
    as labels (up to a depth horizon): success when the pending residuals
    run out or their depth floor rises to the horizon (strong convergence),
    failure when the development loops at a stuck depth.
    """
    if isinstance(redexes, AllRedexes):
        cur = term
        for u in find_redexes(term, system, depth_horizon):
            cur = set_tag_at(cur, u.position, ("p",))
        seen = []  # (alpha-class representative, pending floor) pairs
        for _ in range(step_cap):
            found, complete = iter_tagged(cur)
            if not complete:
                return False
            pending = sorted(q for q, _ in found)
            if not pending:
                return True
            p = pending[0]
            if len(p) >= depth_horizon - 2:
                return True  # depth floor rose to the horizon
            clean = strip_tags(cur)
            if any(d == len(p) and alpha_eq(clean, t) for t, d in seen):
                return False
            seen.append((clean, len(p)))
            u = redex_at(clean, system, p)
            if u is None:
                return False
            cur = _replay_step(cur, p, u.rule)
        return False
    try:
        outcome = all_development_orders(term, list(redexes), system,
                                         cap=step_cap * 40)
        return len(outcome.finals) >= 1
    except DevelopmentExplosion:
        return False


def fjp_witness_suite(instances):
    """Run has_finite_jumps against exhaustive development on prepared
    (term, redex set, system) triples."""
    instances = list(instances)
    agreements = 0
    first = None
    for n, (term, redexes, system) in enumerate(instances):
        fjp = has_finite_jumps(term, redexes, system)
        dev = develops_by_exhaustion(term, redexes, system)
        if fjp == dev:
            agreements += 1
        elif first is None:
            first = (n, term, fjp, dev)
    return OracleReport("finite-jumps iff complete development",
                        len(instances), agreements, first)
