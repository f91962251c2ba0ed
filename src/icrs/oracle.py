"""Brute-force oracles, implemented independently of the main engine.

Everything here recomputes results the engine derives through its path
machinery or composed step maps, using direct enumeration instead: all
contraction orders of a development, labelled multi-step replays, exhaustive
searches over bounded reduction spaces.  Agreement between the two routes is
what the property suites assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DevelopmentExplosion
from .developments import AllRedexes, Path, PathSpace, has_finite_jumps
from .rewriting import Redex, apply_valuation, match, find_redexes, redex_at
from .systems import rule_meta
from .terms import (
    alpha_eq, graft, iter_tagged, resolve, set_tag_at, strip_tags, truncate,
)


@dataclass(frozen=True)
class OracleReport:
    claim: str
    instances: int
    agreements: int
    first_disagreement: object = None

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
    """One contraction, preserving node tags: the oracle's own step."""
    v = match(rule, term, position)
    if v is None:
        raise DevelopmentExplosion(
            f"oracle step does not match at {position}")
    return graft(term, position, apply_valuation(v, rule.rhs))


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

@dataclass(frozen=True)
class DevelopmentOutcome:
    finals: tuple            # alpha-distinct final terms (expect exactly one)
    descendant_sets: tuple   # distinct probe descendant frozensets
    residual_sets: tuple     # distinct probe-redex residual position frozensets
    orders: int


def all_development_orders(term, redexes, system, cap=4000,
                           probe_positions=(), probe_redexes=()):
    """Contract the redex set to completion in every order, tracking probes
    by labelled replay.  Expected: a single final term (modulo alpha), a
    single descendant set and a single residual set."""
    probe_positions = [tuple(p) for p in probe_positions]
    start = term
    for i, p in enumerate(probe_positions):
        start = set_tag_at(start, p, ("o", i))
    for j, u in enumerate(probe_redexes):
        start = set_tag_at(start, u.position, ("r", j))

    finals = []
    desc_sets = set()
    res_sets = set()
    orders = 0
    explored = 0
    stack = [(start, tuple((u.position, u.rule) for u in redexes))]
    while stack:
        cur, pending = stack.pop()
        explored += 1
        if explored > cap:
            raise DevelopmentExplosion(f"more than {cap} development states")
        if not pending:
            orders += 1
            clean = strip_tags(cur)
            if not any(alpha_eq(clean, f) for f in finals):
                finals.append(clean)
            found, complete = iter_tagged(cur)
            if not complete:
                raise DevelopmentExplosion("a label landed inside a cycle")
            desc_sets.add(frozenset(q for q, t in found if t[0] == "o"))
            res = frozenset(q for q, t in found if t[0] == "r")
            res_sets.add(res)
            continue
        for k, (pos, rule) in enumerate(pending):
            nxt = _replay_step(cur, pos, rule)
            rest = pending[:k] + pending[k + 1:]
            new_pending = []
            for (p2, r2) in rest:
                tagged = set_tag_at(cur, p2, ("tmp",))
                moved = _replay_step(tagged, pos, rule)
                found, complete = iter_tagged(moved)
                if not complete:
                    raise DevelopmentExplosion("a residual landed inside a cycle")
                for q, t in found:
                    if t == ("tmp",):
                        new_pending.append((q, r2))
            stack.append((nxt, tuple(sorted(new_pending, key=lambda x: x[0]))))
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
    maxl = max((rule_meta(r).max_depth() for r in system.rules), default=0)
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
    visited path (maximal or prefix) is registered under its projection."""
    space = PathSpace(term, redexes, system)
    init = space.initial()
    init_proj = (space.node_label(init.nodes, 0),)
    seen = {init_proj: init}
    count = 0
    stack = [(init, init_proj)]
    while stack:
        path, proj = stack.pop()
        count += 1
        if len(path.nodes) >= budget:
            continue
        for e, n in space.extensions(path):
            p2 = Path(path.nodes + (n,), path.edges + (e,))
            label = space.node_label(p2.nodes, len(p2.nodes) - 1)
            proj2 = proj + (e, label)
            other = seen.get(proj2)
            if other is not None and other != p2:
                return OracleReport("phi-injectivity", count, 0, (other, p2))
            seen[proj2] = p2
            stack.append((p2, proj2))
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
