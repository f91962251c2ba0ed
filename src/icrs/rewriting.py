"""Matching, substitution, single rewrite steps and descendant tracking.

A step contracts an lhs-instance at a position: the term is rebuilt as
C[instantiated rhs] with the surrounding context kept verbatim (fixed
representatives: grafting never renames, so variables bound by the context
stay bound).  Descendants and residuals are computed by replaying the step on
a copy of the source whose nodes carry labels; rule-side material comes out
unlabelled, substitute bodies keep theirs, and labels of substituted
variables are dropped, so positions in the redex pattern and positions of
redex-bound variables have no descendants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArityMismatch, FiniteChainsViolated, InfiniteResultError, PositionError,
    StaleRedex, TermError, UnassignedMetaVariable,
)
from .systems import Rule
from .terms import (
    Abs, MetaApp, Position, Rec, RecVar, Sym, Term, Var,
    alpha_eq, check_guarded, children, free_recvars, free_vars, fresh_name,
    graft, iter_tagged, resolve, set_tag_at, strip_tags, subterm_at,
)


@dataclass(frozen=True)
class Substitute:
    """n-ary binder: applying to n arguments substitutes them simultaneously."""
    params: tuple
    body: Term

    @property
    def arity(self):
        return len(self.params)


@dataclass(frozen=True)
class Valuation:
    assignment: dict

    def __getitem__(self, z):
        try:
            return self.assignment[z]
        except KeyError:
            raise UnassignedMetaVariable(z) from None

    def __contains__(self, z):
        return z in self.assignment

    def __eq__(self, other):
        return isinstance(other, Valuation) and self.assignment == other.assignment

    def __hash__(self):
        return hash(frozenset(self.assignment.items()))


@dataclass(frozen=True)
class Redex:
    position: Position
    rule: Rule
    valuation: Valuation

    @property
    def depth(self):
        return len(self.position)


# ---------------------------------------------------------------------------
# substitution

def substitute(s, xs, ts):
    """Simultaneous capture-avoiding substitution of ts for the distinct
    variables xs, renaming binders per the variable convention."""
    xs = tuple(xs)
    ts = tuple(ts)
    if len(xs) != len(ts):
        raise ArityMismatch(f"{len(xs)} variables, {len(ts)} terms")
    if len(set(xs)) != len(xs):
        raise ArityMismatch("substituted variables must be distinct")
    return _subst(s, dict(zip(xs, ts)))


def _subst(s, m):
    if not m:
        return s
    match s:
        case Var(x, _):
            return m.get(x, s)
        case Abs(x, body, tag):
            live = {k: v for k, v in m.items() if k != x}
            if not live:
                return s
            incoming = set()
            for v in live.values():
                incoming |= free_vars(v)
            if x in incoming:
                x2 = fresh_name(x, incoming | free_vars(body) | set(live))
                body = _subst(body, {x: Var(x2)})
                x = x2
            return Abs(x, _subst(body, live), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(_subst(a, m) for a in args), tag)
        case MetaApp(z, args):
            return MetaApp(z, tuple(_subst(a, m) for a in args))
        case Rec(v, body):
            incoming = set()
            for t in m.values():
                incoming |= free_recvars(t)
            if v in incoming:
                v2 = fresh_name(v, incoming | free_recvars(body))
                from .terms import _subst_recvar

                body = _subst_recvar(body, v, RecVar(v2))
                v = v2
            return Rec(v, _subst(body, m))
        case _:
            return s


def apply_substitute(sub, args):
    args = tuple(args)
    if len(args) != sub.arity:
        raise ArityMismatch(f"substitute of arity {sub.arity} applied to {len(args)}")
    return substitute(sub.body, sub.params, args)


def apply_valuation(valuation, metaterm):
    """Instantiate a meta-term top-down.  Structural on the rational
    representation, so the result is always rational; producing an unguarded
    cycle (the image of an infinite chain of meta-variables) raises."""
    avoid = set()
    for sub in valuation.assignment.values():
        avoid |= free_vars(sub.body) - set(sub.params)

    def go(t):
        match t:
            case Var(_, _) | RecVar(_):
                return t
            case Abs(x, body, tag):
                if x in avoid:
                    x2 = fresh_name(x, avoid | free_vars(body))
                    body = _subst(body, {x: Var(x2)})
                    x = x2
                return Abs(x, go(body), tag)
            case Sym(f, args, tag):
                return Sym(f, tuple(go(a) for a in args), tag)
            case MetaApp(z, args):
                return apply_substitute(valuation[z], tuple(go(a) for a in args))
            case Rec(v, body):
                return Rec(v, go(body))
        raise TypeError(f"not a meta-term: {t!r}")

    out = go(metaterm)
    try:
        check_guarded(out)
    except TermError as e:
        raise FiniteChainsViolated(str(e)) from e
    return out


# ---------------------------------------------------------------------------
# matching

def match(rule, term, position=()):
    """Match the rule's pattern against the subterm at the position.

    Returns the unique valuation whose lhs-instance is alpha-equal to the
    subterm, or None (also when the position is not in the term).  A
    candidate binding whose free variables would escape through the
    meta-variable's argument list does not match.  Callers that already hold
    the node pass it with the empty position.  A binder of the subterm is
    renamed by its pattern depth (`_b0`, `_b1`, ...), so matching the same
    redex twice gives equal valuations.
    """
    try:
        target = subterm_at(term, position)
    except (PositionError, TermError):
        return None
    assignment = {}

    def go(pat, tm, pairs, scope):
        tm = resolve(tm)
        match pat:
            case MetaApp(z, pargs):
                names = []
                for a in pargs:
                    if a.name not in pairs:
                        return False
                    names.append(pairs[a.name])
                escaped = (free_vars(tm) & set(scope)) - set(names)
                if escaped:
                    return False
                sub = Substitute(tuple(names), tm)
                if z in assignment:
                    old = assignment[z]
                    return old.params == sub.params and alpha_eq(old.body, sub.body)
                assignment[z] = sub
                return True
            case Var(x, _):
                return isinstance(tm, Var) and pairs.get(x) == tm.name
            case Abs(x, pbody, _):
                if not isinstance(tm, Abs):
                    return False
                # skip names free in the subterm (bound by its context)
                z = fresh_name(f"_b{len(scope)}", free_vars(tm) | set(scope))
                tbody = substitute(tm.body, (tm.var,), (Var(z),))
                return go(pbody, tbody, {**pairs, x: z}, scope + (z,))
            case Sym(f, pargs, _):
                return (isinstance(tm, Sym) and tm.fun == f
                        and len(tm.args) == len(pargs)
                        and all(go(pa, ta, pairs, scope)
                                for pa, ta in zip(pargs, tm.args)))
        return False

    if go(rule.lhs, target, {}, ()):
        return Valuation(assignment)
    return None


def find_redexes(term, system, depth_bound):
    """All redexes at depth < depth_bound, ordered by (depth, position) and
    at one position by rule order.  On rational terms the bound keeps the
    enumeration finite; redexes repeating around a cycle appear once per
    distinct position up to the bound.  One breadth-first walk: each node is
    matched where it is reached, against the rules indexed by its root."""
    out = []
    level = [((), term)]
    for depth in range(depth_bound):
        below = []
        for p, t in level:
            node = resolve(t)
            for rule in system.rules_for(node):
                v = match(rule, node)
                if v is not None:
                    out.append(Redex(p, rule, v))
            if depth + 1 < depth_bound:
                below.extend((p + (i,), c) for i, c in children(node))
        level = below
    return out


def redex_at(term, system, p):
    try:
        node = resolve(subterm_at(term, p))
    except (PositionError, TermError):
        return None
    for rule in system.rules_for(node):
        v = match(rule, node)
        if v is not None:
            return Redex(p, rule, v)
    return None


# ---------------------------------------------------------------------------
# steps

@dataclass(frozen=True)
class StepRecord:
    source: Term
    target: Term
    redex: Redex

    def descendant_map(self, positions):
        """position -> frozenset of descendant positions, via labelled replay."""
        positions = [tuple(p) for p in positions]
        tagged = self.source
        for i, p in enumerate(positions):
            tagged = set_tag_at(tagged, p, ("d", i))
        new, _ = _contract_term(tagged, self.redex)
        found, complete = iter_tagged(new)
        if not complete:
            raise InfiniteResultError(
                "a descendant lands inside a cycle; the descendant set is infinite")
        out = {p: set() for p in positions}
        for q, tag in found:
            out[positions[tag[1]]].add(q)
        return {p: frozenset(qs) for p, qs in out.items()}

    def residual_map(self, redexes):
        """redex -> tuple of residual redexes (empty for the contracted one)."""
        redexes = list(redexes)
        desc = self.descendant_map([u.position for u in redexes])
        out = {}
        for u in redexes:
            rs = []
            for q in sorted(desc[u.position]):
                v = match(u.rule, self.target, q)
                if v is None:
                    raise StaleRedex(
                        f"descendant of a redex root is not a {u.rule.name} redex")
                rs.append(Redex(q, u.rule, v))
            out[u] = tuple(rs)
        return out


def _contract_term(term, redex):
    """The graft of the instantiated rhs over the redex, and the valuation
    it was instantiated with; raises StaleRedex when the rule no longer
    matches there."""
    v = match(redex.rule, term, redex.position)
    if v is None:
        raise StaleRedex(
            f"rule {redex.rule.name} does not match at "
            f"{'.'.join(map(str, redex.position)) or '@'}")
    return graft(term, redex.position, apply_valuation(v, redex.rule.rhs)), v


def contract(term, redex):
    """Contract the redex, checking it still matches."""
    target, v = _contract_term(term, redex)
    return StepRecord(term, strip_tags(target), Redex(redex.position, redex.rule, v))


def descendants(positions, step):
    """Union of the per-position descendant sets across a StepRecord or a
    DevRecord."""
    dm = step.descendant_map(positions)
    out = set()
    for qs in dm.values():
        out |= qs
    return out


def residuals(redexes, step):
    """The residuals of the redexes across a StepRecord or a stepwise
    DevRecord, one per position, ordered by position."""
    rm = step.residual_map(redexes)
    out = []
    seen = set()
    for rs in rm.values():
        for r in rs:
            if r.position not in seen:
                seen.add(r.position)
                out.append(r)
    out.sort(key=lambda u: u.position)
    return out
