"""Matching, substitution, single rewrite steps and descendant tracking.

A step contracts an lhs-instance at a position: the term is rebuilt as
C[instantiated rhs] with the surrounding context kept verbatim (fixed
representatives: grafting never renames, so variables bound by the context
stay bound).  Only the path down to the redex is rebuilt; the target shares
every other subterm with the source.  Descendants of positions below the
redex are computed by replaying the step on a copy of the redex subterm
whose nodes carry labels; rule-side material comes out unlabelled,
substitute bodies keep theirs, and labels of substituted variables are
dropped, so positions in the redex pattern and positions of redex-bound
variables have no descendants.  An occurrence of a binder renamed to avoid
capture is renamed, not substituted, and keeps its label.

That part of a step reads only the redex node and the rule, and a run of a
rational term contracts the same node again one depth further each time, so
a run computes it once per (redex node, rule) (`Contraction`): the labelled
replay runs once per node, rule and position below the redex in a run.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left

from .errors import (
    ArityMismatch, FiniteChainsViolated, InfiniteResultError, PositionError,
    PreconditionViolated, StaleRedex, TermError, UnassignedMetaVariable,
)
from .records import Frozen
from .terms import (
    Abs, MetaApp, Rec, RecVar, Sym, Var,
    alpha_eq, check_guarded, children, free_recvars, free_vars, fresh_name,
    iter_tagged, match_memo, path_nodes, position_str, rebuild, rebuild_path,
    resolve, set_tag_at, subst_recvar, subterm_at,
)


class Substitute(Frozen):
    """n-ary binder: applying to n arguments substitutes them simultaneously."""
    __slots__ = ("params", "body")

    def __init__(self, params, body):
        set_params, set_body = self._set
        set_params(self, params)
        set_body(self, body)

    @property
    def arity(self):
        return len(self.params)


class Valuation(Frozen):
    __slots__ = ("assignment", "__weakref__")

    def __init__(self, assignment):
        self._set[0](self, assignment)

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


class Redex(Frozen):
    __slots__ = ("position", "rule", "valuation")

    def __init__(self, position, rule, valuation):
        set_position, set_rule, set_valuation = self._set
        set_position(self, position)
        set_rule(self, rule)
        set_valuation(self, valuation)

    def __hash__(self):
        # equal redexes have equal positions and rules; hashing the
        # valuation would hash every substitute
        return hash((self.position, self.rule))

    @property
    def depth(self):
        return len(self.position)


def redex_trie(redexes):
    """The trie of the redexes' positions: each entry is [the redex rooted
    there or None, {child index: entry}]."""
    trie = [None, {}]
    for u in redexes:
        entry = trie
        for i in u.position:
            entry = entry[1].setdefault(i, [None, {}])
        entry[0] = u
    return trie


# ---------------------------------------------------------------------------
# substitution

# the tag of a map entry that renames a variable rather than substituting
# for it: the renamed occurrence keeps its own tag
_RENAMED = object()


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
    return rebuild(s, _subst_enter, m) if m else s


def _rename(s, x, x2):
    """s with the free occurrences of x renamed to x2, tags kept."""
    return _subst(s, {x: Var(x2, _RENAMED)})


def _subst_enter(u, m):
    """`rebuild`'s step of the substitution m: a node with no substituted
    variable free comes back as it is, so no binder under which nothing is
    substituted is renamed.  A binder that would capture a free variable of
    an incoming value is renamed within the same map."""
    if free_vars(u).isdisjoint(m):
        return u
    cls = u.__class__
    if cls is Var:
        v = m[u.name]
        if v.__class__ is Var and v.tag is _RENAMED:
            return Var(v.name, u.tag)
        return v
    if cls is Abs:
        x = u.var
        if x in m:
            m = {k: v for k, v in m.items() if k != x}
        incoming = set().union(*map(free_vars, m.values()))
        if x in incoming:
            x2 = fresh_name(x, incoming | free_vars(u.body) | set(m))
            return Abs(x2, u.body, u.tag), {**m, x: Var(x2, _RENAMED)}
    elif cls is Rec:
        incoming = set().union(*map(free_recvars, m.values()))
        if u.var in incoming:
            v2 = fresh_name(u.var, incoming | free_recvars(u.body))
            return Rec(v2, subst_recvar(u.body, u.var, RecVar(v2))), m
    return u, m


def apply_substitute(sub, args):
    args = tuple(args)
    if len(args) != sub.arity:
        raise ArityMismatch(f"substitute of arity {sub.arity} applied to {len(args)}")
    return substitute(sub.body, sub.params, args)


# meta-term -> (its plan, or None when the plan is the meta-term itself,
# and whether it has a rec binder); weak, as a rule side's plan lives as
# long as the rule side
_plans = weakref.WeakKeyDictionary()


def _plan(metaterm):
    """The instantiation plan of a meta-term, built once, and whether the
    meta-term has a rec binder."""
    entry = _plans.get(metaterm)
    if entry is None:
        entry = _plans[metaterm] = _build_plan(metaterm)
    plan, has_rec = entry
    return (metaterm if plan is None else plan), has_rec


def _build_plan(t):
    """The plan of each node, made bottom-up over an explicit stack: a
    subterm with no meta-variable or abstraction below it is its own plan,
    as instantiation gives it back unchanged; otherwise a tuple headed by
    the node's class, `(Sym, f, arg plans, tag)`, `(MetaApp, Z, arg plans)`,
    `(Abs, x, body, body plan, tag)` or `(Rec, X, body plan)`.  The root's
    plan is None when it is the root itself, so no plan holds its key."""
    done = {}
    has_rec = False
    todo = [t]
    while todo:
        u = todo[-1]
        if u in done:
            todo.pop()
            continue
        cls = u.__class__
        if cls is Sym or cls is MetaApp:
            kids = u.args
        elif cls is Abs or cls is Rec:
            kids = (u.body,)
        elif cls is Var or cls is RecVar:
            kids = ()
        else:
            raise TypeError(f"not a meta-term: {u!r}")
        waiting = [c for c in kids if c not in done]
        if waiting:
            todo.extend(waiting)
            continue
        todo.pop()
        plans = tuple(done[c] for c in kids)
        if cls is MetaApp:
            done[u] = (MetaApp, u.mv, plans)
        elif cls is Abs:
            done[u] = (Abs, u.var, u.body, plans[0], u.tag)
        elif plans == kids:  # nodes compare by identity
            done[u] = u
        elif cls is Sym:
            done[u] = (Sym, u.fun, plans, u.tag)
        else:
            done[u] = (Rec, u.var, plans[0])
        has_rec = has_rec or cls is Rec
    plan = done[t]
    return (None if plan is t else plan), has_rec


def apply_valuation(valuation, metaterm):
    """Instantiate a meta-term top-down by its plan (`_build_plan`), made
    once per meta-term and kept as long as the meta-term lives, so only the
    nodes on the way to a meta-variable or an abstraction are rebuilt.
    Structural on the rational representation, so the result is always
    rational; producing an unguarded cycle (the image of an infinite chain
    of meta-variables) raises.

    The names to rename binders away from are gathered only when an
    abstraction is reached.  The result is checked for unguarded cycles
    only when the meta-term has a rec binder: substitute bodies bound by
    `match` are subterms of resolved nodes, so they are guarded and have no
    free rec variables, and an instance built round them with no cycle of
    its own has no new one."""
    plan, has_rec = _plan(metaterm)
    assignment = valuation.assignment
    avoid = None

    def go(p):
        nonlocal avoid
        if p.__class__ is not tuple:
            return p
        cls = p[0]
        if cls is MetaApp:
            z, args = p[1], p[2]
            sub = assignment.get(z)
            if sub is None:
                raise UnassignedMetaVariable(z)
            params = sub.params
            if not args and not params:
                return sub.body
            args = [go(a) for a in args]
            n = len(params)
            if len(args) != n:
                raise ArityMismatch(f"substitute of arity {n} applied to {len(args)}")
            if n > 1 and len(set(params)) != n:
                raise ArityMismatch("substituted variables must be distinct")
            return _subst(sub.body, dict(zip(params, args)))
        if cls is Sym:
            return Sym(p[1], tuple([go(a) for a in p[2]]), p[3])
        if cls is Abs:
            x, body, inner = p[1], p[2], p[3]
            if avoid is None:
                avoid = set().union(*(free_vars(sub.body) - set(sub.params)
                                      for sub in assignment.values()))
            if x in avoid:
                x2 = fresh_name(x, avoid | free_vars(body))
                inner = _plan(_rename(body, x, x2))[0]
                x = x2
            return Abs(x, go(inner), p[4])
        return Rec(p[1], go(p[2]))

    try:
        out = go(plan)
    finally:
        del go  # the closure refers to itself: no cycle outlives the call
    if has_rec:
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
    the node pass it with the empty position.  A binder of the subterm keeps
    its own name, so the valuation depends on the node alone and matching
    the same redex twice gives equal valuations.  A binder is renamed (to
    `_b<pattern depth>`, skipping names free in the subterm) only when it
    shadows an earlier binder of the same match, so that each pattern binder
    stands for one name.

    The result is kept on the resolved node by `rule.ref`, which does not
    keep the rule alive (`match_memo`), and dropped on a later miss at the
    node once the rule has died: False for no match, else the
    valuation itself, unless the match unrolled a rec binder, and then a
    weak reference to it.  A match that unrolled nothing binds subterms of
    the node and renamings of them, none of which can hold the node; one
    that unrolled a binder can bind an unrolling with the node as a subterm
    (see `Term`)."""
    if position:
        try:
            term = subterm_at(term, position)
        except (PositionError, TermError):
            return None
    cls = term.__class__
    node = resolve(term) if cls is Rec or cls is RecVar else term
    memo = match_memo(node)
    v = memo.get(rule.ref)
    if v.__class__ is weakref.ref:
        v = v()  # None when it died
    if v is None:
        if memo:  # a rule that died leaves its key: drop them all
            for ref in [ref for ref in memo if ref() is None]:
                del memo[ref]
        v, unrolled = _match_node(rule, node)
        memo[rule.ref] = False if v is None else weakref.ref(v) if unrolled else v
    return v or None


def _match_node(rule, node):
    """The valuation of the rule's pattern at the resolved node, or None,
    and whether the walk unrolled a rec binder to get there."""
    assignment = {}
    unrolled = False

    def go(pat, tm, pairs, scope):
        nonlocal unrolled
        cls = tm.__class__
        if cls is Rec or cls is RecVar:
            tm = resolve(tm)
            cls = tm.__class__
            unrolled = True
        pcls = pat.__class__
        if pcls is Sym:
            if cls is not Sym or tm.fun != pat.fun or len(tm.args) != len(pat.args):
                return False
            for pa, ta in zip(pat.args, tm.args):
                if not go(pa, ta, pairs, scope):
                    return False
            return True
        if pcls is MetaApp:
            names = tuple(pairs.get(a.name) for a in pat.args)
            if None in names:
                return False
            # only a pattern binder's variable can escape
            if scope:
                fv = free_vars(tm)
                if fv and any(x in fv and x not in names for x in scope):
                    return False
            old = assignment.get(pat.mv)
            if old is not None:
                return old.params == names and alpha_eq(old.body, tm)
            assignment[pat.mv] = Substitute(names, tm)
            return True
        if pcls is Abs:
            if cls is not Abs:
                return False
            z, tbody = tm.var, tm.body
            if z in scope:
                # skip names free in the subterm (bound by its context)
                z = fresh_name(f"_b{len(scope)}", free_vars(tm) | set(scope))
                tbody = _rename(tbody, tm.var, z)
            return go(pat.body, tbody, {**pairs, pat.var: z}, scope + (z,))
        if pcls is Var:
            return cls is Var and pairs.get(pat.name) == tm.name
        return False

    try:
        found = go(rule.lhs, node, {}, ())
    finally:
        del go  # the closure refers to itself: no cycle outlives the call
    return (Valuation(assignment) if found else None), unrolled


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


def cut_scan(scan, bound):
    """The redexes at depth < bound of a scan ordered by depth, as
    `find_redexes` orders them."""
    return scan[:bisect_left(scan, bound, key=lambda u: u.depth)]


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


def step_redex(term, system, position, rule):
    """The redex of a step given by its position and its rule or rule name."""
    position = tuple(position)
    if isinstance(rule, str):
        rule = system.rule(rule)
    v = match(rule, term, position)
    if v is None:
        raise PreconditionViolated(
            f"no {rule.name} redex at {position_str(position)}")
    return Redex(position, rule, v)


# ---------------------------------------------------------------------------
# steps

def _disjoint(q, p):
    """Neither position is a prefix of the other."""
    n = min(len(q), len(p))
    return q[:n] != p[:n]


class Contraction:
    """The part of a step that reads only the redex node and the rule, the
    valuation being the node's match: the contractum; its redexes, relative
    to it, scanned at the deepest `bound` asked so far and cut by depth for
    a shallower one; and the relative descendant positions of each relative
    position below the redex asked for so far.  A run keeps one per (redex
    node, rule), shared by every step contracting the pair."""
    __slots__ = ("contractum", "scan", "bound", "images")

    def __init__(self, contractum):
        self.contractum = contractum
        self.scan = []
        self.bound = 0
        self.images = {}  # relative position -> frozenset of relative positions

    def redexes(self, system, bound):
        if bound > self.bound:
            self.scan = find_redexes(self.contractum, system, bound)
            self.bound = bound
        return cut_scan(self.scan, bound)


class StepRecord(Frozen, compare=("source", "target", "redex")):
    """One contraction.  `path` holds the resolved nodes of the source from
    the root down to the redex, `target_path` the nodes of the target from
    the root down to the contractum; the target shares every subterm off
    that path with the source, so everything a step changes is reached from
    these nodes.  `local` is the step's `Contraction`, shared with every
    step of the run that contracts the same node by the same rule.

    In an orthogonal, fully-extended system a position disjoint from the
    redex keeps its subterm, and one above it keeps its pattern, because the
    redex lies in one of its meta-variable arguments (Huet & Levy,
    "Computations in orthogonal rewriting systems", 1991; Klop, van Oostrom
    & van Raamsdonk, "Combinatory reduction systems: introduction and
    survey", 1993).  Only positions below the redex are replayed, labelled
    in the redex subterm alone, so the replay runs once per redex node,
    rule and relative position in a run; shifting the images to the
    redex's position and matching ancestors again are the step's own."""
    __slots__ = ("source", "target", "redex", "path", "target_path", "local")

    def __init__(self, source, target, redex, path, target_path, local):
        (set_source, set_target, set_redex, set_path, set_target_path,
         set_local) = self._set
        set_source(self, source)
        set_target(self, target)
        set_redex(self, redex)
        set_path(self, path)
        set_target_path(self, target_path)
        set_local(self, local)

    def descendant_map(self, positions):
        """position -> frozenset of descendant positions.  A position
        disjoint from the redex or above it is its own descendant and the
        redex position has none; those below it are labelled in the redex
        subterm alone, which is contracted again, for the positions the
        step's `Contraction` has no image of yet."""
        p = self.redex.position
        n = len(p)
        out = dict.fromkeys(map(tuple, positions))
        below = []
        for q in out:
            if q[:n] != p:
                # the position must be in the source, as a label placed there
                k = next((k for k, i in enumerate(q) if i != p[k]), len(q))
                if isinstance(path_nodes(self.path[k], q[k:])[-1], MetaApp):
                    raise TermError("cannot tag a meta-variable node")
                out[q] = frozenset((q,))
            elif len(q) == n:
                out[q] = frozenset()
            else:
                below.append(q)
        images = self.local.images
        missing = [q[n:] for q in below if q[n:] not in images]
        if missing:
            tagged = self.path[-1]
            for i, r in enumerate(missing):
                tagged = set_tag_at(tagged, r, i)
            rule = self.redex.rule
            v = match(rule, tagged)
            if v is None:
                raise StaleRedex(f"rule {rule.name} does not match the labelled redex")
            found, complete = iter_tagged(apply_valuation(v, rule.rhs))
            if not complete:
                raise InfiniteResultError(
                    "a descendant lands inside a cycle; the descendant set is infinite")
            descs = [set() for _ in missing]
            for r, i in found:
                descs[i].add(r)
            images.update(zip(missing, map(frozenset, descs)))
        out.update((q, frozenset([p + r for r in images[q[n:]]])) for q in below)
        return out

    def residual_map(self, redexes):
        """redex -> tuple of residual redexes (empty for the contracted one),
        for redexes of the source.  A redex disjoint from the contracted one
        is its own residual, its subterm being the very same object in the
        target; one above it is matched again at the rebuilt node at its
        position; those below it are matched at their descendants, inside
        the contractum."""
        p = self.redex.position
        n = len(p)
        out = dict.fromkeys(redexes)
        below = []
        for u in out:
            q = u.position
            if _disjoint(q, p):
                out[u] = (u,)
            elif len(q) < n:
                out[u] = (_residual(u.rule, self.target_path[len(q)], (), q),)
            elif len(q) == n:
                out[u] = ()
            else:
                below.append(u)
        if below:
            desc = self.descendant_map([u.position for u in below])
            contractum = self.target_path[-1]
            for u in below:
                out[u] = tuple(_residual(u.rule, contractum, q[n:], q)
                               for q in sorted(desc[u.position]))
        return out

    def target_redexes(self, redexes, system, depth_bound):
        """The redexes of the target at depth < depth_bound, ordered as
        `find_redexes` orders them, given `redexes`, those of the source at
        the same bound.  Those disjoint from the contracted position are
        kept, the ancestors of it are matched again at the rebuilt nodes,
        and only the contractum is scanned, once per bound by its
        `Contraction`: new redexes appear nowhere else."""
        p = self.redex.position
        n = len(p)
        out = [u for u in redexes if _disjoint(u.position, p)]
        for k, node in enumerate(self.target_path[:min(n, depth_bound)]):
            for rule in system.rules_for(node):
                v = match(rule, node)
                if v is not None:
                    out.append(Redex(p[:k], rule, v))
        out.extend(Redex(p + u.position, u.rule, u.valuation)
                   for u in self.local.redexes(system, depth_bound - n))
        # stable: at one position the redexes come from one part, in rule order
        out.sort(key=lambda u: (len(u.position), u.position))
        return out


def _residual(rule, node, r, q):
    v = match(rule, node, r)
    if v is None:
        raise StaleRedex(f"descendant of a redex root is not a {rule.name} redex")
    return Redex(q, rule, v)


def contract(term, redex, table=None):
    """Contract the redex, checking it still matches: one walk down to the
    redex, the match at the node in hand, and the path rebuilt over the
    contractum.  The step's `Contraction` is the one the dict `table` holds
    for the redex node and rule, a run's own, or a fresh one, kept there."""
    p = redex.position
    try:
        path = path_nodes(term, p)
    except (PositionError, TermError):
        v = None
    else:
        v = match(redex.rule, path[-1])
    if v is None:
        raise StaleRedex(
            f"rule {redex.rule.name} does not match at "
            f"{'.'.join(map(str, p)) or '@'}")
    table = {} if table is None else table
    local = table.get((path[-1], redex.rule))
    if local is None:
        local = table[path[-1], redex.rule] = Contraction(
            apply_valuation(v, redex.rule.rhs))
    target_path = rebuild_path(path, p, local.contractum)
    return StepRecord(term, target_path[0], Redex(p, redex.rule, v),
                      tuple(path), tuple(target_path), local)


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
