"""Rational terms and meta-terms with binders.

A term is a finite tree over variables, abstractions `[x]t`, symbol
applications `f(t1,..,tn)` and (on rule sides) meta-variable applications
`Z(t1,..,tn)`.  Infinite terms are restricted to rational ones and written
with an explicit cycle binder `rec X. t`; `RecVar` occurrences refer back to
the enclosing binder.  All operations treat a rec binder as invisible: it
contributes no position, and `resolve` unrolls it on demand, so the term *is*
its infinite unfolding for every observation made here.

Positions are tuples of naturals: 0 steps into an abstraction body, 1..n into
arguments.  Depth counts every node, abstractions included.

The optional `tag` field on Var/Abs/Sym carries descendant-tracking labels
through rewrite steps; it is ignored by alpha_eq and by matching, and public
results are stripped of tags.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache

from .errors import NotCycleRoot, PositionError, TermError

Position = tuple

HOLE = "_|_"


class Term:
    """Base of the node classes.

    Nodes are frozen, slotted dataclasses that compare structurally, tags
    included.  Each node is hashed once, when it is built, and keeps the
    value in the `_hash` slot: the hash of the tuple of its fields, which a
    plain frozen dataclass would recompute over the whole subtree on every
    call.  Children are hashed before their parent, so building a node costs
    one hash of its own fields.
    """
    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor, so the hash is taken afresh
        # (string hashes differ between processes)
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _node(cls):
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Term.__hash__
    return cls


_set = object.__setattr__


@_node
class Var(Term):
    name: str
    tag: object = None

    def __post_init__(self):
        _set(self, "_hash", hash((self.name, self.tag)))


@_node
class Abs(Term):
    var: str
    body: Term
    tag: object = None

    def __post_init__(self):
        _set(self, "_hash", hash((self.var, self.body, self.tag)))


@_node
class Sym(Term):
    fun: str
    args: tuple = ()
    tag: object = None

    def __post_init__(self):
        _set(self, "_hash", hash((self.fun, self.args, self.tag)))


@_node
class MetaApp(Term):
    mv: str
    args: tuple = ()

    def __post_init__(self):
        _set(self, "_hash", hash((self.mv, self.args)))


@_node
class Rec(Term):
    var: str
    body: Term

    def __post_init__(self):
        _set(self, "_hash", hash((self.var, self.body)))


@_node
class RecVar(Term):
    name: str

    def __post_init__(self):
        _set(self, "_hash", hash((self.name,)))


def hole():
    return Sym(HOLE, ())


def is_hole(t):
    return isinstance(t, Sym) and t.fun == HOLE


# ---------------------------------------------------------------------------
# rec resolution

def _subst_recvar(t, name, value):
    match t:
        case RecVar(n):
            return value if n == name else t
        case Rec(v, body):
            if v == name:
                return t
            return Rec(v, _subst_recvar(body, name, value))
        case Abs(v, body, tag):
            return Abs(v, _subst_recvar(body, name, value), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(_subst_recvar(a, name, value) for a in args), tag)
        case MetaApp(z, args):
            return MetaApp(z, tuple(_subst_recvar(a, name, value) for a in args))
        case _:
            return t


@lru_cache(maxsize=None)
def _unroll(t):
    return _subst_recvar(t.body, t.var, t)


def resolve(t):
    """Unroll rec binders until the root is a var/abs/sym/meta node."""
    guard = 0
    while isinstance(t, Rec):
        t = _unroll(t)
        guard += 1
        if guard > 10_000:
            raise TermError("unguarded rec cycle at root")
    if isinstance(t, RecVar):
        raise TermError(f"dangling rec variable {t.name}")
    return t


def unfold(t):
    """One-step unrolling of the outermost rec binders (at the root after a
    single unfold, below it after more)."""
    if isinstance(t, Rec):
        return _unroll(t)

    def go(u):
        match u:
            case Rec(_, _):
                return True, _unroll(u)
            case Abs(x, body, tag):
                hit, b2 = go(body)
                return hit, Abs(x, b2, tag)
            case Sym(f, args, tag):
                hits, new = zip(*(go(a) for a in args)) if args else ((), ())
                return any(hits), Sym(f, tuple(new), tag)
            case MetaApp(z, args):
                hits, new = zip(*(go(a) for a in args)) if args else ((), ())
                return any(hits), MetaApp(z, tuple(new))
            case _:
                return False, u

    hit, out = go(t)
    if not hit:
        raise NotCycleRoot("term has no rec binder to unroll")
    return out


def check_guarded(t):
    """Reject cycles that pass through no symbol, abstraction or meta node."""
    def spine(u, name):
        while True:
            match u:
                case RecVar(n):
                    if n == name:
                        raise TermError(f"unguarded cycle through rec {name}")
                    return
                case Rec(v, body):
                    if v == name:
                        return
                    u = body
                case _:
                    return

    def walk(u):
        match u:
            case Rec(v, body):
                spine(body, v)
                walk(body)
            case Abs(_, body):
                walk(body)
            case Sym(_, args) | MetaApp(_, args):
                for a in args:
                    walk(a)
            case _:
                pass

    walk(t)
    return t


# ---------------------------------------------------------------------------
# structure access

def children(t):
    """(step, child) pairs of a resolved node."""
    match t:
        case Abs(_, body):
            return ((0, body),)
        case Sym(_, args) | MetaApp(_, args):
            return tuple((i + 1, a) for i, a in enumerate(args))
        case _:
            return ()


def child_at(t, i):
    t = resolve(t)
    if isinstance(t, Abs):
        if i == 0:
            return t.body
    elif isinstance(t, (Sym, MetaApp)):
        if 1 <= i <= len(t.args):
            return t.args[i - 1]
    raise PositionError(f"no child {i} under {root_label(t)}")


def subterm_at(t, p):
    for i in p:
        t = child_at(t, i)
    return t


def path_nodes(t, p):
    """The resolved nodes from the root down to position p, root first."""
    out = [resolve(t)]
    for i in p:
        out.append(resolve(child_at(out[-1], i)))
    return out


def root_label(t):
    """Display name of the root: f, [x], x, Z."""
    t = resolve(t)
    match t:
        case Var(x):
            return x
        case Abs(x, _):
            return f"[{x}]"
        case Sym(f, _):
            return f
        case MetaApp(z, _):
            return z
    raise TermError("unresolvable node")


def root_key(t):
    """alpha-insensitive root identity used for mirroring checks."""
    t = resolve(t)
    match t:
        case Var(x):
            return ("var", x)
        case Abs(_, _):
            return ("abs",)
        case Sym(f, args):
            return ("sym", f, len(args))
        case MetaApp(z, args):
            return ("meta", z, len(args))
    raise TermError("unresolvable node")


def positions_to_depth(t, d):
    """All positions of depth <= d, mapped to the display root symbol there."""
    out = {}

    def walk(u, p):
        u = resolve(u)
        out[p] = root_label(u)
        if len(p) < d:
            for i, c in children(u):
                walk(c, p + (i,))

    walk(t, ())
    return out


def graft(t, p, s):
    """Replace the subterm at p by s.  No renaming: free variables of s are
    captured by binders on the path, as contexts require."""
    if not p:
        return s
    u = resolve(t)
    i, rest = p[0], p[1:]
    match u:
        case Abs(x, body, tag):
            if i != 0:
                raise PositionError(f"no child {i} under [{x}]")
            return Abs(x, graft(body, rest, s), tag)
        case Sym(f, args, tag):
            if not 1 <= i <= len(args):
                raise PositionError(f"no child {i} under {f}")
            new = list(args)
            new[i - 1] = graft(args[i - 1], rest, s)
            return Sym(f, tuple(new), tag)
        case MetaApp(z, args):
            if not 1 <= i <= len(args):
                raise PositionError(f"no child {i} under {z}")
            new = list(args)
            new[i - 1] = graft(args[i - 1], rest, s)
            return MetaApp(z, tuple(new))
    raise PositionError(f"no child {i} at leaf")


# ---------------------------------------------------------------------------
# variables

@lru_cache(maxsize=None)
def free_vars(t):
    match t:
        case Var(x):
            return frozenset((x,))
        case Abs(x, body):
            return free_vars(body) - {x}
        case Sym(_, args) | MetaApp(_, args):
            out = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
        case Rec(_, body):
            return free_vars(body)
        case _:
            return frozenset()


@lru_cache(maxsize=None)
def free_recvars(t):
    match t:
        case RecVar(n):
            return frozenset((n,))
        case Rec(v, body):
            return free_recvars(body) - {v}
        case Abs(_, body):
            return free_recvars(body)
        case Sym(_, args) | MetaApp(_, args):
            out = frozenset()
            for a in args:
                out |= free_recvars(a)
            return out
        case _:
            return frozenset()


@lru_cache(maxsize=None)
def has_vars(t):
    """Does any variable node occur at all (bound or free)?"""
    match t:
        case Var(_, _):
            return True
        case Abs(_, body, _) | Rec(_, body):
            return has_vars(body)
        case Sym(_, args, _) | MetaApp(_, args):
            return any(has_vars(a) for a in args)
        case _:
            return False


@lru_cache(maxsize=None)
def meta_vars(t):
    match t:
        case MetaApp(z, args):
            out = frozenset((z,))
            for a in args:
                out |= meta_vars(a)
            return out
        case Abs(_, body) | Rec(_, body):
            return meta_vars(body)
        case Sym(_, args):
            out = frozenset()
            for a in args:
                out |= meta_vars(a)
            return out
        case _:
            return frozenset()


def is_plain_term(t):
    """True iff no meta-variable node occurs (a term, not a meta-term)."""
    return not meta_vars(t)


def fresh_name(base, used):
    if base not in used:
        return base
    stem = base.rstrip("0123456789")
    k = 1
    while f"{stem}{k}" in used:
        k += 1
    return f"{stem}{k}"


# ---------------------------------------------------------------------------
# alpha-equivalence: bisimulation on the rational unfoldings

def _env_restrict(env, fva, fvb):
    """Keep the latest pair per name, restricted to the visible free vars."""
    kept = []
    seen_a, seen_b = set(), set()
    for x, y in reversed(env):
        want = (x in fva and x not in seen_a) or (y in fvb and y not in seen_b)
        if want:
            kept.append((x, y))
        seen_a.add(x)
        seen_b.add(y)
    return tuple(reversed(kept))


def _env_lookup(env, x, y):
    for a, b in reversed(env):
        if a == x or b == y:
            return a == x and b == y
    return x == y


def alpha_eq(t, u):
    """Bisimilarity of the unfoldings under consistent binder renaming."""
    assumed = set()

    def go(a, b, env):
        a, b = resolve(a), resolve(b)
        env = _env_restrict(env, free_vars(a), free_vars(b))
        key = (a, b, env)
        if key in assumed:
            return True
        assumed.add(key)
        match a, b:
            case Var(x, _), Var(y, _):
                return _env_lookup(env, x, y)
            case Abs(x, s, _), Abs(y, v, _):
                return go(s, v, env + ((x, y),))
            case Sym(f, xs, _), Sym(g, ys, _):
                return (
                    f == g
                    and len(xs) == len(ys)
                    and all(go(p, q, env) for p, q in zip(xs, ys))
                )
            case MetaApp(z, xs), MetaApp(w, ys):
                return (
                    z == w
                    and len(xs) == len(ys)
                    and all(go(p, q, env) for p, q in zip(xs, ys))
                )
            case _:
                return False

    return go(t, u, ())


def truncate(t, d):
    """The finite approximation that agrees with t strictly above depth d and
    has a hole at every depth-d cut point."""
    if d == 0:
        return hole()
    u = resolve(t)
    match u:
        case Abs(x, body, tag):
            return Abs(x, truncate(body, d - 1), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(truncate(a, d - 1) for a in args), tag)
        case MetaApp(z, args):
            return MetaApp(z, tuple(truncate(a, d - 1) for a in args))
        case _:
            return u


def distance(t, u):
    """0 if alpha-equivalent, else 2^-k with k the least depth where the
    truncations differ modulo alpha."""
    if alpha_eq(t, u):
        return Fraction(0)
    k = 0
    while alpha_eq(truncate(t, k + 1), truncate(u, k + 1)):
        k += 1
        if k > 10_000:
            raise TermError("distance: no finite difference found")
    return Fraction(1, 2 ** k)


def is_prefix_set(positions, t):
    """Is the set prefix-closed and made of positions of t?  Positions are
    visited shortest first, and each is reached by one step from its
    parent's node (which a prefix set must contain)."""
    nodes = {}
    for p in sorted(set(map(tuple, positions)), key=len):
        if not p:
            nodes[p] = t
            continue
        parent = nodes.get(p[:-1])
        if parent is None:
            return False
        try:
            nodes[p] = child_at(parent, p[-1])
        except PositionError:
            return False
    return True


def prefix_closure(positions):
    out = set()
    for p in positions:
        p = tuple(p)
        for i in range(len(p) + 1):
            out.add(p[:i])
    return frozenset(out)


# ---------------------------------------------------------------------------
# descendant-tracking tags

def strip_tags(t):
    """The term without tags; a node with no tag at or below it comes back
    as the very same object, so untagged subterms are shared, not copied."""
    match t:
        case Var(x, tag):
            return Var(x) if tag is not None else t
        case Abs(x, body, tag):
            new = strip_tags(body)
            return t if tag is None and new is body else Abs(x, new)
        case Sym(f, args, tag):
            new = tuple(map(strip_tags, args))
            if tag is None and all(map(operator.is_, new, args)):
                return t
            return Sym(f, new)
        case MetaApp(z, args):
            new = tuple(map(strip_tags, args))
            return t if all(map(operator.is_, new, args)) else MetaApp(z, new)
        case Rec(v, body):
            new = strip_tags(body)
            return t if new is body else Rec(v, new)
        case _:
            return t


def set_tag_at(t, p, tag):
    node = resolve(subterm_at(t, p))
    if isinstance(node, MetaApp):
        raise TermError("cannot tag a meta-variable node")
    return graft(t, p, replace(node, tag=tag))


def iter_tagged(t):
    """(position, tag) pairs of all tagged nodes.

    Returns (pairs, complete).  complete is False when a tagged node sits
    inside a cycle, i.e. the true position set is infinite; pairs then lists
    one representative occurrence per path into the cycle.  A path goes
    round a cycle when it meets again a rec binder it already passed:
    unrolling a cycle re-inserts the very same Rec object, so identity tells
    it.
    """
    out = []
    complete = True
    on_path = set()  # ids of the Rec nodes on the current path
    tagged = {}  # id(node) -> (node, is a tag inside); holding the node keeps its id

    def has_tags(u):
        hit = tagged.get(id(u))
        if hit is None:
            match u:
                case Var(_, tag) | Abs(_, _, tag) | Sym(_, _, tag) if tag is not None:
                    found = True
                case Abs(_, body, _) | Rec(_, body):
                    found = has_tags(body)
                case Sym(_, args, _) | MetaApp(_, args):
                    found = any(has_tags(a) for a in args)
                case _:
                    found = False
            hit = tagged[id(u)] = (u, found)
        return hit[1]

    def walk(u, p):
        nonlocal complete
        r = resolve(u)
        if not has_tags(r):
            return
        if isinstance(u, Rec):
            if id(u) in on_path:
                complete = False
                return
            on_path.add(id(u))
        tag = getattr(r, "tag", None)
        if tag is not None:
            out.append((p, tag))
        for i, c in children(r):
            walk(c, p + (i,))
        if isinstance(u, Rec):
            on_path.remove(id(u))

    walk(t, ())
    return out, complete
