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

import weakref

from .errors import NotCycleRoot, PositionError, TermError

Position = tuple


def position_str(p):
    return "@" if not p else ".".join(str(i) for i in p)

HOLE = "_|_"


class Term:
    """Base of the node classes.

    Nodes are hash-consed (Filliatre & Conchon, "Type-safe modular
    hash-consing", 2006): a constructor call returns the one live node with
    those fields, so structurally equal nodes, tags included, are one
    object, equality is identity, and so is the hash; sets and dicts of
    nodes iterate in an order that depends on addresses, and no output
    depends on it (`tests/test_determinism.py`).  Each class's intern table
    holds its nodes weakly, under their fields.

    `_fill` sets a new node's fields and its summaries, made from its
    children's, so none needs a walk and each dies with its node: `_tagged`
    (a tag occurs at or below it), `_free` and `_free_rec` (free variables
    and rec variables; closed nodes share one empty set, and a node shares
    a child's set equal to its own) and `_has_vars` (a variable occurs).
    Two memos start empty: match results (`match_memo`) and a `Rec`'s
    unrolling (`_unrolled`).  A table key holds its node's children, so a
    memo must not keep strongly what has the node as a subterm, or both
    nodes stay for good.  The unrolling has the `Rec` as a child and is
    kept weakly; a match result is kept strongly unless the match unrolled
    a rec binder (see `rewriting.match`).
    """
    __slots__ = ("_tagged", "_free", "_free_rec", "_has_vars", "_matches",
                 "_unrolled", "__weakref__")

    def __reduce__(self):
        # rebuild through the constructor, which interns the copy
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Entry(weakref.ref):
    """An intern-table entry: a weak reference to a node, with the node's
    fields, under which the entry is filed."""
    __slots__ = ("key",)


def _node(cls):
    """Give the node class, whose field slots are its `__match_args__`, an
    intern table.  The class's `_filler` is given the setters of its field
    slots, in field order, and returns its `_fill`, which sets a new node's
    fields through them, as a frozen class must, and its summaries by
    `_summarise`."""
    cls._fill = staticmethod(cls._filler(
        *(cls.__dict__[name].__set__ for name in cls.__match_args__)))
    table = {}

    def drop(entry):
        # a node that died may have been replaced by a new one already
        if table.get(entry.key) is entry:
            del table[entry.key]

    cls._table, cls._drop = table, drop
    return cls


_NONE = frozenset()
_set_tagged, _set_free, _set_free_rec, _set_has_vars, _set_matches, \
    _set_unrolled = (Term.__dict__[name].__set__ for name in Term.__slots__[:6])


def _summarise(node, tagged, free, free_rec, has_vars):
    _set_tagged(node, tagged)
    _set_free(node, free)
    _set_free_rec(node, free_rec)
    _set_has_vars(node, has_vars)
    _set_matches(node, None)


def _intern(cls, key):
    """The live node of class cls whose fields are `key`, built if there is
    none."""
    table = cls._table
    entry = table.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    node = object.__new__(cls)
    cls._fill(node, *key)
    entry = table[key] = _Entry(node, cls._drop)
    entry.key = key
    return node


def _without(names, x):
    return names - {x} or _NONE if x in names else names


def _summarise_args(node, args, tagged):
    """Set the summaries of a node with the children args from theirs."""
    free = free_rec = _NONE
    has_vars = False
    for a in args:
        tagged = tagged or a._tagged
        has_vars = has_vars or a._has_vars
        if not a._free <= free:
            free = free | a._free if free else a._free
        if not a._free_rec <= free_rec:
            free_rec = free_rec | a._free_rec if free_rec else a._free_rec
    _summarise(node, tagged, free, free_rec, has_vars)


@_node
class Var(Term):
    __slots__ = __match_args__ = ("name", "tag")

    def __new__(cls, name, tag=None):
        return _intern(cls, (name, tag))

    @staticmethod
    def _filler(set_name, set_tag):
        def fill(node, name, tag):
            set_name(node, name)
            set_tag(node, tag)
            _summarise(node, tag is not None, frozenset((name,)), _NONE, True)
        return fill


@_node
class Abs(Term):
    __slots__ = __match_args__ = ("var", "body", "tag")

    def __new__(cls, var, body, tag=None):
        return _intern(cls, (var, body, tag))

    @staticmethod
    def _filler(set_var, set_body, set_tag):
        def fill(node, var, body, tag):
            set_var(node, var)
            set_body(node, body)
            set_tag(node, tag)
            _summarise(node, tag is not None or body._tagged,
                       _without(body._free, var), body._free_rec, body._has_vars)
        return fill


@_node
class Sym(Term):
    __slots__ = __match_args__ = ("fun", "args", "tag")

    def __new__(cls, fun, args=(), tag=None):
        return _intern(cls, (fun, args, tag))

    @staticmethod
    def _filler(set_fun, set_args, set_tag):
        def fill(node, fun, args, tag):
            set_fun(node, fun)
            set_args(node, args)
            set_tag(node, tag)
            _summarise_args(node, args, tag is not None)
        return fill


@_node
class MetaApp(Term):
    __slots__ = __match_args__ = ("mv", "args")

    def __new__(cls, mv, args=()):
        return _intern(cls, (mv, args))

    @staticmethod
    def _filler(set_mv, set_args):
        def fill(node, mv, args):
            set_mv(node, mv)
            set_args(node, args)
            _summarise_args(node, args, False)
        return fill


@_node
class Rec(Term):
    __slots__ = __match_args__ = ("var", "body")

    def __new__(cls, var, body):
        return _intern(cls, (var, body))

    @staticmethod
    def _filler(set_var, set_body):
        def fill(node, var, body):
            set_var(node, var)
            set_body(node, body)
            _summarise(node, body._tagged, body._free,
                       _without(body._free_rec, var), body._has_vars)
            _set_unrolled(node, None)
        return fill


@_node
class RecVar(Term):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name):
        return _intern(cls, (name,))

    @staticmethod
    def _filler(set_name):
        def fill(node, name):
            set_name(node, name)
            _summarise(node, False, _NONE, frozenset((name,)), False)
        return fill


def hole():
    return Sym(HOLE, ())


# ---------------------------------------------------------------------------
# the term map

def rebuild(t, enter, ctx=None, keep_tags=True):
    """Map the term t bottom-up over an explicit stack, so deep terms are
    mapped too.  `enter(u, ctx)` gives either u's image, a Term, or a pair
    (v, ctx'): v's children, a `Rec` body included, are then mapped under
    ctx', leftmost first, and v's class is rebuilt over their images, with
    v's tag unless keep_tags is false.  Work stack entries are (node, ctx)
    pairs to enter, and bare nodes to rebuild once their children are done;
    `out` holds finished images, a node's children ending it."""
    r = enter(t, ctx)
    if r.__class__ is not tuple:
        return r
    out, todo = [], []
    while True:
        if r.__class__ is tuple:
            v, c = r
            todo.append(v)
            cls = v.__class__
            if cls is Sym or cls is MetaApp:
                todo.extend([(a, c) for a in reversed(v.args)])
            elif cls is Abs or cls is Rec:
                todo.append((v.body, c))
        else:
            out.append(r)
        while todo:
            u = todo.pop()
            if u.__class__ is tuple:
                r = enter(u[0], u[1])
                break
            cls = u.__class__
            if cls is Sym:
                k = len(out) - len(u.args)
                out[k:] = [Sym(u.fun, tuple(out[k:]), u.tag if keep_tags else None)]
            elif cls is Abs:
                out[-1] = Abs(u.var, out[-1], u.tag if keep_tags else None)
            elif cls is Var:
                out.append(Var(u.name, u.tag if keep_tags else None))
            elif cls is Rec:
                out[-1] = Rec(u.var, out[-1])
            elif cls is MetaApp:
                k = len(out) - len(u.args)
                out[k:] = [MetaApp(u.mv, tuple(out[k:]))]
            else:
                out.append(u)
        else:
            return out[0]


# ---------------------------------------------------------------------------
# rec resolution

def subst_recvar(t, name, value):
    """Replace the free occurrences of rec variable `name` by `value`; a
    subterm in which `name` is not free comes back as it is."""
    def enter(u, _):
        if name not in u._free_rec:
            return u
        return value if u.__class__ is RecVar else (u, None)
    return rebuild(t, enter)


def _unroll(t):
    """The unrolling of the `Rec` node t, kept weakly on t (see `Term`)."""
    out = t._unrolled and t._unrolled()
    if out is None:
        out = subst_recvar(t.body, t.var, t)
        _set_unrolled(t, weakref.ref(out))
    return out


def resolve(t):
    """Unroll rec binders until the root is a var/abs/sym/meta node."""
    if t.__class__ is not Rec and t.__class__ is not RecVar:
        return t
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
    hit = []

    def enter(u, _):
        if u.__class__ is Rec:
            hit.append(u)
            return _unroll(u)
        return u, None

    out = rebuild(t, enter)
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

    todo = [t]  # a stack, so deep terms are checked; leftmost first
    while todo:
        match todo.pop():
            case Rec(v, body):
                spine(body, v)
                todo.append(body)
            case Abs(_, body):
                todo.append(body)
            case Sym(_, args) | MetaApp(_, args):
                todo.extend(reversed(args))
    return t


# ---------------------------------------------------------------------------
# structure access

def children(t):
    """(step, child) pairs of a resolved node."""
    if isinstance(t, (Sym, MetaApp)):
        return tuple(enumerate(t.args, 1))
    if isinstance(t, Abs):
        return ((0, t.body),)
    return ()


def child_at(t, i):
    cls = t.__class__
    if cls is Rec or cls is RecVar:
        t = resolve(t)
        cls = t.__class__
    if cls is Abs:
        if i == 0:
            return t.body
    elif cls is Sym or cls is MetaApp:
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
        u = child_at(out[-1], i)
        cls = u.__class__
        out.append(resolve(u) if cls is Rec or cls is RecVar else u)
    return out


def root_label(t):
    """Display name of the root: f, [x], x, Z."""
    t = resolve(t)
    if isinstance(t, Sym):
        return t.fun
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return f"[{t.var}]"
    if isinstance(t, MetaApp):
        return t.mv
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
    """All positions of depth <= d, mapped to the display root symbol there,
    in pre-order.  An explicit stack, so deep terms are walked too."""
    out = {}
    todo = [((), t)]
    while todo:
        p, u = todo.pop()
        u = resolve(u)
        out[p] = root_label(u)
        if len(p) < d:
            todo.extend((p + (i,), c) for i, c in reversed(children(u)))
    return out


def graft(t, p, s):
    """Replace the subterm at p by s.  No renaming: free variables of s are
    captured by binders on the path, as contexts require."""
    if not p:
        return s
    return rebuild_path(path_nodes(t, p[:-1]), p, s)[0]


def rebuild_path(nodes, p, s):
    """Put s at position p under the resolved path nodes (root first, as
    `path_nodes` gives them; a node at p itself is ignored) and rebuild the
    path upwards.  Every subterm off the path is shared.  Returns the new
    path nodes, root first, ending with s."""
    out = [s]
    for node, i in zip(reversed(nodes[:len(p)]), reversed(p)):
        cls = node.__class__
        if cls is Abs and i == 0:
            s = Abs(node.var, s, node.tag)
        elif cls is Sym and 1 <= i <= len(node.args):
            s = Sym(node.fun, node.args[:i - 1] + (s,) + node.args[i:], node.tag)
        elif cls is MetaApp and 1 <= i <= len(node.args):
            s = MetaApp(node.mv, node.args[:i - 1] + (s,) + node.args[i:])
        else:
            raise PositionError(f"no child {i} under {root_label(node)}")
        out.append(s)
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# variables

def free_vars(t):
    return t._free


def free_recvars(t):
    return t._free_rec


def has_vars(t):
    """Does any variable node occur at all (bound or free)?"""
    return t._has_vars


def match_memo(t):
    """The node's memo of match results by rule (see `rewriting.match`)."""
    if t._matches is None:
        _set_matches(t, {})
    return t._matches


def meta_vars(t):
    """The meta-variables of a rule side, by a walk that keeps nothing."""
    out, todo = set(), [t]
    while todo:
        u = todo.pop()
        if isinstance(u, MetaApp):
            out.add(u.mv)
        todo.extend((u.body,) if isinstance(u, Rec) else (c for _, c in children(u)))
    return frozenset(out)


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


def env_lookup(env, x, y):
    """Do variables x and y correspond under the binder pairs env (innermost
    last)?  Unpaired names correspond only to themselves."""
    for a, b in reversed(env):
        if a == x or b == y:
            return a == x and b == y
    return x == y


def mismatch_depth(t, u):
    """The least depth at which the unfoldings of t and u differ under
    consistent binder renaming, or None when they are bisimilar.  One
    breadth-first bisimulation over an explicit queue: each (node, node,
    binder pairs) triple is compared once, at the least depth it is met, so
    cycles end and deep terms do not recurse."""
    seen = set()
    level = [(t, u, ())]
    depth = 0
    while level:
        below = []
        for a, b, env in level:
            a, b = resolve(a), resolve(b)
            env = _env_restrict(env, free_vars(a), free_vars(b))
            key = (a, b, env)
            if key in seen:
                continue
            seen.add(key)
            match a, b:
                case Var(x, _), Var(y, _):
                    if not env_lookup(env, x, y):
                        return depth
                case Abs(x, s, _), Abs(y, v, _):
                    below.append((s, v, env + ((x, y),)))
                case (Sym(f, xs, _), Sym(g, ys, _)) | (MetaApp(f, xs), MetaApp(g, ys)):
                    if f != g or len(xs) != len(ys):
                        return depth
                    below.extend((p, q, env) for p, q in zip(xs, ys))
                case _:
                    return depth
        level = below
        depth += 1
    return None


def alpha_eq(t, u):
    """Bisimilarity of the unfoldings under consistent binder renaming."""
    return t is u or mismatch_depth(t, u) is None


def truncate(t, d):
    """The finite approximation that agrees with t strictly above depth d and
    has a hole at every depth-d cut point."""
    return rebuild(t, lambda u, k: hole() if k == 0 else (resolve(u), k - 1), d)


def distance(t, u):
    """0 if alpha-equivalent, else 2^-k with k the least depth where the
    truncations differ modulo alpha."""
    from fractions import Fraction  # its only use: not loaded at import
    k = mismatch_depth(t, u)
    return Fraction(0) if k is None else Fraction(1, 2 ** k)


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

def _tagged_below(u, _):
    return (u, None) if u._tagged else u


def strip_tags(t):
    """The term without tags; a node with no tag at or below it comes back
    as the very same object, so untagged subterms are shared, not copied."""
    return rebuild(t, _tagged_below, keep_tags=False)


def with_tag(t, tag):
    """The resolved node t with the tag, built by its class's constructor."""
    match t:
        case Var(x):
            return Var(x, tag)
        case Abs(x, body):
            return Abs(x, body, tag)
        case Sym(f, args):
            return Sym(f, args, tag)
    raise TermError("cannot tag a meta-variable node")


def set_tag_at(t, p, tag):
    nodes = path_nodes(t, p)
    return rebuild_path(nodes, p, with_tag(nodes[-1], tag))[0]


def iter_tagged(t):
    """(position, tag) pairs of all tagged nodes.

    Returns (pairs, complete).  complete is False when a tagged node sits
    inside a cycle, i.e. the true position set is infinite; pairs then lists
    one representative occurrence per path into the cycle.  A path goes
    round a cycle when it meets again a rec binder it already passed.
    Rec nodes are interned, so the binder met again is the very same
    object, whether unrolling re-inserted it or an equal one sits deeper on
    the path; in both cases the subterm there recurs below itself, so its
    tags have infinitely many positions.  A subterm whose `_tagged` slot is
    false is not entered.
    """
    out = []
    complete = True
    on_path = set()  # the Rec nodes on the current path
    todo = [(t, ())]  # (node, position) to visit; a bare Rec leaves the path
    while todo:
        u = todo.pop()
        if u.__class__ is Rec:
            on_path.remove(u)
            continue
        u, p = u
        r = resolve(u)
        if not r._tagged:
            continue
        if u.__class__ is Rec:
            if u in on_path:
                complete = False
                continue
            on_path.add(u)
            todo.append(u)
        tag = getattr(r, "tag", None)
        if tag is not None:
            out.append((p, tag))
        todo.extend([(c, p + (i,)) for i, c in reversed(children(r))])
    return out, complete
