"""Paths, path projections, finite jumps, target terms and developments.

A path walks a term with respect to a redex set: structural descent through
ordinary nodes, an unlabelled hop into the rule's right-hand side at a redex,
a hop back into the term when the right-hand side reaches a meta-variable,
and a hop back to the right-hand side when the term walk reaches a variable
bound by a redex pattern.  Projections shadow the walk with root symbols and
child indices; unlabelled stretches correspond to material consumed by the
development, and the developed term can be read off the labelled nodes.

Two engines implement this:

* PathSpace: literal positions, full path histories.  Enumeration and
  projections; budget-bounded since rational terms have infinite path spaces.
  A path is a node of a trie (parent path, last edge, last node), so an
  extension copies nothing; its node tuple and edge word are built only when
  read.  Path nodes are built once per space, each from its parent's node,
  and carry their subterm, redex, binding and label, so no walk goes back to
  the root or keys a lookup by a position.
* the class machine: states quotient positions by subterm value, with closure
  environments standing in for path history.  Decides the finite jumps
  property exactly on rational terms and builds the (rational) developed term
  from the graph of labelled states that the same walk records.  A state
  keeps only what its future reads (flat closures, as in Shao and Appel's
  space-efficient closures and Sestoft's trimmed environments): a closure is
  the rule state the walk returns into, a term state's environment holds the
  free variables of its value, and each state has one naming table.  Equal
  states have equal futures, so a cycle the machine finds is a real one.
"""

from __future__ import annotations

from .errors import (
    BudgetExceeded, FiniteJumpsViolated, InfiniteStageSet, PositionError,
    PreconditionViolated, TermError,
)
from .records import Frozen
from .rewriting import (
    Redex, contract, match, redex_at, redex_trie, residuals, step_redex,
)
from .syntax import position_str, print_term
from .systems import max_lhs_depth, pattern_meta, require_valid
from .terms import (
    Abs, MetaApp, Rec, RecVar, Sym, Var,
    alpha_eq, children, free_vars, fresh_name, has_vars, resolve,
    root_label, subterm_at,
)


class AllRedexes(Frozen):
    """The set of all redexes of a rational term (a uniform predicate)."""
    __slots__ = ()


ALL_REDEXES = AllRedexes()


def redexes_from_positions(term, system, positions):
    require_valid(system)  # matching reads the patterns the checks vouch for
    out = []
    for p in positions:
        u = redex_at(term, system, tuple(p))
        if u is None:
            raise PreconditionViolated(f"no redex at {position_str(tuple(p))}")
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# path nodes and paths

class _PathNode:
    """What term and rule nodes share: the parent node (None at the top of
    a chain), the child index from it, the resolved subterm, the projection
    label and a hash taken once.  A node links only upwards; the space that
    built it keeps its children and extensions.  The position, the child
    indices from the top of the chain, is built only when read."""
    __slots__ = ("parent", "step", "sub", "label", "digest", "_position")

    def __init__(self, parent, step, sub, top_digest):
        self.parent = parent
        self.step = step
        self.sub = sub
        self._position = None
        self.digest = top_digest if parent is None else hash((parent.digest, step))

    @property
    def position(self):
        if self._position is None:
            steps = []
            node = self
            while node.parent is not None:
                steps.append(node.step)
                node = node.parent
            self._position = tuple(reversed(steps))
        return self._position

    def __hash__(self):
        return self.digest

    def __eq__(self, other):
        return self is other or (type(other) is type(self)
                                 and self.digest == other.digest
                                 and self._same(other))

    def _same(self, other):
        """Equal child indices from the tops of the two chains."""
        a, b = self, other
        while a is not b:
            if a is None or b is None or a.step != b.step:
                return False
            a, b = a.parent, b.parent
        return True


class TermNode(_PathNode):
    """The term node at a position, as one PathSpace reaches it: built
    once, from its parent's node, so a position has one node per space.
    It holds the redex of the set rooted there and the binding of a
    variable bound by a redex pattern ((the redex's node, lhs variable) or
    None).  `marks` is the trie of the set's redex positions at and below
    the node (None for the set of all redexes, which are matched instead).
    Equality and hash are by position."""
    __slots__ = ("marks", "redex", "bound")

    def __init__(self, parent, step, sub, marks):
        super().__init__(parent, step, sub, hash(()))
        self.marks = marks

    def render(self):
        return f"(s,{position_str(self.position)})"


class RuleNode(_PathNode):
    """A node of a rule's right-hand side in its activation at the redex
    whose term node is `home`.  Built and kept like a TermNode.  Equality
    and hash are by rule, rhs position and redex position."""
    __slots__ = ("rule", "home")

    def __init__(self, rule, parent, step, sub, home):
        super().__init__(parent, step, sub, hash((rule.name, home.digest)))
        self.rule = rule
        self.home = home
        self.label = None if isinstance(sub, MetaApp) else root_label(sub)

    @property
    def redex(self):
        return self.home.redex

    def _same(self, other):
        return (self.rule.name == other.rule.name and self.home == other.home
                and super()._same(other))

    def render(self):
        return (f"({self.rule.name},{position_str(self.position)},"
                f"{position_str(self.home.position)})")


class Path:
    """A path as a node of the trie of paths: the path one node shorter
    (None for a one-node path), the edge into the last node (a child index,
    or None for an unlabelled edge), the last node and the length in nodes.
    Extending a path copies nothing.  The node and edge tuples and the edge
    word are built when read; the hash is taken once.  Paths are equal when
    their nodes and edges are."""
    __slots__ = ("parent", "edge", "node", "length", "digest", "_word")

    def __init__(self, parent, edge, node):
        self.parent = parent
        self.edge = edge
        self.node = node
        self._word = None
        if parent is None:
            self.length = 1
            self.digest = hash((node.digest,))
        else:
            self.length = parent.length + 1
            self.digest = hash((parent.digest, edge, node.digest))

    def __len__(self):
        return self.length

    def __hash__(self):
        return self.digest

    def __eq__(self, other):
        if self is other:
            return True
        if (not isinstance(other, Path) or self.digest != other.digest
                or self.length != other.length):
            return False
        a, b = self, other
        while a is not b:  # equal lengths: both run out together
            if a.edge != b.edge or a.node != b.node:
                return False
            a, b = a.parent, b.parent
        return True

    def _chain(self):
        """The prefixes of the path, shortest first."""
        out = []
        p = self
        while p is not None:
            out.append(p)
            p = p.parent
        out.reverse()
        return out

    @property
    def nodes(self):
        return tuple(p.node for p in self._chain())

    @property
    def edges(self):
        """len(nodes) - 1 entries; None is an unlabelled edge."""
        return tuple(p.edge for p in self._chain()[1:])

    @property
    def word(self):
        """Concatenation of the numeric edge labels, kept once read."""
        if self._word is None:
            edges = []
            p = self
            while p is not None and p._word is None:
                edges.append(p.edge)
                p = p.parent
            head = () if p is None else p._word
            self._word = head + tuple(e for e in reversed(edges) if e is not None)
        return self._word

    def prefix(self, n):
        p = self
        for _ in range(self.length - n):
            p = p.parent
        return p

    def render(self):
        chain = self._chain()
        bits = [chain[0].node.render()]
        for p in chain[1:]:
            bits.append(f"-{'e' if p.edge is None else p.edge}->")
            bits.append(p.node.render())
        return " ".join(bits)


class PathProjection(Frozen):
    __slots__ = ("labels",  # one per node; None is unlabelled
                 "edges")   # numeric or None (epsilon)

    def __init__(self, labels, edges):
        set_labels, set_edges = self._set
        set_labels(self, labels)
        set_edges(self, edges)

    def render(self):
        bits = ["." if self.labels[0] is None else self.labels[0]]
        for e, l in zip(self.edges, self.labels[1:]):
            bits.append(f"-{'e' if e is None else e}->")
            bits.append("." if l is None else l)
        return " ".join(bits)

    def stripped(self):
        """Labelled nodes and numeric edges only (unlabelled material deleted)."""
        return (tuple(l for l in self.labels if l is not None),
                tuple(e for e in self.edges if e is not None))


class PathEnumeration(Frozen):
    __slots__ = ("maximal",    # or, enumerated in a prefix set, every path in it
                 "truncated")  # paths cut by the budget

    def __init__(self, maximal, truncated):
        set_maximal, set_truncated = self._set
        set_maximal(self, maximal)
        set_truncated(self, truncated)


# ---------------------------------------------------------------------------
# exact walker

class PathSpace:
    """Paths of `term` with respect to a redex set, literal positions.

    Path nodes are built on first reach, each from its parent's node, and
    kept, so everything a walk reads at a node is read off the node.  The
    space keeps the downward links, so it holds no reference cycle."""

    def __init__(self, term, redexes, system):
        self.system = require_valid(system)
        self.all = isinstance(redexes, AllRedexes)
        marks = None if self.all else redex_trie(redexes)
        # a pattern abstraction lies at most this deep below its redex
        self._reach = max_lhs_depth(self.system)
        self._kids = {}  # node -> its (child index, node) pairs
        self._ext = {}   # node -> its extensions, when they do not read the path
        self.root = self._settle(TermNode(None, None, resolve(term), marks))

    # -- nodes -----------------------------------------------------------------
    def _settle(self, node):
        """Fill in a new term node's redex, binding and label."""
        sub = node.sub
        if self.all:
            u = redex_at(sub, self.system, ())
            node.redex = u and Redex(node.position, u.rule, u.valuation)
        else:
            node.redex = node.marks[0] if node.marks else None
        node.bound = self._binding(node) if isinstance(sub, Var) else None
        node.label = (None if node.redex is not None or node.bound is not None
                      else root_label(sub))
        return node

    def _binding(self, node):
        """(redex node, lhs variable name) when the variable node is bound
        by the pattern of a redex of the set: its binder, the nearest
        abstraction above it with its name, is a pattern abstraction of a
        redex at most the lhs depth above the binder."""
        name = node.sub.name
        a = node.parent
        while a is not None and not (isinstance(a.sub, Abs) and a.sub.var == name):
            a = a.parent
        rel = ()
        while a is not None and len(rel) <= self._reach:
            if a.redex is not None:
                lhs_var = pattern_meta(a.redex.rule.lhs).abs_map.get(rel)
                if lhs_var is not None:
                    return a, lhs_var
            rel = (a.step,) + rel
            a = a.parent
        return None

    def kids(self, node):
        """(child index, node) pairs of the structural children of a term
        or rule node, built on first call and kept."""
        kids = self._kids.get(node)
        if kids is None:
            if isinstance(node, RuleNode):
                kids = tuple((i, RuleNode(node.rule, node, i, resolve(c), node.home))
                             for i, c in children(node.sub))
            else:
                marks = node.marks and node.marks[1]
                kids = tuple(
                    (i, self._settle(TermNode(node, i, resolve(c), marks and marks.get(i))))
                    for i, c in children(node.sub))
            self._kids[node] = kids
        return kids

    def child(self, node, i):
        """The node one step below a term or rule node."""
        for j, kid in self.kids(node):
            if j == i:
                return kid
        raise PositionError(f"no child {i} under {root_label(node.sub)}")

    def node_at(self, p):
        """The term node at position p."""
        node = self.root
        for i in p:
            node = self.child(node, i)
        return node

    def bound_by(self, p):
        """(redex, lhs variable name) when the variable at p is bound by the
        pattern of a redex in the set, else None."""
        bound = self.node_at(p).bound
        return bound and (bound[0].redex, bound[1])

    # -- the six extension clauses ------------------------------------------
    def extensions(self, path):
        node = path.node
        ext = self._ext.get(node)
        if ext is None:
            if isinstance(node, TermNode) and node.bound is not None:
                return self._return(path, *node.bound)
            ext = self._ext[node] = self._extensions(node)
        return ext

    def _extensions(self, node):
        """The clauses that do not read the path: into the rule at a redex,
        back into the term at a meta-variable, and down to the children."""
        if isinstance(node, TermNode):
            if node.redex is not None:
                rule = node.redex.rule
                return ((None, RuleNode(rule, None, None, resolve(rule.rhs), node)),)
        elif isinstance(node.sub, MetaApp):
            target = node.home
            for i in pattern_meta(node.rule.lhs).metavar(node.sub.mv).position:
                target = self.child(target, i)
            return ((None, target),)
        return self.kids(node)

    def _return(self, path, home, lhs_var):
        """From a variable bound by the pattern of the redex at `home`, back
        to the argument of the meta-variable by which the path last left
        that redex's rule."""
        while path is not None:
            n = path.node
            if isinstance(n, RuleNode) and n.home is home:
                if not isinstance(n.sub, MetaApp):
                    raise PreconditionViolated(
                        "path history corrupt: return node is not a meta-variable")
                i = pattern_meta(n.rule.lhs).metavar(n.sub.mv).args.index(lhs_var) + 1
                return ((None, self.child(n, i)),)
            path = path.parent
        raise PreconditionViolated("bound variable reached before its redex")

    def project(self, path):
        return PathProjection(tuple(n.label for n in path.nodes), path.edges)

    # -- enumeration ---------------------------------------------------------
    def initial(self):
        return Path(None, None, self.root)

    def enumerate(self, budget=4000, prefix=None):
        """DFS path enumeration: the maximal paths, or, given a prefix set,
        every path whose edge word lies in it (a path prefix set).
        Returns PathEnumeration; `truncated` holds budget-cut paths.
        """
        found, truncated = [], []
        stack = [self.initial()]
        while stack:
            path = stack.pop()
            exts = self.extensions(path)
            if prefix is not None:
                found.append(path)
                word = path.word
                exts = [(e, n) for e, n in exts
                        if e is None or word + (e,) in prefix]
            if not exts:
                if prefix is None:
                    found.append(path)
                continue
            if path.length >= budget:
                truncated.append(path)
                continue
            for e, n in exts:
                stack.append(Path(path, e, n))
        return PathEnumeration(tuple(found), tuple(truncated))

    def descendants_of(self, p, budget=4000):
        """Positions the term node p contributes to in the developed term:
        edge words of labelled finite paths ending at (s, p).

        Walks that sit at a labelled term node q with q neither an ancestor
        of p nor able to jump back (no variables below) are pruned: their
        future positions all lie below q and can never equal p."""
        branch = [self.root]  # the nodes of the term from the root to p
        for i in p:
            try:
                branch.append(self.child(branch[-1], i))
            except (PositionError, TermError):
                break
        target = branch[-1] if len(branch) == len(p) + 1 else None
        branch = set(branch)
        out = set()
        stack = [self.initial()]
        seen = 0
        while stack:
            path = stack.pop()
            seen += 1
            if seen > budget * 4:
                raise BudgetExceeded("descendant walk exceeded its budget")
            last = path.node
            if isinstance(last, TermNode):
                if last is target and last.label is not None:
                    out.add(path.word)
                if last not in branch and not has_vars(last.sub):
                    continue
            if path.length >= budget:
                raise BudgetExceeded("descendant walk exceeded its budget")
            for e, n in self.extensions(path):
                stack.append(Path(path, e, n))
        return out


# ---------------------------------------------------------------------------
# class machine: finite jumps + target term on rational terms

class _TState(Frozen, compare=("value", "rel", "env", "names")):
    """A term state of the machine, hashed once, when it is built."""
    __slots__ = (
        "value", "rel",
        # ((var name, (_RState, lhs var)), ...) name-sorted: the free
        # variables of value that a redex pattern binds, each with the rule
        # state at the meta-variable the walk returns into.  No other entry
        # is kept: a variable that an ordinary binder rebinds was dropped at
        # that binder, which does not have it free.
        "env",
        "names",  # ((orig binder name, chosen name), ...) name-sorted
        "digest")

    def __init__(self, value, rel, env, names):
        set_value, set_rel, set_env, set_names, set_digest = self._set
        set_value(self, value)
        set_rel(self, rel)
        set_env(self, env)
        set_names(self, names)
        set_digest(self, hash((value, rel, env, names)))

    def __hash__(self):
        return self.digest

    def render(self):
        return f"term node {print_term(self.value, max_depth=3)}"


class _RState(Frozen, compare=("rule", "value", "redex_value", "redex_rel",
                               "env", "nenv", "names")):
    """A rule state of the machine, hashed once, when it is built."""
    __slots__ = ("rule", "value", "redex_value", "redex_rel",
                 "env",    # the env of the redex's term state
                 "nenv",   # term-side names at redex entry
                 "names",  # rule-side names of this activation
                 "digest")

    def __init__(self, rule, value, redex_value, redex_rel, env, nenv, names):
        (set_rule, set_value, set_redex_value, set_redex_rel, set_env, set_nenv,
         set_names, set_digest) = self._set
        set_rule(self, rule)
        set_value(self, value)
        set_redex_value(self, redex_value)
        set_redex_rel(self, redex_rel)
        set_env(self, env)
        set_nenv(self, nenv)
        set_names(self, names)
        set_digest(self, hash((rule, value, redex_value, redex_rel, env, nenv, names)))

    __hash__ = _TState.__hash__

    def render(self):
        return f"rule {self.rule.name} rhs node {print_term(self.value, max_depth=3)}"


def _assoc_extend(table, items):
    d = dict(table)
    for k, v in items:
        d[k] = v
    return tuple(sorted(d.items()))


def _assoc_get(table, k):
    for a, b in table:
        if a == k:
            return b
    return None


def _trimmed(env, value):
    """The entries of env for the free variables of value: no other entry
    is read again, so equal trimmed states have equal futures."""
    fv = free_vars(value)
    return tuple(e for e in env if e[0] in fv)


def _rel_descend(rel, i):
    if rel is None:
        return None
    return frozenset((p[1:], r) for p, r in rel if p and p[0] == i)


class _Machine:
    def __init__(self, term, redexes, system, state_budget=200_000):
        self.system = require_valid(system)
        self.all = isinstance(redexes, AllRedexes)
        rel = None if self.all else frozenset((u.position, u.rule) for u in redexes)
        self.start = _TState(resolve(term), rel, (), ())
        self.avoid = frozenset(free_vars(term))
        self.state_budget = state_budget
        self._ends = {}  # state -> the labelled state its epsilon walk reaches

    # -- redex detection ----------------------------------------------------
    def _redex_rule(self, st):
        if st.rel is not None:
            for p, r in st.rel:
                if p == ():
                    return r
            return None
        for rule in self.system.rules_for(st.value):
            if match(rule, st.value) is not None:
                return rule
        return None

    # -- labels ---------------------------------------------------------------
    def label(self, st):
        if isinstance(st, _TState):
            if self._redex_rule(st) is not None:
                return None
            if (isinstance(st.value, Var)
                    and _assoc_get(st.env, st.value.name) is not None):
                return None
            return root_label(st.value)
        if isinstance(st.value, MetaApp):
            return None
        return root_label(st.value)

    # -- epsilon moves ---------------------------------------------------------
    def _eps_successor(self, st):
        """The unique successor of an unlabelled state."""
        if isinstance(st, _TState):
            rule = self._redex_rule(st)
            if rule is not None:
                return _RState(rule, resolve(rule.rhs), st.value, st.rel,
                               st.env, st.names, ())
            # a pattern-bound variable: back to the argument of the
            # meta-variable at which the walk left the rule
            home, lhs_var = _assoc_get(st.env, st.value.name)
            z = home.value
            i = pattern_meta(home.rule.lhs).metavar(z.mv).args.index(lhs_var)
            return _RState(home.rule, resolve(z.args[i]), home.redex_value,
                           home.redex_rel, home.env, home.nenv, home.names)
        occ = pattern_meta(st.rule.lhs).metavar(st.value.mv)
        jump = resolve(subterm_at(st.redex_value, occ.position))
        env = _assoc_extend(st.env, [  # the binders above, outermost first
            (resolve(subterm_at(st.redex_value, rho)).var, (st, lhs_var))
            for rho, lhs_var in occ.scope])
        return _TState(jump, _rel_descend_path(st.redex_rel, occ.position),
                       _trimmed(env, jump), st.nenv)

    def eps_walk(self, st):
        """The labelled state reached from st by epsilon moves.  Raises
        FiniteJumpsViolated on an unlabelled cycle.  Every state of a walk
        is remembered with its end, so each stretch is walked once."""
        ends = self._ends
        end = ends.get(st)
        if end is not None:
            return end
        stretch = []
        seen = set()
        while self.label(st) is None:
            if st in seen:
                raise FiniteJumpsViolated(
                    "infinite stretch of unlabelled nodes", witness=tuple(stretch))
            seen.add(st)
            stretch.append(st)
            if len(stretch) > 10_000:
                raise BudgetExceeded("unlabelled stretch exceeded its budget")
            st = self._eps_successor(st)
            end = ends.get(st)
            if end is not None:
                st = end
                break
        for s in stretch:
            ends[s] = st
        ends[st] = st
        return st

    # -- structural successors of a labelled state ----------------------------
    def _named(self, st, var):
        """st's names with one for the binder var: the one it has, else a
        fresh one against the table, the term's free names and, on the
        rule side, the term-side names at redex entry."""
        names = st.names
        if _assoc_get(names, var) is None:
            used = {b for _, b in names} | self.avoid
            if isinstance(st, _RState):
                used |= {b for _, b in st.nenv}
            names = _assoc_extend(names, [(var, fresh_name(var, used))])
        return names

    def successors(self, st):
        v = st.value
        names = self._named(st, v.var) if isinstance(v, Abs) else st.names
        out = []
        for i, c in children(v):
            c = resolve(c)
            if isinstance(st, _TState):
                nxt = _TState(c, _rel_descend(st.rel, i), _trimmed(st.env, c), names)
            else:
                nxt = _RState(st.rule, c, st.redex_value, st.redex_rel,
                              st.env, st.nenv, names)
            out.append((i, nxt))
        return out

    # -- decision + construction ----------------------------------------------
    def walk(self):
        """Reach every labelled state from the start.  Returns the first
        labelled state and the successors of each labelled state, as
        (child index, successor, the labelled state its epsilon walk
        reaches).  Raises FiniteJumpsViolated (with an unlabelled-cycle
        witness) when some path has an infinite unlabelled stretch."""
        first = self.eps_walk(self.start)
        graph = {first: None}  # None until the state's successors are walked
        frontier = [first]
        while frontier:
            st = frontier.pop()
            if len(graph) > self.state_budget:
                raise BudgetExceeded("finite-jumps state budget exceeded")
            succ = []
            for i, nxt in self.successors(st):
                lab = self.eps_walk(nxt)
                succ.append((i, nxt, lab))
                if lab not in graph:
                    graph[lab] = None
                    frontier.append(lab)
            graph[st] = succ
        return first, graph

    def finite_jumps(self):
        try:
            self.walk()
            return True
        except FiniteJumpsViolated:
            return False

    def target(self):
        """The developed term, read off the walk's graph of labelled states:
        a state met again on the way down becomes a rec binder.  An explicit
        stack, so deep terms are built too: a state is met twice, first to
        enter it and push its successors, then, finished, to build its node
        from theirs, leftmost first at the end of `out`."""
        first, graph = self.walk()
        memo = {}
        building = {}
        counter = 0
        out = []
        todo = [(first, False)]
        while todo:
            lab, finished = todo.pop()
            if finished:
                v = lab.value
                succ = graph[lab]
                if isinstance(v, Var):
                    node = Var(_assoc_get(lab.names, v.name) or v.name)
                elif isinstance(v, Abs):
                    node = Abs(_assoc_get(succ[0][1].names, v.var), out.pop())
                else:  # Sym (meta nodes are unlabelled)
                    k = len(out) - len(succ)
                    node = Sym(v.fun, tuple(out[k:]))
                    del out[k:]
                name, used = building.pop(lab)
                if used:
                    node = Rec(name, node)
                memo[lab] = node
                out.append(node)
            elif lab in building:
                building[lab][1] = True
                out.append(RecVar(building[lab][0]))
            elif lab in memo:
                out.append(memo[lab])
            else:
                counter += 1
                building[lab] = [f"T{counter}", False]
                todo.append((lab, True))
                todo.extend((arg, False) for _, _, arg in reversed(graph[lab]))
        return out[0]


def _rel_descend_path(rel, q):
    for i in q:
        rel = _rel_descend(rel, i)
    return rel


def has_finite_jumps(term, redexes, system):
    """True iff no path of the term w.r.t. the redex set has an infinite
    unlabelled stretch; equivalently, iff the set has a complete development."""
    return _Machine(term, redexes, system).finite_jumps()


def target_term(term, redexes, system):
    """The unique term matching the maximal path projections, built in the
    walk that checks finite jumps."""
    return _Machine(term, redexes, system).target()


# ---------------------------------------------------------------------------
# developments

class DevRecord(Frozen):
    __slots__ = ("source", "target",
                 "redexes",  # tuple of Redex, or AllRedexes
                 "steps",    # tuple of StepRecord, or None when not realised stepwise
                 "system")

    def __init__(self, source, target, redexes, steps, system):
        set_source, set_target, set_redexes, set_steps, set_system = self._set
        set_source(self, source)
        set_target(self, target)
        set_redexes(self, redexes)
        set_steps(self, steps)
        set_system(self, system)

    @property
    def finite(self):
        return self.steps is not None

    def descendant_map(self, positions):
        positions = [tuple(p) for p in positions]
        if self.steps is None:
            space = PathSpace(self.source, self.redexes, self.system)
            return {p: frozenset(space.descendants_of(p)) for p in positions}
        cur = {p: frozenset([p]) for p in positions}
        for step in self.steps:
            live = sorted({q for qs in cur.values() for q in qs})
            stepmap = step.descendant_map(live)
            cur = {p: frozenset(r for q in qs for r in stepmap[q])
                   for p, qs in cur.items()}
        return cur

    def residual_map(self, redexes):
        if self.steps is None:
            raise InfiniteStageSet("residual tracking needs a stepwise development")
        cur = {u: (u,) for u in redexes}
        for step in self.steps:
            live = []
            seen = set()
            for us in cur.values():
                for u in us:
                    if u.position not in seen:
                        seen.add(u.position)
                        live.append(u)
            stepmap = step.residual_map(live)
            bypos = {u.position: stepmap[u] for u in live}
            cur = {orig: tuple(r for u in us for r in bypos[u.position])
                   for orig, us in cur.items()}
        return cur


def complete_development(term, redexes, system):
    """Contract every redex of the set to completion.

    Finite sets are realised innermost-first: contracting the deepest pending
    redex first never duplicates or displaces the others, so each original
    redex is contracted exactly once at its original position.  The set of
    all redexes of a rational term is developed through the walk machine
    instead (no step sequence)."""
    require_valid(system)
    if isinstance(redexes, AllRedexes):
        tgt = target_term(term, redexes, system)
        return DevRecord(term, tgt, redexes, None, system)
    redexes = tuple(redexes)
    order = sorted(redexes, key=lambda u: (-u.depth, u.position))
    steps = []
    cur = term
    for u in order:
        rec = contract(cur, u)
        steps.append(rec)
        cur = rec.target
    return DevRecord(term, cur, redexes, tuple(steps), system)


class DevSequence(Frozen):
    """A finite sequence of complete developments s0 => s1 => ... => sn."""
    __slots__ = ("initial", "stages")

    def __init__(self, initial, stages):
        prev = initial
        for st in stages:
            if not alpha_eq(st.source, prev):
                raise PreconditionViolated("development stages do not chain")
            prev = st.target
        set_initial, set_stages = self._set
        set_initial(self, initial)
        set_stages(self, stages)

    @property
    def final(self):
        return self.stages[-1].target if self.stages else self.initial

    def __len__(self):
        return len(self.stages)

    @property
    def system(self):
        return self.stages[0].system if self.stages else None


def dev_sequence_of_steps(term, redex_specs, system):
    """Each step becomes a singleton-stage complete development."""
    stages = []
    cur = term
    for spec in redex_specs:
        pos, rule = ((spec.position, spec.rule) if isinstance(spec, Redex)
                     else spec)
        u = step_redex(cur, system, pos, rule)
        stages.append(complete_development(cur, [u], system))
        cur = stages[-1].target
    return DevSequence(term, tuple(stages))


def project_dev_over_finite(dev_u, finite_redexes):
    """Close the commuting square of a complete development against a finite
    redex set: returns (development of the U-residuals after the V
    development, development of the V-residuals after the U development);
    both reach the same term."""
    if dev_u.steps is None:
        raise InfiniteStageSet("projection needs a stepwise development")
    system = dev_u.system
    dev_v = complete_development(dev_u.source, finite_redexes, system)
    u_after_v = residuals(dev_u.redexes, dev_v)
    right = complete_development(dev_v.target, u_after_v, system)
    v_after_u = residuals(finite_redexes, dev_u)
    bottom = complete_development(dev_u.target, v_after_u, system)
    return right, bottom


def project_sequence(dev_seq, redex, system=None):
    """Project a development sequence over one step of its initial term:
    the new sequence develops, stage by stage, the residuals of the original
    stage sets after the redex (and its residuals) have been contracted."""
    system = dev_seq.system or system
    if system is None:
        raise PreconditionViolated(
            "projecting a length-0 sequence needs an explicit system")
    left = complete_development(dev_seq.initial, [redex], system)
    new_initial = left.target
    new_stages = []
    prev_left = left  # development of the current residuals from the stage source
    cur_term = new_initial
    cur_res = [redex]
    for stage in dev_seq.stages:
        if stage.steps is None:
            raise InfiniteStageSet("projection requires finite stage sets")
        v_i = residuals(stage.redexes, prev_left)
        new_stage = complete_development(cur_term, v_i, system)
        new_stages.append(new_stage)
        cur_term = new_stage.target
        cur_res = residuals(cur_res, stage)
        prev_left = complete_development(stage.target, cur_res, system)
    return DevSequence(new_initial, tuple(new_stages))
