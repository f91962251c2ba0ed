"""Paths, path projections, finite jumps, target terms and developments.

A path walks a term with respect to a redex set: structural descent through
ordinary nodes, an unlabelled hop into the rule's right-hand side at a redex,
a hop back into the term when the right-hand side reaches a meta-variable,
and a hop back to the right-hand side when the term walk reaches a variable
bound by a redex pattern.  Projections shadow the walk with root symbols and
child indices; unlabelled stretches correspond to material consumed by the
development, and the developed term can be read off the labelled nodes.

Two engines implement this:

* PathWalker: literal positions, full path histories.  Enumeration and
  projections; budget-bounded since rational terms have infinite path spaces.
* the class machine: states quotient positions by subterm value, with closure
  environments standing in for path history.  Decides the finite jumps
  property exactly on rational terms and builds the (rational) developed term
  directly from the walk graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded, FiniteJumpsViolated, InfiniteStageSet, PreconditionViolated,
)
from .rewriting import Redex, StepRecord, contract, match, redex_at, residuals
from .syntax import position_str
from .systems import Rule, rule_meta, require_valid
from .terms import (
    Abs, MetaApp, Rec, RecVar, Sym, Var,
    alpha_eq, child_at, children, free_vars, fresh_name, has_vars, resolve,
    root_label, subterm_at,
)


@dataclass(frozen=True)
class AllRedexes:
    """The set of all redexes of a rational term (a uniform predicate)."""


ALL_REDEXES = AllRedexes()


def redexes_from_positions(term, system, positions):
    out = []
    for p in positions:
        u = redex_at(term, system, tuple(p))
        if u is None:
            raise PreconditionViolated(f"no redex at {position_str(tuple(p))}")
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# path objects

@dataclass(frozen=True)
class TermNode:
    position: tuple

    def render(self):
        return f"(s,{position_str(self.position)})"


@dataclass(frozen=True)
class RuleNode:
    rule: str
    position: tuple
    redex: tuple

    def render(self):
        return f"({self.rule},{position_str(self.position)},{position_str(self.redex)})"


@dataclass(frozen=True)
class Path:
    nodes: tuple
    edges: tuple  # len(nodes) - 1 entries; None is an unlabelled edge

    def __len__(self):
        return len(self.nodes)

    @property
    def word(self):
        """Concatenation of the numeric edge labels."""
        return tuple(e for e in self.edges if e is not None)

    def prefix(self, n):
        return Path(self.nodes[:n], self.edges[: n - 1])

    def render(self):
        bits = [self.nodes[0].render()]
        for e, n in zip(self.edges, self.nodes[1:]):
            bits.append(f"-{'e' if e is None else e}->")
            bits.append(n.render())
        return " ".join(bits)


@dataclass(frozen=True)
class PathProjection:
    labels: tuple  # one per node; None is unlabelled
    edges: tuple   # numeric or None (epsilon)

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


@dataclass(frozen=True)
class PathEnumeration:
    maximal: tuple
    truncated: tuple  # paths cut by the budget


# ---------------------------------------------------------------------------
# exact walker

class PathSpace:
    """Paths of `term` with respect to a redex set, literal positions."""

    def __init__(self, term, redexes, system):
        self.term = term
        self.system = require_valid(system)
        self.redexes = redexes
        self.all = isinstance(redexes, AllRedexes)
        self._by_pos = None if self.all else {u.position: u for u in redexes}
        self._sub_cache = {(): resolve(term)}
        self._redex_cache = {}
        self._label_cache = {}
        self._bound_cache = {}

    # -- term access -------------------------------------------------------
    def subterm(self, p):
        """The resolved node at p, reached by one step from each uncached
        prefix, starting below the longest cached one (the root always is)."""
        cache = self._sub_cache
        node = cache.get(p)
        if node is not None:
            return node
        k = len(p) - 1
        while p[:k] not in cache:
            k -= 1
        node = cache[p[:k]]
        for k in range(k, len(p)):
            node = cache[p[:k + 1]] = resolve(child_at(node, p[k]))
        return node

    def redex(self, p):
        """The U-redex at p, if any."""
        if not self.all:
            return self._by_pos.get(p)
        if p not in self._redex_cache:
            self._redex_cache[p] = redex_at(self.term, self.system, p)
        return self._redex_cache[p]

    def _binder_position(self, p, name):
        """Position of the abstraction binding `name` at p on the actual
        branch (innermost binder wins), read off the cached prefixes."""
        for i in range(len(p) - 1, -1, -1):
            t = self.subterm(p[:i])
            if isinstance(t, Abs) and t.var == name:
                return p[:i]
        return None

    def bound_by(self, p):
        """(redex, lhs variable name) when the variable at p is bound by the
        pattern of a redex in the set, else None."""
        if p in self._bound_cache:
            return self._bound_cache[p]
        out = self._bound_by(p)
        self._bound_cache[p] = out
        return out

    def _bound_by(self, p):
        node = self.subterm(p)
        if not isinstance(node, Var):
            return None
        q_abs = self._binder_position(p, node.name)
        if q_abs is None:
            return None
        for k in range(len(q_abs) + 1):
            a = q_abs[:k]
            u = self.redex(a)
            if u is None:
                continue
            rel = q_abs[k:]
            meta = rule_meta(u.rule)
            if rel in meta.abs_map:
                return u, meta.abs_map[rel]
        return None

    def _rhs_sub(self, rule, p):
        return resolve(subterm_at(rule.rhs, p))

    # -- the six extension clauses ------------------------------------------
    def extensions(self, path):
        last = path.nodes[-1]
        if isinstance(last, TermNode):
            p = last.position
            u = self.redex(p)
            if u is not None:
                return [(None, RuleNode(u.rule.name, (), p))]
            bb = self.bound_by(p)
            if bb is not None:
                u, lhs_var = bb
                for n in reversed(path.nodes):
                    if isinstance(n, RuleNode) and n.redex == u.position:
                        meta = rule_meta(u.rule)
                        z = self._rhs_sub(u.rule, n.position)
                        if not isinstance(z, MetaApp):
                            raise PreconditionViolated(
                                "path history corrupt: return node is not a meta-variable")
                        i = meta.metavar_args(z.mv).index(lhs_var) + 1
                        return [(None, RuleNode(u.rule.name, n.position + (i,), u.position))]
                raise PreconditionViolated("bound variable reached before its redex")
            node = self.subterm(p)
            return [(i, TermNode(p + (i,))) for i, _ in children(node)]
        rule = self.system.rule(last.rule)
        node = self._rhs_sub(rule, last.position)
        if isinstance(node, MetaApp):
            q = rule_meta(rule).metavar_position(node.mv)
            return [(None, TermNode(last.redex + q))]
        return [(i, RuleNode(last.rule, last.position + (i,), last.redex))
                for i, _ in children(node)]

    def node_label(self, path_nodes, idx):
        """Projection label of nodes[idx] (needs no history: membership and
        boundness are properties of the node itself)."""
        n = path_nodes[idx]
        if n in self._label_cache:
            return self._label_cache[n]
        if isinstance(n, TermNode):
            if self.redex(n.position) is not None:
                out = None
            elif self.bound_by(n.position) is not None:
                out = None
            else:
                out = root_label(self.subterm(n.position))
        else:
            rule = self.system.rule(n.rule)
            node = self._rhs_sub(rule, n.position)
            out = None if isinstance(node, MetaApp) else root_label(node)
        self._label_cache[n] = out
        return out

    def project(self, path):
        labels = tuple(self.node_label(path.nodes, i) for i in range(len(path.nodes)))
        return PathProjection(labels, path.edges)

    # -- enumeration ---------------------------------------------------------
    def initial(self):
        return Path((TermNode(()),), ())

    def enumerate(self, budget=4000, word_filter=None, collect_all=False):
        """DFS path enumeration.

        word_filter: predicate on edge words; extensions whose word falls
        outside are not taken (used for path prefix sets).
        collect_all: return every path visited, not only maximal ones.
        Returns PathEnumeration; `truncated` holds budget-cut paths.
        """
        maximal, truncated, everything = [], [], []
        stack = [self.initial()]
        while stack:
            path = stack.pop()
            if collect_all:
                everything.append(path)
            exts = []
            for e, n in self.extensions(path):
                if word_filter is not None and e is not None:
                    if not word_filter(path.word + (e,)):
                        continue
                exts.append((e, n))
            if not exts:
                maximal.append(path)
                continue
            if len(path.nodes) >= budget:
                truncated.append(path)
                continue
            for e, n in exts:
                stack.append(Path(path.nodes + (n,), path.edges + (e,)))
        if collect_all:
            return PathEnumeration(tuple(everything), tuple(truncated))
        return PathEnumeration(tuple(maximal), tuple(truncated))

    def maximal_paths(self, budget=4000):
        enum = self.enumerate(budget=budget)
        if enum.truncated:
            raise BudgetExceeded(
                f"{len(enum.truncated)} paths exceed the {budget}-node budget")
        return enum.maximal

    def descendants_of(self, p, budget=4000):
        """Positions the term node p contributes to in the developed term:
        edge words of labelled finite paths ending at (s, p).

        Walks that sit at a labelled term node q with q neither an ancestor
        of p nor able to jump back (no variables below) are pruned: their
        future positions all lie below q and can never equal p."""
        p = tuple(p)
        out = set()
        stack = [self.initial()]
        seen = 0
        while stack:
            path = stack.pop()
            seen += 1
            if seen > budget * 4:
                raise BudgetExceeded("descendant walk exceeded its budget")
            last = path.nodes[-1]
            if isinstance(last, TermNode):
                q = last.position
                if q == p:
                    if self.node_label(path.nodes, len(path.nodes) - 1) is not None:
                        out.add(path.word)
                if p[: len(q)] != q and not has_vars(self.subterm(q)):
                    continue
            if len(path.nodes) >= budget:
                raise BudgetExceeded("descendant walk exceeded its budget")
            for e, n in self.extensions(path):
                stack.append(Path(path.nodes + (n,), path.edges + (e,)))
        return out


# ---------------------------------------------------------------------------
# class machine: finite jumps + target term on rational terms

@dataclass(frozen=True)
class _Closure:
    rule: Rule
    node: Term         # the meta-variable node of the rhs we return into
    redex_value: Term
    redex_rel: object  # frozenset of (relative position, rule) or None
    env: tuple
    nenv: tuple        # term-side naming at redex entry
    rnenv: tuple       # rule-side naming of this activation
    lhs_var: str


@dataclass(frozen=True)
class _TState:
    value: Term
    rel: object
    env: tuple   # ((term var name, 'ord' | _Closure), ...) name-sorted
    nenv: tuple  # ((orig binder name, chosen name), ...) name-sorted


@dataclass(frozen=True)
class _RState:
    rule: Rule
    value: Term
    redex_value: Term
    redex_rel: object
    env: tuple
    nenv: tuple
    rnenv: tuple


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
        self._match_cache = {}

    # -- redex detection ----------------------------------------------------
    def _redex_rule(self, st):
        if st.rel is not None:
            for p, r in st.rel:
                if p == ():
                    return r
            return None
        v = st.value
        if v not in self._match_cache:
            hit = None
            for rule in self.system.rules_for(v):
                if match(rule, v) is not None:
                    hit = rule
                    break
            self._match_cache[v] = hit
        return self._match_cache[v]

    # -- labels ---------------------------------------------------------------
    def label(self, st):
        if isinstance(st, _TState):
            if self._redex_rule(st) is not None:
                return None
            if isinstance(st.value, Var) and isinstance(
                    _assoc_get(st.env, st.value.name), _Closure):
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
                               st.env, st.nenv, ())
            cl = _assoc_get(st.env, st.value.name)
            meta = rule_meta(cl.rule)
            z = cl.node
            i = meta.metavar_args(z.mv).index(cl.lhs_var) + 1
            return _RState(cl.rule, resolve(z.args[i - 1]), cl.redex_value,
                           cl.redex_rel, cl.env, cl.nenv, cl.rnenv)
        z = st.value
        meta = rule_meta(st.rule)
        q = meta.metavar_position(z.mv)
        jump = resolve(subterm_at(st.redex_value, q))
        overrides = []
        for rho, lhs_var in sorted(meta.abs_positions, key=lambda kv: len(kv[0])):
            if rho == q[: len(rho)] and len(rho) < len(q):
                term_abs = resolve(subterm_at(st.redex_value, rho))
                overrides.append(
                    (term_abs.var,
                     _Closure(st.rule, z, st.redex_value, st.redex_rel,
                              st.env, st.nenv, st.rnenv, lhs_var)))
        env = _assoc_extend(st.env, overrides)
        return _TState(jump, _rel_descend_path(st.redex_rel, q), env, st.nenv)

    def eps_walk(self, st):
        """Run to the next labelled state.  Returns (state, stretch) or
        raises FiniteJumpsViolated on an unlabelled cycle."""
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
        return st, stretch

    # -- structural successors of a labelled state ----------------------------
    def successors(self, st):
        v = st.value
        out = []
        if isinstance(st, _TState):
            for i, c in children(v):
                env, nenv = st.env, st.nenv
                if isinstance(v, Abs):
                    chosen = _assoc_get(nenv, v.var)
                    if chosen is None:
                        used = {b for _, b in nenv} | self.avoid
                        chosen = fresh_name(v.var, used)
                        nenv = _assoc_extend(nenv, [(v.var, chosen)])
                    env = _assoc_extend(env, [(v.var, "ord")])
                out.append((i, _TState(resolve(c), _rel_descend(st.rel, i), env, nenv)))
            return out
        for i, c in children(v):
            rnenv = st.rnenv
            if isinstance(v, Abs):
                chosen = _assoc_get(rnenv, v.var)
                if chosen is None:
                    used = {b for _, b in rnenv} | {b for _, b in st.nenv} | self.avoid
                    chosen = fresh_name(v.var, used)
                    rnenv = _assoc_extend(rnenv, [(v.var, chosen)])
            out.append((i, _RState(st.rule, resolve(c), st.redex_value,
                                   st.redex_rel, st.env, st.nenv, rnenv)))
        return out

    # -- decision + construction ----------------------------------------------
    def check_finite_jumps(self):
        """Raises FiniteJumpsViolated (with an unlabelled-cycle witness) when
        some path has an infinite unlabelled stretch."""
        first, _ = self.eps_walk(self.start)
        seen = {first}
        frontier = [first]
        while frontier:
            st = frontier.pop()
            if len(seen) > self.state_budget:
                raise BudgetExceeded("finite-jumps state budget exceeded")
            for _, nxt in self.successors(st):
                lab, _ = self.eps_walk(nxt)
                if lab not in seen:
                    seen.add(lab)
                    frontier.append(lab)

    def finite_jumps(self):
        try:
            self.check_finite_jumps()
            return True
        except FiniteJumpsViolated:
            return False

    def chosen_name(self, st):
        v = st.value
        if isinstance(st, _TState):
            if isinstance(v, Var):
                got = _assoc_get(st.nenv, v.name)
                return got if got is not None else v.name
            return _assoc_get(st.nenv, v.var) if isinstance(v, Abs) else None
        if isinstance(v, Var):
            got = _assoc_get(st.rnenv, v.name)
            return got if got is not None else v.name
        return _assoc_get(st.rnenv, v.var) if isinstance(v, Abs) else None

    def target(self):
        memo = {}
        building = {}
        counter = [0]

        def build(st):
            lab, _ = self.eps_walk(st)
            if lab in building:
                building[lab][1] = True
                return RecVar(building[lab][0])
            if lab in memo:
                return memo[lab]
            counter[0] += 1
            recname = f"T{counter[0]}"
            building[lab] = [recname, False]
            v = lab.value
            succ = dict(self.successors(lab))
            if isinstance(v, Var):
                name = self.chosen_name(lab)
                out = Var(name)
            elif isinstance(v, Abs):
                inner = succ[0]
                if isinstance(inner, _TState):
                    chosen = _assoc_get(inner.nenv, v.var)
                else:
                    chosen = _assoc_get(inner.rnenv, v.var)
                body = build(inner)
                out = Abs(chosen or v.var, body)
            else:  # Sym (meta nodes are unlabelled)
                args = tuple(build(succ[i + 1]) for i in range(len(v.args)))
                out = Sym(v.fun, args)
            name, used = building.pop(lab)
            if used:
                out = Rec(name, out)
            memo[lab] = out
            return out

        return build(self.start)


def _rel_descend_path(rel, q):
    for i in q:
        rel = _rel_descend(rel, i)
    return rel


def has_finite_jumps(term, redexes, system):
    """True iff no path of the term w.r.t. the redex set has an infinite
    unlabelled stretch; equivalently, iff the set has a complete development."""
    return _Machine(term, redexes, system).finite_jumps()


def target_term(term, redexes, system):
    """The unique term matching the maximal path projections."""
    m = _Machine(term, redexes, system)
    m.check_finite_jumps()
    return m.target()


# ---------------------------------------------------------------------------
# developments

@dataclass(frozen=True)
class DevRecord:
    source: Term
    target: Term
    redexes: object  # tuple of Redex, or AllRedexes
    steps: object    # tuple of StepRecord, or None when not realised stepwise
    system: object

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


@dataclass(frozen=True)
class DevSequence:
    """A finite sequence of complete developments s0 => s1 => ... => sn."""
    initial: Term
    stages: tuple

    def __post_init__(self):
        prev = self.initial
        for st in self.stages:
            if st.source is not prev and not alpha_eq(st.source, prev):
                raise PreconditionViolated("development stages do not chain")
            prev = st.target

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
        if isinstance(spec, Redex):
            pos, rule = spec.position, spec.rule
        else:
            pos, rule = spec
            if isinstance(rule, str):
                rule = system.rule(rule)
        v = match(rule, cur, pos)
        if v is None:
            raise PreconditionViolated(
                f"no {rule.name} redex at {position_str(pos)}")
        u = Redex(pos, rule, v)
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
