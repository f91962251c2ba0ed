"""Paths are nodes of a trie over path nodes that a PathSpace builds once
each, and the walk machine builds the target term in the walk that checks
finite jumps.  The routes they replaced are written out here as
references: paths as tuples of nodes and edges over position-keyed lookups
made from the root, check-then-build target terms, and projections keyed
by whole tuples.  Each new route must agree with its reference."""

import random

import pytest

from icrs import (
    ALL_REDEXES, PathSpace, complete_development, parse_system, parse_term,
    path_prefix_set, print_term, target_term,
)
from icrs.developments import Path, _assoc_get, _Machine
from icrs.errors import BudgetExceeded, EngineError, FiniteJumpsViolated
from icrs.oracle import OracleReport, phi_injectivity_check
from icrs.rewriting import redex_at
from icrs.systems import pattern_meta
from icrs.terms import (
    Abs, MetaApp, Rec, RecVar, Sym, Var, children, has_vars,
    positions_to_depth, resolve, root_label, subterm_at,
)

import genrand


# ---------------------------------------------------------------------------
# the tuple route: a term node is ("s", position), a rule node
# (rule name, rhs position, redex position), a path (nodes, edges)

class TuplePaths:
    """The former PathSpace: every lookup keyed by position and walked
    from the root, every extension copying the path's tuples."""

    def __init__(self, term, redexes, system):
        self.term = term
        self.system = system
        self.by_pos = (None if redexes is ALL_REDEXES
                       else {u.position: u for u in redexes})

    def subterm(self, p):
        return resolve(subterm_at(self.term, p))

    def redex(self, p):
        if self.by_pos is None:
            return redex_at(self.term, self.system, p)
        return self.by_pos.get(p)

    def bound_by(self, p):
        node = self.subterm(p)
        if not isinstance(node, Var):
            return None
        for i in range(len(p) - 1, -1, -1):
            t = self.subterm(p[:i])
            if isinstance(t, Abs) and t.var == node.name:
                q = p[:i]
                break
        else:
            return None
        for k in range(len(q) + 1):
            u = self.redex(q[:k])
            if u is not None and q[k:] in pattern_meta(u.rule.lhs).abs_map:
                return u, pattern_meta(u.rule.lhs).abs_map[q[k:]]
        return None

    def extensions(self, nodes):
        last = nodes[-1]
        if last[0] == "s":
            p = last[1]
            u = self.redex(p)
            if u is not None:
                return [(None, (u.rule.name, (), p))]
            bound = self.bound_by(p)
            if bound is not None:
                u, lhs_var = bound
                for n in reversed(nodes):
                    if n[0] != "s" and n[2] == u.position:
                        z = resolve(subterm_at(u.rule.rhs, n[1]))
                        i = pattern_meta(u.rule.lhs).metavar(z.mv).args.index(lhs_var) + 1
                        return [(None, (u.rule.name, n[1] + (i,), u.position))]
                raise AssertionError("bound variable reached before its redex")
            return [(i, ("s", p + (i,))) for i, _ in children(self.subterm(p))]
        name, pos, redex = last
        rule = self.system.rule(name)
        node = resolve(subterm_at(rule.rhs, pos))
        if isinstance(node, MetaApp):
            return [(None, ("s", redex + pattern_meta(rule.lhs).metavar(node.mv).position))]
        return [(i, (name, pos + (i,), redex)) for i, _ in children(node)]

    def label(self, n):
        if n[0] == "s":
            if self.redex(n[1]) is not None or self.bound_by(n[1]) is not None:
                return None
            return root_label(self.subterm(n[1]))
        node = resolve(subterm_at(self.system.rule(n[0]).rhs, n[1]))
        return None if isinstance(node, MetaApp) else root_label(node)

    def enumerate(self, budget, prefix=None):
        """The maximal paths, or, given a prefix set, every path whose
        word lies in it; and the paths cut by the budget."""
        found, truncated = [], []
        stack = [((("s", ()),), ())]
        while stack:
            nodes, edges = stack.pop()
            if prefix is not None:
                found.append((nodes, edges))
            exts = [(e, n) for e, n in self.extensions(nodes)
                    if prefix is None or e is None
                    or word((nodes, edges)) + (e,) in prefix]
            if not exts:
                if prefix is None:
                    found.append((nodes, edges))
            elif len(nodes) >= budget:
                truncated.append((nodes, edges))
            else:
                stack.extend((nodes + (n,), edges + (e,)) for e, n in exts)
        return found, truncated

    def descendants_of(self, p, budget):
        out = set()
        stack = [((("s", ()),), ())]
        seen = 0
        while stack:
            nodes, edges = stack.pop()
            seen += 1
            if seen > budget * 4:
                raise BudgetExceeded("descendant walk exceeded its budget")
            last = nodes[-1]
            if last[0] == "s":
                q = last[1]
                if q == p and self.label(last) is not None:
                    out.add(word((nodes, edges)))
                if p[:len(q)] != q and not has_vars(self.subterm(q)):
                    continue
            if len(nodes) >= budget:
                raise BudgetExceeded("descendant walk exceeded its budget")
            stack.extend((nodes + (n,), edges + (e,))
                         for e, n in self.extensions(nodes))
        return out


def word(path):
    return tuple(e for e in path[1] if e is not None)


def position(p):
    return ".".join(map(str, p)) or "@"


def render_node(n):
    if n[0] == "s":
        return f"(s,{position(n[1])})"
    return f"({n[0]},{position(n[1])},{position(n[2])})"


def render(path):
    nodes, edges = path
    bits = [render_node(nodes[0])]
    for e, n in zip(edges, nodes[1:]):
        bits += [f"-{'e' if e is None else e}->", render_node(n)]
    return " ".join(bits)


def render_projection(walker, path):
    nodes, edges = path
    labels = ["." if walker.label(n) is None else walker.label(n) for n in nodes]
    bits = [labels[0]]
    for e, label in zip(edges, labels[1:]):
        bits += [f"-{'e' if e is None else e}->", label]
    return " ".join(bits)


def outcome(fn):
    try:
        return fn()
    except EngineError as e:
        return type(e)


def instances(seed, count):
    """(term, redex set, system) triples: a seeded set and all redexes of
    every seeded term."""
    rng = random.Random(seed)
    out = []
    while len(out) < 2 * count:
        system = genrand.random_system(rng)
        t = genrand.random_term(rng, system, 3)
        us = genrand.random_redex_set(rng, t, system, max_size=3)
        out += [(t, us, system), (t, ALL_REDEXES, system)]
    return out


class ShortWords:
    """Every word of length 2 or less, as a prefix-closed set."""

    def __contains__(self, w):
        return len(w) <= 2


def target_words(t, us, system):
    """A prefix-closed set of words: the positions of the developed term to
    depth 2, or every word of length 2 or less when the set has no complete
    development."""
    target = outcome(lambda: target_term(t, us, system))
    if isinstance(target, type):
        return ShortWords()
    return frozenset(positions_to_depth(target, 2))


# ---------------------------------------------------------------------------

class TestTrieAgainstTuples:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_enumerate_and_descendants(self, seed):
        cyclic = cut = filtered = described = 0
        for t, us, system in instances(seed, 40):
            cyclic += "rec" in print_term(t)
            space = PathSpace(t, us, system)
            old = TuplePaths(t, us, system)
            for budget in (6, 20):
                for prefix in (None, target_words(t, us, system)):
                    new = space.enumerate(budget, prefix)
                    ref, ref_cut = old.enumerate(budget, prefix)
                    got = new.maximal
                    assert [p.render() for p in got] == [render(p) for p in ref]
                    assert [p.word for p in got] == [word(p) for p in ref]
                    assert ([space.project(p).render() for p in got]
                            == [render_projection(old, p) for p in ref])
                    assert ([p.render() for p in new.truncated]
                            == [render(p) for p in ref_cut])
                    cut += bool(ref_cut)
                    filtered += prefix is not None and bool(ref)
            for p in sorted(positions_to_depth(t, 2)):
                got = outcome(lambda: space.descendants_of(p, budget=30))
                assert got == outcome(lambda: old.descendants_of(p, budget=30))
                described += bool(got) and not isinstance(got, type)
        assert cyclic >= 10
        assert cut >= 40
        assert filtered >= 100
        assert described >= 100

    def test_path_prefix_sets(self):
        rng = random.Random(9)
        checked = differing = 0
        while checked < 60:
            system = genrand.random_system(rng)
            t = genrand.random_term(rng, system, 3)
            us = genrand.random_redex_set(rng, t, system, max_size=3)
            dev = complete_development(t, us, system)
            prefixes = [genrand.random_prefix_set(rng, dev.target, max_depth=2)
                        for _ in range(3)]
            prefixes = [p for p in prefixes if p]
            if not prefixes:
                continue
            old = TuplePaths(t, us, system)
            sets, refs = [], []
            for prefix in prefixes:
                pps = path_prefix_set(prefix, dev)
                ref, _ = old.enumerate(4000, prefix)
                assert sorted(p.render() for p in pps.paths) == sorted(map(render, ref))
                # built afresh, in a space of its own, it is the same set
                assert path_prefix_set(prefix, dev) == pps
                sets.append(frozenset(pps.paths))
                refs.append(frozenset(ref))
            for a, ra in zip(sets, refs):
                for b, rb in zip(sets, refs):
                    assert (a == b) == (ra == rb)
                    assert (a <= b) == (ra <= rb)
                    differing += a != b
            checked += 1
        assert differing >= 20


# ---------------------------------------------------------------------------
# the target term: one walk against check, then build

def old_eps_walk(m, st):
    """The former eps_walk, remembering nothing between walks."""
    stretch, seen = [], set()
    while m.label(st) is None:
        if st in seen:
            raise FiniteJumpsViolated("infinite stretch of unlabelled nodes",
                                      witness=tuple(stretch))
        seen.add(st)
        stretch.append(st)
        st = m._eps_successor(st)
    return st


def check_then_build(term, redexes, system, state_budget=200_000):
    """The former target_term: the finite jumps check walks every labelled
    state, then the build walks them again from the start."""
    m = _Machine(term, redexes, system, state_budget)
    first = old_eps_walk(m, m.start)
    seen, frontier = {first}, [first]
    while frontier:
        st = frontier.pop()
        if len(seen) > m.state_budget:
            raise BudgetExceeded("finite-jumps state budget exceeded")
        for _, nxt in m.successors(st):
            lab = old_eps_walk(m, nxt)
            if lab not in seen:
                seen.add(lab)
                frontier.append(lab)
    memo, building, counter = {}, {}, [0]

    def build(st):
        lab = old_eps_walk(m, st)
        if lab in building:
            building[lab][1] = True
            return RecVar(building[lab][0])
        if lab in memo:
            return memo[lab]
        counter[0] += 1
        building[lab] = [f"T{counter[0]}", False]
        v = lab.value
        succ = dict(m.successors(lab))
        if isinstance(v, Var):
            out = Var(_assoc_get(lab.names, v.name) or v.name)
        elif isinstance(v, Abs):
            inner = succ[0]
            out = Abs(_assoc_get(inner.names, v.var), build(inner))
        else:
            out = Sym(v.fun, tuple(build(succ[i + 1]) for i in range(len(v.args))))
        name, used = building.pop(lab)
        if used:
            out = Rec(name, out)
        memo[lab] = out
        return out

    return build(m.start)


def witness_or_target(fn):
    try:
        return print_term(fn())
    except FiniteJumpsViolated as e:
        return FiniteJumpsViolated, [st.render() for st in e.witness]
    except EngineError as e:
        return type(e)


VIOLATIONS = [
    ("rule collapse: f(Z) -> Z ; sym a/0 ;", "rec F. f(F)"),
    ("rule collapse: f(Z) -> Z ; sym a/0 ; sym c2/2 ;", "c2(a, rec F. f(F))"),
    ("rule beta: app(abs([x] Z(x)), Z') -> Z(Z') ;", "rec S. app(abs([x] x), S)"),
    ("rule tail: tl(cons(X, XS)) -> XS ; sym zero/0 ;", "rec L. tl(cons(zero, L))"),
    ("rule head: hd(cons(X, XS)) -> X ; sym nil/0 ;", "rec L. hd(cons(L, nil))"),
]


class TestOneWalkTarget:
    def test_seeded_instances(self):
        built = cyclic = 0
        for t, us, system in instances(11, 60):
            got = witness_or_target(lambda: target_term(t, us, system))
            assert got == witness_or_target(lambda: check_then_build(t, us, system))
            built += isinstance(got, str)
            cyclic += isinstance(got, str) and "rec" in got
        assert built >= 100
        assert cyclic >= 10

    @pytest.mark.parametrize("system_text,term", VIOLATIONS)
    def test_violations_raise_with_the_same_witness(self, system_text, term):
        system, t = parse_system(system_text), parse_term(term)
        got = witness_or_target(lambda: target_term(t, ALL_REDEXES, system))
        assert got[0] is FiniteJumpsViolated and got[1]
        assert got == witness_or_target(
            lambda: check_then_build(t, ALL_REDEXES, system))

    def test_small_state_budget(self):
        exceeded = 0
        for t, us, system in instances(12, 30):
            for budget in (1, 3):
                got = witness_or_target(lambda: _Machine(t, us, system, budget).target())
                assert got == witness_or_target(
                    lambda: check_then_build(t, us, system, budget))
                exceeded += got is BudgetExceeded
        assert exceeded >= 30


# ---------------------------------------------------------------------------
# projection injectivity: numbered projections against tuple keys

def tuple_key_phi(term, redexes, system, budget):
    """The former phi_injectivity_check: every projection is its whole tuple
    of labels and edges."""
    space = PathSpace(term, redexes, system)
    init = space.initial()
    init_proj = (init.node.label,)
    seen = {init_proj: init}
    count = 0
    stack = [(init, init_proj)]
    while stack:
        path, proj = stack.pop()
        count += 1
        if len(path) >= budget:
            continue
        for e, n in space.extensions(path):
            p2 = Path(path, e, n)
            proj2 = proj + (e, n.label)
            other = seen.get(proj2)
            if other is not None and other != p2:
                return OracleReport("phi-injectivity", count, 0, (other, p2))
            seen[proj2] = p2
            stack.append((p2, proj2))
    return OracleReport("phi-injectivity", count, count)


def summary(report):
    witness = report.first_disagreement
    return (report.instances, report.agreements, report.ok,
            witness and tuple(p.render() for p in witness))


class TestNumberedProjections:
    def test_same_counts_and_verdicts(self):
        visited = 0
        for t, us, system in instances(13, 40)[::2]:
            got = summary(phi_injectivity_check(t, us, system, budget=40))
            assert got == summary(tuple_key_phi(t, us, system, 40))
            assert got[2]
            visited += got[0]
        assert visited >= 2000

    def test_forced_collision_is_reported_by_both(self, monkeypatch):
        # the edges of a path determine it, so a constant label collides
        # only once the edges are erased as well; every path starts at the
        # root, so its label is left as it is
        extensions = PathSpace.extensions

        def constant(self, path):
            out = tuple(n for _, n in extensions(self, path))
            for n in out:
                n.label = "c"
            return tuple((None, n) for n in out)

        monkeypatch.setattr(PathSpace, "extensions", constant)
        reported = 0
        for t, us, system in instances(14, 20)[::2]:
            got = summary(phi_injectivity_check(t, us, system, budget=40))
            assert got == summary(tuple_key_phi(t, us, system, 40))
            reported += not got[2]
        assert reported >= 5
