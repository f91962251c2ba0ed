"""Rewrite rules, systems, and the static well-formedness checks.

A rule pairs a finite pattern left-hand side (symbol at the root, every
meta-variable applied to distinct bound variables) with a rational right-hand
side whose meta-variables all occur on the left.  The checks below gate the
development/essentiality/strategy machinery, which assumes an orthogonal and
fully-extended system throughout.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from .errors import (
    EngineError, ParseError, PreconditionViolated, SystemCheckFailed, TermError,
)
from .records import Frozen
from .rewriting import Substitute, Valuation, apply_substitute, apply_valuation
from .terms import (
    HOLE, Abs, MetaApp, Rec, RecVar, Sym, Var,
    children, env_lookup, free_vars, meta_vars, resolve, subterm_at,
)


class Rule(Frozen, compare=("name", "lhs", "rhs")):
    """A rule, hashed once, when it is built: every `Redex` hash reads the
    digest.  The match memos are keyed by `ref`, a weak reference to the
    rule made once, which hashes and compares like the live rule."""
    __slots__ = ("name", "lhs", "rhs", "digest", "ref", "__weakref__")

    def __init__(self, name, lhs, rhs):
        set_name, set_lhs, set_rhs, set_digest, set_ref = self._set
        set_name(self, name)
        set_lhs(self, lhs)
        set_rhs(self, rhs)
        set_digest(self, hash((name, lhs, rhs)))
        set_ref(self, weakref.ref(self))

    def __hash__(self):
        return self.digest


class RewriteSystem(Frozen, compare=("rules", "signature")):
    __slots__ = ("rules",
                 "signature",  # sorted ((symbol, arity), ...)
                 # (symbol, arity) of the lhs root -> the rules that can
                 # match under that root, in system order; None -> the rules
                 # whose lhs root is no symbol (check_rule rejects them, an
                 # unchecked system may have them), which are candidates at
                 # every node
                 "_rules_by_root",
                 "_valid")  # True once `require_valid` has passed it

    def __init__(self, rules, signature):
        set_rules, set_signature, set_index, set_valid = self._set
        set_valid(self, False)
        set_rules(self, rules)
        set_signature(self, signature)

        def key(r):
            return (r.lhs.fun, len(r.lhs.args)) if isinstance(r.lhs, Sym) else None

        index = {None: tuple(r for r in rules if key(r) is None)}
        for k in {key(r) for r in rules}:
            index[k] = tuple(r for r in rules if key(r) in (k, None))
        set_index(self, index)

    def rule(self, name):
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def rules_for(self, node):
        """The rules that can match at the resolved node, in system order:
        those whose lhs root is the node's symbol with its arity, and those
        whose lhs root is no symbol."""
        index = self._rules_by_root
        if isinstance(node, Sym):
            return index.get((node.fun, len(node.args)), index[None])
        return index[None]


def infer_signature(rules, declared=None):
    """The arity of every symbol of the rules, over the declared ones.  Each
    rule's lhs and then its rhs are walked in pre-order on an explicit
    stack, so an arity clash names the symbol met first."""
    sig = dict(declared or {})
    for r in rules:
        todo = [r.rhs, r.lhs]
        while todo:
            match todo.pop():
                case Sym(f, args, _):
                    n = len(args)
                    if f == HOLE:
                        raise TermError("the hole symbol is reserved")
                    if sig.setdefault(f, n) != n:
                        raise ParseError(
                            f"symbol {f} used with arities {sig[f]} and {n}")
                    todo.extend(reversed(args))
                case Abs(_, body, _) | Rec(_, body):
                    todo.append(body)
                case MetaApp(_, args):
                    todo.extend(reversed(args))
    return tuple(sorted(sig.items()))


class Verdict(Frozen, compare=("check", "ok", "detail")):
    __slots__ = ("check", "ok", "detail", "witness")

    def __init__(self, check, ok, detail="", witness=None):
        set_check, set_ok, set_detail, set_witness = self._set
        set_check(self, check)
        set_ok(self, ok)
        set_detail(self, detail)
        set_witness(self, witness)

    def __bool__(self):
        return self.ok

    def render(self):
        status = "pass" if self.ok else "FAIL"
        msg = f"{self.check}: {status}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


class OverlapWitness(Frozen):
    # instance: a term with an outer redex at the root and an inner one at position
    __slots__ = ("rule_outer", "rule_inner", "position", "instance")

    def __init__(self, rule_outer, rule_inner, position, instance):
        set_outer, set_inner, set_position, set_instance = self._set
        set_outer(self, rule_outer)
        set_inner(self, rule_inner)
        set_position(self, position)
        set_instance(self, instance)


class CheckReport(Frozen):
    __slots__ = ("verdicts",)

    def __init__(self, verdicts):
        self._set[0](self, verdicts)

    @property
    def ok(self):
        return all(v.ok for v in self.verdicts)

    def summary(self):
        return "; ".join(v.render() for v in self.verdicts)

    def render(self):
        return "\n".join(v.render() for v in self.verdicts)


# ---------------------------------------------------------------------------
# the shape of a left-hand side

class MetaOccurrence(NamedTuple):
    name: str
    position: tuple
    args: tuple   # argument variable names; None for an argument that is not one
    scope: tuple  # ((binder position, name), ...) above it, outermost first


class PatternMeta(Frozen):
    __slots__ = ("positions",  # non-meta positions, pre-order (which is sorted order)
                 "abs_map",    # position -> binder name
                 "metavars",   # every MetaOccurrence, pre-order
                 "finite")     # no rec node, meta-variable arguments included
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, positions, abs_map, metavars, finite):
        set_positions, set_abs_map, set_metavars, set_finite = self._set
        set_positions(self, positions)
        set_abs_map(self, abs_map)
        set_metavars(self, metavars)
        set_finite(self, finite)

    def metavar(self, z):
        """The first occurrence of Z (the only one in a left-linear lhs)."""
        for occ in self.metavars:
            if occ.name == z:
                return occ
        raise KeyError(z)

    def max_depth(self):
        return max(map(len, self.positions), default=0)


# lhs -> its PatternMeta (which holds no term node), weak by rule side
_metas = weakref.WeakKeyDictionary()


def pattern_meta(lhs):
    """The shape of a left-hand side, read in one walk that assumes nothing
    of it: a malformed pattern is recorded as it stands, for the checks to
    judge.  Meta-variable arguments (position None) are looked into for rec
    nodes only."""
    meta = _metas.get(lhs)
    if meta is not None:
        return meta
    positions, abs_map, metavars = [], {}, []
    finite = True
    stack = [(lhs, (), ())]
    while stack:
        t, p, scope = stack.pop()
        if isinstance(t, (Rec, RecVar)):
            finite = False
        elif p is None:
            stack.extend((c, None, scope) for _, c in children(t))
        elif isinstance(t, MetaApp):
            metavars.append(MetaOccurrence(
                t.mv, p, tuple(a.name if isinstance(a, Var) else None for a in t.args),
                scope))
            stack.extend((a, None, scope) for a in t.args)
        else:
            positions.append(p)
            if isinstance(t, Abs):
                abs_map[p] = t.var
                scope += ((p, t.var),)
            stack.extend((c, p + (i,), scope) for i, c in reversed(children(t)))
    meta = _metas[lhs] = PatternMeta(tuple(positions), abs_map, tuple(metavars), finite)
    return meta


def max_lhs_depth(system):
    """The depth of the deepest non-meta position of any lhs."""
    return max((pattern_meta(r.lhs).max_depth() for r in system.rules), default=0)


# ---------------------------------------------------------------------------
# individual checks

def check_pattern(l):
    """Every meta-variable occurrence applied to pairwise-distinct bound
    variables; the meta-term itself finite."""
    meta = pattern_meta(l)
    if not meta.finite:
        return Verdict("pattern", False, "left-hand side must be finite")
    for z, _, args, scope in meta.metavars:
        bound = {x for _, x in scope}
        for x in args:
            if x is None:
                return Verdict("pattern", False,
                               f"{z} applied to non-variable argument", witness=l)
            if x not in bound:
                return Verdict("pattern", False,
                               f"{z} applied to unbound variable {x}", witness=l)
        if len(set(args)) != len(args):
            return Verdict("pattern", False,
                           f"{z} applied to non-distinct variables", witness=l)
    return Verdict("pattern", True)


def _metavar_chain_cycle(rhs):
    """Find a cycle of directly nested meta-variable applications in the
    rational rhs graph: the finite-representation form of an infinite chain
    of meta-variables."""
    seen = set()

    def walk(t, meta_path):
        t = resolve(t)
        if isinstance(t, MetaApp):
            if t in meta_path:
                return t
            if t in seen:
                return None
            seen.add(t)
            for a in t.args:
                hit = walk(a, meta_path | {t})
                if hit is not None:
                    return hit
            return None
        if t in seen:
            return None
        seen.add(t)
        for _, c in children(t):
            hit = walk(c, frozenset())
            if hit is not None:
                return hit
        return None

    try:
        return walk(rhs, frozenset())
    finally:
        del walk  # the closure refers to itself: no cycle outlives the call


def check_rule(rule):
    return _check_rule(rule, check_pattern(rule.lhs))


def _check_rule(rule, pat):
    """check_rule, given the verdict of the rule's pattern check."""
    if not pat.ok:
        return Verdict("rule", False, f"{rule.name}: {pat.detail}", witness=pat.witness)
    root = rule.lhs
    if not isinstance(root, Sym):
        return Verdict("rule", False, f"{rule.name}: lhs root must be a function symbol")
    # a pattern's record lists every meta-variable of its lhs
    extra = meta_vars(rule.rhs) - {occ.name for occ in pattern_meta(rule.lhs).metavars}
    if extra:
        return Verdict("rule", False,
                       f"{rule.name}: rhs meta-variables {sorted(extra)} not in lhs")
    for side, t in (("lhs", rule.lhs), ("rhs", rule.rhs)):
        fv = free_vars(t)
        if fv:
            return Verdict("rule", False,
                           f"{rule.name}: {side} has free variables {sorted(fv)}")
    hit = _metavar_chain_cycle(rule.rhs)
    if hit is not None:
        return Verdict("rule", False,
                       f"{rule.name}: rhs has an infinite chain of meta-variables",
                       witness=hit)
    return Verdict("rule", True)


def check_left_linear(system):
    for rule in system.rules:
        places = {}
        for occ in pattern_meta(rule.lhs).metavars:
            places.setdefault(occ.name, []).append(occ.position)
        for z, ps in places.items():
            if len(ps) > 1:
                return Verdict("left-linear", False,
                               f"{rule.name}: {z} occurs {len(ps)} times in lhs",
                               witness=(rule.name, z, tuple(ps)))
    return Verdict("left-linear", True)


def check_fully_extended(system):
    for rule in system.rules:
        for z, _, args, scope in pattern_meta(rule.lhs).metavars:
            missing = [x for _, x in scope if x not in args]
            if missing:
                return Verdict("fully-extended", False,
                               f"{rule.name}: {z} omits in-scope variable {missing[0]}",
                               witness=rule.name)
    return Verdict("fully-extended", True)


# ---------------------------------------------------------------------------
# orthogonality via unification of left-linear patterns

def _rename_metavars(t, suffix):
    match t:
        case MetaApp(z, args):
            return MetaApp(z + suffix, tuple(_rename_metavars(a, suffix) for a in args))
        case Abs(x, body, tag):
            return Abs(x, _rename_metavars(body, suffix), tag)
        case Sym(f, args, tag):
            return Sym(f, tuple(_rename_metavars(a, suffix) for a in args), tag)
        case _:
            return t


class _Unifier:
    """Unification of two left-linear patterns up to a valuation.

    Because each meta-variable occurs exactly once over both sides, a flex
    node unifies against anything whose rigidly-free variables are covered by
    the flex arguments; there are no occurs-checks or flex-flex chains.
    Produces concrete witness substitutes so overlaps can be replayed.
    """

    def __init__(self):
        self.sigma = {}
        self._fresh = 0

    def _const(self):
        self._fresh += 1
        return Sym(f"w{self._fresh}", ())

    def unify(self, a, b, pairs):
        """pairs: tuple of (left-side name, right-side name) binder pairs."""
        match a, b:
            case MetaApp(_, _), _:
                return self._flex(a, b, pairs, flip=False)
            case _, MetaApp(_, _):
                return self._flex(b, a, pairs, flip=True)
            case Var(x, _), Var(y, _):
                return env_lookup(pairs, x, y)
            case Abs(x, s, _), Abs(y, t, _):
                return self.unify(s, t, pairs + ((x, y),))
            case Sym(f, xs, _), Sym(g, ys, _):
                return (f == g and len(xs) == len(ys)
                        and all(self.unify(s, t, pairs) for s, t in zip(xs, ys)))
            case _:
                return False

    def _flex(self, flex, other, pairs, flip):
        # the flex side's argument names, translated into the other side's world
        trans = {}
        for x, y in pairs:
            a, b = (x, y) if not flip else (y, x)
            trans[a] = b
        allowed = set()
        for arg in flex.args:
            if arg.name in trans:
                allowed.add(trans[arg.name])
        if not self._coverable(other, allowed, frozenset()):
            return False
        body = self._ground(other, {v: Var(k) for k, v in trans.items()
                                    if v in allowed})
        self.sigma[flex.mv] = Substitute(tuple(a.name for a in flex.args), body)
        return True

    def _coverable(self, t, allowed, local):
        """No rigidly-free variable of t escapes the allowed set."""
        match t:
            case Var(x, _):
                return x in local or x in allowed
            case Abs(x, body, _):
                return self._coverable(body, allowed, local | {x})
            case Sym(_, args, _):
                return all(self._coverable(a, allowed, local) for a in args)
            case MetaApp(_, _):
                return True  # its substitute may drop every argument
            case _:
                return False

    def _ground(self, t, rename):
        """Witness image of t: translate paired variables, instantiate the
        other side's meta-variables with fresh constants."""
        match t:
            case Var(x, tag):
                return rename.get(x, Var(x, tag))
            case Abs(x, body, tag):
                inner = dict(rename)
                inner.pop(x, None)
                return Abs(x, self._ground(body, inner), tag)
            case Sym(f, args, tag):
                return Sym(f, tuple(self._ground(a, rename) for a in args), tag)
            case MetaApp(z, args):
                if z not in self.sigma:
                    self.sigma[z] = Substitute(
                        tuple(a.name for a in args), self._const())
                sub = self.sigma[z]
                return apply_substitute(
                    sub, tuple(self._ground(a, rename) for a in args))
        raise TermError("pattern contains a rec node")


def check_orthogonal(system):
    """The first overlap in (outer rule, inner rule, position) order, or a
    pass.  The system must be left-linear, with pattern left-hand sides."""
    if any(not check_pattern(r.lhs).ok for r in system.rules):
        raise PreconditionViolated("orthogonality check requires pattern left-hand sides")
    if not check_left_linear(system).ok:
        raise PreconditionViolated("orthogonality check requires a left-linear system")
    return _first_overlap(system)


def _first_overlap(system):
    """check_orthogonal's search, for a system that passed its guards.
    A rule's non-meta positions are read off its pattern record.  A
    position whose symbol or arity differs from the inner lhs root symbol is
    skipped without unifying, as unification would fail on that first
    comparison; the inner rule's metavariables are renamed once, when a
    position first passes."""
    inners = {}
    for i, r1 in enumerate(system.rules):
        sites = [(p, subterm_at(r1.lhs, p)) for p in pattern_meta(r1.lhs).positions]
        for j, r2 in enumerate(system.rules):
            root = r2.lhs
            for p, node in sites:
                if i == j and p == ():
                    continue  # a rule trivially overlaps its own copy at the root
                if isinstance(root, Sym) and not (
                        isinstance(node, Sym) and node.fun == root.fun
                        and len(node.args) == len(root.args)):
                    continue
                if j not in inners:
                    inners[j] = Rule(r2.name, _rename_metavars(root, "#2"), r2.rhs)
                inner = inners[j]
                uni = _Unifier()
                if uni.unify(node, inner.lhs, ()):
                    witness = _overlap_instance(r1, inner, p, uni)
                    return Verdict(
                        "orthogonal", False,
                        f"rules {r1.name} and {inner.name} overlap at {'.'.join(map(str, p)) or '@'}",
                        witness=witness)
    return Verdict("orthogonal", True)


def _overlap_instance(r1, inner, p, uni):
    """Build a replayable overlap witness term from the collected bindings."""
    sigma = dict(uni.sigma)
    for rule in (r1, inner):
        for z, _, args, _ in pattern_meta(rule.lhs).metavars:
            if z not in sigma:
                sigma[z] = Substitute(args, uni._const())
    try:
        instance = apply_valuation(Valuation(sigma), r1.lhs)
    except EngineError:  # a witness is best-effort; the position is authoritative
        instance = None
    return OverlapWitness(r1.name, inner.name, p, instance)


def check_system(system):
    """Every check, each run once per rule: the pattern verdicts feed the
    rule verdicts and the orthogonality guard alike."""
    patterns = [check_pattern(r.lhs) for r in system.rules]
    rule_verdicts = [_check_rule(r, pat) for r, pat in zip(system.rules, patterns)]
    bad = next((v for v in rule_verdicts if not v.ok), None)
    verdicts = [bad if bad is not None else Verdict("rule", True)]
    ll = check_left_linear(system)
    verdicts.append(ll)
    verdicts.append(check_fully_extended(system))
    non_pattern = next((r for r, pat in zip(system.rules, patterns) if not pat.ok), None)
    if non_pattern is not None:
        verdicts.append(Verdict(
            "orthogonal", False, f"skipped: lhs of {non_pattern.name} is not a pattern"))
    elif ll.ok:
        verdicts.append(_first_overlap(system))
    else:
        verdicts.append(Verdict("orthogonal", False, "skipped: not left-linear"))
    return CheckReport(tuple(verdicts))


def require_valid(system):
    """Gate for development/essentiality/strategy operations.  A system
    that passes is marked and not checked again; one that fails is checked
    again, and raises, on every call."""
    if not system._valid:
        report = check_system(system)
        if not report.ok:
            raise SystemCheckFailed(report)
        object.__setattr__(system, "_valid", True)
    return system
